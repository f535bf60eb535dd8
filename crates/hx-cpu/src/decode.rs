//! Predecoded-instruction cache and fetch-translation fast path.
//!
//! `Cpu::step` normally pays the full interpreter tax on every instruction:
//! translate the PC, fetch the word from the bus, decode it. Execution-replay
//! monitors avoid this with a *decoded cache* — the same trick is safe here
//! because the simulation is deterministic and every way a cached entry could
//! go stale is an explicit, observable event:
//!
//! * **stores and DMA writes** bump a per-page generation counter in RAM
//!   (surfaced through [`Bus::fetch_page_generation`]); a mismatch drops the
//!   predecoded page;
//! * **page-table changes** (including shadow-page-table activation, which is
//!   a `ptbr` write) flush the TLB, which bumps the TLB generation and kills
//!   the fetch fast-path line.
//!
//! The cache is strictly *timing-neutral*: it caches only work whose cost is
//! already zero in the cycle model (RAM fetch, decode) and replays the TLB
//! hit the slow path would have recorded, so cycle counts, `TimeStats`, TLB
//! statistics and traces are byte-identical with the cache on or off. Only
//! host-side speed changes.

use crate::isa::Instr;
use crate::mmu;
use crate::trap::{Cause, Trap};
use crate::{Bus, Mode};

/// Direct-mapped page slots (keyed by physical page number).
const PAGE_SLOTS: usize = 64;
/// Instruction words per 4 KiB page.
const WORDS_PER_PAGE: usize = (mmu::PAGE_SIZE as usize) / 4;

/// Counters for the decode cache and the fetch-translation fast path.
///
/// These are host-side performance diagnostics: they are **not** part of the
/// guest-visible machine state and never enter state digests, so cache-on and
/// cache-off runs stay bit-identical everywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Instructions served predecoded.
    pub hits: u64,
    /// Instructions fetched from the bus and decoded the slow way.
    pub misses: u64,
    /// Fetch translations served from the one-entry fast-path line.
    pub fast_fetches: u64,
    /// Predecoded pages dropped because their contents changed
    /// (stores or DMA writes into the page).
    pub invalidations: u64,
}

impl DecodeStats {
    /// Decode-cache hit rate in `[0, 1]`; `0` when nothing was fetched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as `(stable metric name, value)` pairs, so exporters
    /// (the metrics snapshot, the `qStats` wire sample) stay in sync with
    /// this struct by construction instead of hand-listing fields.
    pub fn kv(&self) -> [(&'static str, u64); 4] {
        [
            ("lwvmm_decode_hits_total", self.hits),
            ("lwvmm_decode_misses_total", self.misses),
            ("lwvmm_decode_fast_fetches_total", self.fast_fetches),
            ("lwvmm_decode_invalidations_total", self.invalidations),
        ]
    }
}

/// One predecoded physical page.
#[derive(Debug, Clone)]
struct PageEntry {
    /// Physical page base address.
    page: u32,
    /// Bus generation the page was predecoded at.
    gen: u64,
    /// Predecoded `(word, instruction)` per word offset. Only successful
    /// decodes are cached; illegal words re-decode (and re-trap) every time.
    slots: Box<[Option<(u32, Instr)>; WORDS_PER_PAGE]>,
}

impl PageEntry {
    fn new(page: u32, gen: u64) -> PageEntry {
        PageEntry {
            page,
            gen,
            slots: Box::new([None; WORDS_PER_PAGE]),
        }
    }
}

/// One-entry fetch-translation cache.
///
/// Valid only while the TLB generation is unchanged: any TLB insert or flush
/// (page-table edit, `ptbr` write, shadow activation, `tlbflush`) kills it,
/// so it can never outlive the translation it memoised. Used only while
/// paging is enabled — with paging off, translation is the identity.
#[derive(Debug, Clone, Copy, Default)]
struct FetchLine {
    valid: bool,
    vpn: u32,
    pa_page: u32,
    mode: Mode,
    tlb_gen: u64,
}

/// The predecoded-instruction cache (see the module docs).
#[derive(Debug, Clone)]
pub struct DecodeCache {
    pages: Vec<Option<PageEntry>>,
    line: FetchLine,
    pub(crate) stats: DecodeStats,
}

impl DecodeCache {
    pub(crate) fn new() -> DecodeCache {
        DecodeCache {
            pages: (0..PAGE_SLOTS).map(|_| None).collect(),
            line: FetchLine::default(),
            stats: DecodeStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> DecodeStats {
        self.stats
    }

    fn slot(pa: u32) -> usize {
        ((pa >> 12) as usize) % PAGE_SLOTS
    }

    /// Fast-path fetch translation: the physical address of `pc` if the
    /// memoised line still provably matches what the TLB would answer.
    pub(crate) fn fetch_pa(&self, pc: u32, mode: Mode, tlb_gen: u64) -> Option<u32> {
        let l = &self.line;
        if l.valid && l.vpn == mmu::vpn(pc) && l.mode == mode && l.tlb_gen == tlb_gen {
            Some(l.pa_page | (pc & mmu::PAGE_MASK))
        } else {
            None
        }
    }

    /// Memoises a successful fetch translation for [`DecodeCache::fetch_pa`].
    pub(crate) fn remember_fetch(&mut self, pc: u32, pa: u32, mode: Mode, tlb_gen: u64) {
        self.line = FetchLine {
            valid: true,
            vpn: mmu::vpn(pc),
            pa_page: pa & !mmu::PAGE_MASK,
            mode,
            tlb_gen,
        };
    }

    /// Returns the predecoded instruction at physical address `pa`, filling
    /// the cache on a miss. `gen` is the bus's current generation for the
    /// page (see [`Bus::fetch_page_generation`]); a stale predecoded page is
    /// dropped and refilled.
    ///
    /// # Errors
    ///
    /// The same traps the slow path raises: [`Cause::InstrAccessFault`] if
    /// the fetch fails, [`Cause::IllegalInstruction`] if the word does not
    /// decode (`tval` = the word, as the trap contract requires).
    pub(crate) fn lookup_or_fill<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        pa: u32,
        gen: u64,
        pc: u32,
    ) -> Result<(u32, Instr), Trap> {
        let slot = Self::slot(pa);
        let page = pa & !mmu::PAGE_MASK;
        let wi = ((pa & mmu::PAGE_MASK) >> 2) as usize;

        let reuse = match &self.pages[slot] {
            Some(e) if e.page == page && e.gen == gen => true,
            Some(e) if e.page == page => {
                self.stats.invalidations += 1;
                false
            }
            _ => false,
        };
        if reuse {
            if let Some(cached) = self.pages[slot].as_ref().and_then(|e| e.slots[wi]) {
                self.stats.hits += 1;
                return Ok(cached);
            }
        }

        self.stats.misses += 1;
        let word = bus
            .fetch(pa)
            .map_err(|_| Trap::new(Cause::InstrAccessFault, pc, pc))?;
        let instr =
            Instr::decode(word).map_err(|_| Trap::new(Cause::IllegalInstruction, pc, word))?;

        if !reuse {
            match &mut self.pages[slot] {
                Some(e) => {
                    e.page = page;
                    e.gen = gen;
                    e.slots.fill(None);
                }
                empty => *empty = Some(PageEntry::new(page, gen)),
            }
        }
        if let Some(e) = &mut self.pages[slot] {
            e.slots[wi] = Some((word, instr));
        }
        Ok((word, instr))
    }
}
