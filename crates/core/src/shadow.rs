//! Shadow paging: the monitor's page tables that the hardware *actually*
//! walks while the guest believes it controls its own.
//!
//! This module implements the paper's three-level memory protection on the
//! two-level hardware:
//!
//! * The monitor reserves the top of physical RAM for itself (shadow tables
//!   live there). **No shadow entry ever maps this region**, so neither the
//!   guest kernel nor its applications can touch the monitor — level 3.
//!   What the monitor itself reads or writes for the guest goes through
//!   [`GuestRam`], which ends where this region begins.
//! * Each guest address space gets **two** shadow tables: the *kernel view*
//!   (all guest mappings) and the *user view* (only guest pages with the
//!   user bit). The monitor activates the view matching the guest's
//!   *virtual* mode, so guest-kernel pages are unreachable from guest
//!   applications even though the hardware runs both in user mode — level 2.
//! * Guest page permissions are folded into the shadow entries — level 1.
//!
//! Shadow entries are filled lazily on page faults and discarded wholesale
//! when the guest flushes its TLB or switches page tables (the architectural
//! contract that page-table edits require a `tlbflush` makes this correct).
//! Dirty tracking is preserved: a guest page whose PTE has `D = 0` is mapped
//! read-only first, so the guest PTE's dirty bit is set before any store
//! lands.

use hx_cpu::mmu::{self, pte, PAGE_SIZE};
use hx_cpu::{Bus, BusFault, MemSize, Mode};
use hx_machine::{map, Ram};
use std::collections::HashMap;

/// Classification of a guest-physical page under the monitor's policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Ordinary guest RAM — mapped through.
    GuestRam,
    /// Monitor-reserved RAM — never mapped (protection level 3).
    Monitor,
    /// A device the monitor emulates for the guest (PIC, PIT, UART).
    EmulatedMmio,
    /// A device passed through to the guest (disk controller, NIC).
    PassthroughMmio,
    /// Nothing lives here.
    Unmapped,
}

/// Classifies a guest-physical address.
pub fn classify(pa: u32, monitor_base: u32, ram_size: u32) -> PageClass {
    if pa < monitor_base {
        return PageClass::GuestRam;
    }
    if pa < ram_size {
        return PageClass::Monitor;
    }
    let page = pa & !(map::DEV_PAGE - 1);
    match page {
        map::PIC_BASE | map::PIT_BASE | map::UART_BASE => PageClass::EmulatedMmio,
        // The tracepoint page is passed through: guest tracepoint stores hit
        // the bus directly, so instrumented kernels pay no exit cost.
        map::HDC_BASE | map::NIC_BASE | map::TRACE_BASE => PageClass::PassthroughMmio,
        _ => PageClass::Unmapped,
    }
}

/// Guest RAM as the monitor touches it on the guest's behalf: the physical
/// range below the monitor's region, as a [`Bus`]. This is protection
/// level 3 as a type. Every monitor-side walk of a guest page table (with
/// its accessed/dirty write-back), every fetch and access of an instruction
/// the monitor emulates and every debugger byte goes through it, so no
/// guest table, PTE or stale shadow entry can aim any of them at monitor
/// memory or a device.
#[derive(Debug)]
pub struct GuestRam<'a> {
    mem: &'a mut Ram,
    end: u32,
}

impl<'a> GuestRam<'a> {
    /// The part of `mem` below `monitor_base`.
    pub fn new(mem: &'a mut Ram, monitor_base: u32) -> GuestRam<'a> {
        GuestRam {
            mem,
            end: monitor_base,
        }
    }

    /// Whether the byte at `pa` is guest RAM.
    pub fn contains(&self, pa: u32) -> bool {
        pa < self.end
    }

    fn check(&self, pa: u32, size: MemSize) -> Result<(), BusFault> {
        match pa.checked_add(size.bytes()) {
            Some(end) if end <= self.end => Ok(()),
            _ => Err(BusFault::Denied),
        }
    }
}

impl Bus for GuestRam<'_> {
    fn read(&mut self, pa: u32, size: MemSize) -> Result<u32, BusFault> {
        self.check(pa, size)?;
        self.mem.read(pa, size)
    }

    fn write(&mut self, pa: u32, val: u32, size: MemSize) -> Result<(), BusFault> {
        self.check(pa, size)?;
        self.mem.write(pa, val, size)
    }
}

/// Counters exposed for the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Shadow entries filled on demand.
    pub fills: u64,
    /// Context flushes (guest `tlbflush` / page-table switches).
    pub flushes: u64,
    /// Shadow contexts created.
    pub contexts: u64,
    /// Guest attempts to reach monitor memory, blocked.
    pub protection_violations: u64,
}

#[derive(Debug, Clone)]
struct ShadowPair {
    kernel_root: u32,
    user_root: u32,
    l2_pages: Vec<u32>,
}

/// The shadow page-table manager.
///
/// All tables live in the monitor's reserved region of machine RAM, so the
/// hardware walker reads them like any other page table.
#[derive(Debug, Clone)]
pub struct ShadowPager {
    region_base: u32,
    region_end: u32,
    bump: u32,
    free: Vec<u32>,
    contexts: HashMap<u32, ShadowPair>,
    /// Statistics (public for the benchmark harnesses).
    pub stats: ShadowStats,
}

/// Maximum cached guest address spaces before a wholesale eviction.
const MAX_CONTEXTS: usize = 8;

impl ShadowPager {
    /// Creates a pager managing the page-aligned region
    /// `[region_base, region_end)` of monitor memory.
    ///
    /// # Panics
    ///
    /// Panics if the region is not page-aligned or too small to hold a
    /// single context.
    pub fn new(region_base: u32, region_end: u32) -> ShadowPager {
        assert_eq!(region_base % PAGE_SIZE, 0, "region must be page-aligned");
        assert_eq!(region_end % PAGE_SIZE, 0, "region must be page-aligned");
        assert!(
            region_end - region_base >= 8 * PAGE_SIZE,
            "shadow region too small"
        );
        ShadowPager {
            region_base,
            region_end,
            bump: region_base,
            free: Vec::new(),
            contexts: HashMap::new(),
            stats: ShadowStats::default(),
        }
    }

    /// Base of the monitor-reserved region this pager protects.
    pub fn region_base(&self) -> u32 {
        self.region_base
    }

    fn alloc_page(&mut self, mem: &mut Ram) -> u32 {
        let page = if let Some(p) = self.free.pop() {
            p
        } else if self.bump < self.region_end {
            let p = self.bump;
            self.bump += PAGE_SIZE;
            p
        } else {
            panic!("shadow page pool exhausted; enlarge the monitor region");
        };
        mem.as_bytes_mut()[page as usize..(page + PAGE_SIZE) as usize].fill(0);
        page
    }

    /// Gets (creating if needed) the shadow root for `(guest_ptbr_key,
    /// vmode)`. Key convention: the guest's raw virtual `PTBR` value, or `0`
    /// when guest paging is off.
    pub fn root_for(&mut self, mem: &mut Ram, key: u32, vmode: Mode) -> u32 {
        if !self.contexts.contains_key(&key) {
            if self.contexts.len() >= MAX_CONTEXTS {
                self.flush_all(mem);
            }
            let kernel_root = self.alloc_page(mem);
            let user_root = self.alloc_page(mem);
            self.contexts.insert(
                key,
                ShadowPair {
                    kernel_root,
                    user_root,
                    l2_pages: Vec::new(),
                },
            );
            self.stats.contexts += 1;
        }
        let pair = &self.contexts[&key];
        match vmode {
            Mode::Supervisor => pair.kernel_root,
            Mode::User => pair.user_root,
        }
    }

    /// Installs a shadow leaf mapping `va → pa` with `flags` into the given
    /// view of context `key`.
    pub fn map(&mut self, mem: &mut Ram, key: u32, vmode: Mode, va: u32, pa: u32, flags: u32) {
        let root = self.root_for(mem, key, vmode);
        let l1_addr = root + mmu::l1_index(va) * 4;
        let l1e = mem.word(l1_addr);
        let l2_base = if l1e & pte::V == 0 {
            let page = self.alloc_page(mem);
            mem.write(l1_addr, pte::table(page), hx_cpu::MemSize::Word)
                .unwrap();
            self.contexts.get_mut(&key).unwrap().l2_pages.push(page);
            page
        } else {
            l1e & pte::PPN_MASK
        };
        let l2_addr = l2_base + mmu::l2_index(va) * 4;
        mem.write(l2_addr, pte::leaf(pa, flags), hx_cpu::MemSize::Word)
            .unwrap();
        self.stats.fills += 1;
    }

    /// Discards every shadow entry of context `key` (both views), returning
    /// its level-2 pages to the pool. The caller must flush the hardware
    /// TLB.
    pub fn flush_context(&mut self, mem: &mut Ram, key: u32) {
        if let Some(pair) = self.contexts.get_mut(&key) {
            for page in pair.l2_pages.drain(..) {
                self.free.push(page);
            }
            for root in [pair.kernel_root, pair.user_root] {
                mem.as_bytes_mut()[root as usize..(root + PAGE_SIZE) as usize].fill(0);
            }
            self.stats.flushes += 1;
        }
    }

    /// Discards every context entirely.
    pub fn flush_all(&mut self, mem: &mut Ram) {
        let keys: Vec<u32> = self.contexts.keys().copied().collect();
        for key in keys {
            self.flush_context(mem, key);
            let pair = self.contexts.remove(&key).unwrap();
            self.free.push(pair.kernel_root);
            self.free.push(pair.user_root);
        }
    }

    /// Pages currently available without growing the pool (diagnostics).
    pub fn free_pages(&self) -> usize {
        self.free.len() + ((self.region_end - self.bump) / PAGE_SIZE) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_cpu::mmu::{Access, TranslateErr};

    const RAM: u32 = 4 * 1024 * 1024;
    const MON: u32 = RAM - 512 * 1024;

    fn setup() -> (ShadowPager, Ram) {
        (ShadowPager::new(MON, RAM), Ram::new(RAM as usize))
    }

    #[test]
    fn classify_map() {
        assert_eq!(classify(0x1000, MON, RAM), PageClass::GuestRam);
        assert_eq!(classify(MON, MON, RAM), PageClass::Monitor);
        assert_eq!(classify(RAM - 4, MON, RAM), PageClass::Monitor);
        assert_eq!(
            classify(map::PIC_BASE + 8, MON, RAM),
            PageClass::EmulatedMmio
        );
        assert_eq!(classify(map::PIT_BASE, MON, RAM), PageClass::EmulatedMmio);
        assert_eq!(classify(map::UART_BASE, MON, RAM), PageClass::EmulatedMmio);
        assert_eq!(
            classify(map::HDC_BASE + 0x40, MON, RAM),
            PageClass::PassthroughMmio
        );
        assert_eq!(
            classify(map::NIC_BASE, MON, RAM),
            PageClass::PassthroughMmio
        );
        assert_eq!(
            classify(map::TRACE_BASE, MON, RAM),
            PageClass::PassthroughMmio
        );
        assert_eq!(classify(0xe000_0000, MON, RAM), PageClass::Unmapped);
        assert_eq!(
            classify(map::MMIO_BASE + 0x9000, MON, RAM),
            PageClass::Unmapped
        );
    }

    #[test]
    fn map_then_hardware_walk_agrees() {
        let (mut pager, mut mem) = setup();
        pager.map(
            &mut mem,
            0,
            Mode::Supervisor,
            0x0040_0000,
            0x5000,
            pte::V | pte::R | pte::U,
        );
        let root = pager.root_for(&mut mem, 0, Mode::Supervisor);
        let w = mmu::walk(&mut mem, root, 0x0040_0123, Access::Load, Mode::User, false).unwrap();
        assert_eq!(w.paddr, 0x5123);
        // The user view is a separate table: nothing mapped there.
        let uroot = pager.root_for(&mut mem, 0, Mode::User);
        assert!(mmu::walk(
            &mut mem,
            uroot,
            0x0040_0123,
            Access::Load,
            Mode::User,
            false
        )
        .is_err());
    }

    #[test]
    fn flush_recycles_pages() {
        let (mut pager, mut mem) = setup();
        let before = pager.free_pages();
        for i in 0..20 {
            pager.map(
                &mut mem,
                0,
                Mode::Supervisor,
                i << 22,
                0x5000,
                pte::V | pte::R,
            );
        }
        assert!(pager.free_pages() < before);
        pager.flush_context(&mut mem, 0);
        let root = pager.root_for(&mut mem, 0, Mode::Supervisor);
        assert!(mmu::walk(&mut mem, root, 0, Access::Load, Mode::Supervisor, false).is_err());
        // All L2 pages returned (the two roots stay allocated).
        assert_eq!(pager.free_pages(), before - 2);
        assert!(pager.stats.flushes >= 1);
    }

    #[test]
    fn context_cap_evicts() {
        let (mut pager, mut mem) = setup();
        for key in 0..(MAX_CONTEXTS as u32 + 2) {
            pager.root_for(&mut mem, key + 1, Mode::Supervisor);
        }
        assert!(pager.contexts.len() <= MAX_CONTEXTS + 1);
    }

    /// The monitor's guest walk: the hardware walker over guest RAM only.
    fn guest_walk(
        mem: &mut Ram,
        root: u32,
        va: u32,
        access: Access,
        vmode: Mode,
    ) -> Result<mmu::Walk, TranslateErr> {
        mmu::walk(&mut GuestRam::new(mem, MON), root, va, access, vmode, true)
    }

    #[test]
    fn guest_walk_validates_and_updates_ad() {
        let (_, mut mem) = setup();
        let root = 0x1_0000u32;
        let mut alloc = 0x1_1000u32;
        mmu::map_page(
            &mut mem,
            root,
            &mut alloc,
            0x8000,
            0x5000,
            pte::V | pte::R | pte::W,
        )
        .unwrap();

        let w = guest_walk(&mut mem, root, 0x8010, Access::Load, Mode::Supervisor).unwrap();
        assert_eq!(w.paddr, 0x5010);
        assert!(w.leaf & pte::A != 0);
        assert!(w.leaf & pte::D == 0);
        assert_eq!(
            mem.word(w.leaf_addr) & pte::A,
            pte::A,
            "A written to guest PTE"
        );

        let w = guest_walk(&mut mem, root, 0x8010, Access::Store, Mode::Supervisor).unwrap();
        assert!(w.leaf & pte::D != 0);

        // User access to non-U page denied.
        assert_eq!(
            guest_walk(&mut mem, root, 0x8010, Access::Load, Mode::User),
            Err(TranslateErr::PageFault)
        );
        // Unmapped VA.
        assert_eq!(
            guest_walk(&mut mem, root, 0x0100_0000, Access::Load, Mode::Supervisor),
            Err(TranslateErr::PageFault)
        );
    }

    #[test]
    fn guest_walk_rejects_tables_outside_guest_ram() {
        let (_, mut mem) = setup();
        let denied = Err(TranslateErr::Bus(BusFault::Denied));
        // Root inside the monitor region.
        assert_eq!(
            guest_walk(&mut mem, MON + 0x1000, 0, Access::Load, Mode::Supervisor),
            denied
        );
        // L1 pointer into the monitor region.
        let root = 0x1_0000u32;
        mem.write(root, pte::table(MON), hx_cpu::MemSize::Word)
            .unwrap();
        assert_eq!(
            guest_walk(&mut mem, root, 0, Access::Load, Mode::Supervisor),
            denied
        );
    }

    #[test]
    fn guest_ram_ends_at_the_monitor() {
        let (_, mut mem) = setup();
        let mut ram = GuestRam::new(&mut mem, MON);
        assert!(ram.contains(MON - 1) && !ram.contains(MON));
        assert_eq!(ram.read(MON - 4, MemSize::Word), Ok(0));
        assert_eq!(ram.read(MON - 2, MemSize::Word), Err(BusFault::Denied));
        assert_eq!(ram.write(MON, 1, MemSize::Byte), Err(BusFault::Denied));
        assert_eq!(ram.read(u32::MAX, MemSize::Word), Err(BusFault::Denied));
        assert_eq!(mem.word(MON), 0, "nothing written past the end");
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_region_panics() {
        ShadowPager::new(0x100, 0x10000);
    }
}
