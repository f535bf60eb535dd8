//! hx-prof: the guest-aware deterministic profiler.
//!
//! The paper debugs an original OS *from the monitor side*, without
//! instrumenting the guest; this module extends that stance to profiling.
//! The monitor already attributes every simulated cycle to a track
//! (guest / monitor / host-model / idle); the profiler splits the **guest**
//! track further, by the guest symbol containing the executing PC:
//!
//! - **Exact attribution.** Every guest-track cycle charged through the
//!   [`Recorder`](crate::Recorder) is added to the symbol of the current
//!   instruction boundary, so per-symbol totals sum *exactly* to the
//!   [`SpanTrack`](crate::SpanTrack) guest total — an invariant the test
//!   suite asserts on all three platforms.
//! - **Deterministic sampling.** A PC sample is taken every
//!   [`Profiler::interval`] cumulative guest cycles — simulated cycles,
//!   never wall clock — so recording a run and replaying its journal
//!   produce byte-identical profiles.
//!
//! Cycles charged before the first instruction boundary (or at a PC outside
//! every symbol) land in the `[unknown]` bucket, keeping totals exact.

use std::fmt::Write as _;

/// One symbolized guest function: a half-open `[start, end)` PC range.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sym {
    name: String,
    start: u32,
    end: u32,
}

/// Sorted, non-overlapping symbol ranges with binary-search resolution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolMap {
    syms: Vec<Sym>,
}

impl SymbolMap {
    /// Builds a map from `(name, start, end)` half-open ranges (e.g. from
    /// [`hx_asm::Program::code_symbols`], spelled out so hx-obs stays
    /// dependency-free). Ranges are sorted by start address; empty ranges
    /// are dropped.
    pub fn from_ranges(ranges: impl IntoIterator<Item = (String, u32, u32)>) -> SymbolMap {
        let mut syms: Vec<Sym> = ranges
            .into_iter()
            .filter(|&(_, start, end)| start < end)
            .map(|(name, start, end)| Sym { name, start, end })
            .collect();
        syms.sort_by_key(|s| s.start);
        SymbolMap { syms }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when the map holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Index of the symbol whose range contains `pc`.
    fn index_of(&self, pc: u32) -> Option<usize> {
        let i = self.syms.partition_point(|s| s.start <= pc);
        let s = &self.syms[i.checked_sub(1)?];
        (pc < s.end).then_some(i - 1)
    }

    /// Name of the symbol containing `pc`.
    pub fn resolve(&self, pc: u32) -> Option<&str> {
        self.index_of(pc).map(|i| self.syms[i].name.as_str())
    }
}

/// Cycle and sample totals for one symbol, plus the latency histograms —
/// see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Profiler {
    symbols: SymbolMap,
    interval: u64,
    /// Exact guest cycles per symbol (index-parallel with `symbols`).
    cycles: Vec<u64>,
    /// Deterministic PC samples per symbol.
    samples: Vec<u64>,
    /// Guest cycles at PCs outside every symbol (boot, pre-first-boundary).
    unknown_cycles: u64,
    unknown_samples: u64,
    /// Symbol index at the most recent instruction boundary.
    cur: Option<usize>,
    /// Core charges are currently attributed to (set by the recorder at
    /// vCPU-scheduler switches; stays 0 on single-core machines).
    core: u8,
    /// Per-core guest cycles: outer index is the core, inner rows are
    /// index-parallel with `symbols` plus one trailing `[unknown]` slot.
    /// Rows are grown lazily, so a single-core run only ever touches row 0.
    per_core: Vec<Vec<u64>>,
    /// Guest cycles accumulated towards the next sample.
    acc: u64,
}

impl Profiler {
    /// Default sampling interval in guest cycles. Prime, so periodic guest
    /// loops cannot alias against the sampler.
    pub const DEFAULT_INTERVAL: u64 = 997;

    /// Creates a profiler over `symbols`, sampling every `interval` guest
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(symbols: SymbolMap, interval: u64) -> Profiler {
        assert!(interval > 0, "sampling interval must be positive");
        let n = symbols.len();
        Profiler {
            symbols,
            interval,
            cycles: vec![0; n],
            samples: vec![0; n],
            unknown_cycles: 0,
            unknown_samples: 0,
            cur: None,
            core: 0,
            per_core: Vec::new(),
            acc: 0,
        }
    }

    /// The sampling interval in guest cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The symbol map the profiler attributes against.
    pub fn symbols(&self) -> &SymbolMap {
        &self.symbols
    }

    /// Re-anchors attribution: the next guest cycles belong to the symbol
    /// containing `pc`. Called by the engine at every (unbatched)
    /// instruction boundary, before the instruction's cycles are charged.
    pub fn instr_boundary(&mut self, pc: u32) {
        self.cur = self.symbols.index_of(pc);
    }

    /// Points attribution at `core` (see [`Profiler::per_core`]).
    pub fn set_core(&mut self, core: u8) {
        self.core = core;
    }

    /// Attributes `cycles` of guest time to the current symbol — both in
    /// the flat totals and in the current core's row — and advances the
    /// deterministic sampler.
    pub fn charge_guest(&mut self, cycles: u64) {
        match self.cur {
            Some(i) => self.cycles[i] += cycles,
            None => self.unknown_cycles += cycles,
        }
        let core = self.core as usize;
        if self.per_core.len() <= core {
            self.per_core.resize_with(core + 1, Vec::new);
        }
        let row = &mut self.per_core[core];
        if row.is_empty() {
            row.resize(self.symbols.len() + 1, 0);
        }
        row[self.cur.unwrap_or(self.symbols.len())] += cycles;
        self.acc += cycles;
        while self.acc >= self.interval {
            self.acc -= self.interval;
            match self.cur {
                Some(i) => self.samples[i] += 1,
                None => self.unknown_samples += 1,
            }
        }
    }

    /// Total guest cycles attributed (== the span-track guest total when
    /// the profiler was enabled for the whole window).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum::<u64>() + self.unknown_cycles
    }

    /// Total deterministic PC samples taken.
    pub fn total_samples(&self) -> u64 {
        self.samples.iter().sum::<u64>() + self.unknown_samples
    }

    /// Per-symbol `(name, cycles, samples)` in descending cycle order
    /// (ties: address order), at most `n` entries. Zero-cycle symbols are
    /// skipped; the `[unknown]` bucket competes like any symbol.
    pub fn top(&self, n: usize) -> Vec<(&str, u64, u64)> {
        let mut rows: Vec<(&str, u64, u64)> = self
            .symbols
            .syms
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.cycles[i] > 0)
            .map(|(i, s)| (s.name.as_str(), self.cycles[i], self.samples[i]))
            .collect();
        if self.unknown_cycles > 0 {
            rows.push(("[unknown]", self.unknown_cycles, self.unknown_samples));
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows.truncate(n);
        rows
    }

    /// Collapsed-stack (`.folded`) rendering: one `guest;symbol cycles`
    /// line per non-zero symbol, address order, `[unknown]` last. The
    /// weights are the exact cycle counts, so downstream flamegraph tools
    /// render true cost, not sample noise.
    pub fn fold(&self) -> String {
        self.fold_prefixed("")
    }

    /// Number of cores that have been charged guest cycles (1 on every
    /// single-core run).
    pub fn cores_seen(&self) -> usize {
        self.per_core.iter().filter(|r| !r.is_empty()).count()
    }

    /// Exact per-(core, symbol) guest cycles in (core, address) order;
    /// zero entries are skipped and the `[unknown]` bucket is labeled like
    /// in [`Profiler::top`]. A single-core run reports one core-0 row per
    /// active symbol.
    pub fn per_core(&self) -> Vec<(u8, &str, u64)> {
        let mut rows = Vec::new();
        for (core, row) in self.per_core.iter().enumerate() {
            for (i, &cycles) in row.iter().enumerate() {
                if cycles == 0 {
                    continue;
                }
                let name = self
                    .symbols
                    .syms
                    .get(i)
                    .map_or("[unknown]", |s| s.name.as_str());
                rows.push((core as u8, name, cycles));
            }
        }
        rows
    }

    /// [`Profiler::fold`] with a stack prefix (e.g. `"lvmm;"`), letting one
    /// file merge several platforms' profiles. When more than one core was
    /// charged, per-core `core<N>;guest;symbol` stacks follow the flat ones
    /// (a single-core fold is byte-identical to the pre-SMP output).
    pub fn fold_prefixed(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.symbols.syms.iter().enumerate() {
            if self.cycles[i] > 0 {
                let _ = writeln!(out, "{prefix}guest;{} {}", s.name, self.cycles[i]);
            }
        }
        if self.unknown_cycles > 0 {
            let _ = writeln!(out, "{prefix}guest;[unknown] {}", self.unknown_cycles);
        }
        if self.cores_seen() > 1 {
            for (core, name, cycles) in self.per_core() {
                let _ = writeln!(out, "{prefix}core{core};guest;{name} {cycles}");
            }
        }
        out
    }

    /// Zeroes every counter (cycles, samples, sampler phase, IRQ state) but
    /// keeps the symbol map, interval and current-symbol anchor — used by
    /// the bench harness to discard warmup before the measured window.
    pub fn reset_counts(&mut self) {
        self.cycles.iter_mut().for_each(|c| *c = 0);
        self.samples.iter_mut().for_each(|c| *c = 0);
        self.unknown_cycles = 0;
        self.unknown_samples = 0;
        self.per_core.clear();
        self.acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SymbolMap {
        SymbolMap::from_ranges([
            ("main".to_string(), 0x1000, 0x1100),
            ("isr".to_string(), 0x1100, 0x1180),
            ("empty".to_string(), 0x2000, 0x2000),
        ])
    }

    #[test]
    fn resolve_uses_half_open_ranges() {
        let m = map();
        assert_eq!(m.len(), 2, "empty range dropped");
        assert_eq!(m.resolve(0x1000), Some("main"));
        assert_eq!(m.resolve(0x10ff), Some("main"));
        assert_eq!(m.resolve(0x1100), Some("isr"));
        assert_eq!(m.resolve(0x1180), None);
        assert_eq!(m.resolve(0x0fff), None);
    }

    #[test]
    fn exact_attribution_and_unknown_bucket() {
        let mut p = Profiler::new(map(), 100);
        p.charge_guest(7); // before any boundary: unknown
        p.instr_boundary(0x1004);
        p.charge_guest(10);
        p.instr_boundary(0x1104);
        p.charge_guest(5);
        p.instr_boundary(0x9000); // outside every symbol
        p.charge_guest(3);
        assert_eq!(p.total_cycles(), 25);
        let top = p.top(10);
        assert_eq!(top[0], ("main", 10, 0));
        assert_eq!(top[1], ("[unknown]", 10, 0));
        assert_eq!(top[2], ("isr", 5, 0));
    }

    #[test]
    fn sampler_fires_every_interval_deterministically() {
        let mut p = Profiler::new(map(), 10);
        p.instr_boundary(0x1000);
        for _ in 0..7 {
            p.charge_guest(3); // 21 cycles -> 2 samples by cycle 20
        }
        assert_eq!(p.total_samples(), 2);
        p.charge_guest(100); // one big charge still yields 10 more
        assert_eq!(p.total_samples(), 12);
    }

    #[test]
    fn fold_is_deterministic_and_address_ordered() {
        let mut p = Profiler::new(map(), 100);
        p.instr_boundary(0x1100);
        p.charge_guest(5);
        p.instr_boundary(0x1000);
        p.charge_guest(9);
        p.charge_guest(1); // no boundary between: same symbol
        assert_eq!(p.fold(), "guest;main 10\nguest;isr 5\n");
        assert_eq!(
            p.fold_prefixed("lvmm;"),
            "lvmm;guest;main 10\nlvmm;guest;isr 5\n"
        );
    }

    #[test]
    fn reset_counts_keeps_map_and_anchor() {
        let mut p = Profiler::new(map(), 10);
        p.instr_boundary(0x1000);
        p.charge_guest(25);
        p.reset_counts();
        assert_eq!(p.total_cycles(), 0);
        assert_eq!(p.total_samples(), 0);
        // The anchor survives: post-reset charges attribute correctly, and
        // the sampler phase restarts from zero.
        p.charge_guest(10);
        assert_eq!(p.top(1), vec![("main", 10, 1)]);
    }
}
