//! Command and reply payloads carried inside [`crate::wire`] packets.
//!
//! Both ends share these types: the host [`crate::Debugger`] formats
//! [`Command`]s and parses [`Reply`]s; the monitor's stub does the reverse.
//!
//! Every command receives an immediate reply. Stop events (`T…` payloads)
//! are *asynchronous*: after a `c` (continue) or `s` (step) is acknowledged
//! with `OK`, the stub sends a [`StopReason`] packet whenever the guest next
//! stops.

use crate::wire::{from_hex, to_hex};
use core::fmt;

/// Register selector used by [`Command::WriteRegister`]:
/// `0..=31` general-purpose, `32` the PC.
pub const REG_PC: u8 = 32;

/// Most memory bytes one `m` packet may ask for: the host chunks larger
/// reads, and stubs refuse a longer `m` with `E01`.
pub const MEM_CHUNK: u32 = 256;

/// Which accesses a watchpoint traps on. The wire digit after `Z`/`z`
/// follows the GDB remote convention: `2` write, `3` read, `4` access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    /// Stores into the watched range (`Z2`).
    Write,
    /// Loads from the watched range (`Z3`).
    Read,
    /// Both loads and stores (`Z4`).
    Access,
}

impl WatchKind {
    /// The wire digit after `Z`.
    pub fn code(self) -> char {
        match self {
            WatchKind::Write => '2',
            WatchKind::Read => '3',
            WatchKind::Access => '4',
        }
    }

    /// Parses the wire digit.
    pub fn from_code(code: &str) -> Option<WatchKind> {
        match code {
            "2" => Some(WatchKind::Write),
            "3" => Some(WatchKind::Read),
            "4" => Some(WatchKind::Access),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            WatchKind::Write => "write",
            WatchKind::Read => "read",
            WatchKind::Access => "access",
        }
    }

    /// Whether this kind traps stores.
    pub fn watches_write(self) -> bool {
        matches!(self, WatchKind::Write | WatchKind::Access)
    }

    /// Whether this kind traps loads.
    pub fn watches_read(self) -> bool {
        matches!(self, WatchKind::Read | WatchKind::Access)
    }
}

/// A debugger → stub command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Stop the guest now and report a stop reason.
    Halt,
    /// Report the current stop reason (target must be stopped).
    QueryStop,
    /// Read all registers: r0–r31 then pc (33 little-endian words).
    ReadRegisters,
    /// Write one register (see [`REG_PC`]).
    WriteRegister {
        /// Register selector.
        index: u8,
        /// New value.
        value: u32,
    },
    /// Read guest memory by **virtual** address.
    ReadMemory {
        /// Start address.
        addr: u32,
        /// Byte count.
        len: u32,
    },
    /// Write guest memory by virtual address.
    WriteMemory {
        /// Start address.
        addr: u32,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Arm a software breakpoint on the instruction at a word-aligned
    /// address (a misaligned one is malformed).
    SetBreakpoint {
        /// Virtual address of the instruction.
        addr: u32,
    },
    /// Remove a software breakpoint.
    ClearBreakpoint {
        /// Virtual address of the instruction.
        addr: u32,
    },
    /// Arm a watchpoint over `[addr, addr+len)`.
    SetWatchpoint {
        /// Start address.
        addr: u32,
        /// Watched length in bytes.
        len: u32,
        /// Which accesses trap.
        kind: WatchKind,
    },
    /// Disarm a watchpoint.
    ClearWatchpoint {
        /// Start address it was armed with.
        addr: u32,
    },
    /// Attach (or replace) a condition on an armed breakpoint. An empty
    /// expression clears the condition, making the breakpoint
    /// unconditional again.
    SetBreakCondition {
        /// Breakpoint address.
        addr: u32,
        /// Condition source text (see `hx-query`'s expression grammar).
        expr: String,
    },
    /// Attach (or replace) a condition on an armed watchpoint. An empty
    /// expression clears the condition.
    SetWatchCondition {
        /// Watchpoint start address.
        addr: u32,
        /// Condition source text.
        expr: String,
    },
    /// Arm a logpoint: when the instruction at `addr` retires and `expr`
    /// (empty means "always") is nonzero, the target records a trace event
    /// carrying the condition value — without stopping.
    SetLogpoint {
        /// Instruction address.
        addr: u32,
        /// Free-form label for the target's reports.
        label: String,
        /// Condition source text; empty fires unconditionally.
        expr: String,
    },
    /// Disarm every logpoint at `addr`.
    ClearLogpoint {
        /// Instruction address.
        addr: u32,
    },
    /// Search the recorded timeline for the first cycle at which `expr`
    /// evaluates nonzero, and seek the replay there. Requires the flight
    /// recorder and a stopped guest; answered with [`Reply::Query`]
    /// followed (on a hit) by a [`StopReason::TimeTravel`] stop.
    QueryFirst {
        /// Predicate source text.
        expr: String,
    },
    /// Execute one guest instruction, then stop.
    Step,
    /// Resume the guest.
    Continue,
    /// Reset the guest to its boot entry point.
    Reset,
    /// Sample the monitor's cycle accounting and exit counters **without**
    /// stopping the guest. The reply is a [`StatsSample`] packet.
    QueryStats,
    /// Sample the monitor's live profiler **without** stopping the guest:
    /// the reply is a [`ProfSample`] carrying the `max` hottest symbols.
    QueryProf {
        /// Maximum number of symbols to return.
        max: u8,
    },
    /// Sample the monitor's host-time self-profiler **without** stopping
    /// the guest: the reply is a [`MetricsSample`] carrying per-phase
    /// host-nanosecond totals. Stubs built without the metrics registry
    /// answer with the stable `metrics unavailable` error code.
    QueryMetrics,
    /// Sample the target's causal-flow tracker **without** stopping the
    /// guest: the reply is a [`FlowSample`] with per-class flow counts and
    /// latency percentiles. Targets without causal tracing enabled answer
    /// with the stable `causal unavailable` error code.
    QueryFlow,
    /// Time travel: rewind to just before the most recently executed guest
    /// instruction. Requires the flight recorder; stops with
    /// [`StopReason::TimeTravel`].
    ReverseStep,
    /// Time travel: rewind to the previous stop (breakpoint, watchpoint,
    /// fault, …) in this run's history.
    ReverseContinue,
    /// Time travel: seek to an absolute simulated cycle. Seeking backwards
    /// restores a checkpoint and deterministically re-runs; the discarded
    /// future is forgotten (new-branch semantics).
    Seek {
        /// Target simulated cycle.
        cycle: u64,
    },
    /// Select which core subsequent register/memory commands operate on
    /// (GDB's `Hg<thread>`). Core 0 is the boot core and the default.
    SetThread {
        /// Core index to select.
        core: u32,
    },
    /// Ask whether a core exists and has been started (GDB's `T<thread>`).
    /// Answered `OK` for a live core, an error otherwise.
    ThreadAlive {
        /// Core index to probe.
        core: u32,
    },
}

impl Command {
    /// Formats the command as a packet payload.
    pub fn format(&self) -> String {
        match self {
            Command::Halt => "H".into(),
            Command::QueryStop => "?".into(),
            Command::ReadRegisters => "g".into(),
            Command::WriteRegister { index, value } => format!("P{index:x}={value:x}"),
            Command::ReadMemory { addr, len } => format!("m{addr:x},{len:x}"),
            Command::WriteMemory { addr, data } => {
                format!("M{addr:x},{:x}:{}", data.len(), to_hex(data))
            }
            Command::SetBreakpoint { addr } => format!("Z0,{addr:x}"),
            Command::ClearBreakpoint { addr } => format!("z0,{addr:x}"),
            Command::SetWatchpoint { addr, len, kind } => {
                format!("Z{},{addr:x},{len:x}", kind.code())
            }
            Command::ClearWatchpoint { addr } => format!("z2,{addr:x}"),
            Command::SetBreakCondition { addr, expr } => {
                format!("Qb,{addr:x},{}", to_hex(expr.as_bytes()))
            }
            Command::SetWatchCondition { addr, expr } => {
                format!("Qw,{addr:x},{}", to_hex(expr.as_bytes()))
            }
            Command::SetLogpoint { addr, label, expr } => format!(
                "Ql,{addr:x},{},{}",
                to_hex(label.as_bytes()),
                to_hex(expr.as_bytes())
            ),
            Command::ClearLogpoint { addr } => format!("ql,{addr:x}"),
            Command::QueryFirst { expr } => format!("Qq,{}", to_hex(expr.as_bytes())),
            Command::Step => "s".into(),
            Command::Continue => "c".into(),
            Command::Reset => "k".into(),
            Command::QueryStats => "qStats".into(),
            Command::QueryProf { max } => format!("qProf{max:x}"),
            Command::QueryMetrics => "qMetrics".into(),
            Command::QueryFlow => "qFlow".into(),
            Command::ReverseStep => "bs".into(),
            Command::ReverseContinue => "bc".into(),
            Command::Seek { cycle } => format!("bg{cycle:x}"),
            Command::SetThread { core } => format!("Hg{core:x}"),
            Command::ThreadAlive { core } => format!("T{core:x}"),
        }
    }

    /// Parses a packet payload into a command.
    ///
    /// Returns `None` for malformed payloads — the stub answers those with
    /// an error reply rather than crashing.
    pub fn parse(payload: &str) -> Option<Command> {
        let rest = |p: &str| payload.get(p.len()..).map(str::to_string);
        match payload.chars().next()? {
            'H' if payload == "H" => Some(Command::Halt),
            'H' => {
                let core = u32::from_str_radix(payload.strip_prefix("Hg")?, 16).ok()?;
                Some(Command::SetThread { core })
            }
            'T' => {
                let core = u32::from_str_radix(payload.strip_prefix('T')?, 16).ok()?;
                Some(Command::ThreadAlive { core })
            }
            '?' if payload == "?" => Some(Command::QueryStop),
            'g' if payload == "g" => Some(Command::ReadRegisters),
            's' if payload == "s" => Some(Command::Step),
            'c' if payload == "c" => Some(Command::Continue),
            'k' if payload == "k" => Some(Command::Reset),
            'q' if payload == "qStats" => Some(Command::QueryStats),
            'q' if payload == "qMetrics" => Some(Command::QueryMetrics),
            'q' if payload == "qFlow" => Some(Command::QueryFlow),
            'q' if payload.starts_with("ql,") => {
                let addr = u32::from_str_radix(payload.strip_prefix("ql,")?, 16).ok()?;
                Some(Command::ClearLogpoint { addr })
            }
            'q' => {
                let max = u8::from_str_radix(payload.strip_prefix("qProf")?, 16).ok()?;
                Some(Command::QueryProf { max })
            }
            'Q' => {
                let (tag, body) = payload.split_once(',')?;
                let text = |hex: &str| String::from_utf8(from_hex(hex)?).ok();
                match tag {
                    "Qb" | "Qw" => {
                        let (a, x) = body.split_once(',')?;
                        let addr = u32::from_str_radix(a, 16).ok()?;
                        let expr = text(x)?;
                        Some(if tag == "Qb" {
                            Command::SetBreakCondition { addr, expr }
                        } else {
                            Command::SetWatchCondition { addr, expr }
                        })
                    }
                    "Ql" => {
                        let mut f = body.split(',');
                        let addr = u32::from_str_radix(f.next()?, 16).ok()?;
                        let label = text(f.next()?)?;
                        let expr = text(f.next()?)?;
                        if f.next().is_some() {
                            return None;
                        }
                        Some(Command::SetLogpoint { addr, label, expr })
                    }
                    "Qq" => Some(Command::QueryFirst { expr: text(body)? }),
                    _ => None,
                }
            }
            'b' => match payload {
                "bs" => Some(Command::ReverseStep),
                "bc" => Some(Command::ReverseContinue),
                _ => {
                    let cycle = u64::from_str_radix(payload.strip_prefix("bg")?, 16).ok()?;
                    Some(Command::Seek { cycle })
                }
            },
            'P' => {
                let body = rest("P")?;
                let (idx, val) = body.split_once('=')?;
                Some(Command::WriteRegister {
                    index: u8::from_str_radix(idx, 16).ok()?,
                    value: u32::from_str_radix(val, 16).ok()?,
                })
            }
            'm' => {
                let body = rest("m")?;
                let (a, l) = body.split_once(',')?;
                Some(Command::ReadMemory {
                    addr: u32::from_str_radix(a, 16).ok()?,
                    len: u32::from_str_radix(l, 16).ok()?,
                })
            }
            'M' => {
                let body = rest("M")?;
                let (head, hex) = body.split_once(':')?;
                let (a, l) = head.split_once(',')?;
                let data = from_hex(hex)?;
                let len = u32::from_str_radix(l, 16).ok()?;
                let addr = u32::from_str_radix(a, 16).ok()?;
                (data.len() as u32 == len).then_some(Command::WriteMemory { addr, data })
            }
            'Z' | 'z' => {
                let set = payload.starts_with('Z');
                let body = payload.get(1..)?;
                let mut parts = body.split(',');
                let kind = parts.next()?;
                let addr = u32::from_str_radix(parts.next()?, 16).ok()?;
                match (kind, set) {
                    ("0", true) => Some(Command::SetBreakpoint { addr }),
                    ("0", false) => Some(Command::ClearBreakpoint { addr }),
                    ("2" | "3" | "4", true) => {
                        let len = u32::from_str_radix(parts.next()?, 16).ok()?;
                        Some(Command::SetWatchpoint {
                            addr,
                            len,
                            kind: WatchKind::from_code(kind)?,
                        })
                    }
                    ("2" | "3" | "4", false) => Some(Command::ClearWatchpoint { addr }),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// A live sample of the target monitor's cycle accounting, carried in the
/// reply to [`Command::QueryStats`].
///
/// The stub produces it from whatever counters it keeps; the wire format is
/// monitor-agnostic. `exits` is a list of per-cause exit counts whose order
/// is defined by the target (for this repository's monitors: the
/// `hx_obs::ExitCause::ALL` order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSample {
    /// Simulated-cycle timestamp of the sample.
    pub now: u64,
    /// Cycles attributed to guest execution.
    pub guest: u64,
    /// Cycles attributed to the monitor.
    pub monitor: u64,
    /// Cycles attributed to the modeled host OS (hosted monitor only).
    pub host: u64,
    /// Cycles attributed to idle.
    pub idle: u64,
    /// Per-cause guest-exit counts, in target-defined order.
    pub exits: Vec<u64>,
    /// Injected-fault counts per fault class, in target-defined order (for
    /// this repository's monitors: the `hx_fault::FaultKind` order). Empty
    /// when no fault campaign is armed.
    pub faults: Vec<u64>,
    /// Wild writes blocked by memory protection (lvmm only; the hosted
    /// monitor and raw hardware let them through).
    pub fault_blocked: u64,
    /// Number of guest cores. Zero or one means a single-core target; the
    /// per-core fields below travel (and are meaningful) only when this is
    /// greater than one, which keeps single-core wire traffic byte-identical
    /// to pre-SMP stubs.
    pub cores: u64,
    /// Instructions retired per core, core 0 first (SMP targets only).
    pub core_instret: Vec<u64>,
    /// Guest exits handled per core, core 0 first (SMP targets only).
    pub core_exits: Vec<u64>,
}

impl StatsSample {
    /// Formats as an `S…` payload.
    pub fn format(&self) -> String {
        let exits: Vec<String> = self.exits.iter().map(|c| format!("{c:x}")).collect();
        let faults: Vec<String> = self.faults.iter().map(|c| format!("{c:x}")).collect();
        let mut out = format!(
            "S{:x};g:{:x};m:{:x};h:{:x};i:{:x};x:{};f:{};fb:{:x}",
            self.now,
            self.guest,
            self.monitor,
            self.host,
            self.idle,
            exits.join(","),
            faults.join(","),
            self.fault_blocked
        );
        // SMP extension keys: emitted only for multi-core targets so a
        // single-core sample is byte-identical to the pre-SMP encoding.
        if self.cores > 1 {
            let ci: Vec<String> = self.core_instret.iter().map(|c| format!("{c:x}")).collect();
            let cx: Vec<String> = self.core_exits.iter().map(|c| format!("{c:x}")).collect();
            out.push_str(&format!(
                ";nc:{:x};ci:{};cx:{}",
                self.cores,
                ci.join(","),
                cx.join(",")
            ));
        }
        out
    }

    /// Parses an `S…` payload.
    pub fn parse(payload: &str) -> Option<StatsSample> {
        let body = payload.strip_prefix('S')?;
        let mut parts = body.split(';');
        let now = u64::from_str_radix(parts.next()?, 16).ok()?;
        let mut sample = StatsSample {
            now,
            ..StatsSample::default()
        };
        for part in parts {
            let (k, v) = part.split_once(':')?;
            match k {
                "g" => sample.guest = u64::from_str_radix(v, 16).ok()?,
                "m" => sample.monitor = u64::from_str_radix(v, 16).ok()?,
                "h" => sample.host = u64::from_str_radix(v, 16).ok()?,
                "i" => sample.idle = u64::from_str_radix(v, 16).ok()?,
                "x" if !v.is_empty() => {
                    for c in v.split(',') {
                        sample.exits.push(u64::from_str_radix(c, 16).ok()?);
                    }
                }
                "f" if !v.is_empty() => {
                    for c in v.split(',') {
                        sample.faults.push(u64::from_str_radix(c, 16).ok()?);
                    }
                }
                "fb" => sample.fault_blocked = u64::from_str_radix(v, 16).ok()?,
                "nc" => sample.cores = u64::from_str_radix(v, 16).ok()?,
                "ci" if !v.is_empty() => {
                    for c in v.split(',') {
                        sample.core_instret.push(u64::from_str_radix(c, 16).ok()?);
                    }
                }
                "cx" if !v.is_empty() => {
                    for c in v.split(',') {
                        sample.core_exits.push(u64::from_str_radix(c, 16).ok()?);
                    }
                }
                _ => {}
            }
        }
        Some(sample)
    }
}

/// A live sample of the target's guest profiler, carried in the reply to
/// [`Command::QueryProf`].
///
/// `top` lists the hottest symbols as `(name, cycles, samples)` triples in
/// descending cycle order; symbol names travel hex-encoded so arbitrary
/// names (including the profiler's `[unknown]` bucket) survive the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfSample {
    /// Simulated-cycle timestamp of the sample.
    pub now: u64,
    /// The profiler's deterministic sampling interval, in cycles.
    pub interval: u64,
    /// Guest cycles attributed so far (all symbols plus `[unknown]`).
    pub total_cycles: u64,
    /// PC samples taken so far.
    pub total_samples: u64,
    /// The hottest symbols: `(name, cycles, samples)`, hottest first.
    pub top: Vec<(String, u64, u64)>,
}

impl ProfSample {
    /// Formats as a `P…` payload.
    pub fn format(&self) -> String {
        let top: Vec<String> = self
            .top
            .iter()
            .map(|(name, cyc, n)| format!("{}:{cyc:x}:{n:x}", to_hex(name.as_bytes())))
            .collect();
        format!(
            "P{:x};v:{:x};c:{:x};s:{:x};t:{}",
            self.now,
            self.interval,
            self.total_cycles,
            self.total_samples,
            top.join(",")
        )
    }

    /// Parses a `P…` payload.
    pub fn parse(payload: &str) -> Option<ProfSample> {
        let body = payload.strip_prefix('P')?;
        let mut parts = body.split(';');
        let now = u64::from_str_radix(parts.next()?, 16).ok()?;
        let mut sample = ProfSample {
            now,
            ..ProfSample::default()
        };
        for part in parts {
            let (k, v) = part.split_once(':')?;
            match k {
                "v" => sample.interval = u64::from_str_radix(v, 16).ok()?,
                "c" => sample.total_cycles = u64::from_str_radix(v, 16).ok()?,
                "s" => sample.total_samples = u64::from_str_radix(v, 16).ok()?,
                "t" if !v.is_empty() => {
                    for entry in v.split(',') {
                        let mut fields = entry.split(':');
                        let name = String::from_utf8(from_hex(fields.next()?)?).ok()?;
                        let cycles = u64::from_str_radix(fields.next()?, 16).ok()?;
                        let samples = u64::from_str_radix(fields.next()?, 16).ok()?;
                        if fields.next().is_some() {
                            return None;
                        }
                        sample.top.push((name, cycles, samples));
                    }
                }
                _ => {}
            }
        }
        Some(sample)
    }
}

/// Number of host-time phases in a [`MetricsSample`].
///
/// This must equal `hx_obs::HostPhase::COUNT`; the monitors cross-check the
/// two constants with a test so the wire format cannot silently drift from
/// the profiler.
pub const METRICS_PHASES: usize = 18;

/// A live sample of the target monitor's host-time self-profiler, carried
/// in the reply to [`Command::QueryMetrics`].
///
/// `phase_ns` is indexed by `hx_obs::HostPhase::index()` — the canonical
/// `HostPhase::ALL` order. The wire encoding is **fixed width** (every
/// field is a zero-padded 16-digit hex number and the field count is
/// constant): reply bytes cost simulated cycles in the stub's cost model,
/// so the nondeterministic host-nanosecond values must never change the
/// reply's length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Simulated-cycle timestamp of the sample.
    pub now: u64,
    /// Host wall-clock nanoseconds since the profiler was enabled.
    pub wall_ns: u64,
    /// Phase-boundary marks taken so far.
    pub marks: u64,
    /// Host nanoseconds attributed to each phase, in `HostPhase::ALL` order.
    pub phase_ns: [u64; METRICS_PHASES],
}

impl MetricsSample {
    /// Host nanoseconds attributed to any phase (the sum of `phase_ns`).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Formats as a fixed-width `M…` payload.
    pub fn format(&self) -> String {
        let phases: Vec<String> = self.phase_ns.iter().map(|n| format!("{n:016x}")).collect();
        format!(
            "M{:016x};w:{:016x};k:{:016x};p:{}",
            self.now,
            self.wall_ns,
            self.marks,
            phases.join(",")
        )
    }

    /// Parses an `M…` payload.
    pub fn parse(payload: &str) -> Option<MetricsSample> {
        let body = payload.strip_prefix('M')?;
        let mut parts = body.split(';');
        let now = u64::from_str_radix(parts.next()?, 16).ok()?;
        let mut sample = MetricsSample {
            now,
            ..MetricsSample::default()
        };
        let mut phases = Vec::new();
        for part in parts {
            let (k, v) = part.split_once(':')?;
            match k {
                "w" => sample.wall_ns = u64::from_str_radix(v, 16).ok()?,
                "k" => sample.marks = u64::from_str_radix(v, 16).ok()?,
                "p" => {
                    for n in v.split(',') {
                        phases.push(u64::from_str_radix(n, 16).ok()?);
                    }
                }
                _ => {}
            }
        }
        sample.phase_ns = phases.try_into().ok()?;
        Some(sample)
    }
}

/// Number of flow classes in a [`FlowSample`].
///
/// This must equal `hx_obs::FlowClass::COUNT`; the monitors cross-check
/// the two constants with a test so the wire format cannot silently drift
/// from the causal tracker.
pub const FLOW_CLASSES: usize = 6;

/// A live sample of the target's causal-flow tracker, carried in the reply
/// to [`Command::QueryFlow`].
///
/// `classes` summarises end-to-end latency per flow class, indexed by
/// `hx_obs::FlowClass::index()` — the canonical `FlowClass::ALL` order —
/// as `(count, p50, p99, max)` cycle tuples. Every value is a pure
/// function of the simulation, so the variable-width encoding cannot leak
/// host nondeterminism into the reply's simulated byte cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowSample {
    /// Simulated-cycle timestamp of the sample.
    pub now: u64,
    /// Completed flows across all classes (including any later dropped
    /// from the buffer — histograms keep counting).
    pub completed: u64,
    /// Completed flows dropped after the flow buffer filled.
    pub dropped: u64,
    /// `end`-style hooks that arrived with nothing pending to close.
    pub orphan_ends: u64,
    /// Guest instant tracepoints observed.
    pub instants: u64,
    /// Per-class `(count, p50, p99, max)` latency summaries, in
    /// `FlowClass::ALL` order.
    pub classes: Vec<(u64, u64, u64, u64)>,
}

impl FlowSample {
    /// Formats as an `F…` payload.
    pub fn format(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|(n, p50, p99, max)| format!("{n:x}:{p50:x}:{p99:x}:{max:x}"))
            .collect();
        format!(
            "F{:x};n:{:x};d:{:x};o:{:x};t:{:x};h:{}",
            self.now,
            self.completed,
            self.dropped,
            self.orphan_ends,
            self.instants,
            classes.join(",")
        )
    }

    /// Parses an `F…` payload.
    pub fn parse(payload: &str) -> Option<FlowSample> {
        let body = payload.strip_prefix('F')?;
        let mut parts = body.split(';');
        let now = u64::from_str_radix(parts.next()?, 16).ok()?;
        let mut sample = FlowSample {
            now,
            ..FlowSample::default()
        };
        for part in parts {
            let (k, v) = part.split_once(':')?;
            match k {
                "n" => sample.completed = u64::from_str_radix(v, 16).ok()?,
                "d" => sample.dropped = u64::from_str_radix(v, 16).ok()?,
                "o" => sample.orphan_ends = u64::from_str_radix(v, 16).ok()?,
                "t" => sample.instants = u64::from_str_radix(v, 16).ok()?,
                "h" if !v.is_empty() => {
                    for entry in v.split(',') {
                        let mut fields = entry.split(':');
                        let n = u64::from_str_radix(fields.next()?, 16).ok()?;
                        let p50 = u64::from_str_radix(fields.next()?, 16).ok()?;
                        let p99 = u64::from_str_radix(fields.next()?, 16).ok()?;
                        let max = u64::from_str_radix(fields.next()?, 16).ok()?;
                        if fields.next().is_some() {
                            return None;
                        }
                        sample.classes.push((n, p50, p99, max));
                    }
                }
                _ => {}
            }
        }
        Some(sample)
    }
}

/// Why the guest stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Halted on host request (or initial connection).
    Halted {
        /// Guest PC at the stop.
        pc: u32,
    },
    /// An armed breakpoint fired.
    Breakpoint {
        /// Guest PC of the breakpoint.
        pc: u32,
    },
    /// A single step completed.
    Step {
        /// Guest PC after the step.
        pc: u32,
    },
    /// A write watchpoint fired.
    Watchpoint {
        /// Guest PC of the faulting store.
        pc: u32,
        /// The watched address that was written.
        addr: u32,
    },
    /// The guest took a fault the stub intercepted (it has no handler of
    /// its own, or debug-on-fault is enabled).
    Fault {
        /// Guest PC of the fault.
        pc: u32,
        /// Architectural cause code (`hx_cpu::Cause::code`).
        cause: u32,
    },
    /// A time-travel command (`bs`/`bc`/`bg…`) completed: the guest is
    /// parked at `cycle` on the rewound timeline.
    TimeTravel {
        /// Guest PC at the landing point.
        pc: u32,
        /// Simulated cycle landed on.
        cycle: u64,
    },
}

impl StopReason {
    /// Guest PC at the stop.
    pub fn pc(&self) -> u32 {
        match *self {
            StopReason::Halted { pc }
            | StopReason::Breakpoint { pc }
            | StopReason::Step { pc }
            | StopReason::Watchpoint { pc, .. }
            | StopReason::Fault { pc, .. }
            | StopReason::TimeTravel { pc, .. } => pc,
        }
    }

    /// Formats as a `T…` payload.
    pub fn format(&self) -> String {
        match *self {
            StopReason::Halted { pc } => format!("T0;pc:{pc:x}"),
            StopReason::Breakpoint { pc } => format!("T1;pc:{pc:x}"),
            StopReason::Step { pc } => format!("T2;pc:{pc:x}"),
            StopReason::Watchpoint { pc, addr } => format!("T3;pc:{pc:x};addr:{addr:x}"),
            StopReason::Fault { pc, cause } => format!("T4;pc:{pc:x};cause:{cause:x}"),
            StopReason::TimeTravel { pc, cycle } => format!("T5;pc:{pc:x};cycle:{cycle:x}"),
        }
    }

    /// Formats as a `T…` payload that also names the core the stop happened
    /// on. Core 0 produces the plain (pre-SMP) encoding, so single-core
    /// stubs stay byte-identical on the wire; parsers that predate the `c:`
    /// key skip it as an unknown field.
    pub fn format_on(&self, core: u8) -> String {
        let mut out = self.format();
        if core != 0 {
            out.push_str(&format!(";c:{core:x}"));
        }
        out
    }

    /// Parses a `T…` payload together with the core it stopped on (`c:`
    /// key; absent means core 0).
    pub fn parse_with_core(payload: &str) -> Option<(StopReason, u8)> {
        let reason = StopReason::parse(payload)?;
        let core = payload
            .split(';')
            .find_map(|part| part.strip_prefix("c:"))
            .map_or(Some(0), |v| u8::from_str_radix(v, 16).ok())?;
        Some((reason, core))
    }

    /// Parses a `T…` payload.
    pub fn parse(payload: &str) -> Option<StopReason> {
        let body = payload.strip_prefix('T')?;
        let mut parts = body.split(';');
        let kind = parts.next()?;
        let mut pc = None;
        let mut addr = None;
        let mut cause = None;
        let mut cycle = None;
        for part in parts {
            let (k, v) = part.split_once(':')?;
            // `cycle` is a 64-bit cycle count; the rest are 32-bit values.
            match k {
                "pc" => pc = Some(u32::from_str_radix(v, 16).ok()?),
                "addr" => addr = Some(u32::from_str_radix(v, 16).ok()?),
                "cause" => cause = Some(u32::from_str_radix(v, 16).ok()?),
                "cycle" => cycle = Some(u64::from_str_radix(v, 16).ok()?),
                _ => {}
            }
        }
        let pc = pc?;
        match kind {
            "0" => Some(StopReason::Halted { pc }),
            "1" => Some(StopReason::Breakpoint { pc }),
            "2" => Some(StopReason::Step { pc }),
            "3" => Some(StopReason::Watchpoint { pc, addr: addr? }),
            "4" => Some(StopReason::Fault { pc, cause: cause? }),
            "5" => Some(StopReason::TimeTravel { pc, cycle: cycle? }),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StopReason::Halted { pc } => write!(f, "halted at {pc:#010x}"),
            StopReason::Breakpoint { pc } => write!(f, "breakpoint at {pc:#010x}"),
            StopReason::Step { pc } => write!(f, "stepped to {pc:#010x}"),
            StopReason::Watchpoint { pc, addr } => {
                write!(f, "watchpoint on {addr:#010x} at {pc:#010x}")
            }
            StopReason::Fault { pc, cause } => {
                write!(f, "fault (cause {cause}) at {pc:#010x}")
            }
            StopReason::TimeTravel { pc, cycle } => {
                write!(f, "time-traveled to cycle {cycle} at {pc:#010x}")
            }
        }
    }
}

/// A stub → debugger reply payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Command succeeded with no data.
    Ok,
    /// Command failed; the code is stub-defined (see `lvmm::stub`).
    Error(u8),
    /// Asynchronous or queried stop reason.
    Stopped(StopReason),
    /// Live monitor statistics (reply to [`Command::QueryStats`]).
    Stats(StatsSample),
    /// Live profiler sample (reply to [`Command::QueryProf`]).
    Prof(ProfSample),
    /// Live host-time attribution sample (reply to
    /// [`Command::QueryMetrics`]).
    Metrics(MetricsSample),
    /// Live causal-flow sample (reply to [`Command::QueryFlow`]).
    Flow(FlowSample),
    /// Answer to [`Command::QueryFirst`]: whether the predicate was
    /// satisfied in the recorded window and, if so, at which cycle. A hit
    /// is followed by an asynchronous [`StopReason::TimeTravel`] stop once
    /// the seek lands.
    Query {
        /// Whether a satisfying cycle was found.
        found: bool,
        /// The first satisfying cycle (the target's current cycle on a
        /// miss).
        cycle: u64,
    },
    /// Hex data (register file or memory contents, per the command sent).
    Hex(Vec<u8>),
}

impl Reply {
    /// Formats the reply as a packet payload.
    pub fn format(&self) -> String {
        match self {
            Reply::Ok => "OK".into(),
            Reply::Error(code) => format!("E{code:02x}"),
            Reply::Stopped(r) => r.format(),
            Reply::Stats(s) => s.format(),
            Reply::Prof(s) => s.format(),
            Reply::Metrics(s) => s.format(),
            Reply::Flow(s) => s.format(),
            Reply::Query { found, cycle } => {
                format!("Q{};c:{cycle:x}", if *found { 1 } else { 0 })
            }
            Reply::Hex(data) => to_hex(data),
        }
    }

    /// Parses a packet payload into a reply.
    pub fn parse(payload: &str) -> Option<Reply> {
        if payload == "OK" {
            return Some(Reply::Ok);
        }
        if let Some(code) = payload.strip_prefix('E') {
            return Some(Reply::Error(u8::from_str_radix(code, 16).ok()?));
        }
        if payload.starts_with('T') {
            return Some(Reply::Stopped(StopReason::parse(payload)?));
        }
        if payload.starts_with('S') {
            return Some(Reply::Stats(StatsSample::parse(payload)?));
        }
        if payload.starts_with('P') {
            return Some(Reply::Prof(ProfSample::parse(payload)?));
        }
        if payload.starts_with('M') {
            return Some(Reply::Metrics(MetricsSample::parse(payload)?));
        }
        // `F` cannot collide with hex data: `to_hex` emits lowercase only.
        if payload.starts_with('F') {
            return Some(Reply::Flow(FlowSample::parse(payload)?));
        }
        if let Some(body) = payload.strip_prefix('Q') {
            let found = match body.chars().next()? {
                '0' => false,
                '1' => true,
                _ => return None,
            };
            let cycle = u64::from_str_radix(body.get(1..)?.strip_prefix(";c:")?, 16).ok()?;
            return Some(Reply::Query { found, cycle });
        }
        from_hex(payload).map(Reply::Hex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn command_examples() {
        assert_eq!(Command::parse("g"), Some(Command::ReadRegisters));
        assert_eq!(
            Command::parse("m1000,40"),
            Some(Command::ReadMemory {
                addr: 0x1000,
                len: 0x40
            })
        );
        assert_eq!(
            Command::parse("M20,2:beef"),
            Some(Command::WriteMemory {
                addr: 0x20,
                data: vec![0xbe, 0xef]
            })
        );
        assert_eq!(
            Command::parse("Z0,104"),
            Some(Command::SetBreakpoint { addr: 0x104 })
        );
        assert_eq!(
            Command::parse("Z2,8000,10"),
            Some(Command::SetWatchpoint {
                addr: 0x8000,
                len: 0x10,
                kind: WatchKind::Write
            })
        );
        assert_eq!(
            Command::parse("Z3,8000,4"),
            Some(Command::SetWatchpoint {
                addr: 0x8000,
                len: 4,
                kind: WatchKind::Read
            })
        );
        assert_eq!(
            Command::parse("z4,8000"),
            Some(Command::ClearWatchpoint { addr: 0x8000 })
        );
        // Condition/logpoint/query commands carry their text hex-encoded.
        assert_eq!(
            Command::parse("Qb,104,7230203d3d2035"),
            Some(Command::SetBreakCondition {
                addr: 0x104,
                expr: "r0 == 5".into()
            })
        );
        assert_eq!(
            Command::parse("Ql,104,686974,"),
            Some(Command::SetLogpoint {
                addr: 0x104,
                label: "hit".into(),
                expr: String::new()
            })
        );
        assert_eq!(
            Command::parse("ql,104"),
            Some(Command::ClearLogpoint { addr: 0x104 })
        );
        assert_eq!(
            Command::parse("Qq,6379636c65"),
            Some(Command::QueryFirst {
                expr: "cycle".into()
            })
        );
        assert_eq!(
            Command::parse("P20=dead"),
            Some(Command::WriteRegister {
                index: 0x20,
                value: 0xdead
            })
        );
        assert_eq!(Command::parse("qStats"), Some(Command::QueryStats));
        assert_eq!(Command::parse("qMetrics"), Some(Command::QueryMetrics));
        assert_eq!(Command::parse("qFlow"), Some(Command::QueryFlow));
        assert_eq!(Command::parse("H"), Some(Command::Halt));
        assert_eq!(Command::parse("Hg1"), Some(Command::SetThread { core: 1 }));
        assert_eq!(Command::parse("T2"), Some(Command::ThreadAlive { core: 2 }));
        assert_eq!(
            Command::parse("qProfa"),
            Some(Command::QueryProf { max: 10 })
        );
        // Malformed inputs are rejected, not panicking.
        for bad in [
            "",
            "m1000",
            "M20,3:beef",
            "Z9,0",
            "Pxx=1",
            "q",
            "Z2",
            "Z5,0,4",
            "qStat",
            "qStatsX",
            "qMetric",
            "qMetricsX",
            "qFlo",
            "qFlowX",
            "qProf",
            "qProfzz",
            "ql,zz",
            "Qb,104",
            "Ql,104,6869",
            "Qx,104,00",
            "Qq,xyz",
            "Hg",
            "Hgzz",
            "Hx1",
            "T",
            "Tzz",
        ] {
            assert_eq!(Command::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn stats_sample_examples() {
        let s = StatsSample {
            now: 0x1234,
            guest: 10,
            monitor: 2,
            host: 0,
            idle: 7,
            exits: vec![4, 0, 0x99],
            faults: vec![2, 0, 1],
            fault_blocked: 1,
            ..StatsSample::default()
        };
        // A single-core sample never emits the SMP keys: the wire bytes are
        // identical to the pre-SMP encoding.
        assert!(!s.format().contains(";nc:"));
        assert_eq!(StatsSample::parse(&s.format()), Some(s.clone()));
        assert_eq!(
            Reply::parse(&Reply::Stats(s.clone()).format()),
            Some(Reply::Stats(s.clone()))
        );
        // A multi-core sample carries per-core instruction and exit counts.
        let smp = StatsSample {
            cores: 2,
            core_instret: vec![0x100, 0x80],
            core_exits: vec![9, 3],
            ..s
        };
        assert!(smp.format().contains(";nc:2;ci:100,80;cx:9,3"));
        assert_eq!(StatsSample::parse(&smp.format()), Some(smp));
        // No exit counters at all is representable.
        let empty = StatsSample {
            now: 5,
            ..StatsSample::default()
        };
        assert_eq!(StatsSample::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking.
        for bad in ["S", "Szz", "S1;g", "S1;g:zz", "S1;x:1,zz", "X1"] {
            assert_eq!(StatsSample::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn prof_sample_examples() {
        let s = ProfSample {
            now: 0x4000,
            interval: 997,
            total_cycles: 0x1234,
            total_samples: 5,
            top: vec![("main".into(), 0x1000, 4), ("[unknown]".into(), 0x234, 1)],
        };
        assert_eq!(ProfSample::parse(&s.format()), Some(s.clone()));
        assert_eq!(
            Reply::parse(&Reply::Prof(s.clone()).format()),
            Some(Reply::Prof(s))
        );
        // An empty profile (no symbols hit yet) is representable.
        let empty = ProfSample {
            now: 9,
            ..ProfSample::default()
        };
        assert_eq!(ProfSample::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking.
        for bad in ["P", "Pzz", "P1;v", "P1;v:zz", "P1;t:6d:1", "P1;t:xx:1:2"] {
            assert_eq!(ProfSample::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn metrics_sample_examples() {
        let mut phase_ns = [0u64; METRICS_PHASES];
        phase_ns[0] = 0x1234_5678;
        phase_ns[METRICS_PHASES - 1] = 7;
        let s = MetricsSample {
            now: 0x9000,
            wall_ns: 0x1_0000_0000,
            marks: 42,
            phase_ns,
        };
        assert_eq!(MetricsSample::parse(&s.format()), Some(s.clone()));
        assert_eq!(
            Reply::parse(&Reply::Metrics(s.clone()).format()),
            Some(Reply::Metrics(s.clone()))
        );
        // The encoding is fixed-width: the reply length must not depend on
        // the (nondeterministic, host-clock-derived) values, because reply
        // bytes cost simulated cycles in the stub's cost model.
        let zero = MetricsSample::default();
        assert_eq!(s.format().len(), zero.format().len());
        let max = MetricsSample {
            now: u64::MAX,
            wall_ns: u64::MAX,
            marks: u64::MAX,
            phase_ns: [u64::MAX; METRICS_PHASES],
        };
        assert_eq!(max.format().len(), zero.format().len());
        assert_eq!(MetricsSample::parse(&max.format()), Some(max));
        // Malformed samples are rejected, not panicking: wrong phase
        // counts, bad hex, missing sections.
        for bad in ["M", "Mzz", "M1;w:1;k:1;p:1", "M1;w:1;k:1", "M1;w:zz"] {
            assert_eq!(MetricsSample::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn flow_sample_examples() {
        let s = FlowSample {
            now: 0x2000,
            completed: 12,
            dropped: 0,
            orphan_ends: 1,
            instants: 3,
            classes: vec![
                (5, 0x40, 0x80, 0x9f),
                (5, 0x10, 0x20, 0x2f),
                (0, 0, 0, 0),
                (2, 0x100, 0x100, 0x13f),
                (0, 0, 0, 0),
                (0, 0, 0, 0),
            ],
        };
        assert_eq!(FlowSample::parse(&s.format()), Some(s.clone()));
        assert_eq!(
            Reply::parse(&Reply::Flow(s.clone()).format()),
            Some(Reply::Flow(s))
        );
        // An empty sample (tracker just enabled) is representable.
        let empty = FlowSample {
            now: 9,
            ..FlowSample::default()
        };
        assert_eq!(FlowSample::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking.
        for bad in [
            "F",
            "Fzz",
            "F1;n",
            "F1;n:zz",
            "F1;h:1:2:3",
            "F1;h:1:2:3:4:5",
        ] {
            assert_eq!(FlowSample::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn stop_reason_examples() {
        let r = StopReason::Watchpoint {
            pc: 0x104,
            addr: 0x8000,
        };
        assert_eq!(StopReason::parse(&r.format()), Some(r));
        assert_eq!(StopReason::parse("T1"), None, "missing pc");
        assert_eq!(StopReason::parse("T3;pc:4"), None, "missing addr");
        assert!(format!("{r}").contains("watchpoint"));
        // Core 0 keeps the plain (pre-SMP) encoding; other cores append a
        // `c:` key that core-unaware parsers skip.
        assert_eq!(r.format_on(0), r.format());
        assert_eq!(r.format_on(3), format!("{};c:3", r.format()));
        assert_eq!(StopReason::parse(&r.format_on(3)), Some(r));
        assert_eq!(StopReason::parse_with_core(&r.format_on(3)), Some((r, 3)));
        assert_eq!(StopReason::parse_with_core(&r.format()), Some((r, 0)));
        assert_eq!(StopReason::parse_with_core("T3;pc:4;addr:8;c:zz"), None);
    }

    #[test]
    fn reply_examples() {
        assert_eq!(Reply::parse("OK"), Some(Reply::Ok));
        assert_eq!(Reply::parse("E03"), Some(Reply::Error(3)));
        assert_eq!(Reply::parse("dead"), Some(Reply::Hex(vec![0xde, 0xad])));
        assert_eq!(
            Reply::parse("T2;pc:8"),
            Some(Reply::Stopped(StopReason::Step { pc: 8 }))
        );
        assert_eq!(
            Reply::parse("Q1;c:2a"),
            Some(Reply::Query {
                found: true,
                cycle: 42
            })
        );
        assert_eq!(
            Reply::parse("Q0;c:0"),
            Some(Reply::Query {
                found: false,
                cycle: 0
            })
        );
        assert_eq!(Reply::parse("Q2;c:0"), None);
        assert_eq!(Reply::parse("Q1"), None);
        assert_eq!(Reply::parse("xyz"), None);
    }

    fn arb_command() -> impl Strategy<Value = Command> {
        prop_oneof![
            Just(Command::Halt),
            Just(Command::QueryStop),
            Just(Command::ReadRegisters),
            Just(Command::Step),
            Just(Command::Continue),
            Just(Command::Reset),
            Just(Command::QueryStats),
            any::<u8>().prop_map(|max| Command::QueryProf { max }),
            Just(Command::QueryMetrics),
            Just(Command::QueryFlow),
            (any::<u8>(), any::<u32>())
                .prop_map(|(index, value)| Command::WriteRegister { index, value }),
            (any::<u32>(), any::<u32>()).prop_map(|(addr, len)| Command::ReadMemory { addr, len }),
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(addr, data)| Command::WriteMemory { addr, data }),
            any::<u32>().prop_map(|addr| Command::SetBreakpoint { addr }),
            any::<u32>().prop_map(|addr| Command::ClearBreakpoint { addr }),
            (any::<u32>(), 1u32..4096, arb_watch_kind())
                .prop_map(|(addr, len, kind)| Command::SetWatchpoint { addr, len, kind }),
            any::<u32>().prop_map(|addr| Command::ClearWatchpoint { addr }),
            (any::<u32>(), "\\PC{0,16}")
                .prop_map(|(addr, expr)| Command::SetBreakCondition { addr, expr }),
            (any::<u32>(), "\\PC{0,16}")
                .prop_map(|(addr, expr)| Command::SetWatchCondition { addr, expr }),
            (any::<u32>(), "\\PC{0,8}", "\\PC{0,16}")
                .prop_map(|(addr, label, expr)| Command::SetLogpoint { addr, label, expr }),
            any::<u32>().prop_map(|addr| Command::ClearLogpoint { addr }),
            "\\PC{0,16}".prop_map(|expr| Command::QueryFirst { expr }),
            Just(Command::ReverseStep),
            Just(Command::ReverseContinue),
            any::<u64>().prop_map(|cycle| Command::Seek { cycle }),
            any::<u32>().prop_map(|core| Command::SetThread { core }),
            any::<u32>().prop_map(|core| Command::ThreadAlive { core }),
        ]
    }

    fn arb_watch_kind() -> impl Strategy<Value = WatchKind> {
        proptest::sample::select(&[WatchKind::Write, WatchKind::Read, WatchKind::Access])
    }

    fn arb_stop() -> impl Strategy<Value = StopReason> {
        prop_oneof![
            any::<u32>().prop_map(|pc| StopReason::Halted { pc }),
            any::<u32>().prop_map(|pc| StopReason::Breakpoint { pc }),
            any::<u32>().prop_map(|pc| StopReason::Step { pc }),
            (any::<u32>(), any::<u32>()).prop_map(|(pc, addr)| StopReason::Watchpoint { pc, addr }),
            (any::<u32>(), 0u32..16).prop_map(|(pc, cause)| StopReason::Fault { pc, cause }),
            (any::<u32>(), any::<u64>())
                .prop_map(|(pc, cycle)| StopReason::TimeTravel { pc, cycle }),
        ]
    }

    fn arb_stats() -> impl Strategy<Value = StatsSample> {
        (
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
            (
                proptest::collection::vec(any::<u64>(), 0..12),
                proptest::collection::vec(any::<u64>(), 0..6),
                any::<u64>(),
            ),
            arb_stats_smp(),
        )
            .prop_map(
                |(
                    (now, guest, monitor, host, idle),
                    (exits, faults, fb),
                    (cores, core_instret, core_exits),
                )| {
                    StatsSample {
                        now,
                        guest,
                        monitor,
                        host,
                        idle,
                        exits,
                        faults,
                        fault_blocked: fb,
                        cores,
                        core_instret,
                        core_exits,
                    }
                },
            )
    }

    /// SMP stats fields that survive a roundtrip: either no SMP data at all
    /// (the single-core encoding drops the keys, so the vectors must be
    /// empty and the count zero) or 2+ cores with per-core vectors.
    fn arb_stats_smp() -> impl Strategy<Value = (u64, Vec<u64>, Vec<u64>)> {
        (
            0u64..4,
            proptest::collection::vec(any::<u64>(), 4..5),
            proptest::collection::vec(any::<u64>(), 4..5),
        )
            .prop_map(|(sel, ci, cx)| {
                if sel < 2 {
                    (0, Vec::new(), Vec::new())
                } else {
                    (
                        sel,
                        ci[..sel as usize].to_vec(),
                        cx[..sel as usize].to_vec(),
                    )
                }
            })
    }

    fn arb_prof() -> impl Strategy<Value = ProfSample> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(("\\PC{0,12}", any::<u64>(), any::<u64>()), 0..8),
        )
            .prop_map(
                |(now, interval, total_cycles, total_samples, top)| ProfSample {
                    now,
                    interval,
                    total_cycles,
                    total_samples,
                    top,
                },
            )
    }

    fn arb_flow() -> impl Strategy<Value = FlowSample> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                0..FLOW_CLASSES + 2,
            ),
        )
            .prop_map(
                |(now, completed, dropped, orphan_ends, instants, classes)| FlowSample {
                    now,
                    completed,
                    dropped,
                    orphan_ends,
                    instants,
                    classes,
                },
            )
    }

    fn arb_metrics() -> impl Strategy<Value = MetricsSample> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), METRICS_PHASES..METRICS_PHASES + 1),
        )
            .prop_map(|(now, wall_ns, marks, phases)| MetricsSample {
                now,
                wall_ns,
                marks,
                phase_ns: phases.try_into().unwrap(),
            })
    }

    proptest! {
        #[test]
        fn command_roundtrip(cmd in arb_command()) {
            prop_assert_eq!(Command::parse(&cmd.format()), Some(cmd));
        }

        #[test]
        fn metrics_roundtrip_and_fixed_width(sample in arb_metrics()) {
            let wire = sample.format();
            prop_assert_eq!(wire.len(), MetricsSample::default().format().len());
            let r = Reply::Metrics(sample);
            prop_assert_eq!(Reply::parse(&wire), Some(r));
        }

        #[test]
        fn stats_roundtrip(sample in arb_stats()) {
            let r = Reply::Stats(sample);
            prop_assert_eq!(Reply::parse(&r.format()), Some(r));
        }

        #[test]
        fn prof_roundtrip(sample in arb_prof()) {
            let r = Reply::Prof(sample);
            prop_assert_eq!(Reply::parse(&r.format()), Some(r));
        }

        #[test]
        fn flow_roundtrip(sample in arb_flow()) {
            let r = Reply::Flow(sample);
            prop_assert_eq!(Reply::parse(&r.format()), Some(r));
        }

        #[test]
        fn reply_roundtrip(stop in arb_stop()) {
            let r = Reply::Stopped(stop);
            prop_assert_eq!(Reply::parse(&r.format()), Some(r));
        }

        #[test]
        fn stop_core_roundtrip(stop in arb_stop(), core in any::<u8>()) {
            prop_assert_eq!(
                StopReason::parse_with_core(&stop.format_on(core)),
                Some((stop, core))
            );
            // Core-unaware parsers still read the reason itself.
            prop_assert_eq!(StopReason::parse(&stop.format_on(core)), Some(stop));
        }

    }

    proptest! {
        #[test]
        fn query_reply_roundtrip(fc in (any::<bool>(), any::<u64>())) {
            let (found, cycle) = fc;
            let r = Reply::Query { found, cycle };
            prop_assert_eq!(Reply::parse(&r.format()), Some(r));
        }

        #[test]
        fn command_parse_total(s in "\\PC{0,40}") {
            let _ = Command::parse(&s); // must not panic
        }

        #[test]
        fn reply_parse_total(s in "\\PC{0,40}") {
            let _ = Reply::parse(&s); // must not panic
        }
    }
}
