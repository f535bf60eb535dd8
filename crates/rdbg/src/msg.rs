//! Command and reply payloads carried inside [`crate::wire`] packets.
//!
//! Both ends share these types: the host [`crate::Debugger`] formats
//! [`Command`]s and parses [`Reply`]s; the monitor's stub does the reverse.
//!
//! Every command receives an immediate reply. Stop events (`T…` payloads)
//! are *asynchronous*: after a `c` (continue) or `s` (step) is acknowledged
//! with `OK`, the stub sends a [`StopReason`] packet whenever the guest next
//! stops.
//!
//! Tagged replies are records `<tag><head>;key:value;…`. One encoder
//! (`Record`) writes them and one decoder (`Fields`) splits them; a value
//! is a hex number, a hex-encoded string, a `,` list or a `:` tuple, an
//! absent key reads as zero or empty, and an unknown key is skipped.

use crate::wire::{from_hex, to_hex};
use core::fmt::{self, Write as _};
use hx_obs::{FlowSummary, HostAttribution};

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
    /// the guest: the reply is a [`Reply::Metrics`] carrying per-phase
    /// host-nanosecond totals. Stubs built without the host profiler
    /// answer with the stable `metrics unavailable` error code.
    QueryMetrics,
    /// Sample the target's causal-flow tracker **without** stopping the
    /// guest: the reply is a [`Reply::Flow`] with per-class flow counts and
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
        self.format_on(0)
    }

    /// Formats as a `T…` payload that also names the core the stop happened
    /// on. Core 0 produces the plain (pre-SMP) encoding, so single-core
    /// stubs stay byte-identical on the wire; parsers that predate the `c:`
    /// key skip it as an unknown field.
    pub fn format_on(&self, core: u8) -> String {
        let (kind, extra) = match *self {
            StopReason::Halted { .. } => (0u8, None),
            StopReason::Breakpoint { .. } => (1, None),
            StopReason::Step { .. } => (2, None),
            StopReason::Watchpoint { addr, .. } => (3, Some(("addr", addr as u64))),
            StopReason::Fault { cause, .. } => (4, Some(("cause", cause as u64))),
            StopReason::TimeTravel { cycle, .. } => (5, Some(("cycle", cycle))),
        };
        let mut r = Record::new('T', &kind).field("pc", &self.pc());
        if let Some((key, v)) = extra {
            r = r.field(key, &v);
        }
        if core != 0 {
            r = r.field("c", &core);
        }
        r.out
    }

    /// Parses a `T…` payload together with the core it stopped on (`c:`
    /// key; absent means core 0).
    pub fn parse_with_core(payload: &str) -> Option<(StopReason, u8)> {
        let d = Fields::split(payload, 'T')?;
        Some((StopReason::decode(&d)?, d.get("c")?))
    }

    /// Parses a `T…` payload.
    pub fn parse(payload: &str) -> Option<StopReason> {
        StopReason::decode(&Fields::split(payload, 'T')?)
    }

    fn decode(d: &Fields) -> Option<StopReason> {
        let pc = d.req("pc")?;
        Some(match d.head {
            "0" => StopReason::Halted { pc },
            "1" => StopReason::Breakpoint { pc },
            "2" => StopReason::Step { pc },
            "3" => StopReason::Watchpoint {
                pc,
                addr: d.req("addr")?,
            },
            "4" => StopReason::Fault {
                pc,
                cause: d.req("cause")?,
            },
            "5" => StopReason::TimeTravel {
                pc,
                cycle: d.req("cycle")?,
            },
            _ => return None,
        })
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
    /// Command failed; the code is one of [`crate::err`].
    Error(u8),
    /// Asynchronous or queried stop reason.
    Stopped(StopReason),
    /// Live monitor statistics (reply to [`Command::QueryStats`]).
    Stats(StatsSample),
    /// Live profiler sample (reply to [`Command::QueryProf`]).
    Prof(ProfSample),
    /// Live host-time attribution (reply to [`Command::QueryMetrics`]):
    /// the monitor's own [`HostAttribution`] snapshot, whose `phase_ns`
    /// travels in the canonical `hx_obs::HostPhase::ALL` order.
    ///
    /// The `M` encoding is **fixed width**: every number is zero-padded to
    /// 16 hex digits and the phase count is the type's. Reply bytes cost
    /// simulated cycles in the stub's cost model, so the nondeterministic
    /// host-nanosecond values must never change the reply's length.
    Metrics {
        /// Simulated-cycle timestamp of the sample.
        now: u64,
        /// Host nanoseconds per phase since the profiler was enabled.
        attribution: HostAttribution,
    },
    /// Live causal-flow sample (reply to [`Command::QueryFlow`]): the
    /// tracker's own [`FlowSummary`], one `(n, p50, p99, max)` tuple per
    /// `hx_obs::FlowClass`. Every value is a pure function of the
    /// simulation, so the variable-width encoding cannot leak host
    /// nondeterminism into the reply's simulated byte cost.
    Flow {
        /// Simulated-cycle timestamp of the sample.
        now: u64,
        /// Flow counters and per-class latency percentiles.
        summary: FlowSummary,
    },
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
        let record = match self {
            Reply::Ok => return "OK".into(),
            Reply::Error(code) => return format!("E{code:02x}"),
            Reply::Hex(data) => return to_hex(data),
            Reply::Stopped(r) => return r.format(),
            Reply::Stats(s) => {
                let r = Record::new('S', &s.now)
                    .field("g", &s.guest)
                    .field("m", &s.monitor)
                    .field("h", &s.host)
                    .field("i", &s.idle)
                    .field("x", &s.exits)
                    .field("f", &s.faults)
                    .field("fb", &s.fault_blocked);
                // SMP extension keys: emitted only for multi-core targets so
                // a single-core sample is byte-identical to the pre-SMP
                // encoding.
                if s.cores <= 1 {
                    r
                } else {
                    r.field("nc", &s.cores)
                        .field("ci", &s.core_instret)
                        .field("cx", &s.core_exits)
                }
            }
            Reply::Prof(s) => Record::new('P', &s.now)
                .field("v", &s.interval)
                .field("c", &s.total_cycles)
                .field("s", &s.total_samples)
                .field("t", &s.top),
            Reply::Metrics {
                now,
                attribution: a,
            } => Record::fixed('M', now, 16)
                .field("w", &a.wall_ns)
                .field("k", &a.marks)
                .field("p", &a.phase_ns),
            Reply::Flow { now, summary: s } => Record::new('F', now)
                .field("n", &s.completed)
                .field("d", &s.dropped)
                .field("o", &s.orphan_ends)
                .field("t", &s.instants)
                .field("h", &s.classes),
            Reply::Query { found, cycle } => Record::new('Q', &(*found as u8)).field("c", cycle),
        };
        record.out
    }

    /// Parses a packet payload into a reply. No tag letter collides with
    /// hex data: `to_hex` emits lowercase only.
    pub fn parse(payload: &str) -> Option<Reply> {
        let Some(tag @ ('E' | 'T' | 'S' | 'P' | 'M' | 'F' | 'Q')) = payload.chars().next() else {
            return Some(match payload {
                "OK" => Reply::Ok,
                hex => Reply::Hex(from_hex(hex)?),
            });
        };
        if tag == 'E' {
            return Some(Reply::Error(u8::from_str_radix(&payload[1..], 16).ok()?));
        }
        let d = Fields::split(payload, tag)?;
        Some(match tag {
            'T' => Reply::Stopped(StopReason::decode(&d)?),
            'S' => Reply::Stats(StatsSample {
                now: d.head()?,
                guest: d.get("g")?,
                monitor: d.get("m")?,
                host: d.get("h")?,
                idle: d.get("i")?,
                exits: d.get("x")?,
                faults: d.get("f")?,
                fault_blocked: d.get("fb")?,
                cores: d.get("nc")?,
                core_instret: d.get("ci")?,
                core_exits: d.get("cx")?,
            }),
            'P' => Reply::Prof(ProfSample {
                now: d.head()?,
                interval: d.get("v")?,
                total_cycles: d.get("c")?,
                total_samples: d.get("s")?,
                top: d.get("t")?,
            }),
            'M' => Reply::Metrics {
                now: d.head()?,
                attribution: HostAttribution {
                    wall_ns: d.get("w")?,
                    marks: d.get("k")?,
                    phase_ns: d.req("p")?,
                },
            },
            'F' => Reply::Flow {
                now: d.head()?,
                summary: FlowSummary {
                    completed: d.get("n")?,
                    dropped: d.get("d")?,
                    orphan_ends: d.get("o")?,
                    instants: d.get("t")?,
                    classes: d.req("h")?,
                },
            },
            _ => Reply::Query {
                found: match d.head {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                },
                cycle: d.req("c")?,
            },
        })
    }
}

// The one reply codec. Every tagged reply is a record
// `<tag><head>;key:value;…`: the head and the values are hex numbers,
// hex-encoded strings, `,`-separated lists or `:`-separated tuples of
// those, and a decoder skips keys it does not know.

/// A value one record field carries.
trait Field: Sized {
    /// Appends the value, each number zero-padded to `width` hex digits
    /// (0: as few as it needs).
    fn put(&self, out: &mut String, width: usize);
    /// Reads the value back; `None` if it is malformed.
    fn take(s: &str) -> Option<Self>;
}

macro_rules! hex_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut String, width: usize) {
                let _ = write!(out, "{self:0width$x}");
            }
            fn take(s: &str) -> Option<Self> {
                <$t>::from_str_radix(s, 16).ok()
            }
        }
    )*};
}
hex_field!(u8, u32, u64);

impl Field for String {
    fn put(&self, out: &mut String, _: usize) {
        out.push_str(&to_hex(self.as_bytes()));
    }
    fn take(s: &str) -> Option<Self> {
        String::from_utf8(from_hex(s)?).ok()
    }
}

fn put_list<T: Field>(items: &[T], out: &mut String, width: usize) {
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        v.put(out, width);
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut String, width: usize) {
        put_list(self, out, width);
    }
    fn take(s: &str) -> Option<Self> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(',').map(T::take).collect()
    }
}

/// A fixed-length list: decoding any other length fails.
impl<T: Field, const N: usize> Field for [T; N] {
    fn put(&self, out: &mut String, width: usize) {
        put_list(self, out, width);
    }
    fn take(s: &str) -> Option<Self> {
        Vec::<T>::take(s)?.try_into().ok()
    }
}

macro_rules! tuple_field {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Field),+> Field for ($($t,)+) {
            fn put(&self, out: &mut String, width: usize) {
                $(
                    if $i > 0 {
                        out.push(':');
                    }
                    self.$i.put(out, width);
                )+
            }
            fn take(s: &str) -> Option<Self> {
                let mut parts = s.split(':');
                let v = ($($t::take(parts.next()?)?,)+);
                parts.next().is_none().then_some(v)
            }
        }
    };
}
tuple_field!(A 0, B 1, C 2);
tuple_field!(A 0, B 1, C 2, D 3);

/// Writes one record into a single `String`.
struct Record {
    out: String,
    width: usize,
}

impl Record {
    fn new(tag: char, head: &impl Field) -> Record {
        Record::fixed(tag, head, 0)
    }

    /// A record whose every number is zero-padded to `width` hex digits.
    fn fixed(tag: char, head: &impl Field, width: usize) -> Record {
        let mut out = String::with_capacity(64);
        out.push(tag);
        head.put(&mut out, width);
        Record { out, width }
    }

    fn field(mut self, key: &str, v: &impl Field) -> Record {
        self.out.push(';');
        self.out.push_str(key);
        self.out.push(':');
        v.put(&mut self.out, self.width);
        self
    }
}

/// One record split into its head and `key:value` fields.
struct Fields<'a> {
    head: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// The one place a reply is split into fields: `None` unless `payload`
    /// starts with `tag` and every field after the head has a `:`.
    fn split(payload: &'a str, tag: char) -> Option<Fields<'a>> {
        let mut parts = payload.strip_prefix(tag)?.split(';');
        let head = parts.next()?;
        let fields = parts.map(|p| p.split_once(':')).collect::<Option<_>>()?;
        Some(Fields { head, fields })
    }

    fn head<T: Field>(&self) -> Option<T> {
        T::take(self.head)
    }

    fn value(&self, key: &str) -> Option<&'a str> {
        self.fields
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|f| f.1)
    }

    /// A field that must be present.
    fn req<T: Field>(&self, key: &str) -> Option<T> {
        T::take(self.value(key)?)
    }

    /// A field that reads as `T::default()` when absent (still `None` when
    /// malformed).
    fn get<T: Field + Default>(&self, key: &str) -> Option<T> {
        self.value(key).map_or(Some(T::default()), T::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_obs::{FlowClass, HostPhase};
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
        let wire = Reply::Stats(s.clone()).format();
        assert!(!wire.contains(";nc:"));
        assert_eq!(Reply::parse(&wire), Some(Reply::Stats(s.clone())));
        // A multi-core sample carries per-core instruction and exit counts.
        let smp = Reply::Stats(StatsSample {
            cores: 2,
            core_instret: vec![0x100, 0x80],
            core_exits: vec![9, 3],
            ..s
        });
        assert!(smp.format().contains(";nc:2;ci:100,80;cx:9,3"));
        assert_eq!(Reply::parse(&smp.format()), Some(smp));
        // No exit counters at all is representable.
        let empty = Reply::Stats(StatsSample {
            now: 5,
            ..StatsSample::default()
        });
        assert_eq!(Reply::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking.
        for bad in ["S", "Szz", "S1;g", "S1;g:zz", "S1;x:1,zz", "X1"] {
            assert_eq!(Reply::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn prof_sample_examples() {
        let s = Reply::Prof(ProfSample {
            now: 0x4000,
            interval: 997,
            total_cycles: 0x1234,
            total_samples: 5,
            top: vec![("main".into(), 0x1000, 4), ("[unknown]".into(), 0x234, 1)],
        });
        assert_eq!(Reply::parse(&s.format()), Some(s));
        // An empty profile (no symbols hit yet) is representable.
        let empty = Reply::Prof(ProfSample {
            now: 9,
            ..ProfSample::default()
        });
        assert_eq!(Reply::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking.
        for bad in ["P", "Pzz", "P1;v", "P1;v:zz", "P1;t:6d:1", "P1;t:xx:1:2"] {
            assert_eq!(Reply::parse(bad), None, "{bad:?}");
        }
    }

    fn metrics(now: u64, wall_ns: u64, marks: u64, phase_ns: [u64; HostPhase::COUNT]) -> Reply {
        Reply::Metrics {
            now,
            attribution: HostAttribution {
                wall_ns,
                marks,
                phase_ns,
            },
        }
    }

    #[test]
    fn metrics_sample_examples() {
        let mut phase_ns = [0u64; HostPhase::COUNT];
        phase_ns[0] = 0x1234_5678;
        phase_ns[HostPhase::COUNT - 1] = 7;
        let s = metrics(0x9000, 0x1_0000_0000, 42, phase_ns);
        assert_eq!(Reply::parse(&s.format()), Some(s.clone()));
        // The encoding is fixed-width: the reply length must not depend on
        // the (nondeterministic, host-clock-derived) values, because reply
        // bytes cost simulated cycles in the stub's cost model.
        let zero = metrics(0, 0, 0, [0; HostPhase::COUNT]);
        assert_eq!(s.format().len(), zero.format().len());
        let max = metrics(u64::MAX, u64::MAX, u64::MAX, [u64::MAX; HostPhase::COUNT]);
        assert_eq!(max.format().len(), zero.format().len());
        assert_eq!(Reply::parse(&max.format()), Some(max));
        // Malformed samples are rejected, not panicking: wrong phase
        // counts, bad hex, missing sections.
        for bad in ["M", "Mzz", "M1;w:1;k:1;p:1", "M1;w:1;k:1", "M1;w:zz"] {
            assert_eq!(Reply::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn flow_sample_examples() {
        let s = pinned_flow();
        assert_eq!(Reply::parse(&s.format()), Some(s));
        // An empty sample (tracker just enabled) is representable.
        let empty = Reply::Flow {
            now: 9,
            summary: FlowSummary::default(),
        };
        assert_eq!(Reply::parse(&empty.format()), Some(empty));
        // Malformed samples are rejected, not panicking: a class count
        // other than `FlowClass::COUNT` included.
        for bad in [
            "F",
            "Fzz",
            "F1;n",
            "F1;n:zz",
            "F1;h:1:2:3",
            "F1;h:1:2:3:4:5",
            "F1;h:1:2:3:4",
            "F1;n:0",
        ] {
            assert_eq!(Reply::parse(bad), None, "{bad:?}");
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

    /// The exact bytes of every live-sample and stop reply. A round trip
    /// cannot catch an encoder and a decoder that change together; these
    /// literals can, in both directions.
    #[test]
    fn reply_wire_bytes_are_pinned() {
        let stats = StatsSample {
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
        let smp = StatsSample {
            cores: 2,
            core_instret: vec![0x100, 0x80],
            core_exits: vec![9, 3],
            ..stats.clone()
        };
        let prof = ProfSample {
            now: 0x4000,
            interval: 997,
            total_cycles: 0x1234,
            total_samples: 5,
            top: vec![
                ("main".into(), 0x1000, 4),
                ("[unknown]".into(), 0x234, 1),
                ("café".into(), 7, 0),
            ],
        };
        let cases = [
            (
                Reply::Stats(stats),
                "S1234;g:a;m:2;h:0;i:7;x:4,0,99;f:2,0,1;fb:1",
            ),
            (
                Reply::Stats(StatsSample {
                    now: 5,
                    ..StatsSample::default()
                }),
                "S5;g:0;m:0;h:0;i:0;x:;f:;fb:0",
            ),
            (
                Reply::Stats(smp),
                "S1234;g:a;m:2;h:0;i:7;x:4,0,99;f:2,0,1;fb:1;nc:2;ci:100,80;cx:9,3",
            ),
            (
                Reply::Prof(prof),
                "P4000;v:3e5;c:1234;s:5;\
                 t:6d61696e:1000:4,5b756e6b6e6f776e5d:234:1,636166c3a9:7:0",
            ),
            (
                Reply::Prof(ProfSample {
                    now: 9,
                    ..ProfSample::default()
                }),
                "P9;v:0;c:0;s:0;t:",
            ),
            (
                pinned_metrics(),
                "M0000000000009000;w:0000000100000000;k:000000000000002a;\
                 p:0000000012345678,0000000000000000,0000000000000000,\
                 0000000000000000,0000000000000000,0000000000000000,\
                 0000000000000000,0000000000000000,0000000000000000,\
                 0000000000000000,0000000000000000,0000000000000000,\
                 0000000000000000,0000000000000000,0000000000000000,\
                 0000000000000000,0000000000000000,0000000000000007",
            ),
            (
                pinned_flow(),
                "F2000;n:c;d:0;o:1;t:3;h:5:40:80:9f,5:10:20:2f,0:0:0:0,2:100:100:13f,0:0:0:0,0:0:0:0",
            ),
            (Reply::Stopped(StopReason::Halted { pc: 8 }), "T0;pc:8"),
            (
                Reply::Stopped(StopReason::Breakpoint { pc: 0x104 }),
                "T1;pc:104",
            ),
            (Reply::Stopped(StopReason::Step { pc: 0x108 }), "T2;pc:108"),
            (
                Reply::Stopped(StopReason::Watchpoint {
                    pc: 0x104,
                    addr: 0x8000,
                }),
                "T3;pc:104;addr:8000",
            ),
            (
                Reply::Stopped(StopReason::Fault { pc: 0x20, cause: 13 }),
                "T4;pc:20;cause:d",
            ),
            (
                Reply::Stopped(StopReason::TimeTravel {
                    pc: 0x15ac,
                    cycle: 0x56ce,
                }),
                "T5;pc:15ac;cycle:56ce",
            ),
            (
                Reply::Query {
                    found: true,
                    cycle: 42,
                },
                "Q1;c:2a",
            ),
            (
                Reply::Query {
                    found: false,
                    cycle: 0,
                },
                "Q0;c:0",
            ),
        ];
        for (reply, wire) in cases {
            assert_eq!(reply.format(), wire);
            assert_eq!(Reply::parse(wire), Some(reply), "{wire}");
        }
        let watch = StopReason::Watchpoint {
            pc: 0x104,
            addr: 0x8000,
        };
        assert_eq!(watch.format_on(1), "T3;pc:104;addr:8000;c:1");
        assert_eq!(
            StopReason::parse_with_core("T3;pc:104;addr:8000;c:1"),
            Some((watch, 1))
        );
    }

    /// The `M` reply of [`reply_wire_bytes_are_pinned`].
    fn pinned_metrics() -> Reply {
        let mut phase_ns = [0u64; HostPhase::COUNT];
        phase_ns[0] = 0x1234_5678;
        phase_ns[HostPhase::COUNT - 1] = 7;
        metrics(0x9000, 0x1_0000_0000, 42, phase_ns)
    }

    /// The `F` reply of [`reply_wire_bytes_are_pinned`].
    fn pinned_flow() -> Reply {
        Reply::Flow {
            now: 0x2000,
            summary: FlowSummary {
                completed: 12,
                dropped: 0,
                orphan_ends: 1,
                instants: 3,
                classes: [
                    (5, 0x40, 0x80, 0x9f),
                    (5, 0x10, 0x20, 0x2f),
                    (0, 0, 0, 0),
                    (2, 0x100, 0x100, 0x13f),
                    (0, 0, 0, 0),
                    (0, 0, 0, 0),
                ],
            },
        }
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

    fn arb_flow() -> impl Strategy<Value = Reply> {
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>()),
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                FlowClass::COUNT..FlowClass::COUNT + 1,
            ),
        )
            .prop_map(
                |((now, completed, dropped), (orphan_ends, instants), classes)| Reply::Flow {
                    now,
                    summary: FlowSummary {
                        completed,
                        dropped,
                        orphan_ends,
                        instants,
                        classes: classes.try_into().unwrap(),
                    },
                },
            )
    }

    fn arb_metrics() -> impl Strategy<Value = Reply> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), HostPhase::COUNT..HostPhase::COUNT + 1),
        )
            .prop_map(|(now, wall_ns, marks, phases)| {
                metrics(now, wall_ns, marks, phases.try_into().unwrap())
            })
    }

    proptest! {
        #[test]
        fn command_roundtrip(cmd in arb_command()) {
            prop_assert_eq!(Command::parse(&cmd.format()), Some(cmd));
        }

        #[test]
        fn metrics_roundtrip_and_fixed_width(r in arb_metrics()) {
            let wire = r.format();
            prop_assert_eq!(wire.len(), pinned_metrics().format().len());
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
        fn flow_roundtrip(r in arb_flow()) {
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
