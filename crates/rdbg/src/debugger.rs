//! The host-side remote debugger.

use crate::msg::{Command, ProfSample, Reply, StatsSample, StopReason, WatchKind, MEM_CHUNK};
use crate::wire::{encode_packet, PacketParser, WireEvent, ACK, BREAK_BYTE, NAK};
use core::fmt;
use hx_obs::{FlowSummary, HostAttribution};
use std::collections::VecDeque;

/// Transport between the host debugger and the target's debug stub.
///
/// In this repository the link is the simulated machine's UART: `send`
/// queues host→target bytes and `pump` runs the target platform for a slice
/// and drains whatever the stub transmitted. A trivial in-process stub works
/// too (see the tests).
///
/// `Send` is a supertrait so a whole debug session — `Debugger` plus the
/// platform (or socket) inside its link — can migrate to a farm worker
/// thread.
pub trait Link: Send {
    /// Queues bytes toward the target.
    fn send(&mut self, bytes: &[u8]);

    /// Lets the target run briefly; returns bytes it produced (possibly
    /// empty). The debugger calls this repeatedly while waiting.
    fn pump(&mut self) -> Vec<u8>;
}

/// Debugger-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbgError {
    /// The target produced no (valid) reply within the pump budget.
    Timeout,
    /// The target replied, but not with something this command permits.
    Protocol(String),
    /// The stub reported an error code (see [`err`] for meanings).
    Target(u8),
}

/// Declares each stub error code with its host-side name (also its doc) in
/// one table, so a code cannot exist without a name.
macro_rules! codes {
    ($($code:ident = $n:literal, $name:literal;)*) => {
        $(#[doc = $name] pub const $code: u8 = $n;)*
        /// Every code with its host-side name, in code order.
        pub const NAMES: &[(u8, &str)] = &[$(($code, $name)),*];
    };
}

/// Stub error codes carried in `E..` replies, shared by every stub. Besides
/// its name: `BP` also answers a full breakpoint table, `RECORDER` a request
/// that falls off the recorded timeline, and `UNSUPPORTED` every verb a
/// stub lacks (the OS-embedded stub's watchpoints, time travel, …).
pub mod err {
    codes! {
        PARSE = 1, "malformed packet";
        REG = 2, "bad register index";
        MEM = 3, "unmapped guest memory";
        NOT_STOPPED = 4, "guest not stopped";
        BP = 5, "bad breakpoint or watchpoint";
        RECORDER = 6, "flight recorder unavailable";
        PROFILER = 7, "profiler unavailable";
        QUERY = 8, "bad query expression";
        UNSUPPORTED = 9, "unsupported command";
        METRICS = 10, "metrics unavailable";
        CORE = 11, "no such core";
        CAUSAL = 12, "causal tracing unavailable";
    }
}

/// Human-readable name for a stub error code ([`err::NAMES`]), so the host
/// can print `E04 (guest not stopped)` instead of a bare number.
pub fn err_name(code: u8) -> Option<&'static str> {
    let (_, name) = err::NAMES.iter().find(|&&(c, _)| c == code)?;
    Some(name)
}

impl fmt::Display for DbgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbgError::Timeout => write!(f, "target did not reply"),
            DbgError::Protocol(s) => write!(f, "protocol violation: {s}"),
            DbgError::Target(code) => match err_name(*code) {
                Some(name) => write!(f, "target error E{code:02x} ({name})"),
                None => write!(f, "target error E{code:02x}"),
            },
        }
    }
}

impl std::error::Error for DbgError {}

/// A full register snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registers {
    /// `r0`–`r31`.
    pub gprs: [u32; 32],
    /// Program counter.
    pub pc: u32,
}

impl Registers {
    /// The value of register `index` (`0..32` GPRs).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn gpr(&self, index: usize) -> u32 {
        self.gprs[index]
    }
}

/// How many empty pumps the debugger tolerates before declaring a timeout.
const PUMP_BUDGET: usize = 20_000;

/// Transactions are attempted this many times before giving up: the first
/// send plus bounded retransmissions, each with a doubled pump budget
/// (backoff), so a silently-dropped packet costs a retry, not a wedge.
const MAX_ATTEMPTS: u32 = 4;

/// NAKs tolerated within one transaction before declaring the line dead.
const MAX_NAKS: usize = 16;

/// Consecutive empty pumps that mark the line as drained of stale traffic
/// before a new transaction sends its command.
const DRAIN_QUIET: usize = 4;

/// The host-side debugger client (the paper's "software remote debugger").
///
/// # Example
///
/// See `examples/debug_session.rs` in the repository root, which connects a
/// `Debugger` over the simulated UART to the stub inside the lightweight
/// monitor and walks a breakpoint/step/inspect session.
#[derive(Debug)]
pub struct Debugger<L> {
    link: L,
    parser: PacketParser,
    stops: VecDeque<(StopReason, u8)>,
    last_core: u8,
    pump_budget: usize,
}

impl<L: Link> Debugger<L> {
    /// Wraps a link.
    pub fn new(link: L) -> Debugger<L> {
        Debugger {
            link,
            parser: PacketParser::new(),
            stops: VecDeque::new(),
            last_core: 0,
            pump_budget: PUMP_BUDGET,
        }
    }

    /// Overrides the base pump budget (empty pumps tolerated before a
    /// timeout/retry). Mostly for tests and fault campaigns, where a tight
    /// budget keeps a deliberately-dead line from dominating wall-clock.
    pub fn set_pump_budget(&mut self, budget: usize) {
        self.pump_budget = budget.max(1);
    }

    /// Consumes the debugger, returning the link.
    pub fn into_link(self) -> L {
        self.link
    }

    /// Borrows the underlying link (e.g. to inspect the platform behind a
    /// simulated transport).
    pub fn link_ref(&self) -> &L {
        &self.link
    }

    /// Mutably borrows the underlying link.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// Requests an immediate halt (break-in) and waits for the stop report.
    ///
    /// # Errors
    ///
    /// [`DbgError::Timeout`] if the target never stops — on the lightweight
    /// monitor this works even when the guest OS is wedged, which is the
    /// paper's stability claim.
    pub fn halt(&mut self) -> Result<StopReason, DbgError> {
        // The break byte is a single octet with no checksum: on a lossy line
        // it can vanish without trace, so retry the whole exchange a bounded
        // number of times rather than trusting one shot.
        let mut last = Err(DbgError::Timeout);
        for _ in 0..MAX_ATTEMPTS {
            self.link.send(&[BREAK_BYTE]);
            last = self.wait_stop();
            if !matches!(last, Err(DbgError::Timeout)) {
                return last;
            }
        }
        last
    }

    /// Reads all registers.
    ///
    /// # Errors
    ///
    /// Propagates target and protocol errors.
    pub fn read_registers(&mut self) -> Result<Registers, DbgError> {
        match self.transact(&Command::ReadRegisters)? {
            Reply::Hex(bytes) if bytes.len() == 33 * 4 => {
                let word =
                    |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
                let mut gprs = [0u32; 32];
                for (i, g) in gprs.iter_mut().enumerate() {
                    *g = word(i);
                }
                Ok(Registers { gprs, pc: word(32) })
            }
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Writes one register (`0..=31`, or [`crate::msg::REG_PC`]).
    ///
    /// # Errors
    ///
    /// Propagates target and protocol errors.
    pub fn write_register(&mut self, index: u8, value: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::WriteRegister { index, value })
    }

    /// Reads `len` bytes of guest memory at virtual address `addr`,
    /// chunking large requests.
    ///
    /// # Errors
    ///
    /// Propagates target errors (e.g. unmapped guest addresses).
    pub fn read_memory(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, DbgError> {
        let mut out = Vec::with_capacity(len as usize);
        let mut cursor = addr;
        let end = addr + len;
        while cursor < end {
            let n = (end - cursor).min(MEM_CHUNK);
            match self.transact(&Command::ReadMemory {
                addr: cursor,
                len: n,
            })? {
                Reply::Hex(bytes) if bytes.len() as u32 == n => out.extend_from_slice(&bytes),
                Reply::Error(code) => return Err(DbgError::Target(code)),
                other => return Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
            }
            cursor += n;
        }
        Ok(out)
    }

    /// Writes guest memory at virtual address `addr`.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn write_memory(&mut self, addr: u32, data: &[u8]) -> Result<(), DbgError> {
        for (i, chunk) in data.chunks(MEM_CHUNK as usize).enumerate() {
            self.expect_ok(&Command::WriteMemory {
                addr: addr + (i as u32) * MEM_CHUNK,
                data: chunk.to_vec(),
            })?;
        }
        Ok(())
    }

    /// Arms a software breakpoint at a word-aligned guest virtual address.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn set_breakpoint(&mut self, addr: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetBreakpoint { addr })
    }

    /// Removes a software breakpoint.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn clear_breakpoint(&mut self, addr: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::ClearBreakpoint { addr })
    }

    /// Arms a write watchpoint over `[addr, addr + len)`.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn set_watchpoint(&mut self, addr: u32, len: u32) -> Result<(), DbgError> {
        self.set_watchpoint_kind(addr, len, WatchKind::Write)
    }

    /// Arms a watchpoint of an explicit kind (write, read, or access) over
    /// `[addr, addr + len)`.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn set_watchpoint_kind(
        &mut self,
        addr: u32,
        len: u32,
        kind: WatchKind,
    ) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetWatchpoint { addr, len, kind })
    }

    /// Disarms a watchpoint.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn clear_watchpoint(&mut self, addr: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::ClearWatchpoint { addr })
    }

    /// Attaches a condition expression to an armed breakpoint; the target
    /// silently resumes when the breakpoint fires with the condition zero.
    /// An empty expression makes the breakpoint unconditional again.
    ///
    /// # Errors
    ///
    /// Propagates target errors (no such breakpoint, bad expression).
    pub fn set_break_condition(&mut self, addr: u32, expr: &str) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetBreakCondition {
            addr,
            expr: expr.to_string(),
        })
    }

    /// Attaches a condition expression to an armed watchpoint. An empty
    /// expression clears it.
    ///
    /// # Errors
    ///
    /// Propagates target errors (no such watchpoint, bad expression).
    pub fn set_watch_condition(&mut self, addr: u32, expr: &str) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetWatchCondition {
            addr,
            expr: expr.to_string(),
        })
    }

    /// Arms a logpoint at `addr`: the target records a trace event (with
    /// the condition's value) every time the instruction retires with
    /// `expr` nonzero, without stopping the guest. An empty `expr` fires
    /// unconditionally.
    ///
    /// # Errors
    ///
    /// Propagates target errors (bad expression).
    pub fn set_logpoint(&mut self, addr: u32, label: &str, expr: &str) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetLogpoint {
            addr,
            label: label.to_string(),
            expr: expr.to_string(),
        })
    }

    /// Disarms every logpoint at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn clear_logpoint(&mut self, addr: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::ClearLogpoint { addr })
    }

    /// Searches the recorded timeline for the first cycle at which `expr`
    /// evaluates nonzero and seeks there. On a hit, returns the satisfying
    /// cycle and the [`StopReason::TimeTravel`] stop at the landing point;
    /// on a miss, returns `None` with the target back in its pre-query
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates target errors (stopped guest and flight recorder
    /// required; bad expressions are rejected).
    pub fn query_first(&mut self, expr: &str) -> Result<Option<(u64, StopReason)>, DbgError> {
        match self.transact(&Command::QueryFirst {
            expr: expr.to_string(),
        })? {
            Reply::Query { found: false, .. } => Ok(None),
            Reply::Query { found: true, cycle } => {
                let stop = self.wait_stop()?;
                Ok(Some((cycle, stop)))
            }
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Executes one guest instruction and returns the resulting stop.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn step(&mut self) -> Result<StopReason, DbgError> {
        self.expect_ok(&Command::Step)?;
        self.wait_stop()
    }

    /// Resumes the guest without waiting for it to stop again.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn resume(&mut self) -> Result<(), DbgError> {
        self.expect_ok(&Command::Continue)
    }

    /// Rewinds to just before the last guest instruction executed
    /// (time-travel; requires the target's flight recorder).
    ///
    /// # Errors
    ///
    /// Propagates target errors (e.g. no flight recorder enabled).
    pub fn reverse_step(&mut self) -> Result<StopReason, DbgError> {
        self.expect_ok(&Command::ReverseStep)?;
        self.wait_stop()
    }

    /// Rewinds to the previous debugger stop on the recorded timeline.
    ///
    /// # Errors
    ///
    /// Propagates target errors (e.g. no earlier stop recorded).
    pub fn reverse_continue(&mut self) -> Result<StopReason, DbgError> {
        self.expect_ok(&Command::ReverseContinue)?;
        self.wait_stop()
    }

    /// Seeks to an absolute simulated cycle on the recorded timeline,
    /// in either direction.
    ///
    /// # Errors
    ///
    /// Propagates target errors (e.g. cycle precedes the first checkpoint).
    pub fn seek(&mut self, cycle: u64) -> Result<StopReason, DbgError> {
        self.expect_ok(&Command::Seek { cycle })?;
        self.wait_stop()
    }

    /// Resumes the guest and blocks until the next stop (breakpoint,
    /// watchpoint, fault or break-in).
    ///
    /// # Errors
    ///
    /// [`DbgError::Timeout`] if the guest never stops within the pump
    /// budget.
    pub fn continue_until_stop(&mut self) -> Result<StopReason, DbgError> {
        self.resume()?;
        self.wait_stop()
    }

    /// Resets the guest to its boot entry.
    ///
    /// # Errors
    ///
    /// Propagates target errors.
    pub fn reset(&mut self) -> Result<(), DbgError> {
        self.expect_ok(&Command::Reset)
    }

    /// Selects the core subsequent register/memory commands operate on
    /// (GDB's `Hg`). Core 0 is the boot core and the default selection.
    ///
    /// # Errors
    ///
    /// [`DbgError::Target`] with the `no such core` code when the index is
    /// out of range.
    pub fn set_thread(&mut self, core: u32) -> Result<(), DbgError> {
        self.expect_ok(&Command::SetThread { core })
    }

    /// Asks whether a core exists and has been started (GDB's `T`). A
    /// target error means "not alive", mirroring GDB remote semantics.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and timeouts only.
    pub fn thread_alive(&mut self, core: u32) -> Result<bool, DbgError> {
        match self.transact(&Command::ThreadAlive { core })? {
            Reply::Ok => Ok(true),
            Reply::Error(_) => Ok(false),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// The core the most recent stop happened on (0 until a stop carrying
    /// a core id has been seen; single-core targets never send one).
    pub fn last_stop_core(&self) -> u8 {
        self.last_core
    }

    /// Samples the monitor's live cycle accounting and exit counters.
    ///
    /// Unlike every other query this works while the guest is *running*:
    /// the stub answers from the monitor's own counters without stopping
    /// the guest, so sampling does not perturb what is being measured.
    ///
    /// # Errors
    ///
    /// Propagates target and protocol errors.
    pub fn query_stats(&mut self) -> Result<StatsSample, DbgError> {
        match self.transact(&Command::QueryStats)? {
            Reply::Stats(s) => Ok(s),
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Samples the target's live guest profiler: the `max` hottest symbols
    /// with their cycle and sample counts. Like [`Debugger::query_stats`]
    /// this works while the guest is running and does not perturb it.
    ///
    /// # Errors
    ///
    /// [`DbgError::Target`] if the target has no profiler enabled;
    /// propagates protocol errors.
    pub fn query_prof(&mut self, max: u8) -> Result<ProfSample, DbgError> {
        match self.transact(&Command::QueryProf { max })? {
            Reply::Prof(s) => Ok(s),
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Samples the target's host-time self-profiler: the sample's cycle
    /// and the wall-clock nanoseconds attributed to each monitor phase. Like
    /// [`Debugger::query_stats`] this works while the guest is running; the
    /// reply is fixed-width so its simulated cost never depends on the
    /// host-clock values it carries.
    ///
    /// # Errors
    ///
    /// [`DbgError::Target`] with the stable `metrics unavailable` code if
    /// the target has no host profiler enabled (or is an in-kernel stub
    /// with no host clock at all); propagates protocol errors.
    pub fn query_metrics(&mut self) -> Result<(u64, HostAttribution), DbgError> {
        match self.transact(&Command::QueryMetrics)? {
            Reply::Metrics { now, attribution } => Ok((now, attribution)),
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Samples the target's causal-flow tracker: the sample's cycle and
    /// the tracker's summary (per-class flow counts and end-to-end latency
    /// percentiles). Like [`Debugger::query_stats`] this
    /// works while the guest is running; every value in the reply is
    /// simulation-deterministic, so sampling cannot perturb the run.
    ///
    /// # Errors
    ///
    /// [`DbgError::Target`] with the stable `causal unavailable` code if
    /// the target has no causal tracker enabled; propagates protocol
    /// errors.
    pub fn query_flow(&mut self) -> Result<(u64, FlowSummary), DbgError> {
        match self.transact(&Command::QueryFlow)? {
            Reply::Flow { now, summary } => Ok((now, summary)),
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Asks the stopped target why it is stopped.
    ///
    /// # Errors
    ///
    /// Propagates target errors: a running target answers
    /// [`err::NOT_STOPPED`] at once.
    pub fn query_stop(&mut self) -> Result<StopReason, DbgError> {
        // The reply to `?` is itself a stop packet, so it arrives through
        // the asynchronous stop path; only a refusal comes back as an
        // error reply.
        self.link.send(&encode_packet(&Command::QueryStop.format()));
        self.next_stop(true)
    }

    /// Waits for an asynchronous stop report.
    ///
    /// # Errors
    ///
    /// [`DbgError::Timeout`] when the pump budget runs out.
    pub fn wait_stop(&mut self) -> Result<StopReason, DbgError> {
        self.next_stop(false)
    }

    /// The next stop report; with `errors`, an error reply that arrives
    /// first ends the wait as [`DbgError::Target`]. Other packets are ACKed
    /// and dropped.
    fn next_stop(&mut self, errors: bool) -> Result<StopReason, DbgError> {
        if let Some((r, core)) = self.stops.pop_front() {
            self.last_core = core;
            return Ok(r);
        }
        let mut idle = 0;
        while idle < self.pump_budget {
            let bytes = self.link.pump();
            if bytes.is_empty() {
                idle += 1;
            } else {
                idle = 0;
                self.parser.push(&bytes);
            }
            while let Some(ev) = self.parser.next_event() {
                match ev {
                    WireEvent::Packet(p) => {
                        self.link.send(&[ACK]);
                        if let Some((r, core)) = StopReason::parse_with_core(&p) {
                            self.last_core = core;
                            return Ok(r);
                        }
                        if let (true, Some(Reply::Error(code))) = (errors, Reply::parse(&p)) {
                            return Err(DbgError::Target(code));
                        }
                    }
                    // A mangled stop packet: NAK so the stub retransmits it.
                    WireEvent::Corrupt => self.link.send(&[NAK]),
                    _ => {}
                }
            }
        }
        Err(DbgError::Timeout)
    }

    fn expect_ok(&mut self, cmd: &Command) -> Result<(), DbgError> {
        match self.transact(cmd)? {
            Reply::Ok => Ok(()),
            Reply::Error(code) => Err(DbgError::Target(code)),
            other => Err(DbgError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Sends a command and waits for its (synchronous) reply. Asynchronous
    /// stop packets that arrive meanwhile are queued for
    /// [`Debugger::wait_stop`].
    ///
    /// Recovery policy, bounded in every direction so a lossy line degrades
    /// into an error instead of a wedge:
    ///
    /// - a **NAK** from the target means our command arrived mangled — the
    ///   command is resent at once (at most [`MAX_NAKS`] times);
    /// - a **corrupt** reply is NAKed so the target retransmits it;
    /// - **silence** (the command or its reply dropped outright) exhausts one
    ///   attempt's pump budget; the command is resent with a doubled budget,
    ///   up to [`MAX_ATTEMPTS`] attempts.
    ///
    /// A retry can re-execute a command whose reply was lost; every command
    /// in this protocol is either idempotent or (like `s`) reports its
    /// effect via a stop packet the session logic tolerates re-receiving.
    fn transact(&mut self, cmd: &Command) -> Result<Reply, DbgError> {
        self.drain_stale();
        let packet = encode_packet(&cmd.format());
        let mut naks = 0;
        for attempt in 0..MAX_ATTEMPTS {
            self.link.send(&packet);
            let budget = (self.pump_budget / 4).max(1) << attempt;
            let mut idle = 0;
            while idle < budget {
                let bytes = self.link.pump();
                if bytes.is_empty() {
                    idle += 1;
                } else {
                    idle = 0;
                    self.parser.push(&bytes);
                }
                while let Some(ev) = self.parser.next_event() {
                    match ev {
                        WireEvent::Packet(p) => {
                            self.link.send(&[ACK]);
                            match Reply::parse(&p) {
                                Some(Reply::Stopped(r)) => {
                                    let core =
                                        StopReason::parse_with_core(&p).map_or(0, |(_, c)| c);
                                    self.stops.push_back((r, core));
                                }
                                Some(reply) => return Ok(reply),
                                None => {
                                    return Err(DbgError::Protocol(format!(
                                        "unparseable reply {p:?}"
                                    )))
                                }
                            }
                        }
                        WireEvent::Nak => {
                            naks += 1;
                            if naks > MAX_NAKS {
                                return Err(DbgError::Protocol("too many NAKs".into()));
                            }
                            self.link.send(&packet);
                        }
                        WireEvent::Corrupt => self.link.send(&[NAK]),
                        WireEvent::Ack | WireEvent::BreakIn => {}
                    }
                }
            }
        }
        Err(DbgError::Timeout)
    }

    /// Flushes traffic left over from a previous transaction before a new
    /// command goes out. A resent command can make the target execute twice
    /// and reply twice; once the first reply is accepted the duplicate is
    /// still in flight, and without this it would be mistaken for the *next*
    /// command's reply. With no command outstanding, any complete packet
    /// here is by definition not a synchronous reply: asynchronous stop
    /// packets are queued for [`Debugger::wait_stop`], everything else is
    /// ACKed (so the target drops its retransmission cache) and discarded —
    /// the same "unexpected packet" policy GDB's remote protocol uses.
    fn drain_stale(&mut self) {
        let mut quiet = 0;
        while quiet < DRAIN_QUIET {
            let bytes = self.link.pump();
            if bytes.is_empty() {
                quiet += 1;
                continue;
            }
            quiet = 0;
            self.parser.push(&bytes);
            while let Some(ev) = self.parser.next_event() {
                match ev {
                    WireEvent::Packet(p) => {
                        self.link.send(&[ACK]);
                        if let Some((r, core)) = StopReason::parse_with_core(&p) {
                            self.stops.push_back((r, core));
                        }
                    }
                    // Stale *and* mangled: nothing worth recovering, and a
                    // NAK would only resurrect more stale traffic.
                    WireEvent::Corrupt => {}
                    WireEvent::Ack | WireEvent::Nak | WireEvent::BreakIn => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub::{service, stop, StepIntent, Stub, Target};

    /// A trivial in-process target behind a `Link`: the shared stub over
    /// 64 KiB of memory and a register file, where "running" jumps straight
    /// to the first breakpoint and a step advances the PC by one word.
    struct MockTarget {
        to_target: Vec<u8>,
        to_host: Vec<u8>,
        stub: Stub,
        mem: Vec<u8>,
        regs: [u32; 33],
        breakpoints: Vec<u32>,
        drop_first_reply: bool,
    }

    impl MockTarget {
        fn new() -> MockTarget {
            MockTarget {
                to_target: Vec::new(),
                to_host: Vec::new(),
                stub: Stub {
                    stopped: true,
                    last_stop: Some(StopReason::Halted { pc: 0 }),
                    ..Stub::default()
                },
                mem: vec![0; 65536],
                regs: [0; 33],
                breakpoints: Vec::new(),
                drop_first_reply: false,
            }
        }
    }

    impl Target for MockTarget {
        fn stub(&mut self) -> &mut Stub {
            &mut self.stub
        }
        fn recv_byte(&mut self) -> Option<u8> {
            (!self.to_target.is_empty()).then(|| self.to_target.remove(0))
        }
        fn transmit(&mut self, bytes: &[u8]) {
            self.to_host.extend_from_slice(bytes);
            if self.drop_first_reply && bytes.len() > 1 {
                // Corrupt the first reply once, to exercise NAK/resend.
                self.drop_first_reply = false;
                *self.to_host.last_mut().unwrap() ^= 0xff;
            }
        }
        fn cores(&self) -> u32 {
            1
        }
        fn pc(&self) -> u32 {
            self.regs[32]
        }
        fn register(&self, _core: u32, index: u8) -> u32 {
            self.regs[index as usize]
        }
        fn set_register(&mut self, _core: u32, index: u8, value: u32) {
            self.regs[index as usize] = value;
        }
        fn read_byte(&mut self, _core: u32, addr: u32) -> Option<u8> {
            self.mem.get(addr as usize).copied()
        }
        fn write_byte(&mut self, _core: u32, addr: u32, byte: u8) -> bool {
            self.mem.get_mut(addr as usize).map(|b| *b = byte).is_some()
        }
        fn has_breakpoint(&self, addr: u32) -> bool {
            self.breakpoints.contains(&addr)
        }
        fn set_breakpoint(&mut self, _core: u32, addr: u32) -> Result<(), u8> {
            self.breakpoints.push(addr);
            Ok(())
        }
        fn clear_breakpoint(&mut self, addr: u32) -> bool {
            let before = self.breakpoints.len();
            self.breakpoints.retain(|&a| a != addr);
            self.breakpoints.len() < before
        }
        fn park(&mut self, _reason: &StopReason) -> u8 {
            0
        }
        fn unpark(&mut self, _intent: Option<StepIntent>) {}
    }

    impl Link for MockTarget {
        fn send(&mut self, bytes: &[u8]) {
            self.to_target.extend_from_slice(bytes);
        }
        fn pump(&mut self) -> Vec<u8> {
            service(self);
            if !self.stub.stopped {
                if self.stub.step_intent == Some(StepIntent::Step) {
                    self.regs[32] += 4;
                    stop(self, StopReason::Step { pc: self.regs[32] });
                } else if let Some(&bp) = self.breakpoints.first() {
                    self.regs[32] = bp;
                    stop(self, StopReason::Breakpoint { pc: bp });
                }
            }
            std::mem::take(&mut self.to_host)
        }
    }

    #[test]
    fn err_names_cover_all_stub_codes() {
        // One table: every code has a name, and codes and names are unique.
        let mut codes: Vec<u8> = err::NAMES.iter().map(|&(c, _)| c).collect();
        let mut names: Vec<&str> = err::NAMES.iter().map(|&(_, n)| n).collect();
        codes.sort_unstable();
        codes.dedup();
        names.sort_unstable();
        names.dedup();
        assert_eq!(codes.len(), err::NAMES.len(), "duplicate code");
        assert_eq!(names.len(), err::NAMES.len(), "duplicate name");
        for &(code, name) in err::NAMES {
            assert_eq!(err_name(code), Some(name));
        }
        assert_eq!(err_name(err::UNSUPPORTED), Some("unsupported command"));
        assert_eq!(err_name(0), None);
    }

    #[test]
    fn register_and_memory_session() {
        let mut dbg = Debugger::new(MockTarget::new());
        dbg.write_register(5, 0xdead_beef).unwrap();
        dbg.write_register(crate::msg::REG_PC, 0x100).unwrap();
        let regs = dbg.read_registers().unwrap();
        assert_eq!(regs.gpr(5), 0xdead_beef);
        assert_eq!(regs.pc, 0x100);

        dbg.write_memory(0x1000, b"hello stub").unwrap();
        assert_eq!(dbg.read_memory(0x1000, 10).unwrap(), b"hello stub");
        // Out-of-range memory reports a target error.
        assert_eq!(dbg.read_memory(0xffff_0000, 4), Err(DbgError::Target(3)));
    }

    #[test]
    fn large_transfers_chunk() {
        let mut dbg = Debugger::new(MockTarget::new());
        let data: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        dbg.write_memory(0x2000, &data).unwrap();
        assert_eq!(dbg.read_memory(0x2000, 2000).unwrap(), data);
    }

    #[test]
    fn breakpoint_continue_and_step() {
        let mut dbg = Debugger::new(MockTarget::new());
        dbg.set_breakpoint(0x400).unwrap();
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: 0x400 });
        let stop = dbg.step().unwrap();
        assert_eq!(stop, StopReason::Step { pc: 0x404 });
        dbg.clear_breakpoint(0x400).unwrap();
        assert_eq!(dbg.query_stop().unwrap().pc(), 0x404);
    }

    #[test]
    fn halt_break_in() {
        let mut dbg = Debugger::new(MockTarget::new());
        dbg.write_register(crate::msg::REG_PC, 0x42_0000 & !3)
            .unwrap();
        let stop = dbg.halt().unwrap();
        assert!(matches!(stop, StopReason::Halted { .. }));
    }

    #[test]
    fn corrupt_reply_triggers_nak_and_retransmit() {
        let mut target = MockTarget::new();
        target.drop_first_reply = true;
        let mut dbg = Debugger::new(target);
        // The first reply arrives corrupted; the debugger NAKs it and the
        // target retransmits the cached clean packet. The session recovers
        // completely — no timeout, no wedge.
        assert_eq!(dbg.read_memory(0, 4).unwrap(), vec![0; 4]);
    }

    /// A link that drops the first host→target send outright (a lost
    /// command): the debugger's attempt/backoff loop must resend it.
    struct DroppyLink {
        inner: MockTarget,
        drops_left: usize,
    }

    impl Link for DroppyLink {
        fn send(&mut self, bytes: &[u8]) {
            if self.drops_left > 0 && bytes.len() > 1 {
                self.drops_left -= 1;
                return;
            }
            self.inner.send(bytes);
        }
        fn pump(&mut self) -> Vec<u8> {
            self.inner.pump()
        }
    }

    #[test]
    fn dropped_command_is_retried_not_wedged() {
        let mut dbg = Debugger::new(DroppyLink {
            inner: MockTarget::new(),
            drops_left: 2,
        });
        dbg.set_pump_budget(64); // keep the silent waits cheap
        assert_eq!(dbg.read_memory(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn dead_line_times_out_cleanly() {
        struct DeadLink;
        impl Link for DeadLink {
            fn send(&mut self, _bytes: &[u8]) {}
            fn pump(&mut self) -> Vec<u8> {
                Vec::new()
            }
        }
        let mut dbg = Debugger::new(DeadLink);
        dbg.set_pump_budget(32);
        assert_eq!(dbg.read_memory(0, 4), Err(DbgError::Timeout));
        assert!(matches!(dbg.halt(), Err(DbgError::Timeout)));
    }

    #[test]
    fn unknown_command_is_target_error() {
        let mut dbg = Debugger::new(MockTarget::new());
        assert_eq!(dbg.set_watchpoint(0x100, 4), Err(DbgError::Target(9)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The survivability contract for the link layer: a full debug
        /// session driven through a deterministic lossy channel either
        /// completes or fails with a clean, typed error — it never wedges
        /// (all retry loops are bounded) and never panics, for any fault
        /// seed. Drops, duplications and truncations cannot corrupt a
        /// result silently (they all break the additive checksum), so when
        /// a run had no bit flips, every `Ok` must also be *correct*. Flips
        /// are excluded from that claim: two flips in one packet can cancel
        /// in the 8-bit checksum — the protocol's real (GDB-inherited)
        /// integrity bound.
        #[test]
        fn lossy_session_completes_or_times_out(seed in proptest::prelude::any::<u64>()) {
            use hx_fault::LinkFaultConfig;
            let cfg = LinkFaultConfig { flip_bp: if seed.is_multiple_of(2) { 0 } else { 40 }, ..LinkFaultConfig::lossy(seed) };
            let link = crate::lossy::LossyLink::new(MockTarget::new(), cfg);
            let mut dbg = Debugger::new(link);
            dbg.set_pump_budget(64); // silence is cheap in-process; keep retries fast
            let payload: Vec<u8> = (0..64u32).map(|i| (i * 37) as u8).collect();

            let reg_read = match dbg.write_register(5, 0xdead_beef) {
                Ok(()) => dbg.read_registers().ok(),
                Err(_) => None,
            };
            let mem_read = match dbg.write_memory(0x1000, &payload) {
                Ok(()) => dbg.read_memory(0x1000, payload.len() as u32).ok(),
                Err(_) => None,
            };
            let _ = dbg.set_breakpoint(0x400);
            let _ = dbg.continue_until_stop();
            let _ = dbg.step();
            let _ = dbg.halt();
            // Reaching here at all is the main property: bounded loops, no
            // panic. With no flips in the run, results must be exact.
            let link = dbg.link_ref();
            if link.to_target_stats().flipped == 0 && link.to_host_stats().flipped == 0 {
                if let Some(regs) = reg_read {
                    proptest::prop_assert_eq!(regs.gpr(5), 0xdead_beef);
                }
                if let Some(back) = mem_read {
                    proptest::prop_assert_eq!(back, payload);
                }
            }
        }
    }
}
