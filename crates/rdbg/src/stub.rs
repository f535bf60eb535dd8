//! The target half of the protocol: one debug stub for every residency.
//!
//! [`service`] is the packet loop (ACK/NAK, the retransmission cache,
//! break-in), [`Stub`] the protocol state, and [`dispatch`] the one command
//! dispatcher, with [`stop`] and [`resume`] as its stop bookkeeping. Where
//! the stub lives is a [`Target`] impl: the monitor-resident stub (`lvmm`)
//! and the OS-embedded baseline (`hitactix::embedded`) are the two, and
//! each deliberate difference between them — where breakpoints live,
//! whether the stub is alive, the address view, the cycle costs — is one
//! method of that trait. Optional verbs default to the answers of a stub
//! without the feature.

use crate::debugger::err;
use crate::msg::{Command, ProfSample, Reply, StopReason, WatchKind, MEM_CHUNK, REG_PC};
use crate::wire::{encode_packet, PacketParser, WireEvent, ACK, NAK};
use hx_obs::Recorder;

/// What the stub armed single-step for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepIntent {
    /// Host asked for one instruction: stop and report after it.
    Step,
    /// Stepping off a breakpoint on the way to `continue`.
    Resume,
}

/// Stub statistics, for the debug-latency experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StubStats {
    /// Commands executed.
    pub commands: u64,
    /// Bytes received from the host.
    pub bytes_in: u64,
    /// Bytes sent to the host.
    pub bytes_out: u64,
    /// Break-in requests honoured.
    pub break_ins: u64,
    /// Packets retransmitted after a host NAK.
    pub retransmits: u64,
}

/// The stub's protocol state.
#[derive(Debug, Clone, Default)]
pub struct Stub {
    /// Wire-protocol parser over the line's byte stream.
    pub parser: PacketParser,
    /// Is the guest currently stopped under debugger control?
    pub stopped: bool,
    /// The most recent stop reason (valid while `stopped`).
    pub last_stop: Option<StopReason>,
    /// Why single-step is armed, if it is.
    pub step_intent: Option<StepIntent>,
    /// The last packet sent, kept until the host ACKs it.
    pub last_tx: Option<Vec<u8>>,
    /// Retransmissions of `last_tx` so far (at most [`RESEND_LIMIT`]).
    pub resends: u8,
    /// The core (GDB "thread") `Hg` selected, always a valid index:
    /// register and memory commands answer against its view.
    pub sel_core: u32,
    /// Statistics.
    pub stats: StubStats,
}

/// Most retransmissions of one packet before the stub gives up on it, so a
/// hard-broken line cannot loop forever.
pub const RESEND_LIMIT: u8 = 8;

/// Declares [`Target`]'s optional verbs, each answering
/// [`err::UNSUPPORTED`] unless the residency serves it.
macro_rules! optional_verbs {
    ($($(#[$doc:meta])* fn $verb:ident($($arg:ident: $ty:ty),*);)*) => {
        $($(#[$doc])*
        fn $verb(&mut self $(, $arg: $ty)*) -> Reply {
            $(let _ = $arg;)*
            Reply::Error(err::UNSUPPORTED)
        })*
    };
}

/// One residency of the stub: the machine it debugs and what its work
/// costs. Required methods are what every stub needs; the optional verbs
/// answer [`err::UNSUPPORTED`] by default.
pub trait Target: Sized {
    /// The stub's protocol state.
    fn stub(&mut self) -> &mut Stub;

    /// Takes one byte the host sent, if any.
    fn recv_byte(&mut self) -> Option<u8>;

    /// Puts bytes on the line toward the host.
    fn transmit(&mut self, bytes: &[u8]);

    /// Runs one service pass over received bytes. A residency wraps
    /// `pass` with its liveness check (a dead stub skips it and the bytes
    /// are lost) and its host-time attribution.
    fn serve(&mut self, pass: impl FnOnce(&mut Self)) {
        pass(self);
    }

    /// Charges the stub's cost of moving `n` packet bytes in either
    /// direction. ACK/NAK bytes are free.
    fn charge_bytes(&mut self, _n: usize) {}

    /// Runs one stub exit: a break-in (`command` is `None`) or one command
    /// packet (`Some` of its first byte), whose work is `run`.
    fn stub_exit(&mut self, _command: Option<u8>, run: impl FnOnce(&mut Self)) {
        run(self);
    }

    /// Number of cores `Hg` may select.
    fn cores(&self) -> u32;

    /// Whether core `core` (below [`Target::cores`]) has been started.
    fn core_started(&self, _core: u32) -> bool {
        true
    }

    /// The active core's PC.
    fn pc(&self) -> u32;

    /// Register `index` of `core` (`0..32` GPRs, [`REG_PC`] the PC).
    fn register(&self, core: u32, index: u8) -> u32;

    /// Writes register `index` (at most [`REG_PC`]) of `core`.
    fn set_register(&mut self, core: u32, index: u8, value: u32);

    /// Reads one byte at `addr` in `core`'s debugger view of memory.
    fn read_byte(&mut self, core: u32, addr: u32) -> Option<u8>;

    /// Writes one byte at `addr` in `core`'s debugger view; `false` when
    /// the address is unreachable.
    fn write_byte(&mut self, core: u32, addr: u32, byte: u8) -> bool;

    /// Is a breakpoint armed at `addr`?
    fn has_breakpoint(&self, addr: u32) -> bool;

    /// Arms a breakpoint at the word-aligned, not yet armed `addr`,
    /// translated through `core`'s view; the error is the reply code.
    fn set_breakpoint(&mut self, core: u32, addr: u32) -> Result<(), u8>;

    /// Disarms the breakpoint at `addr`; `false` when none is armed.
    fn clear_breakpoint(&mut self, addr: u32) -> bool;

    /// Parks the guest for `reason` and disarms single-step. Returns the
    /// core the stop report names.
    fn park(&mut self, reason: &StopReason) -> u8;

    /// Lets the guest run again, single-stepping first for `intent`
    /// (already recorded in [`Stub::step_intent`]).
    fn unpark(&mut self, intent: Option<StepIntent>);

    optional_verbs! {
        /// `Z2`/`Z3`/`Z4`: arms a watchpoint.
        fn set_watchpoint(addr: u32, len: u32, kind: WatchKind);
        /// `z2`: disarms a watchpoint.
        fn clear_watchpoint(addr: u32);
        /// `Qb`: sets or (empty `expr`) clears a breakpoint's condition.
        fn set_break_condition(addr: u32, expr: &str);
        /// `Qw`: sets or (empty `expr`) clears a watchpoint's condition.
        fn set_watch_condition(addr: u32, expr: &str);
        /// `Ql`: arms a logpoint.
        fn set_logpoint(addr: u32, label: &str, expr: &str);
        /// `ql`: disarms the logpoints at `addr`.
        fn clear_logpoint(addr: u32);
        /// `k`: resets the guest and reports it halted ([`stop`]).
        fn reset();
        /// `bs` (guest stopped): rewinds one instruction.
        fn reverse_step();
        /// `bc` (guest stopped): rewinds to the previous stop.
        fn reverse_continue();
        /// `bg` (guest stopped): seeks to an absolute cycle.
        fn seek(cycle: u64);
        /// `Qq` (guest stopped): seeks to the first cycle where `expr` holds.
        fn query_first(expr: &str);
        /// `qStats`: a live accounting sample.
        fn query_stats();
    }

    /// The current cycle and the recorder the live `qProf`, `qMetrics` and
    /// `qFlow` samples read; `None` for a stub that sees no recorder, which
    /// answers `qProf` as unsupported and the others with their codes.
    fn recorder(&self) -> Option<(u64, &Recorder)> {
        None
    }
}

/// Drains the bytes the host sent and serves every complete event in them.
pub fn service<T: Target>(t: &mut T) {
    let mut bytes = Vec::new();
    while let Some(b) = t.recv_byte() {
        bytes.push(b);
    }
    if bytes.is_empty() {
        return;
    }
    t.serve(|t| {
        t.stub().stats.bytes_in += bytes.len() as u64;
        t.charge_bytes(bytes.len());
        t.stub().parser.push(&bytes);
        while let Some(event) = t.stub().parser.next_event() {
            match event {
                WireEvent::BreakIn => {
                    t.stub().stats.break_ins += 1;
                    t.stub_exit(None, |t| {
                        let pc = t.pc();
                        stop(t, StopReason::Halted { pc });
                    });
                }
                WireEvent::Packet(p) => {
                    t.transmit(&[ACK]);
                    let code = p.as_bytes().first().copied().unwrap_or(0);
                    t.stub_exit(Some(code), |t| {
                        t.stub().stats.commands += 1;
                        let reply = match Command::parse(&p) {
                            Some(cmd) => dispatch(t, cmd),
                            None => Reply::Error(err::PARSE),
                        };
                        send_packet(t, &reply.format());
                    });
                }
                WireEvent::Corrupt => t.transmit(&[NAK]),
                // Delivery confirmed: drop the retransmission cache.
                WireEvent::Ack => t.stub().last_tx = None,
                WireEvent::Nak => resend_packet(t),
            }
        }
    });
}

fn send_packet<T: Target>(t: &mut T, payload: &str) {
    t.stub().resends = 0;
    transmit_kept(t, encode_packet(payload));
}

/// Retransmits the unacknowledged packet after a host NAK, at most
/// [`RESEND_LIMIT`] times.
fn resend_packet<T: Target>(t: &mut T) {
    let s = t.stub();
    if let Some(bytes) = s.last_tx.take().filter(|_| s.resends < RESEND_LIMIT) {
        s.resends += 1;
        s.stats.retransmits += 1;
        transmit_kept(t, bytes);
    }
}

/// Sends a packet and keeps it until the host ACKs it, so a NAK can be
/// answered by retransmission (a lossy line must not wedge the session).
fn transmit_kept<T: Target>(t: &mut T, bytes: Vec<u8>) {
    t.stub().stats.bytes_out += bytes.len() as u64;
    t.charge_bytes(bytes.len());
    t.transmit(&bytes);
    t.stub().last_tx = Some(bytes);
}

/// Parks the guest and reports `reason` to the host.
pub fn stop<T: Target>(t: &mut T, reason: StopReason) {
    let core = t.park(&reason);
    let s = t.stub();
    s.stopped = true;
    s.last_stop = Some(reason);
    s.step_intent = None;
    // `;c:` appears only for nonzero cores, so single-core stop packets
    // are byte-identical to the pre-SMP wire format.
    send_packet(t, &reason.format_on(core));
}

/// Resumes the guest, arming a single step first for `intent`.
pub fn resume<T: Target>(t: &mut T, intent: Option<StepIntent>) {
    let s = t.stub();
    s.step_intent = intent;
    s.stopped = false;
    t.unpark(intent);
}

/// Executes one command against the target and returns its reply.
pub fn dispatch<T: Target>(t: &mut T, cmd: Command) -> Reply {
    let stopped = t.stub().stopped;
    let sel = t.stub().sel_core;
    match cmd {
        Command::Halt => {
            let pc = t.pc();
            stop(t, StopReason::Halted { pc });
            Reply::Ok
        }
        Command::QueryStop => match t.stub().last_stop {
            Some(r) if stopped => Reply::Stopped(r),
            _ => Reply::Error(err::NOT_STOPPED),
        },
        Command::SetThread { core } if core < t.cores() => {
            t.stub().sel_core = core;
            Reply::Ok
        }
        Command::ThreadAlive { core } if core < t.cores() && t.core_started(core) => Reply::Ok,
        Command::SetThread { .. } | Command::ThreadAlive { .. } => Reply::Error(err::CORE),
        Command::ReadRegisters => {
            let mut bytes = Vec::with_capacity(4 * (REG_PC as usize + 1));
            for index in 0..=REG_PC {
                bytes.extend_from_slice(&t.register(sel, index).to_le_bytes());
            }
            Reply::Hex(bytes)
        }
        Command::WriteRegister { index, value } if index <= REG_PC => {
            t.set_register(sel, index, value);
            Reply::Ok
        }
        Command::WriteRegister { .. } => Reply::Error(err::REG),
        Command::ReadMemory { len, .. } if len > MEM_CHUNK => Reply::Error(err::PARSE),
        Command::ReadMemory { addr, len } => {
            let mut out = Vec::with_capacity(len as usize);
            for i in 0..len {
                match t.read_byte(sel, addr.wrapping_add(i)) {
                    Some(b) => out.push(b),
                    None => return Reply::Error(err::MEM),
                }
            }
            Reply::Hex(out)
        }
        Command::WriteMemory { addr, data } => {
            let mut bytes = data.iter().enumerate();
            if bytes.all(|(i, &b)| t.write_byte(sel, addr.wrapping_add(i as u32), b)) {
                Reply::Ok
            } else {
                Reply::Error(err::MEM)
            }
        }
        // A misaligned breakpoint could never meet a fetch.
        Command::SetBreakpoint { addr } if addr & 3 != 0 => Reply::Error(err::PARSE),
        Command::SetBreakpoint { addr } if t.has_breakpoint(addr) => Reply::Error(err::BP),
        Command::SetBreakpoint { addr } => match t.set_breakpoint(sel, addr) {
            Ok(()) => Reply::Ok,
            Err(code) => Reply::Error(code),
        },
        Command::ClearBreakpoint { addr } => {
            if t.clear_breakpoint(addr) {
                Reply::Ok
            } else {
                Reply::Error(err::BP)
            }
        }
        Command::Step
        | Command::Continue
        | Command::ReverseStep
        | Command::ReverseContinue
        | Command::Seek { .. }
        | Command::QueryFirst { .. }
            if !stopped =>
        {
            Reply::Error(err::NOT_STOPPED)
        }
        Command::Step => {
            resume(t, Some(StepIntent::Step));
            Reply::Ok
        }
        Command::Continue => {
            // Step off a breakpoint we are parked on, then run.
            let on_bp = t.has_breakpoint(t.pc());
            resume(t, on_bp.then_some(StepIntent::Resume));
            Reply::Ok
        }
        Command::Reset => t.reset(),
        Command::SetWatchpoint { addr, len, kind } => t.set_watchpoint(addr, len, kind),
        Command::ClearWatchpoint { addr } => t.clear_watchpoint(addr),
        Command::SetBreakCondition { addr, expr } => t.set_break_condition(addr, &expr),
        Command::SetWatchCondition { addr, expr } => t.set_watch_condition(addr, &expr),
        Command::SetLogpoint { addr, label, expr } => t.set_logpoint(addr, &label, &expr),
        Command::ClearLogpoint { addr } => t.clear_logpoint(addr),
        Command::ReverseStep => t.reverse_step(),
        Command::ReverseContinue => t.reverse_continue(),
        Command::Seek { cycle } => t.seek(cycle),
        Command::QueryFirst { expr } => t.query_first(&expr),
        Command::QueryStats => t.query_stats(),
        // The live samples are answered without stopping the guest.
        Command::QueryProf { max } => match t.recorder().map(|(now, o)| (now, o.prof())) {
            None => Reply::Error(err::UNSUPPORTED),
            Some((_, None)) => Reply::Error(err::PROFILER),
            Some((now, Some(prof))) => Reply::Prof(ProfSample {
                now,
                interval: prof.interval(),
                total_cycles: prof.total_cycles(),
                total_samples: prof.total_samples(),
                top: prof
                    .top(max as usize)
                    .into_iter()
                    .map(|(name, cycles, samples)| (name.to_string(), cycles, samples))
                    .collect(),
            }),
        },
        // Fixed-width on the wire, so the reply's simulated byte cost never
        // depends on the host-clock values it carries.
        Command::QueryMetrics => match t.recorder().map(|(now, o)| (now, o.host_attribution())) {
            Some((now, Some(attribution))) => Reply::Metrics { now, attribution },
            _ => Reply::Error(err::METRICS),
        },
        Command::QueryFlow => match t.recorder().map(|(now, o)| (now, o.causal())) {
            Some((now, Some(c))) => Reply::Flow {
                now,
                summary: c.summary(),
            },
            _ => Reply::Error(err::CAUSAL),
        },
    }
}
