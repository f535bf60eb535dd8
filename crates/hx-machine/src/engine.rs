//! The shared execution engine behind all platforms.
//!
//! Every platform — raw hardware, the lightweight monitor, the hosted full
//! monitor — drives the same [`Machine`] and does the same bookkeeping
//! around it: charge consumed cycles into a [`TimeStats`] bucket and the
//! trace span track, poll the event queue, detect a stuck machine, and hand
//! traps and interrupts to platform-specific policy. This module extracts
//! that engine so the platforms implement only the narrow [`ExitPolicy`]
//! trait: *what to do at each guest exit*.
//!
//! The engine also owns the host-performance fast path: when a platform
//! allows it, [`ExitPolicy::guest_step`] executes instructions through
//! [`Machine::run_batch`], amortising the per-instruction event-queue and
//! interrupt polls over up to [`Machine::BATCH_INSTRS`] instructions.
//! Batching is simulation-invisible (see [`crate::machine::Batch`]); it is
//! disabled by [`Platform::step_precise`](crate::Platform::step_precise)
//! callers (journal replay) and by platforms whose recorder hooks need
//! per-instruction boundaries (the flight recorder and the profiler).
//! Breakpoints and logpoints do not: a batch ends before a hooked slot
//! ([`Machine::hook`]) and the engine steps that slot precisely.

use crate::machine::{Machine, MachineStep};
use crate::platform::{track_of, PlatformStep, TimeBucket, TimeStats};
use hx_cpu::trap::Trap;
use hx_obs::{EventKind, ExitCause, HostPhase};

/// Livelock guard for shadow-fill paths: re-raising the identical fault
/// after a fill means the fill is not taking effect — a monitor bug or
/// unrecoverable guest state. Emulated-MMIO faults repeat at the same PC by
/// design (the mapping is never installed) and must not be fed to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressGuard {
    last: (u32, u32, u32),
    repeats: u32,
}

impl ProgressGuard {
    /// Consecutive identical faults tolerated before declaring livelock.
    const LIMIT: u32 = 8;

    /// Creates a guard with no fault history.
    pub fn new() -> ProgressGuard {
        ProgressGuard::default()
    }

    /// Feeds one fault; returns `true` when the same fault has repeated
    /// past the tolerance and the platform should stop retrying.
    pub fn no_progress(&mut self, trap: &Trap) -> bool {
        let sig = (trap.epc, trap.tval, trap.cause.code());
        if sig == self.last {
            self.repeats += 1;
            self.repeats > Self::LIMIT
        } else {
            self.last = sig;
            self.repeats = 0;
            false
        }
    }

    /// Forgets the repeat count (after the platform resolved the livelock
    /// some other way, e.g. by reflecting the fault to the guest).
    pub fn reset(&mut self) {
        self.repeats = 0;
    }
}

/// What a platform does at each guest exit. Everything else — the run loop,
/// instruction batching, cycle charging, stuck detection — is provided.
///
/// This trait is deliberately *not* object-safe-oriented like
/// [`Platform`](crate::Platform); it is the implementation substrate behind
/// each platform's `Platform::step`.
pub trait ExitPolicy {
    /// Shared access to the machine.
    fn mach(&self) -> &Machine;

    /// Exclusive access to the machine.
    fn mach_mut(&mut self) -> &mut Machine;

    /// Exclusive access to the platform's time accounting.
    fn time_stats_mut(&mut self) -> &mut TimeStats;

    /// Handles a trap raised by a guest instruction. The instruction's own
    /// cycles are already charged to [`TimeBucket::Guest`].
    fn handle_trap(&mut self, trap: Trap);

    /// Handles a hardware interrupt that won arbitration.
    fn handle_interrupt(&mut self, irq: u8, vector: u8);

    /// Called with the cycle at which a guest instruction began, before it
    /// is charged — the flight recorder's `reverse-step` anchor. Only
    /// invoked on the precise (unbatched) path.
    fn on_instr_boundary(&mut self, at: u64) {
        let _ = at;
    }

    /// Attributes cycles to both the flat stats and the trace span track.
    fn charge(&mut self, bucket: TimeBucket, cycles: u64) {
        self.time_stats_mut().charge(bucket, cycles);
        let track = track_of(bucket);
        self.mach_mut().obs.charge(track, cycles);
    }

    /// Advances simulated time by `cycles` of platform work (monitor or
    /// modeled host) and charges them to `bucket`.
    fn consume(&mut self, bucket: TimeBucket, cycles: u64) {
        self.mach_mut().consume(cycles);
        self.charge(bucket, cycles);
    }

    /// Records one guest→monitor exit (histogram + event ring), and closes
    /// the exit's host-time window: every exit path calls this exactly once
    /// at the end of handling, so it is the natural place to charge the
    /// handler's wall-clock to `Exit(cause)`.
    fn record_exit(&mut self, cause: ExitCause, cycles: u64) {
        let now = self.mach().now();
        let ev = EventKind::VmExit { cause, cycles };
        self.mach_mut().obs.emit(now, ev);
        self.mach().obs.host_mark(HostPhase::Exit(cause));
    }

    /// One unit of progress in the running state: execute guest
    /// instructions (batched when `batch` is true), charge their cycles,
    /// and dispatch whatever ended them to the policy.
    fn guest_step(&mut self, batch: bool) -> PlatformStep {
        let m = self.mach();
        if !batch || m.hook(m.cpu.pc()).is_some() {
            let at = self.mach().now();
            // The PC *before* the step is the executed instruction's
            // address — the profiler's attribution anchor.
            let pc = self.mach().cpu.pc();
            return match self.mach_mut().step() {
                MachineStep::Executed { cycles } => {
                    self.on_instr_boundary(at);
                    self.mach_mut().obs.instr_boundary(pc);
                    self.mach_mut().note_logpoints(pc);
                    self.charge(TimeBucket::Guest, cycles);
                    PlatformStep::Running
                }
                MachineStep::Idle { cycles } => {
                    // Guest-execution host time accrues until the guest
                    // leaves the running state; close the window here.
                    self.mach().obs.host_mark(HostPhase::GuestExec);
                    self.charge(TimeBucket::Idle, cycles);
                    PlatformStep::Running
                }
                MachineStep::Interrupt { irq, vector } => {
                    self.mach().obs.host_mark(HostPhase::GuestExec);
                    self.handle_interrupt(irq, vector);
                    PlatformStep::Running
                }
                MachineStep::Trapped { trap, cycles } => {
                    self.on_instr_boundary(at);
                    self.mach_mut().obs.instr_boundary(pc);
                    self.charge(TimeBucket::Guest, cycles);
                    self.mach().obs.host_mark(HostPhase::GuestExec);
                    self.handle_trap(trap);
                    PlatformStep::Running
                }
                MachineStep::Stuck => PlatformStep::Stuck,
            };
        }
        let b = self.mach_mut().run_batch();
        if b.executed > 0 {
            self.charge(TimeBucket::Guest, b.executed);
        }
        match b.end {
            // Exit-free batches take no mark at all: guest-execution host
            // time is charged retroactively at the next phase boundary, so
            // the hot loop costs zero `Instant` reads.
            None => PlatformStep::Running,
            Some(MachineStep::Idle { cycles }) => {
                self.mach().obs.host_mark(HostPhase::GuestExec);
                self.charge(TimeBucket::Idle, cycles);
                PlatformStep::Running
            }
            Some(MachineStep::Interrupt { irq, vector }) => {
                self.mach().obs.host_mark(HostPhase::GuestExec);
                self.handle_interrupt(irq, vector);
                PlatformStep::Running
            }
            Some(MachineStep::Trapped { trap, cycles }) => {
                self.charge(TimeBucket::Guest, cycles);
                self.mach().obs.host_mark(HostPhase::GuestExec);
                self.handle_trap(trap);
                PlatformStep::Running
            }
            Some(MachineStep::Stuck) => PlatformStep::Stuck,
            Some(MachineStep::Executed { .. }) => unreachable!("Batch::end is never Executed"),
        }
    }

    /// One unit of progress while the guest is *virtually* idle (its `wfi`
    /// was emulated): take interrupts when the line is up, otherwise skip
    /// straight to the next device event. [`PlatformStep::Stuck`] when no
    /// event can ever wake the guest — identical on every platform.
    fn guest_idle_step(&mut self) -> PlatformStep {
        if self.mach().pic.line_asserted() {
            // INTA without executing guest instructions.
            match self.mach_mut().step() {
                MachineStep::Interrupt { irq, vector } => self.handle_interrupt(irq, vector),
                MachineStep::Stuck => return PlatformStep::Stuck,
                // Events fired at this boundary may clear the line again.
                other => {
                    if let MachineStep::Executed { .. } | MachineStep::Trapped { .. } = other {
                        unreachable!("guest must not execute while virtually idle: {other:?}");
                    }
                }
            }
            return PlatformStep::Running;
        }
        match self.mach_mut().skip_to_next_event() {
            Some(cycles) => {
                self.charge(TimeBucket::Idle, cycles);
                self.mach().obs.host_mark(HostPhase::Idle);
                PlatformStep::Running
            }
            None => PlatformStep::Stuck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_cpu::trap::Cause;

    #[test]
    fn progress_guard_trips_only_on_repeats() {
        let mut g = ProgressGuard::new();
        let t1 = Trap::new(Cause::StorePageFault, 0x100, 0x2000);
        let t2 = Trap::new(Cause::StorePageFault, 0x104, 0x2000);
        for _ in 0..=ProgressGuard::LIMIT {
            assert!(!g.no_progress(&t1));
        }
        assert!(g.no_progress(&t1), "repeat past the limit trips");
        assert!(!g.no_progress(&t2), "different fault resets");
        g.reset();
        assert!(!g.no_progress(&t2), "reset forgets the count");
    }
}
