//! Time travel: the flight recorder's checkpoints and the one loop that
//! deterministically re-executes a recorded run.
//!
//! The simulation is a discrete-event system whose only nondeterministic
//! inputs are host UART bytes and injected NIC frames. A sealed
//! [`hx_obs::Journal`] captures both with the simulated cycle at which they
//! arrived, so re-injecting them at the same cycles on a freshly booted
//! platform reproduces the original run exactly — same trace events, same
//! exit histograms, same guest memory, byte for byte.
//!
//! Timing contract: an input recorded at cycle `T` was applied when the
//! original run's clock read exactly `T`, which is necessarily a step
//! boundary of that run. The replayed run produces the same boundaries, so
//! injecting each input at the first boundary where `now >= T` re-applies
//! it at the same point in the instruction stream.
//!
//! Two users share the loop: [`ReplayDriver`] replays a whole journal from
//! boot, and the lightweight monitor's time-travel commands restore a
//! [`FlightRecorder`] checkpoint and replay from there.
//!
//! [`ReplayDriver`] works against `&mut dyn Platform`, so the same journal
//! can be replayed on a *different* platform (e.g. recorded under the
//! lightweight monitor, replayed on the hosted-VMM baseline) and the two
//! runs' device-event streams diffed with [`hx_obs::audit`] to find the
//! first behavioural divergence between the systems.

use crate::platform::LvmmSnapshot;
use hx_machine::platform::PlatformStep;
use hx_machine::Platform;
use hx_obs::{InputRecord, Journal, JournalInput};

/// Injects every input of `inputs` (in cycle order) whose cycle the
/// platform's clock has reached; returns the inputs still pending.
fn inject_due<'a, P: Platform + ?Sized>(p: &mut P, inputs: &'a [InputRecord]) -> &'a [InputRecord] {
    let now = p.machine().now();
    let due = inputs.iter().take_while(|r| r.at <= now).count();
    for rec in &inputs[..due] {
        match &rec.input {
            JournalInput::UartRx(bytes) => p.machine_mut().uart_input(bytes),
            JournalInput::NicRx(frame) => p.inject_rx_frame(frame),
        }
    }
    &inputs[due..]
}

/// The one re-execution loop: until `done` holds (asked first, at every
/// boundary) or the machine gets stuck, injects the inputs that are due and
/// takes one precise step. Returns the inputs not yet injected.
///
/// The precise (unbatched) step matters: a batching `step` could fly past
/// a journaled injection cycle or the caller's end cycle, and those
/// overshoots are exactly the divergences replay must not introduce.
pub(crate) fn reexecute<'a, P: Platform + ?Sized>(
    p: &mut P,
    mut inputs: &'a [InputRecord],
    mut done: impl FnMut(&mut P) -> bool,
) -> &'a [InputRecord] {
    while !done(p) {
        inputs = inject_due(p, inputs);
        if p.step_precise() == PlatformStep::Stuck {
            break;
        }
        // The original host drained stub output as it ran; an undrained
        // queue would only grow without bound here.
        let _ = p.machine_mut().uart_output();
    }
    inputs
}

/// Re-executes a recorded journal against a platform.
///
/// The platform must be freshly constructed in the same configuration the
/// recording started from (same guest image, RAM size, trace settings);
/// the driver injects inputs, it does not rewind state.
#[derive(Debug)]
pub struct ReplayDriver<'a> {
    journal: &'a Journal,
}

impl<'a> ReplayDriver<'a> {
    /// Prepares to replay `journal` from its beginning.
    pub fn new(journal: &'a Journal) -> ReplayDriver<'a> {
        ReplayDriver { journal }
    }

    /// Runs `platform` to the journal's end cycle, injecting each recorded
    /// input at its recorded cycle — including those recorded at the end
    /// cycle itself. Returns the platform's final cycle (equal to the
    /// journal's end cycle when replay reached it; less if the machine got
    /// stuck early, which indicates divergence).
    pub fn run(&mut self, platform: &mut dyn Platform) -> u64 {
        let end = self.journal.end;
        let rest = reexecute(platform, &self.journal.inputs, |p| p.machine().now() >= end);
        inject_due(platform, rest);
        platform.machine().now()
    }
}

/// Time-travel state of a lightweight-monitor platform: full-state
/// checkpoints on a fixed cycle cadence, the restore points for seeks, plus
/// the bookkeeping that resolves `reverse-step` and `reverse-continue`
/// targets.
#[derive(Debug)]
pub struct FlightRecorder {
    every: u64,
    next_at: u64,
    /// `(cycle, state)` restore points, oldest first.
    checkpoints: Vec<(u64, LvmmSnapshot)>,
    /// Cycle at which the most recent guest instruction *began* executing —
    /// the `reverse-step` landing target.
    pub(crate) last_instr_at: u64,
    /// Cycles of past debugger stops (breakpoints, watchpoints, faults,
    /// halts), oldest first — the `reverse-continue` targets.
    pub(crate) stop_history: Vec<u64>,
    /// True while a seek is re-executing history; time-travel commands
    /// arriving in that window are rejected instead of recursing.
    pub(crate) replaying: bool,
}

impl FlightRecorder {
    /// Default cadence: one full snapshot every 2 M cycles (≈13 ms of
    /// simulated time at the 150 MHz machine clock).
    pub const DEFAULT_EVERY: u64 = 2_000_000;

    /// A recorder checkpointing every `every` cycles (clamped to ≥ 1), with
    /// `initial` recorded at `now`.
    pub(crate) fn new(every: u64, now: u64, initial: LvmmSnapshot) -> FlightRecorder {
        let mut fr = FlightRecorder {
            every: every.max(1),
            next_at: 0,
            checkpoints: Vec::new(),
            last_instr_at: now,
            stop_history: Vec::new(),
            replaying: false,
        };
        fr.record(now, initial);
        fr
    }

    /// Is a checkpoint due at cycle `now`?
    pub(crate) fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// Records a checkpoint taken at cycle `at` and schedules the next one.
    pub(crate) fn record(&mut self, at: u64, state: LvmmSnapshot) {
        self.checkpoints.push((at, state));
        self.next_at = at.saturating_add(self.every);
    }

    /// Number of checkpoints held.
    pub(crate) fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Cycle of the oldest checkpoint.
    pub(crate) fn first_at(&self) -> Option<u64> {
        self.checkpoints.first().map(|c| c.0)
    }

    /// Rewinds to the latest checkpoint at or before `cycle` and returns a
    /// copy of its state. Time travel invalidates the discarded future:
    /// later checkpoints and stops are dropped, and the cadence re-arms so
    /// the new timeline re-snapshots from the surviving tip. `None` (and
    /// nothing changed) when the recording starts after `cycle`.
    pub(crate) fn rewind(&mut self, cycle: u64) -> Option<LvmmSnapshot> {
        let keep = self.checkpoints.iter().take_while(|c| c.0 <= cycle).count();
        let (at, state) = self.checkpoints.get(keep.checked_sub(1)?)?;
        let (at, state) = (*at, state.clone());
        self.checkpoints.truncate(keep);
        self.next_at = at.saturating_add(self.every);
        self.stop_history.retain(|&c| c <= at);
        Some(state)
    }

    /// Appends a debugger stop at `now` as a `reverse-continue` target
    /// (deduplicating an immediate re-stop at the same cycle).
    pub(crate) fn note_stop(&mut self, now: u64) {
        if self.stop_history.last() != Some(&now) {
            self.stop_history.push(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LvmmPlatform, UartLink};
    use hx_machine::{Machine, MachineConfig};
    use rdbg::{Debugger, StopReason};

    fn boot() -> LvmmPlatform {
        boot_every(1_000_000)
    }

    fn boot_every(every: u64) -> LvmmPlatform {
        let program = hx_asm::assemble(
            "        .org 0x1000
             start:  addi s0, s0, 1
                     j    start
            ",
        )
        .expect("guest assembles");
        let mut machine = Machine::new(MachineConfig {
            ram_size: 4 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let mut vmm = LvmmPlatform::new(machine, 0x1000);
        vmm.enable_flight_recorder(every);
        vmm
    }

    type Dbg = Debugger<UartLink<LvmmPlatform>>;

    /// A debugger on a guest recorded for 1 M cycles at a 100 k-cycle
    /// cadence, halted, then parked for another 100 k cycles.
    fn parked_session() -> Dbg {
        let mut dbg = Debugger::new(UartLink::new(boot_every(100_000)));
        dbg.link_mut().platform.run_for(1_000_000);
        dbg.halt().expect("halt");
        dbg.link_mut().platform.run_for(100_000);
        dbg
    }

    /// The landing cycle of a time-travel stop.
    fn landing(stop: StopReason) -> u64 {
        match stop {
            StopReason::TimeTravel { cycle, .. } => cycle,
            other => panic!("expected a time-travel stop, got {other:?}"),
        }
    }

    /// After a rewind the link's pump runs out only the rest of its slice:
    /// the clock ends at most one slice past the landing, plus what the
    /// stub's command service and the pump's last step overshoot (each a
    /// few hundred cycles of stub work), never back up at the cycle the
    /// command was sent from.
    fn assert_parked_near(dbg: &Dbg, landed: u64) {
        const OVERSHOOT: u64 = 1_000;
        let now = dbg.link_ref().platform.machine().now();
        let bound = landed + dbg.link_ref().slice + OVERSHOOT;
        assert!(
            (landed..=bound).contains(&now),
            "clock {now} outside [{landed}, {bound}]"
        );
    }

    #[test]
    fn time_travel_over_the_link_resumes_from_the_landing_cycle() {
        let mut dbg = parked_session();
        let landed = landing(dbg.reverse_step().expect("reverse-step"));
        assert_parked_near(&dbg, landed);

        let landed = landing(dbg.seek(300_000).expect("seek"));
        assert!(landed >= 300_000);
        assert_parked_near(&dbg, landed);

        let (found, stop) = dbg.query_first("r18 >= 100").expect("Qq").expect("found");
        assert_eq!(landing(stop), found);
        assert_parked_near(&dbg, found);
    }

    #[test]
    fn backward_seek_keeps_only_the_checkpoints_before_its_target() {
        let mut dbg = parked_session();
        let target = 350_000;
        let fr = dbg.link_ref().platform.flight.as_deref().expect("recorder");
        let before = fr.checkpoints.iter().filter(|c| c.0 <= target).count();
        assert!(fr.len() > before + 2, "the seek discards checkpoints");

        landing(dbg.seek(target).expect("seek"));
        let after = dbg.link_ref().platform.checkpoint_count();
        assert!(
            (before..=before + 1).contains(&after),
            "{after} checkpoints after the seek, {before} at or before its target"
        );
    }

    #[test]
    fn replay_reproduces_final_machine_state() {
        let mut rec = boot();
        rec.run_for(40_000);
        rec.machine_mut().uart_input(&[0x55, 0xaa]); // journaled garbage
        rec.run_for(40_000);
        let end = rec.machine().now();
        let mut journal = rec.machine().obs.journal().cloned().expect("journaling");
        journal.seal(end);

        let mut rep = boot();
        let reached = ReplayDriver::new(&journal).run(&mut rep);
        assert_eq!(reached, end);
        assert_eq!(
            rep.machine().cpu.reg(hx_cpu::Reg::R8),
            rec.machine().cpu.reg(hx_cpu::Reg::R8)
        );
        assert_eq!(rep.machine().mem.as_bytes(), rec.machine().mem.as_bytes());
    }

    #[test]
    fn inputs_at_the_end_cycle_are_replayed() {
        let mut rec = boot();
        rec.run_for(40_000);
        rec.machine_mut().uart_input(&[0x55]);
        let end = rec.machine().now();
        let mut journal = rec.machine().obs.journal().cloned().expect("journaling");
        journal.seal(end);

        let mut rep = boot();
        assert_eq!(ReplayDriver::new(&journal).run(&mut rep), end);
        assert_eq!(rep.machine().uart.rx_pending(), 1, "the last byte landed");
    }

    #[test]
    fn rewind_drops_the_future_and_rearms_the_cadence() {
        let vmm = boot();
        let snap = || vmm.snapshot();
        let mut fr = FlightRecorder::new(1000, 0, snap());
        fr.record(1000, snap());
        fr.record(2000, snap());
        fr.note_stop(1500);
        fr.note_stop(1500);
        fr.note_stop(2500);
        assert_eq!(fr.stop_history, vec![1500, 2500]);
        assert!(fr.rewind(1999).is_some());
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.stop_history, Vec::<u64>::new());
        assert!(!fr.due(1999));
        assert!(fr.due(2000));
        assert_eq!(fr.first_at(), Some(0));

        let mut late = FlightRecorder::new(0, 500, snap());
        assert!(late.rewind(499).is_none(), "nothing recorded that early");
        assert_eq!(late.len(), 1);
        assert!(late.due(501), "cadence clamped to one cycle");

        let never = FlightRecorder::new(u64::MAX, 500, snap());
        assert!(
            !never.due(u64::MAX - 1),
            "an unreachable cadence never fires"
        );
    }
}
