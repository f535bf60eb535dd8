//! One command script against both residencies of the debug stub — the
//! monitor-resident one (`lvmm`) and the OS-embedded baseline — on the same
//! healthy guest. They share one dispatcher, so every reply must have the
//! same kind and error code, except for the named residency differences,
//! which are asserted here too:
//!
//! * the embedded stub's unsupported verbs answer `E09`;
//! * `m` over an armed breakpoint shows the patched `ebreak` on the embedded
//!   stub only (the monitor keeps breakpoints in its own hook table);
//! * `Hg1` selects core 1 on the monitor, while the embedded stub debugs only
//!   the CPU it runs on.

use hitactix::apps;
use hitactix::embedded::EmbeddedStubPlatform;
use hx_cpu::isa::EBREAK_WORD;
use hx_machine::{Machine, MachineConfig, Platform};
use lvmm::{LvmmPlatform, UartLink};
use rdbg::{encode_packet, err, Command, Link, PacketParser, Reply, StopReason, WireEvent, ACK};

/// A raw protocol client: one command and its reply, with the stop packets
/// that arrive meanwhile kept for [`Raw::wait_stop`].
struct Raw<P> {
    link: UartLink<P>,
    parser: PacketParser,
    stops: Vec<StopReason>,
}

impl<P: Platform> Raw<P> {
    /// The next packet the stub sends (ACKed).
    fn packet(&mut self) -> String {
        for _ in 0..2_000 {
            while let Some(ev) = self.parser.next_event() {
                if let WireEvent::Packet(p) = ev {
                    self.link.send(&[ACK]);
                    return p;
                }
            }
            let out = self.link.pump();
            self.parser.push(&out);
        }
        panic!("the stub went silent");
    }

    fn send(&mut self, cmd: &Command) -> Reply {
        self.link.send(&encode_packet(&cmd.format()));
        loop {
            match Reply::parse(&self.packet()).expect("well-formed reply") {
                Reply::Stopped(r) if *cmd != Command::QueryStop => self.stops.push(r),
                reply => return reply,
            }
        }
    }

    fn wait_stop(&mut self) -> StopReason {
        if self.stops.is_empty() {
            let p = self.packet();
            return StopReason::parse(&p).expect("a stop packet");
        }
        self.stops.remove(0)
    }
}

/// What the script compares: the reply's kind, and its code for errors.
fn kind(r: &Reply) -> String {
    match r {
        Reply::Ok => "OK".into(),
        Reply::Error(code) => format!("E{code:02x}"),
        Reply::Stopped(_) => "T".into(),
        Reply::Stats(_) => "S".into(),
        Reply::Prof(_) => "P".into(),
        Reply::Metrics { .. } => "M".into(),
        Reply::Flow { .. } => "F".into(),
        Reply::Query { .. } => "Q".into(),
        Reply::Hex(_) => "hex".into(),
    }
}

/// Runs the script (`None` waits for the next stop); each entry is the
/// step's label and outcome.
fn run<P: Platform>(platform: P, script: &[Option<Command>]) -> Vec<(String, Reply)> {
    let mut raw = Raw {
        link: UartLink::new(platform),
        parser: PacketParser::new(),
        stops: Vec::new(),
    };
    // Let the guest boot and settle into its loop.
    raw.link.platform.run_for(20_000);
    script
        .iter()
        .map(|step| match step {
            Some(cmd) => (cmd.format(), raw.send(cmd)),
            None => ("stop".into(), Reply::Stopped(raw.wait_stop())),
        })
        .collect()
}

fn machine(program: &hx_asm::Program) -> Machine {
    let mut m = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        num_cores: 2,
        ..MachineConfig::default()
    });
    m.load_program(program);
    m
}

/// Every verb the two stubs share, with a breakpoint armed at `bp`, on a
/// running or a stopped guest.
fn probes(bp: u32, counter: u32, message: u32, start: u32) -> Vec<Command> {
    vec![
        Command::QueryStop,
        Command::ReadRegisters,
        Command::WriteRegister {
            index: 20,
            value: 0x5a,
        },
        Command::ReadMemory {
            addr: counter,
            len: 4,
        },
        Command::WriteMemory {
            addr: message + 8,
            data: b"HI".to_vec(),
        },
        // Duplicate, misaligned and missing breakpoints.
        Command::SetBreakpoint { addr: bp },
        Command::SetBreakpoint { addr: bp + 2 },
        Command::ClearBreakpoint { addr: start },
        Command::ReadMemory { addr: bp, len: 4 },
        Command::SetThread { core: 1 },
        Command::SetThread { core: 0 },
        Command::QueryStats,
        Command::QueryProf { max: 4 },
        Command::QueryMetrics,
        Command::QueryFlow,
        Command::QueryFirst {
            expr: "pc == 0".into(),
        },
        Command::ReverseStep,
    ]
}

#[test]
fn both_stubs_answer_one_script_alike_except_the_named_differences() {
    let program = apps::counter_guest();
    let sym = |s| program.symbols.get(s).unwrap();
    let (bump, counter, message, start) =
        (sym("bump"), sym("counter"), sym("message"), sym("start"));

    // Running: a breakpoint on data the guest never executes.
    let mut script = vec![Some(Command::SetBreakpoint { addr: message })];
    script.extend(
        probes(message, counter, message, start)
            .into_iter()
            .map(Some),
    );
    script.extend([
        Some(Command::Step),
        Some(Command::Continue),
        Some(Command::ClearBreakpoint { addr: message }),
        Some(Command::SetBreakpoint { addr: bump }),
        None,
    ]);
    // Stopped on the breakpoint at `bump`.
    script.extend(probes(bump, counter, message, start).into_iter().map(Some));
    script.extend([
        Some(Command::Step),
        None,
        Some(Command::ClearBreakpoint { addr: bump }),
        Some(Command::Continue),
        Some(Command::QueryStop),
    ]);

    let m = machine(&program);
    let original = |addr: u32| Reply::Hex(m.mem.word(addr).to_le_bytes().to_vec());
    let lvmm = run(LvmmPlatform::new(machine(&program), start), &script);
    let embedded = run(EmbeddedStubPlatform::new(machine(&program)), &script);
    assert_eq!(lvmm.len(), embedded.len());

    let patched = Reply::Hex(EBREAK_WORD.to_le_bytes().to_vec());
    let mut named = 0;
    for ((label, l), (_, e)) in lvmm.iter().zip(&embedded) {
        let unsupported = ["qStats", "qProf", "Qq", "bs"]
            .iter()
            .any(|verb| label.starts_with(verb));
        if unsupported && *e == Reply::Error(err::UNSUPPORTED) {
            // The monitor serves the verb (an error from it names a missing
            // recorder or profiler, never the verb).
            assert_ne!(l, e, "{label}: the monitor serves this verb");
            named += 1;
        } else if label == "Hg1" {
            assert_eq!(*l, Reply::Ok, "{label}: the monitor has a core 1");
            assert_eq!(*e, Reply::Error(err::CORE), "{label}: one CPU only");
            named += 1;
        } else if let Some(&addr) = [bump, message]
            .iter()
            .find(|a| *label == format!("m{a:x},4"))
        {
            assert_eq!(*l, original(addr), "{label}: the monitor leaves RAM alone");
            assert_eq!(*e, patched, "{label}: the embedded stub patched RAM");
            named += 1;
        } else {
            assert_eq!(kind(l), kind(e), "{label}: lvmm {l:?}, embedded {e:?}");
            if let (Reply::Stopped(a), Reply::Stopped(b)) = (l, e) {
                assert_eq!(a, b, "{label}: both stop at the same place");
            }
        }
    }
    // Running: qStats, qProf, Hg1 and the breakpoint read (`Qq`/`bs` need a
    // stopped guest on both, `E04`). Stopped: those four plus `Qq`/`bs`.
    assert_eq!(named, 4 + 6, "lvmm {lvmm:?}\nembedded {embedded:?}");
    let stops: Vec<_> = lvmm
        .into_iter()
        .filter_map(|(label, r)| (label == "stop").then_some(r))
        .collect();
    assert_eq!(
        stops,
        [
            Reply::Stopped(StopReason::Breakpoint { pc: bump }),
            Reply::Stopped(StopReason::Step { pc: bump + 4 }),
        ]
    );
}
