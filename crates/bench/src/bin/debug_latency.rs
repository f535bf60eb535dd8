//! **Table C**: debug-command latency while the guest streams at full
//! tilt — the paper's motivating scenario ("monitoring the OS status …
//! even while the OS is executing high-throughput I/O operations").
//!
//! Connects the host debugger to the monitor's stub over the simulated
//! UART while the HiTactix guest streams at 100 Mbit/s, and measures the
//! simulated round-trip time of representative commands — including the
//! `qStats` live metrics sample, which reads the monitor's cycle
//! accounting without stopping the guest. The guest keeps streaming
//! throughout.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin debug_latency
//!         [--trace out.json] [--metrics]`

use hitactix::GuestStats;
use hx_farm::{guest_machine, GuestSpec};
use hx_fault::{FaultKind, FaultPlan};
use hx_machine::Platform;
use hx_obs::{Align, ExitCause, Report};
use lvmm::{LvmmPlatform, UartLink};
use lwvmm_bench::{chrome_trace, exit_report, flags, or_exit};
use rdbg::{Debugger, StatsSample};

fn main() {
    let flags = flags(&["--trace"], &["--metrics", "--csv"]);
    let trace_path = flags.get("--trace");
    let metrics = flags.has("--metrics");
    let csv = flags.has("--csv");
    let (mut machine, entry, _) = or_exit(guest_machine(&GuestSpec::default()));
    let clock = machine.config().clock_hz;
    // Arm a deterministic wild-write campaign whose attempts are all
    // blocked by the protection model (applied limit 0): the guest is
    // untouched and keeps streaming, but the remote `qStats` sample below
    // must surface the attempt counters.
    machine.enable_fault_injection(
        FaultPlan::new(11)
            .only(FaultKind::WildWriteApp)
            .period(clock / 100)
            .wild(1 << 20, 0),
    );
    if trace_path.is_some() {
        machine.obs.enable_tracing();
    }
    let mut vmm = LvmmPlatform::new(machine, entry);
    vmm.run_for(clock / 10); // let the stream reach steady state

    let frames_before = vmm.machine().nic.counters().tx_frames;
    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });

    let us = |cycles: u64| format!("{:.1}", cycles as f64 * 1e6 / clock as f64);
    let mut table = Report::new("Table C — stub command latency under a 100 Mbit/s stream (lvmm)")
        .column("command", Align::Left)
        .column("cycles", Align::Right)
        .column("simulated µs", Align::Right);

    let mut live_sample: Option<StatsSample> = None;
    {
        let mut timed = |label: &str, f: &mut dyn FnMut(&mut Dbg)| {
            let t0 = dbg_now(&dbg);
            f(&mut dbg);
            let dt = dbg_now(&dbg) - t0;
            table.row([label.to_string(), dt.to_string(), us(dt)]);
        };

        timed("read all registers", &mut |d| {
            d.read_registers().expect("regs");
        });
        timed("read 64 B guest memory", &mut |d| {
            d.read_memory(hitactix::kernel::layout::STATS, 64)
                .expect("mem");
        });
        timed("read 1 KiB guest memory", &mut |d| {
            d.read_memory(hitactix::kernel::layout::BUF_BASE, 1024)
                .expect("mem");
        });
        timed("write 64 B guest memory", &mut |d| {
            d.write_memory(0x0000_0700, &[0xa5; 64]).expect("mem");
        });
        let bf = hitactix::kernel::layout::ENTRY; // harmless code address
        timed("set + clear breakpoint", &mut |d| {
            d.set_breakpoint(bf).expect("set");
            d.clear_breakpoint(bf).expect("clear");
        });
        timed("qStats live metrics sample", &mut |d| {
            live_sample = Some(d.query_stats().expect("stats"));
        });
    }
    println!("{}", table.to_text());

    // The live sample arrived while the guest kept running.
    let s = live_sample.expect("qStats replied");
    let total = (s.guest + s.monitor + s.host + s.idle).max(1);
    println!(
        "qStats @ cycle {}: guest {:.1}%  monitor {:.1}%  host {:.1}%  idle {:.1}%",
        s.now,
        s.guest as f64 / total as f64 * 100.0,
        s.monitor as f64 / total as f64 * 100.0,
        s.host as f64 / total as f64 * 100.0,
        s.idle as f64 / total as f64 * 100.0,
    );
    let mut exits = Report::new("qStats exit counts (sampled without halting)")
        .column("exit cause", Align::Left)
        .column("count", Align::Right);
    for (cause, count) in ExitCause::ALL.into_iter().zip(&s.exits) {
        if *count > 0 {
            exits.row([cause.label().to_string(), count.to_string()]);
        }
    }
    println!("\n{}", exits.to_text());

    // Fault-injection counters travel in the same live sample.
    assert!(
        s.fault_blocked > 0,
        "the blocked wild-write campaign must be visible in qStats"
    );
    let mut faults = Report::new("qStats fault-injection counters (sampled without halting)")
        .column("fault class", Align::Left)
        .column("attempted", Align::Right);
    for (kind, count) in FaultKind::ALL.into_iter().zip(&s.faults) {
        faults.row([kind.label().to_string(), count.to_string()]);
    }
    faults.row([
        "blocked (protection)".to_string(),
        s.fault_blocked.to_string(),
    ]);
    println!("\n{}", faults.to_text());
    if csv {
        println!("{}", faults.to_csv());
    }

    // The stream must have kept flowing during all of the above — run a
    // little longer and confirm the transmit counter is still climbing.
    let link = dbg.into_link();
    let mut platform = link.platform;
    platform.run_for(clock / 20);
    let frames_after = platform.machine().nic.counters().tx_frames;
    let stats = GuestStats::read(platform.machine()).expect("guest stats");
    assert_eq!(stats.fault_cause, 0);
    assert!(
        !platform.guest_stopped(),
        "no command above stops the guest"
    );
    println!(
        "frames transmitted during + just after the session: {} (stream alive)",
        frames_after - frames_before
    );
    let ss = platform.stub_stats();
    println!(
        "stub: {} commands, {} bytes in, {} bytes out",
        ss.commands, ss.bytes_in, ss.bytes_out
    );

    if metrics {
        println!(
            "\n{}",
            exit_report("Exit histograms (host-side view)", &platform).to_text()
        );
    }
    if let Some(path) = trace_path {
        lwvmm_bench::write_output(path, chrome_trace(&[("lvmm", &platform)]));
        println!("\nwrote {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
}

type Dbg = Debugger<UartLink<LvmmPlatform>>;

fn dbg_now(dbg: &Dbg) -> u64 {
    // Safe read-only peek through the link.
    dbg.link_ref().platform.machine().now()
}
