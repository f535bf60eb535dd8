//! `perfbench` — the lwvmm benchmark: end-to-end metrics of the debugging
//! monitor plus a traced run that attributes them to layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig31-saturate|timetravel|farm --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs three legs (see `README.md` next to this crate):
//! the saturation leg (Fig 3.1 at 950 Mbit/s on real-hw, lvmm and hosted),
//! the time-travel leg (seeks and stub commands on a recorded lvmm guest)
//! and the farm leg (TCP debug sessions against an in-process farm). The
//! workload's own leg leads: it gets half of `--seconds` and repeated
//! set-ups, whose median is `setup_s`; the other two legs get a quarter
//! each, so every end-to-end metric is reported on every workload.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the host profiler and the
//! benchmark's own spans are on and the metrics are the per-layer ones.

mod farm;
mod metrics;
mod sat;
mod spans;
mod stats;
mod timetravel;

use metrics::Out;
use spans::Spans;
use std::process::ExitCode;
use std::time::Duration;

/// The legs of every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    Saturate,
    TimeTravel,
    Farm,
}

/// The workloads, as named in `BENCHMARK.json`, and the leg each leads;
/// the legs a workload does not lead follow in this order.
pub const WORKLOADS: [(&str, Leg); 3] = [
    ("fig31-saturate", Leg::Saturate),
    ("timetravel", Leg::TimeTravel),
    ("farm", Leg::Farm),
];

/// What every leg receives: the seed, whether this is the traced run, and
/// the span recorder.
pub struct Ctx {
    pub seed: u64,
    pub traced: bool,
    pub spans: Spans,
}

/// How much of the run a leg gets.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measured host time for the leg's operations.
    pub measure: Duration,
    /// Whether this leg leads the workload (repeats its set-up and reports
    /// `setup_s`).
    pub lead: bool,
}

struct Args {
    workload: &'static str,
    lead: Leg,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{val}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|(name, _)| *name == val)
                        .ok_or_else(|| format!("unknown workload `{val}`"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let (workload, lead) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        lead,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        traced: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig31-saturate|timetravel|farm \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        traced: args.traced,
        spans: Spans::new(args.traced),
    };
    let mut out = Out::default();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (host threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let total = Duration::from_secs(args.seconds);
    let mut legs = vec![args.lead];
    legs.extend(
        WORKLOADS
            .into_iter()
            .map(|(_, leg)| leg)
            .filter(|&l| l != args.lead),
    );
    for leg in legs {
        let lead = leg == args.lead;
        let budget = Budget {
            measure: if lead { total / 2 } else { total / 4 },
            lead,
        };
        println!("\n== leg {:?} ({:?} measured)", leg, budget.measure);
        let setups = match leg {
            Leg::Saturate => sat::run(&mut ctx, budget, &mut out),
            Leg::TimeTravel => timetravel::run(&mut ctx, budget, &mut out),
            Leg::Farm => farm::run(&mut ctx, budget, &mut out),
        };
        if lead {
            out.setup(&setups);
        }
        println!(
            "  resident {:.1} MiB, peak so far {:.1} MiB",
            stats::rss_mib(),
            stats::peak_rss_mib()
        );
    }
    out.e2e("peak_rss_mb", "MiB", stats::peak_rss_mib());
    if args.traced {
        out.print_spans(&ctx.spans);
        let path = format!(".bench_build/perfbench-spans-{}.jsonl", args.workload);
        match std::fs::create_dir_all(".bench_build")
            .and_then(|()| std::fs::write(&path, ctx.spans.to_jsonl()))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("spans not written ({path}: {e})"),
        }
    }
    println!("{}", out.finish(args.traced));
    ExitCode::SUCCESS
}
