//! Metric collection, the printed report, and the final JSON line.

use crate::spans::Spans;
use crate::stats::{self, Summary};
use hx_obs::{HostAttribution, HostPhase};
use std::collections::BTreeMap;

/// Platform labels used in metric names (`<p>`).
pub const PLATFORMS: [&str; 3] = ["raw", "lvmm", "hosted"];

/// Device models whose host time the machine layer attributes.
pub const DEVICES: [&str; 5] = ["nic", "pic", "pit", "hdc", "uart"];

/// Exit causes each monitor takes on these workloads (`ExitCause` labels).
pub const LVMM_CAUSES: [&str; 6] = [
    "privileged",
    "mmio",
    "shadow",
    "irq-reflect",
    "irq-inject",
    "debug",
];
pub const HOSTED_CAUSES: [&str; 6] = [
    "privileged",
    "mmio",
    "shadow",
    "irq-reflect",
    "irq-inject",
    "host-relay",
];

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mips.raw", "Minstr/s"),
    ("sim_mips.lvmm", "Minstr/s"),
    ("sim_mips.hosted", "Minstr/s"),
    ("record_mips", "Minstr/s"),
    ("seek_ms.p50", "ms"),
    ("seek_ms.tail", "ms"),
    ("stub_rtt_us.p50", "us"),
    ("stub_rtt_us.tail", "us"),
    ("fleet_mips", "Minstr/s"),
    ("session_ms.p50", "ms"),
    ("session_ms.tail", "ms"),
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for p in PLATFORMS {
        add(format!("hx-cpu.instret.{p}"), "count");
        add(format!("hx-cpu.exec_ns.{p}"), "ns/sim_ms");
        add(format!("hx-cpu.ns_per_instr.{p}"), "ns");
        add(format!("hx-cpu.decode_hit_ratio.{p}"), "ratio");
        add(format!("hx-cpu.decode_invalidations.{p}"), "count");
    }
    add("hx-cpu.mips_nocache".into(), "Minstr/s");
    for p in PLATFORMS {
        for d in DEVICES {
            add(format!("hx-machine.device_ns.{d}.{p}"), "ns/sim_ms");
        }
        add(format!("hx-machine.idle_ns.{p}"), "ns/sim_ms");
    }
    for c in LVMM_CAUSES {
        add(format!("lvmm.exits.{c}"), "count");
        add(format!("lvmm.exit_ns.{c}"), "ns");
    }
    add("lvmm.shadow_fills".into(), "count");
    for c in HOSTED_CAUSES {
        add(format!("hosted-vmm.exits.{c}"), "count");
        add(format!("hosted-vmm.exit_ns.{c}"), "ns");
    }
    for (n, u) in [
        ("hx-obs.checkpoints", "count"),
        ("hx-obs.checkpoint_ms", "ms"),
        ("hx-obs.journal_ns", "ns"),
        ("hx-obs.journal_inputs", "count"),
        ("hx-obs.seek_fixed_ms", "ms"),
        ("hx-obs.replay_ns_per_cycle", "ns"),
        ("hx-obs.mips_causal", "Minstr/s"),
        ("hx-obs.hostprof_overhead_pct", "%"),
        ("hx-obs.hostprof_coverage_pct", "%"),
        ("rdbg.cmds", "count"),
        ("rdbg.bytes_per_cmd", "bytes"),
        ("rdbg.debug_link_ns", "ns"),
        ("hx-farm.connect_ms", "ms"),
        ("hx-farm.halt_ms", "ms"),
        ("hx-farm.cmd_ms", "ms"),
        ("hx-farm.resume_ms", "ms"),
        ("hx-farm.fleet_efficiency", "ratio"),
        ("hx-farm.rss_mb_per_guest", "MiB"),
        ("hx-farm.refused_sessions", "count"),
    ] {
        add(n.into(), u);
    }
    v
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Out {
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    coverage: Vec<f64>,
}

/// Host nanoseconds the profiler charged to `phase` between two snapshots,
/// divided by `per`.
pub fn phase_per(a0: &HostAttribution, a1: &HostAttribution, phase: HostPhase, per: f64) -> f64 {
    let i = phase.index();
    a1.phase_ns[i].saturating_sub(a0.phase_ns[i]) as f64 / per
}

impl Out {
    pub fn e2e(&mut self, name: &str, unit: &str, value: f64) {
        println!("  {name:<18} {value:>14.4} {unit}");
        self.e2e.insert(name.to_string(), value);
    }

    /// Reports `<name>.p50` and `<name>.tail` of a timing series, stating
    /// which percentile the tail is and how many samples it rests on.
    pub fn e2e_series(&mut self, name: &str, unit: &str, samples: &[f64]) {
        match stats::summarize(samples) {
            Some(Summary {
                n,
                p50,
                tail_p,
                tail,
            }) => {
                println!("  {name}: n={n} p50={p50:.4} {unit}, tail=p{tail_p:.0}={tail:.4} {unit}");
                self.e2e.insert(format!("{name}.p50"), p50);
                self.e2e.insert(format!("{name}.tail"), tail);
            }
            None => self.check(
                &format!(
                    "{name}: {} samples, the tail needs {}",
                    samples.len(),
                    stats::MIN_TAIL_SAMPLES
                ),
                false,
            ),
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Host-profiler coverage (percent of wall time attributed) of some
    /// profiled machines; the run reports the lowest.
    pub fn coverage(&mut self, pct: &[f64]) {
        self.coverage.extend_from_slice(pct);
    }

    /// `setup_s` is the median of the lead leg's repeated set-ups.
    pub fn setup(&mut self, samples: &[f64]) {
        let shown: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
        println!("  setup samples (s): [{}]", shown.join(", "));
        self.e2e("setup_s", "s", stats::median(samples).unwrap_or(0.0));
    }

    /// Records an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            println!("  CHECK FAILED: {what}");
        }
        self.checks.push((what.to_string(), ok));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn print_spans(&self, spans: &Spans) {
        println!("\n== spans (benchmark side, around calls into each layer)");
        println!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for t in spans.totals() {
            println!(
                "  {:<28} {:>8} {:>12.3} {:>12.3}",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    /// Prints the per-layer table (traced run) and returns the final JSON
    /// line. Missing or non-finite metrics fail the run's checks.
    pub fn finish(mut self, traced: bool) -> String {
        if let Some(min) = self.coverage.iter().copied().reduce(f64::min) {
            self.layer("hx-obs.hostprof_coverage_pct", min);
        }
        let wanted: Vec<(String, &str)> = if traced {
            layer_metrics()
        } else {
            E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let source = if traced { &self.layers } else { &self.e2e };
        let mut body = Vec::new();
        let mut problems = Vec::new();
        if traced {
            println!("\n== per-layer metrics");
        }
        for (name, unit) in &wanted {
            if !stats::valid_metric_name(name) {
                problems.push(format!("{name} is not a valid metric name"));
            }
            let value = match source.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("{name} is {v}"));
                    0.0
                }
                None => {
                    problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            if traced {
                println!("  {name:<34} {value:>16.4} {unit}");
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
        for p in problems {
            self.check(&p, false);
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        println!(
            "\nchecks: {} passed, {} failed; operations: {} attempted, {} failed",
            self.checks.iter().filter(|c| c.1).count(),
            self.checks.iter().filter(|c| !c.1).count(),
            self.attempted,
            self.failed
        );
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn benchmark_names(key: &str) -> Vec<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let section = &doc[start..];
        let end = section.find(']').expect("section closes");
        section[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json_and_the_name_rule() {
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(e2e, benchmark_names("end_to_end"));
        let layers: Vec<String> = layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(layers, benchmark_names("per_layer"));
        let mut all = e2e.clone();
        all.extend(layers);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "every name is used once");
        for n in &all {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        assert_eq!(
            benchmark_names("workloads"),
            crate::WORKLOADS.map(|(name, _)| name.to_string())
        );
    }

    #[test]
    fn final_line_carries_every_metric_and_flags_gaps() {
        let mut out = Out::default();
        for (n, u) in E2E {
            out.e2e(n, u, 1.5);
        }
        out.ops(10, 0);
        let line = out.finish(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), E2E.len());
        assert!(line.contains("\"sim_mips.raw\": {\"value\": 1.5, \"unit\": \"Minstr/s\"}"));

        let mut partial = Out::default();
        partial.e2e("setup_s", "s", f64::NAN);
        let line = partial.finish(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert!(!line.contains("NaN"));
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.125), "0.125");
    }
}
