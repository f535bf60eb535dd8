//! Metrics snapshot with Prometheus-style text exposition.
//!
//! Three instrument kinds, all keyed by a full metric name that may embed
//! Prometheus labels (e.g. `lwvmm_exits_total{cause="mmio"}`):
//!
//! - **counters** — `u64` totals that are already cumulative in the
//!   simulation and merely copied out;
//! - **gauges** — `f64` point values;
//! - **histograms** — cycle (or any `u64`) distributions in the log2-bucket
//!   [`CycleHist`].
//!
//! [`MetricsSnapshot`] is plain data: a platform fills one with its
//! cumulative totals (`Platform::publish_metrics`), so filling the same
//! snapshot again overwrites every series with the newer totals, and
//! [`MetricsSnapshot::prometheus`] renders it as sorted,
//! deterministic-ordered Prometheus text.
//!
//! Like the host profiler, a snapshot only ever *receives* values — it is
//! never read back into simulation state, so publishing metrics cannot
//! perturb a run.

use crate::hist::CycleHist;
use std::collections::BTreeMap;

/// Every published series, by full name. Maps are ordered, so iteration
/// and exposition are deterministic given the same values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, CycleHist>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Prometheus text-exposition rendering: one `# TYPE` line per metric
    /// family, families and series in sorted order, histograms as
    /// cumulative `_bucket{le=...}` / `_sum` / `_count` series. Output
    /// order is a pure function of the metric names, so reruns differ only
    /// in values.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = "";
        for (name, v) in &self.counters {
            type_line(&mut out, &mut last, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        let mut last = "";
        for (name, v) in &self.gauges {
            type_line(&mut out, &mut last, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        let mut last = "";
        for (name, h) in &self.hists {
            type_line(&mut out, &mut last, name, "histogram");
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let le = CycleHist::bucket_bound(i);
                if le == u64::MAX {
                    continue; // folded into +Inf below
                }
                out.push_str(&format!(
                    "{} {cumulative}\n",
                    series(name, "_bucket", &format!("le=\"{le}\""))
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                series(name, "_bucket", "le=\"+Inf\""),
                h.count()
            ));
            out.push_str(&format!("{} {}\n", series(name, "_sum", ""), h.sum()));
            out.push_str(&format!("{} {}\n", series(name, "_count", ""), h.count()));
        }
        out
    }
}

/// Writes the `# TYPE` line for `name`'s family unless the previous series
/// (`last`) was of the same family.
fn type_line<'a>(out: &mut String, last: &mut &'a str, name: &'a str, kind: &str) {
    let family = family_of(name);
    if family != *last {
        out.push_str(&format!("# TYPE {family} {kind}\n"));
        *last = family;
    }
}

/// Metric family (name with any `{labels}` stripped).
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Appends a suffix to the family part of `name`, keeping existing labels
/// and optionally adding one more: `f{a="1"}` + `_bucket` + `le="2"` →
/// `f_bucket{a="1",le="2"}`.
fn series(name: &str, suffix: &str, extra_label: &str) -> String {
    match name.split_once('{') {
        Some((family, rest)) => {
            let labels = rest.trim_end_matches('}');
            if extra_label.is_empty() {
                format!("{family}{suffix}{{{labels}}}")
            } else {
                format!("{family}{suffix}{{{labels},{extra_label}}}")
            }
        }
        None => {
            if extra_label.is_empty() {
                format!("{name}{suffix}")
            } else {
                format!("{name}{suffix}{{{extra_label}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_sorted_and_typed() {
        let mut s = MetricsSnapshot::default();
        s.counters
            .insert("lwvmm_exits_total{cause=\"mmio\"}".into(), 4);
        s.counters
            .insert("lwvmm_exits_total{cause=\"debug\"}".into(), 1);
        s.gauges.insert("lwvmm_cpu_load".into(), 0.5);
        let mut h = CycleHist::default();
        h.record(900);
        s.hists.insert("lwvmm_exit_ns{cause=\"mmio\"}".into(), h);
        let text = s.prometheus();
        let lines: Vec<&str> = text.lines().collect();
        // One TYPE line for the counter family, series sorted after it.
        assert_eq!(lines[0], "# TYPE lwvmm_exits_total counter");
        assert_eq!(lines[1], "lwvmm_exits_total{cause=\"debug\"} 1");
        assert_eq!(lines[2], "lwvmm_exits_total{cause=\"mmio\"} 4");
        assert!(text.contains("# TYPE lwvmm_cpu_load gauge\nlwvmm_cpu_load 0.5\n"));
        assert!(text.contains("# TYPE lwvmm_exit_ns histogram\n"));
        // 900 has bit length 10 → bucket hi 1023; cumulative count 1.
        assert!(text.contains("lwvmm_exit_ns_bucket{cause=\"mmio\",le=\"1023\"} 1\n"));
        assert!(text.contains("lwvmm_exit_ns_bucket{cause=\"mmio\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("lwvmm_exit_ns_sum{cause=\"mmio\"} 900\n"));
        assert!(text.contains("lwvmm_exit_ns_count{cause=\"mmio\"} 1\n"));
    }
}
