//! Sample statistics: medians, nearest-rank percentiles, the tail rule,
//! the seek-cost fit, and metric-name validation.

/// Percentiles the tail rule may pick, highest last.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples a timing series needs before its tail is defined.
pub const MIN_TAIL_SAMPLES: usize = TAIL_BEYOND * 2;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(p, s.len()) - 1])
}

/// Median as nearest-rank p50 on odd counts and the mean of the two middle
/// samples on even counts; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_BEYOND)
}

/// A timing series reduced to the two numbers the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is.
    pub tail_p: f64,
    pub tail: f64,
}

/// Median and tail of a series; `None` when there are too few samples
/// for the tail rule.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_p = tail_percentile(samples.len())?;
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        tail_p,
        tail: percentile(samples, tail_p)?,
    })
}

/// Ordinary least squares `y = a + b·x + c·z` over `(x, z, y)` points;
/// returns `(a, b, c)`, or `None` when `x` and `z` do not vary
/// independently.
pub fn plane_fit(points: &[(f64, f64, f64)]) -> Option<(f64, f64, f64)> {
    if points.len() < 3 {
        return None;
    }
    let n = points.len() as f64;
    let mean = |f: fn(&(f64, f64, f64)) -> f64| points.iter().map(f).sum::<f64>() / n;
    let (mx, mz, my) = (mean(|p| p.0), mean(|p| p.1), mean(|p| p.2));
    let sum = |f: &dyn Fn(f64, f64, f64) -> f64| -> f64 {
        points.iter().map(|p| f(p.0 - mx, p.1 - mz, p.2 - my)).sum()
    };
    let (sxx, szz, sxz) = (
        sum(&|x, _, _| x * x),
        sum(&|_, z, _| z * z),
        sum(&|x, z, _| x * z),
    );
    let (sxy, szy) = (sum(&|x, _, y| x * y), sum(&|_, z, y| z * y));
    let det = sxx * szz - sxz * sxz;
    if det.abs() <= f64::EPSILON * sxx * szz {
        return None;
    }
    let b = (sxy * szz - szy * sxz) / det;
    let c = (szy * sxx - sxy * sxz) / det;
    Some((my - b * mx - c * mz, b, c))
}

/// A metric name `BENCHMARK.json` accepts: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process in MiB (`VmRSS`), 0 when unknown.
pub fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// A seeded xorshift64* generator: the benchmark's only source of input
/// variation, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state space; never zero.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(50_000), Some(99.0));
        // The defining property, checked exhaustively over small counts.
        for n in 1..2_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
                let higher = TAIL_LADDER.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(n - rank(q, n) < TAIL_BEYOND, "n={n} {q} also qualifies");
                }
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let sum = summarize(&s).expect("100 samples have a tail");
        assert_eq!(
            (sum.n, sum.p50, sum.tail_p, sum.tail),
            (100, 50.5, 90.0, 90.0)
        );
        assert_eq!(summarize(&s[..19]), None);
    }

    #[test]
    fn plane_fit_separates_re_execution_from_catch_up() {
        // seek_ms = 40 + 5e-5 · re-executed cycles + 2e-5 · catch-up
        // cycles, over distances and catch-ups that vary independently.
        let exact: Vec<(f64, f64, f64)> = (0..60)
            .map(|i| {
                let x = (i % 10) as f64 * 200_000.0;
                let z = (i / 10) as f64 * 1_000_000.0 + (i % 3) as f64 * 50_000.0;
                (x, z, 40.0 + 5e-5 * x + 2e-5 * z)
            })
            .collect();
        let (a, b, c) = plane_fit(&exact).unwrap();
        assert!((a - 40.0).abs() < 1e-6, "intercept {a}");
        assert!((b - 5e-5).abs() < 1e-12 && (c - 2e-5).abs() < 1e-12);
        let noisy: Vec<(f64, f64, f64)> = exact
            .iter()
            .enumerate()
            .map(|(i, &(x, z, y))| (x, z, y + if i % 2 == 0 { 3.0 } else { -3.0 }))
            .collect();
        let (a, b, c) = plane_fit(&noisy).unwrap();
        assert!((a - 40.0).abs() < 2.0, "intercept {a}");
        assert!((b - 5e-5).abs() < 2e-6, "slope {b}");
        assert!((c - 2e-5).abs() < 1e-6, "catch-up slope {c}");
        // Too few points, or regressors that move together, have no fit.
        assert_eq!(plane_fit(&exact[..2]), None);
        let collinear: Vec<(f64, f64, f64)> = (0..10)
            .map(|i| (i as f64, 2.0 * i as f64, i as f64))
            .collect();
        assert_eq!(plane_fit(&collinear), None);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for ok in [
            "setup_s",
            "sim_mips.raw",
            "seek_ms.tail",
            "hx-cpu.decode_hit_ratio.hosted",
            "hosted-vmm.exit_ns.host-relay",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "has space",
            "µs",
            "slash/y",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn rng_is_seeded_and_shuffles_completely() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
