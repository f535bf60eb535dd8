//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans stay in memory while the benchmark runs and are written out when
//! it ends. A span's self time is its duration minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. When disabled every call is a no-op, so the
/// untraced run pays nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.open(name);
        let r = f(self);
        self.close();
        r
    }

    /// Self time of span `i`: its duration minus the union of its
    /// children's intervals, clipped to its own.
    fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut by: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by.entry(s.name).or_insert(SpanTotals {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += self.self_ns(i);
        }
        by.into_values().collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from explicit intervals: `(name, parent, start, end)`.
    fn synthetic(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Spans {
        let mut s = Spans::new(true);
        for &(name, parent, start_ns, end_ns) in spans {
            s.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
        s
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let s = synthetic(&[
            ("session", None, 0, 100),
            ("halt", Some(0), 10, 30),
            ("cmd", Some(0), 40, 50),
            ("cmd", Some(0), 60, 75),
            // A grandchild is its parent's business, not the session's.
            ("wire", Some(2), 41, 49),
        ]);
        assert_eq!(s.self_ns(0), 100 - 20 - 10 - 15);
        assert_eq!(s.self_ns(2), 10 - 8);
        let t = s.totals();
        let cmd = t.iter().find(|r| r.name == "cmd").unwrap();
        assert_eq!((cmd.count, cmd.total_ns, cmd.self_ns), (2, 25, 2 + 15));
        let session = t.iter().find(|r| r.name == "session").unwrap();
        assert_eq!(session.self_ns, 55);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let s = synthetic(&[
            ("parent", None, 100, 200),
            ("a", Some(0), 90, 150),
            ("b", Some(0), 120, 170),
            ("c", Some(0), 190, 260),
        ]);
        // Covered: [100, 170) and [190, 200) = 80 ns.
        assert_eq!(s.self_ns(0), 20);
    }

    #[test]
    fn live_spans_nest_and_disabled_recorder_is_silent() {
        let mut s = Spans::new(true);
        s.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = s.totals();
        let outer = t.iter().find(|r| r.name == "outer").unwrap();
        let inner = t.iter().find(|r| r.name == "inner").unwrap();
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(s.to_jsonl().lines().count(), 2);
        assert!(s.to_jsonl().contains("\"parent\": 0"));

        let mut off = Spans::new(false);
        off.time("outer", |s| s.time("inner", |_| ()));
        assert!(off.totals().is_empty());
        assert!(off.to_jsonl().is_empty());
    }
}
