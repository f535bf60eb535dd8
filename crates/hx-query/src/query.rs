//! Host-side queries over recorded journals.
//!
//! These run against sealed [`Journal`]s (live or loaded from text), off
//! the simulation path: they answer "what happened when" questions whose
//! results are cycles that can drive a replay seek.

use hx_obs::json::JsonObj;
use hx_obs::{audit, EventKind, Journal};

/// The first event at which two recordings disagree, per the divergence
/// auditor's stream decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergentEvent {
    /// Name of the diverging stream (`nic`, `uart`, `stub`, `log`, …).
    pub stream: String,
    /// Index of the first disagreement within that stream.
    pub index: usize,
    /// Cycle of the diverging event in journal `a`, if present there.
    pub at_a: Option<u64>,
    /// Cycle of the diverging event in journal `b`, if present there.
    pub at_b: Option<u64>,
}

/// First divergent device event between two journals, if any — the
/// earliest (by `a`-side cycle, then stream name) non-clean stream from
/// [`audit`].
pub fn first_divergent_event(a: &Journal, b: &Journal) -> Option<DivergentEvent> {
    let mut best: Option<DivergentEvent> = None;
    for s in audit(a, b) {
        let Some(d) = s.divergence else { continue };
        let hit = DivergentEvent {
            stream: s.name.to_string(),
            index: d.index,
            at_a: d.a.as_ref().map(|r| r.at),
            at_b: d.b.as_ref().map(|r| r.at),
        };
        let key = |h: &DivergentEvent| (h.at_a.unwrap_or(u64::MAX), h.stream.clone());
        if best.as_ref().is_none_or(|cur| key(&hit) < key(cur)) {
            best = Some(hit);
        }
    }
    best
}

/// Cycles of every IRQ-`irq` delivery event in `[from, to]`.
pub fn irq_deliveries(j: &Journal, irq: u32, from: u64, to: u64) -> Vec<u64> {
    j.events
        .iter()
        .filter(|e| (from..=to).contains(&e.at))
        .filter(|e| matches!(e.ev, EventKind::Irq { irq: i, .. } if i == irq))
        .map(|e| e.at)
        .collect()
}

/// A parsed journal query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalQuery {
    /// `irq <n> [in <from>..<to>]` — IRQ deliveries on line `n`.
    IrqCount {
        /// IRQ line.
        irq: u32,
        /// Range start (inclusive), 0 if unspecified.
        from: u64,
        /// Range end (inclusive), `u64::MAX` if unspecified.
        to: u64,
    },
    /// `first-event <stream>` — first event of a named [`audit`] stream
    /// (`nic`, `hdc`, `pit`, `uart`, `pic`, `stub`, `fault`, `log`, `isr`,
    /// `trace`).
    FirstEvent {
        /// Stream name, as in the divergence auditor (`nic`, `stub`, …).
        stream: String,
    },
    /// `logs [<addr>]` — logpoint hits, optionally only at one address.
    Logs {
        /// Logpoint address filter.
        addr: Option<u32>,
    },
    /// `irqlat <n> [over <k>] [in <from>..<to>]` — ISR-entry cycles of
    /// IRQ-`n` dispatches whose raise→entry latency exceeded `k` cycles
    /// (`over 0`, the default, lists every matched dispatch). Answers
    /// "the first IRQ whose dispatch latency exceeded K cycles" with a
    /// seekable cycle.
    IrqLatency {
        /// IRQ line.
        irq: u32,
        /// Latency threshold in cycles (strict).
        over: u64,
        /// Range start (inclusive), 0 if unspecified.
        from: u64,
        /// Range end (inclusive), `u64::MAX` if unspecified.
        to: u64,
    },
    /// `trace [<id>]` — guest tracepoint events, optionally only one id.
    Trace {
        /// Tracepoint id filter.
        id: Option<u32>,
    },
}

/// The answer to a [`JournalQuery`]: a count, the matching cycles (capped),
/// and the first matching cycle for seek-driving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// What was asked, in canonical text.
    pub query: String,
    /// Number of matching events.
    pub count: usize,
    /// Cycle of the first match, if any.
    pub first: Option<u64>,
    /// Cycles of the first matches (at most [`QueryAnswer::MAX_CYCLES`]).
    pub cycles: Vec<u64>,
}

impl QueryAnswer {
    /// Cap on explicitly listed cycles; the count is always exact.
    pub const MAX_CYCLES: usize = 64;

    /// One JSON line describing the answer.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.set("event", "query");
        o.set("query", &self.query);
        o.set("count", self.count as u64);
        o.set("first", self.first);
        o.u64_list("cycles", &self.cycles);
        o.finish()
    }
}

fn parse_range(words: &[&str]) -> Option<(u64, u64)> {
    match words {
        [] => Some((0, u64::MAX)),
        ["in", range] => {
            let (a, b) = range.split_once("..")?;
            Some((parse_num(a)?, parse_num(b)?))
        }
        _ => None,
    }
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl JournalQuery {
    /// Parses the text form (see variant docs).
    pub fn parse(src: &str) -> Option<JournalQuery> {
        let words: Vec<&str> = src.split_whitespace().collect();
        match words.as_slice() {
            ["irq", n, rest @ ..] => {
                let (from, to) = parse_range(rest)?;
                Some(JournalQuery::IrqCount {
                    irq: parse_num(n)? as u32,
                    from,
                    to,
                })
            }
            ["first-event", stream] => Some(JournalQuery::FirstEvent {
                stream: stream.to_string(),
            }),
            ["logs"] => Some(JournalQuery::Logs { addr: None }),
            ["logs", a] => Some(JournalQuery::Logs {
                addr: Some(parse_num(a)? as u32),
            }),
            ["irqlat", n, rest @ ..] => {
                let (over, rest) = match rest {
                    ["over", k, tail @ ..] => (parse_num(k)?, tail),
                    tail => (0, tail),
                };
                let (from, to) = parse_range(rest)?;
                Some(JournalQuery::IrqLatency {
                    irq: parse_num(n)? as u32,
                    over,
                    from,
                    to,
                })
            }
            ["trace"] => Some(JournalQuery::Trace { id: None }),
            ["trace", i] => Some(JournalQuery::Trace {
                id: Some(parse_num(i)? as u32),
            }),
            _ => None,
        }
    }

    /// Canonical text form (`parse` ∘ `format` is identity).
    pub fn format(&self) -> String {
        match self {
            JournalQuery::IrqCount { irq, from, to } => {
                if *from == 0 && *to == u64::MAX {
                    format!("irq {irq}")
                } else {
                    format!("irq {irq} in {from}..{to}")
                }
            }
            JournalQuery::FirstEvent { stream } => format!("first-event {stream}"),
            JournalQuery::Logs { addr: None } => "logs".to_string(),
            JournalQuery::Logs { addr: Some(a) } => format!("logs 0x{a:x}"),
            JournalQuery::IrqLatency {
                irq,
                over,
                from,
                to,
            } => {
                let mut s = format!("irqlat {irq}");
                if *over > 0 {
                    s.push_str(&format!(" over {over}"));
                }
                if *from != 0 || *to != u64::MAX {
                    s.push_str(&format!(" in {from}..{to}"));
                }
                s
            }
            JournalQuery::Trace { id: None } => "trace".to_string(),
            JournalQuery::Trace { id: Some(i) } => format!("trace {i}"),
        }
    }

    /// Runs the query against a sealed journal.
    pub fn run(&self, j: &Journal) -> QueryAnswer {
        let cycles: Vec<u64> = match self {
            JournalQuery::IrqCount { irq, from, to } => irq_deliveries(j, *irq, *from, *to),
            JournalQuery::FirstEvent { stream } => j
                .events
                .iter()
                .filter(|e| e.ev.stream() == Some(stream.as_str()))
                .map(|e| e.at)
                .collect(),
            JournalQuery::Logs { addr } => j
                .events
                .iter()
                .filter(|e| match e.ev {
                    EventKind::Log { addr: a, .. } => addr.is_none_or(|want| want == a),
                    _ => false,
                })
                .map(|e| e.at)
                .collect(),
            JournalQuery::IrqLatency {
                irq,
                over,
                from,
                to,
            } => irq_latencies(j, *irq)
                .into_iter()
                .filter(|&(entry, lat)| lat > *over && (*from..=*to).contains(&entry))
                .map(|(entry, _)| entry)
                .collect(),
            JournalQuery::Trace { id } => j
                .events
                .iter()
                .filter(|e| match e.ev {
                    EventKind::Trace { id: i, .. } => id.is_none_or(|want| want == i),
                    _ => false,
                })
                .map(|e| e.at)
                .collect(),
        };
        QueryAnswer {
            query: self.format(),
            count: cycles.len(),
            first: cycles.first().copied(),
            cycles: cycles.into_iter().take(QueryAnswer::MAX_CYCLES).collect(),
        }
    }
}

/// `(isr_entry_cycle, raise→entry latency)` for every matched dispatch of
/// IRQ line `irq`, in journal order. Pairing mirrors the live causal
/// tracker: the earliest unmatched device raise of the line wins, and PIC
/// raises (IPIs, injected bursts) are not dispatches.
pub fn irq_latencies(j: &Journal, irq: u32) -> Vec<(u64, u64)> {
    let mut pending: Option<u64> = None;
    let mut out = Vec::new();
    for e in &j.events {
        match e.ev {
            EventKind::Irq { dev, irq: line } if line == irq && dev != hx_obs::Dev::Pic => {
                pending.get_or_insert(e.at);
            }
            EventKind::Inta { irq: line } if line == irq => {
                if let Some(raise) = pending.take() {
                    out.push((e.at, e.at - raise));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_obs::Dev;

    fn sample_journal() -> Journal {
        let mut j = Journal::new("lvmm");
        j.event(
            100,
            EventKind::Irq {
                dev: Dev::Pit,
                irq: 0,
            },
        );
        j.event(
            200,
            EventKind::Irq {
                dev: Dev::Nic,
                irq: 3,
            },
        );
        j.event(
            300,
            EventKind::Irq {
                dev: Dev::Nic,
                irq: 3,
            },
        );
        j.event(250, EventKind::Inta { irq: 3 });
        j.event(
            400,
            EventKind::Log {
                addr: 0x1000,
                value: 7,
            },
        );
        j.event(
            450,
            EventKind::Log {
                addr: 0x2000,
                value: 9,
            },
        );
        j.seal(1_000);
        j
    }

    #[test]
    fn irq_queries_count_and_range() {
        let j = sample_journal();
        let q = JournalQuery::parse("irq 3").unwrap();
        let a = q.run(&j);
        assert_eq!(a.count, 2);
        assert_eq!(a.first, Some(200));
        let q = JournalQuery::parse("irq 3 in 250..0x190").unwrap();
        assert_eq!(q.run(&j).cycles, vec![300]);
        assert_eq!(JournalQuery::parse(&q.format()), Some(q));
    }

    #[test]
    fn log_and_stream_queries() {
        let j = sample_journal();
        let all = JournalQuery::parse("logs").unwrap().run(&j);
        assert_eq!(all.count, 2);
        let one = JournalQuery::parse("logs 0x2000").unwrap().run(&j);
        assert_eq!(one.cycles, vec![450]);
        let pit = JournalQuery::parse("first-event pit").unwrap().run(&j);
        assert_eq!(pit.first, Some(100));
        // Every audit stream is queryable, ISR entry/exit included.
        let isr = JournalQuery::parse("first-event isr").unwrap().run(&j);
        assert_eq!(isr.first, Some(250));
        assert!(one.to_json().contains("\"first\":450"));
    }

    #[test]
    fn irq_latency_queries_pair_raise_with_entry() {
        use hx_obs::TraceOp;
        let mut j = Journal::new("lvmm");
        // Two dispatches of line 0: 50-cycle and 300-cycle latency; the
        // second raise (while one is pending) is absorbed into the first
        // flow, earliest-raise-wins. A PIC raise is not a dispatch.
        j.event(
            100,
            EventKind::Irq {
                dev: Dev::Pit,
                irq: 0,
            },
        );
        j.event(150, EventKind::Inta { irq: 0 });
        j.event(
            200,
            EventKind::Irq {
                dev: Dev::Pic,
                irq: 0,
            },
        );
        j.event(
            400,
            EventKind::Irq {
                dev: Dev::Pit,
                irq: 0,
            },
        );
        j.event(
            500,
            EventKind::Irq {
                dev: Dev::Pit,
                irq: 0,
            },
        );
        j.event(700, EventKind::Inta { irq: 0 });
        j.event(
            800,
            EventKind::Trace {
                op: TraceOp::Begin,
                id: 7,
            },
        );
        j.event(
            900,
            EventKind::Trace {
                op: TraceOp::End,
                id: 7,
            },
        );
        j.seal(1_000);

        assert_eq!(irq_latencies(&j, 0), vec![(150, 50), (700, 300)]);
        let all = JournalQuery::parse("irqlat 0").unwrap();
        assert_eq!(all.run(&j).cycles, vec![150, 700]);
        assert_eq!(JournalQuery::parse(&all.format()), Some(all));
        // "First dispatch over 100 cycles" — the canonical causal question.
        let slow = JournalQuery::parse("irqlat 0 over 100").unwrap();
        assert_eq!(slow.run(&j).first, Some(700));
        assert_eq!(JournalQuery::parse(&slow.format()), Some(slow));
        let ranged = JournalQuery::parse("irqlat 0 over 10 in 0..200").unwrap();
        assert_eq!(ranged.run(&j).cycles, vec![150]);
        assert_eq!(JournalQuery::parse(&ranged.format()), Some(ranged.clone()));
        assert!(ranged.run(&j).to_json().contains("\"first\":150"));

        let traces = JournalQuery::parse("trace").unwrap();
        assert_eq!(traces.run(&j).cycles, vec![800, 900]);
        let one = JournalQuery::parse("trace 7").unwrap();
        assert_eq!(one.run(&j).count, 2);
        assert_eq!(JournalQuery::parse(&one.format()), Some(one));
        assert_eq!(JournalQuery::parse("trace 8").unwrap().run(&j).count, 0);
    }

    #[test]
    fn divergence_picks_earliest_stream() {
        let a = sample_journal();
        let mut b = sample_journal();
        b.events.remove(1); // drop the first nic irq
                            // The audit compares payload sequences, so the two identical IRQs
                            // pair up and the divergence is the length-only tail at index 1.
        let hit = first_divergent_event(&a, &b).unwrap();
        assert_eq!(hit.stream, "nic");
        assert_eq!(hit.index, 1);
        assert_eq!(hit.at_a, Some(300));
        assert_eq!(hit.at_b, None);
        // A payload change diverges at its own index.
        let mut c = sample_journal();
        c.events[1].ev = EventKind::Irq {
            dev: Dev::Nic,
            irq: 4,
        };
        let hit = first_divergent_event(&a, &c).unwrap();
        assert_eq!((hit.stream.as_str(), hit.index), ("nic", 0));
        assert_eq!(first_divergent_event(&a, &a), None);
    }

    #[test]
    fn bad_queries_do_not_parse() {
        for s in [
            "",
            "irq",
            "irq x",
            "irq 3 in 5",
            "logs 0xzz",
            "frobnicate",
            "irqlat",
            "irqlat x",
            "irqlat 0 over",
            "irqlat 0 over x",
            "irqlat 0 above 5",
            "trace 0xzz",
            "trace 1 2",
        ] {
            assert_eq!(JournalQuery::parse(s), None, "{s:?}");
        }
    }
}
