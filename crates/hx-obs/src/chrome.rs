//! Chrome trace-event JSON (Perfetto-compatible) exporter.
//!
//! Produces the "JSON array format" understood by `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev). Each platform becomes one
//! process (`pid`); its four time buckets become threads carrying `ph:"X"`
//! duration spans, a fifth thread carries `ph:"i"` instant events (VM
//! exits, debug commands, faults, logpoints, ISR entry/exit, tracepoints),
//! and one labeled thread per device carries that device's IRQs, DMA and
//! doorbells.
//!
//! Timestamps: the `ts`/`dur` fields are **simulated cycles** written as
//! integer microseconds (1 cycle ≙ 1 µs of display time). Since the
//! simulation is deterministic and the exporter iterates plain vectors in
//! insertion order with integer-only formatting, the emitted bytes are a
//! pure function of the run — byte-identical traces across identical runs
//! are a tested invariant.

use crate::event::{Dev, EventKind};
use crate::json::escape;
use crate::recorder::Recorder;
use crate::span::Track;

/// Thread id carrying instant events, after the four track threads.
const EVENTS_TID: u32 = 4;
/// First device thread id; device `d` gets tid `DEV_TID_BASE + d.index()`.
const DEV_TID_BASE: u32 = 5;
/// First per-core thread id; core `n` gets tid `CORE_TID_BASE + n`.
const CORE_TID_BASE: u32 = 16;

#[derive(Default)]
pub struct ChromeTrace {
    lines: Vec<String>,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    fn meta(&mut self, pid: u32, tid: u32, what: &str, name: &str) {
        self.lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(what),
            escape(name)
        ));
    }

    /// Add one platform's recorded run as process `pid` named `name`.
    pub fn add_platform(&mut self, pid: u32, name: &str, rec: &Recorder) {
        self.meta(pid, 0, "process_name", name);
        for t in Track::ALL {
            self.meta(pid, t.index() as u32, "thread_name", t.label());
        }
        self.meta(pid, EVENTS_TID, "thread_name", "events");
        // Label the per-device tracks so Perfetto shows device names
        // instead of raw tids.
        for d in Dev::ALL {
            self.meta(
                pid,
                DEV_TID_BASE + d.index() as u32,
                "thread_name",
                &format!("dev:{}", d.label()),
            );
        }
        // Per-core tracks carry flow endpoints and tracepoint spans. The
        // core count is derived from recorded data (deterministic): the
        // per-core exit table plus any core named by a completed flow.
        let mut cores = rec.core_exit_counts().len().max(1);
        if let Some(c) = rec.causal() {
            for f in c.flows() {
                cores = cores
                    .max(f.begin_core as usize + 1)
                    .max(f.end_core as usize + 1);
            }
        }
        for n in 0..cores {
            self.meta(
                pid,
                CORE_TID_BASE + n as u32,
                "thread_name",
                &format!("core{n}"),
            );
        }

        for s in rec.spans.spans() {
            self.lines.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\
                 \"cat\":\"cpu\",\"ts\":{},\"dur\":{}}}",
                s.track.index(),
                escape(s.track.label()),
                s.start,
                s.len()
            ));
        }

        for ev in rec.ring.iter() {
            // Device events land on their device's labeled track; everything
            // else stays on the shared events track.
            let tid = ev
                .kind
                .dev()
                .map_or(EVENTS_TID, |dev| DEV_TID_BASE + dev.index() as u32);
            let args = match ev.kind {
                EventKind::VmExit { cause, cycles } => {
                    format!(
                        "\"cause\":\"{}\",\"cycles\":{cycles}",
                        escape(cause.label())
                    )
                }
                EventKind::ShadowFault { vaddr } => format!("\"vaddr\":{vaddr}"),
                EventKind::Irq { dev, irq } => {
                    format!("\"dev\":\"{}\",\"irq\":{}", escape(dev.label()), irq)
                }
                // The journal audits the digest; the trace shows the size.
                EventKind::Dma { dev, bytes, .. } => {
                    format!("\"dev\":\"{}\",\"bytes\":{}", escape(dev.label()), bytes)
                }
                EventKind::Doorbell { dev, reg } => {
                    format!("\"dev\":\"{}\",\"reg\":{}", escape(dev.label()), reg)
                }
                EventKind::DebugCommand { code } => {
                    format!("\"code\":{}", code)
                }
                EventKind::Fault { code, arg } => {
                    format!("\"code\":{code},\"arg\":{arg}")
                }
                EventKind::Log { addr, value } => {
                    format!("\"addr\":{addr},\"value\":{value}")
                }
                EventKind::Inta { irq } => format!("\"irq\":{irq}"),
                EventKind::Trace { op, id } => {
                    format!("\"op\":\"{}\",\"id\":{}", escape(op.label()), id)
                }
                // The IPI pair never reaches the ring.
                EventKind::Eoi | EventKind::IpiSend { .. } | EventKind::IpiDeliver { .. } => {
                    String::new()
                }
            };
            self.lines.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\
                 \"s\":\"t\",\"ts\":{},\"args\":{{{args}}}}}",
                escape(ev.kind.name()),
                ev.at
            ));
        }

        self.add_flows(pid, rec);

        // Truncation is data, not a footnote: surface drop counts in-band.
        let flows_dropped = rec.causal().map_or(0, |c| c.summary().dropped);
        if rec.ring.dropped() > 0 || rec.spans.dropped() > 0 || flows_dropped > 0 {
            self.lines.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{EVENTS_TID},\"name\":\"truncated\",\
                 \"s\":\"p\",\"ts\":{},\"args\":{{\"events_dropped\":{},\"spans_dropped\":{},\
                 \"flows_dropped\":{flows_dropped}}}}}",
                rec.spans.cursor(),
                rec.ring.dropped(),
                rec.spans.dropped()
            ));
        }
    }

    /// Causal flows as Chrome flow events: each completed flow becomes a
    /// `ph:"s"` start on its begin core's track and a `ph:"f"` finish on
    /// its end core's track, bound by a shared id (made unique across
    /// processes by folding in `pid`). Guest tracepoint spans additionally
    /// render as `ph:"X"` duration slices on the emitting core's track.
    fn add_flows(&mut self, pid: u32, rec: &Recorder) {
        let Some(causal) = rec.causal() else {
            return;
        };
        for f in causal.flows() {
            let flow_id = ((pid as u64) << 32) | f.id;
            let name = escape(f.class.label());
            self.lines.push(format!(
                "{{\"ph\":\"s\",\"pid\":{pid},\"tid\":{},\"name\":\"{name}\",\
                 \"cat\":\"flow\",\"id\":{flow_id},\"ts\":{},\"args\":{{\"key\":{}}}}}",
                CORE_TID_BASE + f.begin_core as u32,
                f.begin,
                f.key
            ));
            self.lines.push(format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":{},\"name\":\"{name}\",\
                 \"cat\":\"flow\",\"id\":{flow_id},\"ts\":{}}}",
                CORE_TID_BASE + f.end_core as u32,
                f.end
            ));
            if f.class == crate::causal::FlowClass::Span {
                self.lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"span:{}\",\
                     \"cat\":\"trace\",\"ts\":{},\"dur\":{}}}",
                    CORE_TID_BASE + f.begin_core as u32,
                    f.key,
                    f.begin,
                    f.latency()
                ));
            }
        }
    }

    /// Final JSON document.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dev, ExitCause};

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new();
        r.enable_tracing();
        r.charge(Track::Guest, 100);
        r.emit(
            100,
            EventKind::VmExit {
                cause: ExitCause::Mmio,
                cycles: 990,
            },
        );
        r.charge(Track::Monitor, 990);
        r.emit(
            1090,
            EventKind::Irq {
                dev: Dev::Nic,
                irq: 5,
            },
        );
        r.charge(Track::Idle, 10);
        r
    }

    #[test]
    fn export_is_deterministic_and_reconciles() {
        let (a, b) = (sample_recorder(), sample_recorder());
        let mut ta = ChromeTrace::new();
        ta.add_platform(1, "lvmm", &a);
        let mut tb = ChromeTrace::new();
        tb.add_platform(1, "lvmm", &b);
        assert_eq!(ta.finish(), tb.finish());

        // Span cycles reconcile with what was charged.
        let total: u64 = a.spans.spans().iter().map(|s| s.len()).sum();
        assert_eq!(total, a.spans.grand_total());
        assert_eq!(total, 1100);
    }

    #[test]
    fn flows_export_as_paired_start_finish_events() {
        use crate::causal::TraceOp;
        let mut r = Recorder::new();
        r.enable_tracing();
        r.enable_causal();
        r.emit(
            100,
            EventKind::Irq {
                dev: Dev::Pit,
                irq: 0,
            },
        );
        r.emit(150, EventKind::Inta { irq: 0 });
        r.emit(200, EventKind::Eoi);
        r.set_active_core(1);
        r.emit(
            300,
            EventKind::Trace {
                op: TraceOp::Begin,
                id: 7,
            },
        );
        r.emit(
            400,
            EventKind::Trace {
                op: TraceOp::End,
                id: 7,
            },
        );
        let mut t = ChromeTrace::new();
        t.add_platform(1, "lvmm", &r);
        let json = t.finish();
        // Every flow start has a finish with the same bound id.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 3);
        assert!(json.contains("\"name\":\"irq-dispatch\""));
        assert!(json.contains("\"name\":\"span:7\""));
        // Core and device tracks are labeled.
        assert!(json.contains("\"name\":\"core1\""));
        assert!(json.contains("\"name\":\"dev:pit\""));
        // Deterministic across identical runs is covered by the e2e suite;
        // here just pin that two exports of the same recorder agree.
        let mut t2 = ChromeTrace::new();
        t2.add_platform(1, "lvmm", &r);
        assert_eq!(t2.finish(), json);
    }

    fn assert_well_formed(json: &str) {
        use crate::json::{parse, Json};
        let doc = parse(json).expect("the trace parses as JSON");
        assert!(matches!(doc.get("traceEvents"), Some(Json::Arr(_))));
    }

    #[test]
    fn export_is_valid_enough_json() {
        let r = sample_recorder();
        let mut t = ChromeTrace::new();
        t.add_platform(1, "lvmm", &r);
        assert_well_formed(&t.finish());
    }

    #[test]
    fn hostile_names_are_escaped_everywhere() {
        // A symbol/process name full of JSON-hostile bytes must survive
        // every emission path: process_name metadata, thread_name metadata
        // (both the `what` and `args.name` positions), and event names.
        let hostile = "evil\"sym\\name\n\u{1}end";
        let r = sample_recorder();
        let mut t = ChromeTrace::new();
        t.add_platform(1, hostile, &r);
        // Drive the metadata path with hostility in *both* interpolated
        // positions — this is the line-52 bug: `what` used to be embedded
        // raw.
        t.meta(1, 99, hostile, hostile);
        let json = t.finish();
        assert_well_formed(&json);
        // The raw bytes must never appear unescaped.
        assert!(!json.contains("evil\"sym"));
        assert!(json.contains("evil\\\"sym\\\\name\\n\\u0001end"));
    }
}
