//! # hx-query — programmatic queries over the flight recorder
//!
//! The repository records everything a debugging session could want — a
//! nondeterministic-input journal, a device-event stream, periodic
//! checkpoints, a trace ring — but until this crate the only way to *use*
//! the recording was interactively. `hx-query` turns the recording into a
//! queryable database and the debug stub into a scriptable instrument:
//!
//! * [`Expr`] — a small, total condition language over machine state
//!   (registers, PC, the cycle counter, memory operands) shared by
//!   conditional breakpoints, conditional watchpoints, logpoints and the
//!   monitor-side "first cycle where …" search. Expressions evaluate
//!   against anything that implements [`EvalCtx`]; [`SliceCtx`] adapts a
//!   raw RAM image + register file (live machines and stored checkpoints
//!   alike).
//! * [`JournalQuery`] — host-side queries over a recorded
//!   [`hx_obs::Journal`]: IRQ deliveries in a cycle range, the first event
//!   of a device stream, logpoint hits, raise→ISR-entry dispatch latencies
//!   (`irqlat n over k` answers "the first IRQ whose dispatch took more
//!   than k cycles"), guest tracepoint hits, and the first divergent event
//!   between two recordings (via the divergence auditor).
//!
//! Everything here is deterministic and observation-only: evaluating an
//! expression reads state, never mutates it, so armed logpoints and
//! queries cannot perturb a recorded timeline.

pub mod expr;
pub mod query;

pub use expr::{BinOp, EvalCtx, Expr, ParseError, SliceCtx, UnOp};
pub use query::{
    first_divergent_event, irq_deliveries, irq_latencies, DivergentEvent, JournalQuery, QueryAnswer,
};
