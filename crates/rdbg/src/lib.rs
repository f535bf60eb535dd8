//! Remote-debugging wire protocol, host-side debugger client, and the one
//! target-side debug stub.
//!
//! This crate is the "software remote debugger" half of the paper's Fig. 2.1
//! plus everything it shares with the target: the wire protocol and the
//! stub itself ([`stub`]), whose two residencies — the lightweight monitor
//! and the OS-embedded baseline — are each a [`stub::Target`] impl:
//!
//! ```text
//!  host machine                          target machine
//!  +---------------+   serial bytes    +------------------------------+
//!  | Debugger (us) | <---------------> | rdbg::stub over a Target:    |
//!  +---------------+                   | the monitor, or the guest OS |
//!                                      +------------------------------+
//! ```
//!
//! The protocol is GDB-remote-serial-protocol-shaped: `$payload#ck` framing
//! with `+`/`-` acknowledgements, `}`-escaping for payload bytes that
//! collide with framing ([`wire`]), ASCII command payloads ([`msg`]), and an
//! out-of-band break-in byte (`0x03`) to halt a running guest.
//!
//! The live-sample replies reuse the monitor's own observability types
//! from `hx-obs`: [`Reply::Metrics`] carries an [`hx_obs::HostAttribution`]
//! and [`Reply::Flow`] an [`hx_obs::FlowSummary`]. Every tagged reply
//! (stats, profile, metrics, flow, stop, query) is a
//! `<tag><head>;key:value;…` record written and read by one codec in
//! [`msg`].
//!
//! The host client ([`Debugger`]) is transport-agnostic: anything that can
//! move bytes to and from the target implements [`Link`]. In this
//! repository the link is the simulated machine's UART; [`LossyLink`] wraps
//! any link with deterministic byte-level faults for survivability testing.

pub mod debugger;
pub mod lossy;
pub mod msg;
pub mod stub;
pub mod wire;

pub use debugger::{err, err_name, DbgError, Debugger, Link, Registers};
pub use lossy::LossyLink;
pub use msg::{Command, ProfSample, Reply, StatsSample, StopReason, WatchKind};
pub use wire::{encode_packet, from_hex, to_hex, PacketParser, WireEvent, ACK, BREAK_BYTE, NAK};

/// Compile-time proof a whole debug session can migrate to another thread:
/// [`Link: Send`](Link) makes every `Debugger<L>` `Send` by construction.
#[allow(dead_code)]
fn assert_send_types<L: Link>() {
    fn is_send<T: Send>() {}
    is_send::<Debugger<L>>();
    is_send::<Box<dyn Link>>();
}
