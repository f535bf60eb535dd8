//! Remote-debugging wire protocol and host-side debugger client.
//!
//! This crate is the "software remote debugger" half of the paper's Fig. 2.1
//! plus the wire protocol it shares with the debug stub embedded in the
//! lightweight virtual machine monitor (`lvmm` crate). The split mirrors
//! classical remote debugging:
//!
//! ```text
//!  host machine                          target machine
//!  +---------------+   serial bytes    +--------------------------+
//!  | Debugger (us) | <---------------> | stub in the monitor      |
//!  +---------------+                   | (rdbg::msg is shared)    |
//!                                      +--------------------------+
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
pub mod wire;

pub use debugger::{err_name, DbgError, Debugger, Link, Registers};
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
