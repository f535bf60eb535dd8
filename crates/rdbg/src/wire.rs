//! Packet framing: `$<payload>#<checksum>` with `+`/`-` acknowledgements.
//!
//! The checksum is the modulo-256 sum of the payload bytes *as transmitted*
//! (escaped form), written as two lowercase hex digits. Payloads that
//! contain framing bytes are escaped GDB-style: `}` followed by the byte
//! XOR [`ESCAPE_XOR`]. GDB proper XORs with `0x20`, but that maps `#` to
//! `0x03` — and this protocol treats a raw `0x03` on the wire as the
//! out-of-band break-in request ([`BREAK_BYTE`]) in *every* parser state,
//! so the escape constant is `0x40` instead, which keeps every escaped
//! byte printable. A break must never be swallowed just because line
//! corruption opened a phantom packet: a runaway guest has to be haltable
//! over a dirty line.

/// Out-of-band "halt the target" byte (like GDB's `^C`).
pub const BREAK_BYTE: u8 = 0x03;

/// Positive acknowledgement byte.
pub const ACK: u8 = b'+';

/// Negative acknowledgement byte (retransmit request).
pub const NAK: u8 = b'-';

/// Escape introducer inside a payload (GDB's `}`).
pub const ESCAPE: u8 = b'}';

/// Escaped bytes are XORed with this constant (see module docs for why it
/// is not GDB's `0x20`).
pub const ESCAPE_XOR: u8 = 0x40;

/// Must this byte be escaped inside a payload?
fn needs_escape(b: u8) -> bool {
    matches!(b, b'$' | b'#' | ESCAPE | BREAK_BYTE)
}

/// Frames a payload into a `$payload#ck` packet, escaping `$`, `#`, `}`
/// and the break byte so any payload — including a corrupted or hostile
/// symbol name coming back through `qProf` — is transmittable.
pub fn encode_packet(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.push(b'$');
    let mut sum = 0u8;
    for &b in payload.as_bytes() {
        if needs_escape(b) {
            out.push(ESCAPE);
            out.push(b ^ ESCAPE_XOR);
            sum = sum.wrapping_add(ESCAPE).wrapping_add(b ^ ESCAPE_XOR);
        } else {
            out.push(b);
            sum = sum.wrapping_add(b);
        }
    }
    out.push(b'#');
    out.extend_from_slice(format!("{sum:02x}").as_bytes());
    out
}

/// What the parser extracted from the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// A complete, checksum-valid packet payload. The receiver should send
    /// [`ACK`].
    Packet(String),
    /// A corrupt packet was discarded. The receiver should send [`NAK`].
    Corrupt,
    /// The break-in byte arrived (out-of-band in every state).
    BreakIn,
    /// The peer acknowledged our last packet.
    Ack,
    /// The peer rejected our last packet (retransmit).
    Nak,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    Idle,
    Payload {
        /// Decoded (unescaped) payload bytes.
        buf: Vec<u8>,
        /// Running checksum over the bytes as transmitted.
        sum: u8,
        /// The previous byte was the escape introducer.
        esc: bool,
    },
    Check {
        buf: Vec<u8>,
        sum: u8,
        first: Option<u8>,
    },
}

/// Incremental packet parser; feed it bytes, drain [`WireEvent`]s.
///
/// The parser is total: arbitrary garbage produces at worst
/// [`WireEvent::Corrupt`] events, never a panic — property-tested, since the
/// stub must survive a hostile or broken serial line. [`BREAK_BYTE`] is
/// honoured in every state: mid-payload or mid-checksum it aborts the
/// packet (as [`WireEvent::Corrupt`]) *and* reports [`WireEvent::BreakIn`].
#[derive(Debug, Clone)]
pub struct PacketParser {
    state: State,
    events: std::collections::VecDeque<WireEvent>,
}

impl Default for PacketParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketParser {
    /// Creates an idle parser.
    pub fn new() -> PacketParser {
        PacketParser {
            state: State::Idle,
            events: std::collections::VecDeque::new(),
        }
    }

    /// Feeds received bytes into the parser.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push_byte(b);
        }
    }

    fn push_byte(&mut self, b: u8) {
        // Framing bytes win over everything, even a pending escape: our
        // encoder never emits them raw inside a packet, so seeing one means
        // the line lost bytes. The break byte additionally reports BreakIn —
        // it is the host's halt request and must survive any parser state.
        if b == BREAK_BYTE {
            if !matches!(self.state, State::Idle) {
                self.events.push_back(WireEvent::Corrupt);
            }
            self.events.push_back(WireEvent::BreakIn);
            self.state = State::Idle;
            return;
        }
        self.state = match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => match b {
                b'$' => State::Payload {
                    buf: Vec::new(),
                    sum: 0,
                    esc: false,
                },
                ACK => {
                    self.events.push_back(WireEvent::Ack);
                    State::Idle
                }
                NAK => {
                    self.events.push_back(WireEvent::Nak);
                    State::Idle
                }
                _ => State::Idle, // line noise between packets
            },
            State::Payload { mut buf, sum, esc } => match b {
                b'#' => State::Check {
                    buf,
                    sum,
                    first: None,
                },
                b'$' => State::Payload {
                    // Restart on stray '$' (dropped terminator upstream).
                    buf: Vec::new(),
                    sum: 0,
                    esc: false,
                },
                ESCAPE if !esc => State::Payload {
                    buf,
                    sum: sum.wrapping_add(b),
                    esc: true,
                },
                _ => {
                    buf.push(if esc { b ^ ESCAPE_XOR } else { b });
                    State::Payload {
                        buf,
                        sum: sum.wrapping_add(b),
                        esc: false,
                    }
                }
            },
            State::Check { buf, sum, first } => match b {
                b'$' => {
                    // A new packet start aborts a truncated one.
                    self.events.push_back(WireEvent::Corrupt);
                    let _ = buf;
                    State::Payload {
                        buf: Vec::new(),
                        sum: 0,
                        esc: false,
                    }
                }
                _ => match first {
                    None => State::Check {
                        buf,
                        sum,
                        first: Some(b),
                    },
                    Some(hi) => {
                        let ck = hex_val(hi).zip(hex_val(b)).map(|(h, l)| h * 16 + l);
                        match (ck, String::from_utf8(buf)) {
                            (Some(ck), Ok(s)) if ck == sum => {
                                self.events.push_back(WireEvent::Packet(s));
                            }
                            _ => self.events.push_back(WireEvent::Corrupt),
                        }
                        State::Idle
                    }
                },
            },
        };
    }

    /// Takes the next parsed event, if any. The queue is a `VecDeque`, so a
    /// burst of N events drains in O(N), not O(N²).
    pub fn next_event(&mut self) -> Option<WireEvent> {
        self.events.pop_front()
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Hex-encodes bytes (lowercase), straight into one `String`: register
/// and memory replies pass every byte through here.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Decodes a lowercase/uppercase hex string into bytes.
///
/// Returns `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return None;
    }
    b.chunks(2)
        .map(|p| hex_val(p[0]).zip(hex_val(p[1])).map(|(h, l)| h * 16 + l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_roundtrip() {
        let pkt = encode_packet("m1000,40");
        assert_eq!(pkt[0], b'$');
        let mut p = PacketParser::new();
        p.push(&pkt);
        assert_eq!(p.next_event(), Some(WireEvent::Packet("m1000,40".into())));
        assert_eq!(p.next_event(), None);
    }

    #[test]
    fn framing_bytes_are_escaped_not_fatal() {
        // The old encoder asserted on these; a hostile symbol name coming
        // back through qProf would kill the debugger. Now they round-trip.
        for payload in ["a$b", "a#b", "a}b", "a\u{3}b", "$#}\u{3}", "}"] {
            let pkt = encode_packet(payload);
            assert!(
                pkt[1..pkt.len() - 3]
                    .iter()
                    .all(|&b| !matches!(b, b'$' | b'#' | BREAK_BYTE)),
                "framing bytes must not appear raw on the wire: {pkt:?}"
            );
            let mut p = PacketParser::new();
            p.push(&pkt);
            assert_eq!(
                p.next_event(),
                Some(WireEvent::Packet(payload.into())),
                "payload {payload:?}"
            );
            assert_eq!(p.next_event(), None, "no stray events for {payload:?}");
        }
    }

    #[test]
    fn bad_checksum_is_corrupt() {
        let mut pkt = encode_packet("g");
        let n = pkt.len();
        pkt[n - 1] ^= 1;
        let mut p = PacketParser::new();
        p.push(&pkt);
        assert_eq!(p.next_event(), Some(WireEvent::Corrupt));
    }

    #[test]
    fn break_and_acks() {
        let mut p = PacketParser::new();
        p.push(&[BREAK_BYTE, ACK, NAK]);
        assert_eq!(p.next_event(), Some(WireEvent::BreakIn));
        assert_eq!(p.next_event(), Some(WireEvent::Ack));
        assert_eq!(p.next_event(), Some(WireEvent::Nak));
    }

    #[test]
    fn break_mid_payload_is_out_of_band() {
        // Line corruption opens a phantom packet; the host's break-in must
        // still get through (and the phantom is reported corrupt).
        let mut p = PacketParser::new();
        p.push(b"$phantom");
        p.push(&[BREAK_BYTE]);
        assert_eq!(p.next_event(), Some(WireEvent::Corrupt));
        assert_eq!(p.next_event(), Some(WireEvent::BreakIn));
        assert_eq!(p.next_event(), None);
        // And the parser is back in a usable state.
        p.push(&encode_packet("?"));
        assert_eq!(p.next_event(), Some(WireEvent::Packet("?".into())));
    }

    #[test]
    fn break_mid_checksum_is_out_of_band() {
        let mut p = PacketParser::new();
        p.push(b"$g#6");
        p.push(&[BREAK_BYTE]);
        assert_eq!(p.next_event(), Some(WireEvent::Corrupt));
        assert_eq!(p.next_event(), Some(WireEvent::BreakIn));
    }

    #[test]
    fn break_after_escape_is_out_of_band() {
        let mut p = PacketParser::new();
        p.push(b"$ab}");
        p.push(&[BREAK_BYTE]);
        assert_eq!(p.next_event(), Some(WireEvent::Corrupt));
        assert_eq!(p.next_event(), Some(WireEvent::BreakIn));
    }

    #[test]
    fn noise_between_packets_ignored() {
        let mut p = PacketParser::new();
        p.push(b"xyz");
        p.push(&encode_packet("?"));
        assert_eq!(p.next_event(), Some(WireEvent::Packet("?".into())));
    }

    #[test]
    fn split_delivery() {
        let pkt = encode_packet("m1000,40");
        let mut p = PacketParser::new();
        for b in pkt {
            p.push(&[b]);
        }
        assert_eq!(p.next_event(), Some(WireEvent::Packet("m1000,40".into())));
    }

    #[test]
    fn restart_on_stray_dollar() {
        let mut p = PacketParser::new();
        p.push(b"$abc$");
        p.push(&encode_packet("ok")[1..]); // continues the second packet
        assert_eq!(p.next_event(), Some(WireEvent::Packet("ok".into())));
    }

    #[test]
    fn event_queue_drains_fifo() {
        let mut p = PacketParser::new();
        for i in 0..100u8 {
            p.push(&encode_packet(&format!("n{i}")));
        }
        for i in 0..100u8 {
            assert_eq!(p.next_event(), Some(WireEvent::Packet(format!("n{i}"))));
        }
        assert_eq!(p.next_event(), None);
    }

    #[test]
    fn hex_helpers() {
        assert_eq!(to_hex(&[0xde, 0xad]), "dead");
        assert_eq!(from_hex("dead"), Some(vec![0xde, 0xad]));
        assert_eq!(from_hex("DEAD"), Some(vec![0xde, 0xad]));
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex(""), Some(vec![]));
    }

    proptest! {
        /// The parser never panics and the encoder round-trips through it,
        /// regardless of surrounding garbage — including payloads full of
        /// framing bytes, which the escape layer now handles.
        #[test]
        fn parser_total_and_roundtrips(
            payload in "[ -~]{0,64}",        // all printable ASCII, $ # } included
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut p = PacketParser::new();
            p.push(&garbage);
            while p.next_event().is_some() {}
            p.push(&encode_packet(&payload));
            // Drain; the last packet-type event must be our payload.
            let mut found = None;
            while let Some(ev) = p.next_event() {
                if let WireEvent::Packet(s) = ev {
                    found = Some(s);
                }
            }
            prop_assert_eq!(found, Some(payload));
        }

        /// A break byte anywhere in the stream always surfaces as BreakIn.
        #[test]
        fn break_always_surfaces(
            prefix in proptest::collection::vec(any::<u8>(), 0..48),
            suffix in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let prefix: Vec<u8> = prefix.into_iter().filter(|&b| b != BREAK_BYTE).collect();
            let mut p = PacketParser::new();
            p.push(&prefix);
            p.push(&[BREAK_BYTE]);
            p.push(&suffix);
            let mut saw_break = false;
            while let Some(ev) = p.next_event() {
                if ev == WireEvent::BreakIn {
                    saw_break = true;
                }
            }
            prop_assert!(saw_break, "break byte swallowed by parser state");
        }

        #[test]
        fn hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes))
        }
    }
}
