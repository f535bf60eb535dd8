//! `Nic`: a gigabit-class Ethernet controller with descriptor rings, DMA,
//! wire-rate serialization and optional interrupt moderation.
//!
//! This is the high-throughput device the paper's lightweight monitor passes
//! straight through to the guest: the driver owns the descriptor rings in
//! its own memory and rings doorbells on real (simulated) registers; the
//! monitor never sees a packet. The hosted-VMM baseline, by contrast,
//! intercepts every one of these register accesses.
//!
//! ## Descriptor format (16 bytes, little-endian words)
//!
//! | word | TX meaning | RX meaning |
//! |------|------------|------------|
//! | 0 | buffer physical address | buffer physical address |
//! | 1 | fragment length in bytes | buffer capacity in bytes |
//! | 2 | flags: bit 0 = more fragments follow | written by hw: received length |
//! | 3 | status: hw writes 1 done / 2 error | same |
//!
//! A TX *frame* is one or more consecutive descriptors; every descriptor
//! with flag bit 0 set chains to the next, and the frame ends at the first
//! descriptor with the bit clear (max [`MAX_FRAGS`] fragments). This is the
//! scatter-gather facility real gigabit NICs provide, and it is what lets a
//! zero-copy driver prepend protocol headers without copying payload.
//!
//! Ring indices wrap at the ring length; `head` is hardware's consumer
//! index, `tail` is software's producer index; the ring is empty when
//! `head == tail`.

use crate::event::{Event, EventQueue};
use crate::pic::Hpic;
use crate::ram::Ram;
use crate::timing::{self, FRAME_WIRE_OVERHEAD, MIN_FRAME};
use hx_cpu::{BusFault, MemSize};
use hx_obs::{Dev, EventKind, Recorder};
use std::collections::VecDeque;
use std::fmt;

/// Register offsets within the NIC page.
pub mod reg {
    /// TX ring physical base address.
    pub const TX_BASE: u32 = 0x00;
    /// TX ring length in descriptors.
    pub const TX_LEN: u32 = 0x04;
    /// TX hardware consumer index (read-only).
    pub const TX_HEAD: u32 = 0x08;
    /// TX software producer index; writing is the doorbell.
    pub const TX_TAIL: u32 = 0x0c;
    /// Interrupt status (read-only): see [`super::istatus`].
    pub const ISTATUS: u32 = 0x10;
    /// Interrupt acknowledge: write-1-to-clear status bits.
    pub const IACK: u32 = 0x14;
    /// TX interrupt moderation: frames per interrupt (0/1 = every frame).
    pub const MODERATION: u32 = 0x18;
    /// RX ring physical base address.
    pub const RX_BASE: u32 = 0x20;
    /// RX ring length in descriptors.
    pub const RX_LEN: u32 = 0x24;
    /// RX hardware producer index (read-only).
    pub const RX_HEAD: u32 = 0x28;
    /// RX software free-buffer index; writing is the doorbell.
    pub const RX_TAIL: u32 = 0x2c;
}

/// Interrupt-status bits.
pub mod istatus {
    /// One or more TX frames completed.
    pub const TX_DONE: u32 = 1 << 0;
    /// One or more RX frames delivered.
    pub const RX: u32 = 1 << 1;
    /// A descriptor error occurred.
    pub const ERROR: u32 = 1 << 2;
}

/// Maximum frame the controller will serialize (jumbo-free 1500-byte MTU
/// plus headers, rounded up).
pub const MAX_FRAME: u32 = 1600;

/// Maximum TX fragments per frame.
pub const MAX_FRAGS: u32 = 4;

/// TX descriptor flag: more fragments follow in this frame.
pub const FLAG_MORE: u32 = 1;

/// Traffic counters maintained by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// Frames fully serialized onto the wire.
    pub tx_frames: u64,
    /// Payload bytes of those frames (excluding wire overhead).
    pub tx_bytes: u64,
    /// On-wire bytes including preamble/FCS/IFG and minimum-frame padding.
    pub tx_wire_bytes: u64,
    /// TX descriptor errors.
    pub tx_errors: u64,
    /// Frames delivered into the RX ring.
    pub rx_frames: u64,
    /// Payload bytes delivered.
    pub rx_bytes: u64,
    /// Frames dropped because no RX buffer fit.
    pub rx_dropped: u64,
    /// TX completion interrupts raised (for moderation ablations).
    pub tx_irqs: u64,
    /// Rolling FNV-1a checksum over every transmitted payload byte, for
    /// end-to-end integrity checks against the disk pattern.
    pub tx_checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds bytes into a running FNV-1a checksum (used by [`NicCounters`]).
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The network-controller state.
#[derive(Clone)]
pub struct Nic {
    tx_base: u32,
    tx_len: u32,
    tx_head: u32,
    tx_tail: u32,
    tx_active: bool,
    in_flight: Option<(u32, u32, Vec<u8>)>, // (first descriptor, count, payload)
    rx_base: u32,
    rx_len: u32,
    rx_head: u32,
    rx_tail: u32,
    rx_queue: VecDeque<Vec<u8>>,
    istatus: u32,
    moderation: u32,
    frames_since_irq: u32,
    counters: NicCounters,
    capture: Option<Vec<Vec<u8>>>,
    clock_hz: u64,
    wire_bps: u64,
    fetch_delay: u64,
}

impl fmt::Debug for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nic")
            .field("tx_head", &self.tx_head)
            .field("tx_tail", &self.tx_tail)
            .field("istatus", &self.istatus)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Nic {
    /// Creates a controller with the given clock and wire rate.
    pub fn new(clock_hz: u64, wire_bps: u64, fetch_delay: u64) -> Nic {
        Nic {
            tx_base: 0,
            tx_len: 0,
            tx_head: 0,
            tx_tail: 0,
            tx_active: false,
            in_flight: None,
            rx_base: 0,
            rx_len: 0,
            rx_head: 0,
            rx_tail: 0,
            rx_queue: VecDeque::new(),
            istatus: 0,
            moderation: 1,
            frames_since_irq: 0,
            counters: NicCounters::default(),
            capture: None,
            clock_hz,
            wire_bps,
            fetch_delay,
        }
    }

    /// Traffic counters.
    pub fn counters(&self) -> NicCounters {
        self.counters
    }

    /// Enables or disables frame capture (for tests; off by default).
    pub fn set_capture(&mut self, on: bool) {
        self.capture = if on { Some(Vec::new()) } else { None };
    }

    /// Takes all frames captured so far.
    pub fn take_captured(&mut self) -> Vec<Vec<u8>> {
        self.capture
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Host-side injection of a received frame; delivery into the guest RX
    /// ring happens one cycle later via the event queue.
    pub fn inject_rx(&mut self, frame: Vec<u8>, now: u64, events: &mut EventQueue) {
        self.rx_queue.push_back(frame);
        events.schedule(now + 1, Event::NicRxDeliver);
    }

    /// Forces an error completion, as fault injection does: the error bit
    /// latches in ISTATUS and the TX interrupt fires so the driver sees it.
    pub fn inject_error_completion(&mut self, now: u64, pic: &mut Hpic, obs: &mut Recorder) {
        self.counters.tx_errors += 1;
        self.raise(istatus::ERROR, pic, now, obs);
    }

    fn desc_addr(base: u32, index: u32) -> u32 {
        base.wrapping_add(index.wrapping_mul(16))
    }

    fn read_desc(mem: &Ram, base: u32, index: u32) -> Result<[u32; 4], BusFault> {
        let mut raw = [0u8; 16];
        mem.dma_read(Self::desc_addr(base, index), &mut raw)?;
        let w = |i: usize| u32::from_le_bytes(raw[i * 4..i * 4 + 4].try_into().unwrap());
        Ok([w(0), w(1), w(2), w(3)])
    }

    fn write_desc_word(mem: &mut Ram, base: u32, index: u32, word: usize, val: u32) {
        let _ = mem.dma_write(
            Self::desc_addr(base, index) + word as u32 * 4,
            &val.to_le_bytes(),
        );
    }

    fn raise(&mut self, bit: u32, pic: &mut Hpic, now: u64, obs: &mut Recorder) {
        self.istatus |= bit;
        let irq = if bit == istatus::RX {
            crate::map::irq::NIC_RX
        } else {
            crate::map::irq::NIC_TX
        };
        pic.assert_irq(irq);
        let (dev, irq) = (Dev::Nic, irq as u32);
        obs.emit(now, EventKind::Irq { dev, irq });
        if bit == istatus::TX_DONE {
            self.counters.tx_irqs += 1;
        }
    }

    /// Handles [`Event::NicTxKick`]: gathers the next TX frame's fragment
    /// chain and starts serializing it.
    pub fn on_tx_kick(
        &mut self,
        now: u64,
        mem: &mut Ram,
        pic: &mut Hpic,
        events: &mut EventQueue,
        obs: &mut Recorder,
    ) {
        if self.tx_active || self.tx_len == 0 || self.tx_head == self.tx_tail {
            return;
        }
        let first = self.tx_head;
        let mut payload = Vec::new();
        let mut count = 0u32;
        let mut idx = first;
        loop {
            if count == MAX_FRAGS || (count > 0 && idx == self.tx_tail) {
                // Over-long chain or chain runs off the posted descriptors.
                self.fail_tx_frame(first, count.max(1), mem, pic, events, now, obs);
                return;
            }
            let Ok([addr, len, flags, _status]) = Self::read_desc(mem, self.tx_base, idx) else {
                self.fail_tx_frame(first, count + 1, mem, pic, events, now, obs);
                return;
            };
            if len == 0 || payload.len() as u32 + len > MAX_FRAME {
                self.fail_tx_frame(first, count + 1, mem, pic, events, now, obs);
                return;
            }
            let start = payload.len();
            payload.resize(start + len as usize, 0);
            if mem.dma_read(addr, &mut payload[start..]).is_err() {
                self.fail_tx_frame(first, count + 1, mem, pic, events, now, obs);
                return;
            }
            count += 1;
            idx = (idx + 1) % self.tx_len;
            if flags & FLAG_MORE == 0 {
                break;
            }
        }
        let len = payload.len() as u32;
        // Hash the payload only in record mode; the digest is what the
        // divergence audit compares across platforms.
        let digest = if obs.journaling() {
            hx_obs::journal::digest(&payload)
        } else {
            0
        };
        let (dev, bytes) = (Dev::Nic, len);
        obs.emit(now, EventKind::Dma { dev, bytes, digest });
        let wire_bytes = len.max(MIN_FRAME - 4) + FRAME_WIRE_OVERHEAD;
        let cycles = timing::cycles_for_bits(wire_bytes as u64 * 8, self.clock_hz, self.wire_bps);
        self.tx_active = true;
        self.in_flight = Some((first, count, payload));
        self.counters.tx_wire_bytes += wire_bytes as u64;
        events.schedule(now + cycles.max(1), Event::NicTxDone);
    }

    #[allow(clippy::too_many_arguments)]
    fn fail_tx_frame(
        &mut self,
        first: u32,
        count: u32,
        mem: &mut Ram,
        pic: &mut Hpic,
        events: &mut EventQueue,
        now: u64,
        obs: &mut Recorder,
    ) {
        for k in 0..count {
            let idx = (first + k) % self.tx_len.max(1);
            Self::write_desc_word(mem, self.tx_base, idx, 3, 2);
        }
        self.tx_head = (first + count) % self.tx_len.max(1);
        self.counters.tx_errors += 1;
        self.raise(istatus::ERROR, pic, now, obs);
        if self.tx_head != self.tx_tail {
            events.schedule(now + self.fetch_delay, Event::NicTxKick);
        }
    }

    /// Handles [`Event::NicTxDone`]: completes the in-flight frame, raises
    /// the moderated completion interrupt, and chains to the next frame.
    pub fn on_tx_done(
        &mut self,
        now: u64,
        mem: &mut Ram,
        pic: &mut Hpic,
        events: &mut EventQueue,
        obs: &mut Recorder,
    ) {
        let Some((first, count, payload)) = self.in_flight.take() else {
            return;
        };
        self.tx_active = false;
        self.counters.tx_frames += 1;
        self.counters.tx_bytes += payload.len() as u64;
        self.counters.tx_checksum = fnv1a(
            if self.counters.tx_checksum == 0 {
                FNV_OFFSET
            } else {
                self.counters.tx_checksum
            },
            &payload,
        );
        if let Some(cap) = &mut self.capture {
            cap.push(payload);
        }
        for k in 0..count {
            let idx = (first + k) % self.tx_len.max(1);
            Self::write_desc_word(mem, self.tx_base, idx, 3, 1);
        }
        self.tx_head = (first + count) % self.tx_len.max(1);
        self.frames_since_irq += 1;
        // Count-based moderation (like a hardware interrupt-throttle
        // register): the interrupt fires every N completions, never merely
        // because the ring drained — drivers poll the head index for
        // reclaim and only need the interrupt as a wake-up.
        if self.frames_since_irq >= self.moderation.max(1) {
            self.frames_since_irq = 0;
            self.raise(istatus::TX_DONE, pic, now, obs);
        }
        if self.tx_head != self.tx_tail {
            events.schedule(now + self.fetch_delay, Event::NicTxKick);
        }
    }

    /// Handles [`Event::NicRxDeliver`]: moves queued frames into free RX
    /// descriptors.
    pub fn on_rx_deliver(&mut self, now: u64, mem: &mut Ram, pic: &mut Hpic, obs: &mut Recorder) {
        let mut delivered = false;
        while !self.rx_queue.is_empty() && self.rx_len != 0 && self.rx_head != self.rx_tail {
            let frame = self.rx_queue.front().unwrap();
            let idx = self.rx_head;
            match Self::read_desc(mem, self.rx_base, idx) {
                Ok([addr, cap, _, _]) => {
                    if frame.len() as u32 > cap {
                        self.counters.rx_dropped += 1;
                        self.rx_queue.pop_front();
                        continue;
                    }
                    let frame = self.rx_queue.pop_front().unwrap();
                    if mem.dma_write(addr, &frame).is_err() {
                        Self::write_desc_word(mem, self.rx_base, idx, 3, 2);
                    } else {
                        Self::write_desc_word(mem, self.rx_base, idx, 2, frame.len() as u32);
                        Self::write_desc_word(mem, self.rx_base, idx, 3, 1);
                        self.counters.rx_frames += 1;
                        self.counters.rx_bytes += frame.len() as u64;
                        let digest = if obs.journaling() {
                            hx_obs::journal::digest(&frame)
                        } else {
                            0
                        };
                        let (dev, bytes) = (Dev::Nic, frame.len() as u32);
                        obs.emit(now, EventKind::Dma { dev, bytes, digest });
                    }
                    self.rx_head = (self.rx_head + 1) % self.rx_len.max(1);
                    delivered = true;
                }
                Err(_) => {
                    self.counters.rx_dropped += 1;
                    self.rx_queue.pop_front();
                }
            }
        }
        if delivered {
            self.raise(istatus::RX, pic, now, obs);
        }
    }

    /// MMIO register read.
    ///
    /// # Errors
    ///
    /// [`BusFault::Denied`] for non-word access or unknown offsets.
    pub fn read_reg(&mut self, offset: u32, size: MemSize) -> Result<u32, BusFault> {
        if size != MemSize::Word {
            return Err(BusFault::Denied);
        }
        match offset {
            reg::TX_BASE => Ok(self.tx_base),
            reg::TX_LEN => Ok(self.tx_len),
            reg::TX_HEAD => Ok(self.tx_head),
            reg::TX_TAIL => Ok(self.tx_tail),
            reg::ISTATUS => Ok(self.istatus),
            reg::MODERATION => Ok(self.moderation),
            reg::RX_BASE => Ok(self.rx_base),
            reg::RX_LEN => Ok(self.rx_len),
            reg::RX_HEAD => Ok(self.rx_head),
            reg::RX_TAIL => Ok(self.rx_tail),
            _ => Err(BusFault::Denied),
        }
    }

    /// MMIO register write. Tail writes are doorbells and schedule ring
    /// processing.
    ///
    /// # Errors
    ///
    /// [`BusFault::Denied`] for non-word access, read-only or unknown
    /// offsets.
    pub fn write_reg(
        &mut self,
        offset: u32,
        val: u32,
        size: MemSize,
        now: u64,
        events: &mut EventQueue,
    ) -> Result<(), BusFault> {
        if size != MemSize::Word {
            return Err(BusFault::Denied);
        }
        match offset {
            reg::TX_BASE => self.tx_base = val,
            reg::TX_LEN => self.tx_len = val,
            reg::TX_TAIL => {
                self.tx_tail = if self.tx_len == 0 {
                    val
                } else {
                    val % self.tx_len
                };
                if !self.tx_active && self.tx_head != self.tx_tail {
                    events.schedule(now + self.fetch_delay, Event::NicTxKick);
                }
            }
            reg::IACK => self.istatus &= !val,
            reg::MODERATION => self.moderation = val,
            reg::RX_BASE => self.rx_base = val,
            reg::RX_LEN => self.rx_len = val,
            reg::RX_TAIL => {
                self.rx_tail = if self.rx_len == 0 {
                    val
                } else {
                    val % self.rx_len
                };
                if !self.rx_queue.is_empty() {
                    events.schedule(now + 1, Event::NicRxDeliver);
                }
            }
            _ => return Err(BusFault::Denied),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: u64 = 25_000_000;
    const WIRE: u64 = 1_000_000_000;

    fn setup() -> (Nic, Ram, Hpic, EventQueue) {
        (
            Nic::new(CLOCK, WIRE, 40),
            Ram::new(256 * 1024),
            Hpic::new(),
            EventQueue::new(),
        )
    }

    /// Writes a TX descriptor and its payload into memory.
    fn stage_frame(mem: &mut Ram, ring: u32, idx: u32, buf: u32, payload: &[u8]) {
        mem.dma_write(buf, payload).unwrap();
        let d = ring + idx * 16;
        mem.dma_write(d, &buf.to_le_bytes()).unwrap();
        mem.dma_write(d + 4, &(payload.len() as u32).to_le_bytes())
            .unwrap();
        mem.dma_write(d + 8, &0u32.to_le_bytes()).unwrap();
        mem.dma_write(d + 12, &0u32.to_le_bytes()).unwrap();
    }

    fn run_events(nic: &mut Nic, mem: &mut Ram, pic: &mut Hpic, events: &mut EventQueue) -> u64 {
        let mut obs = Recorder::new();
        let mut now = 0;
        while let Some(due) = events.next_due() {
            now = due;
            match events.pop_due(now).unwrap().1 {
                Event::NicTxKick => nic.on_tx_kick(now, mem, pic, events, &mut obs),
                Event::NicTxDone => nic.on_tx_done(now, mem, pic, events, &mut obs),
                Event::NicRxDeliver => nic.on_rx_deliver(now, mem, pic, &mut obs),
                other => panic!("unexpected event {other:?}"),
            }
        }
        now
    }

    fn program_tx(nic: &mut Nic, events: &mut EventQueue, ring: u32, len: u32) {
        nic.write_reg(reg::TX_BASE, ring, MemSize::Word, 0, events)
            .unwrap();
        nic.write_reg(reg::TX_LEN, len, MemSize::Word, 0, events)
            .unwrap();
    }

    #[test]
    fn transmits_one_frame() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        nic.set_capture(true);
        stage_frame(&mut mem, 0x1000, 0, 0x4000, &[7u8; 1250]);
        program_tx(&mut nic, &mut events, 0x1000, 8);
        nic.write_reg(reg::TX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        let end = run_events(&mut nic, &mut mem, &mut pic, &mut events);
        // Serialization time: (1250+24) bytes at 1 Gb/s at 25 MHz ≈ 255
        // cycles, plus the 40-cycle fetch delay.
        assert!((255..=320).contains(&end), "end={end}");
        let c = nic.counters();
        assert_eq!(c.tx_frames, 1);
        assert_eq!(c.tx_bytes, 1250);
        assert_eq!(c.tx_irqs, 1);
        assert_eq!(nic.take_captured(), vec![vec![7u8; 1250]]);
        // Descriptor completed, head advanced, IRQ latched.
        assert_eq!(mem.word(0x1000 + 12), 1);
        assert_eq!(nic.read_reg(reg::TX_HEAD, MemSize::Word).unwrap(), 1);
        assert_eq!(pic.pending(), Some(crate::map::irq::NIC_TX));
        assert_eq!(
            nic.read_reg(reg::ISTATUS, MemSize::Word).unwrap(),
            istatus::TX_DONE
        );
        nic.write_reg(reg::IACK, istatus::TX_DONE, MemSize::Word, 0, &mut events)
            .unwrap();
        assert_eq!(nic.read_reg(reg::ISTATUS, MemSize::Word).unwrap(), 0);
    }

    #[test]
    fn moderation_batches_interrupts() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        for i in 0..6 {
            stage_frame(&mut mem, 0x1000, i, 0x4000 + i * 0x1000, &[i as u8; 1000]);
        }
        program_tx(&mut nic, &mut events, 0x1000, 8);
        nic.write_reg(reg::MODERATION, 4, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::TX_TAIL, 6, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        let c = nic.counters();
        assert_eq!(c.tx_frames, 6);
        // Count-based moderation: one IRQ after 4 frames; the remaining two
        // completions stay below the threshold (reclaim is by head polling).
        assert_eq!(c.tx_irqs, 1);
    }

    #[test]
    fn ring_wraps() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        program_tx(&mut nic, &mut events, 0x1000, 2);
        for round in 0..3u32 {
            let idx = round % 2;
            stage_frame(&mut mem, 0x1000, idx, 0x4000, &[round as u8; 100]);
            let tail = (idx + 1) % 2;
            nic.write_reg(reg::TX_TAIL, tail, MemSize::Word, 0, &mut events)
                .unwrap();
            run_events(&mut nic, &mut mem, &mut pic, &mut events);
        }
        assert_eq!(nic.counters().tx_frames, 3);
        assert_eq!(nic.read_reg(reg::TX_HEAD, MemSize::Word).unwrap(), 1);
    }

    #[test]
    fn bad_descriptor_reports_error_and_continues() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        // Descriptor 0: payload DMA out of range. Descriptor 1: fine.
        let d0 = 0x1000;
        mem.dma_write(d0, &0xffff_0000u32.to_le_bytes()).unwrap();
        mem.dma_write(d0 + 4, &100u32.to_le_bytes()).unwrap();
        stage_frame(&mut mem, 0x1000, 1, 0x4000, &[9u8; 100]);
        program_tx(&mut nic, &mut events, 0x1000, 8);
        nic.write_reg(reg::TX_TAIL, 2, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        let c = nic.counters();
        assert_eq!(c.tx_errors, 1);
        assert_eq!(c.tx_frames, 1);
        assert_eq!(mem.word(d0 + 12), 2, "error status written");
        assert_eq!(mem.word(d0 + 16 + 12), 1, "good frame completed");
        assert!(nic.read_reg(reg::ISTATUS, MemSize::Word).unwrap() & istatus::ERROR != 0);
    }

    #[test]
    fn zero_and_oversize_lengths_error() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        stage_frame(&mut mem, 0x1000, 0, 0x4000, &[]);
        program_tx(&mut nic, &mut events, 0x1000, 4);
        nic.write_reg(reg::TX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().tx_errors, 1);
        // Oversize.
        let d = 0x1000u32 + 16;
        mem.dma_write(d, &0x4000u32.to_le_bytes()).unwrap();
        mem.dma_write(d + 4, &(MAX_FRAME + 1).to_le_bytes())
            .unwrap();
        nic.write_reg(reg::TX_TAIL, 2, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().tx_errors, 2);
    }

    #[test]
    fn min_frame_padding_counts_on_wire() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        stage_frame(&mut mem, 0x1000, 0, 0x4000, &[1u8; 10]);
        program_tx(&mut nic, &mut events, 0x1000, 4);
        nic.write_reg(reg::TX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        let c = nic.counters();
        assert_eq!(c.tx_bytes, 10);
        assert_eq!(
            c.tx_wire_bytes,
            (MIN_FRAME - 4 + FRAME_WIRE_OVERHEAD) as u64
        );
    }

    #[test]
    fn rx_delivery_into_ring() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        // Two free RX buffers of 2 KiB each.
        for i in 0..2u32 {
            let d = 0x2000 + i * 16;
            mem.dma_write(d, &(0x8000 + i * 0x1000).to_le_bytes())
                .unwrap();
            mem.dma_write(d + 4, &2048u32.to_le_bytes()).unwrap();
        }
        nic.write_reg(reg::RX_BASE, 0x2000, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::RX_LEN, 4, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::RX_TAIL, 2, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.inject_rx(vec![0x55; 300], 0, &mut events);
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        let c = nic.counters();
        assert_eq!(c.rx_frames, 1);
        assert_eq!(c.rx_bytes, 300);
        assert_eq!(mem.word(0x2000 + 8), 300, "received length written");
        assert_eq!(mem.word(0x2000 + 12), 1);
        assert_eq!(mem.as_bytes()[0x8000], 0x55);
        assert_eq!(pic.pending(), Some(crate::map::irq::NIC_RX));
    }

    #[test]
    fn rx_waits_for_buffers() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        nic.write_reg(reg::RX_BASE, 0x2000, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::RX_LEN, 4, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.inject_rx(vec![1, 2, 3], 0, &mut events);
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().rx_frames, 0, "no buffers posted yet");
        // Post a buffer; the queued frame is delivered.
        let d = 0x2000;
        mem.dma_write(d, &0x8000u32.to_le_bytes()).unwrap();
        mem.dma_write(d + 4, &2048u32.to_le_bytes()).unwrap();
        nic.write_reg(reg::RX_TAIL, 1, MemSize::Word, 100, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().rx_frames, 1);
    }

    #[test]
    fn rx_oversize_dropped() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        let d = 0x2000;
        mem.dma_write(d, &0x8000u32.to_le_bytes()).unwrap();
        mem.dma_write(d + 4, &64u32.to_le_bytes()).unwrap();
        nic.write_reg(reg::RX_BASE, 0x2000, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::RX_LEN, 4, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.write_reg(reg::RX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        nic.inject_rx(vec![0; 200], 0, &mut events);
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().rx_dropped, 1);
        assert_eq!(nic.counters().rx_frames, 0);
    }

    #[test]
    fn scatter_gather_frame() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        nic.set_capture(true);
        // Fragment 0: 42-byte header with MORE flag; fragment 1: payload.
        mem.dma_write(0x4000, &[0xaa; 42]).unwrap();
        mem.dma_write(0x5000, &[0xbb; 1000]).unwrap();
        let d0 = 0x1000u32;
        mem.dma_write(d0, &0x4000u32.to_le_bytes()).unwrap();
        mem.dma_write(d0 + 4, &42u32.to_le_bytes()).unwrap();
        mem.dma_write(d0 + 8, &FLAG_MORE.to_le_bytes()).unwrap();
        let d1 = d0 + 16;
        mem.dma_write(d1, &0x5000u32.to_le_bytes()).unwrap();
        mem.dma_write(d1 + 4, &1000u32.to_le_bytes()).unwrap();
        mem.dma_write(d1 + 8, &0u32.to_le_bytes()).unwrap();
        program_tx(&mut nic, &mut events, 0x1000, 8);
        nic.write_reg(reg::TX_TAIL, 2, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        let frames = nic.take_captured();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].len(), 1042);
        assert_eq!(frames[0][0], 0xaa);
        assert_eq!(frames[0][41], 0xaa);
        assert_eq!(frames[0][42], 0xbb);
        // Both descriptors completed; head advanced by two.
        assert_eq!(mem.word(d0 + 12), 1);
        assert_eq!(mem.word(d1 + 12), 1);
        assert_eq!(nic.read_reg(reg::TX_HEAD, MemSize::Word).unwrap(), 2);
        assert_eq!(nic.counters().tx_frames, 1);
        assert_eq!(nic.counters().tx_bytes, 1042);
    }

    #[test]
    fn dangling_fragment_chain_errors() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        // A single descriptor claiming MORE with no follower posted.
        mem.dma_write(0x4000, &[1u8; 64]).unwrap();
        let d0 = 0x1000u32;
        mem.dma_write(d0, &0x4000u32.to_le_bytes()).unwrap();
        mem.dma_write(d0 + 4, &64u32.to_le_bytes()).unwrap();
        mem.dma_write(d0 + 8, &FLAG_MORE.to_le_bytes()).unwrap();
        program_tx(&mut nic, &mut events, 0x1000, 8);
        nic.write_reg(reg::TX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().tx_errors, 1);
        assert_eq!(nic.counters().tx_frames, 0);
    }

    #[test]
    fn checksum_tracks_payload() {
        let (mut nic, mut mem, mut pic, mut events) = setup();
        stage_frame(&mut mem, 0x1000, 0, 0x4000, b"hello");
        program_tx(&mut nic, &mut events, 0x1000, 4);
        nic.write_reg(reg::TX_TAIL, 1, MemSize::Word, 0, &mut events)
            .unwrap();
        run_events(&mut nic, &mut mem, &mut pic, &mut events);
        assert_eq!(nic.counters().tx_checksum, fnv1a(FNV_OFFSET, b"hello"));
    }
}
