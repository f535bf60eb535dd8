//! `Hdc`: a three-unit SCSI-like disk controller with DMA and completion
//! interrupts.
//!
//! Each unit has a small register block (`unit * 0x40` within the HDC page):
//! software programs an LBA, a sector count and a DMA address, then writes a
//! command to the doorbell. The controller models a fixed command overhead
//! plus media-rate-limited streaming, DMAs the data directly into guest
//! memory, and raises the unit's IRQ on completion — the access pattern of
//! the paper's streaming workload ("reads 2 MB data from three Ultra160
//! SCSI disks at constant rates").
//!
//! Disk *content* is synthetic and deterministic: byte `i` of sector `lba`
//! on unit `u` is [`disk_byte`]`(u, lba, i)`. Writes land in an overlay, so
//! read-back works. This replaces the paper's physical disks while keeping
//! the data-integrity checks end-to-end (the NIC sink can verify every
//! transmitted byte against [`disk_byte`]).

use crate::event::{Event, EventQueue};
use crate::pic::Hpic;
use crate::ram::Ram;
use crate::timing::{self, SECTOR_SIZE};
use hx_cpu::{BusFault, MemSize};
use hx_obs::{Dev, EventKind};
use std::collections::HashMap;

/// Number of disk units on the controller.
pub const UNITS: usize = 3;

/// Per-unit register offsets (relative to `unit * 0x40`).
pub mod reg {
    /// Logical block address of the first sector.
    pub const LBA: u32 = 0x00;
    /// Number of sectors to transfer.
    pub const COUNT: u32 = 0x04;
    /// Physical DMA address.
    pub const DMA: u32 = 0x08;
    /// Doorbell: write [`super::cmd::READ`] or [`super::cmd::WRITE`].
    pub const CMD: u32 = 0x0c;
    /// Status (read-only): see [`super::status`].
    pub const STATUS: u32 = 0x10;
}

/// Doorbell command codes.
pub mod cmd {
    /// Read sectors into memory.
    pub const READ: u32 = 1;
    /// Write sectors from memory.
    pub const WRITE: u32 = 2;
}

/// Status-register bits.
pub mod status {
    /// A command is in flight.
    pub const BUSY: u32 = 1 << 0;
    /// The last command completed (cleared by the next doorbell).
    pub const DONE: u32 = 1 << 1;
    /// The last command failed (bad DMA range or doorbell while busy).
    pub const ERROR: u32 = 1 << 2;
}

/// Deterministic content of byte `index` of sector `lba` on `unit`.
///
/// A cheap integer mix — stable across runs, different per position — so
/// integrity checks can recompute any byte the workload transmitted.
pub fn disk_byte(unit: u8, lba: u32, index: u32) -> u8 {
    let x = (unit as u64) << 56 | (lba as u64) << 24 | index as u64;
    let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    h as u8
}

/// Fills `buf` with the deterministic content starting at `(unit, lba)`.
pub fn fill_expected(unit: u8, lba: u32, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        let sector = lba + (i as u32 / SECTOR_SIZE);
        let off = i as u32 % SECTOR_SIZE;
        *b = disk_byte(unit, sector, off);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct UnitRegs {
    lba: u32,
    count: u32,
    dma: u32,
    busy: bool,
    done: bool,
    error: bool,
    /// The doorbell command in flight (`cmd::READ`/`cmd::WRITE`).
    op: u32,
    due: u64,
}

/// Per-controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdcStats {
    /// Commands accepted.
    pub commands: u64,
    /// Bytes transferred by completed commands.
    pub bytes: u64,
    /// Commands that ended in error.
    pub errors: u64,
}

/// The disk-controller state.
#[derive(Debug, Clone)]
pub struct Hdc {
    units: [UnitRegs; UNITS],
    overlay: HashMap<(u8, u32), Box<[u8]>>,
    clock_hz: u64,
    media_bps: u64,
    cmd_overhead: u64,
    stats: HdcStats,
}

impl Hdc {
    /// Creates a controller with the given clock and media timing.
    pub fn new(clock_hz: u64, media_bps: u64, cmd_overhead: u64) -> Hdc {
        Hdc {
            units: [UnitRegs::default(); UNITS],
            overlay: HashMap::new(),
            clock_hz,
            media_bps,
            cmd_overhead,
            stats: HdcStats::default(),
        }
    }

    /// Controller statistics.
    pub fn stats(&self) -> HdcStats {
        self.stats
    }

    /// Reads one sector's current content (overlay if written, synthetic
    /// otherwise) into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one sector.
    pub fn read_sector(&self, unit: u8, lba: u32, buf: &mut [u8]) {
        assert_eq!(buf.len(), SECTOR_SIZE as usize, "buffer must be one sector");
        if let Some(data) = self.overlay.get(&(unit, lba)) {
            buf.copy_from_slice(data);
        } else {
            fill_expected(unit, lba, buf);
        }
    }

    fn decode(offset: u32) -> Option<(usize, u32)> {
        let unit = (offset / 0x40) as usize;
        let reg = offset % 0x40;
        (unit < UNITS).then_some((unit, reg))
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
        let (unit, r) = Self::decode(offset).ok_or(BusFault::Denied)?;
        let u = &self.units[unit];
        match r {
            reg::LBA => Ok(u.lba),
            reg::COUNT => Ok(u.count),
            reg::DMA => Ok(u.dma),
            reg::STATUS => {
                let mut v = 0;
                if u.busy {
                    v |= status::BUSY;
                }
                if u.done {
                    v |= status::DONE;
                }
                if u.error {
                    v |= status::ERROR;
                }
                Ok(v)
            }
            _ => Err(BusFault::Denied),
        }
    }

    /// MMIO register write. A doorbell write starts a transfer and schedules
    /// its completion event.
    ///
    /// # Errors
    ///
    /// [`BusFault::Denied`] for non-word access or unknown offsets.
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
        let (unit, r) = Self::decode(offset).ok_or(BusFault::Denied)?;
        let u = &mut self.units[unit];
        match r {
            reg::LBA => u.lba = val,
            reg::COUNT => u.count = val,
            reg::DMA => u.dma = val,
            reg::CMD => {
                if u.busy || !matches!(val, cmd::READ | cmd::WRITE) || u.count == 0 {
                    u.error = true;
                    self.stats.errors += 1;
                } else {
                    u.busy = true;
                    u.done = false;
                    u.error = false;
                    u.op = val;
                    let bytes = u.count as u64 * SECTOR_SIZE as u64;
                    let cycles = self.cmd_overhead
                        + timing::cycles_for_bytes(bytes, self.clock_hz, self.media_bps);
                    u.due = now + cycles;
                    events.schedule(u.due, Event::HdcComplete { unit: unit as u8 });
                    self.stats.commands += 1;
                }
            }
            _ => return Err(BusFault::Denied),
        }
        Ok(())
    }

    /// Handles a [`Event::HdcComplete`]: performs the DMA, updates status
    /// and raises the unit's IRQ.
    pub fn on_complete(
        &mut self,
        unit: u8,
        now: u64,
        mem: &mut Ram,
        pic: &mut Hpic,
        obs: &mut hx_obs::Recorder,
    ) {
        let idx = unit as usize;
        if idx >= UNITS {
            return;
        }
        // Copy out what the DMA needs so `self` isn't double-borrowed.
        let (busy, due, op, lba, count, dma) = {
            let u = &self.units[idx];
            (u.busy, u.due, u.op, u.lba, u.count, u.dma)
        };
        if !busy || due != now {
            return; // stale event
        }
        let bytes = count as u64 * SECTOR_SIZE as u64;
        let mut failed = false;
        // Accumulate a payload digest across sectors only in record mode.
        let hashing = obs.journaling();
        let mut digest = hx_obs::journal::FNV_OFFSET;
        match op {
            cmd::READ => {
                let mut sector = vec![0u8; SECTOR_SIZE as usize];
                for s in 0..count {
                    self.read_sector(unit, lba + s, &mut sector);
                    if mem.dma_write(dma + s * SECTOR_SIZE, &sector).is_err() {
                        failed = true;
                        break;
                    }
                    if hashing {
                        digest = hx_obs::journal::fnv1a(digest, &sector);
                    }
                }
            }
            cmd::WRITE => {
                let mut sector = vec![0u8; SECTOR_SIZE as usize];
                for s in 0..count {
                    if mem.dma_read(dma + s * SECTOR_SIZE, &mut sector).is_err() {
                        failed = true;
                        break;
                    }
                    if hashing {
                        digest = hx_obs::journal::fnv1a(digest, &sector);
                    }
                    self.overlay
                        .insert((unit, lba + s), sector.clone().into_boxed_slice());
                }
            }
            _ => failed = true,
        }
        let u = &mut self.units[idx];
        u.busy = false;
        u.done = !failed;
        u.error = failed;
        if failed {
            self.stats.errors += 1;
        } else {
            self.stats.bytes += bytes;
            let (dev, bytes) = (Dev::Hdc, bytes.min(u32::MAX as u64) as u32);
            let digest = if hashing { digest } else { 0 };
            obs.emit(now, EventKind::Dma { dev, bytes, digest });
        }
        pic.assert_irq(crate::map::irq::HDC0 + unit);
        let irq = (crate::map::irq::HDC0 + unit) as u32;
        obs.emit(now, EventKind::Irq { dev: Dev::Hdc, irq });
    }

    /// Forces an error completion on `unit`, as fault injection does: any
    /// in-flight command is aborted (its scheduled completion event goes
    /// stale), the error bit is set, and the unit's IRQ fires so the driver
    /// sees the failure.
    pub fn inject_error_completion(
        &mut self,
        unit: u8,
        now: u64,
        pic: &mut Hpic,
        obs: &mut hx_obs::Recorder,
    ) {
        let idx = unit as usize;
        if idx >= UNITS {
            return;
        }
        let u = &mut self.units[idx];
        u.busy = false;
        u.done = false;
        u.error = true;
        self.stats.errors += 1;
        pic.assert_irq(crate::map::irq::HDC0 + unit);
        let irq = (crate::map::irq::HDC0 + unit) as u32;
        obs.emit(now, EventKind::Irq { dev: Dev::Hdc, irq });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Hdc, Ram, Hpic, EventQueue) {
        (
            Hdc::new(25_000_000, 40_000_000, 1_500),
            Ram::new(64 * 1024),
            Hpic::new(),
            EventQueue::new(),
        )
    }

    fn unit_reg(unit: u32, r: u32) -> u32 {
        unit * 0x40 + r
    }

    fn start_read(
        hdc: &mut Hdc,
        events: &mut EventQueue,
        unit: u32,
        lba: u32,
        count: u32,
        dma: u32,
        now: u64,
    ) {
        hdc.write_reg(unit_reg(unit, reg::LBA), lba, MemSize::Word, now, events)
            .unwrap();
        hdc.write_reg(
            unit_reg(unit, reg::COUNT),
            count,
            MemSize::Word,
            now,
            events,
        )
        .unwrap();
        hdc.write_reg(unit_reg(unit, reg::DMA), dma, MemSize::Word, now, events)
            .unwrap();
        hdc.write_reg(
            unit_reg(unit, reg::CMD),
            cmd::READ,
            MemSize::Word,
            now,
            events,
        )
        .unwrap();
    }

    #[test]
    fn read_dma_and_irq() {
        let (mut hdc, mut mem, mut pic, mut events) = setup();
        start_read(&mut hdc, &mut events, 1, 7, 2, 0x1000, 0);
        assert_eq!(
            hdc.read_reg(unit_reg(1, reg::STATUS), MemSize::Word)
                .unwrap(),
            status::BUSY
        );
        let due = events.next_due().unwrap();
        // 1024 bytes at 40 MB/s at 25 MHz = 640 cycles + 1500 overhead.
        assert_eq!(due, 1500 + 640);
        assert_eq!(
            events.pop_due(due),
            Some((due, Event::HdcComplete { unit: 1 }))
        );
        hdc.on_complete(1, due, &mut mem, &mut pic, &mut hx_obs::Recorder::new());
        assert_eq!(
            hdc.read_reg(unit_reg(1, reg::STATUS), MemSize::Word)
                .unwrap(),
            status::DONE
        );
        assert_eq!(pic.pending(), Some(crate::map::irq::HDC1));
        // Data matches the deterministic pattern.
        let mut expect = vec![0u8; 1024];
        fill_expected(1, 7, &mut expect);
        assert_eq!(&mem.as_bytes()[0x1000..0x1400], &expect[..]);
        assert_eq!(hdc.stats().bytes, 1024);
    }

    #[test]
    fn write_then_read_back_overlay() {
        let (mut hdc, mut mem, mut pic, mut events) = setup();
        mem.dma_write(0x2000, &[0xabu8; 512]).unwrap();
        hdc.write_reg(unit_reg(0, reg::LBA), 3, MemSize::Word, 0, &mut events)
            .unwrap();
        hdc.write_reg(unit_reg(0, reg::COUNT), 1, MemSize::Word, 0, &mut events)
            .unwrap();
        hdc.write_reg(unit_reg(0, reg::DMA), 0x2000, MemSize::Word, 0, &mut events)
            .unwrap();
        hdc.write_reg(
            unit_reg(0, reg::CMD),
            cmd::WRITE,
            MemSize::Word,
            0,
            &mut events,
        )
        .unwrap();
        let due = events.next_due().unwrap();
        events.pop_due(due);
        hdc.on_complete(0, due, &mut mem, &mut pic, &mut hx_obs::Recorder::new());
        let mut buf = vec![0u8; 512];
        hdc.read_sector(0, 3, &mut buf);
        assert_eq!(buf, vec![0xab; 512]);
        // Unwritten sector still synthetic.
        hdc.read_sector(0, 4, &mut buf);
        assert_eq!(buf[0], disk_byte(0, 4, 0));
    }

    #[test]
    fn doorbell_while_busy_is_error() {
        let (mut hdc, _mem, _pic, mut events) = setup();
        start_read(&mut hdc, &mut events, 0, 0, 1, 0x1000, 0);
        hdc.write_reg(
            unit_reg(0, reg::CMD),
            cmd::READ,
            MemSize::Word,
            10,
            &mut events,
        )
        .unwrap();
        let s = hdc
            .read_reg(unit_reg(0, reg::STATUS), MemSize::Word)
            .unwrap();
        assert!(s & status::ERROR != 0);
        assert!(s & status::BUSY != 0, "original command still runs");
        assert_eq!(hdc.stats().errors, 1);
    }

    #[test]
    fn bad_dma_sets_error() {
        let (mut hdc, mut mem, mut pic, mut events) = setup();
        start_read(&mut hdc, &mut events, 2, 0, 1, 0xffff_0000, 0);
        let due = events.next_due().unwrap();
        events.pop_due(due);
        hdc.on_complete(2, due, &mut mem, &mut pic, &mut hx_obs::Recorder::new());
        let s = hdc
            .read_reg(unit_reg(2, reg::STATUS), MemSize::Word)
            .unwrap();
        assert!(s & status::ERROR != 0);
        assert!(s & status::DONE == 0);
        // IRQ still raised so the driver sees the failure.
        assert_eq!(pic.pending(), Some(crate::map::irq::HDC2));
    }

    #[test]
    fn zero_count_and_bad_command_rejected() {
        let (mut hdc, _mem, _pic, mut events) = setup();
        hdc.write_reg(unit_reg(0, reg::COUNT), 0, MemSize::Word, 0, &mut events)
            .unwrap();
        hdc.write_reg(
            unit_reg(0, reg::CMD),
            cmd::READ,
            MemSize::Word,
            0,
            &mut events,
        )
        .unwrap();
        assert!(
            hdc.read_reg(unit_reg(0, reg::STATUS), MemSize::Word)
                .unwrap()
                & status::ERROR
                != 0
        );
        hdc.write_reg(unit_reg(0, reg::COUNT), 1, MemSize::Word, 0, &mut events)
            .unwrap();
        hdc.write_reg(unit_reg(0, reg::CMD), 9, MemSize::Word, 0, &mut events)
            .unwrap();
        assert!(
            hdc.read_reg(unit_reg(0, reg::STATUS), MemSize::Word)
                .unwrap()
                & status::ERROR
                != 0
        );
        assert!(events.is_empty());
    }

    #[test]
    fn units_are_independent() {
        let (mut hdc, mut mem, mut pic, mut events) = setup();
        start_read(&mut hdc, &mut events, 0, 0, 1, 0x1000, 0);
        start_read(&mut hdc, &mut events, 1, 0, 1, 0x3000, 0);
        let due = events.next_due().unwrap();
        while let Some((at, ev)) = events.pop_due(due) {
            if let Event::HdcComplete { unit } = ev {
                hdc.on_complete(unit, at, &mut mem, &mut pic, &mut hx_obs::Recorder::new());
            }
        }
        assert!(
            hdc.read_reg(unit_reg(0, reg::STATUS), MemSize::Word)
                .unwrap()
                & status::DONE
                != 0
        );
        assert!(
            hdc.read_reg(unit_reg(1, reg::STATUS), MemSize::Word)
                .unwrap()
                & status::DONE
                != 0
        );
        // Same LBA on different units yields different content.
        assert_ne!(mem.word(0x1000), mem.word(0x3000));
    }

    #[test]
    fn out_of_range_unit_denied() {
        let (mut hdc, _mem, _pic, mut events) = setup();
        assert_eq!(hdc.read_reg(3 * 0x40, MemSize::Word), Err(BusFault::Denied));
        assert_eq!(
            hdc.write_reg(3 * 0x40 + reg::CMD, 1, MemSize::Word, 0, &mut events),
            Err(BusFault::Denied)
        );
        assert_eq!(hdc.read_reg(reg::LBA, MemSize::Half), Err(BusFault::Denied));
    }

    #[test]
    fn disk_byte_is_deterministic_and_varied() {
        assert_eq!(disk_byte(0, 0, 0), disk_byte(0, 0, 0));
        let a: Vec<u8> = (0..64).map(|i| disk_byte(0, 0, i)).collect();
        let b: Vec<u8> = (0..64).map(|i| disk_byte(1, 0, i)).collect();
        assert_ne!(a, b);
        let distinct: std::collections::HashSet<u8> = a.iter().copied().collect();
        assert!(distinct.len() > 16, "content should look random-ish");
    }
}
