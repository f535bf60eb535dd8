//! `Hpit`: an 8254-style programmable interval timer.
//!
//! One channel, counting in CPU cycles. Software programs a reload value and
//! enables the channel; the timer raises IRQ 0 when the count expires and,
//! in periodic mode, rearms itself. Like the interrupt controller, this is
//! one of the two devices the paper's monitor emulates for the guest, so the
//! `lvmm` crate reuses this type as its virtual timer.

use crate::event::{Event, EventQueue};
use crate::pic::Hpic;
use hx_cpu::{BusFault, MemSize};

/// Register offsets within the PIT page.
pub mod reg {
    /// Control: bit 0 enable, bit 1 periodic.
    pub const CTRL: u32 = 0x00;
    /// Reload value in CPU cycles (write rearms when enabled).
    pub const RELOAD: u32 = 0x04;
    /// Remaining cycles until expiry (read-only).
    pub const COUNT: u32 = 0x08;
}

/// Control-register bits.
pub mod ctrl {
    /// Channel enabled.
    pub const ENABLE: u32 = 1 << 0;
    /// Auto-rearm after each expiry.
    pub const PERIODIC: u32 = 1 << 1;
}

/// The timer state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hpit {
    enabled: bool,
    periodic: bool,
    reload: u32,
    next_due: Option<u64>,
    ticks: u64,
}

impl Hpit {
    /// Creates a disabled timer.
    pub fn new() -> Hpit {
        Hpit::default()
    }

    /// Expirations fired since reset.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Reload value currently programmed.
    pub fn reload(&self) -> u32 {
        self.reload
    }

    /// Is the channel enabled?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The cycle at which the timer next expires.
    pub fn next_due(&self) -> Option<u64> {
        self.next_due
    }

    fn arm(&mut self, now: u64, events: &mut EventQueue) {
        let due = now + self.reload.max(1) as u64;
        self.next_due = Some(due);
        events.schedule(due, Event::PitTick);
    }

    /// Handles a [`Event::PitTick`] that fired at `now`. Stale events (from
    /// reprogramming) are ignored by matching against the armed deadline.
    pub fn on_tick(
        &mut self,
        now: u64,
        pic: &mut Hpic,
        events: &mut EventQueue,
        obs: &mut hx_obs::Recorder,
    ) {
        if !self.enabled || self.next_due != Some(now) {
            return;
        }
        self.ticks += 1;
        pic.assert_irq(crate::map::irq::PIT);
        let (dev, irq) = (hx_obs::Dev::Pit, crate::map::irq::PIT as u32);
        obs.emit(now, hx_obs::EventKind::Irq { dev, irq });
        if self.periodic {
            self.arm(now, events);
        } else {
            self.enabled = false;
            self.next_due = None;
        }
    }

    /// MMIO register read.
    ///
    /// # Errors
    ///
    /// [`BusFault::Denied`] for non-word access or unknown offsets.
    pub fn read_reg(&mut self, offset: u32, size: MemSize, now: u64) -> Result<u32, BusFault> {
        if size != MemSize::Word {
            return Err(BusFault::Denied);
        }
        match offset {
            reg::CTRL => {
                let mut v = 0;
                if self.enabled {
                    v |= ctrl::ENABLE;
                }
                if self.periodic {
                    v |= ctrl::PERIODIC;
                }
                Ok(v)
            }
            reg::RELOAD => Ok(self.reload),
            reg::COUNT => Ok(self.next_due.map_or(0, |d| d.saturating_sub(now)) as u32),
            _ => Err(BusFault::Denied),
        }
    }

    /// MMIO register write.
    ///
    /// Writing `CTRL` with the enable bit set (re)arms the timer from `now`;
    /// clearing it cancels the pending expiry.
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
        match offset {
            reg::CTRL => {
                self.periodic = val & ctrl::PERIODIC != 0;
                if val & ctrl::ENABLE != 0 {
                    self.enabled = true;
                    self.arm(now, events);
                } else {
                    self.enabled = false;
                    self.next_due = None;
                }
                Ok(())
            }
            reg::RELOAD => {
                self.reload = val;
                Ok(())
            }
            _ => Err(BusFault::Denied),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_due(pit: &mut Hpit, pic: &mut Hpic, events: &mut EventQueue, now: u64) {
        while let Some((at, ev)) = events.pop_due(now) {
            assert_eq!(ev, Event::PitTick);
            pit.on_tick(at, pic, events, &mut hx_obs::Recorder::new());
        }
    }

    #[test]
    fn periodic_ticks() {
        let mut pit = Hpit::new();
        let mut pic = Hpic::new();
        let mut events = EventQueue::new();
        pit.write_reg(reg::RELOAD, 100, MemSize::Word, 0, &mut events)
            .unwrap();
        pit.write_reg(
            reg::CTRL,
            ctrl::ENABLE | ctrl::PERIODIC,
            MemSize::Word,
            0,
            &mut events,
        )
        .unwrap();
        assert_eq!(events.next_due(), Some(100));
        fire_due(&mut pit, &mut pic, &mut events, 100);
        assert_eq!(pit.ticks(), 1);
        assert_eq!(pic.pending(), Some(0));
        // Rearmed.
        assert_eq!(events.next_due(), Some(200));
        assert_eq!(pit.read_reg(reg::COUNT, MemSize::Word, 150).unwrap(), 50);
    }

    #[test]
    fn oneshot_disables_after_fire() {
        let mut pit = Hpit::new();
        let mut pic = Hpic::new();
        let mut events = EventQueue::new();
        pit.write_reg(reg::RELOAD, 10, MemSize::Word, 0, &mut events)
            .unwrap();
        pit.write_reg(reg::CTRL, ctrl::ENABLE, MemSize::Word, 0, &mut events)
            .unwrap();
        fire_due(&mut pit, &mut pic, &mut events, 10);
        assert_eq!(pit.ticks(), 1);
        assert!(!pit.enabled());
        assert!(events.is_empty());
    }

    #[test]
    fn reprogramming_cancels_stale_events() {
        let mut pit = Hpit::new();
        let mut pic = Hpic::new();
        let mut events = EventQueue::new();
        pit.write_reg(reg::RELOAD, 50, MemSize::Word, 0, &mut events)
            .unwrap();
        pit.write_reg(
            reg::CTRL,
            ctrl::ENABLE | ctrl::PERIODIC,
            MemSize::Word,
            0,
            &mut events,
        )
        .unwrap();
        // Reprogram before the first expiry: old event at 50 becomes stale.
        pit.write_reg(reg::RELOAD, 100, MemSize::Word, 20, &mut events)
            .unwrap();
        pit.write_reg(
            reg::CTRL,
            ctrl::ENABLE | ctrl::PERIODIC,
            MemSize::Word,
            20,
            &mut events,
        )
        .unwrap();
        fire_due(&mut pit, &mut pic, &mut events, 50);
        assert_eq!(pit.ticks(), 0, "stale event must not fire");
        fire_due(&mut pit, &mut pic, &mut events, 120);
        assert_eq!(pit.ticks(), 1);
    }

    #[test]
    fn disable_cancels() {
        let mut pit = Hpit::new();
        let mut pic = Hpic::new();
        let mut events = EventQueue::new();
        pit.write_reg(reg::RELOAD, 10, MemSize::Word, 0, &mut events)
            .unwrap();
        pit.write_reg(reg::CTRL, ctrl::ENABLE, MemSize::Word, 0, &mut events)
            .unwrap();
        pit.write_reg(reg::CTRL, 0, MemSize::Word, 5, &mut events)
            .unwrap();
        fire_due(&mut pit, &mut pic, &mut events, 10);
        assert_eq!(pit.ticks(), 0);
        assert_eq!(pic.pending(), None);
    }

    #[test]
    fn zero_reload_clamps_to_one() {
        let mut pit = Hpit::new();
        let mut events = EventQueue::new();
        pit.write_reg(reg::CTRL, ctrl::ENABLE, MemSize::Word, 7, &mut events)
            .unwrap();
        assert_eq!(events.next_due(), Some(8));
    }

    #[test]
    fn bad_access_denied() {
        let mut pit = Hpit::new();
        let mut events = EventQueue::new();
        assert_eq!(
            pit.read_reg(reg::CTRL, MemSize::Byte, 0),
            Err(BusFault::Denied)
        );
        assert_eq!(pit.read_reg(0x40, MemSize::Word, 0), Err(BusFault::Denied));
        assert_eq!(
            pit.write_reg(reg::COUNT, 1, MemSize::Word, 0, &mut events),
            Err(BusFault::Denied)
        );
    }
}
