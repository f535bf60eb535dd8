//! `HostedPlatform`: the guest under the hosted full monitor.
//!
//! CPU virtualization (ring compression, virtual CSRs, shadow paging) and
//! every exit path are the lightweight monitor's: this platform plugs its
//! policy into the shared trap-and-emulate core, [`lvmm::virt`]. The
//! difference is device policy: **nothing** is passed through. Every device
//! page the guest touches is emulated, and disk/NIC data is relayed through
//! the modeled host OS with world switches, host stack costs and extra
//! copies ([`crate::costs`]).

use crate::costs;
use crate::vdev::{VDisk, VNic, DISK_BOUNCE_SECTORS, HOST_BUF_SIZE, HOST_RING_LEN};
use hx_cpu::trap::Trap;
use hx_cpu::MemSize;
use hx_machine::engine::ExitPolicy;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, Platform, TimeBucket, TimeStats};
use hx_obs::ExitCause;
use lvmm::vcpu::VCpu;
use lvmm::virt::{ExitCosts, VirtCore, VirtPolicy};

/// Hosted-monitor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostedConfig {
    /// RAM reserved for the monitor + host OS model (shadow tables, bounce
    /// buffers, host device rings).
    pub host_mem: u32,
}

impl Default for HostedConfig {
    fn default() -> Self {
        HostedConfig {
            host_mem: 4 * 1024 * 1024,
        }
    }
}

/// Exit and relay counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostedStats {
    /// Privileged-instruction emulations.
    pub exits_privileged: u64,
    /// Emulated device-register accesses (every device!).
    pub exits_mmio: u64,
    /// Shadow fills.
    pub exits_shadow: u64,
    /// Real interrupts taken by the monitor/host.
    pub exits_irq: u64,
    /// Virtual interrupts injected into the guest.
    pub irqs_injected: u64,
    /// Guest faults re-injected.
    pub faults_injected: u64,
    /// World switches performed by the host relay (derived from costs).
    pub host_relay_ops: u64,
    /// Protection violations blocked.
    pub protection_violations: u64,
}

/// The hosted full-VMM platform (see the [module docs](self)).
#[derive(Debug)]
pub struct HostedPlatform {
    core: VirtCore,
    vdisk: VDisk,
    vnic: VNic,
    host_relay_ops: u64,
}

impl HostedPlatform {
    /// Installs the hosted monitor and prepares the guest to boot at
    /// `entry` (image already loaded).
    ///
    /// # Panics
    ///
    /// Panics if RAM is too small for the host region.
    pub fn new(machine: Machine, entry: u32) -> HostedPlatform {
        Self::with_config(machine, entry, HostedConfig::default())
    }

    /// [`HostedPlatform::new`] with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if RAM is too small for the host region.
    pub fn with_config(machine: Machine, entry: u32, cfg: HostedConfig) -> HostedPlatform {
        let ram_size = machine.config().ram_size as u32;
        assert!(cfg.host_mem < ram_size, "host region exceeds RAM");
        let monitor_base = ram_size - cfg.host_mem;

        // Host memory layout: shadow pool, then bounce/ring area.
        let shadow_end = monitor_base + 2 * 1024 * 1024;
        assert!(shadow_end < ram_size, "host region too small");
        let mut cursor = shadow_end;
        let mut take = |bytes: u32| {
            let a = cursor;
            cursor += bytes;
            assert!(cursor <= ram_size, "host region layout overflow");
            a
        };
        let disk_bounce = [
            take(DISK_BOUNCE_SECTORS * 512),
            take(DISK_BOUNCE_SECTORS * 512),
            take(DISK_BOUNCE_SECTORS * 512),
        ];
        let host_ring = take(HOST_RING_LEN * 16);
        let host_bufs = take(HOST_RING_LEN * HOST_BUF_SIZE);

        let mut core = VirtCore::new(machine, entry, monitor_base, shadow_end);
        let vnic = VNic::new(&mut core.machine, host_ring, host_bufs);
        HostedPlatform {
            core,
            vdisk: VDisk::new(disk_bounce),
            vnic,
            host_relay_ops: 0,
        }
    }

    /// Monitor/host counters.
    pub fn hosted_stats(&self) -> HostedStats {
        let e = self.core.exits;
        HostedStats {
            exits_privileged: e.exits_privileged,
            exits_mmio: e.exits_mmio,
            exits_shadow: e.exits_shadow,
            exits_irq: e.exits_irq_reflect,
            irqs_injected: e.irqs_injected,
            faults_injected: e.faults_injected,
            host_relay_ops: self.host_relay_ops,
            protection_violations: e.protection_violations,
        }
    }

    /// The guest's virtual CPU (tests/diagnostics).
    pub fn vcpu(&self) -> &VCpu {
        &self.core.vcpu
    }

    /// Frames the virtual NIC relayed to the wire.
    pub fn relayed_tx_frames(&self) -> u64 {
        self.vnic.tx_frames
    }

    /// Injects a frame from the outside world into the guest's virtual RX
    /// ring via the host model.
    pub fn inject_guest_rx(&mut self, frame: &[u8]) {
        // This path bypasses `Machine::nic_inject_rx` (frames enter through
        // the host model, not the passthrough NIC), so it must journal the
        // nondeterministic input itself.
        if self.core.machine.obs.journaling() {
            let now = self.core.machine.now();
            self.core
                .machine
                .obs
                .journal_input(now, hx_obs::JournalInput::NicRx(frame.to_vec()));
        }
        let (ok, host) = self.vnic.deliver_rx(&mut self.core.machine, frame);
        self.consume_host(host);
        if ok {
            self.core.chipset.vpic.assert_irq(map::irq::NIC_RX);
            self.maybe_inject_irq();
        }
    }

    fn consume_host(&mut self, cycles: u64) {
        if cycles > 0 {
            self.consume(TimeBucket::HostModel, cycles);
            self.host_relay_ops += 1;
            // Every relay op is one `host-relay` histogram entry: the cost
            // of bouncing a device operation through the modeled host OS.
            self.record_exit(ExitCause::HostRelay, cycles);
        }
    }
}

impl VirtPolicy for HostedPlatform {
    const COSTS: ExitCosts = ExitCosts {
        exit: costs::EXIT_BASE,
        reflect_irq: 0,
        dev_reg: costs::EMUL_DEV_REG,
    };
    // The defining property of the hosted monitor: *all* devices are
    // emulated, including the high-throughput ones.
    const PASSTHROUGH: bool = false;

    fn core(&self) -> &VirtCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut VirtCore {
        &mut self.core
    }

    fn route_irq(&mut self, irq: u8) {
        match irq {
            map::irq::PIT => self.core.chipset.vpic.assert_irq(map::irq::PIT),
            map::irq::UART => {
                // No debug stub in the hosted monitor: the host consumes
                // its own serial traffic.
                while self.core.machine.uart.pop_rx().is_some() {}
            }
            map::irq::HDC0 | map::irq::HDC1 | map::irq::HDC2 => {
                let unit = (irq - map::irq::HDC0) as usize;
                let (done, host) = self.vdisk.on_host_complete(&mut self.core.machine, unit);
                self.consume_host(host);
                if done {
                    self.core.chipset.vpic.assert_irq(irq);
                }
            }
            map::irq::NIC_TX => {
                let (raise, host) = self.vnic.on_host_tx_complete(&mut self.core.machine);
                self.consume_host(host);
                if raise {
                    self.core.chipset.vpic.assert_irq(map::irq::NIC_TX);
                }
            }
            // Host-side receive: frames enter via `inject_guest_rx`.
            _ => {}
        }
    }

    fn relay_read(&mut self, page: u32, offset: u32, gpa: u32) -> Option<u32> {
        Some(match page {
            map::HDC_BASE => {
                let (v, host) = self.vdisk.read_reg(offset);
                self.consume_host(host);
                v
            }
            map::NIC_BASE => self.vnic.read_reg(offset),
            // Tracepoint registers read as zero everywhere; route through
            // the machine bus so raw and hosted agree.
            map::TRACE_BASE => self
                .core
                .machine
                .bus_read(gpa, MemSize::Word)
                .unwrap_or_default(),
            _ => return None,
        })
    }

    fn relay_write(&mut self, page: u32, offset: u32, gpa: u32, val: u32) -> bool {
        match page {
            map::HDC_BASE => {
                let host = self.vdisk.write_reg(&mut self.core.machine, offset, val);
                self.consume_host(host);
            }
            map::NIC_BASE => {
                let host = self.vnic.write_reg(&mut self.core.machine, offset, val);
                self.consume_host(host);
            }
            // Tracepoint store: forward to the machine bus, where the
            // causal/journal hooks live, so guest tracepoints behave
            // identically on all three platforms.
            map::TRACE_BASE => {
                let _ = self.core.machine.bus_write(gpa, val, MemSize::Word);
            }
            _ => return false,
        }
        true
    }
}

impl ExitPolicy for HostedPlatform {
    fn mach(&self) -> &Machine {
        &self.core.machine
    }

    fn mach_mut(&mut self) -> &mut Machine {
        &mut self.core.machine
    }

    fn time_stats_mut(&mut self) -> &mut TimeStats {
        &mut self.core.stats
    }

    fn handle_trap(&mut self, trap: Trap) {
        self.dispatch_trap(trap);
    }

    fn handle_interrupt(&mut self, irq: u8, _vector: u8) {
        self.take_interrupt(irq);
    }
}

impl Platform for HostedPlatform {
    fn name(&self) -> &'static str {
        "hosted"
    }

    fn inject_rx_frame(&mut self, frame: &[u8]) {
        self.inject_guest_rx(frame);
    }

    fn machine(&self) -> &Machine {
        &self.core.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.core.machine
    }

    fn time_stats(&self) -> &TimeStats {
        &self.core.stats
    }

    fn step(&mut self) -> PlatformStep {
        // The profiler and logpoints need per-instruction PC boundaries.
        let batch = !self.core.machine.obs.profiling() && !self.core.machine.has_logpoints();
        self.step_state(batch)
    }

    fn step_precise(&mut self) -> PlatformStep {
        self.step_state(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_machine::MachineConfig;

    fn boot(src: &str) -> HostedPlatform {
        let program = hx_asm::assemble(src).expect("guest assembles");
        let mut machine = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let entry = program.symbols.get("start").unwrap_or(program.base());
        HostedPlatform::new(machine, entry)
    }

    #[test]
    fn disk_read_through_host_relay() {
        let mut vmm = boot(&format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 3
                     sw   t1, 0(t0)
                     li   t1, 1
                     sw   t1, 4(t0)
                     li   t1, 0x9000
                     sw   t1, 8(t0)
                     li   t1, 1
                     sw   t1, 0xc(t0)
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            hdc = map::HDC_BASE
        ));
        vmm.run_for(2_000_000);
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R18),
            1,
            "transfer completed"
        );
        let mut expect = vec![0u8; 512];
        hx_machine::disk::fill_expected(0, 3, &mut expect);
        assert_eq!(&vmm.machine().mem.as_bytes()[0x9000..0x9200], &expect[..]);
        let hs = vmm.hosted_stats();
        assert!(
            hs.exits_mmio > 4,
            "every register access is an exit: {hs:?}"
        );
        assert!(vmm.time_stats().host_model > 0, "host relay time charged");
    }

    #[test]
    fn nic_tx_through_host_relay() {
        let mut vmm = boot(&format!(
            "start:  ; build one 600-byte frame at 0x4000 (contents: zeros)
                     li   t0, 0x1000         ; ring
                     li   t1, 0x4000
                     sw   t1, 0(t0)          ; desc.addr
                     li   t1, 600
                     sw   t1, 4(t0)          ; desc.len
                     sw   zero, 12(t0)       ; desc.status
                     li   t0, {nic:#x}
                     li   t1, 0x1000
                     sw   t1, 0(t0)          ; TX_BASE
                     li   t1, 8
                     sw   t1, 4(t0)          ; TX_LEN
                     li   t1, 1
                     sw   t1, 0xc(t0)        ; TX_TAIL doorbell
             poll:   lw   t2, 8(t0)          ; TX_HEAD
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            nic = map::NIC_BASE
        ));
        vmm.run_for(3_000_000);
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R18),
            1,
            "frame completed"
        );
        assert_eq!(vmm.relayed_tx_frames(), 1);
        let c = vmm.machine().nic.counters();
        assert_eq!(c.tx_frames, 1, "the real wire saw the frame");
        assert_eq!(c.tx_bytes, 600);
        assert!(vmm.time_stats().host_model as f64 > costs::HOST_PACKET_TX as f64);
    }

    #[test]
    fn hosted_io_costs_more_than_lvmm() {
        // The same single-sector disk read on both monitors; the hosted one
        // must burn more monitor+host cycles. This is the paper's central
        // comparison in miniature.
        let src = format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 3
                     sw   t1, 0(t0)
                     li   t1, 1
                     sw   t1, 4(t0)
                     li   t1, 0x9000
                     sw   t1, 8(t0)
                     li   t1, 1
                     sw   t1, 0xc(t0)
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            hdc = map::HDC_BASE
        );
        let program = hx_asm::assemble(&src).unwrap();

        let mut m1 = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        m1.load_program(&program);
        let mut lv = lvmm::LvmmPlatform::new(m1, program.base());
        lv.run_for(2_000_000);
        assert_eq!(lv.machine().cpu.reg(hx_cpu::Reg::R18), 1);

        let mut m2 = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        m2.load_program(&program);
        let mut ho = HostedPlatform::new(m2, program.base());
        ho.run_for(2_000_000);
        assert_eq!(ho.machine().cpu.reg(hx_cpu::Reg::R18), 1);

        let lv_overhead = lv.time_stats().monitor + lv.time_stats().host_model;
        let ho_overhead = ho.time_stats().monitor + ho.time_stats().host_model;
        assert!(
            ho_overhead > 2 * lv_overhead,
            "hosted overhead {ho_overhead} must dwarf lvmm {lv_overhead}"
        );
    }

    #[test]
    fn rx_injection_reaches_guest_ring() {
        let mut vmm = boot(&format!(
            "start:  li   t0, 0x2000
                     li   t1, 0x8000
                     sw   t1, 0(t0)
                     li   t1, 1024
                     sw   t1, 4(t0)
                     li   t0, {nic:#x}
                     li   t1, 0x2000
                     sw   t1, 0x20(t0)
                     li   t1, 4
                     sw   t1, 0x24(t0)
                     li   t1, 1
                     sw   t1, 0x2c(t0)
                     li   s0, 1
             halt:   j halt
            ",
            nic = map::NIC_BASE
        ));
        vmm.run_for(500_000);
        assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R18), 1);
        vmm.inject_guest_rx(&[7u8; 64]);
        assert_eq!(vmm.machine().mem.as_bytes()[0x8000], 7);
        assert_eq!(vmm.machine().mem.word(0x2000 + 8), 64);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut vmm = boot(
                "start:  li t0, 200
                 l:      addi t0, t0, -1
                         bnez t0, l
                 halt:   j halt
                ",
            );
            vmm.run_for(50_000);
            (vmm.machine().now(), *vmm.time_stats(), vmm.hosted_stats())
        };
        assert_eq!(run(), run());
    }
}
