//! The trace-event taxonomy.
//!
//! Every event is timestamped in **simulated cycles** (the machine's `now`
//! counter), never host wall-clock time, so a trace is a pure function of
//! the simulated run and can be compared byte-for-byte across runs.

/// Why the guest exited to the monitor. This refines the flat counters the
/// monitors used to keep: each cause gets its own cycle histogram so
/// ablations can report p50/p99 *cost*, not just counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExitCause {
    /// Privileged-instruction emulation (CSR access, `tret`, `wfi`, ...).
    Privileged,
    /// MMIO access emulated against a virtual device model.
    Mmio,
    /// Shadow page-table service (fill or flush).
    Shadow,
    /// A real device interrupt reflected into the virtual PIC.
    IrqReflect,
    /// A virtual interrupt or exception injected into the guest.
    IrqInject,
    /// Guest attempted an access its privilege does not allow.
    Protection,
    /// Debug-stub service (breakpoint, single-step, UART stub traffic).
    Debug,
    /// Hosted monitor only: a device operation relayed through the host OS.
    HostRelay,
}

impl ExitCause {
    pub const ALL: [ExitCause; 8] = [
        ExitCause::Privileged,
        ExitCause::Mmio,
        ExitCause::Shadow,
        ExitCause::IrqReflect,
        ExitCause::IrqInject,
        ExitCause::Protection,
        ExitCause::Debug,
        ExitCause::HostRelay,
    ];

    pub const COUNT: usize = Self::ALL.len();

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }

    pub fn label(self) -> &'static str {
        match self {
            ExitCause::Privileged => "privileged",
            ExitCause::Mmio => "mmio",
            ExitCause::Shadow => "shadow",
            ExitCause::IrqReflect => "irq-reflect",
            ExitCause::IrqInject => "irq-inject",
            ExitCause::Protection => "protection",
            ExitCause::Debug => "debug",
            ExitCause::HostRelay => "host-relay",
        }
    }
}

/// Which simulated device an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dev {
    Nic,
    Hdc,
    Pit,
    Uart,
    Pic,
}

impl Dev {
    pub const ALL: [Dev; 5] = [Dev::Nic, Dev::Hdc, Dev::Pit, Dev::Uart, Dev::Pic];

    pub const COUNT: usize = Self::ALL.len();

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&d| d == self).unwrap()
    }

    pub fn label(self) -> &'static str {
        match self {
            Dev::Nic => "nic",
            Dev::Hdc => "hdc",
            Dev::Pit => "pit",
            Dev::Uart => "uart",
            Dev::Pic => "pic",
        }
    }
}

/// One trace event. Payloads are small and fixed-size; anything bulky
/// belongs in a histogram or the span track instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Guest → monitor exit; `cycles` is the monitor time spent servicing it.
    VmExit { cause: ExitCause, cycles: u64 },
    /// A shadow page-table miss at this guest virtual address.
    ShadowFault { vaddr: u32 },
    /// A device raised (asserted) an interrupt line.
    DeviceIrq { dev: Dev, irq: u32 },
    /// A device moved payload bytes by DMA (NIC ring, disk transfer).
    DeviceDma { dev: Dev, bytes: u32 },
    /// The guest rang a device doorbell register (MMIO store that kicks
    /// the device), e.g. the NIC TX/RX tail pointers.
    Doorbell { dev: Dev, reg: u32 },
    /// The debug stub executed one wire command (`code` is the command
    /// byte, e.g. b'g', b'm', b'q').
    DebugCommand { code: u8 },
    /// A deterministic fault was injected (`code` is the fault-class code
    /// from `hx-fault`, `arg` a class-specific detail such as the target
    /// address or IRQ mask).
    FaultInjected { code: u8, arg: u32 },
    /// A logpoint fired: the instruction at `addr` retired and the
    /// logpoint's condition evaluated to the nonzero `value`. Emitted from
    /// the instruction-boundary path without stopping the guest.
    Logpoint { addr: u32, value: u64 },
    /// The guest entered the ISR for `irq` (architectural INTA on raw
    /// hardware, virtual-PIC INTA under a monitor). Recorded only while
    /// causal tracing is enabled.
    IrqEntry { irq: u32 },
    /// The guest wrote the PIC EOI register, retiring the most recently
    /// entered ISR. Recorded only while causal tracing is enabled.
    IrqEoi,
    /// The guest wrote a `TRACE`-page tracepoint register.
    Tracepoint { op: crate::causal::TraceOp, id: u32 },
}

impl EventKind {
    /// Short stable name used by the Chrome exporter.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::VmExit { .. } => "vm-exit",
            EventKind::ShadowFault { .. } => "shadow-fault",
            EventKind::DeviceIrq { .. } => "irq",
            EventKind::DeviceDma { .. } => "dma",
            EventKind::Doorbell { .. } => "doorbell",
            EventKind::DebugCommand { .. } => "debug-cmd",
            EventKind::FaultInjected { .. } => "fault-inject",
            EventKind::Logpoint { .. } => "logpoint",
            EventKind::IrqEntry { .. } => "inta",
            EventKind::IrqEoi => "eoi",
            EventKind::Tracepoint { .. } => "tracepoint",
        }
    }
}

/// A timestamped event: `at` is the simulated cycle count at record time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub at: u64,
    pub kind: EventKind,
}
