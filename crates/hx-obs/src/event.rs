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

/// One observed event: the only event type. The trace ring, the journal
/// and the causal tracker all hold it, and [`crate::Recorder::emit`]
/// decides which of them sees each kind (see the crate-level table).
/// Payloads are small and fixed-size; anything bulky belongs in a
/// histogram or the span track instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Guest → monitor exit; `cycles` is the monitor time spent servicing it.
    VmExit { cause: ExitCause, cycles: u64 },
    /// A shadow page-table miss at this guest virtual address.
    ShadowFault { vaddr: u32 },
    /// A device raised (asserted) an interrupt line.
    Irq { dev: Dev, irq: u32 },
    /// A device moved payload bytes by DMA (NIC ring, disk transfer);
    /// `digest` is the FNV-1a of those bytes, computed only while
    /// journaling (0 otherwise).
    Dma { dev: Dev, bytes: u32, digest: u64 },
    /// The guest rang a device doorbell register (MMIO store that kicks
    /// the device), e.g. the NIC TX/RX tail pointers.
    Doorbell { dev: Dev, reg: u32 },
    /// The debug stub executed one wire command (`code` is the command
    /// byte, e.g. b'g', b'm', b'q').
    DebugCommand { code: u8 },
    /// A deterministic fault was injected (`code` is the fault-class code
    /// from `hx-fault`, `arg` a class-specific detail such as the target
    /// address or IRQ mask). Faults are machine state, not inputs: they are
    /// journaled so a replay is audited fault-for-fault, never replayed.
    Fault { code: u8, arg: u32 },
    /// A logpoint fired: the instruction at `addr` retired and the
    /// logpoint's condition evaluated to the nonzero `value`. Emitted from
    /// the instruction-boundary path without stopping the guest.
    Log { addr: u32, value: u64 },
    /// The guest entered the ISR for `irq` (architectural INTA on raw
    /// hardware, virtual-PIC INTA under a monitor). Recorded only while
    /// causal tracking is enabled.
    Inta { irq: u32 },
    /// The guest wrote the PIC EOI register, retiring the most recently
    /// entered ISR. Recorded only while causal tracking is enabled.
    Eoi,
    /// The guest wrote a `TRACE`-page tracepoint register.
    Trace { op: crate::causal::TraceOp, id: u32 },
    /// An IPI was sent toward core `target` on `line`.
    IpiSend { target: u8, line: u32 },
    /// An IPI was delivered to core `target` on `line`.
    IpiDeliver { target: u8, line: u32 },
}

impl EventKind {
    /// Short stable name used by the Chrome exporter.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::VmExit { .. } => "vm-exit",
            EventKind::ShadowFault { .. } => "shadow-fault",
            EventKind::Irq { .. } => "irq",
            EventKind::Dma { .. } => "dma",
            EventKind::Doorbell { .. } => "doorbell",
            EventKind::DebugCommand { .. } => "debug-cmd",
            EventKind::Fault { .. } => "fault-inject",
            EventKind::Log { .. } => "logpoint",
            EventKind::Inta { .. } => "inta",
            EventKind::Eoi => "eoi",
            EventKind::Trace { .. } => "tracepoint",
            EventKind::IpiSend { .. } => "ipi-send",
            EventKind::IpiDeliver { .. } => "ipi-deliver",
        }
    }

    /// The device this event belongs to: its Chrome track and its
    /// [`crate::audit`] stream. `None` for everything but IRQs, DMA and
    /// doorbells.
    pub fn dev(&self) -> Option<Dev> {
        match *self {
            EventKind::Irq { dev, .. }
            | EventKind::Dma { dev, .. }
            | EventKind::Doorbell { dev, .. } => Some(dev),
            _ => None,
        }
    }

    /// The [`crate::audit`] stream this event belongs to: its device's
    /// label, or `stub`, `fault`, `log`, `isr` or `trace`. `None` for the
    /// kinds the recorder never journals.
    pub fn stream(&self) -> Option<&'static str> {
        match self {
            EventKind::DebugCommand { .. } => Some("stub"),
            EventKind::Fault { .. } => Some("fault"),
            EventKind::Log { .. } => Some("log"),
            EventKind::Inta { .. } | EventKind::Eoi => Some("isr"),
            EventKind::Trace { .. } => Some("trace"),
            _ => self.dev().map(Dev::label),
        }
    }
}

/// A timestamped event: `at` is the simulated cycle count at record time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub at: u64,
    pub kind: EventKind,
}
