//! The one boot recipe: which platform a guest runs on, and how the
//! streaming guest becomes a running platform.
//!
//! Every harness boots through here — the farm, the CLIs (`lwvmm-run`,
//! `dbgctl`, `lwvmm-farm`) and the benches — so "the same guest on
//! platform X" means the same machine, the same enable order and the same
//! wild-write reach wherever it is asked for. That is what makes a
//! farm-served guest standalone-identical: there is no second recipe for it
//! to drift from.

use hitactix::kernel::{self, layout};
use hitactix::Workload;
use hosted_vmm::{HostedConfig, HostedPlatform};
use hx_asm::Program;
use hx_fault::{FaultKind, FaultPlan};
use hx_machine::{Machine, MachineConfig, Platform, RawPlatform};
use hx_obs::{Profiler, SymbolMap};
use lvmm::{LvmmConfig, LvmmPlatform};

/// The three systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Guest owns the hardware (paper: "Real hardware").
    RawHw,
    /// The lightweight monitor (paper: "LW virtual machine monitor").
    Lvmm,
    /// The hosted full monitor (paper: "VMware Workstation 4").
    Hosted,
}

impl PlatformKind {
    /// All three, in the paper's legend order.
    pub const ALL: [PlatformKind; 3] = [
        PlatformKind::RawHw,
        PlatformKind::Lvmm,
        PlatformKind::Hosted,
    ];

    /// Display label (also the platform's `Platform::name`).
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::RawHw => "real-hw",
            PlatformKind::Lvmm => "lvmm",
            PlatformKind::Hosted => "hosted",
        }
    }

    /// Parses a `--platform` value: a [`label`](Self::label) or `raw`.
    pub fn from_label(s: &str) -> Option<PlatformKind> {
        let s = if s == "raw" { "real-hw" } else { s };
        PlatformKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Highest guest physical address wild writes and DMA misdirects can
    /// *reach* on this platform: the monitor's reserved region under the
    /// monitors (guest-context stores architecturally cannot touch monitor
    /// memory), all of RAM on raw hardware.
    pub fn wild_limit(self, ram_size: u32) -> u32 {
        match self {
            PlatformKind::RawHw => ram_size,
            PlatformKind::Lvmm => ram_size - LvmmConfig::default().monitor_mem,
            PlatformKind::Hosted => ram_size - HostedConfig::default().host_mem,
        }
    }

    /// A fault campaign of `class` (`"all"` or one [`FaultKind`] label)
    /// seeded by `seed`, whose wild attempts span all of RAM so the
    /// monitors have something to block.
    pub fn fault_plan(self, ram_size: u32, class: &str, seed: u64) -> Result<FaultPlan, String> {
        let plan = FaultPlan::new(seed).wild(ram_size, self.wild_limit(ram_size));
        if class == "all" {
            return Ok(plan);
        }
        let kind = FaultKind::from_label(class).ok_or_else(|| {
            format!(
                "unknown fault class `{class}` (all|{})",
                FaultKind::ALL.map(|k| k.label()).join("|")
            )
        })?;
        Ok(plan.only(kind))
    }

    /// Wraps a loaded machine into this platform, starting the guest at
    /// `entry`. With `record_every`, the run is recorded: a journal on every
    /// platform, plus checkpoints every `record_every` cycles under lvmm so
    /// debug sessions can time-travel.
    pub fn boot(
        self,
        machine: Machine,
        entry: u32,
        record_every: Option<u64>,
    ) -> Box<dyn Platform> {
        let mut platform: Box<dyn Platform> = match self {
            PlatformKind::RawHw => Box::new(RawPlatform::new(machine)),
            PlatformKind::Lvmm => {
                let mut p = LvmmPlatform::new(machine, entry);
                if let Some(every) = record_every {
                    p.enable_flight_recorder(every);
                }
                Box::new(p)
            }
            PlatformKind::Hosted => Box::new(HostedPlatform::new(machine, entry)),
        };
        if record_every.is_some() && self != PlatformKind::Lvmm {
            platform.machine_mut().obs.enable_journal(self.label());
        }
        platform
    }
}

impl std::str::FromStr for PlatformKind {
    type Err = String;

    /// [`PlatformKind::from_label`] with a CLI-ready error.
    fn from_str(s: &str) -> Result<PlatformKind, String> {
        PlatformKind::from_label(s)
            .ok_or_else(|| format!("unknown platform `{s}` (raw|lvmm|hosted)"))
    }
}

/// A default machine with `cores` vCPUs: what every boot starts from.
pub fn new_machine(cores: usize) -> Machine {
    Machine::new(MachineConfig {
        num_cores: cores,
        ..MachineConfig::default()
    })
}

/// Builds a machine with `cores` vCPUs and loads the streaming `workload`
/// into it — the first step of every boot, before observability, faults
/// and the platform are added.
pub fn load_workload(workload: &Workload, cores: usize) -> Result<(Machine, Program), String> {
    let mut machine = new_machine(cores);
    let program = workload
        .build(&machine)
        .map_err(|e| format!("kernel build failed: {e:?}"))?;
    machine.load_program(&program);
    Ok((machine, program))
}

/// One guest's boot recipe.
#[derive(Debug, Clone)]
pub struct GuestSpec {
    pub platform: PlatformKind,
    /// vCPU count (1..=MAX_CORES).
    pub cores: usize,
    /// Streaming-workload target rate, Mbit/s.
    pub rate_mbps: u64,
    /// Record a journal (and, under lvmm, a flight recorder with
    /// checkpoints) so sessions can time-travel.
    pub record: bool,
    /// Attribute guest cycles to kernel symbols (serves `prof`).
    pub profile: bool,
    /// Attribute host wall-clock (serves `metrics`).
    pub hostprof: bool,
    /// Fault campaign: `Some(("all"|class, seed))`.
    pub fault: Option<(String, u64)>,
}

impl Default for GuestSpec {
    fn default() -> GuestSpec {
        GuestSpec {
            platform: PlatformKind::Lvmm,
            cores: 1,
            rate_mbps: 100,
            record: true,
            profile: false,
            hostprof: false,
            fault: None,
        }
    }
}

/// Boots the streaming guest `spec` describes: machine and workload,
/// observability, faults, platform, recorder — in that order, which the
/// journal of a recorded guest depends on. `record_every` is the lvmm
/// checkpoint cadence for `record` guests.
pub fn boot_guest(spec: &GuestSpec, record_every: u64) -> Result<Box<dyn Platform>, String> {
    let (mut machine, program) = load_workload(&Workload::new(spec.rate_mbps), spec.cores)?;
    if spec.profile {
        machine.obs.enable_profiler(Profiler::new(
            SymbolMap::from_ranges(kernel::profile_symbols(&program)),
            Profiler::DEFAULT_INTERVAL,
        ));
    }
    if spec.hostprof {
        machine.obs.enable_hostprof();
    }
    if let Some((class, seed)) = &spec.fault {
        let ram_size = machine.config().ram_size as u32;
        machine.enable_fault_injection(spec.platform.fault_plan(ram_size, class, *seed)?);
    }
    Ok(spec
        .platform
        .boot(machine, layout::ENTRY, spec.record.then_some(record_every)))
}
