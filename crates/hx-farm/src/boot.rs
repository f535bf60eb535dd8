//! The one boot recipe: which platform a guest runs on, and how a guest
//! becomes a running platform.
//!
//! A [`GuestSpec`] is the only description of a guest the binaries boot,
//! and [`guest_machine`] then [`PlatformKind::boot`] is the only recipe:
//! the farm, the CLIs (`lwvmm-run`, `dbgctl`, `lwvmm-farm`) and the benches
//! all go through it, and the CLIs fill the spec from the shared guest
//! flags ([`GuestSpec::from_flags`]). So "the same guest on platform X"
//! means the same machine, the same enable order and the same wild-write
//! reach wherever it is asked for. That is what makes a farm-served guest
//! standalone-identical: there is no second recipe for it to drift from.

use hitactix::kernel::{self, layout};
use hitactix::Workload;
use hosted_vmm::{HostedConfig, HostedPlatform};
use hx_asm::Program;
use hx_fault::{FaultKind, FaultPlan};
use hx_machine::smp::MAX_CORES;
use hx_machine::{Machine, MachineConfig, Platform, RawPlatform};
use hx_obs::{Profiler, SymbolMap};
use lvmm::{LvmmConfig, LvmmPlatform};

use crate::Flags;

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
            let cores = platform.machine().num_cores();
            let obs = &mut platform.machine_mut().obs;
            obs.enable_journal(self.label(), cores);
        }
        platform
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
/// into it.
pub fn load_workload(workload: &Workload, cores: usize) -> Result<(Machine, Program), String> {
    let mut machine = new_machine(cores);
    let program = workload
        .build(&machine)
        .map_err(|e| format!("kernel build failed: {e:?}"))?;
    machine.load_program(&program);
    Ok((machine, program))
}

/// One guest's boot recipe, and the only description of a guest any
/// binary boots.
#[derive(Debug, Clone)]
pub struct GuestSpec {
    /// `--platform`.
    pub platform: PlatformKind,
    /// vCPU count (`--cores`, 1..=[`MAX_CORES`]).
    pub cores: usize,
    /// Streaming-workload target rate, Mbit/s (`--workload`).
    pub rate_mbps: u64,
    /// An assembled image (`lwvmm-run guest.s`) to boot instead of the
    /// streaming workload. It enters at its `start` label (or its base) and
    /// profiles by its code labels; the workload enters at
    /// [`layout::ENTRY`] and profiles by [`kernel::profile_symbols`].
    pub image: Option<Program>,
    /// Record a journal (and, under lvmm, a flight recorder with
    /// checkpoints) so sessions can time-travel.
    pub record: bool,
    /// Attribute guest cycles to kernel symbols (serves `prof`).
    pub profile: bool,
    /// Attribute host wall-clock (serves `metrics`).
    pub hostprof: bool,
    /// Track causal flows, plus the event tracing their endpoints ride on.
    pub causal: bool,
    /// Fault campaign: `Some(("all"|class, seed))` (`--fault`,
    /// `--fault-seed`).
    pub fault: Option<(String, u64)>,
}

impl Default for GuestSpec {
    fn default() -> GuestSpec {
        GuestSpec {
            platform: PlatformKind::Lvmm,
            cores: 1,
            rate_mbps: 100,
            image: None,
            record: true,
            profile: false,
            hostprof: false,
            causal: false,
            fault: None,
        }
    }
}

impl GuestSpec {
    /// The guest flags every binary shares.
    pub const FLAGS: [&'static str; 5] = [
        "--platform",
        "--cores",
        "--workload",
        "--fault",
        "--fault-seed",
    ];

    /// The default spec with whichever of [`FLAGS`](Self::FLAGS) `flags`
    /// carries applied; a campaign's seed defaults to 42.
    pub fn from_flags(flags: &Flags) -> Result<GuestSpec, String> {
        let d = GuestSpec::default();
        let seed = flags.num("--fault-seed")?.unwrap_or(42);
        Ok(GuestSpec {
            platform: match flags.get("--platform") {
                Some(p) => PlatformKind::from_label(p).ok_or_else(|| {
                    format!("--platform: unknown platform `{p}` (raw|lvmm|hosted)")
                })?,
                None => d.platform,
            },
            cores: flags.num("--cores")?.unwrap_or(d.cores),
            rate_mbps: flags.num("--workload")?.unwrap_or(d.rate_mbps),
            fault: flags.get("--fault").map(|class| (class.to_string(), seed)),
            ..d
        })
    }
}

/// Builds the machine `spec` describes and returns it with the guest's
/// entry point and loaded image: the recipe's first step, before the
/// platform wrap.
///
/// Order matters: the recorder lives inside the machine, and flight-recorder
/// checkpoints clone it, so the profiler, the host profiler, causal tracking
/// and faults are all switched on here, before the platform exists and
/// before its first checkpoint. A tracker turned on after
/// `enable_flight_recorder` would be lost on every seek back to the initial
/// checkpoint. This is also the one place `cores` is checked.
pub fn guest_machine(spec: &GuestSpec) -> Result<(Machine, u32, Program), String> {
    if !(1..=MAX_CORES).contains(&spec.cores) {
        return Err(format!(
            "--cores must be between 1 and {MAX_CORES}, got {}",
            spec.cores
        ));
    }
    let (mut machine, program, symbols, entry) = match &spec.image {
        None => {
            let (machine, program) = load_workload(&Workload::new(spec.rate_mbps), spec.cores)?;
            let symbols = kernel::profile_symbols(&program);
            (machine, program, symbols, layout::ENTRY)
        }
        Some(program) => {
            let mut machine = new_machine(spec.cores);
            machine.load_program(program);
            let entry = program.symbols.get("start").unwrap_or(program.base());
            (machine, program.clone(), program.code_symbols(), entry)
        }
    };
    if spec.profile {
        machine.obs.enable_profiler(Profiler::new(
            SymbolMap::from_ranges(symbols),
            Profiler::DEFAULT_INTERVAL,
        ));
    }
    if spec.hostprof {
        machine.obs.enable_hostprof();
    }
    if spec.causal {
        machine.obs.enable_tracing();
        machine.obs.enable_causal();
    }
    if let Some((class, seed)) = &spec.fault {
        let ram_size = machine.config().ram_size as u32;
        machine.enable_fault_injection(spec.platform.fault_plan(ram_size, class, *seed)?);
    }
    Ok((machine, entry, program))
}

/// Boots the guest `spec` describes: [`guest_machine`], then the platform
/// and recorder. `record_every` is the lvmm checkpoint cadence for `record`
/// guests.
pub fn boot_guest(spec: &GuestSpec, record_every: u64) -> Result<Box<dyn Platform>, String> {
    let (machine, entry, _) = guest_machine(spec)?;
    Ok(spec
        .platform
        .boot(machine, entry, spec.record.then_some(record_every)))
}
