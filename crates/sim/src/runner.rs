//! Experiment runners: one call per figure-style measurement.

use crate::config::MachineConfig;
use crate::machine::{amnt_plus_policy, Machine, SimError};
use crate::report::SimReport;
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_workloads::{TraceGen, WorkloadModel};

/// How long measured runs are, in memory accesses per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Accesses per core after warmup.
    pub accesses: u64,
    /// Warm-up accesses (whole machine) before statistics reset.
    pub warmup: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Default for RunLength {
    fn default() -> Self {
        RunLength {
            accesses: 200_000,
            warmup: 20_000,
            seed: 1,
        }
    }
}

impl RunLength {
    /// A short run for tests.
    pub fn quick() -> Self {
        RunLength {
            accesses: 20_000,
            warmup: 2_000,
            seed: 1,
        }
    }
}

/// Applies AMNT++: switches the machine's allocator policy to the biased
/// one for the protocol's subtree level. (AMNT++ = AMNT + modified OS.)
///
/// # Errors
///
/// [`SimError::BadConfig`] from [`amnt_plus_policy`].
pub fn with_amnt_plus(mut cfg: MachineConfig, amnt: AmntConfig) -> Result<MachineConfig, SimError> {
    cfg.alloc_policy = amnt_plus_policy(&cfg, amnt.subtree_level)?;
    Ok(cfg)
}

/// Runs one single-program workload under `protocol`.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_single(
    model: &WorkloadModel,
    cfg: MachineConfig,
    protocol: ProtocolKind,
    len: RunLength,
) -> Result<SimReport, SimError> {
    let total = len.warmup + len.accesses;
    let gen = TraceGen::new(model, len.seed, total);
    let mut machine = Machine::new(cfg, protocol, vec![(1, gen)])?;
    machine.run(len.warmup)
}

/// Runs a multiprogram pair (one benchmark per core).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_pair(
    a: &WorkloadModel,
    b: &WorkloadModel,
    cfg: MachineConfig,
    protocol: ProtocolKind,
    len: RunLength,
) -> Result<SimReport, SimError> {
    if cfg.cores != 2 {
        return Err(SimError::BadConfig(format!(
            "multiprogram pair needs 2 cores, machine has {}",
            cfg.cores
        )));
    }
    let total = len.warmup / 2 + len.accesses;
    let ga = TraceGen::new(a, len.seed, total);
    let gb = TraceGen::new(b, len.seed + 17, total);
    let mut machine = Machine::new(cfg, protocol, vec![(1, ga), (2, gb)])?;
    machine.run(len.warmup)
}

/// Runs one benchmark as `cfg.cores` threads of a single process (the
/// paper's SPEC speed methodology approximated: shared address space, one
/// trace seed per thread).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_multithread(
    model: &WorkloadModel,
    cfg: MachineConfig,
    protocol: ProtocolKind,
    len: RunLength,
) -> Result<SimReport, SimError> {
    let cores = cfg.cores as u64;
    let total = len.warmup / cores + len.accesses;
    let workloads = (0..cores)
        .map(|i| (1, TraceGen::new(model, len.seed + i * 101, total)))
        .collect();
    let mut machine = Machine::new(cfg, protocol, workloads)?;
    machine.run(len.warmup)
}

/// Runs a single-program workload with physical-page profiling (Fig. 3).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn profile_single(
    model: &WorkloadModel,
    cfg: MachineConfig,
    protocol: ProtocolKind,
    len: RunLength,
) -> Result<SimReport, SimError> {
    let total = len.warmup + len.accesses;
    let gen = TraceGen::new(model, len.seed, total);
    let mut machine = Machine::new(cfg, protocol, vec![(1, gen)])?;
    machine.enable_profiling();
    machine.run(len.warmup)
}

/// Runs a multiprogram pair with physical-page profiling (Fig. 3b).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn profile_pair(
    a: &WorkloadModel,
    b: &WorkloadModel,
    cfg: MachineConfig,
    protocol: ProtocolKind,
    len: RunLength,
) -> Result<SimReport, SimError> {
    let total = len.warmup / 2 + len.accesses;
    let ga = TraceGen::new(a, len.seed, total);
    let gb = TraceGen::new(b, len.seed + 17, total);
    let mut machine = Machine::new(cfg, protocol, vec![(1, ga), (2, gb)])?;
    machine.enable_profiling();
    machine.run(len.warmup)
}
