//! Machine configurations matching the paper's evaluation setups (§6).

use amnt_cache::CacheConfig;
use amnt_core::SecureMemoryConfig;
use amnt_os::AllocPolicy;

/// Cache-hierarchy latencies in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyTiming {
    /// L1 hit latency.
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// L3 hit latency.
    pub l3: u64,
}

impl Default for HierarchyTiming {
    fn default() -> Self {
        HierarchyTiming {
            l1: 2,
            l2: 12,
            l3: 30,
        }
    }
}

/// How the allocator is aged before measurement (long-running-system
/// fragmentation; see `amnt-os`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingConfig {
    /// RNG seed for the churn.
    pub seed: u64,
    /// Fraction of physical pages allocated during aging.
    pub occupancy: f64,
    /// Fraction of those subsequently freed (in random order).
    pub churn: f64,
}

impl Default for AgingConfig {
    fn default() -> Self {
        // A long-running machine: ~80% of memory has been allocated at
        // some point and 60% of it freed back as small clustered runs, so
        // every buddy order list holds crumbs from every subtree region
        // (locally shuffled, globally address-ordered). Fresh working sets
        // then interleave across regions at page granularity — the paper's
        // Figure 3b — while each region retains ~88 MiB of free supply for
        // the AMNT++ bias to draw on.
        AgingConfig {
            seed: 0xA6E,
            occupancy: 0.8,
            churn: 0.6,
        }
    }
}

/// A full machine: cores, hierarchy, OS policy, secure-memory engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core L1 data cache. (Instruction fetch is not traced; the L1I in
    /// Table 1 has no equivalent here.)
    pub l1d: CacheConfig,
    /// Per-core L2.
    pub l2: CacheConfig,
    /// Shared L3, if present.
    pub l3: Option<CacheConfig>,
    /// Hierarchy hit latencies.
    pub timing: HierarchyTiming,
    /// Secure-memory engine configuration (Table 1).
    pub secure: SecureMemoryConfig,
    /// Physical page allocation policy (Standard vs AMNT++).
    pub alloc_policy: AllocPolicy,
    /// Allocator aging before measurement; `None` = pristine machine.
    pub aging: Option<AgingConfig>,
    /// Cycle-domain tracing knobs; `None` (the default) runs untraced.
    /// Tracing is purely observational: the run's timing, statistics, and
    /// artifacts are byte-identical with it on or off.
    pub trace: Option<amnt_trace::TraceConfig>,
}

impl MachineConfig {
    /// Paper §6.1: single-program PARSEC machine — one core, 32 kB L1D,
    /// 1 MB L2, 8 GB PCM, Table 1 security configuration. Fresh-boot
    /// allocator, like the paper's gem5 checkpoints.
    pub fn parsec_single() -> Self {
        MachineConfig {
            cores: 1,
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(1024 * 1024, 16, 64),
            l3: None,
            timing: HierarchyTiming::default(),
            secure: SecureMemoryConfig::paper_default(),
            alloc_policy: AllocPolicy::Standard,
            aging: None,
            trace: None,
        }
    }

    /// Paper §6.2: multiprogram PARSEC machine — two cores with private
    /// 32 kB L1D and 128 kB L2, sharing a 1 MB L3.
    pub fn parsec_multi() -> Self {
        MachineConfig {
            cores: 2,
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(128 * 1024, 8, 64),
            l3: Some(CacheConfig::new(1024 * 1024, 16, 64)),
            timing: HierarchyTiming::default(),
            secure: SecureMemoryConfig::paper_default(),
            alloc_policy: AllocPolicy::Standard,
            aging: Some(AgingConfig::default()),
            trace: None,
        }
    }

    /// Paper §6.5: SPEC CPU 2017 machine — four cores, 32 kB L1D, 512 kB
    /// L2, 8 MB shared L3. One multithreaded program resumed from a
    /// SimPoint-style checkpoint: fresh-boot allocator, like the paper.
    pub fn spec_multithread() -> Self {
        MachineConfig {
            cores: 4,
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(512 * 1024, 8, 64),
            l3: Some(CacheConfig::new(8 * 1024 * 1024, 16, 64)),
            timing: HierarchyTiming::default(),
            secure: SecureMemoryConfig::paper_default(),
            alloc_policy: AllocPolicy::Standard,
            aging: None,
            trace: None,
        }
    }

    /// Shrinks the machine (memory + caches) for fast tests.
    pub fn scaled_down(mut self, data_capacity: u64) -> Self {
        self.secure = SecureMemoryConfig::with_capacity(data_capacity);
        self
    }
}
