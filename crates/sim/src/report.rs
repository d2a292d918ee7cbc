//! Simulation results.

use amnt_cache::CacheStats;
use amnt_core::StatsSnapshot;

/// Everything measured by one simulation run (one workload × one protocol
/// × one machine).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Protocol name (figure-legend style: "leaf", "amnt", ...).
    pub protocol: String,
    /// Measured cycles: the slowest core's region-of-interest cycles.
    pub cycles: u64,
    /// Region-of-interest cycles per core.
    pub per_core_cycles: Vec<u64>,
    /// Memory accesses measured (post-warmup).
    pub accesses: u64,
    /// Accesses that missed the whole cache hierarchy.
    pub llc_misses: u64,
    /// Full controller/cache/timeline statistics.
    pub snapshot: StatsSnapshot,
    /// Metadata cache hit rate.
    pub metadata_hit_rate: f64,
    /// AMNT fast-subtree hit rate over data writes.
    pub subtree_hit_rate: f64,
    /// AMNT subtree-root movements.
    pub subtree_transitions: u64,
    /// Modelled OS (allocator) instructions during measurement.
    pub os_instructions: u64,
    /// Modelled application instructions during measurement.
    pub app_instructions: u64,
    /// AMNT++ restructure passes over the whole run.
    pub restructures: u64,
    /// Per-physical-page access counts, if profiling was enabled (Fig. 3).
    pub physical_profile: Option<Vec<(u64, u64)>>,
    /// Per-core (L1, L2) hit/miss statistics over the ROI.
    pub core_cache_stats: Vec<(CacheStats, CacheStats)>,
    /// Shared-L3 hit/miss statistics over the ROI, if the machine has one.
    pub l3_stats: Option<CacheStats>,
    /// Cycle-domain trace harvest, present iff the machine ran with
    /// `MachineConfig::trace` set. Never feeds the main artifact writers —
    /// exporters serialise it into separate `*.trace.json` /
    /// `*.perfetto.json` sidecars.
    pub trace: Option<amnt_trace::TraceReport>,
}

impl SimReport {
    /// Renders the report as a gem5-style `stats.txt` (key, value, comment
    /// columns) — the format the paper's artifact parses with
    /// `parse_results.py`, for drop-in tooling compatibility.
    ///
    /// ```
    /// # use amnt_sim::SimReport;
    /// # fn demo(report: &SimReport) {
    /// let stats = report.to_stats_txt();
    /// assert!(stats.contains("system.cycles"));
    /// # }
    /// ```
    pub fn to_stats_txt(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "---------- Begin Simulation Statistics ----------");
        let mut stat = |k: &str, v: String, c: &str| {
            let _ = writeln!(out, "{k:<58}{v:>20}  # {c}");
        };
        stat(
            "system.protocol",
            self.protocol.clone(),
            "persistence protocol",
        );
        stat(
            "system.cycles",
            self.cycles.to_string(),
            "ROI cycles (slowest core)",
        );
        for (i, c) in self.per_core_cycles.iter().enumerate() {
            stat(
                &format!("system.cpu{i}.cycles"),
                c.to_string(),
                "per-core ROI cycles",
            );
        }
        stat(
            "system.mem_accesses",
            self.accesses.to_string(),
            "measured accesses",
        );
        stat(
            "system.llc_misses",
            self.llc_misses.to_string(),
            "whole-hierarchy misses",
        );
        stat(
            "system.mee.metadata_hit_rate",
            format!("{:.6}", self.metadata_hit_rate),
            "metadata cache hit rate",
        );
        stat(
            "system.mee.subtree_hit_rate",
            format!("{:.6}", self.subtree_hit_rate),
            "AMNT fast-subtree hit rate",
        );
        stat(
            "system.mee.subtree_transitions",
            self.subtree_transitions.to_string(),
            "AMNT subtree movements",
        );
        let c = &self.snapshot.controller;
        stat(
            "system.mee.persist_writes",
            c.persist_writes.to_string(),
            "crash-consistency writes",
        );
        stat(
            "system.mee.posted_writes",
            c.posted_writes.to_string(),
            "lazy writebacks",
        );
        stat(
            "system.mee.hashes",
            c.hashes.to_string(),
            "HMAC computations",
        );
        stat(
            "system.mee.counter_overflows",
            c.counter_overflows.to_string(),
            "page re-encryptions",
        );
        stat(
            "system.mee.shadow_writes",
            c.shadow_writes.to_string(),
            "Anubis shadow-table writes",
        );
        stat(
            "system.mee.max_stale_lines",
            c.max_stale_lines.to_string(),
            "battery budget needed",
        );
        if let Some(l3) = &self.l3_stats {
            stat("system.l3.hits", l3.hits.to_string(), "shared-L3 hits");
            stat(
                "system.l3.misses",
                l3.misses.to_string(),
                "shared-L3 misses",
            );
        }
        let t = &self.snapshot.timeline;
        stat("system.pcm.reads", t.reads.to_string(), "media reads");
        stat("system.pcm.writes", t.writes.to_string(), "media writes");
        stat(
            "system.pcm.queue_stalls",
            t.queue_stall_cycles.to_string(),
            "persist queue stalls",
        );
        stat(
            "system.os.instructions",
            self.os_instructions.to_string(),
            "modelled allocator work",
        );
        stat(
            "system.app.instructions",
            self.app_instructions.to_string(),
            "modelled app work",
        );
        let _ = writeln!(out, "---------- End Simulation Statistics   ----------");
        out
    }

    /// Cycles normalised to a baseline run (the paper normalises to the
    /// volatile secure-memory scheme).
    pub fn normalized_to(&self, baseline: &SimReport) -> f64 {
        if baseline.cycles == 0 {
            return f64::NAN;
        }
        self.cycles as f64 / baseline.cycles as f64
    }

    /// Instruction count including modelled OS work (Table 2's
    /// instruction-overhead numerator/denominator).
    pub fn total_instructions(&self) -> u64 {
        self.app_instructions + self.os_instructions
    }
}
