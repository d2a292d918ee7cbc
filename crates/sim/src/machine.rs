//! The full-system machine: cores, cache hierarchy, OS, secure memory.
//!
//! Trace-driven simulation: each core consumes a workload's [`Event`]
//! stream; accesses filter through private L1/L2 (and an optional shared
//! L3); misses and dirty writebacks reach the [`SecureMemory`] controller,
//! which charges verification, decryption and persistence costs on the
//! shared banked-PCM timeline. Cores advance on their own clocks and are
//! interleaved oldest-first.

use crate::config::MachineConfig;
use crate::report::SimReport;
use amnt_cache::SetAssocCache;
use amnt_core::{IntegrityError, ProtocolKind, SecureMemory};
use amnt_os::{AllocError, AllocPolicy, MemoryManager, Pid};
use amnt_workloads::{Event, EventStream};
use std::collections::BTreeMap;
use std::fmt;

/// Bytes per block.
const BLOCK: u64 = 64;
/// Bytes per page.
const PAGE: u64 = 4096;

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The secure-memory engine signalled tampering (should not happen in
    /// an attack-free simulation).
    Integrity(IntegrityError),
    /// Physical memory was exhausted (footprints exceed the device).
    OutOfMemory(AllocError),
    /// A cache configuration was invalid.
    BadConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Integrity(e) => write!(f, "integrity failure during simulation: {e}"),
            SimError::OutOfMemory(e) => write!(f, "physical memory exhausted: {e}"),
            SimError::BadConfig(s) => write!(f, "bad machine configuration: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<IntegrityError> for SimError {
    fn from(e: IntegrityError) -> Self {
        SimError::Integrity(e)
    }
}

impl From<AllocError> for SimError {
    fn from(e: AllocError) -> Self {
        SimError::OutOfMemory(e)
    }
}

struct Core {
    pid: Pid,
    gen: EventStream,
    l1: SetAssocCache,
    l2: SetAssocCache,
    clock: u64,
    roi_start_clock: u64,
    finished: bool,
}

/// The machine under simulation.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    l3: Option<SetAssocCache>,
    mm: MemoryManager,
    secure: SecureMemory,
    /// Pattern counter for deterministic writeback payloads.
    write_seq: u64,
    app_instructions: u64,
    os_instructions_at_roi: u64,
    in_roi: bool,
    accesses_total: u64,
    accesses_measured: u64,
    llc_misses: u64,
    profile: Option<BTreeMap<u64, u64>>,
}

impl Machine {
    /// Builds a machine running `protocol`, with one workload event source
    /// per core (pids may repeat to model threads of one process). Accepts
    /// anything convertible into an [`EventStream`]: a live [`amnt_workloads::TraceGen`]
    /// or a recorded `Vec<Event>` for replay.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] for inconsistent cache geometry or a core /
    /// workload count mismatch.
    pub fn new<S: Into<EventStream>>(
        cfg: MachineConfig,
        protocol: ProtocolKind,
        workloads: Vec<(Pid, S)>,
    ) -> Result<Self, SimError> {
        if workloads.len() != cfg.cores {
            return Err(SimError::BadConfig(format!(
                "{} workloads for {} cores",
                workloads.len(),
                cfg.cores
            )));
        }
        let mut secure = SecureMemory::new(cfg.secure.clone(), protocol)
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        if let Some(trace_cfg) = cfg.trace {
            secure.enable_tracing(trace_cfg);
        }
        let mut mm = MemoryManager::new(cfg.secure.data_capacity / PAGE, cfg.alloc_policy);
        if let Some(aging) = cfg.aging {
            mm.age(aging.seed, aging.occupancy, aging.churn);
        }
        // On an AMNT++ machine reclamation has been restructuring the free
        // lists since boot: start biased.
        mm.restructure_now();
        let l3 = match cfg.l3 {
            Some(c) => Some(SetAssocCache::new(c).map_err(|e| SimError::BadConfig(e.to_string()))?),
            None => None,
        };
        let mut cores = Vec::with_capacity(cfg.cores);
        for (pid, gen) in workloads {
            cores.push(Core {
                pid,
                gen: gen.into(),
                l1: SetAssocCache::new(cfg.l1d).map_err(|e| SimError::BadConfig(e.to_string()))?,
                l2: SetAssocCache::new(cfg.l2).map_err(|e| SimError::BadConfig(e.to_string()))?,
                clock: 0,
                roi_start_clock: 0,
                finished: false,
            });
        }
        Ok(Machine {
            cfg,
            cores,
            l3,
            mm,
            secure,
            write_seq: 0,
            app_instructions: 0,
            os_instructions_at_roi: 0,
            in_roi: false,
            accesses_total: 0,
            accesses_measured: 0,
            llc_misses: 0,
            profile: None,
        })
    }

    /// Enables per-physical-page access profiling (Figure 3).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(BTreeMap::new());
    }

    /// Direct access to the secure-memory engine (crash drills, audits).
    pub fn secure_mut(&mut self) -> &mut SecureMemory {
        &mut self.secure
    }

    /// The OS memory manager.
    pub fn memory_manager(&self) -> &MemoryManager {
        &self.mm
    }

    fn write_payload(&mut self, paddr: u64) -> [u8; 64] {
        self.write_seq = self.write_seq.wrapping_add(1);
        let mut data = [0u8; 64];
        data[..8].copy_from_slice(&paddr.to_le_bytes());
        data[8..16].copy_from_slice(&self.write_seq.to_le_bytes());
        data[16] = 0xD7;
        data
    }

    /// A dirty line leaves the hierarchy toward memory.
    fn writeback(&mut self, now: u64, paddr: u64) -> Result<u64, SimError> {
        let data = self.write_payload(paddr);
        if let Some(p) = &mut self.profile {
            *p.entry(paddr / PAGE).or_insert(0) += 1;
        }
        Ok(self.secure.write_block(now, paddr, &data)?)
    }

    /// Fills `paddr` into the shared L3 (if present), returning the time
    /// after handling any dirty eviction.
    fn fill_l3(&mut self, mut now: u64, paddr: u64) -> Result<u64, SimError> {
        let evicted = match &mut self.l3 {
            Some(l3) => l3.fill(paddr, false),
            None => None,
        };
        if let Some(ev) = evicted {
            if ev.dirty {
                now = now.max(self.writeback(now, ev.addr)?);
            }
        }
        Ok(now)
    }

    /// Fills `paddr` into core `c`'s L2, cascading dirty victims outward.
    fn fill_l2(&mut self, mut now: u64, c: usize, paddr: u64) -> Result<u64, SimError> {
        if let Some(ev) = self.cores[c].l2.fill(paddr, false) {
            if ev.dirty {
                match &mut self.l3 {
                    Some(l3) => {
                        if l3.contains(ev.addr) {
                            l3.access(ev.addr, true);
                        } else {
                            now = self.fill_l3(now, ev.addr)?;
                            if let Some(l3) = &mut self.l3 {
                                l3.access(ev.addr, true);
                            }
                        }
                    }
                    None => {
                        now = now.max(self.writeback(now, ev.addr)?);
                    }
                }
            }
        }
        Ok(now)
    }

    /// Fills `paddr` into core `c`'s L1, cascading dirty victims to L2.
    fn fill_l1(
        &mut self,
        mut now: u64,
        c: usize,
        paddr: u64,
        dirty: bool,
    ) -> Result<u64, SimError> {
        if let Some(ev) = self.cores[c].l1.fill(paddr, dirty) {
            if ev.dirty {
                if self.cores[c].l2.contains(ev.addr) {
                    self.cores[c].l2.access(ev.addr, true);
                } else {
                    now = self.fill_l2(now, c, ev.addr)?;
                    self.cores[c].l2.access(ev.addr, true);
                }
            }
        }
        Ok(now)
    }

    /// One memory access through the hierarchy; returns the completion time.
    fn mem_access(
        &mut self,
        c: usize,
        paddr: u64,
        is_write: bool,
        now: u64,
    ) -> Result<u64, SimError> {
        let t = &self.cfg.timing;
        let (l1_lat, l2_lat, l3_lat) = (t.l1, t.l2, t.l3);
        let mut now = now;
        if self.cores[c].l1.access(paddr, is_write).hit {
            return Ok(now + l1_lat);
        }
        now += l1_lat;
        if self.cores[c].l2.access(paddr, false).hit {
            now += l2_lat;
            return self.fill_l1(now, c, paddr, is_write);
        }
        now += l2_lat;
        if let Some(l3) = &mut self.l3 {
            if l3.access(paddr, false).hit {
                now += l3_lat;
                now = self.fill_l2(now, c, paddr)?;
                return self.fill_l1(now, c, paddr, is_write);
            }
            now += l3_lat;
        }
        // Miss to memory.
        self.llc_misses += 1;
        if let Some(p) = &mut self.profile {
            *p.entry(paddr / PAGE).or_insert(0) += 1;
        }
        let (_data, done) = self.secure.read_block(now, paddr)?;
        now = done;
        // fill_l3 already stamps the line most-recently-used; touching it
        // again here would record a phantom L3 hit per LLC miss.
        now = self.fill_l3(now, paddr)?;
        now = self.fill_l2(now, c, paddr)?;
        self.fill_l1(now, c, paddr, is_write)
    }

    /// Flushes one virtual page of core `c`'s process from every cache
    /// level (page reclamation), writing dirty lines back.
    fn flush_page(&mut self, c: usize, paddr_page: u64) -> Result<(), SimError> {
        let base = paddr_page * PAGE;
        for i in 0..(PAGE / BLOCK) {
            let addr = base + i * BLOCK;
            let mut dirty = false;
            if let Some(d) = self.cores[c].l1.invalidate(addr) {
                dirty |= d;
            }
            if let Some(d) = self.cores[c].l2.invalidate(addr) {
                dirty |= d;
            }
            if let Some(l3) = &mut self.l3 {
                if let Some(d) = l3.invalidate(addr) {
                    dirty |= d;
                }
            }
            if dirty {
                let now = self.cores[c].clock;
                self.writeback(now, addr)?;
            }
        }
        Ok(())
    }

    fn begin_roi(&mut self) {
        self.in_roi = true;
        self.secure.reset_stats();
        for core in &mut self.cores {
            core.l1.reset_stats();
            core.l2.reset_stats();
            core.roi_start_clock = core.clock;
        }
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
        self.app_instructions = 0;
        self.os_instructions_at_roi = self.mm.instructions();
        self.llc_misses = 0;
        self.accesses_measured = 0;
        if let Some(p) = &mut self.profile {
            p.clear();
        }
    }

    /// Runs the machine until the first core exhausts its trace (the
    /// paper's multiprogram measurement window), with statistics reset
    /// after `warmup_accesses` total accesses.
    ///
    /// # Errors
    ///
    /// Propagates integrity and out-of-memory failures.
    pub fn run(&mut self, warmup_accesses: u64) -> Result<SimReport, SimError> {
        if warmup_accesses == 0 {
            self.begin_roi();
        }
        // Oldest unfinished core goes next, until a trace runs dry.
        while let Some(c) = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, core)| !core.finished)
            .min_by_key(|(_, core)| core.clock)
            .map(|(i, _)| i)
        {
            match self.cores[c].gen.next() {
                None => {
                    self.cores[c].finished = true;
                    // First finisher closes the measurement window.
                    break;
                }
                Some(Event::Unmap { vpn }) => {
                    // Figure out the physical page before unmapping.
                    let pid = self.cores[c].pid;
                    let paddr = self.mm.translate(pid, vpn * PAGE)?;
                    self.flush_page(c, paddr / PAGE)?;
                    self.mm.unmap(pid, vpn);
                }
                Some(Event::Access(op)) => {
                    let pid = self.cores[c].pid;
                    self.cores[c].clock += op.think_cycles as u64;
                    self.app_instructions += op.think_cycles as u64 + 1;
                    let paddr = self.mm.translate(pid, op.vaddr)?;
                    let done = self.mem_access(c, paddr, op.is_write, self.cores[c].clock)?;
                    self.cores[c].clock = done;
                    self.accesses_total += 1;
                    self.accesses_measured += 1;
                    if !self.in_roi && self.accesses_total >= warmup_accesses {
                        self.begin_roi();
                    }
                }
            }
        }
        Ok(self.report())
    }

    fn report(&self) -> SimReport {
        let per_core: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.clock.saturating_sub(c.roi_start_clock))
            .collect();
        let snapshot = self.secure.snapshot();
        let profile = self
            .profile
            .as_ref()
            .map(|p| p.iter().map(|(&k, &n)| (k, n)).collect::<Vec<(u64, u64)>>());
        SimReport {
            protocol: self.secure.protocol().name().to_string(),
            cycles: per_core.iter().copied().max().unwrap_or(0),
            per_core_cycles: per_core,
            accesses: self.accesses_measured,
            llc_misses: self.llc_misses,
            metadata_hit_rate: snapshot.metadata_cache.hit_rate(),
            subtree_hit_rate: snapshot.controller.subtree_hit_rate(),
            subtree_transitions: snapshot.controller.subtree_transitions,
            snapshot,
            os_instructions: self.mm.instructions() - self.os_instructions_at_roi,
            app_instructions: self.app_instructions,
            restructures: self.mm.restructures(),
            physical_profile: profile,
            core_cache_stats: self
                .cores
                .iter()
                .map(|c| (*c.l1.stats(), *c.l2.stats()))
                .collect(),
            l3_stats: self.l3.as_ref().map(|l3| *l3.stats()),
            trace: self.secure.trace_report(),
        }
    }
}

/// Derives the AMNT++ allocation policy for a machine: one subtree region
/// is the coverage of a node at `subtree_level` over the machine's memory.
pub fn amnt_plus_policy(cfg: &MachineConfig, subtree_level: u32) -> AllocPolicy {
    let geometry = amnt_bmt::BmtGeometry::new(cfg.secure.data_capacity)
        .expect("machine capacities are page-multiples");
    let level = subtree_level.clamp(1, geometry.bottom_level());
    AllocPolicy::AmntPlus {
        pages_per_region: (geometry.coverage_bytes(level) / PAGE).max(1),
        restructure_period: 64,
    }
}
