//! Deterministic trace generation from a [`WorkloadModel`].

use crate::model::WorkloadModel;
use amnt_prng::Rng;
use std::collections::VecDeque;

/// Bytes per block (the access granularity fed to the cache hierarchy).
pub const BLOCK: u64 = 64;
/// Bytes per page.
pub const PAGE: u64 = 4096;

/// One memory access as seen by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Virtual address (block-aligned).
    pub vaddr: u64,
    /// Store (`true`) or load.
    pub is_write: bool,
    /// Compute cycles the core spends before issuing this access.
    pub think_cycles: u32,
}

/// An event in a workload's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A memory access.
    Access(TraceOp),
    /// The application released a virtual page (working-set drift); the OS
    /// should reclaim its frame.
    Unmap {
        /// Virtual page number being released.
        vpn: u64,
    },
}

/// A deterministic, seeded trace generator.
///
/// # Examples
///
/// ```
/// use amnt_workloads::{parsec, Event, TraceGen};
///
/// let model = parsec().into_iter().find(|m| m.name == "canneal").unwrap();
/// let ops: Vec<Event> = TraceGen::new(&model, 42, 1000).collect();
/// assert!(ops.iter().filter(|e| matches!(e, Event::Access(_))).count() >= 1000);
/// // Deterministic: same seed, same trace.
/// let again: Vec<Event> = TraceGen::new(&model, 42, 1000).collect();
/// assert_eq!(ops, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    model: WorkloadModel,
    rng: Rng,
    /// Accesses still to emit.
    remaining: u64,
    /// Working-set window base (bytes, virtual).
    base: u64,
    /// Sequential-stream cursor (offset within the window).
    seq_cursor: u64,
    /// Fractional page-drift accumulator.
    drift_accum: f64,
    /// Unmap events queued by drift.
    pending: VecDeque<Event>,
}

impl TraceGen {
    /// Creates a generator emitting `accesses` memory accesses (plus any
    /// drift-induced unmap events) for `model`, deterministically from
    /// `seed`.
    pub fn new(model: &WorkloadModel, seed: u64, accesses: u64) -> Self {
        TraceGen {
            model: *model,
            rng: Rng::seed_from_u64(seed ^ 0x5eed_1234_abcd_ef00),
            remaining: accesses,
            base: 0,
            seq_cursor: 0,
            drift_accum: 0.0,
            pending: VecDeque::new(),
        }
    }

    /// The model driving this generator.
    pub fn model(&self) -> &WorkloadModel {
        &self.model
    }

    fn next_access(&mut self) -> TraceOp {
        let m = &self.model;
        let u: f64 = self.rng.gen_f64();
        let seq_cut = m.stack_prob + (1.0 - m.stack_prob) * m.seq_prob;
        let hot_cut = seq_cut + (1.0 - seq_cut) * m.hot_access_prob;
        let offset = if u < m.stack_prob {
            // Stack/locals: an 8 KiB region that lives in the L1.
            let stack_base = m.footprint / 32;
            stack_base + self.rng.gen_range(0..(8 * 1024 / BLOCK)) * BLOCK
        } else if u < seq_cut {
            // Sequential stream through the window.
            self.seq_cursor = (self.seq_cursor + BLOCK) % m.footprint;
            self.seq_cursor
        } else if u < hot_cut {
            // Hot set: a small region one eighth into the window.
            let hot_base = m.footprint / 8;
            hot_base + (self.rng.gen_range(0..m.hot_bytes / BLOCK)) * BLOCK
        } else {
            // Cold: uniform over the window.
            (self.rng.gen_range(0..m.footprint / BLOCK)) * BLOCK
        };
        let vaddr = self.base + (offset % m.footprint);
        let is_write = self.rng.gen_bool(m.write_fraction);
        let jitter = self.rng.gen_range_u32(0..m.think_cycles + 1);
        let think_cycles = m.think_cycles / 2 + jitter / 2 + 1;
        TraceOp {
            vaddr,
            is_write,
            think_cycles,
        }
    }

    fn drift(&mut self) {
        self.drift_accum += self.model.drift_pages_per_10k as f64 / 10_000.0;
        while self.drift_accum >= 1.0 {
            self.drift_accum -= 1.0;
            let retired_vpn = self.base / PAGE;
            self.base += PAGE;
            self.pending.push_back(Event::Unmap { vpn: retired_vpn });
        }
    }
}

impl Iterator for TraceGen {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let op = self.next_access();
        self.drift();
        Some(Event::Access(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{parsec, WorkloadModel};

    fn model(name: &str) -> WorkloadModel {
        WorkloadModel::by_name(name).expect("known benchmark")
    }

    fn accesses(events: &[Event]) -> Vec<TraceOp> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Access(op) => Some(*op),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn emits_requested_access_count() {
        let evs: Vec<Event> = TraceGen::new(&model("lbm"), 1, 5000).collect();
        assert_eq!(accesses(&evs).len(), 5000);
    }

    #[test]
    fn addresses_stay_in_the_window() {
        let m = model("swaptions");
        for ev in TraceGen::new(&m, 9, 10_000) {
            if let Event::Access(op) = ev {
                assert!(op.vaddr < m.footprint + 100 * PAGE);
                assert_eq!(op.vaddr % BLOCK, 0);
            }
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let m = model("xz");
        let evs: Vec<Event> = TraceGen::new(&m, 3, 50_000).collect();
        let ops = accesses(&evs);
        let writes = ops.iter().filter(|o| o.is_write).count() as f64;
        let frac = writes / ops.len() as f64;
        assert!((frac - m.write_fraction).abs() < 0.02, "measured {frac}");
    }

    #[test]
    fn hot_set_concentrates_traffic() {
        let m = model("fluidanimate");
        let evs: Vec<Event> = TraceGen::new(&m, 5, 50_000).collect();
        let hot_lo = m.footprint / 8;
        let hot_hi = hot_lo + m.hot_bytes;
        let ops = accesses(&evs);
        let hot = ops
            .iter()
            .filter(|o| o.vaddr >= hot_lo && o.vaddr < hot_hi)
            .count() as f64;
        let frac = hot / ops.len() as f64;
        // seq stream passes through too, so at least the direct hot share.
        let seq_cut = m.stack_prob + (1.0 - m.stack_prob) * m.seq_prob;
        let expect = (1.0 - seq_cut) * m.hot_access_prob;
        assert!(
            frac > expect * 0.9,
            "hot fraction {frac}, expected ≥ {expect}"
        );
        // And the hot bytes are a small part of the footprint, so uniform
        // traffic could never concentrate like this.
        assert!(frac > 5.0 * (m.hot_bytes as f64 / m.footprint as f64));
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let m = model("gcc");
        let a: Vec<Event> = TraceGen::new(&m, 7, 2000).collect();
        let b: Vec<Event> = TraceGen::new(&m, 7, 2000).collect();
        let c: Vec<Event> = TraceGen::new(&m, 8, 2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn drift_emits_unmaps() {
        let mut m = model("dedup");
        m.drift_pages_per_10k = 100;
        let evs: Vec<Event> = TraceGen::new(&m, 2, 10_000).collect();
        let unmaps = evs
            .iter()
            .filter(|e| matches!(e, Event::Unmap { .. }))
            .count();
        assert!((90..=110).contains(&unmaps), "unmaps {unmaps}");
        // Unmapped pages are behind the drifted window.
        let last_base = evs
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::Access(op) => Some(op.vaddr),
                _ => None,
            })
            .unwrap();
        let _ = last_base;
    }

    #[test]
    fn zero_drift_never_unmaps() {
        let m = model("mcf");
        assert_eq!(m.drift_pages_per_10k, 0);
        let evs: Vec<Event> = TraceGen::new(&m, 2, 20_000).collect();
        assert!(evs.iter().all(|e| matches!(e, Event::Access(_))));
    }

    #[test]
    fn think_cycles_track_memory_intensity() {
        let compute = model("swaptions"); // compute-bound
        let memory = model("mcf"); // memory-bound
        let avg = |m: &WorkloadModel| {
            let evs: Vec<Event> = TraceGen::new(m, 4, 20_000).collect();
            let ops = accesses(&evs);
            ops.iter().map(|o| o.think_cycles as u64).sum::<u64>() / ops.len() as u64
        };
        assert!(avg(&compute) > 5 * avg(&memory));
    }

    #[test]
    fn all_catalog_models_generate() {
        for m in parsec().into_iter().chain(crate::model::spec2017()) {
            let n = TraceGen::new(&m, 1, 500)
                .filter(|e| matches!(e, Event::Access(_)))
                .count();
            assert_eq!(n, 500, "{}", m.name);
        }
    }
}

/// A source of workload events: a live synthetic generator or a recorded
/// trace (see [`crate::read_trace`]). The simulator consumes either.
///
/// # Examples
///
/// ```
/// use amnt_workloads::{Event, EventStream, TraceGen, WorkloadModel};
///
/// let model = WorkloadModel::by_name("gcc").unwrap();
/// let recorded: Vec<Event> = TraceGen::new(&model, 1, 100).collect();
/// let live: EventStream = TraceGen::new(&model, 1, 100).into();
/// let replay: EventStream = recorded.clone().into();
/// assert_eq!(live.collect::<Vec<_>>(), replay.collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub enum EventStream {
    /// A live, seeded synthetic generator (boxed: the generator carries its
    /// RNG and pending-event state).
    Synthetic(Box<TraceGen>),
    /// A pre-recorded event list (replay).
    Recorded(std::vec::IntoIter<Event>),
}

impl Iterator for EventStream {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        match self {
            EventStream::Synthetic(g) => g.next(),
            EventStream::Recorded(it) => it.next(),
        }
    }
}

impl From<TraceGen> for EventStream {
    fn from(g: TraceGen) -> Self {
        EventStream::Synthetic(Box::new(g))
    }
}

impl From<Vec<Event>> for EventStream {
    fn from(events: Vec<Event>) -> Self {
        EventStream::Recorded(events.into_iter())
    }
}
