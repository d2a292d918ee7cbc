//! Anubis shadow-table tracking (Zubair & Awad [85]).
//!
//! Anubis persists, in an in-memory *shadow table*, the address of every
//! block currently resident in the metadata cache. After a crash, only the
//! shadowed addresses can be stale, so recovery is bounded by the metadata
//! cache capacity rather than the memory size. The price is one shadow-table
//! write on every metadata cache fill — the slow path that couples Anubis's
//! runtime to the application's metadata-cache locality (paper §6.1: 30.4 %
//! hit rate makes `canneal` 2.4× slower under Anubis).
//!
//! The shadow table itself sits in untrusted memory and is protected by an
//! auxiliary shadow Merkle tree that Anubis keeps entirely in a dedicated
//! on-chip cache (37 kB volatile, Table 3); its updates therefore cost
//! on-chip latency only, while its root occupies a second NV register.
//!
//! Counter staleness is bounded Osiris-style (AnubisST builds on Osiris for
//! general BMTs), so recovery re-derives counters by bounded trial against
//! the persisted data HMACs.

use super::osiris::{OsirisConfig, OsirisState};
use std::collections::HashMap;

/// Configuration for the Anubis protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnubisConfig {
    /// Stop-loss bound used for counter recovery (AnubisST-over-Osiris).
    pub stop_loss: u32,
}

impl Default for AnubisConfig {
    fn default() -> Self {
        AnubisConfig { stop_loss: 4 }
    }
}

/// Volatile Anubis bookkeeping. The shadow table contents live in NVM; this
/// tracks the slot assignment mirroring the metadata cache.
#[derive(Debug, Clone)]
pub(crate) struct AnubisState {
    pub osiris: OsirisState,
    /// Shadow-table slot currently assigned to each resident metadata line.
    pub slot_of: HashMap<u64, usize>,
    /// Recycled slots (from evicted lines).
    pub free_slots: Vec<usize>,
    /// High-water mark for slot allocation.
    pub next_slot: usize,
    /// Total slots (= metadata cache lines).
    pub capacity: usize,
}

impl AnubisState {
    pub fn new(config: AnubisConfig, cache_lines: usize) -> Self {
        AnubisState {
            osiris: OsirisState::new(OsirisConfig {
                stop_loss: config.stop_loss,
            }),
            slot_of: HashMap::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            capacity: cache_lines,
        }
    }

    /// Assigns a shadow slot for a newly filled line; returns the slot whose
    /// NVM entry must be (over)written.
    pub fn assign_slot(&mut self, addr: u64) -> usize {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        debug_assert!(
            slot < self.capacity,
            "shadow table overflow: cache/slot mismatch"
        );
        self.slot_of.insert(addr, slot);
        slot
    }

    /// Releases the slot of an evicted line (its NVM entry will be reused by
    /// the next fill; stale contents only cause harmless extra recovery).
    pub fn release_slot(&mut self, addr: u64) {
        if let Some(slot) = self.slot_of.remove(&addr) {
            self.free_slots.push(slot);
        }
    }

    /// Drops volatile state at a crash. Slot *contents* survive in NVM.
    pub fn crash(&mut self) {
        self.osiris.crash();
        self.slot_of.clear();
        self.free_slots.clear();
        self.next_slot = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_on_eviction() {
        let mut s = AnubisState::new(AnubisConfig::default(), 4);
        let a = s.assign_slot(0x100);
        let b = s.assign_slot(0x200);
        assert_ne!(a, b);
        s.release_slot(0x100);
        let c = s.assign_slot(0x300);
        assert_eq!(c, a, "evicted slot reused");
    }

    #[test]
    fn release_of_unknown_addr_is_noop() {
        let mut s = AnubisState::new(AnubisConfig::default(), 4);
        s.release_slot(0xdead);
        assert!(s.free_slots.is_empty());
    }

    #[test]
    fn never_exceeds_capacity_when_mirroring_cache() {
        let mut s = AnubisState::new(AnubisConfig::default(), 3);
        for i in 0..3 {
            s.assign_slot(i * 64);
        }
        // Mirror an eviction + fill cycle many times.
        for i in 3..100 {
            s.release_slot((i - 3) * 64);
            s.assign_slot(i * 64);
        }
        assert!(s.next_slot <= 3);
    }
}
