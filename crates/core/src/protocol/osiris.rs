//! Osiris stop-loss counter persistence (Ye et al. [82]).

use std::collections::HashMap;

/// Configuration for the Osiris protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsirisConfig {
    /// Persist a counter block after every `stop_loss` updates to it, so a
    /// persisted counter is never more than `stop_loss - 1` bumps stale.
    pub stop_loss: u32,
}

impl Default for OsirisConfig {
    fn default() -> Self {
        OsirisConfig { stop_loss: 4 }
    }
}

/// Volatile Osiris bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct OsirisState {
    pub config: OsirisConfig,
    /// Updates since the last persist, per counter block.
    pub pending: HashMap<u64, u32>,
}

impl OsirisState {
    pub fn new(config: OsirisConfig) -> Self {
        OsirisState {
            config,
            pending: HashMap::new(),
        }
    }

    /// Records an update to counter block `index`; returns `true` when the
    /// stop-loss interval is reached and the block must be persisted now.
    pub fn record_update(&mut self, index: u64) -> bool {
        let n = self.pending.entry(index).or_insert(0);
        *n += 1;
        if *n >= self.config.stop_loss {
            self.pending.remove(&index);
            true
        } else {
            false
        }
    }

    /// Advances the clock of counter block `index` for one write; returns
    /// whether the block persists with it: its stop-loss interval is
    /// reached, or `overflow` (a re-encrypted page's new major counter)
    /// forces it out. Either way its clock restarts.
    pub fn write_persists(&mut self, index: u64, overflow: bool) -> bool {
        let persist = self.record_update(index) || overflow;
        if persist {
            self.mark_persisted(index);
        }
        persist
    }

    /// Marks `index` as freshly persisted (e.g. after an overflow or an
    /// eviction writeback).
    pub fn mark_persisted(&mut self, index: u64) {
        self.pending.remove(&index);
    }

    /// Drops volatile state at a crash.
    pub fn crash(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persists_every_nth_update() {
        let mut s = OsirisState::new(OsirisConfig { stop_loss: 3 });
        assert!(!s.record_update(7));
        assert!(!s.record_update(7));
        assert!(s.record_update(7), "third update persists");
        assert!(!s.record_update(7), "counter resets after persist");
    }

    #[test]
    fn blocks_are_independent() {
        let mut s = OsirisState::new(OsirisConfig { stop_loss: 2 });
        assert!(!s.record_update(1));
        assert!(!s.record_update(2));
        assert!(s.record_update(1));
        assert!(s.record_update(2));
    }

    #[test]
    fn mark_persisted_resets_the_clock() {
        let mut s = OsirisState::new(OsirisConfig { stop_loss: 2 });
        s.record_update(5);
        s.mark_persisted(5);
        assert!(!s.record_update(5));
        assert!(s.record_update(5));
    }

    #[test]
    fn stop_loss_of_one_is_write_through() {
        let mut s = OsirisState::new(OsirisConfig { stop_loss: 1 });
        assert!(s.record_update(0));
        assert!(s.record_update(0));
    }
}
