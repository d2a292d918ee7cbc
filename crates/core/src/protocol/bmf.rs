//! Bonsai Merkle Forest persistent root set (Freij et al. [26]).
//!
//! BMF extends the single persistent root register into a small non-volatile
//! on-chip cache holding a *forest frontier*: an antichain of node images
//! that covers every leaf. Writes persist the ancestral path up to (but not
//! including) the covering frontier node — shorter than strict's full path —
//! and the frontier node itself is updated on-chip for free. Periodic
//! maintenance *prunes* a hot frontier node into its eight children (paths
//! under it shorten) or *merges* a cold full sibling group into its parent
//! (freeing capacity). Because every leaf is always covered, recovery is
//! trivial: only the lazily-updated nodes *above* the frontier are stale,
//! and they recompute from the on-chip images in microseconds (Table 4: 0 ms).

use amnt_bmt::{NodeBytes, NodeId};
use std::collections::BTreeMap;

/// Configuration for the BMF protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmfConfig {
    /// Entries in the non-volatile root cache (paper default: 4 kB = 64
    /// 64-byte node images).
    pub capacity: usize,
    /// Data writes between prune/merge maintenance passes.
    pub maintenance_interval: u32,
    /// Frequency a frontier node must reach to be pruned into its children.
    pub prune_threshold: u64,
}

impl Default for BmfConfig {
    fn default() -> Self {
        BmfConfig {
            capacity: 64,
            maintenance_interval: 1024,
            prune_threshold: 64,
        }
    }
}

/// One persistent-root-set entry.
#[derive(Debug, Clone)]
pub(crate) struct BmfEntry {
    /// The node's current image (held in NV on-chip storage).
    pub image: NodeBytes,
    /// Access-frequency counter driving prune/merge decisions.
    pub freq: u64,
}

/// BMF controller state. The root set is non-volatile (survives crashes);
/// the interval counter is volatile.
#[derive(Debug, Clone)]
pub(crate) struct BmfState {
    pub config: BmfConfig,
    /// The frontier: node id -> entry. Invariant: the ids form an antichain
    /// covering every counter block.
    pub roots: BTreeMap<NodeId, BmfEntry>,
    pub writes_since_maintenance: u32,
}

impl BmfState {
    pub fn new(config: BmfConfig) -> Self {
        BmfState {
            config,
            roots: BTreeMap::new(),
            writes_since_maintenance: 0,
        }
    }

    /// Deepest level whose full population fits in `capacity`, used to seed
    /// the frontier. Level 1 (just the root) always fits.
    pub fn seed_level(capacity: usize, bottom_level: u32, level_size: impl Fn(u32) -> u64) -> u32 {
        let mut best = 1;
        for level in 1..=bottom_level {
            if level_size(level) as usize <= capacity {
                best = level;
            } else {
                break;
            }
        }
        best
    }

    /// The frontier node covering a counter whose level-`l` ancestor is
    /// given by `ancestor(l)`. Returns `None` only if the invariant is
    /// broken.
    pub fn covering_root(
        &self,
        bottom_level: u32,
        ancestor: impl Fn(u32) -> NodeId,
    ) -> Option<NodeId> {
        (1..=bottom_level)
            .rev()
            .map(ancestor)
            .find(|id| self.roots.contains_key(id))
    }

    /// Bumps the frequency of `root` after a covered write.
    pub fn touch(&mut self, root: NodeId) {
        if let Some(e) = self.roots.get_mut(&root) {
            e.freq += 1;
        }
    }

    /// Chooses a hot frontier node to prune into its children: hottest entry
    /// above threshold that is not at the bottom level, provided capacity
    /// allows `arity - 1` net new entries.
    pub fn pick_prune(&self, bottom_level: u32, arity: usize) -> Option<NodeId> {
        if self.roots.len() + (arity - 1) > self.config.capacity {
            return None;
        }
        self.roots
            .iter()
            .filter(|(id, e)| id.level < bottom_level && e.freq >= self.config.prune_threshold)
            .max_by_key(|(_, e)| e.freq)
            .map(|(id, _)| *id)
    }

    /// Chooses the coldest *complete* sibling group to merge into its
    /// parent; returns the parent id. `expected_children(parent)` gives how
    /// many children that parent has in the tree (8, or fewer on a ragged
    /// edge).
    pub fn pick_merge(&self, expected_children: impl Fn(NodeId) -> usize) -> Option<NodeId> {
        let mut groups: BTreeMap<NodeId, (usize, u64)> = BTreeMap::new();
        for (id, e) in &self.roots {
            if id.level <= 1 {
                continue;
            }
            let parent = NodeId {
                level: id.level - 1,
                index: id.index / 8,
            };
            let g = groups.entry(parent).or_insert((0, 0));
            g.0 += 1;
            g.1 += e.freq;
        }
        groups
            .into_iter()
            .filter(|(parent, (n, _))| *n == expected_children(*parent))
            .min_by_key(|(_, (_, freq))| *freq)
            .map(|(parent, _)| parent)
    }

    /// Halves every frequency counter (aging between intervals).
    pub fn decay(&mut self) {
        for e in self.roots.values_mut() {
            e.freq /= 2;
        }
    }

    /// Crash: the root set is non-volatile, only the interval clock resets.
    pub fn crash(&mut self) {
        self.writes_since_maintenance = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(level: u32, index: u64) -> NodeId {
        NodeId { level, index }
    }

    fn state_with(entries: &[(NodeId, u64)]) -> BmfState {
        let mut s = BmfState::new(BmfConfig::default());
        for (node, freq) in entries {
            s.roots.insert(
                *node,
                BmfEntry {
                    image: [0; 64],
                    freq: *freq,
                },
            );
        }
        s
    }

    #[test]
    fn seed_level_picks_deepest_full_level() {
        let sizes = |l: u32| 8u64.pow(l - 1);
        assert_eq!(BmfState::seed_level(64, 7, sizes), 3); // 64 nodes at level 3
        assert_eq!(BmfState::seed_level(63, 7, sizes), 2);
        assert_eq!(BmfState::seed_level(1, 7, sizes), 1);
        assert_eq!(
            BmfState::seed_level(1 << 20, 3, sizes),
            3,
            "clamps to bottom"
        );
    }

    #[test]
    fn covering_root_finds_deepest() {
        let s = state_with(&[(id(2, 3), 0), (id(3, 25), 0)]);
        // Counter whose ancestors are level3 #25, level2 #3, level1 #0.
        let anc = |l: u32| match l {
            3 => id(3, 25),
            2 => id(2, 3),
            _ => id(1, 0),
        };
        assert_eq!(s.covering_root(3, anc), Some(id(3, 25)));
        // A counter covered only at level 2.
        let anc2 = |l: u32| match l {
            3 => id(3, 24),
            2 => id(2, 3),
            _ => id(1, 0),
        };
        assert_eq!(s.covering_root(3, anc2), Some(id(2, 3)));
    }

    #[test]
    fn prune_requires_heat_and_capacity() {
        let mut s = state_with(&[(id(2, 0), 100), (id(2, 1), 5)]);
        s.config.capacity = 16;
        s.config.prune_threshold = 64;
        assert_eq!(s.pick_prune(7, 8), Some(id(2, 0)));
        s.config.capacity = 8; // 2 + 7 > 8: no room
        assert_eq!(s.pick_prune(7, 8), None);
        s.config.capacity = 16;
        s.roots.get_mut(&id(2, 0)).unwrap().freq = 10; // too cold
        assert_eq!(s.pick_prune(7, 8), None);
    }

    #[test]
    fn bottom_level_nodes_never_prune() {
        let s = state_with(&[(id(7, 0), 1000)]);
        assert_eq!(s.pick_prune(7, 8), None);
    }

    #[test]
    fn merge_needs_a_complete_group() {
        let mut entries: Vec<(NodeId, u64)> = (0..8).map(|i| (id(3, i), 1)).collect();
        entries.push((id(3, 9), 0)); // incomplete group under parent (2,1)
        let s = state_with(&entries);
        assert_eq!(s.pick_merge(|_| 8), Some(id(2, 0)));
    }

    #[test]
    fn merge_picks_coldest_group() {
        let mut entries: Vec<(NodeId, u64)> = (0..8).map(|i| (id(3, i), 10)).collect();
        entries.extend((8..16).map(|i| (id(3, i), 1)));
        let s = state_with(&entries);
        assert_eq!(s.pick_merge(|_| 8), Some(id(2, 1)));
    }

    #[test]
    fn decay_halves() {
        let mut s = state_with(&[(id(2, 0), 9)]);
        s.decay();
        assert_eq!(s.roots[&id(2, 0)].freq, 4);
    }
}
