//! Bonsai Merkle Tree geometry and NVM layout.
//!
//! The BMT protects the encryption counters (its leaves); data blocks are
//! protected by per-block HMACs whose freshness follows from the counters.
//! This module maps the whole structure onto a flat physical address space:
//!
//! ```text
//! [ data | data HMACs | counter blocks | tree level B | ... | tree level 1 ]
//! ```
//!
//! Tree levels are numbered **paper-style**: the root is level 1 and level
//! *n* holds up to 8^(n-1) nodes. The root node itself lives in an on-chip
//! non-volatile register and is *not* stored in memory; levels 2..=B (where
//! B is the bottom node level) are stored in NVM, and the bottom level's
//! children are the counter blocks.

use std::fmt;
use std::sync::Arc;

/// Bytes per memory block (cache line).
pub const BLOCK_SIZE: u64 = 64;
/// Bytes per page (one counter block's coverage).
pub const PAGE_SIZE: u64 = 4096;
/// Tree arity (children per integrity node; Table 1: "8-ary integrity nodes").
pub const TREE_ARITY: u64 = 8;

/// Identifies one node of the integrity tree.
///
/// `level` uses paper numbering (root = 1); `index` counts nodes within the
/// level from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Tree level, root = 1.
    pub level: u32,
    /// Index within the level.
    pub index: u64,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}#{}", self.level, self.index)
    }
}

/// Errors constructing a [`BmtGeometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Data capacity must be a nonzero multiple of the 4 KiB page size.
    BadCapacity(u64),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::BadCapacity(c) => {
                write!(f, "data capacity {c:#x} is not a nonzero multiple of 4096")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Geometry of the protected region: region bases, level sizes, and all
/// address arithmetic used by the controller and recovery engine.
///
/// The per-level tables are shared, so cloning a geometry never allocates:
/// the controller clones it on every access to walk the tree while it
/// mutates itself.
///
/// # Examples
///
/// ```
/// use amnt_bmt::BmtGeometry;
///
/// // 2 MiB of data => 512 counter blocks => node levels 1..=3 (root, 8, 64).
/// let g = BmtGeometry::new(2 * 1024 * 1024)?;
/// assert_eq!(g.counter_blocks(), 512);
/// assert_eq!(g.bottom_level(), 3);
/// # Ok::<(), amnt_bmt::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmtGeometry {
    data_capacity: u64,
    counter_blocks: u64,
    /// Node count per level, `level_sizes[0]` = level 1 (root) = 1.
    level_sizes: Arc<[u64]>,
    hmac_base: u64,
    counter_base: u64,
    /// NVM base address per stored level (levels 2..=bottom); indexed by
    /// `level - 2`. Empty when the tree is a single root node.
    level_bases: Arc<[u64]>,
    total_size: u64,
}

impl BmtGeometry {
    /// Builds the geometry for `data_capacity` bytes of protected data.
    ///
    /// # Errors
    ///
    /// [`GeometryError::BadCapacity`] unless `data_capacity` is a nonzero
    /// multiple of 4096.
    pub fn new(data_capacity: u64) -> Result<Self, GeometryError> {
        if data_capacity == 0 || !data_capacity.is_multiple_of(PAGE_SIZE) {
            return Err(GeometryError::BadCapacity(data_capacity));
        }
        let counter_blocks = data_capacity / PAGE_SIZE;
        // Level sizes from the bottom up: ceil(counters/8), then /8 ... to 1.
        let mut sizes_bottom_up = Vec::new();
        let mut n = counter_blocks.div_ceil(TREE_ARITY);
        sizes_bottom_up.push(n);
        while n > 1 {
            n = n.div_ceil(TREE_ARITY);
            sizes_bottom_up.push(n);
        }
        let level_sizes: Vec<u64> = sizes_bottom_up.into_iter().rev().collect();

        let hmac_base = data_capacity;
        let hmac_bytes = (data_capacity / BLOCK_SIZE) * 8;
        let counter_base = hmac_base + hmac_bytes;
        let counter_bytes = counter_blocks * BLOCK_SIZE;
        // Stored levels: bottom first in memory or root-near first? Lay out
        // bottom..2 contiguously after the counters, bottom level first.
        let mut level_bases = vec![0u64; level_sizes.len().saturating_sub(1)];
        let mut cursor = counter_base + counter_bytes;
        for level in (2..=level_sizes.len() as u32).rev() {
            level_bases[(level - 2) as usize] = cursor;
            cursor += level_sizes[(level - 1) as usize] * BLOCK_SIZE;
        }
        Ok(BmtGeometry {
            data_capacity,
            counter_blocks,
            level_sizes: level_sizes.into(),
            hmac_base,
            counter_base,
            level_bases: level_bases.into(),
            total_size: cursor,
        })
    }

    /// Bytes of protected data.
    pub fn data_capacity(&self) -> u64 {
        self.data_capacity
    }

    /// Total NVM footprint: data + HMACs + counters + stored tree levels.
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Number of counter blocks (tree leaves).
    pub fn counter_blocks(&self) -> u64 {
        self.counter_blocks
    }

    /// The deepest node level (its children are counter blocks). Root = 1.
    pub fn bottom_level(&self) -> u32 {
        self.level_sizes.len() as u32
    }

    /// Number of nodes at `level` (paper numbering, root = 1).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or deeper than the bottom level.
    pub fn level_size(&self, level: u32) -> u64 {
        self.level_sizes[(level - 1) as usize]
    }

    /// Total tree nodes across all levels (root included).
    pub fn total_nodes(&self) -> u64 {
        self.level_sizes.iter().sum()
    }

    /// Whether `addr` lies in the protected data region.
    pub fn is_data_addr(&self, addr: u64) -> bool {
        addr < self.data_capacity
    }

    /// NVM address of the 8-byte HMAC for the data block at `addr`.
    pub fn hmac_addr(&self, data_addr: u64) -> u64 {
        self.hmac_base + (data_addr / BLOCK_SIZE) * 8
    }

    /// Index of the counter block covering `data_addr`.
    pub fn counter_index(&self, data_addr: u64) -> u64 {
        data_addr / PAGE_SIZE
    }

    /// Minor-counter slot (block-within-page) for `data_addr`.
    pub fn counter_slot(&self, data_addr: u64) -> usize {
        ((data_addr % PAGE_SIZE) / BLOCK_SIZE) as usize
    }

    /// NVM address of counter block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn counter_addr(&self, index: u64) -> u64 {
        assert!(index < self.counter_blocks, "counter index {index} out of range");
        self.counter_base + index * BLOCK_SIZE
    }

    /// Inverse of [`Self::counter_addr`], if `addr` is in the counter region.
    pub fn counter_index_of_addr(&self, addr: u64) -> Option<u64> {
        if addr >= self.counter_base
            && addr < self.counter_base + self.counter_blocks * BLOCK_SIZE
        {
            Some((addr - self.counter_base) / BLOCK_SIZE)
        } else {
            None
        }
    }

    /// NVM address of a stored tree node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root (level 1, held on-chip) or out of range.
    pub fn node_addr(&self, node: NodeId) -> u64 {
        assert!(node.level >= 2, "root node lives on-chip, not in NVM");
        assert!(node.level <= self.bottom_level(), "level {} too deep", node.level);
        assert!(node.index < self.level_size(node.level), "node {node} out of range");
        self.level_bases[(node.level - 2) as usize] + node.index * BLOCK_SIZE
    }

    /// Inverse of [`Self::node_addr`]: which stored node does `addr` hold?
    pub fn node_of_addr(&self, addr: u64) -> Option<NodeId> {
        for level in 2..=self.bottom_level() {
            let base = self.level_bases[(level - 2) as usize];
            let size = self.level_size(level) * BLOCK_SIZE;
            if addr >= base && addr < base + size {
                return Some(NodeId { level, index: (addr - base) / BLOCK_SIZE });
            }
        }
        None
    }

    /// The parent of `node`; `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if node.level <= 1 {
            None
        } else {
            Some(NodeId { level: node.level - 1, index: node.index / TREE_ARITY })
        }
    }

    /// The bottom-level node whose children include counter block `index`.
    pub fn counter_parent(&self, index: u64) -> NodeId {
        NodeId { level: self.bottom_level(), index: index / TREE_ARITY }
    }

    /// Which child slot (0..8) `node` occupies in its parent.
    pub fn child_slot(&self, node: NodeId) -> usize {
        (node.index % TREE_ARITY) as usize
    }

    /// Child node ids of `node`, clipped to the level's actual population.
    /// Empty for bottom-level nodes (their children are counter blocks; use
    /// [`Self::counter_children`]).
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        if node.level >= self.bottom_level() {
            return Vec::new();
        }
        let child_level = node.level + 1;
        let count = self.level_size(child_level);
        (node.index * TREE_ARITY..(node.index + 1) * TREE_ARITY)
            .filter(|&i| i < count)
            .map(|index| NodeId { level: child_level, index })
            .collect()
    }

    /// Counter-block indices that are children of the bottom-level `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not at the bottom level.
    pub fn counter_children(&self, node: NodeId) -> std::ops::Range<u64> {
        assert_eq!(node.level, self.bottom_level(), "only bottom nodes have counter children");
        let start = node.index * TREE_ARITY;
        start..(start + TREE_ARITY).min(self.counter_blocks)
    }

    /// The ancestral path of counter block `index`, bottom level first, up to
    /// and including level 2 (the root's children). Empty when the root is
    /// the only node level. Walks the levels lazily, so it never allocates.
    pub fn path_to_root(&self, counter_index: u64) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(self.counter_parent(counter_index)), |node| {
            // Level >= 2 always has a parent; the walk ends defensively
            // instead of panicking because path walks run during recovery.
            self.parent(*node)
        })
        .take_while(|node| node.level >= 2)
    }

    /// How many counter blocks one node at `level` covers.
    pub fn counters_per_node(&self, level: u32) -> u64 {
        TREE_ARITY.pow(self.bottom_level() - level + 1)
    }

    /// How many bytes of data one node at `level` covers.
    pub fn coverage_bytes(&self, level: u32) -> u64 {
        self.counters_per_node(level) * PAGE_SIZE
    }

    /// The ancestor of counter block `index` at `level` — used to find the
    /// *subtree region* a data address belongs to.
    pub fn ancestor_at_level(&self, counter_index: u64, level: u32) -> NodeId {
        assert!(level >= 1 && level <= self.bottom_level());
        NodeId { level, index: counter_index / self.counters_per_node(level) }
    }

    /// Subtree-region index of `data_addr` for a subtree root at `level`
    /// (paper numbering). Level 3 on an 8-level tree yields 64 regions.
    pub fn subtree_index(&self, data_addr: u64, level: u32) -> u64 {
        self.ancestor_at_level(self.counter_index(data_addr), level).index
    }

    /// Whether `node` is inside the subtree rooted at `subtree_root`
    /// (inclusive of the root itself).
    pub fn in_subtree(&self, node: NodeId, subtree_root: NodeId) -> bool {
        if node.level < subtree_root.level {
            return false;
        }
        let mut cur = node;
        while cur.level > subtree_root.level {
            cur = self.parent(cur).expect("level > 1");
        }
        cur == subtree_root
    }

    /// Whether counter block `index` is covered by `subtree_root`.
    pub fn counter_in_subtree(&self, index: u64, subtree_root: NodeId) -> bool {
        self.ancestor_at_level(index, subtree_root.level) == subtree_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mib(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn rejects_bad_capacity() {
        assert!(BmtGeometry::new(0).is_err());
        assert!(BmtGeometry::new(4097).is_err());
        assert!(BmtGeometry::new(PAGE_SIZE).is_ok());
    }

    #[test]
    fn eight_gib_is_an_eight_level_tree() {
        let g = BmtGeometry::new(8 * 1024 * mib(1)).unwrap();
        assert_eq!(g.counter_blocks(), 2 * 1024 * 1024);
        // Node levels 1..=7 plus the counter level = the paper's 8-level BMT.
        assert_eq!(g.bottom_level(), 7);
        assert_eq!(g.level_size(1), 1);
        assert_eq!(g.level_size(3), 64);
        assert_eq!(g.level_size(7), 262_144);
    }

    #[test]
    fn tiny_tree_has_root_only() {
        let g = BmtGeometry::new(PAGE_SIZE * 8).unwrap();
        assert_eq!(g.counter_blocks(), 8);
        assert_eq!(g.bottom_level(), 1);
        assert_eq!(g.path_to_root(3).count(), 0);
    }

    #[test]
    fn regions_do_not_overlap() {
        let g = BmtGeometry::new(mib(2)).unwrap();
        assert!(g.hmac_addr(0) >= g.data_capacity());
        assert!(g.counter_addr(0) >= g.hmac_addr(g.data_capacity() - 64) + 8);
        let bottom = g.bottom_level();
        let first_node = g.node_addr(NodeId { level: bottom, index: 0 });
        assert!(first_node >= g.counter_addr(g.counter_blocks() - 1) + 64);
        assert!(g.total_size() > first_node);
    }

    #[test]
    fn level3_of_8gib_covers_128_mib() {
        // Paper §5: "at level 3 the coverage is 128MB for an 8GB memory".
        let g = BmtGeometry::new(8 * 1024 * mib(1)).unwrap();
        assert_eq!(g.coverage_bytes(3), 128 * mib(1));
        assert_eq!(g.level_size(3), 64);
    }

    #[test]
    fn path_to_root_walks_every_level() {
        let g = BmtGeometry::new(mib(2)).unwrap(); // bottom level 3
        let path: Vec<NodeId> = g.path_to_root(511).collect();
        assert_eq!(path.len(), 2); // levels 3, 2
        assert_eq!(path[0], NodeId { level: 3, index: 63 });
        assert_eq!(path[1], NodeId { level: 2, index: 7 });
    }

    #[test]
    fn counter_slot_and_index() {
        let g = BmtGeometry::new(mib(2)).unwrap();
        assert_eq!(g.counter_index(0), 0);
        assert_eq!(g.counter_index(4096), 1);
        assert_eq!(g.counter_slot(4096 + 3 * 64), 3);
    }

    #[test]
    fn node_addr_roundtrips() {
        let g = BmtGeometry::new(mib(2)).unwrap();
        for level in 2..=g.bottom_level() {
            for index in [0, g.level_size(level) / 2, g.level_size(level) - 1] {
                let id = NodeId { level, index };
                assert_eq!(g.node_of_addr(g.node_addr(id)), Some(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "on-chip")]
    fn root_has_no_nvm_address() {
        let g = BmtGeometry::new(mib(2)).unwrap();
        g.node_addr(NodeId { level: 1, index: 0 });
    }

    #[test]
    fn subtree_membership() {
        let g = BmtGeometry::new(mib(2)).unwrap(); // 512 counters, bottom 3
        let root = NodeId { level: 2, index: 2 };
        // Level 2 node covers 64 counters => counters 128..192.
        assert!(g.counter_in_subtree(128, root));
        assert!(g.counter_in_subtree(191, root));
        assert!(!g.counter_in_subtree(192, root));
        assert!(g.in_subtree(NodeId { level: 3, index: 16 }, root));
        assert!(!g.in_subtree(NodeId { level: 3, index: 15 }, root));
        assert!(g.in_subtree(root, root));
        assert!(!g.in_subtree(NodeId { level: 2, index: 0 }, root));
    }

    #[test]
    fn ragged_tree_clips_children() {
        // 12 pages => 12 counters => bottom level sizes: ceil(12/8)=2, then 1.
        let g = BmtGeometry::new(PAGE_SIZE * 12).unwrap();
        assert_eq!(g.bottom_level(), 2);
        assert_eq!(g.level_size(2), 2);
        let last = NodeId { level: 2, index: 1 };
        assert_eq!(g.counter_children(last), 8..12);
        let root_children = g.children(NodeId { level: 1, index: 0 });
        assert_eq!(root_children.len(), 2);
    }

    // Seeded deterministic property loops (amnt-prng replaces proptest).

    #[test]
    fn parent_child_consistency() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0x6E0_0001);
        for _ in 0..256 {
            let pages = rng.gen_range(1..5000);
            let g = BmtGeometry::new(pages * PAGE_SIZE).unwrap();
            let counter = rng.gen_range(0..5000) % g.counter_blocks();
            let path: Vec<NodeId> = g.path_to_root(counter).collect();
            // Path is strictly ascending toward the root and parent-linked.
            for w in path.windows(2) {
                assert_eq!(g.parent(w[0]).unwrap(), w[1]);
            }
            if let Some(top) = path.last() {
                assert_eq!(top.level, 2);
                assert_eq!(g.parent(*top).unwrap(), NodeId { level: 1, index: 0 });
            }
        }
    }

    #[test]
    fn every_node_addr_unique() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0x6E0_0002);
        for _ in 0..48 {
            let pages = rng.gen_range(2..2000);
            let g = BmtGeometry::new(pages * PAGE_SIZE).unwrap();
            let mut seen = std::collections::HashSet::new();
            for level in 2..=g.bottom_level() {
                for index in 0..g.level_size(level) {
                    let addr = g.node_addr(NodeId { level, index });
                    assert!(seen.insert(addr), "duplicate node address {addr:#x}");
                    assert_eq!(addr % BLOCK_SIZE, 0);
                }
            }
        }
    }

    #[test]
    fn subtree_index_matches_ancestor() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0x6E0_0003);
        for _ in 0..256 {
            let pages = rng.gen_range(64..4096);
            let g = BmtGeometry::new(pages * PAGE_SIZE).unwrap();
            let level = rng.gen_range_u32(1..4).min(g.bottom_level());
            let addr = (rng.gen_range(0..4096) % pages) * PAGE_SIZE;
            let region = g.subtree_index(addr, level);
            assert!(region < g.level_size(level));
            let region_node = NodeId { level, index: region };
            assert!(g.counter_in_subtree(g.counter_index(addr), region_node));
        }
    }
}
