//! Functional Bonsai Merkle Tree operations over an NVM device.
//!
//! A [`Bmt`] couples a [`BmtGeometry`] with a keyed hasher and knows how to
//! compute, build, verify and rebuild integrity nodes stored on the device.
//! Node layout: a 64-byte node holds eight big-endian 8-byte slots; slot *j*
//! is the truncated HMAC of child *j*'s 64-byte content, keyed with the
//! on-chip hash key and bound to the child's tree position (so nodes cannot
//! be spliced elsewhere in the tree).

use crate::counter::CounterBlock;
use crate::geometry::{BmtGeometry, NodeId, BLOCK_SIZE, TREE_ARITY};
use amnt_crypto::{HmacSha256, DATA_MAC_MSG_LEN};
use amnt_nvm::{Nvm, NvmError, FRAME_SIZE};
use std::ops::Range;

/// A 64-byte tree node or counter block image.
pub type NodeBytes = [u8; 64];

/// Keyed hashing for tree positions.
#[derive(Debug, Clone)]
pub struct BmtHasher {
    hmac: HmacSha256,
}

impl BmtHasher {
    /// Creates a hasher keyed with the on-chip integrity key.
    pub fn new(key: &[u8]) -> Self {
        BmtHasher {
            hmac: HmacSha256::new(key),
        }
    }

    /// MAC of counter block `index` with content `bytes`.
    ///
    /// The MAC of an all-zero block is canonically **zero**: untouched
    /// (factory-state) metadata verifies without ever being initialised, so
    /// a terabyte-scale device needs no whole-tree build at first boot. A
    /// "reset to zero" attack on an initialised region still changes its
    /// ancestors' MACs and is caught one level up.
    pub fn counter_mac(&self, bytes: &NodeBytes, index: u64) -> u64 {
        if bytes.iter().all(|&b| b == 0) {
            return 0;
        }
        self.hmac
            .mac64_parts(&[bytes, b"ctr", &index.to_le_bytes()])
    }

    /// MAC of tree node `node` with content `bytes`. All-zero nodes MAC to
    /// zero (see [`Self::counter_mac`]).
    pub fn node_mac(&self, bytes: &NodeBytes, node: NodeId) -> u64 {
        if bytes.iter().all(|&b| b == 0) {
            return 0;
        }
        self.hmac.mac64_parts(&[
            bytes,
            b"node",
            &node.level.to_le_bytes(),
            &node.index.to_le_bytes(),
        ])
    }

    /// MAC of a data block: binds ciphertext to its address and counter so
    /// stale (replayed) data fails verification.
    pub fn data_mac(&self, ciphertext: &NodeBytes, addr: u64, major: u64, minor: u8) -> u64 {
        self.hmac.mac64_parts(&[
            ciphertext,
            b"data",
            &addr.to_le_bytes(),
            &major.to_le_bytes(),
            &[minor],
        ])
    }

    /// The flattened message [`Self::data_mac`] authenticates, as one
    /// fixed-size buffer: `ciphertext ‖ "data" ‖ addr ‖ major ‖ minor`.
    ///
    /// The controller's lazy verify queue stores this per deferred read and
    /// later drains whole batches through [`amnt_crypto::mac64_batch`]; the
    /// `data_mac_message_matches_data_mac` test pins the equivalence
    /// `hmac().mac64(&data_mac_message(..)) == data_mac(..)`.
    pub fn data_mac_message(
        &self,
        ciphertext: &NodeBytes,
        addr: u64,
        major: u64,
        minor: u8,
    ) -> [u8; DATA_MAC_MSG_LEN] {
        let mut msg = [0u8; DATA_MAC_MSG_LEN];
        msg[..64].copy_from_slice(ciphertext);
        msg[64..68].copy_from_slice(b"data");
        msg[68..76].copy_from_slice(&addr.to_le_bytes());
        msg[76..84].copy_from_slice(&major.to_le_bytes());
        msg[84] = minor;
        msg
    }

    /// The underlying keyed HMAC — lent to the multi-lane batch engine so
    /// queue drains reuse this hasher's precomputed pad midstates.
    pub fn hmac(&self) -> &HmacSha256 {
        &self.hmac
    }
}

/// Reads slot `slot` (0..8) of a node image.
pub fn slot_of(bytes: &NodeBytes, slot: usize) -> u64 {
    // A fold rather than a fallible slice-to-array conversion: node slots
    // are read on the recovery path, which must stay panic-free (lint R1).
    bytes[slot * 8..slot * 8 + 8]
        .iter()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Writes slot `slot` (0..8) of a node image.
pub fn set_slot(bytes: &mut NodeBytes, slot: usize, mac: u64) {
    bytes[slot * 8..slot * 8 + 8].copy_from_slice(&mac.to_be_bytes());
}

/// A Bonsai Merkle Tree bound to a geometry and a hash key.
///
/// # Examples
///
/// ```
/// use amnt_bmt::{Bmt, BmtGeometry};
/// use amnt_nvm::{Nvm, NvmConfig};
///
/// let geometry = BmtGeometry::new(2 * 1024 * 1024)?;
/// let mut nvm = Nvm::new(NvmConfig::gib(1));
/// let bmt = Bmt::new(geometry, b"integrity key");
/// let root = bmt.build_full(&mut nvm)?;
/// assert!(bmt.verify_full(&mut nvm, &root)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bmt {
    geometry: BmtGeometry,
    hasher: BmtHasher,
}

impl Bmt {
    /// Couples `geometry` with a hasher keyed by `key`.
    pub fn new(geometry: BmtGeometry, key: &[u8]) -> Self {
        Bmt {
            geometry,
            hasher: BmtHasher::new(key),
        }
    }

    /// The tree's geometry.
    pub fn geometry(&self) -> &BmtGeometry {
        &self.geometry
    }

    /// The tree's hasher.
    pub fn hasher(&self) -> &BmtHasher {
        &self.hasher
    }

    /// Reads counter block `index` from the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_counter(&self, nvm: &mut Nvm, index: u64) -> Result<CounterBlock, NvmError> {
        let bytes = nvm.read_block(self.geometry.counter_addr(index))?;
        Ok(CounterBlock::decode(&bytes))
    }

    /// Writes counter block `index` to the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_counter(
        &self,
        nvm: &mut Nvm,
        index: u64,
        counter: &CounterBlock,
    ) -> Result<(), NvmError> {
        nvm.write_block(self.geometry.counter_addr(index), &counter.encode())
    }

    /// Computes the image of `node` from its children as currently stored on
    /// the device. Works for any level: bottom-level nodes hash counter
    /// blocks, the root (level 1) hashes the top stored level.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn compute_node(&self, nvm: &mut Nvm, node: NodeId) -> Result<NodeBytes, NvmError> {
        let mut out = [0u8; BLOCK_SIZE as usize];
        if node.level == self.geometry.bottom_level() {
            for index in self.geometry.counter_children(node) {
                let bytes = nvm.read_block(self.geometry.counter_addr(index))?;
                let slot = (index % TREE_ARITY) as usize;
                set_slot(&mut out, slot, self.hasher.counter_mac(&bytes, index));
            }
        } else {
            for child in self.geometry.children(node) {
                let bytes = nvm.read_block(self.geometry.node_addr(child))?;
                let slot = self.geometry.child_slot(child);
                set_slot(&mut out, slot, self.hasher.node_mac(&bytes, child));
            }
        }
        Ok(out)
    }

    /// Rebuilds every stored level from the counters, bottom-up, writing the
    /// recomputed nodes back to the device, and returns the recomputed root
    /// image (level 1, which lives on-chip).
    ///
    /// This is exactly the *leaf metadata persistence* recovery procedure
    /// (paper §2.3): recovery time is dominated by reading all counters and
    /// all inner levels.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn build_full(&self, nvm: &mut Nvm) -> Result<NodeBytes, NvmError> {
        for level in (2..=self.geometry.bottom_level()).rev() {
            for index in 0..self.geometry.level_size(level) {
                let node = NodeId { level, index };
                let image = self.compute_node(nvm, node)?;
                nvm.write_block(self.geometry.node_addr(node), &image)?;
            }
        }
        self.compute_node(nvm, NodeId { level: 1, index: 0 })
    }

    /// Recomputes the whole tree *without* writing anything and compares the
    /// resulting root against `root`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn verify_full(&self, nvm: &mut Nvm, root: &NodeBytes) -> Result<bool, NvmError> {
        // Recompute bottom-up into a scratch map so stored (possibly stale
        // or tampered) inner nodes are not trusted.
        use std::collections::HashMap;
        let mut level_images: HashMap<NodeId, NodeBytes> = HashMap::new();
        for level in (1..=self.geometry.bottom_level()).rev() {
            for index in 0..self.geometry.level_size(level) {
                let node = NodeId { level, index };
                let mut image = [0u8; BLOCK_SIZE as usize];
                if level == self.geometry.bottom_level() {
                    image = self.compute_node(nvm, node)?;
                } else {
                    for child in self.geometry.children(node) {
                        let bytes = level_images[&child];
                        set_slot(
                            &mut image,
                            self.geometry.child_slot(child),
                            self.hasher.node_mac(&bytes, child),
                        );
                    }
                }
                level_images.insert(node, image);
            }
        }
        Ok(level_images[&NodeId { level: 1, index: 0 }] == *root)
    }

    /// Rebuilds all stored nodes inside the subtree rooted at `subtree_root`
    /// (the AMNT recovery procedure), writing them back, and returns the
    /// recomputed image of the subtree root itself.
    ///
    /// When `subtree_root` is the global root (level 1), this degenerates to
    /// [`Self::build_full`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn rebuild_subtree(
        &self,
        nvm: &mut Nvm,
        subtree_root: NodeId,
    ) -> Result<NodeBytes, NvmError> {
        if subtree_root.level == 1 {
            return self.build_full(nvm);
        }
        let bottom = self.geometry.bottom_level();
        // Recompute strictly-descendant levels bottom-up.
        for level in ((subtree_root.level + 1)..=bottom).rev() {
            let span = TREE_ARITY.pow(level - subtree_root.level);
            let start = subtree_root.index * span;
            let end = (start + span).min(self.geometry.level_size(level));
            for index in start..end {
                let node = NodeId { level, index };
                let image = self.compute_node(nvm, node)?;
                nvm.write_block(self.geometry.node_addr(node), &image)?;
            }
        }
        let image = self.compute_node(nvm, subtree_root)?;
        nvm.write_block(self.geometry.node_addr(subtree_root), &image)?;
        Ok(image)
    }

    // ------------------------------------------------------------------
    // Sparse (on-demand materialization) operations
    // ------------------------------------------------------------------
    //
    // The all-zero-MACs-to-zero convention (see [`BmtHasher::counter_mac`])
    // makes untouched subtrees resolve to the known all-zero digest at every
    // level without being stored. The sparse operations below exploit that:
    // they enumerate only the counter blocks whose backing frames have been
    // touched (via [`Nvm::touched_frames_in`]) and walk just their ancestor
    // closure, so post-crash work is O(touched), not O(capacity). The
    // soundness argument: every nonzero counter lives in a touched frame
    // (writes back frames, and frames are never unbacked), so any subtree
    // outside the touched closure has all-zero counters and — on a clean
    // device — all-zero stored nodes, exactly the digest the sparse walk
    // assumes. Stored garbage over untouched counters changes the
    // recomputed root one level up and is *detected*, never silently
    // trusted.
    //
    // Host memory follows one level of the closure, not all of it: the
    // walks seed from the bottom level's parent list, read straight off the
    // touched counter frames, and `verify_touched` keeps only the level
    // below's recomputed images.

    /// Per touched counter frame, ascending, the indices in `counters` (a
    /// range of the device's counter blocks) of the counter blocks that
    /// frame holds.
    fn touched_counter_runs<'a>(
        &self,
        nvm: &'a Nvm,
        counters: Range<u64>,
    ) -> impl Iterator<Item = Range<u64>> + 'a {
        let base = self.geometry.counter_addr(0);
        let start = base + counters.start * BLOCK_SIZE;
        let end = base + counters.end * BLOCK_SIZE;
        nvm.touched_frames_in(start, end).map(move |frame| {
            let lo = frame.max(start) - base;
            let hi = (frame + FRAME_SIZE as u64).min(end) - base;
            lo / BLOCK_SIZE..hi / BLOCK_SIZE
        })
    }

    /// Counter-block indices whose backing frames have been touched, in
    /// ascending order. Superset of the nonzero counters; at most
    /// `FRAME_SIZE / BLOCK_SIZE` per touched frame.
    pub fn touched_counters(&self, nvm: &Nvm) -> Vec<u64> {
        self.touched_counter_runs(nvm, 0..self.geometry.counter_blocks())
            .flatten()
            .collect()
    }

    /// Deduplicated, ascending bottom-level parents of the touched counter
    /// blocks among `counters`: up to 8 per touched frame, without the
    /// per-counter list [`Self::touched_counters`] builds.
    fn touched_parents(&self, nvm: &Nvm, counters: Range<u64>) -> Vec<u64> {
        let mut parents: Vec<u64> = Vec::new();
        for run in self.touched_counter_runs(nvm, counters) {
            let first = run.start / TREE_ARITY;
            // Neighbouring frames may share the parent between them.
            let from = parents.last().map_or(first, |&last| first.max(last + 1));
            parents.extend(from..run.end.div_ceil(TREE_ARITY));
        }
        parents
    }

    /// Deduplicated parent indices (one level up) of a sorted index list.
    fn parent_indices(indices: &[u64]) -> Vec<u64> {
        let mut up: Vec<u64> = indices.iter().map(|i| i / TREE_ARITY).collect();
        up.dedup();
        up
    }

    /// Sparse [`Self::build_full`]: rebuilds only the stored nodes on the
    /// ancestor closure of the touched counter blocks, bottom-up, writing
    /// them back, and returns the recomputed root image together with the
    /// number of nodes recomputed (the root register image counts as one).
    /// Untouched subtrees are never read or written — their digest is the
    /// all-zero node at every level.
    ///
    /// On a clean device this recomputes the same root as
    /// [`Self::build_full`]; see the module notes above for the argument.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn build_touched(&self, nvm: &mut Nvm) -> Result<(NodeBytes, u64), NvmError> {
        let mut indices = self.touched_parents(nvm, 0..self.geometry.counter_blocks());
        let mut recomputed = 0u64;
        for level in (2..=self.geometry.bottom_level()).rev() {
            for &index in &indices {
                let node = NodeId { level, index };
                let image = self.compute_node(nvm, node)?;
                nvm.write_block(self.geometry.node_addr(node), &image)?;
                recomputed += 1;
            }
            indices = Self::parent_indices(&indices);
        }
        let root = self.compute_node(nvm, NodeId { level: 1, index: 0 })?;
        Ok((root, recomputed + 1))
    }

    /// Sparse [`Self::verify_full`]: recomputes the root from the touched
    /// counter blocks' ancestor closure (level by level, writing nothing)
    /// and compares it against `root`. A child outside the touched closure
    /// contributes its *stored* image: untouched counters mean a clean
    /// device stores zero there, and stored garbage perturbs the recomputed
    /// root — strictly more sensitive than [`Self::verify_full`], never
    /// less.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn verify_touched(&self, nvm: &mut Nvm, root: &NodeBytes) -> Result<bool, NvmError> {
        let bottom = self.geometry.bottom_level();
        // The level below's recomputed images, ascending by index.
        let mut below: Vec<(u64, NodeBytes)> = Vec::new();
        let mut indices = self.touched_parents(nvm, 0..self.geometry.counter_blocks());
        for level in (1..=bottom).rev() {
            if level == 1 {
                // The root is always recomputed, even with nothing touched.
                indices = vec![0];
            }
            let mut images = Vec::with_capacity(indices.len());
            for &index in &indices {
                let node = NodeId { level, index };
                let image = if level == bottom {
                    self.compute_node(nvm, node)?
                } else {
                    let mut img = [0u8; BLOCK_SIZE as usize];
                    for child in self.geometry.children(node) {
                        let recomputed = below
                            .binary_search_by_key(&child.index, |&(index, _)| index)
                            .ok()
                            .and_then(|at| below.get(at));
                        let bytes = match recomputed {
                            Some((_, image)) => *image,
                            None => nvm.read_block(self.geometry.node_addr(child))?,
                        };
                        set_slot(
                            &mut img,
                            self.geometry.child_slot(child),
                            self.hasher.node_mac(&bytes, child),
                        );
                    }
                    img
                };
                images.push((index, image));
            }
            indices = Self::parent_indices(&indices);
            below = images;
        }
        Ok(below.first().is_some_and(|(_, image)| image == root))
    }

    /// Sparse [`Self::rebuild_subtree`]: rebuilds only the touched ancestor
    /// closure inside the subtree rooted at `subtree_root`, writes the
    /// recomputed subtree root back, and returns its image with the count of
    /// nodes recomputed.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn rebuild_subtree_touched(
        &self,
        nvm: &mut Nvm,
        subtree_root: NodeId,
    ) -> Result<(NodeBytes, u64), NvmError> {
        if subtree_root.level == 1 {
            return self.build_touched(nvm);
        }
        let counters = self.geometry.subtree_counters(subtree_root);
        let mut indices = self.touched_parents(nvm, counters);
        let mut recomputed = 0u64;
        for level in ((subtree_root.level + 1)..=self.geometry.bottom_level()).rev() {
            for &index in &indices {
                let node = NodeId { level, index };
                let image = self.compute_node(nvm, node)?;
                nvm.write_block(self.geometry.node_addr(node), &image)?;
                recomputed += 1;
            }
            indices = Self::parent_indices(&indices);
        }
        let image = self.compute_node(nvm, subtree_root)?;
        nvm.write_block(self.geometry.node_addr(subtree_root), &image)?;
        Ok((image, recomputed + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnt_nvm::NvmConfig;

    fn setup(pages: u64) -> (Bmt, Nvm) {
        let geometry = BmtGeometry::new(pages * 4096).expect("valid capacity");
        let nvm = Nvm::new(NvmConfig::gib(1));
        (Bmt::new(geometry, b"test key"), nvm)
    }

    /// The flattened queue-entry message must authenticate to exactly the
    /// scalar `data_mac` — this equality is what lets the controller defer
    /// a leaf check and batch-verify it later without changing the MAC.
    #[test]
    fn data_mac_message_matches_data_mac() {
        let hasher = BmtHasher::new(b"test key");
        let mut ct = [0u8; 64];
        for (i, b) in ct.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(0x9D);
        }
        for (addr, major, minor) in [(0u64, 0u64, 0u8), (0x7C0, 3, 7), (u64::MAX, u64::MAX, 255)] {
            let msg = hasher.data_mac_message(&ct, addr, major, minor);
            assert_eq!(
                hasher.hmac().mac64(&msg),
                hasher.data_mac(&ct, addr, major, minor),
                "addr {addr:#x} major {major} minor {minor}"
            );
            let batch = amnt_crypto::mac64_batch(&[(hasher.hmac(), &msg[..])]);
            assert_eq!(batch[0], hasher.data_mac(&ct, addr, major, minor));
        }
    }

    #[test]
    fn build_then_verify() {
        let (bmt, mut nvm) = setup(512);
        let root = bmt.build_full(&mut nvm).unwrap();
        assert!(bmt.verify_full(&mut nvm, &root).unwrap());
    }

    #[test]
    fn counter_update_changes_root() {
        let (bmt, mut nvm) = setup(512);
        let root = bmt.build_full(&mut nvm).unwrap();
        let mut c = bmt.read_counter(&mut nvm, 100).unwrap();
        c.increment(5);
        bmt.write_counter(&mut nvm, 100, &c).unwrap();
        assert!(!bmt.verify_full(&mut nvm, &root).unwrap());
        let new_root = bmt.build_full(&mut nvm).unwrap();
        assert_ne!(new_root, root);
        assert!(bmt.verify_full(&mut nvm, &new_root).unwrap());
    }

    #[test]
    fn tampered_counter_detected() {
        let (bmt, mut nvm) = setup(512);
        let root = bmt.build_full(&mut nvm).unwrap();
        nvm.tamper_flip_bit(bmt.geometry().counter_addr(7) + 3, 2);
        assert!(!bmt.verify_full(&mut nvm, &root).unwrap());
    }

    #[test]
    fn tampered_inner_node_does_not_fool_full_verify() {
        let (bmt, mut nvm) = setup(512);
        let root = bmt.build_full(&mut nvm).unwrap();
        // verify_full recomputes from counters, so stored-node tampering
        // alone does not change the verdict...
        let node = NodeId {
            level: bmt.geometry().bottom_level(),
            index: 0,
        };
        nvm.tamper_flip_bit(bmt.geometry().node_addr(node), 0);
        assert!(bmt.verify_full(&mut nvm, &root).unwrap());
        // ...but the stored node no longer matches its recomputation.
        let stored = nvm.read_block(bmt.geometry().node_addr(node)).unwrap();
        let computed = bmt.compute_node(&mut nvm, node).unwrap();
        assert_ne!(stored, computed);
    }

    #[test]
    fn subtree_rebuild_matches_full_rebuild() {
        let (bmt, mut nvm) = setup(512); // bottom level 3
        bmt.build_full(&mut nvm).unwrap();
        // Dirty some counters inside region (level 2, index 2): counters 128..192.
        for idx in [130, 150, 191] {
            let mut c = bmt.read_counter(&mut nvm, idx).unwrap();
            c.increment(0);
            bmt.write_counter(&mut nvm, idx, &c).unwrap();
        }
        let sub = NodeId { level: 2, index: 2 };
        bmt.rebuild_subtree(&mut nvm, sub).unwrap();
        // Every stored node inside the subtree now matches recomputation.
        for level in 2..=3 {
            for index in 0..bmt.geometry().level_size(level as u32) {
                let node = NodeId {
                    level: level as u32,
                    index,
                };
                if bmt.geometry().in_subtree(node, sub) {
                    let stored = nvm.read_block(bmt.geometry().node_addr(node)).unwrap();
                    let computed = bmt.compute_node(&mut nvm, node).unwrap();
                    assert_eq!(stored, computed, "node {node} stale after rebuild");
                }
            }
        }
    }

    #[test]
    fn subtree_rebuild_at_root_is_full_build() {
        let (bmt, mut nvm) = setup(64);
        let mut c = bmt.read_counter(&mut nvm, 3).unwrap();
        c.increment(1);
        bmt.write_counter(&mut nvm, 3, &c).unwrap();
        let via_subtree = bmt
            .rebuild_subtree(&mut nvm, NodeId { level: 1, index: 0 })
            .unwrap();
        assert!(bmt.verify_full(&mut nvm, &via_subtree).unwrap());
    }

    #[test]
    fn ragged_tree_builds_and_verifies() {
        let (bmt, mut nvm) = setup(12); // 12 counters, ragged
        let root = bmt.build_full(&mut nvm).unwrap();
        assert!(bmt.verify_full(&mut nvm, &root).unwrap());
        let mut c = bmt.read_counter(&mut nvm, 11).unwrap();
        c.increment(63);
        bmt.write_counter(&mut nvm, 11, &c).unwrap();
        assert!(!bmt.verify_full(&mut nvm, &root).unwrap());
    }

    #[test]
    fn root_only_tree() {
        let (bmt, mut nvm) = setup(8);
        assert_eq!(bmt.geometry().bottom_level(), 1);
        let root = bmt.build_full(&mut nvm).unwrap();
        assert!(bmt.verify_full(&mut nvm, &root).unwrap());
        let mut c = bmt.read_counter(&mut nvm, 0).unwrap();
        c.increment(0);
        bmt.write_counter(&mut nvm, 0, &c).unwrap();
        assert!(!bmt.verify_full(&mut nvm, &root).unwrap());
    }

    #[test]
    fn slot_helpers_roundtrip() {
        let mut bytes = [0u8; 64];
        set_slot(&mut bytes, 3, 0xdead_beef_1234_5678);
        assert_eq!(slot_of(&bytes, 3), 0xdead_beef_1234_5678);
        assert_eq!(slot_of(&bytes, 2), 0);
        assert_eq!(slot_of(&bytes, 4), 0);
    }

    #[test]
    fn position_binding_prevents_node_splicing() {
        let (bmt, mut nvm) = setup(512);
        // Touch a counter so node images are nonzero.
        let mut c = bmt.read_counter(&mut nvm, 0).unwrap();
        c.increment(0);
        bmt.write_counter(&mut nvm, 0, &c).unwrap();
        bmt.build_full(&mut nvm).unwrap();
        let g = bmt.geometry().clone();
        let a = NodeId { level: 3, index: 0 };
        let b = NodeId { level: 3, index: 1 };
        let bytes_a = nvm.read_block(g.node_addr(a)).unwrap();
        assert_ne!(bytes_a, [0u8; 64]);
        // Same bytes, different position => different MAC.
        assert_ne!(
            bmt.hasher().node_mac(&bytes_a, a),
            bmt.hasher().node_mac(&bytes_a, b)
        );
    }

    #[test]
    fn all_zero_metadata_macs_to_zero() {
        let hasher = BmtHasher::new(b"k");
        assert_eq!(hasher.counter_mac(&[0u8; 64], 9), 0);
        assert_eq!(
            hasher.node_mac(&[0u8; 64], NodeId { level: 2, index: 1 }),
            0
        );
        assert_ne!(hasher.counter_mac(&[1u8; 64], 9), 0);
    }

    #[test]
    fn sparse_build_matches_dense_build() {
        let (bmt, mut dense) = setup(512);
        // Touch a scattered set of counters (different subtrees, incl. the
        // last ragged one).
        for idx in [0u64, 3, 130, 150, 191, 511] {
            let mut c = bmt.read_counter(&mut dense, idx).unwrap();
            c.increment((idx % 64) as usize);
            bmt.write_counter(&mut dense, idx, &c).unwrap();
        }
        let mut sparse = dense.clone();
        let dense_root = bmt.build_full(&mut dense).unwrap();
        let (sparse_root, recomputed) = bmt.build_touched(&mut sparse).unwrap();
        assert_eq!(sparse_root, dense_root);
        assert!(recomputed < bmt.geometry().total_nodes());
        // Both media serve identical bytes everywhere (all-zero frames
        // normalise away, and every nonzero node is in the touched closure).
        assert_eq!(sparse.media_image(), dense.media_image());
        // Verdicts agree too, sparse and dense, on the clean state...
        assert!(bmt.verify_full(&mut sparse, &sparse_root).unwrap());
        assert!(bmt.verify_touched(&mut sparse, &sparse_root).unwrap());
        // ...and after a counter tamper.
        nvm_tamper_counter(&bmt, &mut sparse, 150);
        assert!(!bmt.verify_full(&mut sparse, &sparse_root).unwrap());
        assert!(!bmt.verify_touched(&mut sparse, &sparse_root).unwrap());
    }

    fn nvm_tamper_counter(bmt: &Bmt, nvm: &mut Nvm, index: u64) {
        nvm.tamper_flip_bit(bmt.geometry().counter_addr(index) + 5, 1);
    }

    #[test]
    fn sparse_verify_agrees_with_dense_on_counter_states() {
        for pages in [8u64, 12, 64, 512] {
            let (bmt, mut nvm) = setup(pages);
            // Untouched device: zero root verifies both ways.
            let zero_root = [0u8; 64];
            assert_eq!(
                bmt.verify_full(&mut nvm, &zero_root).unwrap(),
                bmt.verify_touched(&mut nvm, &zero_root).unwrap(),
                "{pages} pages, factory state"
            );
            assert!(bmt.verify_touched(&mut nvm, &zero_root).unwrap());
            let mut c = bmt.read_counter(&mut nvm, pages - 1).unwrap();
            c.increment(7);
            bmt.write_counter(&mut nvm, pages - 1, &c).unwrap();
            let (root, _) = bmt.build_touched(&mut nvm).unwrap();
            for tamper in [None, Some(0u64), Some(pages - 1)] {
                let mut probe = nvm.clone();
                if let Some(idx) = tamper {
                    nvm_tamper_counter(&bmt, &mut probe, idx);
                }
                let mut probe2 = probe.clone();
                assert_eq!(
                    bmt.verify_full(&mut probe, &root).unwrap(),
                    bmt.verify_touched(&mut probe2, &root).unwrap(),
                    "{pages} pages, tamper {tamper:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_verify_detects_garbage_over_untouched_counters() {
        let (bmt, mut nvm) = setup(512);
        let mut c = bmt.read_counter(&mut nvm, 0).unwrap();
        c.increment(0);
        bmt.write_counter(&mut nvm, 0, &c).unwrap();
        let (root, _) = bmt.build_touched(&mut nvm).unwrap();
        assert!(bmt.verify_touched(&mut nvm, &root).unwrap());
        // Garbage in a stored node that borders the touched ancestry (a
        // child of the always-recomputed root) over all-untouched counters:
        // the dense verify recomputes (and ignores) it, the sparse verify
        // reads the stored image and flags the mismatch — stricter there.
        let boundary = NodeId {
            level: 2,
            index: bmt.geometry().level_size(2) - 1,
        };
        let mut bordering = nvm.clone();
        bordering.tamper_flip_bit(bmt.geometry().node_addr(boundary), 4);
        assert!(bmt.verify_full(&mut bordering, &root).unwrap());
        assert!(!bmt.verify_touched(&mut bordering, &root).unwrap());
        // Garbage *deep inside* an untouched subtree is never read by either
        // walk: both treat stored inner nodes as untrusted scratch, so the
        // verdicts agree (runtime path verification catches it on access).
        let deep = NodeId {
            level: bmt.geometry().bottom_level(),
            index: bmt.geometry().level_size(bmt.geometry().bottom_level()) - 1,
        };
        let mut buried = nvm.clone();
        buried.tamper_flip_bit(bmt.geometry().node_addr(deep), 4);
        assert!(bmt.verify_full(&mut buried, &root).unwrap());
        assert!(bmt.verify_touched(&mut buried, &root).unwrap());
    }

    /// The frame-derived parent lists equal the parents of the
    /// per-counter list, filtered to a subtree, on ragged geometries whose
    /// counter region starts mid-frame.
    #[test]
    fn touched_parents_match_the_parents_of_touched_counters() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0x7A_0001);
        for _ in 0..64 {
            let (bmt, mut nvm) = setup(rng.gen_range(1..5000));
            let g = bmt.geometry().clone();
            for _ in 0..rng.gen_range(0..12) {
                let index = rng.gen_range(0..g.counter_blocks());
                nvm.write_block(g.counter_addr(index), &[1; 64]).unwrap();
            }
            let counters = bmt.touched_counters(&nvm);
            assert_eq!(
                bmt.touched_parents(&nvm, 0..g.counter_blocks()),
                Bmt::parent_indices(&counters)
            );
            let level = rng.gen_range_u32(1..g.bottom_level() + 1);
            let root = NodeId {
                level,
                index: rng.gen_range(0..g.level_size(level)),
            };
            let inside: Vec<u64> = counters
                .into_iter()
                .filter(|&index| g.ancestor_at_level(index, level) == root)
                .collect();
            assert_eq!(
                bmt.touched_parents(&nvm, g.subtree_counters(root)),
                Bmt::parent_indices(&inside),
                "subtree {root}"
            );
        }
    }

    #[test]
    fn sparse_subtree_rebuild_matches_dense() {
        let (bmt, mut dense) = setup(512); // bottom level 3
        for idx in [130u64, 150, 191] {
            let mut c = bmt.read_counter(&mut dense, idx).unwrap();
            c.increment(0);
            bmt.write_counter(&mut dense, idx, &c).unwrap();
        }
        let mut sparse = dense.clone();
        let sub = NodeId { level: 2, index: 2 };
        let dense_image = bmt.rebuild_subtree(&mut dense, sub).unwrap();
        let (sparse_image, recomputed) = bmt.rebuild_subtree_touched(&mut sparse, sub).unwrap();
        assert_eq!(sparse_image, dense_image);
        assert_eq!(sparse.media_image(), dense.media_image());
        // The touched closure is the frame granule (64 counters → up to 8
        // bottom nodes) plus the subtree root: far fewer nodes than the
        // dense walk's full 64-bottom-node span.
        assert!(recomputed <= 9, "recomputed {recomputed}");
    }

    #[test]
    fn sparse_work_is_o_touched_not_o_capacity() {
        // A large geometry on a sparse device: touching one page must keep
        // build/verify work proportional to the touched closure, not the
        // 2^18 counters the geometry spans.
        let geometry = BmtGeometry::new(1 << 30).expect("1 GiB");
        let mut nvm = Nvm::new(NvmConfig::gib(2));
        let bmt = Bmt::new(geometry, b"test key");
        let mut c = bmt.read_counter(&mut nvm, 77).unwrap();
        c.increment(3);
        bmt.write_counter(&mut nvm, 77, &c).unwrap();
        nvm.reset_stats();
        let (root, recomputed) = bmt.build_touched(&mut nvm).unwrap();
        // Ancestor closure of one touched frame: 64 counters in the frame,
        // their 8 bottom nodes, and one node per level above.
        assert!(recomputed <= 8 + bmt.geometry().bottom_level() as u64);
        let build_reads = nvm.stats().reads;
        assert!(build_reads < 200, "build read {build_reads} blocks");
        nvm.reset_stats();
        assert!(bmt.verify_touched(&mut nvm, &root).unwrap());
        let verify_reads = nvm.stats().reads;
        assert!(verify_reads < 300, "verify read {verify_reads} blocks");
    }

    #[test]
    fn data_mac_binds_address_and_counters() {
        let hasher = BmtHasher::new(b"k");
        let ct = [9u8; 64];
        let base = hasher.data_mac(&ct, 0x1000, 4, 2);
        assert_ne!(base, hasher.data_mac(&ct, 0x1040, 4, 2));
        assert_ne!(base, hasher.data_mac(&ct, 0x1000, 5, 2));
        assert_ne!(base, hasher.data_mac(&ct, 0x1000, 4, 3));
        assert_eq!(base, hasher.data_mac(&ct, 0x1000, 4, 2));
    }
}
