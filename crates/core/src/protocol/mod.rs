//! Metadata-persistence protocols.
//!
//! The secure-memory controller can run any of eight persistence protocols
//! spanning the design space the paper explores:
//!
//! | Protocol | Counters/HMACs | Tree nodes | Recovery |
//! |---|---|---|---|
//! | [`Volatile`](ProtocolKind::Volatile) | lazy | lazy | impossible (baseline) |
//! | [`Strict`](ProtocolKind::Strict) | write-through | ordered write-through | none needed |
//! | [`Leaf`](ProtocolKind::Leaf) | write-through | lazy | full rebuild |
//! | [`Plp`](ProtocolKind::Plp) | write-through | parallel write-through | none needed |
//! | [`Osiris`](ProtocolKind::Osiris) | stop-loss | lazy | rebuild + counter trials |
//! | [`Anubis`](ProtocolKind::Anubis) | stop-loss | lazy + shadow table | bounded by cache size |
//! | [`Bmf`](ProtocolKind::Bmf) | write-through | write-through to NV root set | none needed |
//! | [`Amnt`](ProtocolKind::Amnt) | write-through | hybrid (lazy in subtree) | bounded by subtree |
//!
//! ## One seam
//!
//! Every per-protocol decision lives on the closed `ProtocolState` enum:
//! construction, each write's persist set (`ProtocolState::plan_write`
//! returns a `WritePlan` the controller only carries out), the trusted
//! on-chip images a verification walk may stop at, the terminal update
//! those images absorb, and what a crash wipes. The controller keeps the
//! mechanism: the metadata cache, the timeline, the device, AMNT's subtree
//! election and BMF's frontier maintenance.
//!
//! ## Commit points and the lazy verify queue
//!
//! The controller may defer leaf (data-MAC) checks in a bounded verify
//! queue and drain them in batches through the multi-lane hash engine.
//! Every protocol event that publishes state to persistent media is a
//! **commit point** at which the queue must be empty: the write path
//! flushes it at entry (before any counter increment or persist write of
//! any protocol), an AMNT subtree transition re-asserts emptiness before
//! republishing the retiring register image, a tree audit settles the
//! queue before vouching for the root, and a trace epoch boundary drains
//! it before sampling. A crash simply discards the queue — deferred checks
//! are read-side speculation and reads never mutate persisted state — so
//! no protocol's recovery procedure interacts with it. The fault sweep's
//! verify-queue crash-point class exercises a non-empty queue at every
//! depth for every protocol and asserts zero silent outcomes.

// Crash-path discipline (DESIGN.md §2b): no panics outside tests; return
// a typed IntegrityError or RecoveryError instead.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod amnt;
mod anubis;
mod bmf;
mod history;
mod osiris;

pub use amnt::AmntConfig;
pub use anubis::AnubisConfig;
pub use bmf::BmfConfig;
pub use history::HistoryBuffer;
pub use osiris::OsirisConfig;

pub(crate) use amnt::AmntState;
pub(crate) use anubis::AnubisState;
pub(crate) use bmf::{BmfEntry, BmfState};
pub(crate) use osiris::OsirisState;

use crate::error::IntegrityError;
use amnt_bmt::{set_slot, BmtGeometry, BmtHasher, NodeBytes, NodeId};

/// Runtime state for the active protocol, held by the controller.
#[derive(Debug, Clone)]
pub(crate) enum ProtocolState {
    Volatile,
    Strict,
    Leaf,
    Plp,
    Osiris(OsirisState),
    Anubis(AnubisState),
    Bmf(BmfState),
    Amnt(AmntState),
}

/// How a write's ancestral tree nodes reach the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathPersist {
    /// Updated in the metadata cache only; the line stays dirty and its
    /// last-persisted image is kept for the crash rollback.
    Lazy,
    /// Written through, each level's persist starting once the one below
    /// it is durable.
    Ordered,
    /// Written through, every level's persist issued at once.
    Parallel,
}

/// One write's persist set, decided once by [`ProtocolState::plan_write`]
/// and carried out by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WritePlan {
    /// The data block persists (otherwise it is a posted write).
    pub persist_data: bool,
    /// The data's HMAC line persists (otherwise it goes lazily dirty).
    pub persist_hmac: bool,
    /// The counter block persists (otherwise it goes lazily dirty).
    pub persist_counter: bool,
    /// The write waits for the leaf persist group to be durable.
    pub blocking: bool,
    /// The leaf group persists as an ordered chain (data, HMAC, counter)
    /// rather than in parallel.
    pub ordered_leaf: bool,
    /// How the ancestral path persists below `terminal`.
    pub path: PathPersist,
    /// The on-chip node that absorbs the path update: the AMNT subtree
    /// register or the BMF frontier node covering the write.
    pub terminal: Option<NodeId>,
    /// AMNT only: whether the write falls inside the fast subtree.
    pub subtree_hit: Option<bool>,
}

impl WritePlan {
    /// Leaf persistence: data, HMAC and counter persist as one parallel
    /// group the write waits for; the tree path is lazy.
    const LEAF: WritePlan = WritePlan {
        persist_data: true,
        persist_hmac: true,
        persist_counter: true,
        blocking: true,
        ordered_leaf: false,
        path: PathPersist::Lazy,
        terminal: None,
        subtree_hit: None,
    };

    /// Strict persistence: the leaf group, then every ancestral node, each
    /// persist ordered after the one before.
    const STRICT: WritePlan = WritePlan {
        ordered_leaf: true,
        path: PathPersist::Ordered,
        ..WritePlan::LEAF
    };

    /// The volatile baseline persists nothing and never waits.
    const VOLATILE: WritePlan = WritePlan {
        persist_data: false,
        persist_hmac: false,
        persist_counter: false,
        blocking: false,
        ..WritePlan::LEAF
    };
}

impl ProtocolState {
    /// Fresh protocol state for `kind` over a tree of `geometry`, with a
    /// metadata cache of `cache_lines` lines (the Anubis shadow table
    /// mirrors it). A fresh BMF frontier is the deepest level that fits its
    /// capacity, holding the all-zero images of a fresh tree.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::SubtreeLevel`] for an AMNT subtree root outside
    /// the stored levels, [`IntegrityError::EmptyHistory`] for an AMNT
    /// history buffer of zero entries.
    pub(crate) fn new(
        kind: ProtocolKind,
        geometry: &BmtGeometry,
        cache_lines: usize,
    ) -> Result<Self, IntegrityError> {
        let bottom = geometry.bottom_level();
        Ok(match kind {
            ProtocolKind::Volatile => ProtocolState::Volatile,
            ProtocolKind::Strict => ProtocolState::Strict,
            ProtocolKind::Leaf => ProtocolState::Leaf,
            ProtocolKind::Plp => ProtocolState::Plp,
            ProtocolKind::Osiris(c) => ProtocolState::Osiris(OsirisState::new(c)),
            ProtocolKind::Anubis(c) => ProtocolState::Anubis(AnubisState::new(c, cache_lines)),
            ProtocolKind::Bmf(c) => {
                let mut state = BmfState::new(c);
                let seed = BmfState::seed_level(c.capacity, bottom, |l| geometry.level_size(l));
                for index in 0..geometry.level_size(seed) {
                    state
                        .roots
                        .insert(NodeId { level: seed, index }, bmf_entry([0u8; 64]));
                }
                ProtocolState::Bmf(state)
            }
            ProtocolKind::Amnt(c) => {
                // Level 1 is the on-chip root register, and levels past the
                // bottom do not exist: no subtree root can sit at either.
                if !(2..=bottom).contains(&c.subtree_level) {
                    return Err(IntegrityError::SubtreeLevel {
                        level: c.subtree_level,
                        bottom,
                    });
                }
                if c.history_entries == 0 {
                    return Err(IntegrityError::EmptyHistory);
                }
                ProtocolState::Amnt(AmntState::new(c))
            }
        })
    }

    /// Decides the persist set of a write to data block `addr`. `overflow`
    /// is set when the write overflowed the page's minor counters, so the
    /// page was re-encrypted under a new major counter. Osiris and Anubis
    /// advance their stop-loss clocks here.
    pub(crate) fn plan_write(
        &mut self,
        geometry: &BmtGeometry,
        addr: u64,
        overflow: bool,
    ) -> WritePlan {
        let index = geometry.counter_index(addr);
        match self {
            ProtocolState::Volatile => WritePlan::VOLATILE,
            ProtocolState::Strict => WritePlan::STRICT,
            ProtocolState::Leaf => WritePlan::LEAF,
            // Strict's coverage, with every persist issued in parallel.
            ProtocolState::Plp => WritePlan {
                path: PathPersist::Parallel,
                ..WritePlan::LEAF
            },
            ProtocolState::Osiris(s) => WritePlan {
                persist_counter: s.write_persists(index, overflow),
                ..WritePlan::LEAF
            },
            ProtocolState::Anubis(s) => WritePlan {
                persist_counter: s.osiris.write_persists(index, overflow),
                ..WritePlan::LEAF
            },
            // Write-through up to the frontier node covering the write.
            ProtocolState::Bmf(s) => WritePlan {
                path: PathPersist::Ordered,
                terminal: s.covering_root(geometry.bottom_level(), |l| {
                    geometry.ancestor_at_level(index, l)
                }),
                ..WritePlan::LEAF
            },
            // Leaf persistence inside the fast subtree, whose root register
            // absorbs the path; strict persistence everywhere else.
            ProtocolState::Amnt(s) => {
                let level = s.config.subtree_level;
                let region = geometry.subtree_index(addr, level);
                if s.covers(region) {
                    WritePlan {
                        terminal: Some(NodeId {
                            level,
                            index: region,
                        }),
                        subtree_hit: Some(true),
                        ..WritePlan::LEAF
                    }
                } else {
                    WritePlan {
                        subtree_hit: Some(false),
                        ..WritePlan::STRICT
                    }
                }
            }
        }
    }

    /// The trusted on-chip image of `node` a verification walk may stop
    /// at, besides the root register: the AMNT subtree register or a BMF
    /// frontier node.
    pub(crate) fn trusted_image(&self, node: NodeId) -> Option<&NodeBytes> {
        match self {
            ProtocolState::Amnt(s) => match &s.register {
                Some((id, image)) if *id == node => Some(image),
                _ => None,
            },
            ProtocolState::Bmf(s) => s.roots.get(&node).map(|e| &e.image),
            _ => None,
        }
    }

    /// Writes `mac` into `slot` of the on-chip image of the write's
    /// terminal `node`. For a BMF frontier node this returns the node's new
    /// MAC, which the path carries on lazily above it; the AMNT register
    /// ends the path (`None`).
    pub(crate) fn absorb(
        &mut self,
        node: NodeId,
        slot: usize,
        mac: u64,
        hasher: &BmtHasher,
    ) -> Option<u64> {
        match self {
            ProtocolState::Amnt(s) => {
                if let Some((id, image)) = &mut s.register {
                    debug_assert_eq!(*id, node);
                    set_slot(image, slot, mac);
                }
                None
            }
            ProtocolState::Bmf(s) => {
                let entry = s.roots.get_mut(&node)?;
                set_slot(&mut entry.image, slot, mac);
                let mac = hasher.node_mac(&entry.image, node);
                s.touch(node);
                Some(mac)
            }
            _ => None,
        }
    }

    /// AMNT's non-volatile subtree register: the elected subtree root and
    /// its current image (`None` before the first election and for every
    /// other protocol).
    pub(crate) fn subtree_register(&self) -> Option<(NodeId, NodeBytes)> {
        match self {
            ProtocolState::Amnt(s) => s.register,
            _ => None,
        }
    }

    /// Power failure: drops the protocol's volatile state (stop-loss
    /// clocks, shadow-slot assignment, history buffer, interval counters);
    /// the non-volatile registers and root set survive.
    pub(crate) fn crash(&mut self) {
        match self {
            ProtocolState::Osiris(s) => s.crash(),
            ProtocolState::Anubis(s) => s.crash(),
            ProtocolState::Bmf(s) => s.crash(),
            ProtocolState::Amnt(s) => s.crash(),
            ProtocolState::Volatile
            | ProtocolState::Strict
            | ProtocolState::Leaf
            | ProtocolState::Plp => {}
        }
    }
}

/// Builds a fresh persistent-root-set entry.
pub(crate) fn bmf_entry(image: NodeBytes) -> BmfEntry {
    BmfEntry { image, freq: 0 }
}

/// Which persistence protocol the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Baseline secure memory with no crash-consistency guarantee: every
    /// metadata structure is written back lazily. Fastest; unrecoverable.
    Volatile,
    /// Strict metadata persistence: every node on the ancestral path is
    /// written through, in order, on every data write (paper §2.3).
    Strict,
    /// Leaf metadata persistence: data, HMAC and counter persist atomically;
    /// tree nodes are lazy. Recovery rebuilds the whole tree (paper §2.3).
    Leaf,
    /// Persist-Level Parallelism (Freij et al., ref 25): strict
    /// write-through coverage, but the per-level persists of one write are
    /// issued in parallel instead of as an ordered chain — trading the
    /// simple recovery argument for update bandwidth.
    Plp,
    /// Osiris stop-loss counters (Ye et al., ref 82).
    Osiris(OsirisConfig),
    /// Anubis shadow-table tracking (Zubair & Awad, ref 85).
    Anubis(AnubisConfig),
    /// Bonsai Merkle Forest persistent root set (Freij et al., ref 26).
    Bmf(BmfConfig),
    /// A Midsummer Night's Tree — this paper's contribution.
    Amnt(AmntConfig),
}

impl ProtocolKind {
    /// Short lowercase name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Volatile => "volatile",
            ProtocolKind::Strict => "strict",
            ProtocolKind::Leaf => "leaf",
            ProtocolKind::Plp => "plp",
            ProtocolKind::Osiris(_) => "osiris",
            ProtocolKind::Anubis(_) => "anubis",
            ProtocolKind::Bmf(_) => "bmf",
            ProtocolKind::Amnt(_) => "amnt",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(ProtocolKind::Volatile.name(), "volatile");
        assert_eq!(ProtocolKind::Amnt(AmntConfig::default()).name(), "amnt");
        assert_eq!(format!("{}", ProtocolKind::Leaf), "leaf");
    }
}
