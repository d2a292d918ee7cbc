//! # amnt-bmt
//!
//! Bonsai Merkle Tree (BMT) substrate for the Midsummer secure-memory
//! engine: split encryption counters ([`CounterBlock`]), tree geometry and
//! NVM layout ([`BmtGeometry`]), and functional tree operations ([`Bmt`]) —
//! build, verify, and (subtree) rebuild over a real byte-backed device.
//!
//! A BMT protects the *counters* rather than the data itself (Rogers et al.,
//! MICRO 2007): each data block carries an HMAC bound to its encryption
//! counter, and the tree guarantees counter freshness, which defeats replay.
//! See [`Bmt`] for the node format and a usage example.

#![forbid(unsafe_code)]

mod counter;
mod geometry;
mod tree;

pub use counter::{
    CounterBlock, IncrementOutcome, COUNTER_BLOCK_SIZE, MINORS_PER_BLOCK, MINOR_MAX,
};
pub use geometry::{BmtGeometry, GeometryError, NodeId, BLOCK_SIZE, PAGE_SIZE, TREE_ARITY};
pub use tree::{set_slot, slot_of, Bmt, BmtHasher, NodeBytes};
