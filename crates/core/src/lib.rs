//! # amnt-core
//!
//! The paper's primary contribution: a functional + timed secure-memory
//! controller for storage-class memory, implementing **A Midsummer Night's
//! Tree** (AMNT) alongside every baseline and state-of-the-art protocol the
//! evaluation compares against.
//!
//! * [`SecureMemory`] — the memory encryption engine: counter-mode
//!   encryption, data HMACs, Bonsai Merkle Tree verification, metadata
//!   caching, and per-protocol crash-consistency persistence.
//! * [`ProtocolKind`] — volatile / strict / leaf / PLP / Osiris / Anubis /
//!   BMF / AMNT.
//! * [`RecoveryModel`] & [`SecureMemory::recover`] — Table 4's analytical
//!   projection and the functional per-protocol recovery procedures.
//! * [`hardware_overhead`] — Table 3's on-chip area accounting.
//!
//! ## Example: survive a crash under AMNT
//!
//! ```
//! use amnt_core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig};
//!
//! let cfg = SecureMemoryConfig::with_capacity(2 * 1024 * 1024);
//! let mut mem = SecureMemory::new(cfg, ProtocolKind::Amnt(AmntConfig::default()))?;
//!
//! let mut t = 0;
//! for i in 0..200u64 {
//!     t = mem.write_block(t, (i % 32) * 64, &[i as u8; 64])?;
//! }
//! mem.crash();
//! let report = mem.recover().expect("AMNT recovers a bounded subtree");
//! assert!(report.verified);
//! let (data, _) = mem.read_block(t, 0)?;
//! assert_eq!(data[0], 192);
//! # Ok::<(), amnt_core::IntegrityError>(())
//! ```

#![forbid(unsafe_code)]
// Engine code reports through amnt-trace, never stdout or stderr
// (DESIGN.md §2b).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod config;
mod controller;
mod error;
pub mod fault;
mod overhead;
mod protocol;
mod recovery;
mod stats;
mod timing;
mod untimed;

pub use config::{MemTiming, SecureMemoryConfig, WriteQueueConfig};
pub use controller::{SecureMemory, BLOCK_SIZE};
pub use error::{IntegrityError, RecoveryError};
pub use fault::{FaultSweepConfig, SweepOp, SweepSummary};
pub use overhead::{hardware_overhead, HardwareOverhead};
pub use protocol::{
    AmntConfig, AnubisConfig, BmfConfig, HistoryBuffer, OsirisConfig, ProtocolKind,
};
pub use recovery::{RecoveryModel, RecoveryReport};
pub use stats::{ControllerStats, StatsSnapshot};
pub use timing::{MemoryTimeline, TimelineStats, WearSummary};
pub use untimed::UntimedMemory;
