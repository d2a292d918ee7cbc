//! # amnt-sim
//!
//! The full-system composition: trace-driven cores with private L1/L2 (and
//! an optional shared L3), virtual→physical translation through the
//! `amnt-os` buddy allocator, and the `amnt-core` secure-memory engine at
//! the bottom. One [`Machine`] is one experiment cell; runner helpers (`run_single`, `run_pair`, `run_multithread`)
//! build the paper's single-program, multiprogram and multithreaded setups.
//!
//! ## Example
//!
//! ```
//! use amnt_core::ProtocolKind;
//! use amnt_sim::{run_single, MachineConfig, RunLength};
//! use amnt_workloads::WorkloadModel;
//!
//! let model = WorkloadModel::by_name("swaptions").unwrap();
//! let cfg = MachineConfig::parsec_single().scaled_down(256 * 1024 * 1024);
//! let report = run_single(&model, cfg, ProtocolKind::Leaf, RunLength::quick())?;
//! assert!(report.cycles > 0);
//! # Ok::<(), amnt_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
// Engine code reports through amnt-trace, never stdout or stderr
// (DESIGN.md §2b).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod config;
mod machine;
mod report;
mod runner;

pub use config::{AgingConfig, HierarchyTiming, MachineConfig};
pub use machine::{amnt_plus_policy, Machine, SimError};
pub use report::SimReport;
pub use runner::{
    profile_pair, profile_single, run_multithread, run_pair, run_single, with_amnt_plus, RunLength,
};
