//! # perfbench
//!
//! The repository's benchmark: three closed-loop workloads driven through
//! the public APIs of `amnt-sim`, `amnt-core` and `amnt-workloads`, every
//! output checked, end-to-end metrics on both clocks (host time and
//! simulated cycles) from untraced passes, and per-layer metrics from
//! traced passes. Everything is measured from outside the engine: public
//! statistics, the engine's own trace histograms, host spans around each
//! public call, and unit costs of each layer's hot function.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! what each is expected to move.

pub mod metrics;
pub mod provenance;
pub mod stats;
pub mod units;
pub mod workloads;

pub use units::UnitCosts;
pub use workloads::{run_pass, Pass, Sizes, Workload};
