//! # amnt-workloads
//!
//! Synthetic, deterministic workload models standing in for the PARSEC 3.0
//! and SPEC CPU 2017 benchmarks the paper evaluates (DESIGN.md §1 documents
//! the substitution). Each [`WorkloadModel`] captures the traits that drive
//! persistence-protocol behaviour — footprint, write fraction, memory
//! intensity, locality mix, hot-set size, working-set drift — and
//! [`TraceGen`] turns a model into a seeded stream of [`Event`]s (memory
//! accesses plus page-release events that feed the OS reclamation path).
//!
//! ## Example
//!
//! ```
//! use amnt_workloads::{Event, TraceGen, WorkloadModel};
//!
//! let lbm = WorkloadModel::by_name("lbm").expect("catalogued");
//! let writes = TraceGen::new(&lbm, 1, 10_000)
//!     .filter(|e| matches!(e, Event::Access(op) if op.is_write))
//!     .count();
//! assert!(writes > 4_000, "lbm is write-intensive");
//! ```

#![forbid(unsafe_code)]

mod gen;
mod model;
mod sparse;
mod trace_file;
mod zipf;

pub use gen::{Event, EventStream, TraceGen, TraceOp, BLOCK, PAGE};
pub use model::{multiprogram_pairs, parsec, spec2017, Suite, WorkloadModel};
pub use sparse::SparseHotSet;
pub use trace_file::{read_trace, write_trace, TraceFileError};
pub use zipf::{zipfian_mix, TenantOp, ZipfianMixConfig};
