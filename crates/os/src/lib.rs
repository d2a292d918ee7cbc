//! # amnt-os
//!
//! The operating-system substrate for AMNT++: a Linux-style binary buddy
//! physical-page allocator ([`BuddyAllocator`]), per-process page tables
//! with on-demand allocation ([`MemoryManager`]), system aging to reproduce
//! long-running-machine fragmentation, and the AMNT++ reclamation-time
//! free-list restructuring ([`AllocPolicy::AmntPlus`]) that biases physical
//! allocations into one integrity-subtree region (paper §5).
//!
//! ## Example
//!
//! ```
//! use amnt_os::{AllocPolicy, MemoryManager};
//!
//! // 8 GiB machine, AMNT++ policy at 128 MiB subtree regions.
//! let mut mm = MemoryManager::new(2 * 1024 * 1024, AllocPolicy::AmntPlus {
//!     pages_per_region: 32 * 1024,
//!     restructure_period: 64,
//! });
//! let pa = mm.translate(1, 0xdead_b000)?;
//! assert_eq!(pa % 4096, 0);
//! # Ok::<(), amnt_os::AllocError>(())
//! ```

#![forbid(unsafe_code)]

mod buddy;
mod manager;

pub use buddy::{AllocError, BuddyAllocator, InstrModel, MAX_ORDER};
pub use manager::{AllocPolicy, MemoryManager, Pid, PAGE_SIZE};
