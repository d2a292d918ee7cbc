//! # Midsummer
//!
//! A complete Rust implementation of **"A Midsummer Night's Tree: Efficient
//! and High Performance Secure SCM"** (ASPLOS 2024): crash-consistent
//! integrity-protected storage-class memory with the AMNT hybrid
//! metadata-persistence protocol, every baseline it is evaluated against,
//! and the full-system simulator + workloads + OS substrate that regenerate
//! the paper's tables and figures.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`crypto`] | `amnt-crypto` | AES-128, SHA-256, HMAC, counter-mode engine |
//! | [`cache`] | `amnt-cache` | set-associative cache model |
//! | [`nvm`] | `amnt-nvm` | PCM device model |
//! | [`bmt`] | `amnt-bmt` | Bonsai Merkle Tree + split counters |
//! | [`core`] | `amnt-core` | the secure-memory controller & protocols |
//! | [`os`] | `amnt-os` | buddy allocator, page tables, AMNT++ |
//! | [`workloads`] | `amnt-workloads` | PARSEC/SPEC trace models |
//! | [`sim`] | `amnt-sim` | the full-system simulator |
//!
//! ## Quickstart
//!
//! ```
//! use midsummer::core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig};
//!
//! let cfg = SecureMemoryConfig::with_capacity(2 * 1024 * 1024);
//! let mut mem = SecureMemory::new(cfg, ProtocolKind::Amnt(AmntConfig::default()))?;
//! let t = mem.write_block(0, 0x1000, &[7u8; 64])?;
//! mem.crash();
//! assert!(mem.recover()?.verified);
//! let (data, _) = mem.read_block(t, 0x1000)?;
//! assert_eq!(data, [7u8; 64]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable programs and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]

pub use amnt_bmt as bmt;
pub use amnt_cache as cache;
pub use amnt_core as core;
pub use amnt_crypto as crypto;
pub use amnt_nvm as nvm;
pub use amnt_os as os;
pub use amnt_sim as sim;
pub use amnt_workloads as workloads;
