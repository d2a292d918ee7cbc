//! Untimed (functional-only) NVM accessors and the lockstep reference
//! oracle.
//!
//! The controller and recovery engine frequently touch the device for
//! modelling bookkeeping where traffic statistics and timing are accounted
//! separately (or intentionally not at all). These helpers bypass the
//! device's traffic counters' *semantics* being conflated with model
//! bookkeeping by keeping such accesses obviously marked at call sites.
//!
//! All helpers are fallible: with a fault plan armed (see
//! [`amnt_nvm::FaultPlan`]) any device access may observe the power failing
//! and must fail-stop rather than keep mutating the media, so errors
//! propagate to the interrupted operation instead of panicking.
//!
//! [`UntimedMemory`] is the other half of the module: a trivially correct
//! block store with no encryption, no tree, no cache and no timing. Fault
//! sweeps and differential tests replay the committed prefix of a workload
//! into it and demand that every post-recovery
//! [`SecureMemory`](crate::SecureMemory) read-back equal the oracle
//! byte-for-byte — ground truth, not merely "the read verified".

use crate::BLOCK_SIZE;
use amnt_bmt::NodeBytes;
use amnt_nvm::{Nvm, NvmError};
use std::collections::BTreeMap;

/// The lockstep untimed reference oracle: a plain map from block address to
/// the last bytes written there. Unwritten blocks read as factory zeros,
/// matching the secure memory's initial state.
///
/// # Examples
///
/// ```
/// use amnt_core::{UntimedMemory, BLOCK_SIZE};
///
/// let mut oracle = UntimedMemory::new();
/// assert_eq!(oracle.read_block(0x40), [0u8; BLOCK_SIZE]);
/// oracle.write_block(0x40, &[7u8; BLOCK_SIZE]);
/// assert_eq!(oracle.read_block(0x40), [7u8; BLOCK_SIZE]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UntimedMemory {
    blocks: BTreeMap<u64, [u8; BLOCK_SIZE]>,
}

impl UntimedMemory {
    /// An empty (all-zeros) reference memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a block write (last write wins).
    pub fn write_block(&mut self, addr: u64, data: &[u8; BLOCK_SIZE]) {
        self.blocks.insert(addr, *data);
    }

    /// The current contents of `addr` (zeros if never written).
    pub fn read_block(&self, addr: u64) -> [u8; BLOCK_SIZE] {
        self.blocks.get(&addr).copied().unwrap_or([0u8; BLOCK_SIZE])
    }

    /// Addresses ever written, in order (the read-back sweep domain).
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.keys().copied()
    }
}

pub(crate) trait NvmUntimed {
    fn read_block_untimed(&mut self, addr: u64) -> Result<NodeBytes, NvmError>;
    fn write_block_untimed(&mut self, addr: u64, data: &NodeBytes) -> Result<(), NvmError>;
    fn read_bytes_untimed(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), NvmError>;
    fn write_bytes_untimed(&mut self, addr: u64, data: &[u8]) -> Result<(), NvmError>;
}

impl NvmUntimed for Nvm {
    fn read_block_untimed(&mut self, addr: u64) -> Result<NodeBytes, NvmError> {
        self.read_block(addr)
    }
    fn write_block_untimed(&mut self, addr: u64, data: &NodeBytes) -> Result<(), NvmError> {
        self.write_block(addr, data)
    }
    fn read_bytes_untimed(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), NvmError> {
        self.read_bytes(addr, buf)
    }
    fn write_bytes_untimed(&mut self, addr: u64, data: &[u8]) -> Result<(), NvmError> {
        self.write_bytes(addr, data)
    }
}
