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

/// The multi-tenant extension of [`UntimedMemory`]: one independent oracle
/// per tenant, addressed by *global* physical address and routed to the
/// owning tenant by contiguous span — the same routing rule
/// [`ShardedMemory`](crate::ShardedMemory) uses. Because each tenant's
/// blocks live in their own map, the oracle models tenants independently:
/// state in tenant A literally cannot influence what tenant B reads back,
/// which is exactly the ground truth the cross-shard sweeps compare against.
///
/// # Examples
///
/// ```
/// use amnt_core::{ShardedUntimed, BLOCK_SIZE};
///
/// let mut oracle = ShardedUntimed::new(2, 1024);
/// oracle.write_block(0x40, &[1u8; BLOCK_SIZE]);         // tenant 0
/// oracle.write_block(1024 + 0x40, &[2u8; BLOCK_SIZE]);  // tenant 1
/// assert_eq!(oracle.read_block(0x40)[0], 1);
/// let local = oracle.tenant(1).expect("in range");
/// assert_eq!(local.read_block(0x40)[0], 2, "tenant-local view");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedUntimed {
    span: u64,
    tenants: Vec<UntimedMemory>,
}

impl ShardedUntimed {
    /// `tenants` independent oracles, each owning `span` contiguous bytes
    /// of the global address space (tenant `t` owns
    /// `[t * span, (t + 1) * span)`).
    pub fn new(tenants: usize, span: u64) -> Self {
        ShardedUntimed {
            span: span.max(1),
            tenants: vec![UntimedMemory::new(); tenants.max(1)],
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Bytes of address space each tenant owns.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The tenant owning global address `addr`, and the tenant-local
    /// offset. Addresses past the last tenant clamp to it (the oracle is
    /// total; range policing belongs to the engine under test).
    pub fn route(&self, addr: u64) -> (usize, u64) {
        let idx = ((addr / self.span) as usize).min(self.tenants.len() - 1);
        (idx, addr - idx as u64 * self.span)
    }

    /// Records a block write at a global address (last write wins, within
    /// the owning tenant only).
    pub fn write_block(&mut self, addr: u64, data: &[u8; BLOCK_SIZE]) {
        let (idx, local) = self.route(addr);
        if let Some(t) = self.tenants.get_mut(idx) {
            t.write_block(local, data);
        }
    }

    /// The current contents of a global address (zeros if never written).
    pub fn read_block(&self, addr: u64) -> [u8; BLOCK_SIZE] {
        let (idx, local) = self.route(addr);
        self.tenants
            .get(idx)
            .map(|t| t.read_block(local))
            .unwrap_or([0u8; BLOCK_SIZE])
    }

    /// Tenant `idx`'s independent oracle, in tenant-local addresses
    /// (`None` out of range).
    pub fn tenant(&self, idx: usize) -> Option<&UntimedMemory> {
        self.tenants.get(idx)
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
