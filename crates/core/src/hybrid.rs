//! Hybrid SCM–DRAM machines (paper §7.3, OMT-style).
//!
//! The paper argues AMNT "abstracts well to a hybrid SCM-DRAM machine": the
//! memory controller needs only the physical partition boundary and one
//! additional *volatile* root register — a traditional (volatile) BMT
//! protects the DRAM range while AMNT protects the SCM range, each with its
//! own root of trust.
//!
//! [`HybridMemory`] composes two [`SecureMemory`] engines over a split
//! physical address space. A power failure erases the DRAM side entirely
//! (its integrity state is rebuilt from nothing, which is trivially
//! consistent) and runs AMNT's bounded recovery on the SCM side.

use crate::config::{MemTiming, SecureMemoryConfig};
use crate::controller::{SecureMemory, BLOCK_SIZE};
use crate::error::{IntegrityError, RecoveryError};
use crate::protocol::{AmntConfig, ProtocolKind};
use crate::recovery::RecoveryReport;

/// Configuration for a hybrid machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Bytes of volatile DRAM, mapped at physical `[0, dram_bytes)`.
    pub dram_bytes: u64,
    /// Bytes of SCM, mapped at `[dram_bytes, dram_bytes + scm_bytes)`.
    pub scm_bytes: u64,
    /// AMNT parameters for the SCM side.
    pub amnt: AmntConfig,
    /// DRAM timing (defaults to ~50 ns symmetric at 2 GHz).
    pub dram_timing: MemTiming,
}

impl HybridConfig {
    /// A hybrid machine with the given partition sizes and Table 1 AMNT
    /// parameters.
    pub fn new(dram_bytes: u64, scm_bytes: u64) -> Self {
        HybridConfig {
            dram_bytes,
            scm_bytes,
            amnt: AmntConfig::default(),
            dram_timing: MemTiming {
                pcm_read: 100,
                pcm_write: 100,
                ..MemTiming::default()
            },
        }
    }
}

/// Which partition a physical address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// The volatile DRAM range.
    Dram,
    /// The non-volatile SCM range.
    Scm,
}

/// A secure hybrid SCM–DRAM memory controller.
///
/// # Examples
///
/// ```
/// use amnt_core::{HybridConfig, HybridMemory, Partition};
///
/// let mut mem = HybridMemory::new(HybridConfig::new(1 << 20, 1 << 21))?;
/// assert_eq!(mem.partition_of(0x1000), Some(Partition::Dram));
/// let scm_addr = (1 << 20) + 0x1000;
/// assert_eq!(mem.partition_of(scm_addr), Some(Partition::Scm));
/// assert_eq!(mem.partition_of(3 << 20), None, "past both partitions");
///
/// mem.write_block(0, 0x1000, &[1u8; 64])?;     // DRAM: volatile
/// mem.write_block(0, scm_addr, &[2u8; 64])?;   // SCM: crash consistent
/// mem.crash_and_recover()?;
/// assert_eq!(mem.read_block(0, 0x1000)?.0, [0u8; 64], "DRAM cleared");
/// assert_eq!(mem.read_block(0, scm_addr)?.0, [2u8; 64], "SCM survived");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HybridMemory {
    config: HybridConfig,
    dram: SecureMemory,
    scm: SecureMemory,
}

impl HybridMemory {
    /// Builds a hybrid controller.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from either engine.
    pub fn new(config: HybridConfig) -> Result<Self, IntegrityError> {
        Ok(HybridMemory {
            dram: Self::fresh_dram(&config)?,
            scm: SecureMemory::new(
                SecureMemoryConfig::with_capacity(config.scm_bytes),
                ProtocolKind::Amnt(config.amnt),
            )?,
            config,
        })
    }

    fn fresh_dram(config: &HybridConfig) -> Result<SecureMemory, IntegrityError> {
        let mut cfg = SecureMemoryConfig::with_capacity(config.dram_bytes);
        cfg.timing = config.dram_timing;
        // The DRAM tree is a traditional volatile BMT: its root lives in a
        // volatile register and nothing needs persistence.
        SecureMemory::new(cfg, ProtocolKind::Volatile)
    }

    /// The partition containing `addr`, or `None` past both partitions.
    pub fn partition_of(&self, addr: u64) -> Option<Partition> {
        if addr < self.config.dram_bytes {
            Some(Partition::Dram)
        } else if addr - self.config.dram_bytes < self.config.scm_bytes {
            Some(Partition::Scm)
        } else {
            None
        }
    }

    /// The engine owning `addr` and the address within it.
    fn route(&mut self, addr: u64) -> Result<(&mut SecureMemory, u64), IntegrityError> {
        match self.partition_of(addr) {
            Some(Partition::Dram) => Ok((&mut self.dram, addr)),
            Some(Partition::Scm) => Ok((&mut self.scm, addr - self.config.dram_bytes)),
            None => Err(IntegrityError::OutOfRange { addr }),
        }
    }

    /// The SCM-side engine (statistics, subtree inspection).
    pub fn scm(&self) -> &SecureMemory {
        &self.scm
    }

    /// The DRAM-side engine.
    pub fn dram(&self) -> &SecureMemory {
        &self.dram
    }

    /// Reads the block at `addr` from whichever partition holds it.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::OutOfRange`] past both partitions; otherwise
    /// propagates [`IntegrityError`] from the owning engine.
    pub fn read_block(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        let (engine, local) = self.route(addr)?;
        engine.read_block(now, local)
    }

    /// Like [`Self::read_block`], but the owning engine's lazy verify
    /// queue is flushed before returning — a MAC mismatch on this block is
    /// reported here rather than at a later drain.
    ///
    /// # Errors
    ///
    /// As [`Self::read_block`].
    pub fn read_block_verified(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        let (engine, local) = self.route(addr)?;
        engine.read_block_verified(now, local)
    }

    /// Writes the block at `addr` to whichever partition holds it. SCM
    /// writes follow the AMNT persistence protocol; DRAM writes are purely
    /// volatile.
    ///
    /// # Errors
    ///
    /// As [`Self::read_block`].
    pub fn write_block(
        &mut self,
        now: u64,
        addr: u64,
        data: &[u8; BLOCK_SIZE],
    ) -> Result<u64, IntegrityError> {
        let (engine, local) = self.route(addr)?;
        engine.write_block(now, local, data)
    }

    /// Power failure and recovery: DRAM contents (and the volatile BMT over
    /// them) vanish; the SCM side runs AMNT's bounded recovery.
    ///
    /// # Errors
    ///
    /// Propagates SCM [`RecoveryError`]s; DRAM cannot fail (it restarts
    /// empty). Configuration errors re-creating the DRAM engine are mapped
    /// to [`RecoveryError::Unrecoverable`] (they cannot happen for a config
    /// that constructed once).
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        self.dram = Self::fresh_dram(&self.config).map_err(|e| RecoveryError::Unrecoverable {
            reason: format!("DRAM re-init failed: {e}"),
        })?;
        self.scm.crash();
        self.scm.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    fn hybrid() -> HybridMemory {
        HybridMemory::new(HybridConfig::new(4 * MIB, 8 * MIB)).expect("valid config")
    }

    #[test]
    fn partition_mapping() {
        let m = hybrid();
        assert_eq!(m.partition_of(0), Some(Partition::Dram));
        assert_eq!(m.partition_of(4 * MIB - 64), Some(Partition::Dram));
        assert_eq!(m.partition_of(4 * MIB), Some(Partition::Scm));
        assert_eq!(m.partition_of(12 * MIB - 64), Some(Partition::Scm));
    }

    #[test]
    fn addresses_past_both_partitions_are_out_of_range() {
        let mut m = hybrid();
        // The first address past the SCM, and one whose end would
        // overflow `dram_bytes + scm_bytes`-style arithmetic.
        for addr in [12 * MIB, u64::MAX - 63] {
            assert_eq!(m.partition_of(addr), None);
            let out_of_range = Err(IntegrityError::OutOfRange { addr });
            assert_eq!(m.read_block(0, addr).map(|_| ()), out_of_range);
            assert_eq!(m.read_block_verified(0, addr).map(|_| ()), out_of_range);
            assert_eq!(m.write_block(0, addr, &[9; 64]).map(|_| ()), out_of_range);
        }
        // Nothing was written: both partitions still read back zeros.
        assert_eq!(m.read_block(0, 0).unwrap().0, [0; 64]);
        assert_eq!(m.read_block(0, 12 * MIB - 64).unwrap().0, [0; 64]);
    }

    #[test]
    fn both_partitions_roundtrip() {
        let mut m = hybrid();
        let mut t = 0;
        t = m.write_block(t, 0x1000, &[1; 64]).unwrap();
        t = m.write_block(t, 4 * MIB + 0x1000, &[2; 64]).unwrap();
        assert_eq!(m.read_block(t, 0x1000).unwrap().0, [1; 64]);
        assert_eq!(m.read_block(t, 4 * MIB + 0x1000).unwrap().0, [2; 64]);
    }

    #[test]
    fn crash_erases_dram_preserves_scm() {
        let mut m = hybrid();
        let mut t = 0;
        for i in 0..200u64 {
            t = m.write_block(t, (i % 32) * 64, &[0xD0; 64]).unwrap();
            t = m
                .write_block(t, 4 * MIB + (i % 32) * 64, &[0x5C; 64])
                .unwrap();
        }
        let report = m.crash_and_recover().expect("hybrid recovery");
        assert!(report.verified);
        assert_eq!(
            m.read_block(t, 0).unwrap().0,
            [0u8; 64],
            "DRAM must be empty"
        );
        assert_eq!(
            m.read_block(t, 4 * MIB).unwrap().0,
            [0x5C; 64],
            "SCM must survive"
        );
    }

    #[test]
    fn dram_tampering_still_detected() {
        // Volatile does not mean unprotected: runtime integrity holds.
        let mut m = hybrid();
        let t = m.write_block(0, 0x2000, &[7; 64]).unwrap();
        m.dram_nvm_tamper(0x2000);
        assert!(m.read_block_verified(t, 0x2000).is_err());
    }

    #[test]
    fn scm_subtree_tracks_hot_region_through_the_hybrid() {
        let mut m = hybrid();
        let mut t = 0;
        for i in 0..300u64 {
            t = m
                .write_block(t, 4 * MIB + (i % 16) * 64, &[i as u8; 64])
                .unwrap();
        }
        let _ = t;
        assert!(m.scm().subtree_root().is_some());
        assert!(m.scm().stats().subtree_hit_rate() > 0.5);
    }

    #[test]
    fn dram_reads_are_faster_than_scm_reads() {
        let mut m = hybrid();
        let mut t = m.write_block(0, 0x3000, &[1; 64]).unwrap();
        t = m.write_block(t, 4 * MIB + 0x3000, &[2; 64]).unwrap();
        // Flush caches via crash+recover, then time cold reads.
        let t0 = m.crash_and_recover().map(|_| t).unwrap();
        let (_, dram_done) = m.read_block(t0, 4 * MIB + 0x3000 - 4 * MIB).unwrap();
        let dram_lat = dram_done - t0;
        let (_, scm_done) = m.read_block(t0, 4 * MIB + 0x3000).unwrap();
        let scm_lat = scm_done - t0;
        assert!(dram_lat < scm_lat, "dram {dram_lat} vs scm {scm_lat}");
    }

    impl HybridMemory {
        fn dram_nvm_tamper(&mut self, addr: u64) {
            self.dram.nvm_mut().tamper_flip_bit(addr, 1);
        }
    }
}
