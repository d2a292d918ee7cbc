//! Hardware-overhead model behind the paper's Table 3.
//!
//! On-chip area is the third axis of the design space (besides runtime
//! overhead and recovery time): non-volatile on-chip storage (Flash-like),
//! volatile on-chip storage (SRAM), and in-memory storage. All figures are
//! *additional* cost over the baseline secure-memory design (which already
//! holds the 64-byte BMT root in an NV register and the metadata cache in
//! SRAM).

use crate::protocol::ProtocolKind;

/// Additional hardware cost of a protocol, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardwareOverhead {
    /// Non-volatile on-chip bytes (registers / NV caches).
    pub nv_on_chip: u64,
    /// Volatile on-chip bytes (SRAM structures).
    pub volatile_on_chip: u64,
    /// In-memory bytes (untrusted DIMM-resident structures).
    pub in_memory: u64,
}

/// Computes Table 3 for `kind` with a metadata cache of
/// `metadata_cache_bytes` (the paper uses 64 kB).
///
/// * **BMF** — a 4 kB NV root cache, plus 6 bits of frequency counter per
///   metadata cache line (768 B for 64 kB).
/// * **Anubis** — one extra NV root register (64 B) for the shadow Merkle
///   tree; the shadow table (32 B per cache line) and its tree live in
///   memory (~37 kB for 64 kB) and the tree is additionally cached on-chip
///   in SRAM (~37 kB).
/// * **AMNT** — one extra NV register for the subtree root (64 B) and the
///   96-byte history buffer in SRAM. Nothing in memory.
/// * The static baselines add nothing.
///
/// # Examples
///
/// ```
/// use amnt_core::{hardware_overhead, AmntConfig, ProtocolKind};
///
/// let oh = hardware_overhead(&ProtocolKind::Amnt(AmntConfig::default()), 64 * 1024);
/// assert_eq!(oh.nv_on_chip, 64);
/// assert_eq!(oh.volatile_on_chip, 96);
/// assert_eq!(oh.in_memory, 0);
/// ```
pub fn hardware_overhead(kind: &ProtocolKind, metadata_cache_bytes: u64) -> HardwareOverhead {
    let lines = metadata_cache_bytes / 64;
    match kind {
        ProtocolKind::Volatile
        | ProtocolKind::Strict
        | ProtocolKind::Leaf
        | ProtocolKind::Plp
        | ProtocolKind::Osiris(_) => HardwareOverhead::default(),
        ProtocolKind::Bmf(c) => HardwareOverhead {
            nv_on_chip: c.capacity as u64 * 64,
            // 6-bit frequency counter per metadata cache line.
            volatile_on_chip: lines * 6 / 8,
            in_memory: 0,
        },
        ProtocolKind::Anubis(_) => {
            // Shadow table: 32 B per cache line; shadow Merkle tree: an
            // 8-ary tree over the table's 64-byte blocks.
            let table = lines * 32;
            let mut tree = 0;
            let mut level = (table / 64).div_ceil(8);
            while level >= 1 {
                tree += level * 64;
                if level == 1 {
                    break;
                }
                level = level.div_ceil(8);
            }
            HardwareOverhead {
                nv_on_chip: 64,
                volatile_on_chip: table + tree,
                in_memory: table + tree,
            }
        }
        ProtocolKind::Amnt(c) => {
            let bits =
                (usize::BITS - c.history_entries.saturating_sub(1).leading_zeros()).max(1) as u64;
            HardwareOverhead {
                nv_on_chip: 64,
                volatile_on_chip: c.history_entries as u64 * 2 * bits / 8,
                in_memory: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AmntConfig, AnubisConfig, BmfConfig};

    const MD: u64 = 64 * 1024;

    #[test]
    fn amnt_matches_table_3() {
        let oh = hardware_overhead(&ProtocolKind::Amnt(AmntConfig::default()), MD);
        assert_eq!(oh.nv_on_chip, 64);
        assert_eq!(oh.volatile_on_chip, 96);
        assert_eq!(oh.in_memory, 0);
    }

    #[test]
    fn bmf_matches_table_3() {
        let oh = hardware_overhead(&ProtocolKind::Bmf(BmfConfig::default()), MD);
        assert_eq!(oh.nv_on_chip, 4096);
        assert_eq!(oh.volatile_on_chip, 768);
        assert_eq!(oh.in_memory, 0);
    }

    #[test]
    fn anubis_matches_table_3() {
        let oh = hardware_overhead(&ProtocolKind::Anubis(AnubisConfig::default()), MD);
        assert_eq!(oh.nv_on_chip, 64);
        // ~37 kB on-chip SRAM and the same in memory.
        assert!(oh.volatile_on_chip > 36 * 1024 && oh.volatile_on_chip < 38 * 1024);
        assert_eq!(oh.volatile_on_chip, oh.in_memory);
    }

    #[test]
    fn static_protocols_add_nothing() {
        for kind in [
            ProtocolKind::Volatile,
            ProtocolKind::Strict,
            ProtocolKind::Leaf,
        ] {
            assert_eq!(hardware_overhead(&kind, MD), HardwareOverhead::default());
        }
    }

    #[test]
    fn bmf_scales_with_cache_size() {
        let small = hardware_overhead(&ProtocolKind::Bmf(BmfConfig::default()), 32 * 1024);
        assert_eq!(small.volatile_on_chip, 384);
    }
}
