//! Seeded Zipfian multi-tenant mix generation.
//!
//! The fault sweep's multi-tenant tests need workloads where several
//! tenants hammer *distinct* subtree regions with realistic
//! skew: most traffic concentrated on a small per-tenant hot set, a long
//! cold tail, and a deterministic interleave across tenants. [`zipfian_mix`]
//! produces exactly that — tenant `t`'s addresses all fall inside its own
//! region `[t * region_bytes, (t + 1) * region_bytes)`, and the hot ranks
//! map to a per-tenant seeded shuffle of its blocks, so two tenants' hot
//! sets never alias even under identical skew.

use crate::gen::BLOCK;
use amnt_prng::Rng;

/// Parameters for [`zipfian_mix`]. Everything is seeded; the same config
/// yields the same operation stream on every host.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfianMixConfig {
    /// Number of tenants (each owns one contiguous block region).
    pub tenants: usize,
    /// Blocks per tenant region (addresses span `blocks_per_tenant * 64`
    /// bytes per tenant).
    pub blocks_per_tenant: u64,
    /// Zipf skew parameter `theta` (0 = uniform; ~0.99 = YCSB-style skew).
    pub theta: f64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Total operations across all tenants.
    pub ops: usize,
    /// Master seed; per-tenant shuffles derive from it.
    pub seed: u64,
}

impl Default for ZipfianMixConfig {
    fn default() -> Self {
        ZipfianMixConfig {
            tenants: 4,
            blocks_per_tenant: 256,
            theta: 0.99,
            write_fraction: 0.7,
            ops: 4096,
            seed: 0x21BF_0000,
        }
    }
}

/// One operation of the multi-tenant mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOp {
    /// Issuing tenant (`0..tenants`).
    pub tenant: usize,
    /// Global block-aligned byte address, inside the tenant's region.
    pub addr: u64,
    /// Store (`true`) or load.
    pub is_write: bool,
}

/// Generates a deterministic Zipfian multi-tenant operation mix.
///
/// Ranks are drawn per-op from a cumulative `1/i^theta` table via inverse
/// transform sampling, then mapped through a per-tenant seeded shuffle of
/// the tenant's blocks — so rank 1 (the hottest block) lands at a
/// *different* block offset in every tenant's region. Tenants are picked
/// round-robin for the first `2 * tenants` ops (every tenant opens with a
/// write, so downstream fault sweeps always have committed state per
/// tenant) and uniformly after that.
pub fn zipfian_mix(cfg: &ZipfianMixConfig) -> Vec<TenantOp> {
    let tenants = cfg.tenants.max(1);
    let blocks = cfg.blocks_per_tenant.max(1);
    let theta = if cfg.theta.is_finite() && cfg.theta >= 0.0 {
        cfg.theta
    } else {
        0.0
    };

    // Cumulative Zipf mass over ranks 1..=blocks (capped: the table is the
    // cost driver and beyond a few thousand ranks the tail is noise).
    let ranks = blocks.min(4096) as usize;
    let mut cumulative = Vec::with_capacity(ranks);
    let mut total = 0.0f64;
    for i in 1..=ranks {
        total += 1.0 / (i as f64).powf(theta);
        cumulative.push(total);
    }

    // Per-tenant rank -> block shuffle, derived from the master seed.
    let permutations: Vec<Vec<u64>> = (0..tenants)
        .map(|t| {
            let mut blocks_of: Vec<u64> = (0..blocks).collect();
            let mut trng =
                Rng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            trng.shuffle(&mut blocks_of);
            blocks_of
        })
        .collect();

    let region = blocks * BLOCK;
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let tenant = if i < tenants * 2 {
            i % tenants
        } else {
            rng.gen_range_usize(0..tenants)
        };
        let u = rng.gen_f64() * total;
        let rank = cumulative.partition_point(|&c| c < u).min(ranks - 1);
        let block = permutations
            .get(tenant)
            .and_then(|p| p.get(rank))
            .copied()
            .unwrap_or(0);
        let is_write = i < tenants || rng.gen_bool(cfg.write_fraction);
        ops.push(TenantOp {
            tenant,
            addr: tenant as u64 * region + block * BLOCK,
            is_write,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn mix_is_seed_deterministic() {
        let cfg = ZipfianMixConfig::default();
        assert_eq!(zipfian_mix(&cfg), zipfian_mix(&cfg));
        let other = zipfian_mix(&ZipfianMixConfig {
            seed: 1,
            ..cfg.clone()
        });
        assert_ne!(zipfian_mix(&cfg), other);
    }

    #[test]
    fn tenants_stay_inside_their_regions() {
        let cfg = ZipfianMixConfig {
            tenants: 3,
            blocks_per_tenant: 64,
            ops: 2000,
            ..ZipfianMixConfig::default()
        };
        let region = 64 * BLOCK;
        let mut seen = [false; 3];
        for op in zipfian_mix(&cfg) {
            let base = op.tenant as u64 * region;
            assert!(op.addr >= base && op.addr < base + region);
            assert_eq!(op.addr % BLOCK, 0);
            seen[op.tenant] = true;
        }
        assert!(seen.iter().all(|&s| s), "every tenant issues traffic");
    }

    #[test]
    fn every_tenant_opens_with_a_write() {
        let cfg = ZipfianMixConfig {
            tenants: 4,
            ops: 64,
            write_fraction: 0.0,
            ..ZipfianMixConfig::default()
        };
        let ops = zipfian_mix(&cfg);
        for t in 0..4 {
            let first = ops.iter().find(|o| o.tenant == t).expect("tenant issues");
            assert!(
                first.is_write,
                "tenant {t} must open with a committed write"
            );
        }
    }

    #[test]
    fn skew_concentrates_and_hot_sets_differ_across_tenants() {
        let cfg = ZipfianMixConfig {
            tenants: 2,
            blocks_per_tenant: 256,
            theta: 0.99,
            ops: 8000,
            ..ZipfianMixConfig::default()
        };
        let ops = zipfian_mix(&cfg);
        // Hot block per tenant = most frequently touched local block.
        let mut hottest = Vec::new();
        for t in 0..2usize {
            let mut counts = std::collections::BTreeMap::new();
            for op in ops.iter().filter(|o| o.tenant == t) {
                *counts.entry(op.addr).or_insert(0u64) += 1;
            }
            let total: u64 = counts.values().sum();
            let (&hot_addr, &hot_count) = counts.iter().max_by_key(|&(_, c)| *c).expect("traffic");
            assert!(
                hot_count * 10 > total,
                "Zipf 0.99 concentrates >10% of traffic on the hottest block"
            );
            hottest.push(hot_addr % (256 * BLOCK));
        }
        assert_ne!(
            hottest[0], hottest[1],
            "per-tenant shuffles place hot ranks at distinct offsets"
        );
        // And the footprint is not degenerate.
        let distinct: BTreeSet<u64> = ops.iter().map(|o| o.addr).collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    fn uniform_theta_spreads_traffic() {
        let cfg = ZipfianMixConfig {
            tenants: 1,
            blocks_per_tenant: 64,
            theta: 0.0,
            ops: 4000,
            ..ZipfianMixConfig::default()
        };
        let distinct: BTreeSet<u64> = zipfian_mix(&cfg).iter().map(|o| o.addr).collect();
        assert!(
            distinct.len() >= 60,
            "uniform draw touches nearly every block"
        );
    }
}
