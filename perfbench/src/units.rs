//! Unit costs: host nanoseconds per call of each layer's public hot
//! function, timed on inputs shaped like the workload. Multiplied by the
//! exact counts they give per-op estimates, which are labelled as such.

use crate::stats::median;
use crate::workloads::{secure_config, Workload, BLOCK, PAGE};
use amnt_bmt::{Bmt, BmtGeometry};
use amnt_cache::{CacheConfig, SetAssocCache};
use amnt_crypto::{mac64_batch, CtrEngine, HmacSha256, DATA_MAC_MSG_LEN};
use amnt_nvm::{Nvm, NvmConfig, FRAME_SIZE};
use amnt_prng::Rng;
use amnt_workloads::{Event, SparseHotSet, TraceGen, WorkloadModel};
use std::hint::black_box;
use std::time::Instant;

/// Addresses per unit-cost input set.
const INPUTS: usize = 4096;
/// Timed rounds per unit cost; the median round is reported.
const ROUNDS: usize = 7;

/// Host nanoseconds per call of each layer's hot function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitCosts {
    /// One event from the workload's generator (`TraceGen` for the `xz`
    /// model; `SparseHotSet` on `recover_2tb`).
    pub gen_ns_per_event: f64,
    /// `SetAssocCache::access` (fill on miss) on the L1D geometry.
    pub l1_access_ns: f64,
    /// `SetAssocCache::access` (fill on miss) on the metadata-cache
    /// geometry, over the counter lines of the workload's addresses.
    pub meta_access_ns: f64,
    /// `HmacSha256::mac64` over an 85-byte data-MAC message.
    pub mac64_ns: f64,
    /// `mac64_batch` of eight such messages, per MAC.
    pub mac64_batch8_ns_per_mac: f64,
    /// `CtrEngine::encrypt_block`.
    pub ctr_encrypt_ns: f64,
    /// `Bmt::compute_node` of a bottom-level node.
    pub compute_node_ns: f64,
    /// `Nvm::read_block` on a device holding the workload's resident frames.
    pub nvm_read_ns: f64,
    /// `Nvm::write_block` on the same device.
    pub nvm_write_ns: f64,
}

/// Median over [`ROUNDS`] rounds of host nanoseconds per call of `f`,
/// called with `0..n` each round.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..n {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&rounds)
}

/// Block addresses shaped like the workload's data accesses.
fn data_addrs(workload: Workload, seed: u64) -> Vec<u64> {
    match workload {
        Workload::SimXz => {
            let model = WorkloadModel::by_name("xz").expect("xz is a catalogued model");
            TraceGen::new(&model, seed, INPUTS as u64)
                .filter_map(|e| match e {
                    Event::Access(op) => Some(op.vaddr),
                    Event::Unmap { .. } => None,
                })
                .collect()
        }
        Workload::KvRead => {
            let mut rng = Rng::seed_from_u64(seed);
            (0..INPUTS)
                .map(|_| rng.gen_range(0..65_536) * PAGE)
                .collect()
        }
        Workload::Recover2tb => SparseHotSet::new(seed, workload.capacity(), 16 << 20)
            .take(INPUTS)
            .collect(),
    }
}

impl UnitCosts {
    /// Times every unit cost for `workload`; `resident_frames` is the frame
    /// count the workload's device held at the end of a pass.
    pub fn measure(workload: Workload, seed: u64, resident_frames: u64) -> UnitCosts {
        let addrs = data_addrs(workload, seed);
        let n = addrs.len();
        let cfg = secure_config(workload.capacity());
        let geometry = BmtGeometry::new(cfg.data_capacity).expect("workload capacities are valid");

        let gen_ns_per_event = match workload {
            Workload::Recover2tb => {
                let mut gen = SparseHotSet::new(seed, workload.capacity(), 16 << 20);
                ns_per_call(INPUTS, |_| {
                    black_box(gen.next());
                })
            }
            _ => {
                let model = WorkloadModel::by_name("xz").expect("xz is a catalogued model");
                let mut gen = TraceGen::new(&model, seed, u64::MAX);
                ns_per_call(INPUTS, |_| {
                    black_box(gen.next());
                })
            }
        };

        let cache_cost = |config: CacheConfig, lines: &[u64]| {
            let mut cache = SetAssocCache::new(config).expect("valid cache geometry");
            ns_per_call(lines.len(), |i| {
                if !cache.access(black_box(lines[i]), false).hit {
                    cache.fill(lines[i], false);
                }
            })
        };
        let l1_access_ns = cache_cost(CacheConfig::new(32 * 1024, 8, 64), &addrs);
        let counter_lines: Vec<u64> = addrs
            .iter()
            .map(|&a| geometry.counter_addr(geometry.counter_index(a % cfg.data_capacity)))
            .collect();
        let meta_access_ns = cache_cost(cfg.metadata_cache, &counter_lines);

        let hmac = HmacSha256::new(&cfg.integrity_key);
        let mut msgs = vec![[0u8; DATA_MAC_MSG_LEN]; n];
        let mut rng = Rng::seed_from_u64(seed);
        for m in &mut msgs {
            rng.fill_bytes(m);
        }
        let mac64_ns = ns_per_call(n, |i| {
            black_box(hmac.mac64(black_box(&msgs[i])));
        });
        let mac64_batch8_ns_per_mac = ns_per_call(n / 8, |i| {
            let batch: [(&HmacSha256, &[u8]); 8] =
                std::array::from_fn(|j| (&hmac, &msgs[i * 8 + j][..]));
            black_box(mac64_batch(black_box(&batch)));
        }) / 8.0;
        let engine = CtrEngine::new(&cfg.encryption_key);
        let ctr_encrypt_ns = ns_per_call(n, |i| {
            let plain: &[u8; 64] = msgs[i][..64].try_into().expect("64-byte prefix");
            black_box(engine.encrypt_block(addrs[i], i as u64, (i % 64) as u8, plain));
        });

        let bmt = Bmt::new(geometry.clone(), &cfg.integrity_key);
        let mut tree_nvm = Nvm::new(NvmConfig {
            capacity_bytes: geometry.total_size().next_multiple_of(FRAME_SIZE as u64),
            ..NvmConfig::paper_default()
        });
        let nodes: Vec<_> = counter_lines
            .iter()
            .map(|&line| {
                let index = geometry
                    .counter_index_of_addr(line)
                    .expect("a counter line");
                geometry.counter_parent(index)
            })
            .collect();
        let compute_node_ns = ns_per_call(n, |i| {
            black_box(
                bmt.compute_node(&mut tree_nvm, nodes[i])
                    .expect("in-range node"),
            );
        });

        // A device holding the workload's resident frame count: the frames
        // the addresses touch, then filler frames up to the count.
        let mut nvm = Nvm::new(NvmConfig {
            capacity_bytes: 2 * cfg.data_capacity,
            ..NvmConfig::paper_default()
        });
        let data: Vec<u64> = addrs
            .iter()
            .map(|&a| a % cfg.data_capacity / BLOCK * BLOCK)
            .collect();
        for &a in &data {
            nvm.write_block(a, &[1; 64]).expect("in-range address");
        }
        let mut filler = cfg.data_capacity;
        while (nvm.resident_frames() as u64) < resident_frames {
            nvm.write_block(filler, &[1; 64]).expect("in-range address");
            filler += FRAME_SIZE as u64;
        }
        let nvm_read_ns = ns_per_call(n, |i| {
            black_box(nvm.read_block(data[i]).expect("in-range address"));
        });
        let nvm_write_ns = ns_per_call(n, |i| {
            nvm.write_block(
                data[i],
                black_box(&msgs[i][..64].try_into().expect("64 bytes")),
            )
            .expect("in-range address");
        });

        UnitCosts {
            gen_ns_per_event,
            l1_access_ns,
            meta_access_ns,
            mac64_ns,
            mac64_batch8_ns_per_mac,
            ctr_encrypt_ns,
            compute_node_ns,
            nvm_read_ns,
            nvm_write_ns,
        }
    }
}
