//! Benchmark models: parameterised descriptions of the PARSEC 3.0 and
//! SPEC CPU 2017 workloads the paper evaluates.
//!
//! We cannot run the real binaries (the paper uses gem5 full-system
//! checkpoints), so each benchmark is modelled by the handful of traits that
//! actually drive persistence-protocol behaviour: memory footprint, write
//! fraction, memory intensity (compute cycles between LLC-relevant
//! accesses), spatial locality mix (sequential / hot-set / uniform-random),
//! hot-set size, and working-set drift (allocation churn). The values
//! encode the qualitative characterisations the paper relies on — e.g.
//! `canneal`'s pointer-chasing randomness (30 % metadata-cache hit rate),
//! `xz`/`lbm`/`deepsjeng` as the write-intensive SPEC trio, `mcf` and
//! `cactuBSSN` as read-intensive — rather than any claim of cycle-accurate
//! fidelity.

/// Which suite a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PARSEC 3.0 (simlarge), the paper's Figures 4-7 and Table 2.
    Parsec,
    /// SPEC CPU 2017 speed, the paper's Figure 8.
    Spec2017,
}

/// A synthetic benchmark model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Virtual working-set size in bytes.
    pub footprint: u64,
    /// Fraction of accesses directed at the hot set.
    pub hot_access_prob: f64,
    /// Hot-set size in bytes (temporal locality comes from its smallness).
    pub hot_bytes: u64,
    /// Probability an access continues a sequential run (spatial locality).
    pub seq_prob: f64,
    /// Probability an access hits the tiny L1-resident "stack" region
    /// (registers spilled, locals, top-of-stack churn).
    pub stack_prob: f64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Mean compute ("think") cycles between emitted accesses.
    pub think_cycles: u32,
    /// Pages of working-set drift per 10 000 ops (allocation churn feeding
    /// the OS reclamation path; 0 = static working set).
    pub drift_pages_per_10k: u32,
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

impl WorkloadModel {
    /// Looks a model up by its paper name in either suite.
    pub fn by_name(name: &str) -> Option<WorkloadModel> {
        parsec()
            .into_iter()
            .chain(spec2017())
            .find(|m| m.name == name)
    }
}

/// The PARSEC 3.0 models (Figures 4-7, Table 2).
pub fn parsec() -> Vec<WorkloadModel> {
    use Suite::Parsec;
    vec![
        // Compute-bound option pricing: tiny streaming working set.
        WorkloadModel {
            name: "blackscholes",
            suite: Parsec,
            footprint: 8 * MIB,
            hot_access_prob: 0.55,
            hot_bytes: 256 * KIB,
            seq_prob: 0.70,
            stack_prob: 0.35,
            write_fraction: 0.28,
            think_cycles: 420,
            drift_pages_per_10k: 1,
        },
        // Body tracking: moderate footprint, decent locality, write-y phases.
        WorkloadModel {
            name: "bodytrack",
            suite: Parsec,
            footprint: 32 * MIB,
            hot_access_prob: 0.72,
            hot_bytes: 512 * KIB,
            seq_prob: 0.45,
            stack_prob: 0.30,
            write_fraction: 0.33,
            think_cycles: 150,
            drift_pages_per_10k: 4,
        },
        // Simulated annealing over a huge netlist: pointer-chasing, very
        // poor spatial AND metadata-cache locality.
        WorkloadModel {
            name: "canneal",
            suite: Parsec,
            footprint: 120 * MIB,
            hot_access_prob: 0.15,
            hot_bytes: 4 * MIB,
            seq_prob: 0.05,
            stack_prob: 0.10,
            write_fraction: 0.22,
            think_cycles: 55,
            drift_pages_per_10k: 2,
        },
        // Pipelined dedup: large streams with hash-table randomness.
        WorkloadModel {
            name: "dedup",
            suite: Parsec,
            footprint: 128 * MIB,
            hot_access_prob: 0.40,
            hot_bytes: MIB,
            seq_prob: 0.55,
            stack_prob: 0.25,
            write_fraction: 0.30,
            think_cycles: 95,
            drift_pages_per_10k: 10,
        },
        // Physics simulation: stencil-like sweeps over particle grids.
        WorkloadModel {
            name: "facesim",
            suite: Parsec,
            footprint: 96 * MIB,
            hot_access_prob: 0.50,
            hot_bytes: MIB,
            seq_prob: 0.60,
            stack_prob: 0.25,
            write_fraction: 0.35,
            think_cycles: 110,
            drift_pages_per_10k: 2,
        },
        // Content-based search: read-mostly index probing.
        WorkloadModel {
            name: "ferret",
            suite: Parsec,
            footprint: 64 * MIB,
            hot_access_prob: 0.45,
            hot_bytes: 512 * KIB,
            seq_prob: 0.30,
            stack_prob: 0.25,
            write_fraction: 0.18,
            think_cycles: 130,
            drift_pages_per_10k: 3,
        },
        // Fluid dynamics: hot grid cells, write-intensive updates.
        WorkloadModel {
            name: "fluidanimate",
            suite: Parsec,
            footprint: 48 * MIB,
            hot_access_prob: 0.78,
            hot_bytes: 512 * KIB,
            seq_prob: 0.50,
            stack_prob: 0.25,
            write_fraction: 0.42,
            think_cycles: 85,
            drift_pages_per_10k: 2,
        },
        // Frequent itemset mining: read-heavy tree walks, compute-bound.
        WorkloadModel {
            name: "freqmine",
            suite: Parsec,
            footprint: 32 * MIB,
            hot_access_prob: 0.60,
            hot_bytes: 512 * KIB,
            seq_prob: 0.35,
            stack_prob: 0.30,
            write_fraction: 0.15,
            think_cycles: 300,
            drift_pages_per_10k: 1,
        },
        // Ray tracing: read-dominant BVH traversal.
        WorkloadModel {
            name: "raytrace",
            suite: Parsec,
            footprint: 96 * MIB,
            hot_access_prob: 0.55,
            hot_bytes: MIB,
            seq_prob: 0.25,
            stack_prob: 0.30,
            write_fraction: 0.10,
            think_cycles: 160,
            drift_pages_per_10k: 1,
        },
        // Online clustering: streaming reads over points, tiny write set.
        WorkloadModel {
            name: "streamcluster",
            suite: Parsec,
            footprint: 16 * MIB,
            hot_access_prob: 0.65,
            hot_bytes: 256 * KIB,
            seq_prob: 0.80,
            stack_prob: 0.30,
            write_fraction: 0.08,
            think_cycles: 260,
            drift_pages_per_10k: 0,
        },
        // Monte-Carlo swaption pricing: compute-bound, tiny working set.
        WorkloadModel {
            name: "swaptions",
            suite: Parsec,
            footprint: 2 * MIB,
            hot_access_prob: 0.85,
            hot_bytes: 128 * KIB,
            seq_prob: 0.40,
            stack_prob: 0.40,
            write_fraction: 0.25,
            think_cycles: 520,
            drift_pages_per_10k: 0,
        },
        // Image pipeline: streaming with moderate writes.
        WorkloadModel {
            name: "vips",
            suite: Parsec,
            footprint: 64 * MIB,
            hot_access_prob: 0.45,
            hot_bytes: 512 * KIB,
            seq_prob: 0.70,
            stack_prob: 0.25,
            write_fraction: 0.32,
            think_cycles: 140,
            drift_pages_per_10k: 6,
        },
        // Video encoding: frame-window locality, moderate writes.
        WorkloadModel {
            name: "x264",
            suite: Parsec,
            footprint: 32 * MIB,
            hot_access_prob: 0.70,
            hot_bytes: 512 * KIB,
            seq_prob: 0.60,
            stack_prob: 0.30,
            write_fraction: 0.27,
            think_cycles: 210,
            drift_pages_per_10k: 2,
        },
    ]
}

/// The SPEC CPU 2017 speed models (Figure 8).
pub fn spec2017() -> Vec<WorkloadModel> {
    use Suite::Spec2017;
    vec![
        // Interpreter: pointer-heavy but cache-friendly hot loops.
        WorkloadModel {
            name: "perlbench",
            suite: Spec2017,
            footprint: 64 * MIB,
            hot_access_prob: 0.70,
            hot_bytes: 512 * KIB,
            seq_prob: 0.35,
            stack_prob: 0.30,
            write_fraction: 0.30,
            think_cycles: 230,
            drift_pages_per_10k: 3,
        },
        // Compiler: irregular, moderate everything.
        WorkloadModel {
            name: "gcc",
            suite: Spec2017,
            footprint: 96 * MIB,
            hot_access_prob: 0.55,
            hot_bytes: MIB,
            seq_prob: 0.30,
            stack_prob: 0.25,
            write_fraction: 0.28,
            think_cycles: 150,
            drift_pages_per_10k: 8,
        },
        // Vehicle scheduling: the classic random-pointer-chasing,
        // read-intensive memory hog.
        WorkloadModel {
            name: "mcf",
            suite: Spec2017,
            footprint: 192 * MIB,
            hot_access_prob: 0.25,
            hot_bytes: 8 * MIB,
            seq_prob: 0.08,
            stack_prob: 0.10,
            write_fraction: 0.12,
            think_cycles: 40,
            drift_pages_per_10k: 0,
        },
        // Numerical relativity: big streaming stencils, read-heavy.
        WorkloadModel {
            name: "cactuBSSN",
            suite: Spec2017,
            footprint: 160 * MIB,
            hot_access_prob: 0.30,
            hot_bytes: 512 * KIB,
            seq_prob: 0.85,
            stack_prob: 0.15,
            write_fraction: 0.14,
            think_cycles: 60,
            drift_pages_per_10k: 0,
        },
        // Lattice Boltzmann: the write-intensive streaming kernel.
        WorkloadModel {
            name: "lbm",
            suite: Spec2017,
            footprint: 160 * MIB,
            hot_access_prob: 0.35,
            hot_bytes: 512 * KIB,
            seq_prob: 0.80,
            stack_prob: 0.15,
            write_fraction: 0.47,
            think_cycles: 45,
            drift_pages_per_10k: 0,
        },
        // Discrete-event simulation: scattered heap traffic.
        WorkloadModel {
            name: "omnetpp",
            suite: Spec2017,
            footprint: 128 * MIB,
            hot_access_prob: 0.40,
            hot_bytes: 2 * MIB,
            seq_prob: 0.15,
            stack_prob: 0.15,
            write_fraction: 0.30,
            think_cycles: 90,
            drift_pages_per_10k: 5,
        },
        // XML transformation: moderate locality, read-leaning.
        WorkloadModel {
            name: "xalancbmk",
            suite: Spec2017,
            footprint: 64 * MIB,
            hot_access_prob: 0.60,
            hot_bytes: MIB,
            seq_prob: 0.40,
            stack_prob: 0.25,
            write_fraction: 0.22,
            think_cycles: 170,
            drift_pages_per_10k: 4,
        },
        // Video encoding (same kernel family as the PARSEC entry).
        WorkloadModel {
            name: "x264",
            suite: Spec2017,
            footprint: 40 * MIB,
            hot_access_prob: 0.70,
            hot_bytes: 512 * KIB,
            seq_prob: 0.60,
            stack_prob: 0.30,
            write_fraction: 0.27,
            think_cycles: 210,
            drift_pages_per_10k: 2,
        },
        // Chess search: deep recursion with write-heavy transposition
        // tables.
        WorkloadModel {
            name: "deepsjeng",
            suite: Spec2017,
            footprint: 96 * MIB,
            hot_access_prob: 0.45,
            hot_bytes: 4 * MIB,
            seq_prob: 0.10,
            stack_prob: 0.20,
            write_fraction: 0.40,
            think_cycles: 70,
            drift_pages_per_10k: 0,
        },
        // Go search: smaller tables, compute-leaning.
        WorkloadModel {
            name: "leela",
            suite: Spec2017,
            footprint: 24 * MIB,
            hot_access_prob: 0.75,
            hot_bytes: 512 * KIB,
            seq_prob: 0.20,
            stack_prob: 0.30,
            write_fraction: 0.30,
            think_cycles: 280,
            drift_pages_per_10k: 0,
        },
        // Constraint solver: effectively cache-resident.
        WorkloadModel {
            name: "exchange2",
            suite: Spec2017,
            footprint: MIB,
            hot_access_prob: 0.90,
            hot_bytes: 128 * KIB,
            seq_prob: 0.50,
            stack_prob: 0.45,
            write_fraction: 0.30,
            think_cycles: 650,
            drift_pages_per_10k: 0,
        },
        // Compression: the most write-memory-intensive benchmark (paper
        // §6.5) — large dictionaries, heavy store traffic.
        WorkloadModel {
            name: "xz",
            suite: Spec2017,
            footprint: 160 * MIB,
            hot_access_prob: 0.40,
            hot_bytes: 2 * MIB,
            seq_prob: 0.35,
            stack_prob: 0.15,
            write_fraction: 0.52,
            think_cycles: 50,
            drift_pages_per_10k: 2,
        },
        // Explicit-method CFD: long unit-stride sweeps, read-dominant.
        WorkloadModel {
            name: "bwaves",
            suite: Spec2017,
            footprint: 160 * MIB,
            hot_access_prob: 0.25,
            hot_bytes: MIB,
            seq_prob: 0.90,
            stack_prob: 0.10,
            write_fraction: 0.18,
            think_cycles: 55,
            drift_pages_per_10k: 0,
        },
        // FDTD electromagnetics: streaming stencil, moderate writes.
        WorkloadModel {
            name: "fotonik3d",
            suite: Spec2017,
            footprint: 128 * MIB,
            hot_access_prob: 0.30,
            hot_bytes: MIB,
            seq_prob: 0.85,
            stack_prob: 0.12,
            write_fraction: 0.25,
            think_cycles: 60,
            drift_pages_per_10k: 0,
        },
        // Ocean modelling: wide arrays, streaming with write-back phases.
        WorkloadModel {
            name: "roms",
            suite: Spec2017,
            footprint: 128 * MIB,
            hot_access_prob: 0.35,
            hot_bytes: 2 * MIB,
            seq_prob: 0.75,
            stack_prob: 0.15,
            write_fraction: 0.30,
            think_cycles: 70,
            drift_pages_per_10k: 0,
        },
        // Molecular dynamics: small hot neighbour lists, compute-leaning.
        WorkloadModel {
            name: "nab",
            suite: Spec2017,
            footprint: 48 * MIB,
            hot_access_prob: 0.65,
            hot_bytes: MIB,
            seq_prob: 0.45,
            stack_prob: 0.25,
            write_fraction: 0.28,
            think_cycles: 240,
            drift_pages_per_10k: 0,
        },
    ]
}

/// The paper's multiprogram PARSEC pairs (§6.2): benchmarks whose regions
/// of interest overlap in time.
pub fn multiprogram_pairs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("bodytrack", "fluidanimate"),
        ("swaptions", "streamcluster"),
        ("x264", "freqmine"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_nonempty_and_named() {
        assert_eq!(parsec().len(), 13);
        assert_eq!(spec2017().len(), 16);
        for m in parsec().into_iter().chain(spec2017()) {
            assert!(!m.name.is_empty());
            assert!(m.footprint >= 1024 * 1024);
            assert!(m.hot_bytes <= m.footprint);
            assert!((0.0..=1.0).contains(&m.write_fraction));
            assert!((0.0..=1.0).contains(&m.hot_access_prob));
            assert!((0.0..=1.0).contains(&m.seq_prob));
            assert!(m.think_cycles > 0);
        }
    }

    #[test]
    fn lookup_by_name() {
        let m = WorkloadModel::by_name("canneal").expect("canneal exists");
        assert_eq!(m.suite, Suite::Parsec);
        assert!(WorkloadModel::by_name("doom-eternal").is_none());
    }

    #[test]
    fn paper_traits_hold() {
        let xz = WorkloadModel::by_name("xz").unwrap();
        let mcf = WorkloadModel::by_name("mcf").unwrap();
        let lbm = WorkloadModel::by_name("lbm").unwrap();
        let canneal = WorkloadModel::by_name("canneal").unwrap();
        // xz is the most write-intensive SPEC benchmark (paper §6.5).
        for m in spec2017() {
            assert!(
                xz.write_fraction >= m.write_fraction,
                "{} out-writes xz",
                m.name
            );
        }
        // mcf and cactuBSSN are read-intensive; lbm is write-intensive.
        assert!(mcf.write_fraction < 0.2);
        assert!(lbm.write_fraction > 0.4);
        // canneal has the worst locality of PARSEC.
        for m in parsec() {
            assert!(
                canneal.seq_prob <= m.seq_prob,
                "{} is less sequential",
                m.name
            );
        }
    }

    #[test]
    fn multiprogram_pairs_exist_in_catalog() {
        for (a, b) in multiprogram_pairs() {
            assert!(WorkloadModel::by_name(a).is_some(), "{a}");
            assert!(WorkloadModel::by_name(b).is_some(), "{b}");
        }
    }
}
