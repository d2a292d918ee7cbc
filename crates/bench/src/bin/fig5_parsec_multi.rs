//! **Figure 5** — Normalized cycles, multiprogram PARSEC pairs.
//!
//! The paper's three temporally-aligned pairs run on the two-core machine;
//! each protocol's cycles are normalised to the volatile baseline. `amnt++`
//! adds the modified OS allocator (aged machine, biased free lists). All
//! (pair × protocol) cells execute in parallel through the grid executor.

use amnt_bench::{compare, ProtocolFigure};
use amnt_sim::{run_pair, MachineConfig};
use amnt_workloads::{multiprogram_pairs, WorkloadModel};

fn main() {
    let pairs = multiprogram_pairs().into_iter().map(|(a, b)| {
        let model = |name| WorkloadModel::by_name(name).expect("catalogued");
        (format!("{a}+{b}"), (model(a), model(b)))
    });
    let table = ProtocolFigure {
        id: "fig5",
        title: "Figure 5: multiprogram PARSEC (normalized cycles)",
        machine: MachineConfig::parsec_multi(),
        amnt_plus: true,
        gmean: false,
    }
    .run(pairs, |(a, b), cfg, protocol, len| {
        run_pair(a, b, cfg, protocol, len)
    });

    let vs_leaf = |col| {
        let pair = "bodytrack+fluidanimate";
        table.cell(pair, col) / table.cell(pair, "leaf")
    };
    println!("\nPaper anchors (§6.2):");
    compare("bodytrack+fluidanimate amnt vs leaf", 1.08, vs_leaf("amnt"));
    compare(
        "bodytrack+fluidanimate amnt++ vs leaf",
        1.001,
        vs_leaf("amnt++"),
    );
    println!(
        "  swaptions+streamcluster and x264+freqmine: not memory-intensive, negligible overheads."
    );
}
