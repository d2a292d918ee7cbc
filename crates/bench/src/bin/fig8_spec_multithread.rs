//! **Figure 8** — Normalized cycles, SPEC CPU 2017 (multithreaded).
//!
//! Every SPEC speed model runs as four threads on the four-core machine
//! under each protocol, normalised to the volatile ("writeback") secure
//! memory baseline; the 96 (workload × protocol) cells fan out across host
//! cores. The paper's headlines: AMNT beats Anubis by up to 41% (13% on
//! average), stays within ~2% of leaf, and is up to 8× better than strict;
//! write-intensive xz/lbm/deepsjeng suffer most under strict persistence;
//! read-intensive cactuBSSN/mcf are insensitive for AMNT but not for
//! Anubis/BMF.

use amnt_bench::{compare, ProtocolFigure};
use amnt_sim::{run_multithread, MachineConfig};
use amnt_workloads::spec2017;

fn main() {
    let table = ProtocolFigure {
        id: "fig8",
        title: "Figure 8: SPEC CPU 2017 multithreaded (normalized cycles)",
        machine: MachineConfig::spec_multithread(),
        amnt_plus: false,
        gmean: true,
    }
    .run(
        spec2017().into_iter().map(|m| (m.name.to_string(), m)),
        run_multithread,
    );

    println!("\nPaper anchors (§6.5):");
    compare("xz under amnt", 1.32, table.cell("xz", "amnt"));
    compare("xz under anubis", 1.41, table.cell("xz", "anubis"));
    compare("xz under bmf", 7.0, table.cell("xz", "bmf"));
    let gmean = |col| table.cell("gmean", col);
    compare(
        "amnt avg improvement vs anubis",
        0.87,
        gmean("amnt") / gmean("anubis"),
    );
    compare(
        "amnt overhead vs leaf (<= 1.02)",
        1.02,
        gmean("amnt") / gmean("leaf"),
    );
}
