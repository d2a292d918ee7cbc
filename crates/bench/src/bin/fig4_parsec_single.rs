//! **Figure 4** — Normalized cycles, single-program PARSEC workloads.
//!
//! Runs every PARSEC model on the paper's single-core machine under each
//! persistence protocol, normalising cycles to the volatile secure-memory
//! baseline. `amnt++` runs the AMNT protocol with the modified (biased)
//! physical page allocator. Every (workload × protocol) cell is an
//! independent seeded simulation, so the whole figure fans out across host
//! cores (`AMNT_JOBS`) with byte-identical output at any worker count.

use amnt_bench::ProtocolFigure;
use amnt_sim::{run_single, MachineConfig};
use amnt_workloads::parsec;

fn main() {
    ProtocolFigure {
        id: "fig4",
        title: "Figure 4: single-program PARSEC (normalized cycles)",
        machine: MachineConfig::parsec_single(),
        amnt_plus: true,
        gmean: true,
    }
    .run(
        parsec().into_iter().map(|m| (m.name.to_string(), m)),
        run_single,
    );

    println!(
        "\nPaper anchors (§6.1): leaf ≈ 1.08, strict ≈ 2.39, amnt ≈ 1.16, amnt++ ≈ 1.10 (means);"
    );
    println!("canneal under Anubis ≈ 2.4x, under AMNT < 1.001x.");
}
