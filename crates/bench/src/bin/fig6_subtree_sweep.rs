//! **Figures 6 and 7** — normalized cycles and subtree hit rates vs AMNT
//! subtree level (multiprogram).
//!
//! Sweeps the BIOS-configurable subtree-root level from 2 (large fast
//! subtree, slow recovery) to 7 (tiny subtree, fast recovery) for AMNT and
//! AMNT++ on the multiprogram pairs, every (pair × OS × level) cell in
//! parallel. Both figures read the same runs: Figure 6 the cycles
//! normalized to each pair's volatile baseline (`fig6.json`), Figure 7 the
//! fraction of data writes landing in the fast subtree (`fig7.json`). The
//! paper's Figure 7 headline: AMNT++ improves bodytrack+fluidanimate's hit
//! rate (e.g. 91% → 97% at level 3) and gains at least 5% between levels 3
//! and 7.

use amnt_bench::{compare, print_table, run_length, ExperimentResult, Grid, HostTimer};
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_sim::{run_pair, with_amnt_plus, MachineConfig, SimReport};
use amnt_workloads::{multiprogram_pairs, WorkloadModel};

/// Swept subtree levels, lowest (largest subtree) first.
const LEVELS: [u32; 6] = [2, 3, 4, 5, 6, 7];

/// Column labels matching [`LEVELS`].
const LEVEL_COLS: [&str; 6] = ["L2", "L3", "L4", "L5", "L6", "L7"];

fn main() {
    let timer = HostTimer::start();
    let len = run_length();
    let mut grid: Grid<SimReport> = Grid::new();
    let mut labels = Vec::new();
    for (a, b) in multiprogram_pairs() {
        let pair_label = format!("{a}+{b}");
        let ma = WorkloadModel::by_name(a).expect("catalogued");
        let mb = WorkloadModel::by_name(b).expect("catalogued");
        let cfg = MachineConfig::parsec_multi();
        {
            let cfg = cfg.clone();
            grid.add(pair_label.clone(), "volatile", move || {
                run_pair(&ma, &mb, cfg, ProtocolKind::Volatile, len).expect("baseline")
            });
        }
        for plus in [false, true] {
            let label = format!("{pair_label}{}", if plus { " ++" } else { "" });
            for level in LEVELS {
                let amnt = AmntConfig::at_level(level);
                let cfg_run = if plus {
                    with_amnt_plus(cfg.clone(), amnt)
                } else {
                    cfg.clone()
                };
                grid.add(label.clone(), format!("L{level}"), move || {
                    run_pair(&ma, &mb, cfg_run, ProtocolKind::Amnt(amnt), len).expect("sweep run")
                });
            }
            labels.push((pair_label.clone(), label));
        }
    }
    let results = grid.run();

    let mut fig6 = ExperimentResult::new("fig6", "cycles normalized to volatile");
    let mut fig7 = ExperimentResult::new("fig7", "subtree hit rate");
    let mut cycle_rows = Vec::new();
    let mut hit_rows = Vec::new();
    for (pair_label, label) in labels {
        let baseline = results.value(&pair_label, "volatile");
        eprint!("fig6/7: {label:<32}");
        let mut cycles = Vec::new();
        let mut hits = Vec::new();
        for col in LEVEL_COLS {
            let r = results.value(&label, col);
            let (cycle, hit) = (r.normalized_to(baseline), r.subtree_hit_rate);
            eprint!(" {col}={cycle:.3}/{hit:.2}");
            fig6.push(&label, col, cycle);
            fig7.push(&label, col, hit);
            cycles.push(cycle);
            hits.push(hit);
        }
        eprintln!();
        cycle_rows.push((label.clone(), cycles));
        hit_rows.push((label, hits));
    }

    print_table(
        "Figure 6: normalized cycles vs subtree level",
        &LEVEL_COLS,
        &cycle_rows,
    );
    println!("\nPaper shape (§6.3): deeper subtree roots protect less memory and hit rates fall;");
    println!("AMNT++ recovers ≥5% subtree hit rate for bodytrack+fluidanimate between L3 and L7.");
    print_table(
        "Figure 7: subtree hit rate vs subtree level",
        &LEVEL_COLS,
        &hit_rows,
    );
    println!("\nPaper anchors (§6.2-6.3), bodytrack+fluidanimate at L3:");
    compare("amnt subtree hit rate", 0.91, hit_rows[0].1[1]);
    compare("amnt++ subtree hit rate", 0.97, hit_rows[1].1[1]);
    for mut result in [fig6, fig7] {
        result.set_host(&timer, results.workers);
        println!("saved {}", result.save().expect("save results").display());
    }
}
