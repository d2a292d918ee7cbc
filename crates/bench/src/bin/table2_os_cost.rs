//! **Table 2** — Impact of the modified operating system (AMNT++).
//!
//! For each multiprogram pair, runs AMNT with the stock allocator and with
//! the AMNT++ allocator, reporting (a) normalized performance — cycles with
//! the modified OS over cycles with the unmodified OS — and (b) instruction
//! overhead — total (application + allocator) instructions with the
//! modified OS over the unmodified OS. The six (pair × OS) runs execute in
//! parallel; ratios are computed after collection.

use amnt_bench::{compare, print_table, run_length, ExperimentResult, Grid, HostTimer};
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_sim::{run_pair, with_amnt_plus, MachineConfig, SimReport};
use amnt_workloads::{multiprogram_pairs, WorkloadModel};

fn main() {
    let timer = HostTimer::start();
    let len = run_length();
    let amnt = AmntConfig::default();

    let mut grid: Grid<SimReport> = Grid::new();
    for (a, b) in multiprogram_pairs() {
        let label = format!("{a}+{b}");
        let ma = WorkloadModel::by_name(a).expect("catalogued");
        let mb = WorkloadModel::by_name(b).expect("catalogued");
        let cfg = MachineConfig::parsec_multi();
        {
            let cfg = cfg.clone();
            grid.add(label.clone(), "unmodified", move || {
                run_pair(&ma, &mb, cfg, ProtocolKind::Amnt(amnt), len).expect("unmodified")
            });
        }
        let pp_cfg = with_amnt_plus(cfg, amnt).expect("the default AMNT level is a stored level");
        grid.add(label.clone(), "modified", move || {
            run_pair(&ma, &mb, pp_cfg, ProtocolKind::Amnt(amnt), len).expect("modified")
        });
    }
    let results = grid.run();

    let mut result = ExperimentResult::new("table2", "modified-OS / unmodified-OS ratio");
    let mut rows = Vec::new();
    for label in results.rows() {
        eprintln!("table2: {label}");
        let base = results.value(&label, "unmodified");
        let plus = results.value(&label, "modified");
        let perf = plus.cycles as f64 / base.cycles as f64;
        let instr = plus.total_instructions() as f64 / base.total_instructions() as f64;
        result.push(&label, "normalized_performance", perf);
        result.push(&label, "instruction_overhead", instr);
        rows.push((label, vec![perf, instr]));
    }

    print_table(
        "Table 2: modified OS impact (AMNT++ / AMNT)",
        &["norm perf", "instr ovh"],
        &rows,
    );
    println!("\nPaper values:");
    compare("body+fluid  norm perf / instr ovh", 0.992, rows[0].1[0]);
    compare("             (instr)", 1.004, rows[0].1[1]);
    compare("swap+stream norm perf / instr ovh", 0.967, rows[1].1[0]);
    compare("             (instr)", 1.021, rows[1].1[1]);
    compare("x264+freq   norm perf / instr ovh", 1.013, rows[2].1[0]);
    compare("             (instr)", 1.010, rows[2].1[1]);
    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
}
