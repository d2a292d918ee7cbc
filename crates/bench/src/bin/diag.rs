//! Diagnostic dump: per-access cost breakdown for one benchmark under each
//! protocol (all protocols run in parallel). Not part of the paper's
//! experiments; a tuning aid.

use amnt_bench::{figure_protocols, run_length, Grid};
use amnt_core::ProtocolKind;
use amnt_sim::{run_single, MachineConfig, SimReport};
use amnt_workloads::WorkloadModel;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "fluidanimate".into());
    let model = WorkloadModel::by_name(&name).expect("known benchmark");
    let len = run_length();
    let cfg = MachineConfig::parsec_single();
    let mut grid: Grid<SimReport> = Grid::new();
    let mut protos = vec![("volatile", ProtocolKind::Volatile)];
    protos.extend(figure_protocols());
    for (pname, protocol) in protos {
        let cfg = cfg.clone();
        grid.add(pname, "diag", move || {
            run_single(&model, cfg, protocol, len).expect(pname)
        });
    }
    // AMNT++ (modified OS).
    let amnt = amnt_core::AmntConfig::default();
    let pp_cfg = amnt_sim::with_amnt_plus(cfg, amnt);
    grid.add("amnt++", "diag", move || {
        run_single(&model, pp_cfg, ProtocolKind::Amnt(amnt), len).expect("amnt++")
    });
    let results = grid.run();

    println!(
        "{:<10}{:>12}{:>9}{:>9}{:>10}{:>10}{:>10}{:>10}{:>9}{:>9}",
        "proto",
        "cycles",
        "cyc/acc",
        "llcmiss%",
        "mdhit%",
        "persistW",
        "postedW",
        "stallcyc",
        "bankwait",
        "shadowW"
    );
    for cell in results.cells() {
        print_row(&cell.row, &cell.value);
    }
}

fn print_row(pname: &str, r: &SimReport) {
    let s = &r.snapshot;
    println!(
        "{:<10}{:>12}{:>9.1}{:>9.2}{:>10.3}{:>10}{:>10}{:>10}{:>9}{:>9}  sub={:.3} trans={} restr={}",
        pname,
        r.cycles,
        r.cycles as f64 / r.accesses as f64,
        100.0 * r.llc_misses as f64 / r.accesses as f64,
        r.metadata_hit_rate,
        s.controller.persist_writes,
        s.controller.posted_writes,
        s.timeline.queue_stall_cycles,
        s.timeline.bank_wait_cycles,
        s.controller.shadow_writes,
        r.subtree_hit_rate,
        r.subtree_transitions,
        r.restructures,
    );
}
