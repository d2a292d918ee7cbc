//! **Figure 3** — Memory accesses per physical address.
//!
//! (a) Single-program behaviour (`lbm`): memory traffic concentrates in a
//! small contiguous physical range — the hot-region assumption behind AMNT.
//! (b) Multiprogram behaviour (`perlbench` + `lbm`): two address spaces
//! interleave in physical memory, diluting the assumption (the motivation
//! for AMNT++). The two profiling runs are independent and execute in
//! parallel.
//!
//! Prints a coarse histogram of memory-level accesses per 16 MiB physical
//! bin and summary concentration statistics.

use amnt_bench::{run_length, ExperimentResult, Grid, HostTimer};
use amnt_core::ProtocolKind;
use amnt_sim::{profile_pair, profile_single, MachineConfig, SimReport};
use amnt_workloads::WorkloadModel;

const BIN_BYTES: u64 = 16 * 1024 * 1024;
const PAGE: u64 = 4096;

fn summarize(tag: &str, report: &SimReport, result: &mut ExperimentResult) {
    let profile = report.physical_profile.as_ref().expect("profiling enabled");
    let total: u64 = profile.iter().map(|(_, n)| n).sum();
    let mut bins: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (page, n) in profile {
        *bins.entry(page * PAGE / BIN_BYTES).or_insert(0) += n;
    }
    // Concentration: how many 16 MiB bins cover 90% of accesses?
    let mut counts: Vec<u64> = bins.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut acc = 0u64;
    let mut bins_90 = 0usize;
    for c in &counts {
        acc += c;
        bins_90 += 1;
        if acc * 10 >= total * 9 {
            break;
        }
    }
    println!("\n--- {tag} ---");
    println!(
        "touched pages: {}, touched 16MiB bins: {}",
        profile.len(),
        bins.len()
    );
    println!("bins covering 90% of accesses: {bins_90}");
    println!("accesses per bin (physical order):");
    for (bin, n) in &bins {
        let bar = "#".repeat(((n * 50) / counts[0].max(1)) as usize);
        println!("  {:>6} MiB {:>10} {}", bin * 16, n, bar);
    }
    result.push(tag, "bins_90pct", bins_90 as f64);
    result.push(tag, "touched_bins", bins.len() as f64);
    for (bin, n) in &bins {
        result.push(tag, &format!("bin_{bin}"), *n as f64);
    }
}

fn main() {
    let timer = HostTimer::start();
    let len = run_length();
    let mut result = ExperimentResult::new("fig3", "memory accesses per 16MiB physical bin");
    let lbm = WorkloadModel::by_name("lbm").expect("lbm");
    let perl = WorkloadModel::by_name("perlbench").expect("perlbench");

    let mut grid: Grid<SimReport> = Grid::new();
    grid.add("single: lbm", "profile", move || {
        profile_single(
            &lbm,
            MachineConfig::parsec_single(),
            ProtocolKind::Volatile,
            len,
        )
        .expect("fig3a run")
    });
    grid.add("multi: perlbench+lbm", "profile", move || {
        profile_pair(
            &perl,
            &lbm,
            MachineConfig::parsec_multi(),
            ProtocolKind::Volatile,
            len,
        )
        .expect("fig3b run")
    });
    let results = grid.run();
    for cell in results.cells() {
        summarize(&cell.row, &cell.value, &mut result);
    }

    println!("\nPaper shape (Fig. 3): the single program's accesses form one dense region;");
    println!("the multiprogram run interleaves two address spaces across physical memory.");
    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
}
