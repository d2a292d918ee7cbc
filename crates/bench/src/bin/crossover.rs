//! **Extension** — where AMNT's advantage lives: a hotness sweep.
//!
//! AMNT's bet (paper §4.1) is that writes concentrate in one contiguous hot
//! region. This study degrades that assumption continuously — sweeping the
//! probability that an access hits the hot set from 0.9 down to 0.0 — and
//! runs the main protocols at each point, locating the crossovers: where
//! AMNT stops tracking leaf persistence and where it falls behind Anubis or
//! BMF. The paper's adversarial-case discussion (§6.2) claims such cases
//! "do not occur in practice"; this binary shows where they *would* begin.
//! Both sweeps fan their (point × protocol) cells out across host cores.

use amnt_bench::{print_table, run_length, ExperimentResult, Grid, HostTimer};
use amnt_core::{AmntConfig, AnubisConfig, BmfConfig, ProtocolKind};
use amnt_sim::{run_single, MachineConfig, SimReport};
use amnt_workloads::WorkloadModel;

fn main() {
    let timer = HostTimer::start();
    let len = run_length();
    let mut result = ExperimentResult::new("crossover", "cycles normalized to volatile");
    // Start from fluidanimate (a good AMNT case) and degrade its hotness.
    let base = WorkloadModel::by_name("fluidanimate").expect("catalogued");
    let sweep = [0.9, 0.7, 0.5, 0.3, 0.1, 0.0];

    let mut grid: Grid<SimReport> = Grid::new();
    for &hot in &sweep {
        let mut model = base;
        model.hot_access_prob = hot;
        let row = format!("hot_{hot:.1}");
        let cfg = MachineConfig::parsec_single();
        {
            let cfg = cfg.clone();
            grid.add(row.clone(), "volatile", move || {
                run_single(&model, cfg, ProtocolKind::Volatile, len).expect("baseline")
            });
        }
        for (name, protocol) in [
            ("leaf", ProtocolKind::Leaf),
            ("strict", ProtocolKind::Strict),
            ("anubis", ProtocolKind::Anubis(AnubisConfig::default())),
            ("bmf", ProtocolKind::Bmf(BmfConfig::default())),
            ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
        ] {
            let cfg = cfg.clone();
            grid.add(row.clone(), name, move || {
                run_single(&model, cfg, protocol, len).expect(name)
            });
        }
    }
    let results = grid.run();

    let mut rows = Vec::new();
    let mut amnt_vs_leaf_cross = None;
    let mut amnt_vs_anubis_cross = None;
    for &hot in &sweep {
        let row = format!("hot_{hot:.1}");
        eprint!("crossover: hot={hot:.1}");
        let baseline = results.value(&row, "volatile");
        let mut vals = Vec::new();
        let mut normed = std::collections::HashMap::new();
        for name in ["leaf", "strict", "anubis", "bmf", "amnt"] {
            let n = results.value(&row, name).normalized_to(baseline);
            result.push(&row, name, n);
            normed.insert(name, n);
            vals.push(n);
            eprint!(" {name}={n:.3}");
        }
        eprintln!();
        if amnt_vs_leaf_cross.is_none() && normed["amnt"] > normed["leaf"] * 1.10 {
            amnt_vs_leaf_cross = Some(hot);
        }
        if amnt_vs_anubis_cross.is_none() && normed["amnt"] > normed["anubis"] {
            amnt_vs_anubis_cross = Some(hot);
        }
        rows.push((format!("hot prob {hot:.1}"), vals));
    }
    print_table(
        "Crossover: protocol overhead vs hot-set probability (fluidanimate variant)",
        &["leaf", "strict", "anubis", "bmf", "amnt"],
        &rows,
    );
    println!();
    match amnt_vs_leaf_cross {
        Some(h) => println!("AMNT drifts >10% from leaf once hot probability falls to ~{h:.1}."),
        None => println!("AMNT stays within 10% of leaf across the whole sweep."),
    }
    match amnt_vs_anubis_cross {
        Some(h) => println!("AMNT falls behind Anubis once hot probability falls to ~{h:.1}."),
        None => println!("AMNT beats Anubis at every hotness level — no crossover found."),
    }
    println!(
        "Temporal hotness barely matters: demand paging compacts even huge sparse\n\
         footprints into one subtree region on a fresh machine. The assumption AMNT\n\
         actually needs is *physical* concentration — which the allocator controls:"
    );

    // Second axis: physical scatter, where it actually bites — two
    // processes interleaving allocations on an aged machine (buddy free
    // lists hand out region-scattered frames: paper §5's motivation),
    // versus a fresh machine, versus the AMNT++ biased allocator.
    let pair = WorkloadModel::by_name("bodytrack").expect("catalogued");
    let scenarios: [(&str, bool, bool); 3] = [
        ("fresh machine", false, false),
        ("aged machine", true, false),
        ("aged + AMNT++", true, true),
    ];
    let mut grid2: Grid<SimReport> = Grid::new();
    for (label, aged, plus) in scenarios {
        let mut cfg = MachineConfig::parsec_multi();
        cfg.aging = if aged {
            Some(amnt_sim::AgingConfig::default())
        } else {
            None
        };
        if plus {
            cfg = amnt_sim::with_amnt_plus(cfg, AmntConfig::default());
        }
        for (name, protocol) in [
            ("volatile", ProtocolKind::Volatile),
            ("leaf", ProtocolKind::Leaf),
            ("strict", ProtocolKind::Strict),
            ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
        ] {
            let cfg = cfg.clone();
            grid2.add(label, name, move || {
                amnt_sim::run_pair(&pair, &base, cfg, protocol, len).expect(name)
            });
        }
    }
    let results2 = grid2.run();

    let mut rows2 = Vec::new();
    for (label, _, _) in scenarios {
        eprint!("crossover/placement: {label:<16}");
        let baseline = results2.value(label, "volatile");
        let mut vals = Vec::new();
        for name in ["leaf", "strict", "amnt"] {
            let n = results2.value(label, name).normalized_to(baseline);
            result.push(label, name, n);
            vals.push(n);
            eprint!(" {name}={n:.3}");
        }
        // The amnt run's own subtree hit rate (same deterministic run).
        let r = results2.value(label, "amnt");
        result.push(label, "subtree_hit", r.subtree_hit_rate);
        vals.push(r.subtree_hit_rate);
        eprintln!(" hit={:.2}", r.subtree_hit_rate);
        rows2.push((label.to_string(), vals));
    }
    print_table(
        "Crossover: physical placement (bodytrack+fluidanimate, 128 MiB regions)",
        &["leaf", "strict", "amnt", "amnt hit"],
        &rows2,
    );
    println!(
        "\nAMNT's crossover toward strict is driven by allocator scatter, not virtual\n\
         footprint — the paper's §5 insight, and exactly what AMNT++ repairs."
    );
    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
}
