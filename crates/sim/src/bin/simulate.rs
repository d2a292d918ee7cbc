//! `simulate` — run any catalogued benchmark under any persistence protocol
//! from the command line.
//!
//! ```text
//! simulate --bench lbm --protocol amnt --machine single --accesses 100000
//! simulate --bench xz --protocol strict --machine spec
//! simulate --bench dedup --record /tmp/dedup.trc        # capture a trace
//! simulate --replay /tmp/dedup.trc --protocol leaf      # replay it
//! simulate --list                                       # catalogue
//! ```

use amnt_core::{AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind};
use amnt_sim::{with_amnt_plus, Machine, MachineConfig, SimReport};
use amnt_workloads::{
    parsec, read_trace, spec2017, write_trace, Event, EventStream, TraceGen, WorkloadModel,
};
use std::io::Write;
use std::process::exit;

struct Args {
    bench: String,
    protocol: String,
    machine: String,
    accesses: u64,
    warmup: u64,
    seed: u64,
    amnt_level: u32,
    amnt_plus: bool,
    record: Option<String>,
    replay: Option<String>,
    stats_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--bench NAME] [--protocol volatile|strict|leaf|plp|osiris|anubis|bmf|amnt]\n\
         \x20               [--machine single|multi|spec] [--accesses N] [--warmup N] [--seed N]\n\
         \x20               [--amnt-level L] [--amnt-plus] [--record FILE] [--replay FILE]\n\
         \x20               [--stats-out FILE] [--list]"
    );
    exit(2)
}

/// Builds the machine and runs it past `warmup` accesses. A configuration
/// the machine rejects (such as an AMNT subtree level the tree cannot hold)
/// or a failed run is printed, and the process exits with status 2.
fn run_machine<S: Into<EventStream>>(
    cfg: MachineConfig,
    protocol: ProtocolKind,
    workloads: Vec<(u32, S)>,
    warmup: u64,
) -> SimReport {
    Machine::new(cfg, protocol, workloads)
        .and_then(|mut machine| machine.run(warmup))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        })
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: "lbm".into(),
        protocol: "amnt".into(),
        machine: "single".into(),
        accesses: 100_000,
        warmup: 10_000,
        seed: 1,
        amnt_level: 3,
        amnt_plus: false,
        record: None,
        replay: None,
        stats_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--bench" => args.bench = val("--bench"),
            "--protocol" => args.protocol = val("--protocol"),
            "--machine" => args.machine = val("--machine"),
            "--accesses" => args.accesses = val("--accesses").parse().unwrap_or_else(|_| usage()),
            "--warmup" => args.warmup = val("--warmup").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--amnt-level" => {
                args.amnt_level = val("--amnt-level").parse().unwrap_or_else(|_| usage())
            }
            "--amnt-plus" => args.amnt_plus = true,
            "--record" => args.record = Some(val("--record")),
            "--replay" => args.replay = Some(val("--replay")),
            "--stats-out" => args.stats_out = Some(val("--stats-out")),
            "--list" => {
                println!("PARSEC 3.0:");
                for m in parsec() {
                    println!(
                        "  {:<16} {:>5} MiB footprint, {:>2}% writes",
                        m.name,
                        m.footprint >> 20,
                        (m.write_fraction * 100.0) as u32
                    );
                }
                println!("SPEC CPU 2017:");
                for m in spec2017() {
                    println!(
                        "  {:<16} {:>5} MiB footprint, {:>2}% writes",
                        m.name,
                        m.footprint >> 20,
                        (m.write_fraction * 100.0) as u32
                    );
                }
                exit(0)
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn protocol_of(args: &Args) -> ProtocolKind {
    match args.protocol.as_str() {
        "volatile" => ProtocolKind::Volatile,
        "strict" => ProtocolKind::Strict,
        "leaf" => ProtocolKind::Leaf,
        "plp" => ProtocolKind::Plp,
        "osiris" => ProtocolKind::Osiris(OsirisConfig::default()),
        "anubis" => ProtocolKind::Anubis(AnubisConfig::default()),
        "bmf" => ProtocolKind::Bmf(BmfConfig::default()),
        "amnt" => ProtocolKind::Amnt(AmntConfig::at_level(args.amnt_level)),
        other => {
            eprintln!("unknown protocol {other}");
            usage()
        }
    }
}

fn print_report(r: &SimReport) {
    println!("protocol          {}", r.protocol);
    println!("cycles            {}", r.cycles);
    println!("accesses          {}", r.accesses);
    println!(
        "cycles/access     {:.1}",
        r.cycles as f64 / r.accesses.max(1) as f64
    );
    println!(
        "LLC miss rate     {:.2}%",
        100.0 * r.llc_misses as f64 / r.accesses.max(1) as f64
    );
    println!("metadata hit rate {:.3}", r.metadata_hit_rate);
    println!("persist writes    {}", r.snapshot.controller.persist_writes);
    println!("posted writes     {}", r.snapshot.controller.posted_writes);
    if r.protocol == "amnt" {
        println!("subtree hit rate  {:.3}", r.subtree_hit_rate);
        println!("subtree moves     {}", r.subtree_transitions);
    }
    if r.snapshot.controller.shadow_writes > 0 {
        println!("shadow writes     {}", r.snapshot.controller.shadow_writes);
    }
    println!("OS instructions   {}", r.os_instructions);
}

fn main() {
    let args = parse_args();
    let protocol = protocol_of(&args);

    let mut cfg = match args.machine.as_str() {
        "single" => MachineConfig::parsec_single(),
        "multi" => MachineConfig::parsec_multi(),
        "spec" => MachineConfig::spec_multithread(),
        other => {
            eprintln!("unknown machine {other}");
            usage()
        }
    };
    if args.amnt_plus {
        cfg = with_amnt_plus(cfg, AmntConfig::at_level(args.amnt_level));
    }

    // Record mode: dump a trace and exit.
    if let Some(path) = &args.record {
        let model = WorkloadModel::by_name(&args.bench).unwrap_or_else(|| {
            eprintln!("unknown benchmark {} (try --list)", args.bench);
            exit(2)
        });
        let events: Vec<Event> =
            TraceGen::new(&model, args.seed, args.warmup + args.accesses).collect();
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            write_trace(&mut out, &events)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("cannot write trace {path}: {e}");
            exit(2)
        }
        println!("recorded {} events to {path}", events.len());
        return;
    }

    // Event source: replayed trace or live generator.
    let report = if let Some(path) = &args.replay {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(2)
        });
        let events = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(2)
        });
        println!("replaying {} events from {path}", events.len());
        if cfg.cores != 1 {
            eprintln!("replay currently drives a single-core machine");
            cfg = MachineConfig::parsec_single();
        }
        run_machine(cfg, protocol, vec![(1, events)], args.warmup)
    } else {
        // "a+b" runs a multiprogram pair (one benchmark per core).
        let names: Vec<&str> = args.bench.split('+').collect();
        let models: Vec<WorkloadModel> = names
            .iter()
            .map(|n| {
                WorkloadModel::by_name(n).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {n} (try --list)");
                    exit(2)
                })
            })
            .collect();
        let cores = cfg.cores as u64;
        let total = args.warmup / cores.max(1) + args.accesses;
        let workloads: Vec<(u32, TraceGen)> = (0..cores)
            .map(|i| {
                let model = &models[i as usize % models.len()];
                let pid = if args.machine == "spec" {
                    1
                } else {
                    i as u32 + 1
                };
                (pid, TraceGen::new(model, args.seed + i * 101, total))
            })
            .collect();
        run_machine(cfg, protocol, workloads, args.warmup)
    };
    print_report(&report);
    if let Some(path) = &args.stats_out {
        if let Err(e) = std::fs::write(path, report.to_stats_txt()) {
            eprintln!("cannot write stats {path}: {e}");
            exit(2)
        }
        println!("wrote gem5-style stats to {path}");
    }
}
