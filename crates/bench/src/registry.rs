//! The artifact registry: every experiment bin, declared once, with how
//! each consumer runs it.
//!
//! - `all` runs the [`Entry::paper`] entries in table order.
//! - `scripts/check.sh` runs every entry whose [`Entry::check`] is not
//!   [`Check::No`], so perfgate reads fresh artifacts, and byte-compares
//!   the [`Check::CompareJobs`] entries between `AMNT_JOBS=1` and `2`.
//! - `scripts/artifact_cmp.sh` runs every entry that is not
//!   [`Entry::host_clock`] in a base tree and the working tree, and
//!   byte-compares what they write.
//!
//! The scripts read the table through `all --list` ([`listing`]). Adding
//! an artifact is one line in [`REGISTRY`].

/// How `scripts/check.sh` runs an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Not run by `check.sh`.
    No,
    /// Run once, leaving fresh artifacts for perfgate.
    Run,
    /// Run at `AMNT_JOBS=1` and at `2`: every artifact the runs write,
    /// host-clock sidecars aside, must be byte-identical.
    CompareJobs,
}

/// One experiment bin.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The bin, `crates/bench/src/bin/<bin>.rs`.
    pub bin: &'static str,
    /// Whether `all` runs it as a paper experiment.
    pub paper: bool,
    /// How `check.sh` runs it.
    pub check: Check,
    /// Whether its artifact is timed on the host clock, and so never
    /// byte-compared.
    pub host_clock: bool,
    /// Knob defaults the scripts run it with; a variable the caller's
    /// environment sets wins.
    pub knobs: &'static [(&'static str, &'static str)],
}

const fn paper(bin: &'static str, check: Check) -> Entry {
    Entry {
        bin,
        paper: true,
        check,
        host_clock: false,
        knobs: &[],
    }
}

const fn gate(bin: &'static str, knobs: &'static [(&'static str, &'static str)]) -> Entry {
    Entry {
        bin,
        paper: false,
        check: Check::CompareJobs,
        host_clock: false,
        knobs,
    }
}

/// Every experiment bin, paper experiments first in paper order.
pub const REGISTRY: &[Entry] = &[
    paper("table1_config", Check::No),
    paper("fig3_hot_regions", Check::No),
    paper("fig4_parsec_single", Check::Run),
    paper("fig5_parsec_multi", Check::Run),
    paper("fig6_subtree_sweep", Check::No),
    paper("fig8_spec_multithread", Check::Run),
    paper("table2_os_cost", Check::Run),
    paper("table3_hw_overhead", Check::Run),
    paper("table4_recovery", Check::CompareJobs),
    paper("ablations", Check::No),
    paper("wear_analysis", Check::CompareJobs),
    paper("crossover", Check::No),
    gate("fault_sweep", &[("AMNT_FAULT_OPS", "24")]),
    gate(
        "trace_report",
        &[("AMNT_ACCESSES", "30000"), ("AMNT_WARMUP", "2000")],
    ),
    Entry {
        check: Check::Run,
        host_clock: true,
        ..gate("crypto_bench", &[])
    },
];

/// The registry as `all --list` prints it: a `#` header, then one line
/// per entry, `<bin> <paper|-> <run|jobs|-> <sim|host> [VAR=value ...]`,
/// each knob at the value the scripts run it with: `env(VAR)` when the
/// caller set it, else the registry default.
pub fn listing(env: impl Fn(&str) -> Option<String>) -> String {
    let mut out = String::from("# bin                  all    check  clock  knobs\n");
    for e in REGISTRY {
        let check = match e.check {
            Check::No => "-",
            Check::Run => "run",
            Check::CompareJobs => "jobs",
        };
        let mut line = format!(
            "{:<22} {:<6} {:<6} {:<6}",
            e.bin,
            if e.paper { "paper" } else { "-" },
            check,
            if e.host_clock { "host" } else { "sim" }
        );
        for (var, default) in e.knobs {
            line.push_str(&format!(
                " {var}={}",
                env(var).unwrap_or_else(|| default.to_string())
            ));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_registry_bin_has_a_source_and_every_experiment_bin_is_registered() {
        let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for e in REGISTRY {
            assert!(
                bins.join(format!("{}.rs", e.bin)).is_file(),
                "no src/bin/{}.rs",
                e.bin
            );
            assert_eq!(
                REGISTRY.iter().filter(|o| o.bin == e.bin).count(),
                1,
                "{}",
                e.bin
            );
        }
        // The bins that write no artifact of their own: `all` itself, the
        // gates and the tuning dump.
        let tools = ["all", "perfgate", "trace_diff", "diag"];
        for file in std::fs::read_dir(&bins).unwrap() {
            let name = file.unwrap().file_name().into_string().unwrap();
            let bin = name.strip_suffix(".rs").unwrap();
            assert!(
                tools.contains(&bin) || REGISTRY.iter().any(|e| e.bin == bin),
                "src/bin/{name} is neither registered nor a tool"
            );
        }
    }

    #[test]
    fn listing_prints_knob_defaults_unless_the_environment_sets_them() {
        let unset = listing(|_| None);
        assert_eq!(unset.lines().count(), REGISTRY.len() + 1);
        assert!(unset.starts_with("# bin"));
        let line = |text: &str, bin: &str| {
            text.lines()
                .find(|l| l.split_whitespace().next() == Some(bin))
                .unwrap()
                .to_string()
        };
        let words = |l: String| l.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            words(line(&unset, "fig4_parsec_single")),
            ["fig4_parsec_single", "paper", "run", "sim"]
        );
        assert_eq!(
            words(line(&unset, "crypto_bench")),
            ["crypto_bench", "-", "run", "host"]
        );
        assert_eq!(
            words(line(&unset, "fault_sweep")),
            ["fault_sweep", "-", "jobs", "sim", "AMNT_FAULT_OPS=24"]
        );
        let set = listing(|var| (var == "AMNT_FAULT_OPS").then(|| "100".to_string()));
        assert!(line(&set, "fault_sweep").ends_with(" AMNT_FAULT_OPS=100"));
        assert!(line(&set, "trace_report").ends_with(" AMNT_ACCESSES=30000 AMNT_WARMUP=2000"));
    }
}
