//! Trace sidecar writers: turn the `SimReport::trace` harvests of a grid
//! into the two on-disk artifacts the observability layer promises —
//! `results/<id>.trace.json` (latency histograms, counters, per-epoch
//! time-series) and `results/<id>.perfetto.json` (Chrome trace-event /
//! Perfetto timeline).
//!
//! Tracing is opt-in via `AMNT_TRACE=1` (see [`env_trace`]); when it is
//! off every [`SimReport::trace`] is `None` and [`save_trace_artifacts`]
//! writes nothing. Both sidecars are derived purely from simulated-cycle
//! state collected in declaration order, so like the main artifacts they
//! are byte-identical at any `AMNT_JOBS` value.

use crate::grid::GridResults;
use crate::{count_knob, parse_switch, read_knob, results_dir};
use amnt_sim::SimReport;
use amnt_trace::{chrome_document, metrics_document, TraceConfig, TraceReport};
use std::io::Write as _;
use std::path::PathBuf;

/// The trace configuration the environment's tuning knobs describe:
/// `AMNT_TRACE_EPOCH` sets the epoch-sample period in sim cycles and
/// `AMNT_TRACE_EVENTS` the timeline ring capacity. Both go through
/// [`count_knob`], and a zero epoch or event capacity is rejected.
pub fn env_tuned_config() -> TraceConfig {
    let defaults = TraceConfig::default();
    TraceConfig {
        epoch_cycles: count_knob("AMNT_TRACE_EPOCH", defaults.epoch_cycles, 1),
        max_events: count_knob("AMNT_TRACE_EVENTS", defaults.max_events, 1),
    }
}

/// The tracing `AMNT_TRACE` asks for: `1` traces at [`env_tuned_config`],
/// `0` does not, and unset keeps `default`. Any other value exits with
/// status 2. `trace_report` traces by default; [`crate::ProtocolFigure`]
/// does not, so a plain `AMNT_TRACE=1 cargo run ...` traces every cell of
/// Figures 4, 5 and 8.
pub fn env_trace(default: bool) -> Option<TraceConfig> {
    let on = read_knob("AMNT_TRACE", |v| parse_switch("AMNT_TRACE", v, default));
    on.then(env_tuned_config)
}

/// Writes the trace sidecars for an executed [`SimReport`] grid:
/// `results/<id>.trace.json` and `results/<id>.perfetto.json`. Cells that
/// ran untraced are skipped; when *no* cell carries a trace (the normal
/// `AMNT_TRACE` unset case) nothing is written and the returned list is
/// empty, so the main `results/<id>.json` artifact is the run's only
/// output — byte-identical to a build without this module.
pub fn save_trace_artifacts(
    id: &str,
    results: &GridResults<SimReport>,
) -> std::io::Result<Vec<PathBuf>> {
    let traced: Vec<(&str, &str, &TraceReport)> = results
        .cells()
        .iter()
        .filter_map(|c| {
            c.value
                .trace
                .as_ref()
                .map(|t| (c.row.as_str(), c.col.as_str(), t))
        })
        .collect();
    if traced.is_empty() {
        return Ok(Vec::new());
    }

    let metric_cells: Vec<(String, String, &TraceReport)> = traced
        .iter()
        .map(|(row, col, t)| (row.to_string(), col.to_string(), *t))
        .collect();
    let chrome_cells: Vec<(String, &TraceReport)> = traced
        .iter()
        .map(|(row, col, t)| (format!("{row}/{col}"), *t))
        .collect();

    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    for (suffix, doc) in [
        ("trace.json", metrics_document(id, &metric_cells)),
        ("perfetto.json", chrome_document(&chrome_cells)),
    ] {
        let path = dir.join(format!("{id}.{suffix}"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(doc.as_bytes())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    // env_trace() reads process-global env vars, so tests that set them
    // would race under the parallel test harness; the env-driven paths are
    // exercised end-to-end by scripts/check.sh's trace smoke gate instead.

    fn untraced_report() -> SimReport {
        SimReport {
            protocol: "volatile".to_string(),
            cycles: 1,
            per_core_cycles: vec![1],
            accesses: 0,
            llc_misses: 0,
            snapshot: Default::default(),
            metadata_hit_rate: 0.0,
            subtree_hit_rate: 0.0,
            subtree_transitions: 0,
            os_instructions: 0,
            app_instructions: 0,
            restructures: 0,
            physical_profile: None,
            core_cache_stats: Vec::new(),
            l3_stats: None,
            trace: None,
        }
    }

    #[test]
    fn untraced_grid_writes_nothing() {
        let mut grid = crate::Grid::new();
        grid.add("row", "col", untraced_report);
        let results = grid.run_with(1);
        assert!(results.cells()[0].value.trace.is_none());
        let written = save_trace_artifacts("never_written_probe", &results).unwrap();
        assert!(written.is_empty());
        assert!(!results_dir()
            .join("never_written_probe.trace.json")
            .exists());
    }
}
