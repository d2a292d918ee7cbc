//! The experiment-grid API: declare the (row × column) cells of a
//! table/figure as independent jobs, run them through the parallel
//! executor, and read results back by label.
//!
//! Every bench binary used to hand-roll the same nested loops — workloads
//! outer, protocols inner, one serial `run_single`/`run_pair` per cell.
//! A [`Grid`] replaces those loops: cells are declared up front, executed
//! by [`crate::exec::run_jobs_with`] across host cores, and collected in
//! declaration order, so tables, JSON artifacts, and progress output are
//! identical at any `AMNT_JOBS` value. [`ProtocolFigure`] is the one grid
//! Figures 4, 5 and 8 share: each of those bins supplies only its rows,
//! its runner and its paper anchors.

use crate::exec;
use crate::trace_out::{env_trace, save_trace_artifacts};
use crate::{figure_protocols, gmean, print_table, run_length, ExperimentResult, HostTimer};
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_sim::{with_amnt_plus, MachineConfig, RunLength, SimReport};

/// One executed cell: its labels and the job's result.
#[derive(Debug, Clone)]
pub struct GridCell<R> {
    /// Row label (benchmark / scenario).
    pub row: String,
    /// Column label (protocol / configuration).
    pub col: String,
    /// The job's result.
    pub value: R,
}

/// A declared set of independent experiment jobs, labelled row × column.
pub struct Grid<R> {
    #[allow(clippy::type_complexity)]
    jobs: Vec<(String, String, Box<dyn FnOnce() -> R + Send>)>,
}

impl<R: Send> Default for Grid<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Send> Grid<R> {
    /// Creates an empty grid.
    pub fn new() -> Self {
        Grid { jobs: Vec::new() }
    }

    /// Declares one cell job. Cells are executed in parallel but collected
    /// in declaration order.
    pub fn add(
        &mut self,
        row: impl Into<String>,
        col: impl Into<String>,
        job: impl FnOnce() -> R + Send + 'static,
    ) {
        self.jobs.push((row.into(), col.into(), Box::new(job)));
    }

    /// Runs every cell on `workers` threads (see [`exec::run_jobs_with`]).
    pub fn run_with(self, workers: usize) -> GridResults<R> {
        let (labels, jobs): (Vec<(String, String)>, Vec<_>) = self
            .jobs
            .into_iter()
            .map(|(row, col, job)| ((row, col), job))
            .unzip();
        let values = exec::run_jobs_with(workers, jobs);
        let cells = labels
            .into_iter()
            .zip(values)
            .map(|((row, col), value)| GridCell { row, col, value })
            .collect();
        GridResults { cells, workers }
    }

    /// Runs every cell at the environment-selected worker count
    /// (`AMNT_JOBS`, default: available parallelism).
    pub fn run(self) -> GridResults<R> {
        self.run_with(exec::worker_count())
    }
}

/// Executed grid cells, in declaration order.
pub struct GridResults<R> {
    cells: Vec<GridCell<R>>,
    /// Worker count the grid ran with.
    pub workers: usize,
}

impl<R> GridResults<R> {
    /// All cells, in declaration order.
    pub fn cells(&self) -> &[GridCell<R>] {
        &self.cells
    }

    /// The first cell matching (`row`, `col`).
    pub fn get(&self, row: &str, col: &str) -> Option<&R> {
        self.cells
            .iter()
            .find(|c| c.row == row && c.col == col)
            .map(|c| &c.value)
    }

    /// Like [`Self::get`], panicking with the labels when absent (the
    /// experiment binaries treat a missing cell as a harness bug).
    pub fn value(&self, row: &str, col: &str) -> &R {
        self.get(row, col)
            .unwrap_or_else(|| panic!("grid has no cell ({row}, {col})"))
    }

    /// Unique row labels, in declaration order.
    pub fn rows(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.row) {
                out.push(c.row.clone());
            }
        }
        out
    }
}

impl GridResults<SimReport> {
    /// Renders the standard normalized-cycles figure from a grid whose
    /// cells are raw [`SimReport`]s: every `cols` entry of each row is
    /// normalised to that row's `baseline_col` cell, the cells are pushed
    /// onto `result` (row-major, `cols` order — the artifact schema every
    /// figure has always used), and printable table rows come back, with a
    /// per-column geometric-mean row appended when `with_gmean`.
    pub fn render_normalized(
        &self,
        baseline_col: &str,
        cols: &[&str],
        result: &mut ExperimentResult,
        with_gmean: bool,
    ) -> Vec<(String, Vec<f64>)> {
        let mut rows = Vec::new();
        let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
        for row in self.rows() {
            let baseline = self.value(&row, baseline_col);
            let mut vals = Vec::with_capacity(cols.len());
            for (ci, col) in cols.iter().enumerate() {
                let norm = self.value(&row, col).normalized_to(baseline);
                result.push(&row, col, norm);
                per_col[ci].push(norm);
                vals.push(norm);
            }
            rows.push((row, vals));
        }
        if with_gmean {
            rows.push((
                "gmean".to_string(),
                per_col.iter().map(|v| gmean(v)).collect(),
            ));
        }
        rows
    }
}

/// A normalized-cycles figure over the paper's protocol set: the grid
/// Figures 4, 5 and 8 share.
#[derive(Debug, Clone)]
pub struct ProtocolFigure {
    /// Artifact id: the figure writes `results/<id>.json`, its host
    /// sidecar and, when traced, its trace sidecars.
    pub id: &'static str,
    /// Title of the printed table.
    pub title: &'static str,
    /// The machine every cell runs on, traced as the environment asks.
    pub machine: MachineConfig,
    /// Whether each row adds `amnt++`: AMNT on the modified OS allocator.
    pub amnt_plus: bool,
    /// Whether the table ends in a per-column geometric-mean row.
    pub gmean: bool,
}

/// The table a [`ProtocolFigure`] printed.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Column labels (protocols), in legend order.
    pub cols: Vec<&'static str>,
    /// Row label and one normalized value per column; the geometric-mean
    /// row, if any, is last and labelled `gmean`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// The value at (`row`, `col`), panicking with the labels when absent.
    pub fn cell(&self, row: &str, col: &str) -> f64 {
        let ci = self.cols.iter().position(|c| *c == col);
        let vals = self.rows.iter().find(|(r, _)| r == row).map(|(_, v)| v);
        vals.zip(ci)
            .and_then(|(vals, ci)| vals.get(ci).copied())
            .unwrap_or_else(|| panic!("figure has no cell ({row}, {col})"))
    }
}

impl ProtocolFigure {
    /// Runs the figure over `rows`, each a label and the workload `run`
    /// simulates at [`run_length`]. Per row, the cells are the volatile
    /// baseline, every [`figure_protocols`] entry and, with
    /// [`Self::amnt_plus`], `amnt++`, declared in that order: the order of
    /// the artifact's cells and of its trace sidecars. Prints a line per
    /// row to stderr and the table to stdout, saves the artifact with its
    /// sidecars, and returns the table.
    ///
    /// # Panics
    ///
    /// Panics when a cell's run fails or an artifact cannot be written.
    pub fn run<W, E>(
        self,
        rows: impl IntoIterator<Item = (String, W)>,
        run: fn(&W, MachineConfig, ProtocolKind, RunLength) -> Result<SimReport, E>,
    ) -> FigureTable
    where
        W: Clone + Send + 'static,
        E: std::fmt::Debug + 'static,
    {
        let timer = HostTimer::start();
        let len = run_length();
        // `AMNT_TRACE=1` traces every cell.
        let machine = MachineConfig {
            trace: env_trace(false),
            ..self.machine
        };
        let mut cells = vec![("volatile", ProtocolKind::Volatile, machine.clone())];
        for (name, protocol) in figure_protocols() {
            cells.push((name, protocol, machine.clone()));
        }
        if self.amnt_plus {
            let amnt = AmntConfig::default();
            cells.push((
                "amnt++",
                ProtocolKind::Amnt(amnt),
                with_amnt_plus(machine, amnt).expect("the default AMNT level is a stored level"),
            ));
        }
        let mut grid: Grid<SimReport> = Grid::new();
        for (row, workload) in rows {
            for (col, protocol, cfg) in &cells {
                let (workload, protocol, cfg, col) =
                    (workload.clone(), *protocol, cfg.clone(), *col);
                grid.add(row.clone(), col, move || {
                    run(&workload, cfg, protocol, len).unwrap_or_else(|e| panic!("{col}: {e:?}"))
                });
            }
        }
        let results = grid.run();

        let cols: Vec<&'static str> = cells.iter().skip(1).map(|(name, _, _)| *name).collect();
        let mut result = ExperimentResult::new(self.id, "cycles normalized to volatile");
        let rows = results.render_normalized("volatile", &cols, &mut result, self.gmean);
        let width = rows.iter().map(|(row, _)| row.len()).max().unwrap_or(0);
        for (row, vals) in &rows {
            eprint!("{}: {row:<width$}", self.id);
            for (col, v) in cols.iter().zip(vals) {
                eprint!(" {col}={v:.3}");
            }
            eprintln!();
        }
        print_table(self.title, &cols, &rows);

        result.set_host(&timer, results.workers);
        let path = result.save().expect("save results");
        for p in save_trace_artifacts(self.id, &results).expect("save trace sidecars") {
            println!("saved {}", p.display());
        }
        println!(
            "saved {} ({:.1}s host wall-clock at {} jobs)",
            path.display(),
            result.host_seconds,
            results.workers
        );
        FigureTable { cols, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_collect_in_declaration_order() {
        let mut grid = Grid::new();
        for r in ["a", "b"] {
            for c in ["x", "y", "z"] {
                let (r2, c2) = (r.to_string(), c.to_string());
                grid.add(r, c, move || format!("{r2}{c2}"));
            }
        }
        let res = grid.run_with(3);
        let order: Vec<String> = res
            .cells()
            .iter()
            .map(|c| format!("{}{}", c.row, c.col))
            .collect();
        assert_eq!(order, vec!["ax", "ay", "az", "bx", "by", "bz"]);
        assert_eq!(res.value("b", "y"), "by");
        assert_eq!(res.rows(), vec!["a", "b"]);
        assert!(res.get("b", "w").is_none());
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn missing_cell_panics_with_labels() {
        let mut grid = Grid::new();
        grid.add("r", "c", || 1u8);
        grid.run_with(1).value("r", "other");
    }
}
