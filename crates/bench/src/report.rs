//! Machine-readable and human-readable per-run artifacts under `results/`.
//!
//! Every `sg-bench` lane records its headline numbers as
//! `results/BENCH_<name>.json` (one JSON object per run of the lane, with
//! one entry per experiment cell and per-superstep deltas when the cell was
//! instrumented), so the perf trajectory across PRs is diffable by tooling.
//! Instrumented runs additionally export a Chrome `trace_event` file
//! (Perfetto / `chrome://tracing`) and a plain-text report via [`emit_obs`].

use crate::experiment::ExperimentResult;
use sg_core::sg_metrics::{Json, ObsReport};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where bench artifacts live: `$SG_RESULTS_DIR` when set, else `results/`
/// relative to the invocation directory. The override exists so CI smoke
/// runs (and any scripted experiment sweep) can emit artifacts into a
/// scratch directory without touching the tracked `results/` files.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write `contents` to `results/<filename>`, creating the directory.
pub fn write_results_file(filename: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(filename);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Version of the `results/BENCH_<name>.json` schema. Bumped whenever the
/// shape changes incompatibly; `sg-trace diff`/`check` refuse to compare
/// files whose versions differ.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Collects one bench lane's cells and writes `results/BENCH_<name>.json`.
pub struct BenchLog {
    name: String,
    workload: String,
    cells: Vec<Json>,
}

impl BenchLog {
    /// A log for the lane artifact `name` (e.g. `"fig1_spectrum"`) running
    /// `workload` (e.g. `"pagerank/or_sim"`) — the identity fields tooling
    /// uses to refuse cross-workload comparisons.
    pub fn new(name: &str, workload: &str) -> Self {
        Self {
            name: name.to_owned(),
            workload: workload.to_owned(),
            cells: Vec::new(),
        }
    }

    /// Record one experiment cell under `label`, run with `technique` (a
    /// [`TechniqueKind::label`](sg_core::sg_engine::TechniqueKind::label)
    /// string). Counter totals always; per-superstep deltas, per-worker
    /// breakdowns, and critical-path attribution when instrumented.
    pub fn cell(&mut self, label: &str, technique: &str, r: &ExperimentResult) {
        self.push_cell(
            label,
            technique,
            r.makespan_ns,
            r.iterations,
            r.converged,
            r.wall.as_micros() as u64,
            &r.metrics,
            r.obs.as_ref(),
            None,
        );
    }

    /// Record a raw engine [`Outcome`](sg_core::sg_engine::Outcome) — for
    /// lanes that drive the engine directly instead of going through
    /// the [`crate::experiment`] helpers. When the run carried a live
    /// telemetry registry, its final snapshot is embedded in the cell so
    /// the live scrape endpoint and the post-hoc artifact cross-check.
    pub fn outcome_cell<V>(
        &mut self,
        label: &str,
        technique: &str,
        out: &sg_core::sg_engine::Outcome<V>,
    ) {
        self.push_cell(
            label,
            technique,
            out.makespan_ns,
            out.supersteps,
            out.converged,
            out.wall_time.as_micros() as u64,
            &out.metrics,
            out.obs.as_ref(),
            out.telemetry.as_ref(),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn push_cell(
        &mut self,
        label: &str,
        technique: &str,
        makespan_ns: u64,
        iterations: u64,
        converged: bool,
        wall_us: u64,
        metrics: &sg_core::sg_metrics::MetricsSnapshot,
        obs: Option<&ObsReport>,
        telemetry: Option<&sg_core::sg_metrics::TelemetrySnapshot>,
    ) {
        let mut c = Json::obj([
            ("label", label.into()),
            ("technique", technique.into()),
            ("makespan_ns", makespan_ns.into()),
            ("iterations", iterations.into()),
            ("converged", converged.into()),
            ("wall_us", wall_us.into()),
            ("totals", metrics.to_json()),
        ]);
        if let Some(obs) = obs {
            c.push("obs", obs.to_json());
        }
        if let Some(t) = telemetry {
            c.push("telemetry", t.to_json());
        }
        self.cells.push(c);
    }

    /// Record a cell that is just labelled key/value fields (for lanes
    /// whose rows aren't [`ExperimentResult`]s, e.g. dataset statistics).
    pub fn raw_cell<const N: usize>(&mut self, label: &str, fields: [(&str, Json); N]) {
        let mut c = Json::obj([("label", label.into())]);
        for (k, v) in fields {
            c.push(k, v);
        }
        self.cells.push(c);
    }

    /// Write `results/BENCH_<name>.json` and return its path.
    pub fn write(self) -> io::Result<PathBuf> {
        let doc = Json::obj([
            ("schema_version", BENCH_SCHEMA_VERSION.into()),
            ("bench", self.name.as_str().into()),
            ("workload", self.workload.as_str().into()),
            ("cells", Json::Arr(self.cells)),
        ]);
        write_results_file(&format!("BENCH_{}.json", self.name), &doc.to_string())
    }
}

/// Export an instrumented run's artifacts: the Chrome `trace_event` JSON
/// (to `trace_path`, or `results/TRACE_<name>.json` when `None`) and the
/// human-readable per-worker/per-superstep report
/// (`results/REPORT_<name>.txt`). The trace carries a `serigraph_run`
/// metadata record (schema version, technique, workload, exact makespan) so
/// `sg-trace` can analyze it standalone and refuse incompatible
/// comparisons. Prints where everything went.
pub fn emit_obs(
    name: &str,
    trace_path: Option<&Path>,
    obs: &ObsReport,
    technique: &str,
    workload: &str,
) -> io::Result<()> {
    if let Some(buf) = &obs.trace {
        let path = match trace_path {
            Some(p) => p.to_owned(),
            None => results_dir().join(format!("TRACE_{name}.json")),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let meta = [
            ("schema_version", BENCH_SCHEMA_VERSION.to_string()),
            ("technique", technique.to_owned()),
            ("workload", workload.to_owned()),
            ("makespan_ns", obs.makespan_ns.to_string()),
        ];
        let file = fs::File::create(&path)?;
        buf.write_chrome_trace_with_meta(io::BufWriter::new(file), &meta)?;
        println!(
            "wrote Chrome trace to {} (load in Perfetto or chrome://tracing)",
            path.display()
        );
    }
    let report = write_results_file(&format!("REPORT_{name}.txt"), &obs.render_text())?;
    println!("wrote run report to {}", report.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::sg_metrics::{Counter, MetricsSnapshot};
    use std::time::Duration;

    fn result() -> ExperimentResult {
        ExperimentResult {
            makespan_ns: 123,
            iterations: 4,
            converged: true,
            metrics: MetricsSnapshot::default(),
            wall: Duration::from_micros(55),
            obs: None,
        }
    }

    #[test]
    fn bench_log_cells_read_back_with_all_counters() {
        let mut log = BenchLog::new("unit_test", "pagerank/toy");
        log.cell("row \"a\"", "partition-lock", &result());
        log.raw_cell(
            "stats",
            [("vertices", 10u64.into()), ("edges", 20u64.into())],
        );
        // Read back what the artifact would hold, without the filesystem.
        let cells = Json::parse(&Json::Arr(log.cells).to_string()).unwrap();
        let [cell, stats] = cells.as_arr().unwrap() else {
            panic!("two cells expected: {cells}");
        };
        let field = |c: &Json, k: &str| c.get(k).cloned().unwrap_or(Json::Null);
        assert_eq!(field(cell, "label"), Json::from("row \"a\""));
        assert_eq!(field(cell, "technique"), Json::from("partition-lock"));
        assert_eq!(field(cell, "makespan_ns"), Json::U64(123));
        assert_eq!(field(cell, "converged"), Json::Bool(true));
        assert_eq!(field(cell, "wall_us"), Json::U64(55));
        let totals = field(cell, "totals");
        for &c in Counter::ALL {
            assert_eq!(field(&totals, c.name()), Json::U64(0), "{}", c.name());
        }
        assert_eq!(field(stats, "label"), Json::from("stats"));
        assert_eq!(field(stats, "vertices"), Json::U64(10));
        assert_eq!(field(stats, "edges"), Json::U64(20));
    }
}
