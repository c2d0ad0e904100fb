//! Machine-readable and human-readable per-run artifacts under `results/`.
//!
//! Every `sg-bench` lane records its headline numbers as
//! `results/BENCH_<name>.json` (one JSON object per run of the lane, with
//! one entry per experiment cell and per-superstep deltas when the cell was
//! instrumented), so the perf trajectory across PRs is diffable by tooling.
//! Instrumented runs additionally export a Chrome `trace_event` file
//! (Perfetto / `chrome://tracing`) and a plain-text report via [`emit_obs`].

use crate::experiment::ExperimentResult;
use sg_core::sg_metrics::report::snapshot_json;
use sg_core::sg_metrics::telemetry::json_string;
use sg_core::sg_metrics::ObsReport;
use std::fmt::Write as _;
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
    cells: Vec<String>,
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
        let mut c = String::from("{\"label\":");
        json_string(&mut c, label);
        c.push_str(",\"technique\":");
        json_string(&mut c, technique);
        let _ = write!(c, ",\"makespan_ns\":{makespan_ns}");
        let _ = write!(c, ",\"iterations\":{iterations}");
        let _ = write!(c, ",\"converged\":{converged}");
        let _ = write!(c, ",\"wall_us\":{wall_us}");
        let _ = write!(c, ",\"totals\":{}", snapshot_json(metrics));
        if let Some(obs) = obs {
            let _ = write!(c, ",\"obs\":{}", obs.to_json());
        }
        if let Some(t) = telemetry {
            let _ = write!(c, ",\"telemetry\":{}", t.to_json());
        }
        c.push('}');
        self.cells.push(c);
    }

    /// Record a cell that is just labelled key/value numbers (for lanes
    /// whose rows aren't [`ExperimentResult`]s, e.g. dataset statistics).
    pub fn raw_cell(&mut self, label: &str, fields: &[(&str, String)]) {
        let mut c = String::from("{\"label\":");
        json_string(&mut c, label);
        for (k, v) in fields {
            c.push(',');
            json_string(&mut c, k);
            let _ = write!(c, ":{v}");
        }
        c.push('}');
        self.cells.push(c);
    }

    /// Write `results/BENCH_<name>.json` and return its path.
    pub fn write(self) -> io::Result<PathBuf> {
        let mut out = String::from("{");
        let _ = write!(out, "\"schema_version\":{BENCH_SCHEMA_VERSION}");
        out.push_str(",\"bench\":");
        json_string(&mut out, &self.name);
        out.push_str(",\"workload\":");
        json_string(&mut out, &self.workload);
        out.push_str(",\"cells\":[");
        out.push_str(&self.cells.join(","));
        out.push_str("]}");
        write_results_file(&format!("BENCH_{}.json", self.name), &out)
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
    fn bench_log_shape_is_balanced_json_with_all_counters() {
        let mut log = BenchLog::new("unit_test", "pagerank/toy");
        log.cell("row \"a\"", "partition-lock", &result());
        log.raw_cell(
            "stats",
            &[("vertices", "10".into()), ("edges", "20".into())],
        );
        // Assemble without touching the filesystem.
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"schema_version\":{BENCH_SCHEMA_VERSION},\"bench\":\"unit_test\",\
             \"workload\":\"pagerank/toy\",\"cells\":["
        );
        out.push_str(&log.cells.join(","));
        out.push_str("]}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        assert!(out.contains("\"schema_version\":2"));
        assert!(out.contains("\"workload\":\"pagerank/toy\""));
        assert!(out.contains("\"label\":\"row \\\"a\\\"\""));
        assert!(out.contains("\"technique\":\"partition-lock\""));
        assert!(out.contains("\"vertices\":10"));
        for &c in Counter::ALL {
            assert!(out.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
    }
}
