//! The `sg-trace` CLI: offline critical-path analysis of exported traces.
//!
//! The `sg-bench` lanes export Chrome `trace_event` files whose
//! `serigraph_run` metadata record carries run identity (schema version,
//! technique, workload, exact makespan). This module reads those files back
//! into [`TraceEvent`]s and drives
//! [`critical_path::analyze`](sg_core::sg_metrics::critical_path::analyze)
//! over them:
//!
//! * `sg-trace analyze <trace>` — per-superstep critical-path report,
//!   top-k blocking edges, and the makespan attribution table (text or,
//!   with `--json`, machine-readable).
//! * `sg-trace diff <a> <b>` — side-by-side attribution of two runs of the
//!   *same* workload (refuses mismatched schema version or workload).
//! * `sg-trace check <trace> --against results/BENCH_<name>.json
//!   [--tolerance pct]` — cross-checks the trace's makespan and technique
//!   against the recorded bench cell. When the positional file is itself
//!   a `BENCH_<name>.json`, check runs bench-vs-bench instead: relational
//!   cells (`speedup/...` ratios) from a fresh run are gated against the
//!   committed baseline — the CI drift gate for `results/BENCH_sim.json`.
//!
//! Exit codes: 0 ok, 1 usage error, 2 malformed or incompatible input,
//! 3 tolerance failure.

use sg_core::sg_metrics::critical_path::{self, Category, CriticalPathReport};
use sg_core::sg_metrics::simtime::fmt_sim_ns;
use sg_core::sg_metrics::trace::{TraceEvent, TraceEventKind};
use sg_core::sg_metrics::Json;
use std::fmt;
use std::fs;
use std::path::Path;

/// Exit code for usage errors (unknown flags, missing operands).
pub const EXIT_USAGE: i32 = 1;
/// Exit code for malformed or incompatible inputs.
pub const EXIT_MALFORMED: i32 = 2;
/// Exit code for a failed `check` tolerance.
pub const EXIT_TOLERANCE: i32 = 3;

/// A CLI failure: the message for stderr plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    pub code: i32,
    pub message: String,
}

impl CliError {
    fn malformed(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_MALFORMED,
            message: message.into(),
        }
    }

    fn tolerance(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_TOLERANCE,
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Run identity read from the trace's `serigraph_run` metadata record.
/// Every field is optional: traces written before the record existed still
/// analyze (identity checks then degrade to warnings where safe and to
/// incompatibility errors where not).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    pub schema_version: Option<u64>,
    pub technique: Option<String>,
    pub workload: Option<String>,
    pub makespan_ns: Option<u64>,
}

/// One trace file, parsed back into analyzable form.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    pub meta: RunMeta,
    pub events: Vec<TraceEvent>,
    /// Metadata makespan when recorded, else the latest event end.
    pub makespan_ns: u64,
}

/// Parse a Chrome `trace_event` JSON document produced by
/// [`TraceBuffer::write_chrome_trace_with_meta`](sg_core::sg_metrics::trace::TraceBuffer::write_chrome_trace_with_meta).
pub fn parse_trace(text: &str) -> Result<ParsedTrace, CliError> {
    let doc = Json::parse(text).map_err(|e| CliError::malformed(format!("trace: {e}")))?;
    let records = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError::malformed("trace: missing \"traceEvents\" array"))?;

    let mut meta = RunMeta::default();
    let mut events = Vec::new();
    for rec in records {
        let name = rec
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::malformed("trace: record without \"name\""))?;
        let ph = rec.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph == "M" {
            if name == "serigraph_run" {
                let args = rec
                    .get("args")
                    .ok_or_else(|| CliError::malformed("trace: serigraph_run without args"))?;
                meta.schema_version = args.get("schema_version").and_then(Json::as_u64);
                meta.technique = args
                    .get("technique")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
                meta.workload = args
                    .get("workload")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
                meta.makespan_ns = args.get("makespan_ns").and_then(Json::as_u64);
            }
            continue;
        }
        let kind = TraceEventKind::from_name(name)
            .ok_or_else(|| CliError::malformed(format!("trace: unknown event kind {name:?}")))?;
        let ts_us = rec
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| CliError::malformed("trace: event without numeric \"ts\""))?;
        let dur_us = rec.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        let worker = rec
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| CliError::malformed("trace: event without \"tid\""))?
            as u32;
        let args = rec.get("args");
        let get_arg = |key: &str| args.and_then(|a| a.get(key)).and_then(Json::as_u64);
        events.push(TraceEvent {
            worker,
            superstep: get_arg("superstep").unwrap_or(0),
            kind,
            // Timestamps were printed in µs with 3 decimals, i.e. exact ns.
            ts_ns: (ts_us * 1_000.0).round() as u64,
            dur_ns: (dur_us * 1_000.0).round() as u64,
            arg: get_arg("arg").unwrap_or(0),
            peer: get_arg("peer").map(|p| p as u32),
        });
    }

    let makespan_ns = meta
        .makespan_ns
        .unwrap_or_else(|| events.iter().map(TraceEvent::end_ns).max().unwrap_or(0));
    Ok(ParsedTrace {
        meta,
        events,
        makespan_ns,
    })
}

/// Read and parse a trace file from disk.
pub fn load_trace(path: &Path) -> Result<ParsedTrace, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::malformed(format!("{}: {e}", path.display())))?;
    parse_trace(&text).map_err(|mut e| {
        e.message = format!("{}: {}", path.display(), e.message);
        e
    })
}

fn identity_line(meta: &RunMeta) -> String {
    format!(
        "technique={} workload={} schema={}",
        meta.technique.as_deref().unwrap_or("?"),
        meta.workload.as_deref().unwrap_or("?"),
        meta.schema_version
            .map_or_else(|| "?".to_string(), |v| v.to_string()),
    )
}

/// Default `--top-k` for `analyze`, scaled to the trace's worker count: 5
/// covers a handful of engine workers, but a 512-worker simulator trace
/// aggregates thousands of blocking edges and a fixed 5 hides everything
/// but the tip. Grows one slot per 16 workers, capped at 32 rows.
pub fn default_top_k(trace: &ParsedTrace) -> usize {
    let workers = trace
        .events
        .iter()
        .map(|e| (e.worker + 1).max(e.peer.map_or(0, |p| p + 1)))
        .max()
        .unwrap_or(0) as usize;
    (workers / 16).clamp(5, 32)
}

/// `sg-trace analyze`: the full critical-path report for one trace.
pub fn analyze_text(trace: &ParsedTrace, top_k: usize, json: bool) -> String {
    let report = critical_path::analyze(&trace.events, trace.makespan_ns);
    if json {
        let mut doc = Json::obj([]);
        for (key, value) in [
            ("technique", &trace.meta.technique),
            ("workload", &trace.meta.workload),
        ] {
            if let Some(v) = value {
                doc.push(key, v.as_str());
            }
        }
        doc.push("critical_path", report.to_json());
        doc.to_string()
    } else {
        format!(
            "{}\nevents: {}\n\n{}",
            identity_line(&trace.meta),
            trace.events.len(),
            report.render_text(top_k)
        )
    }
}

/// Refuse to compare two runs whose identity fields conflict.
fn require_comparable(a: &RunMeta, b: &RunMeta) -> Result<(), CliError> {
    match (a.schema_version, b.schema_version) {
        (Some(x), Some(y)) if x != y => {
            return Err(CliError::malformed(format!(
                "incompatible: schema_version {x} vs {y}"
            )));
        }
        _ => {}
    }
    match (&a.workload, &b.workload) {
        (Some(x), Some(y)) if x != y => {
            return Err(CliError::malformed(format!(
                "incompatible: workload {x:?} vs {y:?} (same-workload runs only)"
            )));
        }
        _ => {}
    }
    Ok(())
}

/// The product of `sg-trace merge`: one Chrome trace document spanning
/// every input process, plus a human summary of the rank mapping.
#[derive(Debug, Clone)]
pub struct MergedTrace {
    /// The merged Chrome `trace_event` JSON (with a `serigraph_run`
    /// metadata record, so the output analyzes/diffs like any other).
    pub document: String,
    /// One line per input: its worker-rank offset in the merged space.
    pub summary: String,
}

/// `sg-trace merge`: combine per-process trace files (e.g. the per-worker
/// exports of an `sg-cluster` run) into one document. Worker ranks are
/// namespaced per process — process *i*'s workers are shifted past all of
/// process *i-1*'s — so the merged timeline shows every process's workers
/// side by side and still feeds `analyze`/`diff`/`check`.
pub fn merge_traces(inputs: &[ParsedTrace]) -> Result<MergedTrace, CliError> {
    if inputs.len() < 2 {
        return Err(CliError::malformed("merge needs at least two traces"));
    }
    for t in &inputs[1..] {
        require_comparable(&inputs[0].meta, &t.meta)?;
    }
    let sources: Vec<Vec<TraceEvent>> = inputs.iter().map(|t| t.events.clone()).collect();
    let (merged, offsets) = sg_core::sg_metrics::trace::merge_process_events(&sources);
    let makespan = inputs.iter().map(|t| t.makespan_ns).max().unwrap_or(0);
    let first = &inputs[0].meta;
    let mut meta: Vec<(&str, String)> = Vec::new();
    if let Some(v) = first.schema_version {
        meta.push(("schema_version", v.to_string()));
    }
    if let Some(t) = &first.technique {
        meta.push(("technique", t.clone()));
    }
    if let Some(w) = &first.workload {
        meta.push(("workload", w.clone()));
    }
    meta.push(("makespan_ns", makespan.to_string()));
    let buf = sg_core::sg_metrics::trace::TraceBuffer::from_events(&merged);
    let mut out = Vec::new();
    buf.write_chrome_trace_with_meta(&mut out, &meta)
        .map_err(|e| CliError::malformed(format!("serializing merged trace: {e}")))?;
    let document =
        String::from_utf8(out).map_err(|e| CliError::malformed(format!("merged trace: {e}")))?;
    let mut summary = String::new();
    for (i, (t, off)) in inputs.iter().zip(&offsets).enumerate() {
        summary.push_str(&format!(
            "process {i}: {} events, workers start at rank {off}\n",
            t.events.len()
        ));
    }
    summary.push_str(&format!(
        "merged: {} events, makespan {}\n",
        merged.len(),
        fmt_sim_ns(makespan)
    ));
    Ok(MergedTrace { document, summary })
}

fn signed_fmt(ns_a: u64, ns_b: u64) -> String {
    if ns_b >= ns_a {
        format!("+{}", fmt_sim_ns(ns_b - ns_a))
    } else {
        format!("-{}", fmt_sim_ns(ns_a - ns_b))
    }
}

/// `sg-trace diff`: side-by-side attribution of two comparable runs.
pub fn diff_text(a: &ParsedTrace, b: &ParsedTrace) -> Result<String, CliError> {
    require_comparable(&a.meta, &b.meta)?;
    let ra = critical_path::analyze(&a.events, a.makespan_ns);
    let rb = critical_path::analyze(&b.events, b.makespan_ns);
    let la = a.meta.technique.as_deref().unwrap_or("A");
    let lb = b.meta.technique.as_deref().unwrap_or("B");

    let mut out = String::new();
    out.push_str(&format!("A: {}\n", identity_line(&a.meta)));
    out.push_str(&format!("B: {}\n\n", identity_line(&b.meta)));
    out.push_str(&format!(
        "{:>12} {:>22} {:>22} {:>12}\n",
        "category",
        format!("A ({la})"),
        format!("B ({lb})"),
        "delta"
    ));
    let row = |name: &str, va: u64, pa: f64, vb: u64, pb: f64| {
        format!(
            "{:>12} {:>22} {:>22} {:>12}\n",
            name,
            format!("{} ({pa:.1}%)", fmt_sim_ns(va)),
            format!("{} ({pb:.1}%)", fmt_sim_ns(vb)),
            signed_fmt(va, vb),
        )
    };
    out.push_str(&row(
        "makespan",
        ra.makespan_ns,
        100.0,
        rb.makespan_ns,
        100.0,
    ));
    for c in Category::ALL {
        out.push_str(&row(
            c.name(),
            ra.attribution.get(c),
            ra.attribution.percent(c),
            rb.attribution.get(c),
            rb.attribution.percent(c),
        ));
    }
    out.push_str(&format!(
        "\ncritical path: A {} ({} supersteps), B {} ({} supersteps)\n",
        fmt_sim_ns(ra.critical_path_ns()),
        ra.per_superstep.len(),
        fmt_sim_ns(rb.critical_path_ns()),
        rb.per_superstep.len(),
    ));
    let shift = Category::ALL
        .into_iter()
        .max_by_key(|&c| {
            let (x, y) = (ra.attribution.percent(c), rb.attribution.percent(c));
            ((x - y).abs() * 1000.0) as u64
        })
        .unwrap_or(Category::Idle);
    out.push_str(&format!(
        "largest shift: {} ({:.1}% -> {:.1}% of makespan)\n",
        shift.name(),
        ra.attribution.percent(shift),
        rb.attribution.percent(shift),
    ));
    Ok(out)
}

/// The bench cell `check` compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    pub label: String,
    pub technique: Option<String>,
    pub makespan_ns: u64,
}

/// Parse `results/BENCH_<name>.json` far enough for `check`: identity
/// fields plus every cell that records a makespan.
pub fn parse_bench(text: &str) -> Result<(RunMeta, Vec<BenchCell>), CliError> {
    let doc = Json::parse(text).map_err(|e| CliError::malformed(format!("bench: {e}")))?;
    let meta = RunMeta {
        schema_version: doc.get("schema_version").and_then(Json::as_u64),
        technique: None,
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .map(str::to_owned),
        makespan_ns: None,
    };
    if meta.schema_version.is_none() {
        return Err(CliError::malformed(
            "bench: missing schema_version (pre-v2 file; regenerate the bench)",
        ));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError::malformed("bench: missing \"cells\" array"))?;
    let mut out = Vec::new();
    for cell in cells {
        let (Some(label), Some(makespan_ns)) = (
            cell.get("label").and_then(Json::as_str),
            cell.get("makespan_ns").and_then(Json::as_u64),
        ) else {
            continue; // raw_cell rows without a makespan aren't checkable
        };
        out.push(BenchCell {
            label: label.to_owned(),
            technique: cell
                .get("technique")
                .and_then(Json::as_str)
                .map(str::to_owned),
            makespan_ns,
        });
    }
    Ok((meta, out))
}

/// `sg-trace check`: validate a trace against its recorded bench cell.
///
/// The cell is picked by `--cell <label>` when given, otherwise the *last*
/// cell whose technique matches the trace's (traced cells are recorded
/// after the plain sweep cells, so last-match finds the instrumented run).
/// Verifies: identity compatibility, attribution partitions the makespan,
/// and `|trace makespan − cell makespan| ≤ tolerance%`.
pub fn check_text(
    trace: &ParsedTrace,
    bench_meta: &RunMeta,
    cells: &[BenchCell],
    cell_label: Option<&str>,
    tolerance_pct: f64,
) -> Result<String, CliError> {
    require_comparable(&trace.meta, bench_meta)?;
    let cell = match cell_label {
        Some(label) => cells
            .iter()
            .find(|c| c.label == label)
            .ok_or_else(|| CliError::malformed(format!("bench: no cell labelled {label:?}")))?,
        None => {
            let technique = trace.meta.technique.as_deref().ok_or_else(|| {
                CliError::malformed(
                    "trace has no technique metadata; select the cell with --cell <label>",
                )
            })?;
            cells
                .iter()
                .rev()
                .find(|c| c.technique.as_deref() == Some(technique))
                .ok_or_else(|| {
                    CliError::malformed(format!(
                        "bench: no cell with technique {technique:?} (have: {})",
                        cells
                            .iter()
                            .filter_map(|c| c.technique.as_deref())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?
        }
    };

    let report = critical_path::analyze(&trace.events, trace.makespan_ns);
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {}\ncell:  {:?} (technique={}, makespan {})\n",
        identity_line(&trace.meta),
        cell.label,
        cell.technique.as_deref().unwrap_or("?"),
        fmt_sim_ns(cell.makespan_ns),
    ));

    let total = report.attribution.total();
    if total != report.makespan_ns {
        return Err(CliError::malformed(format!(
            "internal: attribution total {total} != makespan {} — corrupt trace?",
            report.makespan_ns
        )));
    }

    let (a, b) = (trace.makespan_ns, cell.makespan_ns);
    let drift_pct = if b == 0 {
        if a == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (a.abs_diff(b)) as f64 / b as f64
    };
    out.push_str(&format!(
        "makespan: trace {} vs cell {} — drift {:.2}% (tolerance {:.2}%)\n",
        fmt_sim_ns(a),
        fmt_sim_ns(b),
        drift_pct,
        tolerance_pct,
    ));
    if drift_pct > tolerance_pct {
        return Err(CliError::tolerance(format!(
            "{out}FAIL: makespan drift {drift_pct:.2}% exceeds tolerance {tolerance_pct:.2}%"
        )));
    }
    out.push_str(&format!(
        "attribution partitions makespan exactly; dominant category: {} ({:.1}%)\nOK\n",
        report.attribution.dominant().name(),
        report.attribution.percent(report.attribution.dominant()),
    ));
    Ok(out)
}

/// Analyze a parsed trace (shared by `analyze` and the tests).
pub fn report_for(trace: &ParsedTrace) -> CriticalPathReport {
    critical_path::analyze(&trace.events, trace.makespan_ns)
}

/// A `BENCH_<name>.json` parsed with every numeric cell field retained —
/// the input to bench-vs-bench drift checks, where the comparable data
/// lives in `raw_cell` fields (`speedup`, `allocs`, …) rather than the
/// makespans [`parse_bench`] keeps.
#[derive(Debug, Clone)]
pub struct RawBench {
    pub name: Option<String>,
    pub schema_version: Option<u64>,
    pub workload: Option<String>,
    /// `(label, [(field, value)])` for every cell, in file order.
    pub cells: Vec<(String, Vec<(String, f64)>)>,
}

/// Parse a bench artifact keeping all numeric cell fields.
pub fn parse_bench_raw(text: &str) -> Result<RawBench, CliError> {
    let doc = Json::parse(text).map_err(|e| CliError::malformed(format!("bench: {e}")))?;
    let schema_version = doc.get("schema_version").and_then(Json::as_u64);
    if schema_version.is_none() {
        return Err(CliError::malformed(
            "bench: missing schema_version (pre-v2 file; regenerate the bench)",
        ));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError::malformed("bench: missing \"cells\" array"))?;
    let mut out = Vec::new();
    for cell in cells {
        let Some(label) = cell.get("label").and_then(Json::as_str) else {
            continue;
        };
        let fields = match cell {
            Json::Obj(members) => members
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
            _ => Vec::new(),
        };
        out.push((label.to_owned(), fields));
    }
    Ok(RawBench {
        name: doc.get("bench").and_then(Json::as_str).map(str::to_owned),
        schema_version,
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .map(str::to_owned),
        cells: out,
    })
}

/// Is this document a bench artifact (vs a Chrome trace)? Used by the
/// `check` subcommand to pick trace-vs-bench or bench-vs-bench mode.
pub fn looks_like_bench(text: &str) -> bool {
    Json::parse(text)
        .ok()
        .is_some_and(|doc| doc.get("bench").is_some() && doc.get("cells").is_some())
}

/// `sg-trace check` in bench-vs-bench mode: gate a fresh bench artifact
/// against a committed baseline of the same bench.
///
/// Only *relational* cells are compared — absolute wall-clock numbers
/// shift with the host, but ratios measured within one run do not:
///
/// every `speedup/...` cell present in both files is gated one-sided: the
/// fresh `speedup` may exceed the baseline freely but must not fall more
/// than `tolerance_pct` percent below it.
///
/// Workloads may differ (CI smoke runs tiny sizes against the committed
/// full-size baseline); bench names and schema versions may not.
pub fn check_bench_text(
    fresh: &RawBench,
    base: &RawBench,
    tolerance_pct: f64,
) -> Result<String, CliError> {
    if fresh.schema_version != base.schema_version {
        return Err(CliError::malformed(format!(
            "incompatible: schema_version {:?} vs {:?}",
            fresh.schema_version, base.schema_version
        )));
    }
    match (&fresh.name, &base.name) {
        (Some(a), Some(b)) if a != b => {
            return Err(CliError::malformed(format!(
                "incompatible: bench {a:?} vs {b:?} (same-bench artifacts only)"
            )));
        }
        _ => {}
    }
    let field_of = |bench: &RawBench, label: &str, field: &str| -> Option<f64> {
        bench
            .cells
            .iter()
            .find(|(l, _)| l == label)
            .and_then(|(_, fields)| fields.iter().find(|(k, _)| k == field))
            .map(|&(_, v)| v)
    };
    let mut out = format!(
        "bench: {} — fresh workload {:?} vs baseline {:?}\n",
        fresh.name.as_deref().unwrap_or("?"),
        fresh.workload.as_deref().unwrap_or("?"),
        base.workload.as_deref().unwrap_or("?"),
    );
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for (label, _) in &base.cells {
        let (Some(base_speedup), Some(fresh_speedup)) = (
            field_of(base, label, "speedup"),
            field_of(fresh, label, "speedup"),
        ) else {
            continue;
        };
        compared += 1;
        let floor = base_speedup * (1.0 - tolerance_pct / 100.0);
        let verdict = if fresh_speedup < floor { "FAIL" } else { "ok" };
        out.push_str(&format!(
            "{label}: baseline {base_speedup:.3}x, fresh {fresh_speedup:.3}x \
             (floor {floor:.3}x) {verdict}\n"
        ));
        if fresh_speedup < floor {
            failures.push(label.clone());
        }
    }
    if compared == 0 {
        return Err(CliError::malformed(
            "no comparable cells (speedup/...) shared by both artifacts",
        ));
    }
    if failures.is_empty() {
        out.push_str(&format!("OK ({compared} cells within tolerance)\n"));
        Ok(out)
    } else {
        Err(CliError::tolerance(format!(
            "{out}FAIL: {} of {compared} cells regressed beyond tolerance {:.2}%: {}",
            failures.len(),
            tolerance_pct,
            failures.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::sg_metrics::trace::TraceBuffer;

    /// Build a small two-worker trace via the real writer, then read it
    /// back: the parse must recover every event field exactly.
    fn sample_buffer() -> TraceBuffer {
        let buf = TraceBuffer::new(2, 64);
        buf.record(0, 1, TraceEventKind::VertexExecute, 100, 400, 7);
        buf.record_peer(0, 1, TraceEventKind::BatchFlush, 500, 300, 12, 1);
        buf.record(1, 1, TraceEventKind::BarrierWait, 800, 200, 0);
        buf.record(0, 1, TraceEventKind::UserMarker, 100, 0, 1);
        buf
    }

    fn sample_trace_json(meta: &[(&str, String)]) -> String {
        let mut out = Vec::new();
        sample_buffer()
            .write_chrome_trace_with_meta(&mut out, meta)
            .unwrap();
        String::from_utf8(out).unwrap()
    }

    fn meta_v2(technique: &str, workload: &str, makespan: u64) -> Vec<(&'static str, String)> {
        vec![
            ("schema_version", "2".to_string()),
            ("technique", technique.to_string()),
            ("workload", workload.to_string()),
            ("makespan_ns", makespan.to_string()),
        ]
    }

    #[test]
    fn roundtrips_through_the_real_writer() {
        let text = sample_trace_json(&meta_v2("partition-lock", "pagerank/toy", 1000));
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.meta.schema_version, Some(2));
        assert_eq!(parsed.meta.technique.as_deref(), Some("partition-lock"));
        assert_eq!(parsed.meta.workload.as_deref(), Some("pagerank/toy"));
        assert_eq!(parsed.makespan_ns, 1000);
        let original = sample_buffer().all_events();
        let mut recovered = parsed.events.clone();
        recovered.sort_by_key(|e| (e.worker, e.ts_ns, e.kind as u8));
        let mut expect = original.clone();
        expect.sort_by_key(|e| (e.worker, e.ts_ns, e.kind as u8));
        assert_eq!(recovered, expect);
    }

    /// Metadata is caller-supplied text: newlines, quotes and control
    /// characters must come back exactly, not break the document.
    #[test]
    fn metadata_with_control_characters_round_trips() {
        let workload = "page\"rank\"\n\ttoy\u{1}\\";
        let text = sample_trace_json(&meta_v2("partition-lock", workload, 1000));
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.meta.workload.as_deref(), Some(workload));
        let json = analyze_text(&parsed, 5, true);
        let doc = Json::parse(&json).expect("analyze --json stays valid JSON");
        assert_eq!(doc.get("workload").and_then(|w| w.as_str()), Some(workload));
    }

    #[test]
    fn top_k_default_scales_with_worker_count() {
        let mk = |workers: u32| ParsedTrace {
            meta: RunMeta::default(),
            events: (0..workers)
                .map(|w| TraceEvent {
                    worker: w,
                    superstep: 0,
                    kind: TraceEventKind::VertexExecute,
                    ts_ns: 0,
                    dur_ns: 10,
                    arg: 0,
                    peer: None,
                })
                .collect(),
            makespan_ns: 10,
        };
        assert_eq!(default_top_k(&mk(4)), 5);
        assert_eq!(default_top_k(&mk(64)), 5);
        assert_eq!(default_top_k(&mk(128)), 8);
        assert_eq!(default_top_k(&mk(512)), 32);
        assert_eq!(default_top_k(&mk(2048)), 32);
    }

    #[test]
    fn missing_meta_falls_back_to_latest_event_end() {
        let text = sample_trace_json(&[]);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.meta, RunMeta::default());
        assert_eq!(parsed.makespan_ns, 1000); // BarrierWait ends at 800+200
    }

    #[test]
    fn malformed_and_unknown_inputs_are_exit_2() {
        for bad in [
            "not json at all",
            "{\"noTraceEvents\":[]}",
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"NoSuchKind\",\"ts\":1,\"tid\":0}]}",
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert_eq!(err.code, EXIT_MALFORMED, "{bad}");
        }
    }

    #[test]
    fn analyze_reports_identity_and_attribution() {
        let text = sample_trace_json(&meta_v2("single-token", "pagerank/toy", 1000));
        let parsed = parse_trace(&text).unwrap();
        let out = analyze_text(&parsed, 5, false);
        assert!(out.contains("technique=single-token"));
        assert!(out.contains("makespan attribution:"));
        let json = analyze_text(&parsed, 5, true);
        assert!(json.contains("\"technique\":\"single-token\""));
        assert!(json.contains("\"critical_path\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn merged_traces_namespace_ranks_and_still_analyze_and_diff() {
        let meta = meta_v2("partition-lock", "coloring/toy", 1000);
        let a = parse_trace(&sample_trace_json(&meta)).unwrap();
        let b = parse_trace(&sample_trace_json(&meta)).unwrap();
        let merged = merge_traces(&[a.clone(), b]).unwrap();
        assert!(merged.summary.contains("workers start at rank 2"));
        let parsed = parse_trace(&merged.document).unwrap();
        assert_eq!(parsed.events.len(), 2 * a.events.len());
        // Process 1's workers are shifted past process 0's two workers.
        assert!(parsed.events.iter().any(|e| e.worker >= 2));
        assert_eq!(parsed.meta.technique.as_deref(), Some("partition-lock"));
        let out = analyze_text(&parsed, 5, false);
        assert!(out.contains("makespan attribution:"));
        let diff = diff_text(&parsed, &parsed).unwrap();
        assert!(diff.contains("makespan"));
    }

    #[test]
    fn merge_refuses_singletons_and_mismatched_runs() {
        let a = parse_trace(&sample_trace_json(&meta_v2("a", "coloring/toy", 1000))).unwrap();
        assert_eq!(
            merge_traces(std::slice::from_ref(&a)).unwrap_err().code,
            EXIT_MALFORMED
        );
        let b = parse_trace(&sample_trace_json(&meta_v2("a", "sssp/other", 1000))).unwrap();
        assert_eq!(merge_traces(&[a, b]).unwrap_err().code, EXIT_MALFORMED);
    }

    #[test]
    fn diff_refuses_mismatched_workload_and_schema() {
        let a = parse_trace(&sample_trace_json(&meta_v2("a", "pagerank/toy", 1000))).unwrap();
        let b = parse_trace(&sample_trace_json(&meta_v2("b", "sssp/other", 1000))).unwrap();
        assert_eq!(diff_text(&a, &b).unwrap_err().code, EXIT_MALFORMED);

        let mut c = a.clone();
        c.meta.schema_version = Some(1);
        assert_eq!(diff_text(&a, &c).unwrap_err().code, EXIT_MALFORMED);

        let d = parse_trace(&sample_trace_json(&meta_v2("b", "pagerank/toy", 900))).unwrap();
        let out = diff_text(&a, &d).unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("largest shift:"));
    }

    #[test]
    fn check_matches_cell_by_technique_and_enforces_tolerance() {
        let bench = r#"{"schema_version":2,"bench":"x","workload":"pagerank/toy","cells":[
            {"label":"sweep","technique":"partition-lock","makespan_ns":500,"iterations":1,"converged":true},
            {"label":"traced","technique":"partition-lock","makespan_ns":1000,"iterations":1,"converged":true},
            {"label":"stats","vertices":10}]}"#;
        let (meta, cells) = parse_bench(bench).unwrap();
        assert_eq!(cells.len(), 2); // the raw stats cell is skipped
        let trace = parse_trace(&sample_trace_json(&meta_v2(
            "partition-lock",
            "pagerank/toy",
            1000,
        )))
        .unwrap();
        // Last matching cell ("traced", 1000 ns) — exact match passes.
        let out = check_text(&trace, &meta, &cells, None, 1.0).unwrap();
        assert!(out.contains("OK"));
        // Forcing the sweep cell (500 ns) fails a 1% tolerance with exit 3.
        let err = check_text(&trace, &meta, &cells, Some("sweep"), 1.0).unwrap_err();
        assert_eq!(err.code, EXIT_TOLERANCE);
        // Unknown label / wrong workload are incompatibility, not tolerance.
        let err = check_text(&trace, &meta, &cells, Some("nope"), 1.0).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED);
        let other = parse_trace(&sample_trace_json(&meta_v2(
            "partition-lock",
            "wcc/big",
            1000,
        )))
        .unwrap();
        let err = check_text(&other, &meta, &cells, None, 1.0).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED);
    }

    #[test]
    fn pre_v2_bench_files_are_rejected() {
        let err = parse_bench(r#"{"bench":"x","cells":[]}"#).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED);
    }
}
