//! Implementation of the `sg-check` CLI: schedule exploration and
//! counterexample replay over `sg_check`'s model.
//!
//! ```text
//! sg-check explore --technique <t> [--strategy <s>] [--seed <n>] ...
//! sg-check replay <counterexample.json> [--trace <file>]
//! ```
//!
//! Exit codes follow `sg-trace`: 0 clean, 1 usage, 2 malformed input,
//! 3 violation found (exploration) or reproduced (replay).

use crate::report::{write_results_file, BENCH_SCHEMA_VERSION};
use crate::sgtrace::{CliError, EXIT_MALFORMED};
use sg_core::sg_check::{explore, Counterexample, ExploreConfig, COUNTEREXAMPLE_SCHEMA_VERSION};
use sg_core::sg_metrics::TraceBuffer;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

/// Exit code when exploration finds (or replay reproduces) a violation.
pub const EXIT_VIOLATION: i32 = 3;

/// Outcome of one CLI command: what to print, and the process exit code
/// (0 or [`EXIT_VIOLATION`]; errors travel as `CliError`).
#[derive(Debug)]
pub struct CmdOutput {
    /// Human-readable report for stdout.
    pub text: String,
    /// Process exit code.
    pub code: i32,
}

/// Run an exploration, write a counterexample file when a violation is
/// found, and optionally export a Chrome trace of the decisive episode.
pub fn run_explore(
    cfg: &ExploreConfig,
    out: Option<&str>,
    trace: Option<&str>,
) -> Result<CmdOutput, CliError> {
    let report = explore(cfg);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "sg-check explore: technique={} strategy={} seed={}",
        cfg.technique, cfg.strategy, cfg.seed
    );
    let _ = writeln!(
        text,
        "workload: graph={} workers={} ppw={} supersteps={} fault={}",
        cfg.graph, cfg.workers, cfg.ppw, cfg.supersteps, cfg.fault
    );
    let _ = writeln!(
        text,
        "explored: {} episodes, {} events",
        report.episodes, report.total_events
    );
    match &report.violation {
        None => {
            let _ = writeln!(text, "verdict: clean (no violation found within budget)");
            if let Some(summary) = &report.clean_summary {
                let _ = writeln!(text, "{summary}");
            }
            if let Some(path) = trace {
                // Trace the canonical first-choice schedule as the
                // representative clean episode.
                write_trace(cfg, &[], path)?;
                let _ = writeln!(text, "trace: {path}");
            }
            Ok(CmdOutput { text, code: 0 })
        }
        Some(found) => {
            let ce = Counterexample::from_report(cfg, found);
            let _ = writeln!(
                text,
                "verdict: VIOLATION {} (episode {}, {} scheduling decisions)",
                found.violation.code(),
                found.episode,
                found.decisions.len()
            );
            let _ = writeln!(text, "  {}", found.violation);
            let path = match out {
                Some(p) => {
                    std::fs::write(p, ce.to_json().to_string()).map_err(|e| CliError {
                        code: EXIT_MALFORMED,
                        message: format!("{p}: {e}"),
                    })?;
                    p.to_string()
                }
                None => {
                    // `partition-lock/noskip` must not name a directory.
                    let technique = cfg.technique.label().replace('/', "-");
                    let filename = format!("CHECK_{technique}_{}_{}.json", cfg.strategy, cfg.seed);
                    let p =
                        write_results_file(&filename, &ce.to_json().to_string()).map_err(|e| {
                            CliError {
                                code: EXIT_MALFORMED,
                                message: format!("writing counterexample: {e}"),
                            }
                        })?;
                    p.display().to_string()
                }
            };
            let _ = writeln!(text, "counterexample: {path}");
            let _ = writeln!(text, "replay with: sg-check replay {path}");
            if let Some(tp) = trace {
                write_trace(&ce.config, &ce.decisions, tp)?;
                let _ = writeln!(text, "trace: {tp}");
            }
            Ok(CmdOutput {
                text,
                code: EXIT_VIOLATION,
            })
        }
    }
}

/// Replay a counterexample file. Reproducing its declared violation exits
/// [`EXIT_VIOLATION`]; a counterexample that *fails* to reproduce is
/// treated as malformed (exit 2) — a decision log that no longer reaches
/// its violation proves nothing.
pub fn run_replay(text: &str, trace: Option<&str>) -> Result<CmdOutput, CliError> {
    let ce =
        Counterexample::from_json(text).map_err(|e| malformed(format!("counterexample: {e}")))?;
    let trace_buf =
        trace.map(|_| Arc::new(TraceBuffer::new(ce.config.workers as usize, TRACE_CAPACITY)));
    let outcome = ce.replay(trace_buf.clone());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sg-check replay: technique={} graph={} workers={} ppw={} supersteps={} fault={}",
        ce.config.technique,
        ce.config.graph,
        ce.config.workers,
        ce.config.ppw,
        ce.config.supersteps,
        ce.config.fault
    );
    let _ = writeln!(
        out,
        "replayed {} events over {} scheduling decisions",
        outcome.events,
        outcome.decisions.len()
    );
    if let (Some(path), Some(buf)) = (trace, &trace_buf) {
        write_buffer(buf, &ce.config, path)?;
        let _ = writeln!(out, "trace: {path}");
    }
    match &outcome.violation {
        Some(v) if v.code() == ce.violation => {
            let _ = writeln!(out, "violation reproduced: {v}");
            let _ = writeln!(out, "{}", outcome.summary);
            Ok(CmdOutput {
                text: out,
                code: EXIT_VIOLATION,
            })
        }
        Some(v) => Err(CliError {
            code: EXIT_MALFORMED,
            message: format!(
                "counterexample declares {:?} but replay reached {:?} — stale or corrupt file",
                ce.violation,
                v.code()
            ),
        }),
        None => Err(CliError {
            code: EXIT_MALFORMED,
            message: format!(
                "counterexample declares {:?} but replay ran clean — stale or corrupt file",
                ce.violation
            ),
        }),
    }
}

const TRACE_CAPACITY: usize = 65_536;

/// Re-run a decision log with tracing enabled and export the Chrome trace.
fn write_trace(cfg: &ExploreConfig, decisions: &[u32], path: &str) -> Result<(), CliError> {
    let buf = Arc::new(TraceBuffer::new(cfg.workers as usize, TRACE_CAPACITY));
    let ce = Counterexample {
        schema_version: COUNTEREXAMPLE_SCHEMA_VERSION,
        config: cfg.clone(),
        decisions: decisions.to_vec(),
        violation: String::new(),
    };
    ce.replay(Some(Arc::clone(&buf)));
    write_buffer(&buf, cfg, path)
}

fn write_buffer(buf: &TraceBuffer, cfg: &ExploreConfig, path: &str) -> Result<(), CliError> {
    let makespan = buf
        .all_events()
        .iter()
        .map(|e| e.ts_ns + e.dur_ns)
        .max()
        .unwrap_or(0);
    let meta = [
        ("schema_version", BENCH_SCHEMA_VERSION.to_string()),
        ("technique", cfg.technique.to_string()),
        (
            "workload",
            format!("check/{}/w{}x{}", cfg.graph, cfg.workers, cfg.ppw),
        ),
        ("makespan_ns", makespan.to_string()),
    ];
    let file = File::create(path).map_err(|e| CliError {
        code: EXIT_MALFORMED,
        message: format!("{path}: {e}"),
    })?;
    buf.write_chrome_trace_with_meta(BufWriter::new(file), &meta)
        .map_err(|e| CliError {
            code: EXIT_MALFORMED,
            message: format!("{path}: {e}"),
        })
}

fn malformed(message: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_MALFORMED,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::sg_check::{FaultPlan, StrategyKind, TechniqueKind};

    fn seeded_bug_config() -> ExploreConfig {
        ExploreConfig {
            strategy: StrategyKind::Dfs,
            supersteps: 2,
            fault: FaultPlan::DropDelayedTokenPass { superstep: 0 },
            ..ExploreConfig::smoke(TechniqueKind::SingleToken)
        }
    }

    /// A well-formed counterexample document with three fields of choice.
    fn document(technique: &str, graph: &str, workers: &str) -> String {
        format!(
            "{{\"schema_version\":{COUNTEREXAMPLE_SCHEMA_VERSION},\"technique\":\"{technique}\",\"graph\":\"{graph}\",\
             \"workers\":{workers},\"ppw\":1,\"supersteps\":2,\"strategy\":\"dfs\",\"seed\":1,\
             \"max_events\":10,\"fault\":\"none\",\"violation\":\"token-lost\",\"decisions\":[]}}"
        )
    }

    #[test]
    fn malformed_counterexamples_are_rejected_not_crashed() {
        Counterexample::from_json(&document("single-token", "ring:8", "2")).expect("the control");
        for (bad, why) in [
            (String::new(), ""),
            ("not json".into(), ""),
            ("{}".into(), "schema_version"),
            (
                "{\"schema_version\":99}".into(),
                "unsupported schema_version",
            ),
            // Deep nesting: the parser's depth guard must catch this.
            (format!("{}{}", "[".repeat(5000), "]".repeat(5000)), ""),
            // Valid JSON, wrong shape.
            (
                format!(
                    "{{\"schema_version\":{COUNTEREXAMPLE_SCHEMA_VERSION},\"technique\":\"warp-drive\"}}"
                ),
                "unknown technique",
            ),
            (document("single-token", "ring:8", "0"), "must be positive"),
            // What `as u32` used to read as 2 workers.
            (document("single-token", "ring:8", "4294967298"), "exceeds"),
            // Degenerate graphs used to reach the generators' assertions.
            (document("single-token", "ring:0", "2"), "at least 3"),
            (document("single-token", "complete:0", "2"), "at least 1"),
            (document("single-token", "grid:0x3", "2"), "at least 1 row"),
        ] {
            let err = run_replay(&bad, None).expect_err(&bad);
            assert_eq!(err.code, EXIT_MALFORMED, "{bad}");
            assert!(err.message.contains(why), "{bad}: {}", err.message);
        }
    }

    /// A schema-1 decision log indexes another model's events, so the file
    /// is refused with the typed error before anything replays: no trace
    /// is written for it. The same file at the current version replays.
    #[test]
    fn schema_1_counterexample_is_refused_not_replayed() {
        let cfg = seeded_bug_config();
        let found = explore(&cfg).violation.expect("seeded bug found");
        let current = Counterexample::from_report(&cfg, &found)
            .to_json()
            .to_string();
        let v1 = current.replace(
            &format!("\"schema_version\":{COUNTEREXAMPLE_SCHEMA_VERSION},"),
            "\"schema_version\":1,",
        );
        assert_ne!(v1, current);
        let dir = std::env::temp_dir().join(format!("sgcheck_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let err = run_replay(&v1, Some(trace.to_str().unwrap())).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED);
        assert!(
            err.message.contains("unsupported schema_version 1"),
            "{}",
            err.message
        );
        assert!(!trace.exists(), "a refused file was replayed");
        assert_eq!(run_replay(&current, None).unwrap().code, EXIT_VIOLATION);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_reports_violation_with_exit_code_3() {
        let cfg = seeded_bug_config();
        let dir = std::env::temp_dir().join("sgcheck_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("ce.json");
        let out = run_explore(&cfg, Some(out_path.to_str().unwrap()), None).unwrap();
        assert_eq!(out.code, EXIT_VIOLATION);
        assert!(out.text.contains("token-lost"), "{}", out.text);
        // The written counterexample replays to exit 3.
        let text = std::fs::read_to_string(&out_path).unwrap();
        let replayed = run_replay(&text, None).unwrap();
        assert_eq!(replayed.code, EXIT_VIOLATION);
        assert!(
            replayed.text.contains("violation reproduced"),
            "{}",
            replayed.text
        );
    }

    #[test]
    fn clean_explore_exits_zero() {
        let mut cfg = ExploreConfig::smoke(TechniqueKind::PartitionLock);
        cfg.episodes = 4;
        let out = run_explore(&cfg, None, None).unwrap();
        assert_eq!(out.code, 0);
        assert!(out.text.contains("verdict: clean"), "{}", out.text);
    }

    #[test]
    fn stale_counterexample_is_flagged_as_malformed() {
        // A clean config with a declared violation cannot reproduce.
        let cfg = ExploreConfig::smoke(TechniqueKind::SingleToken);
        let ce = Counterexample {
            schema_version: COUNTEREXAMPLE_SCHEMA_VERSION,
            config: cfg,
            decisions: vec![0, 0, 0],
            violation: "token-lost".to_string(),
        };
        let err = run_replay(&ce.to_json().to_string(), None).unwrap_err();
        assert_eq!(err.code, EXIT_MALFORMED);
        assert!(err.message.contains("ran clean"), "{}", err.message);
    }
}
