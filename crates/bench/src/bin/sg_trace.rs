//! `sg-trace` — offline critical-path analysis of exported traces.
//!
//! ```text
//! sg-trace analyze <trace.json> [--top-k N] [--json]
//! sg-trace diff <a.json> <b.json>
//! sg-trace merge <a.json> <b.json> [more...] --out <merged.json>
//! sg-trace check <trace.json> --against results/BENCH_<name>.json
//!                [--cell <label>] [--tolerance <pct>]
//! ```
//!
//! Traces come from any bench lane run with `--trace` (e.g.
//! `sg-bench fig1`), or from [`sg_bench::emit_obs`]. Exit codes: 0 ok,
//! 1 usage, 2 malformed/incompatible input, 3 tolerance failure.

use sg_bench::cli::{self, Flag};
use sg_bench::sgtrace::{
    self, analyze_text, check_text, diff_text, load_trace, CliError, EXIT_USAGE,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "sg-trace — critical-path analysis of serigraph trace files

USAGE:
    sg-trace analyze <trace.json> [--top-k N] [--json]
    sg-trace diff <a.json> <b.json>
    sg-trace merge <a.json> <b.json> [more...] --out <merged.json>
    sg-trace check <trace.json|BENCH.json> --against <BENCH.json> [--cell <label>] [--tolerance <pct>]

--top-k defaults to the trace's worker count / 16, clamped to [5, 32]
(a 512-worker simulator trace shows 32 blocking edges, a 4-worker
engine trace shows 5).

Exit codes:
    0   success
    1   usage error (bad flags or arguments)
    2   malformed or incompatible input (bad JSON, schema or workload mismatch)
    3   tolerance failure (`check` found a regression beyond --tolerance)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sg-trace: {}", e.message);
            ExitCode::from(e.code as u8)
        }
    }
}

fn usage(message: &str) -> CliError {
    CliError {
        code: EXIT_USAGE,
        message: format!("{message}\n\n{USAGE}"),
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    match cmd.as_str() {
        "analyze" => {
            let (positional, flags) = split_args(&args[1..], &["top-k"])?;
            let [trace] = positional.as_slice() else {
                return Err(usage("analyze takes exactly one trace file"));
            };
            let mut top_k: Option<usize> = None;
            let mut json = false;
            for (flag, value) in &flags {
                match (flag.as_str(), value) {
                    ("top-k", Some(v)) => {
                        top_k = Some(cli::parse_flag(flag, Some(v)).map_err(|m| usage(&m))?);
                    }
                    ("json", None) => json = true,
                    _ => return Err(usage(&format!("unknown analyze flag --{flag}"))),
                }
            }
            let parsed = load_trace(Path::new(trace))?;
            let top_k = top_k.unwrap_or_else(|| sgtrace::default_top_k(&parsed));
            Ok(analyze_text(&parsed, top_k, json))
        }
        "diff" => {
            let (positional, flags) = split_args(&args[1..], &[])?;
            if let Some((flag, _)) = flags.first() {
                return Err(usage(&format!("unknown diff flag --{flag}")));
            }
            let [a, b] = positional.as_slice() else {
                return Err(usage("diff takes exactly two trace files"));
            };
            let ta = load_trace(Path::new(a))?;
            let tb = load_trace(Path::new(b))?;
            diff_text(&ta, &tb)
        }
        "merge" => {
            let (positional, flags) = split_args(&args[1..], &["out"])?;
            let mut out_path = None;
            for (flag, value) in &flags {
                match (flag.as_str(), value) {
                    ("out", Some(v)) => out_path = Some(v.clone()),
                    _ => return Err(usage(&format!("unknown merge flag --{flag}"))),
                }
            }
            let Some(out_path) = out_path else {
                return Err(usage("merge requires --out <merged.json>"));
            };
            if positional.len() < 2 {
                return Err(usage("merge takes two or more trace files"));
            }
            let inputs = positional
                .iter()
                .map(|p| load_trace(Path::new(p)))
                .collect::<Result<Vec<_>, _>>()?;
            let merged = sgtrace::merge_traces(&inputs)?;
            std::fs::write(&out_path, &merged.document).map_err(|e| CliError {
                code: sgtrace::EXIT_MALFORMED,
                message: format!("{out_path}: {e}"),
            })?;
            Ok(format!("{}wrote {out_path}\n", merged.summary))
        }
        "check" => {
            let (positional, flags) = split_args(&args[1..], &["against", "cell", "tolerance"])?;
            let [trace] = positional.as_slice() else {
                return Err(usage("check takes exactly one trace file"));
            };
            let mut against = None;
            let mut cell = None;
            let mut tolerance = 5.0f64;
            for (flag, value) in &flags {
                match (flag.as_str(), value) {
                    ("against", Some(v)) => against = Some(v.clone()),
                    ("cell", Some(v)) => cell = Some(v.clone()),
                    ("tolerance", Some(v)) => {
                        tolerance = cli::parse_flag(flag, Some(v)).map_err(|m| usage(&m))?;
                    }
                    _ => return Err(usage(&format!("unknown check flag --{flag}"))),
                }
            }
            let Some(against) = against else {
                return Err(usage("check requires --against <BENCH.json>"));
            };
            let bench_text = std::fs::read_to_string(&against).map_err(|e| CliError {
                code: sgtrace::EXIT_MALFORMED,
                message: format!("{against}: {e}"),
            })?;
            let input_text = std::fs::read_to_string(trace).map_err(|e| CliError {
                code: sgtrace::EXIT_MALFORMED,
                message: format!("{trace}: {e}"),
            })?;
            if sgtrace::looks_like_bench(&input_text) {
                // Bench-vs-bench: gate a fresh artifact's relational
                // cells against the committed baseline.
                if cell.is_some() {
                    return Err(usage("--cell applies to trace-vs-bench checks only"));
                }
                let fresh = sgtrace::parse_bench_raw(&input_text)?;
                let base = sgtrace::parse_bench_raw(&bench_text)?;
                return sgtrace::check_bench_text(&fresh, &base, tolerance);
            }
            let parsed = sgtrace::parse_trace(&input_text)?;
            let (bench_meta, cells) = sgtrace::parse_bench(&bench_text)?;
            check_text(&parsed, &bench_meta, &cells, cell.as_deref(), tolerance)
        }
        "--help" | "-h" | "help" => Ok(format!("{USAGE}\n")),
        other => Err(usage(&format!("unknown subcommand {other:?}"))),
    }
}

fn split_args(args: &[String], value_flags: &[&str]) -> Result<(Vec<String>, Vec<Flag>), CliError> {
    cli::split_args(args, value_flags).map_err(|m| usage(&m))
}
