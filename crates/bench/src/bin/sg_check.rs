//! `sg-check` — deterministic schedule exploration and model checking for
//! the paper's synchronization techniques.
//!
//! ```text
//! sg-check explore --technique <t> [--strategy <s>] [--seed <n>] [--graph <g>]
//!                  [--workers <n>] [--ppw <n>] [--supersteps <n>]
//!                  [--episodes <n>] [--max-depth <n>] [--max-events <n>]
//!                  [--broken-ring <superstep>] [--out <file>] [--trace <file>]
//! sg-check replay <counterexample.json> [--trace <file>]
//! ```
//!
//! `explore` schedules every protocol event (acquire, compute, release,
//! barrier, token delivery) of the real `sg-sync` techniques and checks
//! C1/C2, serialization-graph acyclicity, token liveness, and
//! deadlock-freedom at every explored state. A violation writes a replayable counterexample
//! and exits 3. `replay` re-runs a counterexample's decision log and
//! confirms the violation reproduces. `--trace` exports a Chrome trace
//! readable by `sg-trace analyze`.
//!
//! Exit codes: 0 clean, 1 usage, 2 malformed input, 3 violation.

use sg_bench::cli::{self, Flag};
use sg_bench::sgcheck::{run_explore, run_replay};
use sg_bench::sgtrace::{CliError, EXIT_MALFORMED, EXIT_USAGE};
use sg_core::sg_check::{ExploreConfig, FaultPlan, GraphSpec, StrategyKind, TechniqueKind};
use std::process::ExitCode;

fn usage_text() -> String {
    let techniques: Vec<&str> = TechniqueKind::ALL.iter().map(|t| t.label()).collect();
    format!(
        "sg-check — schedule exploration for the synchronization techniques

USAGE:
    sg-check explore --technique <TECHNIQUE>
                     [--strategy <random|dfs|adversary>] [--seed N] [--graph SPEC]
                     [--workers N] [--ppw N] [--supersteps N] [--episodes N]
                     [--max-depth N] [--max-events N] [--broken-ring SUPERSTEP]
                     [--out FILE] [--trace FILE]
    sg-check replay <counterexample.json> [--trace FILE]

Techniques: {}.
Graph specs: ring:<n>, complete:<n>, grid:<r>x<c>, er:<n>:<m>:<seed>, paper-c4.
--broken-ring S injects a lost-token fault into superstep S's ring pass
(regression-testing the checker itself).

Exit codes: 0 clean, 1 usage, 2 malformed input, 3 violation found.",
        techniques.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((out, code)) => {
            print!("{out}");
            ExitCode::from(code as u8)
        }
        Err(e) => {
            eprintln!("sg-check: {}", e.message);
            ExitCode::from(e.code as u8)
        }
    }
}

fn usage(message: &str) -> CliError {
    CliError {
        code: EXIT_USAGE,
        message: format!("{message}\n\n{}", usage_text()),
    }
}

fn run(args: &[String]) -> Result<(String, i32), CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    match cmd.as_str() {
        "explore" => {
            let (positional, flags) = split_args(
                &args[1..],
                &[
                    "technique",
                    "strategy",
                    "seed",
                    "graph",
                    "workers",
                    "ppw",
                    "supersteps",
                    "episodes",
                    "max-depth",
                    "max-events",
                    "broken-ring",
                    "out",
                    "trace",
                ],
            )?;
            if let Some(extra) = positional.first() {
                return Err(usage(&format!("unexpected argument {extra:?}")));
            }
            let mut technique = None;
            let mut cfg = ExploreConfig::smoke(TechniqueKind::SingleToken);
            let mut out = None;
            let mut trace = None;
            for (flag, value) in &flags {
                let v = value.as_deref().unwrap_or("");
                match flag.as_str() {
                    "technique" => {
                        technique = Some(
                            TechniqueKind::from_label(v)
                                .ok_or_else(|| usage(&format!("unknown technique {v:?}")))?,
                        );
                    }
                    "strategy" => {
                        cfg.strategy = StrategyKind::parse(v)
                            .ok_or_else(|| usage(&format!("unknown strategy {v:?}")))?;
                    }
                    "graph" => {
                        cfg.graph = GraphSpec::parse(v).map_err(|e| usage(&e))?;
                    }
                    "seed" => cfg.seed = parse_num(flag, v)?,
                    "workers" => cfg.workers = parse_num(flag, v)?,
                    "ppw" => cfg.ppw = parse_num(flag, v)?,
                    "supersteps" => cfg.supersteps = parse_num(flag, v)?,
                    "episodes" => cfg.episodes = parse_num(flag, v)?,
                    "max-depth" => cfg.max_depth = parse_num(flag, v)?,
                    "max-events" => cfg.max_events = parse_num(flag, v)?,
                    "broken-ring" => {
                        cfg.fault = FaultPlan::DropDelayedTokenPass {
                            superstep: parse_num(flag, v)?,
                        };
                    }
                    "out" => out = Some(v.to_string()),
                    "trace" => trace = Some(v.to_string()),
                    _ => return Err(usage(&format!("unknown explore flag --{flag}"))),
                }
            }
            let Some(technique) = technique else {
                return Err(usage("explore requires --technique"));
            };
            cfg.technique = technique;
            cfg.validate().map_err(|e| usage(&e.to_string()))?;
            let cmd_out = run_explore(&cfg, out.as_deref(), trace.as_deref())?;
            Ok((cmd_out.text, cmd_out.code))
        }
        "replay" => {
            let (positional, flags) = split_args(&args[1..], &["trace"])?;
            let [path] = positional.as_slice() else {
                return Err(usage("replay takes exactly one counterexample file"));
            };
            let mut trace = None;
            for (flag, value) in &flags {
                match (flag.as_str(), value) {
                    ("trace", Some(v)) => trace = Some(v.clone()),
                    _ => return Err(usage(&format!("unknown replay flag --{flag}"))),
                }
            }
            let text = std::fs::read_to_string(path).map_err(|e| CliError {
                code: EXIT_MALFORMED,
                message: format!("{path}: {e}"),
            })?;
            let cmd_out = run_replay(&text, trace.as_deref())?;
            Ok((cmd_out.text, cmd_out.code))
        }
        "--help" | "-h" | "help" => Ok((format!("{}\n", usage_text()), 0)),
        other => Err(usage(&format!("unknown subcommand {other:?}"))),
    }
}

/// An integer flag value that fits the field it is for (`--workers
/// 4294967298` is an error, not 2).
fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    cli::parse_flag(flag, Some(v)).map_err(|m| usage(&m))
}

fn split_args(args: &[String], value_flags: &[&str]) -> Result<(Vec<String>, Vec<Flag>), CliError> {
    cli::split_args(args, value_flags).map_err(|m| usage(&m))
}
