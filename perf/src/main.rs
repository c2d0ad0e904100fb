//! `sg-perf` — the repository's end-to-end benchmark. `perf/run.sh` builds
//! and runs it; `perf/README.md` says what every number means.
//!
//! ```text
//! sg-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                  one workload, one process, JSON line last
//! sg-perf                          untraced set, then the traced pass
//! sg-perf --aa                     two untraced sets, interleaved, gated
//! sg-perf --smoke                  scale-10 graphs, a second per workload
//! sg-perf --print-benchmark-json   the contents of BENCHMARK.json
//! ```

mod bench;
mod calib;
mod catalog;
mod host;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;

use bench::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line. Flags are `--key value` pairs; `--aa`, `--smoke`
/// and `--print-benchmark-json` take no value.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
    pub print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traced runs and the suite write their files: `perf/out/`, handed
/// down by `run.sh`. Nothing is written when it is unset.
pub fn out_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("SG_PERF_OUT")?);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// A measured value with all its digits; JSON has no NaN or infinity, so
/// a ratio over an empty denominator prints as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print `metric <workload>/<name> <value> <unit>` lines, then the result
/// line the driver reads.
fn print_report(workload: &str, r: &Report) {
    for (name, value, summary) in &r.metrics {
        let unit = catalog::unit_of(name);
        match summary {
            Some(s) => println!(
                "metric {workload}/{name} {} {unit} min={} median={} q1={} q3={} n={}",
                number(*value),
                number(s.min),
                number(s.median),
                number(s.q1),
                number(s.q3),
                s.n
            ),
            None => println!("metric {workload}/{name} {} {unit}", number(*value)),
        }
    }
    for (name, value, unit) in &r.info {
        println!("metric {workload}/{name} {} {unit}", number(*value));
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                catalog::unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let mut w = catalog::workload(name).ok_or_else(|| {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    if args.smoke {
        w = catalog::smoke(w);
    }
    let seconds = args.seconds.unwrap_or(catalog::RUN_SECONDS as f64);
    let report = if args.trace {
        bench::traced(&w, args.seed, seconds)
    } else {
        bench::untraced(&w, args.seed, seconds)
    };
    if let (Some(spans), Some(dir)) = (&report.spans, out_dir()) {
        let path = dir.join(format!("spans-{}.json", w.name));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print_report(w.name, &report);
    Ok(report.correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sg-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json());
        Ok(true)
    } else if let Some(name) = &args.workload {
        one_workload(name, &args)
    } else if args.aa {
        suite::aa(&args)
    } else if args.smoke {
        suite::smoke(&args)
    } else {
        suite::full(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer must never score: the result line says
        // `"correct": false` and the exit code says so too.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sg-perf: {e}");
            ExitCode::from(2)
        }
    }
}
