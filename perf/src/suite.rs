//! Modes that run several workloads: each workload in a process of its
//! own (this binary, spawned once per run), one at a time.

use crate::catalog::{END_TO_END, MIN_TIMED_REPS, RUN_SECONDS, WORKLOADS};
use crate::{out_dir, Args};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// One child run: its `metric` lines by name, and its verdict.
struct Child {
    metrics: BTreeMap<String, f64>,
    correct: bool,
}

impl Child {
    fn reps(&self) -> f64 {
        self.metrics.get("harness.reps").copied().unwrap_or(0.0)
    }

    /// A run with fewer timed reps than the benchmark asks for does not
    /// count: its medians rest on too little.
    fn enough_reps(&self, workload: &str) -> bool {
        let enough = self.reps() >= MIN_TIMED_REPS as f64;
        if !enough {
            eprintln!(
                "sg-perf: {workload} made {} timed reps, fewer than {MIN_TIMED_REPS}: the host was too slow for this run to count",
                self.reps()
            );
        }
        enough
    }
}

fn run_child(workload: &str, args: &Args, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        println!("{line}");
        // metric <workload>/<name> <value> <unit> ...
        let mut words = line.split_whitespace();
        if words.next() != Some("metric") {
            continue;
        }
        let name = words.next().and_then(|path| path.split_once('/'));
        let value = words.next().and_then(|v| v.parse::<f64>().ok());
        if let (Some((_, name)), Some(value)) = (name, value) {
            metrics.insert(name.to_string(), value);
        }
    }
    let correct = out.status.success()
        && stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true"));
    if !correct {
        eprintln!(
            "sg-perf: {workload} (trace {}) failed: exit {:?}",
            u8::from(trace),
            out.status.code()
        );
    }
    Ok(Child { metrics, correct })
}

fn json_object(metrics: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The untraced set, then the traced pass; writes `results.json`.
pub fn full(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut ok = true;
    let mut sections = Vec::new();
    for (label, trace) in [("untraced", false), ("traced", true)] {
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            let child = run_child(w.name, args, seconds, trace)?;
            ok &= child.correct && (trace || child.enough_reps(w.name));
            runs.push(format!(
                "    \"{}\": {}",
                w.name,
                json_object(&child.metrics)
            ));
        }
        sections.push(format!("  \"{label}\": {{\n{}\n  }}", runs.join(",\n")));
    }
    let summary = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"nproc\": {},\n  \"correct\": {ok},\n{},\n  \"claim\": null\n}}\n",
        args.seed,
        nproc(),
        sections.join(",\n")
    );
    if let Some(dir) = out_dir() {
        let path = dir.join("results.json");
        std::fs::write(&path, &summary).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!("nproc {} correct {ok} \"claim\": null", nproc());
    Ok(ok)
}

/// Every workload untraced and traced on scale-10 graphs.
pub fn smoke(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            ok &= run_child(w.name, args, args.seconds.unwrap_or(1.0), trace)?.correct;
        }
    }
    println!("smoke {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// A/A gate: two untraced sets of the same build, interleaved A-B per
/// workload. A workload x end-to-end metric that differs between the sets by
/// more than its bound fails the gate, and so does a run with fewer than
/// [`MIN_TIMED_REPS`] timed reps; one that differs by more than the issue's
/// target but no more than the bound is reported as unresolved: the
/// benchmark cannot tell a change of that size from noise.
pub fn aa(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut ok = true;
    let mut unresolved = 0;
    let mut table = format!(
        "A/A seed {} seconds {seconds} nproc {}\n\n\
         | workload | metric | A | B | (B-A)/A | target | bound | reps A/B | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n",
        args.seed,
        nproc()
    );
    for w in &WORKLOADS {
        let a = run_child(w.name, args, seconds, false)?;
        let b = run_child(w.name, args, seconds, false)?;
        ok &= a.correct && b.correct && a.enough_reps(w.name) && b.enough_reps(w.name);
        for m in &END_TO_END {
            let get = |c: &Child| {
                c.metrics
                    .get(m.name)
                    .copied()
                    .ok_or(format!("{} printed no {}", w.name, m.name))
            };
            let (va, vb) = (get(&a)?, get(&b)?);
            let diff = (vb - va) / va;
            let verdict = if diff.abs() <= m.target {
                "ok"
            } else if diff.abs() <= m.bound {
                unresolved += 1;
                "unresolved"
            } else {
                ok = false;
                "FAIL"
            };
            let _ = writeln!(
                table,
                "| {} | {} | {va:.4} | {vb:.4} | {:+.2} % | {:.0} % | {:.0} % | {}/{} | {verdict} |",
                w.name,
                m.name,
                100.0 * diff,
                100.0 * m.target,
                100.0 * m.bound,
                a.reps(),
                b.reps(),
            );
        }
    }
    let _ = writeln!(
        table,
        "\nA/A {}, {unresolved} unresolved",
        if ok { "passed" } else { "FAILED" }
    );
    print!("\n{table}");
    if let Some(dir) = out_dir() {
        let path = dir.join(format!("aa-seed{}.md", args.seed));
        std::fs::write(&path, &table).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}
