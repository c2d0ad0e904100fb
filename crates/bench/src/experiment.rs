//! Experiment execution: one row of a paper figure.

use sg_core::prelude::*;
use sg_core::sg_gas;
use sg_core::sg_gas::programs::{GasColoring, GasPageRank, GasSssp, GasWcc};
use sg_core::Runner;
use std::sync::Arc;
use std::time::Duration;

/// Which of the paper's four algorithms to run (Section 7.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Greedy graph coloring (undirected input).
    Coloring,
    /// PageRank with a residual threshold.
    PageRank(OrderedF64),
    /// SSSP from vertex 0, unit weights.
    Sssp,
    /// Weakly connected components.
    Wcc,
}

/// `f64` wrapper with `Eq` so [`Algo`] can derive it (thresholds are
/// configuration constants, never NaN).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrderedF64(pub f64);
impl Eq for OrderedF64 {}

impl Algo {
    /// Parse from a CLI name.
    pub fn from_name(name: &str, pr_threshold: f64) -> Option<Self> {
        match name {
            "coloring" => Some(Algo::Coloring),
            "pagerank" => Some(Algo::PageRank(OrderedF64(pr_threshold))),
            "sssp" => Some(Algo::Sssp),
            "wcc" => Some(Algo::Wcc),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Coloring => "coloring",
            Algo::PageRank(_) => "pagerank",
            Algo::Sssp => "sssp",
            Algo::Wcc => "wcc",
        }
    }
}

/// Outcome of one experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Simulated computation time in nanoseconds — the Figure 6 metric:
    /// `sg-sim`'s virtual time for a Pregel cell, `sg-gas`'s own for a
    /// GraphLab cell.
    pub makespan_ns: u64,
    /// Supersteps (Pregel engines) or total executions (GAS engine).
    pub iterations: u64,
    /// Did the run converge (vs hit its cap)?
    pub converged: bool,
    /// Counter snapshot.
    pub metrics: MetricsSnapshot,
    /// Host wall time.
    pub wall: Duration,
    /// Observability report, when the run was instrumented (see
    /// [`run_pregel_obs`]).
    pub obs: Option<ObsReport>,
}

/// Run `algo` on a simulated Pregel cluster (`sg-sim`, hosting
/// `sg-engine`'s superstep cycle) under `technique`.
///
/// The coloring input is symmetrized first, exactly as the paper does
/// (Table 1's parenthesized sizes).
pub fn run_pregel(
    graph: &Arc<Graph>,
    algo: Algo,
    technique: Technique,
    workers: u32,
    threads_per_worker: u32,
    max_supersteps: u64,
) -> ExperimentResult {
    run_pregel_obs(
        graph,
        algo,
        technique,
        workers,
        None,
        threads_per_worker,
        max_supersteps,
        ObsConfig::default(),
    )
}

/// [`run_pregel`] with `ppw` partitions per worker and observability:
/// tracing, per-superstep deltas, per-worker breakdowns, and the stall
/// watchdog per `obs`. `ppw = None` keeps the `|P|/worker = |W|` default,
/// which is quadratic in workers — untenable at 512, so the sim lane
/// passes it.
#[allow(clippy::too_many_arguments)]
pub fn run_pregel_obs(
    graph: &Arc<Graph>,
    algo: Algo,
    technique: Technique,
    workers: u32,
    ppw: Option<u32>,
    threads_per_worker: u32,
    max_supersteps: u64,
    obs: ObsConfig,
) -> ExperimentResult {
    run_on(graph, algo, |g| {
        let runner = Runner::from_arc(g).workers(workers);
        let runner = match ppw {
            Some(ppw) => runner.partitions_per_worker(ppw),
            None => runner,
        };
        runner
            .threads_per_worker(threads_per_worker)
            .max_supersteps(max_supersteps)
            .technique(technique)
            .observability(obs.clone())
            .simulated(SimOptions::default())
    })
}

/// Dispatch `algo` on the runner `configure` builds over its input graph
/// (symmetrized for coloring, as the paper does).
fn run_on(
    graph: &Arc<Graph>,
    algo: Algo,
    configure: impl Fn(Arc<Graph>) -> Runner,
) -> ExperimentResult {
    match algo {
        Algo::Coloring => wrap(
            configure(Arc::new(graph.to_undirected()))
                .run_coloring()
                .expect("config"),
        ),
        Algo::PageRank(OrderedF64(t)) => wrap(
            configure(Arc::clone(graph))
                .run_pagerank(t)
                .expect("config"),
        ),
        Algo::Sssp => wrap(
            configure(Arc::clone(graph))
                .run_sssp(VertexId::new(0))
                .expect("config"),
        ),
        Algo::Wcc => wrap(configure(Arc::clone(graph)).run_wcc().expect("config")),
    }
}

fn wrap<V>(out: Outcome<V>) -> ExperimentResult {
    ExperimentResult {
        makespan_ns: out.makespan_ns,
        iterations: out.supersteps,
        converged: out.converged,
        metrics: out.metrics,
        wall: out.wall_time,
        obs: out.obs,
    }
}

/// Run `algo` on the GAS engine with vertex-based distributed locking —
/// the paper's "GraphLab async" comparator.
pub fn run_gas_vertex_lock(
    graph: &Arc<Graph>,
    algo: Algo,
    machines: u32,
    fibers: u32,
    max_executions: u64,
) -> ExperimentResult {
    let config = GasConfig {
        machines,
        fibers_per_machine: fibers,
        serializable: true,
        max_executions,
        ..Default::default()
    };
    fn wrap_gas<V>(out: sg_gas::GasOutcome<V>) -> ExperimentResult {
        ExperimentResult {
            makespan_ns: out.makespan_ns,
            iterations: out.executions,
            converged: out.converged,
            metrics: out.metrics,
            wall: out.wall_time,
            obs: out.obs,
        }
    }
    match algo {
        Algo::Coloring => wrap_gas(
            AsyncGasEngine::new(Arc::new(graph.to_undirected()), GasColoring, config).run(),
        ),
        Algo::PageRank(OrderedF64(t)) => {
            wrap_gas(AsyncGasEngine::new(Arc::clone(graph), GasPageRank::new(t), config).run())
        }
        Algo::Sssp => wrap_gas(
            AsyncGasEngine::new(Arc::clone(graph), GasSssp::new(VertexId::new(0)), config).run(),
        ),
        Algo::Wcc => wrap_gas(AsyncGasEngine::new(Arc::clone(graph), GasWcc, config).run()),
    }
}

/// Format a makespan like the paper's plots (minutes of simulated time
/// when large; sub-second otherwise).
pub fn fmt_makespan(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 60.0 {
        format!("{:.2}min", secs / 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}ms", ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::gen;

    #[test]
    fn algo_names_roundtrip() {
        for name in ["coloring", "pagerank", "sssp", "wcc"] {
            let a = Algo::from_name(name, 0.01).unwrap();
            assert_eq!(a.name(), name);
        }
        assert!(Algo::from_name("nope", 0.0).is_none());
    }

    #[test]
    fn pregel_cell_runs() {
        let g = Arc::new(gen::preferential_attachment(80, 3, 1));
        let r = run_pregel(&g, Algo::Wcc, Technique::PartitionLock, 2, 2, 10_000);
        assert!(r.converged);
        assert!(r.makespan_ns > 0);
        assert!(r.iterations > 0);
    }

    #[test]
    fn gas_cell_runs() {
        let g = Arc::new(gen::preferential_attachment(80, 3, 2));
        let r = run_gas_vertex_lock(&g, Algo::Sssp, 2, 3, 1_000_000);
        assert!(r.converged);
        assert!(r.metrics.fork_transfers > 0);
    }

    #[test]
    fn fmt_makespan_ranges() {
        assert!(fmt_makespan(500_000).ends_with("ms"));
        assert!(fmt_makespan(2_000_000_000).ends_with('s'));
        assert!(fmt_makespan(120_000_000_000).ends_with("min"));
    }
}
