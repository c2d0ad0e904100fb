//! Exploration configuration: which technique and workload to model, which
//! strategy drives the scheduler, and which fault (if any) to inject.
//!
//! Every enum here — and the two the configuration borrows, `sg-sync`'s
//! [`TechniqueKind`] and `sg-graph`'s [`GraphSpec`] — round-trips through
//! a compact spec string so that a counterexample file fully describes how
//! to rebuild the model it was found in.

use sg_graph::GraphSpec;
use sg_sync::TechniqueKind;
use std::fmt;

/// How the explorer picks among enabled events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Seeded random walks; each episode uses seed `base + episode`.
    Random,
    /// Bounded exhaustive DFS over scheduling decisions (stateless
    /// replay-based enumeration, deepest-deviation first).
    Dfs,
    /// Delay-injection adversary: defers token deliveries and the most
    /// contended acquisitions, maximizing overlap windows.
    Adversary,
}

impl StrategyKind {
    /// All strategies, for "try everything" harnesses.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Random,
        StrategyKind::Dfs,
        StrategyKind::Adversary,
    ];

    /// Stable spec-string / report label.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Random => "random",
            StrategyKind::Dfs => "dfs",
            StrategyKind::Adversary => "adversary",
        }
    }

    /// Inverse of [`StrategyKind::label`].
    pub fn parse(s: &str) -> Option<StrategyKind> {
        Some(match s {
            "random" => StrategyKind::Random,
            "dfs" => StrategyKind::Dfs,
            "adversary" => StrategyKind::Adversary,
            _ => return None,
        })
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An injected protocol fault, for regression-testing the checker itself
/// (a model checker that never finds a seeded bug proves nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// No fault: the protocols run as implemented.
    None,
    /// The global token pass leaving `superstep` is lost whenever any other
    /// event is scheduled between its send and its delivery. Only schedules
    /// that deliver the token immediately keep it — a classic lost-token
    /// race that is invisible to straight-line execution and visible only
    /// under reordering.
    DropDelayedTokenPass {
        /// Superstep whose outgoing pass is vulnerable.
        superstep: u64,
    },
}

impl FaultPlan {
    /// Parse a fault spec (`none` or `drop-delayed-token-pass:<superstep>`).
    pub fn parse(s: &str) -> Option<FaultPlan> {
        if s == "none" {
            return Some(FaultPlan::None);
        }
        let rest = s.strip_prefix("drop-delayed-token-pass:")?;
        rest.parse()
            .ok()
            .map(|superstep| FaultPlan::DropDelayedTokenPass { superstep })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::None => f.write_str("none"),
            FaultPlan::DropDelayedTokenPass { superstep } => {
                write!(f, "drop-delayed-token-pass:{superstep}")
            }
        }
    }
}

/// Full configuration of one exploration run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Technique under test.
    pub technique: TechniqueKind,
    /// Workload graph.
    pub graph: GraphSpec,
    /// Simulated workers.
    pub workers: u32,
    /// Partitions per worker.
    pub ppw: u32,
    /// Supersteps each episode runs.
    pub supersteps: u64,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Base seed (random/adversary tie-breaks).
    pub seed: u64,
    /// Episode budget (random/adversary: walks; DFS: prefixes explored).
    pub episodes: usize,
    /// DFS only: deepest scheduling decision it may deviate at.
    pub max_depth: usize,
    /// Hard per-episode event budget (runaway guard).
    pub max_events: usize,
    /// Injected fault.
    pub fault: FaultPlan,
}

impl ExploreConfig {
    /// A small default workload: `ring:8` on 2 workers x 2 partitions for
    /// 4 supersteps — one full single-layer rotation plus slack, finishing
    /// in well under a second per strategy.
    pub fn smoke(technique: TechniqueKind) -> Self {
        Self {
            technique,
            graph: GraphSpec::Ring(8),
            workers: 2,
            ppw: 2,
            supersteps: 4,
            strategy: StrategyKind::Random,
            seed: 1,
            episodes: 64,
            max_depth: 64,
            max_events: 100_000,
            fault: FaultPlan::None,
        }
    }

    /// Can the model host this configuration? The CLI, the counterexample
    /// parser and [`Model::new`](crate::Model::new) all ask here. Every
    /// technique is modelable; the cluster, graph and fault must make sense.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 || self.ppw == 0 {
            return Err(ConfigError::Invalid(
                "workers and ppw must be positive".into(),
            ));
        }
        if self.fault != FaultPlan::None && !self.technique.uses_global_token() {
            return Err(ConfigError::Invalid(format!(
                "a broken ring needs a token-ring technique, not {}",
                self.technique
            )));
        }
        self.graph.validate().map_err(ConfigError::Invalid)?;
        Ok(())
    }
}

/// Why [`ExploreConfig::validate`] refused a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No model of any technique could be built from it: an empty
    /// cluster, a graph outside its generator's bounds, a token-pass fault
    /// without a token ring. The message names which.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ConfigError::Invalid(why) = self;
        f.write_str(why)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_every_technique_and_refuses_what_no_model_could_be() {
        for t in TechniqueKind::ALL {
            assert_eq!(ExploreConfig::smoke(t).validate(), Ok(()), "{t}");
        }
        let smoke = ExploreConfig::smoke(TechniqueKind::VertexLock);
        let no_workers = ExploreConfig {
            workers: 0,
            ..smoke.clone()
        };
        assert!(
            matches!(no_workers.validate(), Err(ConfigError::Invalid(why)) if why.contains("positive"))
        );
        let no_ring = ExploreConfig {
            fault: FaultPlan::DropDelayedTokenPass { superstep: 0 },
            ..smoke.clone()
        };
        assert!(
            matches!(no_ring.validate(), Err(ConfigError::Invalid(why)) if why.contains("not vertex-lock"))
        );
        let no_graph = ExploreConfig {
            graph: GraphSpec::Ring(2),
            ..smoke
        };
        assert!(
            matches!(no_graph.validate(), Err(ConfigError::Invalid(why)) if why.contains("at least 3"))
        );
    }

    #[test]
    fn strategy_and_fault_round_trip() {
        for s in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(s.label()), Some(s));
        }
        assert_eq!(StrategyKind::parse("bfs"), None);
        for f in [
            FaultPlan::None,
            FaultPlan::DropDelayedTokenPass { superstep: 2 },
        ] {
            assert_eq!(FaultPlan::parse(&f.to_string()), Some(f));
        }
        assert_eq!(FaultPlan::parse("drop-delayed-token-pass:x"), None);
    }
}
