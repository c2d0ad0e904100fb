//! The explorer: strategies over the model's schedule tree, replayable
//! decision logs, and counterexample files.
//!
//! Exploration is *stateless* (in the dslab/Verisoft style): an episode is
//! always run from the initial state, and only the **branching points** —
//! states with more than one enabled event — are recorded, as indices into
//! the enabled-event list. Because [`Model::enabled`] is deterministic,
//! a decision log alone reproduces an episode exactly: same enabled sets,
//! same events, same history, same violation. That is what makes a
//! counterexample a *proof object* rather than a bug report.

use crate::config::{ExploreConfig, FaultPlan, StrategyKind};
use crate::model::{Event, Model, Violation};
use sg_graph::{GraphSpec, SplitMix64};
use sg_metrics::Json;
use sg_metrics::{TraceBuffer, TraceEventKind};
use sg_serial::HistorySummary;
use sg_sync::TechniqueKind;
use std::sync::Arc;

/// Everything one episode produced.
#[derive(Clone, Debug)]
pub struct EpisodeOutcome {
    /// Choice made at each branching point, in order.
    pub decisions: Vec<u32>,
    /// Enabled-set size at each branching point (parallel to `decisions`).
    pub arities: Vec<u32>,
    /// Events executed.
    pub events: usize,
    /// Episode hit the `max_events` guard before finishing.
    pub truncated: bool,
    /// The violation that stopped the episode, if any.
    pub violation: Option<Violation>,
    /// Batch Theorem 1 verdict over the episode's recorded history.
    pub summary: HistorySummary,
}

/// Run one episode: drive the model with `choose` (called only at
/// branching points) until it finishes, violates, deadlocks, or exhausts
/// `cfg.max_events`.
pub fn run_episode(
    cfg: &ExploreConfig,
    mut choose: impl FnMut(&[Event], &Model) -> usize,
    trace: Option<Arc<TraceBuffer>>,
) -> EpisodeOutcome {
    let mut model = Model::new(cfg, trace.clone());
    let mut decisions = Vec::new();
    let mut arities = Vec::new();
    let mut events = 0usize;
    let mut truncated = false;
    loop {
        if model.finished() || model.violation().is_some() {
            break;
        }
        let enabled = model.enabled();
        if enabled.is_empty() {
            model.flag_deadlock();
            break;
        }
        let choice = if enabled.len() == 1 {
            0
        } else {
            let c = choose(&enabled, &model).min(enabled.len() - 1);
            decisions.push(c as u32);
            arities.push(enabled.len() as u32);
            if let Some(t) = &trace {
                t.record(
                    0,
                    model.superstep(),
                    TraceEventKind::ScheduleDecision,
                    model.now() * 1000,
                    0,
                    c as u64,
                );
            }
            c
        };
        model.execute(enabled[choice]);
        events += 1;
        if events >= cfg.max_events {
            truncated = true;
            break;
        }
    }
    EpisodeOutcome {
        decisions,
        arities,
        events,
        truncated,
        violation: model.violation().cloned(),
        summary: model.history_summary(),
    }
}

/// A violation plus everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// The violation itself.
    pub violation: Violation,
    /// Decision log of the violating episode.
    pub decisions: Vec<u32>,
    /// Seed the strategy used for that episode (provenance only; replay
    /// needs just the decisions).
    pub seed: u64,
    /// Episode index (or DFS prefix index) that found it.
    pub episode: usize,
}

/// Aggregate result of one exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Episodes executed.
    pub episodes: usize,
    /// Total events across all episodes.
    pub total_events: usize,
    /// The first violation found, if any.
    pub violation: Option<ViolationReport>,
    /// Verdict of the last clean episode (all-clean explorations).
    pub clean_summary: Option<HistorySummary>,
}

/// Explore with the strategy named in `cfg`. Stops at the first violation.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    match cfg.strategy {
        StrategyKind::Random => explore_walks(cfg, false),
        StrategyKind::Adversary => explore_walks(cfg, true),
        StrategyKind::Dfs => explore_dfs(cfg),
    }
}

/// Random walks and adversary walks share a loop; only the chooser
/// differs.
fn explore_walks(cfg: &ExploreConfig, adversary: bool) -> ExploreReport {
    let mut report = ExploreReport {
        episodes: 0,
        total_events: 0,
        violation: None,
        clean_summary: None,
    };
    for episode in 0..cfg.episodes {
        let seed = cfg.seed.wrapping_add(episode as u64);
        let mut rng = SplitMix64::new(seed);
        let outcome = run_episode(
            cfg,
            |enabled, model| {
                if adversary {
                    adversary_choice(enabled, model, &mut rng)
                } else {
                    rng.gen_index(enabled.len())
                }
            },
            None,
        );
        report.episodes += 1;
        report.total_events += outcome.events;
        if let Some(v) = outcome.violation {
            report.violation = Some(ViolationReport {
                violation: v,
                decisions: outcome.decisions,
                seed,
                episode,
            });
            return report;
        }
        report.clean_summary = Some(outcome.summary);
    }
    report
}

/// The delay adversary: execute the event the model scores *least*
/// valuable to defer (ties broken by the seeded rng), so token deliveries
/// and contended acquisitions are postponed as long as the schedule
/// allows.
fn adversary_choice(enabled: &[Event], model: &Model, rng: &mut SplitMix64) -> usize {
    let min = enabled
        .iter()
        .map(|&e| model.delay_score(e))
        .min()
        .expect("non-empty enabled set");
    let candidates: Vec<usize> = enabled
        .iter()
        .enumerate()
        .filter(|&(_, &e)| model.delay_score(e) == min)
        .map(|(i, _)| i)
        .collect();
    candidates[rng.gen_index(candidates.len())]
}

/// Bounded exhaustive DFS by stateless prefix enumeration: replay a
/// decision prefix, complete it with first-choice decisions, then enqueue
/// every unexplored sibling at every branching point the completion
/// visited (up to `max_depth` decisions deep). The stack pops
/// deepest-deviation first, which reaches "one late change" schedules —
/// where reordering bugs live — immediately.
fn explore_dfs(cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        episodes: 0,
        total_events: 0,
        violation: None,
        clean_summary: None,
    };
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.episodes >= cfg.episodes {
            break;
        }
        let mut branch = 0usize;
        let outcome = run_episode(
            cfg,
            |_, _| {
                let c = prefix.get(branch).copied().unwrap_or(0) as usize;
                branch += 1;
                c
            },
            None,
        );
        report.episodes += 1;
        report.total_events += outcome.events;
        if let Some(v) = outcome.violation {
            report.violation = Some(ViolationReport {
                violation: v,
                decisions: outcome.decisions,
                seed: cfg.seed,
                episode: report.episodes - 1,
            });
            return report;
        }
        report.clean_summary = Some(outcome.summary);
        // Enqueue unexplored siblings beyond the prefix (the prefix's own
        // branch points were enqueued when the prefix was generated).
        let from = prefix.len();
        let to = outcome.decisions.len().min(cfg.max_depth);
        for i in from..to {
            for alt in 1..outcome.arities[i] {
                let mut next: Vec<u32> = outcome.decisions[..i].to_vec();
                next.push(alt);
                stack.push(next);
            }
        }
    }
    report
}

/// A replayable counterexample: the configuration plus the decision log of
/// one violating episode. Serializes to a small JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Counterexample file format version.
    pub schema_version: u64,
    /// The full model configuration (strategy/seed kept for provenance).
    pub config: ExploreConfig,
    /// Decision log that reproduces the violation.
    pub decisions: Vec<u32>,
    /// [`Violation::code`] of the violation this log reaches.
    pub violation: String,
}

/// Current counterexample schema version. Version 2: decision logs index
/// the events of the model that stages, ships and lands message batches
/// as scheduled events, so a version-1 log means a different schedule.
pub const COUNTEREXAMPLE_SCHEMA_VERSION: u64 = 2;

impl Counterexample {
    /// Package an exploration's violation for replay.
    pub fn from_report(cfg: &ExploreConfig, report: &ViolationReport) -> Self {
        let mut config = cfg.clone();
        config.seed = report.seed;
        Self {
            schema_version: COUNTEREXAMPLE_SCHEMA_VERSION,
            config,
            decisions: report.decisions.clone(),
            violation: report.violation.code().to_string(),
        }
    }

    /// Serialize to the JSON interchange format.
    pub fn to_json(&self) -> Json {
        let c = &self.config;
        Json::obj([
            ("schema_version", self.schema_version.into()),
            ("technique", c.technique.to_string().into()),
            ("graph", c.graph.to_string().into()),
            ("workers", c.workers.into()),
            ("ppw", c.ppw.into()),
            ("supersteps", c.supersteps.into()),
            ("strategy", c.strategy.to_string().into()),
            ("seed", c.seed.into()),
            ("max_events", c.max_events.into()),
            ("fault", c.fault.to_string().into()),
            ("violation", self.violation.as_str().into()),
            ("decisions", self.decisions.iter().copied().collect()),
        ])
    }

    /// Parse a counterexample document back into a replayable
    /// counterexample. Every field is validated; unknown techniques, graphs,
    /// strategies, faults, or schema versions are rejected rather than
    /// guessed at.
    pub fn from_json(text: &str) -> Result<Counterexample, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<&str, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let schema_version = num_field("schema_version")?;
        if schema_version != COUNTEREXAMPLE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this build reads {COUNTEREXAMPLE_SCHEMA_VERSION})"
            ));
        }
        let technique =
            TechniqueKind::from_label(str_field("technique")?).ok_or("unknown technique")?;
        let graph = GraphSpec::parse(str_field("graph")?)?;
        let strategy = StrategyKind::parse(str_field("strategy")?).ok_or("unknown strategy")?;
        let fault = FaultPlan::parse(str_field("fault")?).ok_or("unknown fault")?;
        let decisions = doc
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or("missing \"decisions\" array")?
            .iter()
            .map(|d| {
                d.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("non-integer decision")
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let fits = |key: &str| -> Result<u32, String> {
            u32::try_from(num_field(key)?).map_err(|_| format!("{key:?} exceeds {}", u32::MAX))
        };
        let config = ExploreConfig {
            technique,
            graph,
            workers: fits("workers")?,
            ppw: fits("ppw")?,
            supersteps: num_field("supersteps")?,
            strategy,
            seed: num_field("seed")?,
            episodes: 1,
            max_depth: usize::MAX,
            max_events: usize::try_from(num_field("max_events")?).unwrap_or(usize::MAX),
            fault,
        };
        config.validate().map_err(|e| e.to_string())?;
        Ok(Counterexample {
            schema_version,
            config,
            decisions,
            violation: str_field("violation")?.to_string(),
        })
    }

    /// Re-run the recorded episode: replay the decision log (first-choice
    /// past its end) against a fresh model. Deterministic — same log,
    /// same violation, same history.
    pub fn replay(&self, trace: Option<Arc<TraceBuffer>>) -> EpisodeOutcome {
        let mut branch = 0usize;
        run_episode(
            &self.config,
            |_, _| {
                let c = self.decisions.get(branch).copied().unwrap_or(0) as usize;
                branch += 1;
                c
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every serializable technique the model hosts.
    fn serializable() -> impl Iterator<Item = TechniqueKind> {
        (TechniqueKind::ALL.into_iter())
            .filter(|&t| t.serializable() && ExploreConfig::smoke(t).validate().is_ok())
    }

    fn base(technique: TechniqueKind, strategy: StrategyKind) -> ExploreConfig {
        ExploreConfig {
            strategy,
            ..ExploreConfig::smoke(technique)
        }
    }

    #[test]
    fn all_serializable_techniques_explore_clean_under_every_strategy() {
        for technique in serializable() {
            for strategy in StrategyKind::ALL {
                let mut cfg = base(technique, strategy);
                cfg.episodes = 12;
                let report = explore(&cfg);
                assert!(
                    report.violation.is_none(),
                    "{technique}/{strategy}: {:?}",
                    report.violation
                );
                let summary = report.clean_summary.expect("ran episodes");
                assert!(summary.one_copy_serializable, "{technique}/{strategy}");
                assert!(report.total_events > 0);
            }
        }
    }

    #[test]
    fn every_strategy_finds_the_seeded_token_loss() {
        for strategy in StrategyKind::ALL {
            let mut cfg = base(TechniqueKind::SingleToken, strategy);
            cfg.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
            cfg.supersteps = 2;
            let report = explore(&cfg);
            let found = report
                .violation
                .unwrap_or_else(|| panic!("{strategy} missed the seeded token loss"));
            assert_eq!(found.violation.code(), "token-lost", "{strategy}");
            assert!(
                !found.decisions.is_empty(),
                "{strategy} logged no decisions"
            );
        }
    }

    #[test]
    fn random_walks_catch_nosync_violations() {
        let mut cfg = base(TechniqueKind::None, StrategyKind::Random);
        cfg.graph = GraphSpec::Complete(6);
        cfg.ppw = 1;
        cfg.supersteps = 2;
        let report = explore(&cfg);
        let found = report.violation.expect("NoSync must violate somewhere");
        assert!(
            matches!(
                found.violation,
                Violation::StaleRead { .. } | Violation::NeighborOverlap { .. }
            ),
            "{:?}",
            found.violation
        );
    }

    #[test]
    fn counterexample_replay_reproduces_the_violation_exactly() {
        let mut cfg = base(TechniqueKind::SingleToken, StrategyKind::Dfs);
        cfg.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
        cfg.supersteps = 2;
        let report = explore(&cfg);
        let found = report.violation.expect("DFS finds the seeded bug");
        let ce = Counterexample::from_report(&cfg, &found);
        let replayed = ce.replay(None);
        assert_eq!(replayed.violation, Some(found.violation.clone()));
        assert_eq!(replayed.decisions, found.decisions);
        // Byte-identical history verdict on every replay.
        let again = ce.replay(None);
        assert_eq!(
            replayed.summary.to_string(),
            again.summary.to_string(),
            "replay is not deterministic"
        );
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let mut cfg = base(TechniqueKind::PartitionLock, StrategyKind::Random);
        cfg.episodes = 3;
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.clean_summary, b.clean_summary);
    }

    #[test]
    fn counterexample_json_lists_every_field() {
        let cfg = base(TechniqueKind::SingleToken, StrategyKind::Dfs);
        let ce = Counterexample {
            schema_version: COUNTEREXAMPLE_SCHEMA_VERSION,
            config: ExploreConfig {
                fault: FaultPlan::DropDelayedTokenPass { superstep: 1 },
                ..cfg
            },
            decisions: vec![0, 2, 1],
            violation: "token-lost".to_string(),
        };
        let json = ce.to_json().to_string();
        for needle in [
            "\"schema_version\":2",
            "\"technique\":\"single-token\"",
            "\"graph\":\"ring:8\"",
            "\"workers\":2",
            "\"ppw\":2",
            "\"supersteps\":4",
            "\"strategy\":\"dfs\"",
            "\"fault\":\"drop-delayed-token-pass:1\"",
            "\"violation\":\"token-lost\"",
            "\"decisions\":[0,2,1]",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn counterexample_json_round_trips_through_the_parser() {
        let cfg = ExploreConfig {
            supersteps: 2,
            fault: FaultPlan::DropDelayedTokenPass { superstep: 0 },
            ..base(TechniqueKind::SingleToken, StrategyKind::Dfs)
        };
        let found = explore(&cfg).violation.expect("seeded bug found");
        let ce = Counterexample::from_report(&cfg, &found);
        let parsed = Counterexample::from_json(&ce.to_json().to_string()).expect("parses");
        assert_eq!(parsed.decisions, ce.decisions);
        assert_eq!(parsed.violation, ce.violation);
        assert_eq!(parsed.config.technique, cfg.technique);
        assert_eq!(parsed.config.graph, cfg.graph);
        assert_eq!(parsed.config.fault, cfg.fault);
        // And the parsed copy still reproduces the violation.
        let outcome = parsed.replay(None);
        assert_eq!(
            outcome.violation.map(|v| v.code().to_string()),
            Some(ce.violation)
        );
    }

    #[test]
    fn truncation_guard_stops_runaway_episodes() {
        let mut cfg = base(TechniqueKind::PartitionLock, StrategyKind::Random);
        cfg.max_events = 10;
        cfg.episodes = 1;
        let report = explore(&cfg);
        assert!(report.violation.is_none());
        assert_eq!(report.total_events, 10);
    }
}
