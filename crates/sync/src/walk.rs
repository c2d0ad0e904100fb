//! The scan half of the superstep cycle: one partition, one superstep, as
//! a resumable cursor.
//!
//! Theorem 1 is a statement about *order*: a vertex executes only while
//! its unit is held (C2), and the unit moves on only after the execution's
//! remote writes are flushed (C1 — the write-all rides on the release).
//! [`PartitionWalk`] is where that order is written down. It makes every
//! scan decision of the [`Synchronizer`] calling contract — the halted
//! partition skip, the halted-vertex skip, the superstep gate, where the
//! acquire/release brackets go for each [`LockGranularity`] — and hands
//! the host one [`Step`] at a time. It is sans-IO: it *returns*
//! [`Step::Acquire`] rather than acquiring, so a thread host blocks in
//! `acquire_unit`, a networked host does its lock RPC, and an event-loop
//! host polls `try_acquire_unit` and parks.

use crate::technique::{LockGranularity, Synchronizer};
use sg_graph::{PartitionId, VertexId};

/// What the host must do next. Unit ids are the technique's: the
/// partition id under [`LockGranularity::Partition`], the vertex id under
/// [`LockGranularity::Vertex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Obtain this unit, then call [`PartitionWalk::granted`]. Until then
    /// every `next` returns this same step.
    Acquire(u32),
    /// Execute vertex `v`, the `local`-th of the partition. Under
    /// [`LockGranularity::Vertex`] the step after this one is always
    /// `Release(v)`, returned without consulting the probes.
    Run { local: usize, v: VertexId },
    /// Give this unit back, stamped with the time its last execution
    /// ended. What the executions staged must already be where the
    /// release-triggered write-all can find it.
    Release(u32),
    /// Nothing left for this partition in this superstep.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Looking for the next vertex to run, from `pos`.
    Scan,
    /// `Acquire` is on offer: the partition's unit, or vertex `pos`'s.
    Offered,
    /// Vertex `pos`'s unit is held; it runs next.
    Granted,
    /// Vertex `pos` ran under its own unit; the release is due.
    Ran,
    Done,
}

/// A cursor over one partition's vertices for one superstep.
#[derive(Clone, Copy, Debug)]
pub struct PartitionWalk {
    partition: PartitionId,
    granularity: LockGranularity,
    state: State,
    /// Local index the scan has reached.
    pos: usize,
}

impl PartitionWalk {
    /// Begin walking `partition` under `sync`. `has_work` — any active
    /// vertex or queued message in it? — decides here, once, whether to
    /// walk at all ([`Synchronizer::unit_skippable`] counts its skips).
    pub fn new(partition: PartitionId, sync: &dyn Synchronizer, has_work: bool) -> Self {
        let granularity = sync.granularity();
        // Only a partition-grain technique owns the partition as a unit;
        // for the others a quiet partition is simply not walked.
        let state = match granularity {
            LockGranularity::Partition if sync.unit_skippable(partition.raw(), has_work) => {
                State::Done
            }
            LockGranularity::Partition => State::Offered,
            _ if has_work => State::Scan,
            _ => State::Done,
        };
        Self {
            partition,
            granularity,
            state,
            pos: 0,
        }
    }

    /// The partition being walked.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// The host obtained the unit of the outstanding [`Step::Acquire`].
    pub fn granted(&mut self) {
        debug_assert_eq!(self.state, State::Offered, "no acquire outstanding");
        self.state = match self.granularity {
            LockGranularity::Vertex => State::Granted,
            _ => State::Scan,
        };
    }

    /// The next thing the host must do. `vertices` is the partition's
    /// vertex slice, the same on every call; `runnable(local, v)` is the
    /// Pregel activity test, *not halted, or has mail*, evaluated when the
    /// scan reaches the vertex, so mail delivered earlier in the same walk
    /// counts. A vertex the technique's superstep gate denies is passed
    /// over with its messages and activity untouched.
    pub fn next(
        &mut self,
        sync: &dyn Synchronizer,
        superstep: u64,
        vertices: &[VertexId],
        runnable: impl Fn(usize, VertexId) -> bool,
    ) -> Step {
        let per_partition = self.granularity == LockGranularity::Partition;
        match self.state {
            State::Done => Step::Done,
            State::Offered if per_partition => Step::Acquire(self.partition.raw()),
            State::Offered => Step::Acquire(vertices[self.pos].raw()),
            State::Granted => {
                self.state = State::Ran;
                let (local, v) = (self.pos, vertices[self.pos]);
                Step::Run { local, v }
            }
            State::Ran => {
                self.state = State::Scan;
                self.pos += 1;
                Step::Release(vertices[self.pos - 1].raw())
            }
            State::Scan => {
                while let Some(&v) = vertices.get(self.pos) {
                    let local = self.pos;
                    if runnable(local, v) && sync.vertex_allowed(superstep, v) {
                        if self.granularity == LockGranularity::Vertex {
                            self.state = State::Offered;
                            return Step::Acquire(v.raw());
                        }
                        self.pos += 1;
                        return Step::Run { local, v };
                    }
                    self.pos += 1;
                }
                self.state = State::Done;
                if per_partition {
                    Step::Release(self.partition.raw())
                } else {
                    Step::Done
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::{NoSync, PartitionLock, VertexLock};
    use crate::token::SingleLayerToken;
    use crate::transport::NoopTransport;
    use sg_graph::partition::ExplicitPartitioner;
    use sg_graph::{gen, ClusterLayout, Graph, PartitionMap};
    use sg_metrics::Metrics;
    use std::sync::Arc;

    /// A 2×4 grid split down the middle: columns 0–1 on worker 0
    /// (partition 0), columns 2–3 on worker 1 (partition 1). Vertices
    /// 1, 5 (and 2, 6) are the boundary; 0, 4 (and 3, 7) are internal.
    fn split_grid() -> (Graph, Arc<PartitionMap>) {
        let g = gen::grid(2, 4);
        let assignment = (0..8u32)
            .map(|v| PartitionId::new((v % 4) / 2))
            .collect::<Vec<_>>();
        let pm = PartitionMap::build(
            &g,
            ClusterLayout::new(2, 1),
            &ExplicitPartitioner(assignment),
        );
        (g, Arc::new(pm))
    }

    /// Drive a walk to `Done` against the real technique, acquiring and
    /// releasing for real, with every vertex awake unless `asleep`.
    fn drive(
        sync: &dyn Synchronizer,
        pm: &PartitionMap,
        p: u32,
        superstep: u64,
        asleep: &[u32],
    ) -> Vec<Step> {
        let p = PartitionId::new(p);
        let vertices = pm.vertices_in(p);
        let has_work = vertices.iter().any(|v| !asleep.contains(&v.raw()));
        let mut walk = PartitionWalk::new(p, sync, has_work);
        let mut steps = Vec::new();
        loop {
            let step = walk.next(sync, superstep, vertices, |_, v| !asleep.contains(&v.raw()));
            steps.push(step);
            match step {
                Step::Acquire(u) => {
                    sync.acquire_unit(u, &NoopTransport);
                    walk.granted();
                }
                Step::Release(u) => sync.release_unit(u, 0, &NoopTransport),
                Step::Run { .. } => {}
                Step::Done => return steps,
            }
        }
    }

    fn run(local: usize, v: u32) -> Step {
        Step::Run {
            local,
            v: VertexId::new(v),
        }
    }

    #[test]
    fn no_sync_runs_every_awake_vertex_and_never_brackets() {
        let (_, pm) = split_grid();
        assert_eq!(
            drive(&NoSync, &pm, 0, 0, &[1]),
            [run(0, 0), run(2, 4), run(3, 5), Step::Done]
        );
        // A quiet partition is not walked at all.
        assert_eq!(drive(&NoSync, &pm, 0, 0, &[0, 1, 4, 5]), [Step::Done]);
    }

    #[test]
    fn partition_grain_brackets_the_whole_partition_once() {
        let (_, pm) = split_grid();
        let metrics = Arc::new(Metrics::new());
        let sync = PartitionLock::new(&pm, Arc::clone(&metrics));
        assert_eq!(
            drive(&sync, &pm, 1, 0, &[3]),
            [
                Step::Acquire(1),
                run(0, 2),
                run(2, 6),
                run(3, 7),
                Step::Release(1),
                Step::Done
            ]
        );
        assert_eq!(metrics.snapshot().halted_skips, 0);
    }

    #[test]
    fn skippable_partition_is_done_at_once_and_counted_once() {
        let (_, pm) = split_grid();
        let metrics = Arc::new(Metrics::new());
        let sync = PartitionLock::new(&pm, Arc::clone(&metrics));
        let vertices = pm.vertices_in(PartitionId::new(0));
        let mut walk = PartitionWalk::new(PartitionId::new(0), &sync, false);
        for _ in 0..3 {
            assert_eq!(walk.next(&sync, 0, vertices, |_, _| false), Step::Done);
        }
        assert_eq!(metrics.snapshot().halted_skips, 1);
    }

    #[test]
    fn release_follows_the_last_vertex_even_when_none_ran() {
        // Skip optimization off: a halted partition is still acquired.
        let (_, pm) = split_grid();
        let sync = PartitionLock::with_options(&pm, Arc::new(Metrics::new()), false);
        assert_eq!(
            drive(&sync, &pm, 0, 0, &[0, 1, 4, 5]),
            [Step::Acquire(0), Step::Release(0), Step::Done]
        );
    }

    #[test]
    fn vertex_grain_brackets_each_execution() {
        let (g, pm) = split_grid();
        let sync = VertexLock::new(&g, &pm, Arc::new(Metrics::new()));
        assert_eq!(
            drive(&sync, &pm, 0, 0, &[4]),
            [
                Step::Acquire(0),
                run(0, 0),
                Step::Release(0),
                Step::Acquire(1),
                run(1, 1),
                Step::Release(1),
                Step::Acquire(5),
                run(3, 5),
                Step::Release(5),
                Step::Done
            ]
        );
    }

    #[test]
    fn ungranted_acquire_is_reoffered_unchanged() {
        let (g, pm) = split_grid();
        let sync = VertexLock::new(&g, &pm, Arc::new(Metrics::new()));
        let vertices = pm.vertices_in(PartitionId::new(1));
        let mut walk = PartitionWalk::new(PartitionId::new(1), &sync, true);
        // Vertex 1 (partition 0) eats first: its neighbor 2 must wait.
        assert!(sync.try_acquire_unit(1, &NoopTransport));
        let next = |walk: &mut PartitionWalk| walk.next(&sync, 0, vertices, |_, _| true);
        for _ in 0..3 {
            assert_eq!(next(&mut walk), Step::Acquire(2));
            assert!(!sync.try_acquire_unit(2, &NoopTransport));
        }
        sync.release_unit(1, 0, &NoopTransport);
        assert_eq!(next(&mut walk), Step::Acquire(2));
        assert!(sync.try_acquire_unit(2, &NoopTransport));
        walk.granted();
        assert_eq!(next(&mut walk), run(0, 2));
        assert_eq!(next(&mut walk), Step::Release(2));
    }

    #[test]
    fn gated_vertex_is_passed_over_and_stays_runnable() {
        // Single-layer token, superstep 0: worker 0 holds the token, so
        // worker 1's boundary vertices 2 and 6 are denied while its
        // internal vertices 3 and 7 run. The walk never asks the host to
        // touch a denied vertex, so its mail and activity are intact: one
        // superstep later the token has moved and the same probes run it.
        let (_, pm) = split_grid();
        let sync = SingleLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        assert_eq!(
            drive(&sync, &pm, 1, 0, &[]),
            [run(1, 3), run(3, 7), Step::Done]
        );
        assert_eq!(
            drive(&sync, &pm, 1, 1, &[3, 7]),
            [run(0, 2), run(2, 6), Step::Done]
        );
    }
}
