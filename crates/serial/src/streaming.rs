//! The in-process streaming auditor: a [`Recorder`] feeding a
//! watermark-ordered [`IncrementalChecker`], no sockets involved.
//!
//! The thread engine and the asynchronous GAS engine attach one when
//! `ObsConfig::audit` is on, on an [`AuditSidecar`] thread: each drain
//! pulls every transaction recorded since the last drain through
//! [`Recorder::txns_since`], buffers it in the checker, and releases
//! everything below [`Recorder::safe_watermark`].
//! Under a working technique each drain costs the released transactions'
//! degrees and no more: commit order certifies the history acyclic, and
//! the checker runs [`crate::History`]'s acyclicity check only after a
//! commit has overwritten a version an open transaction read. The live
//! [`CheckStatus`] after each drain is the same Theorem 1 verdict the
//! cluster's audit plane maintains over TCP, and
//! [`StreamingAuditor::finish`] is by construction equal to the
//! post-hoc check over the recorder's full history.

use crate::history::HistorySummary;
use crate::incremental::{CheckStatus, IncrementalChecker};
use crate::recorder::Recorder;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Incremental Theorem 1 verdicts over a live [`Recorder`].
pub struct StreamingAuditor {
    recorder: Arc<Recorder>,
    checker: IncrementalChecker,
    cursor: usize,
}

impl StreamingAuditor {
    /// Audit the executions `recorder` observes.
    pub fn new(recorder: Arc<Recorder>) -> Self {
        let checker = IncrementalChecker::new(Arc::clone(recorder.graph()));
        Self {
            recorder,
            checker,
            cursor: 0,
        }
    }

    /// Pull everything recorded since the last drain and release all
    /// operations the watermark proves complete. Safe to call while
    /// executions are in flight — the watermark never overtakes an open
    /// transaction. Returns the live verdict.
    pub fn drain(&mut self) -> CheckStatus {
        // Watermark strictly before the cursor read: a transaction that
        // lands in between ships now with a stamp at or above the
        // watermark, never later with a stamp below it.
        let watermark = self.recorder.safe_watermark();
        self.pull();
        self.checker.advance(watermark);
        self.checker.status()
    }

    /// Buffer everything recorded since the last pull in the checker.
    fn pull(&mut self) {
        let fresh = self.recorder.txns_since(self.cursor);
        self.cursor += fresh.len();
        for t in fresh {
            self.checker
                .observe(t)
                .expect("the recorder stamps well-formed transactions above its watermark");
        }
    }

    /// Transactions whose operations have been fully applied so far.
    pub fn transactions(&self) -> usize {
        self.checker.transactions()
    }

    /// Drain the tail (the run is over, nothing is in flight) and return
    /// the final verdict.
    pub fn finish(mut self) -> HistorySummary {
        self.pull();
        self.checker.finish();
        self.checker.summary()
    }
}

/// A [`StreamingAuditor`] draining on a thread of its own every 2 ms, so
/// live Theorem 1 verdicts cost the compute threads interference only,
/// never critical-path time — the off-path placement of the cluster's
/// coordinator-side checker. Between drains it waits on its stop channel,
/// so [`AuditSidecar::finish`] wakes it at once rather than after a sleep.
pub struct AuditSidecar {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<StreamingAuditor>,
}

impl AuditSidecar {
    /// Start auditing the executions `recorder` observes.
    pub fn start(recorder: Arc<Recorder>) -> Self {
        let mut auditor = StreamingAuditor::new(recorder);
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::spawn(move || loop {
            auditor.drain();
            if let Ok(()) | Err(RecvTimeoutError::Disconnected) =
                stopped.recv_timeout(Duration::from_millis(2))
            {
                return auditor;
            }
        });
        Self { stop, handle }
    }

    /// The run is over: stop draining, drain the tail, return the final
    /// verdict.
    pub fn finish(self) -> HistorySummary {
        drop(self.stop);
        let auditor = self.handle.join().expect("audit thread panicked");
        auditor.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::{gen, VertexId};

    #[test]
    fn live_drains_match_the_post_hoc_history() {
        let g = Arc::new(gen::paper_c4());
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        let mut a = StreamingAuditor::new(Arc::clone(&r));
        for round in 0..3 {
            for u in g.vertices() {
                let guard = r.begin(u);
                for &t in g.out_neighbors(u) {
                    r.on_send(u, t);
                    r.on_visible(u, t);
                }
                r.end(guard);
            }
            let status = a.drain();
            assert!(status.clean(), "round {round} dirtied a serial feed");
        }
        assert!(a.transactions() > 0, "drains released applied work");
        let live = a.finish();
        let post = r.history().summarize(&g);
        assert_eq!(live, post);
        assert!(live.one_copy_serializable);
    }

    #[test]
    fn overlap_and_staleness_surface_in_the_live_verdict() {
        let g = Arc::new(gen::paper_c4());
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        let mut a = StreamingAuditor::new(Arc::clone(&r));
        let g0 = r.begin(VertexId::new(0));
        r.on_send(VertexId::new(0), VertexId::new(1));
        let g1 = r.begin(VertexId::new(1)); // concurrent neighbor + stale read
        r.end(g1);
        r.end(g0);
        let status = a.drain();
        assert!(!status.clean());
        let live = a.finish();
        let post = r.history().summarize(&g);
        assert_eq!(live, post);
        assert!(live.c1_violations > 0);
        assert!(live.c2_violations > 0);
    }

    /// The half of the recorder's "only what is in flight" argument that
    /// is deterministic: 0 hands 1 a message readable at once, which
    /// records nothing, and 1 begins while 0 still runs. C1 sees nothing,
    /// and C2 alone rejects the history, live and post hoc alike.
    #[test]
    fn overlap_without_flight_is_c2_alone() {
        let g = Arc::new(gen::paper_c4());
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        let mut a = StreamingAuditor::new(Arc::clone(&r));
        let g0 = r.begin(VertexId::new(0));
        let g1 = r.begin(VertexId::new(1)); // concurrent neighbor, fresh read
        r.end(g1);
        r.end(g0);
        assert!(!a.drain().clean());
        let live = a.finish();
        let post = r.history().summarize(&g);
        assert_eq!(live, post);
        assert_eq!(live.c1_violations, 0);
        assert!(live.c2_violations > 0);
        assert!(!live.one_copy_serializable);
    }

    #[test]
    fn drain_mid_execution_buffers_the_open_transaction() {
        let g = Arc::new(gen::paper_c4());
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        let mut a = StreamingAuditor::new(Arc::clone(&r));
        let guard = r.begin(VertexId::new(0));
        // v0 is open: the watermark must hold everything back.
        a.drain();
        assert_eq!(a.transactions(), 0);
        r.end(guard);
        a.drain();
        let live = a.finish();
        assert_eq!(live.transactions, 1);
        assert!(live.one_copy_serializable);
    }

    /// Cost is linear in the operations applied, however skewed the graph:
    /// a 20,000-leaf star, two serial rounds. Asserted by count, not by
    /// clock: commit order certifies every drain, so the whole-log
    /// acyclicity fallback never runs. (Deduplicating the hub's out-edges
    /// by scanning them would take ~2 x 10^8 comparisons here.)
    #[test]
    fn a_hub_costs_its_degree_not_its_degree_squared() {
        const LEAVES: u32 = 20_000;
        let g = Arc::new(gen::star(LEAVES + 1));
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        let mut a = StreamingAuditor::new(Arc::clone(&r));
        for _ in 0..2 {
            for u in g.vertices() {
                let guard = r.begin(u);
                for &t in g.out_neighbors(u) {
                    r.on_send(u, t);
                    r.on_visible(u, t);
                }
                r.end(guard);
            }
            assert!(a.drain().clean());
        }
        assert_eq!(a.transactions(), 2 * (LEAVES as usize + 1));
        assert_eq!(
            a.checker.fallback_runs(),
            0,
            "a serial feed left the certificate"
        );
        let live = a.finish();
        assert_eq!(live, r.history().summarize(&g));
        assert!(live.one_copy_serializable);
    }
}
