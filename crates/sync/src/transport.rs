//! The seam between a synchronization technique and whatever hosts it:
//! what the technique tells its host when protocol traffic crosses
//! (simulated) machine boundaries.

use sg_graph::WorkerId;
use std::sync::Mutex;

/// Calls from a synchronization technique into its host.
///
/// The host owns the message buffers and any clocks; the technique owns
/// the protocol. Two things cross the seam: a shared resource moves, and a
/// request for one moves.
pub trait SyncTransport: Send + Sync {
    /// A fork guarding protocol unit `unit` — or, when `unit` is `None`,
    /// the global token of a ring technique — moves from `from` to `to`,
    /// `from != to`. The host flushes `from`'s pending remote replica
    /// updates (the write-all step that enforces condition C1, Sections
    /// 4.1 and 5.4) and returns only once they have been *applied at the
    /// receiver*: the resource must not arrive before the writes it
    /// guards. Hosts with clocks join them here; a fork's own arrival time
    /// they work out from eat order (`sg_metrics::EatOrder`).
    fn transfer(&self, from: WorkerId, to: WorkerId, unit: Option<u32>);

    /// A request token moves from `from` to `to`. No flush is required —
    /// request tokens do not guard data.
    fn request(&self, from: WorkerId, to: WorkerId);
}

/// A transport that does nothing. Used by unit tests that exercise protocol
/// logic without an engine, and by single-worker configurations where no
/// resource ever crosses a machine boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTransport;

impl SyncTransport for NoopTransport {
    fn transfer(&self, _from: WorkerId, _to: WorkerId, _unit: Option<u32>) {}
    fn request(&self, _from: WorkerId, _to: WorkerId) {}
}

/// One thing a technique told its transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetAction {
    /// [`SyncTransport::transfer`].
    Transfer {
        /// Sending worker.
        from: WorkerId,
        /// Receiving worker.
        to: WorkerId,
        /// Protocol unit whose fork traveled; `None` for a ring pass.
        unit: Option<u32>,
    },
    /// [`SyncTransport::request`].
    Request {
        /// Sending worker.
        from: WorkerId,
        /// Receiving worker.
        to: WorkerId,
    },
}

/// The transport of the single-threaded hosts (the model checker, the
/// discrete-event simulator, protocol tests). A technique calls its
/// transport from inside `try_acquire_unit` / `release_unit` /
/// `end_superstep`, where such a host cannot mutate its own state
/// re-entrantly, so the calls are queued and the host drains the queue
/// right after each protocol call returns — before anything else can
/// observe the handover, which keeps `transfer`'s write-all contract.
#[derive(Default)]
pub struct QueueTransport {
    actions: Mutex<Vec<NetAction>>,
}

impl QueueTransport {
    /// Drain the actions queued since the last drain, in call order.
    pub fn drain(&self) -> Vec<NetAction> {
        std::mem::take(&mut self.queue())
    }

    fn queue(&self) -> std::sync::MutexGuard<'_, Vec<NetAction>> {
        self.actions.lock().expect("no panic while queueing")
    }
}

impl SyncTransport for QueueTransport {
    fn transfer(&self, from: WorkerId, to: WorkerId, unit: Option<u32>) {
        self.queue().push(NetAction::Transfer { from, to, unit });
    }

    fn request(&self, from: WorkerId, to: WorkerId) {
        self.queue().push(NetAction::Request { from, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_yields_actions_in_call_order_then_empties() {
        let (w0, w1, w2) = (WorkerId::new(0), WorkerId::new(1), WorkerId::new(2));
        let t = QueueTransport::default();
        t.transfer(w0, w1, None);
        t.transfer(w1, w2, Some(9));
        t.request(w2, w0);
        assert_eq!(
            t.drain(),
            vec![
                NetAction::Transfer {
                    from: w0,
                    to: w1,
                    unit: None
                },
                NetAction::Transfer {
                    from: w1,
                    to: w2,
                    unit: Some(9)
                },
                NetAction::Request { from: w2, to: w0 },
            ]
        );
        assert!(t.drain().is_empty());
    }
}
