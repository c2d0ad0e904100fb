//! Per-partition vertex state: values and halt votes — the one vertex
//! state of every host. The thread engine, the simulator and the networked
//! worker each keep a [`PartitionData`] per partition they run, and
//! [`crate::Cycle::run_vertex`] is what reads and writes it.
//!
//! Each partition's state is owned by exactly one compute thread at a time
//! (the engine wraps it in a mutex locked for the whole partition
//! execution), which is precisely Giraph's "vertices in each partition are
//! executed sequentially" discipline (Section 5.1).
//!
//! Halt votes are encapsulated behind [`PartitionData::halted`] /
//! [`PartitionData::set_halted`] so the partition can maintain an exact
//! active-vertex counter: the master's convergence check and the workers'
//! `partition_has_work` probe run every round over every partition, and an
//! O(n) scan there is pure waste when halt transitions are the only thing
//! that can change the count.

use crate::program::VertexProgram;
use crate::store::PartitionStore;
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId};
use std::ops::Deref;

/// State of one partition's vertices. Index `i` corresponds to the `i`-th
/// vertex of the partition in ascending id order.
#[derive(Debug)]
pub struct PartitionData<V> {
    /// Which partition this is: where its inbox sits in an `InboxPair`.
    partition: PartitionId,
    /// The vertices of this partition, ascending.
    pub vertices: Vec<VertexId>,
    /// Vertex values, parallel to `vertices`.
    pub values: Vec<V>,
    /// Halt votes, parallel to `vertices`. A halted vertex executes again
    /// only when it receives a message (Pregel reactivation).
    halted: Vec<bool>,
    /// Exact count of `false` entries in `halted`, updated on every halt
    /// transition.
    active: usize,
}

impl<V> PartitionData<V> {
    /// Partition `partition`, with all vertices active and the given
    /// initial values.
    pub fn new(partition: PartitionId, vertices: Vec<VertexId>, values: Vec<V>) -> Self {
        assert_eq!(vertices.len(), values.len());
        let n = vertices.len();
        Self {
            partition,
            vertices,
            values,
            halted: vec![false; n],
            active: n,
        }
    }

    /// Partition `p` of `pm` as a run starts it: every vertex active, at
    /// `program`'s initial value.
    pub fn init<P>(program: &P, graph: &Graph, pm: &PartitionMap, p: PartitionId) -> Self
    where
        P: VertexProgram<Value = V>,
    {
        let vertices = pm.vertices_in(p);
        let values = vertices.iter().map(|&v| program.init(v, graph)).collect();
        Self::new(p, vertices.to_vec(), values)
    }

    /// Which partition this is.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Number of vertices in the partition.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` for an empty partition.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Halt vote of the `i`-th vertex.
    pub fn halted(&self, i: usize) -> bool {
        self.halted[i]
    }

    /// Set the halt vote of the `i`-th vertex, keeping the active counter
    /// exact.
    pub fn set_halted(&mut self, i: usize, halt: bool) {
        let was = self.halted[i];
        if was != halt {
            self.halted[i] = halt;
            if halt {
                self.active -= 1;
            } else {
                self.active += 1;
            }
        }
    }

    /// `true` if any vertex is still active.
    pub fn any_active(&self) -> bool {
        self.active != 0
    }

    /// Pregel's activity test for the `i`-th vertex, `store` being the
    /// partition's inbox: it runs if it has not voted to halt, or has mail.
    #[inline]
    pub fn awake<M: Clone + Send + 'static>(&self, store: &PartitionStore<M>, i: usize) -> bool {
        !self.halted[i] || store.has_messages(i)
    }

    /// Has the partition work — an active vertex, or mail in `store`?
    pub fn has_work<M: Clone + Send + 'static>(&self, store: &PartitionStore<M>) -> bool {
        self.any_active() || store.total() > 0
    }

    /// Number of vertices [`PartitionData::awake`] holds for.
    pub fn awake_count<M: Clone + Send + 'static>(&self, store: &PartitionStore<M>) -> usize {
        (0..self.len()).filter(|&i| self.awake(store, i)).count()
    }

    /// Number of vertices that have not voted to halt.
    pub fn active_count(&self) -> usize {
        debug_assert_eq!(
            self.active,
            self.halted.iter().filter(|h| !**h).count(),
            "active counter out of sync with halt votes"
        );
        self.active
    }

    /// Snapshot the halt votes (checkpointing).
    pub fn halted_snapshot(&self) -> Vec<bool> {
        self.halted.clone()
    }

    /// Replace all halt votes at once (checkpoint restore), resetting the
    /// active counter from the restored votes.
    pub fn restore_halted(&mut self, halted: Vec<bool>) {
        assert_eq!(halted.len(), self.vertices.len());
        self.active = halted.iter().filter(|h| !**h).count();
        self.halted = halted;
    }
}

/// Assemble a run's result: every partition's values, indexed by vertex
/// id over a graph of `n` vertices.
///
/// # Panics
/// Panics if some vertex below `n` belongs to no partition.
pub fn gather_values<V: Clone, D: Deref<Target = PartitionData<V>>>(
    partitions: impl IntoIterator<Item = D>,
    n: usize,
) -> Vec<V> {
    let mut by_vertex: Vec<Option<V>> = vec![None; n];
    for d in partitions {
        for (&v, value) in d.vertices.iter().zip(&d.values) {
            by_vertex[v.index()] = Some(value.clone());
        }
    }
    by_vertex
        .into_iter()
        .map(|v| v.expect("vertex unassigned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn gather_orders_values_by_vertex_id() {
        let a = PartitionData::new(
            p(0),
            vec![VertexId::new(2), VertexId::new(0)],
            vec!['c', 'a'],
        );
        let b = PartitionData::new(p(1), vec![VertexId::new(1)], vec!['b']);
        assert_eq!(gather_values([&a, &b], 3), ['a', 'b', 'c']);
    }

    #[test]
    fn starts_fully_active() {
        let d = PartitionData::new(
            p(0),
            vec![VertexId::new(3), VertexId::new(7)],
            vec![0u32, 1],
        );
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.active_count(), 2);
        assert!(d.any_active());
    }

    #[test]
    fn halting_reduces_active_count() {
        let mut d = PartitionData::new(p(0), vec![VertexId::new(0)], vec![0u32]);
        d.set_halted(0, true);
        assert!(d.halted(0));
        assert_eq!(d.active_count(), 0);
        assert!(!d.any_active());
    }

    #[test]
    fn counter_tracks_reactivation_and_idempotent_votes() {
        let mut d = PartitionData::new(p(0), (0..4).map(VertexId::new).collect(), vec![0u32; 4]);
        d.set_halted(1, true);
        d.set_halted(1, true); // repeat vote must not double-decrement
        d.set_halted(3, true);
        assert_eq!(d.active_count(), 2);
        d.set_halted(1, false); // Pregel reactivation
        d.set_halted(1, false);
        assert_eq!(d.active_count(), 3);
    }

    #[test]
    fn restore_resets_counter() {
        let mut d = PartitionData::new(p(0), (0..3).map(VertexId::new).collect(), vec![0u32; 3]);
        d.set_halted(0, true);
        assert_eq!(d.halted_snapshot(), vec![true, false, false]);
        d.restore_halted(vec![true, true, false]);
        assert_eq!(d.active_count(), 1);
        d.restore_halted(vec![false, false, false]);
        assert_eq!(d.active_count(), 3);
    }

    #[test]
    fn awake_means_not_halted_or_has_mail() {
        let mut d = PartitionData::new(p(0), (0..3).map(VertexId::new).collect(), vec![0u32; 3]);
        let store = PartitionStore::new(3);
        d.set_halted(0, true);
        d.set_halted(1, true);
        d.set_halted(2, true);
        assert!(!d.has_work(&store));
        store.insert(1, VertexId::new(0), 7u32, None);
        assert!(d.has_work(&store));
        assert_eq!((d.awake(&store, 0), d.awake(&store, 1)), (false, true));
        d.set_halted(2, false);
        assert_eq!(d.awake_count(&store), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        PartitionData::new(p(0), vec![VertexId::new(0)], Vec::<u32>::new());
    }

    #[test]
    fn empty_partition() {
        let d = PartitionData::<u32>::new(p(0), vec![], vec![]);
        assert!(d.is_empty());
        assert_eq!(d.active_count(), 0);
        assert!(!d.any_active());
    }
}
