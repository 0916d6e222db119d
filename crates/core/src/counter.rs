//! The shared global occurrence counter, and the lazy argmax frontier the
//! selection kernels pick each seed from.
//!
//! [`GlobalCounter`] is the heart of EfficientIMM's parallelization strategy
//! (Algorithm 2 of the paper): instead of per-thread counters over vertex
//! partitions, all threads scatter atomic increments into a single
//! `counter[v]` array.
//!
//! The atomic used is a 64-bit fetch-add with relaxed ordering, which on
//! x86-64 compiles to the same `lock`-prefixed read-modify-write on a single
//! quadword that the paper highlights (`lock incq`/`lock xaddq`): only the
//! touched counter's cache line is locked, so unrelated counters never
//! contend.
//!
//! The paper finds each seed with a two-level parallel max reduction over
//! all n counters. Here an [`ArgmaxFrontier`] replaces it: a max-heap of
//! per-vertex bounds, built once from the counter and revalidated lazily.
//! Between counter rebuilds a selection only decrements counts, so every
//! bound stays at or above its live count, and the first top entry whose
//! bound equals its live count is the vertex the reduction would return —
//! the highest count, ties toward the smaller vertex id, vertex 0 when every
//! count is 0. A seed then costs the pops of the vertices whose counts fell,
//! not a pass over all n counters.

use crate::NodeId;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared per-vertex occurrence counter with concurrent updates.
#[derive(Debug)]
pub struct GlobalCounter {
    counts: Vec<AtomicU64>,
}

impl GlobalCounter {
    /// Zero-initialized counter for `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        let mut counts = Vec::with_capacity(num_nodes);
        counts.resize_with(num_nodes, || AtomicU64::new(0));
        GlobalCounter { counts }
    }

    /// Build from plain values (used to snapshot/restore around selections).
    pub fn from_values(values: &[u64]) -> Self {
        GlobalCounter { counts: values.iter().map(|&v| AtomicU64::new(v)).collect() }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the counter is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Atomically increment the counter of `v` (relaxed ordering — counts are
    /// only read after the parallel section joins, so no ordering beyond the
    /// RMW atomicity is needed).
    #[inline]
    pub fn increment(&self, v: NodeId) {
        self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Atomically decrement the counter of `v` (saturating at zero to guard
    /// against double-decrements from overlapping covered sets).
    #[inline]
    pub fn decrement(&self, v: NodeId) {
        let cell = &self.counts[v as usize];
        let mut current = cell.load(Ordering::Relaxed);
        while current > 0 {
            match cell.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Read one counter.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        self.counts[v as usize].load(Ordering::Relaxed)
    }

    /// Overwrite one counter.
    #[inline]
    pub fn set(&self, v: NodeId, value: u64) {
        self.counts[v as usize].store(value, Ordering::Relaxed);
    }

    /// Reset every counter to zero (parallel).
    pub fn reset(&self) {
        self.counts.par_iter().for_each(|c| c.store(0, Ordering::Relaxed));
    }

    /// Snapshot the counters into a plain vector.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Copy the values of another counter of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&self, other: &GlobalCounter) {
        assert_eq!(self.len(), other.len(), "counter length mismatch");
        self.counts
            .par_iter()
            .zip(other.counts.par_iter())
            .for_each(|(dst, src)| dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed));
    }
}

/// A lazily revalidated max-heap over per-vertex counts: the argmax of
/// counts that only fall, found without scanning all of them (CELF's lazy
/// evaluation, Leskovec et al., KDD 2007).
///
/// The frontier holds one `(bound, vertex)` entry per admitted vertex,
/// where the bound is the vertex's count when it was admitted. While the
/// live counts never rise above their bounds, [`ArgmaxFrontier::pop`]
/// returns exactly what a scan over the live counts returns: the highest
/// count, ties toward the smaller vertex id. A top entry whose bound equals
/// its live count beats every other entry's bound, hence every other live
/// count, and an equal count only from a larger id; a top entry whose bound
/// is stale is lowered to its live count and sifted down. So a pop touches
/// only vertices whose counts changed since they were admitted.
#[derive(Debug)]
pub struct ArgmaxFrontier {
    heap: BinaryHeap<(u64, Reverse<NodeId>)>,
}

impl ArgmaxFrontier {
    /// Admit vertex `v` with bound `counts[v]` for every `v`, in O(n).
    pub fn new(counts: impl IntoIterator<Item = u64>) -> Self {
        let entries: Vec<_> =
            counts.into_iter().enumerate().map(|(v, c)| (c, Reverse(v as NodeId))).collect();
        ArgmaxFrontier { heap: BinaryHeap::from(entries) }
    }

    /// Remove and return the vertex with the highest live count (ties
    /// toward the smaller id), with that count and the number of entries
    /// examined, the accepted one included. `live(v)` is `v`'s current
    /// count, which must not exceed the count `v` was admitted with.
    /// Returns `None` only when no vertex is admitted.
    ///
    /// The winner leaves the frontier; callers that may pick it again
    /// re-admit it with [`ArgmaxFrontier::push`] once its count is updated.
    pub fn pop(&mut self, live: impl Fn(NodeId) -> u64) -> Option<(NodeId, u64, u64)> {
        let mut examined = 0;
        loop {
            let mut top = self.heap.peek_mut()?;
            examined += 1;
            let (bound, Reverse(v)) = *top;
            let count = live(v);
            if count == bound {
                PeekMut::pop(top);
                return Some((v, count, examined));
            }
            debug_assert!(count < bound, "a live count rose above its bound");
            // Dropping the guard sifts the lowered entry down.
            top.0 = count;
        }
    }

    /// Admit `v` with its current count as its bound.
    pub fn push(&mut self, v: NodeId, count: u64) {
        self.heap.push((count, Reverse(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn increment_decrement_get() {
        let c = GlobalCounter::new(5);
        c.increment(3);
        c.increment(3);
        c.increment(1);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(0), 0);
        c.decrement(3);
        assert_eq!(c.get(3), 1);
        // Saturating at zero.
        c.decrement(0);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn reset_and_snapshot() {
        let c = GlobalCounter::new(4);
        c.increment(0);
        c.increment(2);
        assert_eq!(c.snapshot(), vec![1, 0, 1, 0]);
        c.reset();
        assert_eq!(c.snapshot(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn from_values_and_copy_from() {
        let a = GlobalCounter::from_values(&[5, 3, 9]);
        assert_eq!(a.get(2), 9);
        let b = GlobalCounter::new(3);
        b.copy_from(&a);
        assert_eq!(b.snapshot(), vec![5, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_rejects_length_mismatch() {
        GlobalCounter::new(2).copy_from(&GlobalCounter::new(3));
    }

    /// Pop from a frontier over `values`, reading them as the live counts.
    fn pop_live(frontier: &mut ArgmaxFrontier, values: &[u64]) -> Option<(NodeId, u64)> {
        frontier.pop(|v| values[v as usize]).map(|(v, count, _)| (v, count))
    }

    #[test]
    fn frontier_pops_the_unique_maximum() {
        let values = [3, 7, 2, 7, 9, 1];
        let mut frontier = ArgmaxFrontier::new(values);
        assert_eq!(pop_live(&mut frontier, &values), Some((4, 9)));
    }

    #[test]
    fn frontier_breaks_ties_toward_smaller_id() {
        let values = [1, 5, 5, 5];
        let mut frontier = ArgmaxFrontier::new(values);
        assert_eq!(pop_live(&mut frontier, &values), Some((1, 5)));
        // The winner left the frontier; the next tie goes to the next id.
        assert_eq!(pop_live(&mut frontier, &values), Some((2, 5)));
    }

    #[test]
    fn frontier_of_no_vertices_is_empty() {
        assert_eq!(pop_live(&mut ArgmaxFrontier::new([]), &[]), None);
    }

    #[test]
    fn all_zero_counts_pop_vertex_zero() {
        let mut frontier = ArgmaxFrontier::new([4, 2, 3]);
        assert_eq!(pop_live(&mut frontier, &[0, 0, 0]), Some((0, 0)));
    }

    #[test]
    fn stale_bounds_are_revalidated_and_counted() {
        // Bounds [2,4,2,2,3,1], live [1,0,2,2,1,1]: vertex 1 (bound 4, live
        // 0) and vertex 4 (bound 3, live 1) are stale; vertex 0 (bound 2,
        // live 1) is stale too; vertex 2 (bound 2, live 2) is accepted.
        let mut frontier = ArgmaxFrontier::new([2, 4, 2, 2, 3, 1]);
        let live = [1, 0, 2, 2, 1, 1];
        assert_eq!(frontier.pop(|v| live[v as usize]), Some((2, 2, 4)));
        assert_eq!(frontier.pop(|v| live[v as usize]), Some((3, 2, 1)));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = GlobalCounter::new(8);
        let increments_per_thread = 10_000u64;
        rayon::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for i in 0..increments_per_thread {
                        c.increment((i % 8) as NodeId);
                    }
                });
            }
        });
        let total: u64 = c.snapshot().iter().sum();
        assert_eq!(total, 4 * increments_per_thread);
    }

    /// The argmax a scan returns: the highest count, then the smallest id.
    fn naive_argmax(values: &[u64]) -> (NodeId, u64) {
        let best = (0..values.len()).max_by_key(|&v| (values[v], Reverse(v))).unwrap();
        (best as NodeId, values[best])
    }

    proptest! {
        #[test]
        fn frontier_pop_is_the_true_maximum(values in proptest::collection::vec(0u64..1000, 1..100)) {
            let mut frontier = ArgmaxFrontier::new(values.iter().copied());
            let (v, count) = pop_live(&mut frontier, &values).unwrap();
            prop_assert_eq!(count, *values.iter().max().unwrap());
            prop_assert_eq!(values[v as usize], count);
        }

        #[test]
        fn frontier_pops_match_a_naive_argmax_under_decrements(
            values in proptest::collection::vec(0u64..20, 1..60),
            steps in proptest::collection::vec(
                proptest::collection::vec((0usize..60, 1u64..5), 0..8),
                1..40,
            ),
        ) {
            let counter = GlobalCounter::from_values(&values);
            let mut frontier = ArgmaxFrontier::new(values.iter().copied());
            for decrements in steps {
                for (v, times) in decrements {
                    for _ in 0..times {
                        counter.decrement((v % values.len()) as NodeId);
                    }
                }
                let (v, count, examined) = frontier.pop(|v| counter.get(v)).unwrap();
                prop_assert_eq!((v, count), naive_argmax(&counter.snapshot()));
                prop_assert!(examined >= 1);
                frontier.push(v, count);
            }
        }
    }
}
