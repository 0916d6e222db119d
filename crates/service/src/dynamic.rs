//! Incremental sketch refresh under graph mutation.
//!
//! A [`SketchIndex`] built by the dynamic constructors ([`SketchIndex::sample`]
//! or [`SketchIndex::build_with_provenance`]) carries a [`SketchProvenance`]:
//! the sampling spec (diffusion model, base RNG seed, representation policy),
//! one [`SetProvenance`] per set (root + probed-edge footprint), and the log
//! of every delta applied so far. [`SketchIndex::apply_delta`] then refreshes
//! the index against a [`GraphDelta`] without a full rebuild:
//!
//! 1. **Invalidate.** RNG draws during reverse sampling happen only while
//!    scanning the in-edges of *visited* vertices, so a delta touching edge
//!    `(u, v)` can only affect sets whose membership contains `v` — the
//!    inverted postings give those directly. For per-edge-frozen weight
//!    models (constant / uniform-IC) deletions and reweights are pruned
//!    further: a set is kept if its footprint proves the edge was never
//!    probed. Degree-normalized models skip the pruning because the delta
//!    also reweights the destination's *other* in-edges.
//! 2. **Resample.** Only the invalidated set indices are regenerated, each
//!    from its original RNG stream `(rng_seed, set_index)` on the mutated
//!    graph — exactly what a from-scratch rebuild would produce at the same
//!    index. `GraphDelta::apply` preserves in-neighbor scan order for
//!    untouched destinations, so every *kept* set is also byte-identical to
//!    its from-scratch counterpart. This pair of facts is the correctness
//!    anchor the differential test suite pins down.
//! 3. **Swap and rebuild.** The resampled sets and their provenance records
//!    are swapped in, the delta is appended to the log, and the postings of
//!    every segment owning a resampled set are rebuilt — the whole index for
//!    a [`SketchIndex`], only the dirty shards for a sharded index.
//!
//! Both layouts run these steps through [`refresh_sets`]. The query layer
//! integrates via `imm_shard::ShardedEngine::apply_delta`, which refreshes
//! its sharded index, then resets the shared greedy prefix and drops the
//! response cache so no stale answer survives the mutation.

use crate::index::{IndexError, IndexMeta, PostingsStore, SketchIndex};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{
    generate_indexed_rrr_set, generate_rrr_sets_traced, SamplingConfig, VisitMarker,
};
use imm_diffusion::DiffusionModel;
use imm_graph::{CsrGraph, DeltaError, EdgeWeights, GraphDelta, WeightModel};
use imm_rrr::{AdaptivePolicy, NodeId, RrrCollection, RrrSet, SetProvenance};
use parking_lot::Mutex;

/// How a dynamic index was sampled — everything needed to regenerate any of
/// its sets deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSpec {
    /// Diffusion model the sets were sampled under.
    pub model: DiffusionModel,
    /// Base RNG seed; set `i` derives its stream from `(rng_seed, i)`.
    pub rng_seed: u64,
    /// Representation policy applied to each regenerated set.
    pub policy: AdaptivePolicy,
}

impl SampleSpec {
    /// Spec with the default adaptive representation policy.
    pub fn new(model: DiffusionModel, rng_seed: u64) -> Self {
        SampleSpec { model, rng_seed, policy: AdaptivePolicy::default() }
    }

    /// Replace the representation policy.
    pub fn with_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One applied delta, kept in the provenance log for audit and replay
/// (`update-index` reconstructs the current graph by replaying the log
/// against the original source).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaLogEntry {
    /// The applied mutation batch.
    pub delta: GraphDelta,
    /// How many sets the batch invalidated and resampled.
    pub resampled_sets: u64,
}

/// Full sampling provenance of a dynamic index.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchProvenance {
    /// The sampling spec.
    pub spec: SampleSpec,
    /// Per-set records, aligned with the indexed collection.
    pub sets: Vec<SetProvenance>,
    /// Every delta applied since the initial sample, in order.
    pub delta_log: Vec<DeltaLogEntry>,
}

/// What one [`SketchIndex::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStats {
    /// Sets in the index (θ; unchanged by a refresh).
    pub total_sets: usize,
    /// Sets invalidated and resampled by this delta.
    pub resampled_sets: usize,
    /// Edge insertions applied.
    pub inserted_edges: usize,
    /// Edge deletions applied.
    pub deleted_edges: usize,
    /// Edge weight updates applied.
    pub reweighted_edges: usize,
    /// Directed edges of the mutated graph.
    pub num_edges_after: usize,
}

impl RefreshStats {
    /// Fraction of the index that was resampled (0 for an empty index).
    pub fn resampled_fraction(&self) -> f64 {
        if self.total_sets == 0 {
            0.0
        } else {
            self.resampled_sets as f64 / self.total_sets as f64
        }
    }
}

/// Errors produced by [`SketchIndex::apply_delta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// The index carries no provenance (built by a static constructor or
    /// loaded from a v1 snapshot) and cannot be refreshed incrementally.
    NotDynamic,
    /// The provided graph is not the revision the index was built on.
    GraphMismatch {
        /// Vertices/edges the index expects.
        expected: (usize, usize),
        /// Vertices/edges of the provided graph.
        found: (usize, usize),
    },
    /// The delta failed to validate or apply.
    Delta(DeltaError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::NotDynamic => {
                write!(f, "index has no sampling provenance; rebuild it with a dynamic constructor")
            }
            DynamicError::GraphMismatch { expected, found } => write!(
                f,
                "index was built over {} vertices / {} edges but the provided graph has {} / {}",
                expected.0, expected.1, found.0, found.1
            ),
            DynamicError::Delta(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeltaError> for DynamicError {
    fn from(e: DeltaError) -> Self {
        DynamicError::Delta(e)
    }
}

/// Which sets does `delta` invalidate? — the predicate of [`refresh_sets`]:
/// sets containing a touched edge's destination (exact superset of the
/// affected sets), footprint-pruned for per-edge-frozen weight models (see
/// the module docs for why degree-normalized models must not prune).
///
/// `postings_of(v, sink)` must call `sink(set_id)` for every set containing
/// `v` — the single index walks its global postings, a sharded index walks
/// each shard's local postings rebased by its range start.
fn invalidated_sets(
    delta: &GraphDelta,
    weights: &EdgeWeights,
    provenance: &SketchProvenance,
    num_sets: usize,
    mut postings_of: impl FnMut(NodeId, &mut dyn FnMut(usize)),
) -> Vec<usize> {
    crate::metrics::register();
    let per_edge_frozen = matches!(weights.model(), WeightModel::Constant | WeightModel::IcUniform);
    let mut invalid = vec![false; num_sets];
    for &(_, dst, _) in delta.insertions() {
        postings_of(dst, &mut |sid| invalid[sid] = true);
    }
    let mut footprint_skips = 0u64;
    let prunable =
        delta.deletions().iter().copied().chain(delta.reweights().iter().map(|&(s, d, _)| (s, d)));
    for (src, dst) in prunable {
        postings_of(dst, &mut |sid| {
            if !per_edge_frozen || provenance.sets[sid].footprint.may_contain(src, dst) {
                invalid[sid] = true;
            } else {
                footprint_skips += 1;
            }
        });
    }
    let ids: Vec<usize> =
        invalid.iter().enumerate().filter(|&(_, &flag)| flag).map(|(i, _)| i).collect();
    // Refresh metrics are recorded in the shared predicate so the
    // single-index and shard-routed paths can never diverge in coverage.
    let edges = delta.insertions().len() + delta.deletions().len() + delta.reweights().len();
    crate::metrics::DELTA_EDGES_APPLIED.add(edges as u64);
    crate::metrics::DELTA_SETS_INVALIDATED.add(ids.len() as u64);
    crate::metrics::DELTA_FOOTPRINT_SKIPS.add(footprint_skips);
    ids
}

/// Resample the sets at `ids` from their original RNG streams
/// `(spec.rng_seed, id)` on the mutated graph — exactly what a from-scratch
/// rebuild would produce at those indices. Chunked across worker threads;
/// the output is deterministic (sorted by id, every id owns its stream).
fn resample_sets(
    spec: SampleSpec,
    ids: &[usize],
    new_graph: &CsrGraph,
    new_weights: &EdgeWeights,
    num_nodes: usize,
) -> Vec<(usize, RrrSet, SetProvenance)> {
    if ids.is_empty() {
        return Vec::new();
    }
    crate::metrics::DELTA_SETS_RESAMPLED.add(ids.len() as u64);
    let collected: Mutex<Vec<(usize, RrrSet, SetProvenance)>> =
        Mutex::new(Vec::with_capacity(ids.len()));
    let workers = rayon::current_num_threads().min(ids.len());
    let chunk_size = ids.len().div_ceil(workers);
    rayon::scope(|scope| {
        for chunk in ids.chunks(chunk_size) {
            let collected = &collected;
            scope.spawn(move |_| {
                let mut marker = VisitMarker::new(num_nodes);
                let mut local = Vec::with_capacity(chunk.len());
                for &sid in chunk {
                    let (vertices, record) = generate_indexed_rrr_set(
                        new_graph,
                        new_weights,
                        spec.model,
                        spec.rng_seed,
                        sid,
                        &mut marker,
                    );
                    let set = RrrSet::from_vertices(vertices, num_nodes, &spec.policy);
                    local.push((sid, set, record));
                }
                collected.lock().append(&mut local);
            });
        }
    });
    let mut changed = collected.into_inner();
    changed.sort_unstable_by_key(|(sid, _, _)| *sid);
    changed
}

impl SketchIndex {
    /// Sample `theta` RRR sets over `graph` + `weights` and freeze them into
    /// a dynamic (provenance-carrying) index.
    ///
    /// Set `i` always comes from RNG stream `(spec.rng_seed, i)`, so two
    /// calls with the same inputs build byte-identical indexes regardless of
    /// `threads` — and [`apply_delta`](SketchIndex::apply_delta) can later
    /// regenerate any individual set.
    pub fn sample(
        graph: &CsrGraph,
        weights: &EdgeWeights,
        spec: SampleSpec,
        theta: usize,
        threads: usize,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build sampling thread pool");
        let out = generate_rrr_sets_traced(
            graph,
            weights,
            theta,
            0,
            &SamplingConfig {
                model: spec.model,
                rng_seed: spec.rng_seed,
                policy: spec.policy,
                schedule: Schedule::Dynamic { chunk: 32 },
                threads,
                fused_counter: None,
            },
            &pool,
        );
        let records = out.provenance.expect("traced sampling records provenance");
        Self::build_with_provenance(graph, out.sets, records, spec, label)
    }

    /// Freeze an externally sampled collection + provenance (e.g. from
    /// `run_imm` with `retain_rrr_sets` and `trace_provenance`) into a
    /// dynamic index.
    pub fn build_with_provenance(
        graph: &CsrGraph,
        collection: RrrCollection,
        records: Vec<SetProvenance>,
        spec: SampleSpec,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        if records.len() != collection.len() {
            return Err(IndexError::ProvenanceMismatch {
                sets: collection.len(),
                records: records.len(),
            });
        }
        let mut index = Self::build(graph, collection, label)?;
        index.provenance = Some(SketchProvenance { spec, sets: records, delta_log: Vec::new() });
        Ok(index)
    }

    /// Attach provenance to an already built index (snapshot loading).
    pub(crate) fn attach_provenance(
        &mut self,
        provenance: SketchProvenance,
    ) -> Result<(), IndexError> {
        if provenance.sets.len() != self.num_sets() {
            return Err(IndexError::ProvenanceMismatch {
                sets: self.num_sets(),
                records: provenance.sets.len(),
            });
        }
        self.provenance = Some(provenance);
        Ok(())
    }

    /// Refresh the index against `delta`.
    ///
    /// `graph` + `weights` must be the revision the index currently
    /// describes. Returns the mutated graph/weights (the inputs are left
    /// untouched — keep the returned pair for the next delta) and the
    /// refresh statistics. On success the index is byte-identical to a
    /// from-scratch [`SketchIndex::sample`] over the mutated pair with the
    /// same spec and θ, at a fraction of the sampling cost.
    ///
    /// This is the one-segment case of [`refresh_sets`]: when any set was
    /// resampled, the postings are rebuilt over the whole collection.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let postings = &self.postings;
        let (new_graph, new_weights, stats, replaced) = refresh_sets(
            &mut self.sets,
            &mut self.meta,
            self.provenance.as_mut(),
            graph,
            weights,
            delta,
            |v, sink| postings.get(v).iter().for_each(|&sid| sink(sid as usize)),
        )?;
        if !replaced.is_empty() {
            self.postings = PostingsStore::build(self.sets.slice(0, self.sets.len()))
                .expect("resampled sets stay inside the vertex space");
        }
        Ok((new_graph, new_weights, stats))
    }
}

/// The refresh every index layout runs — a [`SketchIndex`] and a sharded
/// index alike, so the two can never drift.
///
/// Checks that `graph` + `weights` are the revision `meta` describes,
/// applies `delta`, invalidates through `postings_of` (which must call
/// `sink(set_id)` for every set containing the vertex) and the shared
/// predicate, resamples the invalidated sets from their original RNG
/// streams, swaps them and their provenance records into `sets`, and logs
/// the delta. Returns the mutated graph/weights, the refresh statistics and
/// the ids of the replaced sets in increasing order: the caller rebuilds
/// the postings covering them.
pub fn refresh_sets(
    sets: &mut RrrCollection,
    meta: &mut IndexMeta,
    provenance: Option<&mut SketchProvenance>,
    graph: &CsrGraph,
    weights: &EdgeWeights,
    delta: &GraphDelta,
    postings_of: impl FnMut(NodeId, &mut dyn FnMut(usize)),
) -> Result<(CsrGraph, EdgeWeights, RefreshStats, Vec<usize>), DynamicError> {
    let provenance = provenance.ok_or(DynamicError::NotDynamic)?;
    if graph.num_nodes() != sets.num_nodes() || graph.num_edges() != meta.num_edges {
        return Err(DynamicError::GraphMismatch {
            expected: (sets.num_nodes(), meta.num_edges),
            found: (graph.num_nodes(), graph.num_edges()),
        });
    }
    let (new_graph, new_weights) = delta.apply(graph, weights)?;
    let invalid_ids = invalidated_sets(delta, weights, provenance, sets.len(), postings_of);
    let changed =
        resample_sets(provenance.spec, &invalid_ids, &new_graph, &new_weights, sets.num_nodes());

    let stats = RefreshStats {
        total_sets: sets.len(),
        resampled_sets: changed.len(),
        inserted_edges: delta.insertions().len(),
        deleted_edges: delta.deletions().len(),
        reweighted_edges: delta.reweights().len(),
        num_edges_after: new_graph.num_edges(),
    };
    let mut replaced = Vec::with_capacity(changed.len());
    for (sid, set, record) in changed {
        sets.replace(sid, set);
        provenance.sets[sid] = record;
        replaced.push(sid);
    }
    provenance
        .delta_log
        .push(DeltaLogEntry { delta: delta.clone(), resampled_sets: stats.resampled_sets as u64 });
    meta.num_edges = new_graph.num_edges();
    Ok((new_graph, new_weights, stats, replaced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture(n: usize, seed: u64) -> (CsrGraph, EdgeWeights) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = CsrGraph::from_edge_list(&generators::social_network(n, 5, 0.3, &mut rng));
        let w = EdgeWeights::constant(&g, 0.2);
        (g, w)
    }

    #[test]
    fn sample_is_deterministic_across_thread_counts() {
        let (g, w) = fixture(120, 1);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 7);
        let a = SketchIndex::sample(&g, &w, spec, 200, 1, "a").unwrap();
        let b = SketchIndex::sample(&g, &w, spec, 200, 4, "a").unwrap();
        assert_eq!(a, b);
        assert!(a.is_dynamic());
        assert_eq!(a.provenance().unwrap().sets.len(), 200);
    }

    #[test]
    fn apply_delta_matches_a_full_rebuild() {
        let (g, w) = fixture(150, 2);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 11);
        let mut index = SketchIndex::sample(&g, &w, spec, 300, 2, "delta").unwrap();

        let (del_src, del_dst) = g.edges().next().expect("graph has edges");
        let delta =
            GraphDelta::new().insert(3, 77, 0.8).insert(140, 9, 0.6).delete(del_src, del_dst);
        let (g2, w2, stats) = index.apply_delta(&g, &w, &delta).unwrap();
        assert_eq!(stats.total_sets, 300);
        assert!(stats.resampled_sets <= 300);
        assert_eq!(stats.num_edges_after, g2.num_edges());

        let rebuilt = SketchIndex::sample(&g2, &w2, spec, 300, 2, "delta").unwrap();
        assert_eq!(index.sets(), rebuilt.sets(), "kept + resampled sets must match a rebuild");
        assert_eq!(index.provenance().unwrap().sets, rebuilt.provenance().unwrap().sets);
        for v in 0..150u32 {
            assert_eq!(index.postings(v), rebuilt.postings(v), "postings of vertex {v}");
        }
        assert_eq!(index.meta().num_edges, g2.num_edges());
        assert_eq!(index.provenance().unwrap().delta_log.len(), 1);
    }

    #[test]
    fn deltas_chain_across_revisions() {
        let (g0, w0) = fixture(100, 3);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 5);
        let mut index = SketchIndex::sample(&g0, &w0, spec, 150, 2, "chain").unwrap();

        let d1 = GraphDelta::new().insert(1, 2, 0.9);
        let (g1, w1, _) = index.apply_delta(&g0, &w0, &d1).unwrap();
        let d2 = GraphDelta::new().delete(1, 2).insert(4, 5, 0.3);
        let (g2, w2, _) = index.apply_delta(&g1, &w1, &d2).unwrap();

        let rebuilt = SketchIndex::sample(&g2, &w2, spec, 150, 2, "chain").unwrap();
        assert_eq!(index.sets(), rebuilt.sets());
        assert_eq!(index.provenance().unwrap().delta_log.len(), 2);
    }

    #[test]
    fn stale_graph_revision_is_rejected() {
        let (g, w) = fixture(80, 4);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 5);
        let mut index = SketchIndex::sample(&g, &w, spec, 50, 1, "stale").unwrap();
        let delta = GraphDelta::new().insert(0, 1, 0.5);
        let (g1, w1, _) = index.apply_delta(&g, &w, &delta).unwrap();
        // Passing the pre-delta graph again must be rejected (edge count moved).
        assert!(matches!(
            index.apply_delta(&g, &w, &delta),
            Err(DynamicError::GraphMismatch { .. })
        ));
        // The current revision is accepted.
        assert!(index.apply_delta(&g1, &w1, &GraphDelta::new().delete(0, 1)).is_ok());
    }

    #[test]
    fn static_indexes_refuse_apply_delta() {
        let (g, w) = fixture(60, 5);
        let mut c = RrrCollection::new(60);
        c.push(RrrSet::sorted(vec![0, 1]));
        let mut index = SketchIndex::build(&g, c, "static").unwrap();
        assert!(!index.is_dynamic());
        assert_eq!(index.apply_delta(&g, &w, &GraphDelta::new()), Err(DynamicError::NotDynamic));
    }

    #[test]
    fn untouched_destinations_invalidate_nothing() {
        let (g, w) = fixture(100, 6);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 9);
        let mut index = SketchIndex::sample(&g, &w, spec, 120, 2, "untouched").unwrap();
        // An isolated self-contained mutation: insert an edge into a vertex
        // covered by few sets; only those sets may resample.
        let dst = (0..100u32).min_by_key(|&v| index.postings(v).len()).unwrap();
        let upper_bound = index.postings(dst).len();
        let (_, _, stats) =
            index.apply_delta(&g, &w, &GraphDelta::new().insert(0, dst, 0.5)).unwrap();
        assert!(
            stats.resampled_sets <= upper_bound,
            "resampled {} sets but only {upper_bound} contain vertex {dst}",
            stats.resampled_sets
        );
    }

    #[test]
    fn build_with_provenance_validates_alignment() {
        let (g, _) = fixture(50, 7);
        let mut c = RrrCollection::new(50);
        c.push(RrrSet::sorted(vec![0]));
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 1);
        assert_eq!(
            SketchIndex::build_with_provenance(&g, c, Vec::new(), spec, "bad"),
            Err(IndexError::ProvenanceMismatch { sets: 1, records: 0 })
        );
    }
}
