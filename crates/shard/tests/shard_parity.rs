//! The acceptance property of the query engine: for **every** shard count
//! (one shard being the single index) and worker-thread count, the
//! `ShardedEngine` answers the full query vocabulary — Top-K (plain and
//! audience-masked), Spread, Marginal — **byte-identically** to the batch
//! references over the same sampled collection (`select_seeds` for Top-K,
//! over the audience-relevant sub-collection for masked Top-K; the
//! collection's coverage estimators for Spread/Marginal), under both
//! diffusion models, and keeps doing so after incremental refresh
//! (`apply_delta`) runs through the shard map — whose stats and collection
//! must equal `SketchIndex::apply_delta`'s.
//!
//! "Byte-identical" is literal: responses are compared with `==` on
//! `QueryResponse`, including the floating-point estimates — engine and
//! reference derive them from the same integer tallies with the same
//! operations.

mod common;

use common::Reference;
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
use imm_service::{IndexMeta, Query, QueryResponse, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex, WakeMode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const THETA: usize = 150;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn fixture(model: DiffusionModel, graph_seed: u64) -> (CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 5, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::constant(&graph, 0.2),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    (graph, weights)
}

/// The query battery the engine must answer like the references: Top-K budgets asked out of
/// order (exercising the shared prefix), spreads and marginals over seeded
/// random vertex lists, and audience-masked Top-K over random slices.
fn query_battery(num_nodes: usize, probe_seed: u64) -> Vec<Query> {
    let mut probe = SmallRng::seed_from_u64(probe_seed);
    let n = num_nodes as u32;
    let mut queries: Vec<Query> = [1usize, 8, 3, 15, 8].into_iter().map(Query::top_k).collect();
    for _ in 0..4 {
        let seeds: Vec<NodeId> =
            (0..probe.gen_range(1..4)).map(|_| probe.gen_range(0..n)).collect();
        queries.push(Query::Spread { seeds });
    }
    for _ in 0..4 {
        let seeds: Vec<NodeId> =
            (0..probe.gen_range(1..3)).map(|_| probe.gen_range(0..n)).collect();
        queries.push(Query::Marginal { seeds, candidate: probe.gen_range(0..n) });
    }
    for _ in 0..3 {
        let audience = BitSet::from_iter_with_capacity(
            num_nodes,
            (0..probe.gen_range(1..20)).map(|_| probe.gen_range(0..num_nodes)),
        );
        queries.push(Query::audience_top_k(probe.gen_range(1..6), audience));
    }
    queries
}

/// The reference answers to `queries` over `collection`.
fn expected_answers(collection: &RrrCollection, queries: &[Query]) -> Vec<QueryResponse> {
    let reference = Reference::new(collection);
    queries.iter().map(|q| reference.answer(q)).collect()
}

fn assert_engine_agrees(
    expected: &[QueryResponse],
    sharded: &ShardedEngine,
    queries: &[Query],
    context: &str,
) {
    for (i, query) in queries.iter().enumerate() {
        let got = sharded.execute_uncached(query);
        assert_eq!(got, expected[i], "{context}: query {i} ({query:?}) diverged");
    }
    // The batch path must agree too (and with itself across thread counts).
    for &threads in &THREAD_COUNTS {
        let batch = sharded.execute_batch(queries, threads);
        assert_eq!(batch, expected, "{context}: batch diverged at {threads} batch threads");
    }
}

/// The acceptance grid: shard counts 1/2/4/7 × scatter widths 1/2/4 × both
/// models, before and after a shard-routed incremental refresh.
#[test]
fn sharded_serving_is_byte_identical_across_the_grid() {
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, 0xA5);
        let spec = SampleSpec::new(model, 0x5EED);
        let index =
            SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");

        // One delta batch: insertions plus a real deletion and reweight,
        // then a second chained batch. The reference refresh is the
        // single-index `SketchIndex::apply_delta`.
        let (del_src, del_dst) = graph.edges().next().expect("graph has edges");
        let (rw_src, rw_dst) = graph.edges().nth(7).expect("graph has > 7 edges");
        let delta = GraphDelta::new()
            .insert(3, 77, 0.8)
            .insert(110, 9, 0.6)
            .delete(del_src, del_dst)
            .reweight(rw_src, rw_dst, 0.4);
        let delta2 = GraphDelta::new().delete(3, 77).insert(50, 51, 0.7);
        let mut refreshed = index.clone();
        let (g1, w1, stats1) =
            refreshed.apply_delta(&graph, &weights, &delta).expect("reference refresh");
        let mut refreshed2 = refreshed.clone();
        let (_, _, stats2) = refreshed2.apply_delta(&g1, &w1, &delta2).expect("reference delta 2");

        for shards in SHARD_COUNTS {
            let queries = query_battery(graph.num_nodes(), 0xBEE5 ^ shards as u64);
            let before = expected_answers(index.sets(), &queries);
            let after = expected_answers(refreshed.sets(), &queries);
            let after2 = expected_answers(refreshed2.sets(), &queries);
            for threads in THREAD_COUNTS {
                let context = format!("{model:?}, {shards} shards, {threads} threads");
                let sharded_index =
                    ShardedIndex::from_index(index.clone(), shards).expect("shardable");
                assert_eq!(sharded_index.num_shards(), shards);
                let mut sharded = ShardedEngine::with_options(Arc::new(sharded_index), threads, 64);
                assert_engine_agrees(&before, &sharded, &queries, &context);

                // Incremental refresh through the shard map: the refresh
                // stats and collection must equal the reference refresh's,
                // and the refreshed answers must again be byte-identical.
                let (g2, w2, sharded_stats) =
                    sharded.apply_delta(&graph, &weights, &delta).expect("sharded refresh");
                assert_eq!(sharded_stats, stats1, "{context}: refresh stats diverged");
                assert_eq!(g1.num_edges(), g2.num_edges());
                assert_eq!(
                    refreshed.sets(),
                    sharded.index().collection(),
                    "{context}: refreshed collections diverged"
                );
                assert_engine_agrees(&after, &sharded, &queries, &format!("{context}, post-delta"));

                // And a second chained delta keeps engine and reference in
                // lockstep.
                let (_, _, s2) = sharded.apply_delta(&g2, &w2, &delta2).expect("sharded delta 2");
                assert_eq!(s2, stats2);
                assert_eq!(refreshed2.sets(), sharded.index().collection());
                assert_engine_agrees(
                    &after2,
                    &sharded,
                    &queries,
                    &format!("{context}, post-delta-2"),
                );
            }
        }
    }
}

/// Forced cross-thread serving: [`WakeMode::Always`] spawns pinned workers
/// even on a single hardware thread, so every scatter really crosses the
/// request/response channels. The answers must stay byte-identical to the
/// references — parity may not depend on the inline fast path.
#[test]
fn forced_worker_mode_stays_byte_identical() {
    let model = DiffusionModel::IndependentCascade;
    let (graph, weights) = fixture(model, 0xA5);
    let spec = SampleSpec::new(model, 0x5EED);
    let index = SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");
    for shards in SHARD_COUNTS {
        let queries = query_battery(graph.num_nodes(), 0xF0CC ^ shards as u64);
        let expected = expected_answers(index.sets(), &queries);
        for threads in [2usize, 4] {
            let context = format!("forced workers, {shards} shards, {threads} threads");
            let sharded = ShardedEngine::with_runtime(
                Arc::new(ShardedIndex::from_index(index.clone(), shards).expect("shardable")),
                threads,
                64,
                WakeMode::Always,
            );
            assert!(sharded.num_workers() >= 1, "{context}: expected pinned workers");
            assert_engine_agrees(&expected, &sharded, &queries, &context);
        }
    }
}

/// A split whose shard count exceeds θ degenerates to empty shards — the
/// engine must still agree with the references.
#[test]
fn more_shards_than_sets_still_serve_identically() {
    let mut c = RrrCollection::new(10);
    for s in [vec![0u32, 1], vec![2], vec![1, 3, 4]] {
        c.push(imm_rrr::RrrSet::sorted(s));
    }
    let queries = query_battery(10, 99);
    let expected = expected_answers(&c, &queries);
    let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
    let sharded = ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 7).unwrap()));
    assert_engine_agrees(&expected, &sharded, &queries, "7 shards over 3 sets");
}

proptest! {
    /// Reference parity over arbitrary collections (mixed representations,
    /// empty sets, duplicate members across sets) × arbitrary shard counts.
    #[test]
    fn arbitrary_collections_serve_identically(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..80, 0..30),
            0..25,
        ),
        bitmap_choices in proptest::collection::vec(any::<bool>(), 0..25),
        shards in 1usize..9,
        probe_seed in 0u64..1_000_000,
    ) {
        let num_nodes = 80usize;
        let mut c = RrrCollection::new(num_nodes);
        for (i, s) in raw_sets.iter().enumerate() {
            let vertices: Vec<u32> = s.iter().copied().collect();
            let policy = if bitmap_choices.get(i).copied().unwrap_or(false) {
                AdaptivePolicy::always_bitmap()
            } else {
                AdaptivePolicy::always_sorted()
            };
            c.push_vertices(vertices, &policy);
        }
        let reference = Reference::new(&c);
        let index = SketchIndex::from_collection(c.clone(), IndexMeta::default()).unwrap();
        let sharded = ShardedEngine::with_options(
            Arc::new(ShardedIndex::from_index(index, shards).unwrap()),
            (probe_seed % 4) as usize + 1,
            16,
        );
        for query in query_battery(num_nodes, probe_seed) {
            prop_assert_eq!(
                sharded.execute_uncached(&query),
                reference.answer(&query),
                "shards = {}, query = {:?}", shards, query
            );
        }
    }
}
