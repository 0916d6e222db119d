//! NUMA placement end-to-end: a sharded engine built against a synthetic
//! multi-node topology must serve byte-identically to the batch references
//! (placement is advisory, never semantic) while the `numa_*`
//! counters record what the placement layer did — worker pinnings and
//! local/remote serving on multi-node machines, the explicit fallback on
//! single-node ones.

mod common;

use common::Reference;
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_numa::{metrics as numa_metrics, Topology};
use imm_rrr::NodeId;
use imm_service::{Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex, WakeMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn sample_index(seed: u64) -> SketchIndex {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(140, 5, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, seed);
    SketchIndex::sample(&graph, &weights, spec, 120, 2, "numa-placement").unwrap()
}

fn battery() -> Vec<Query> {
    vec![
        Query::top_k(1),
        Query::top_k(6),
        Query::Spread { seeds: vec![0 as NodeId, 7, 19] },
        Query::Marginal { seeds: vec![3, 5], candidate: 11 },
    ]
}

#[test]
fn multi_node_placement_keeps_parity_and_counts_accesses() {
    let index = sample_index(0xD0C);
    let reference = Reference::new(index.sets());
    let expected: Vec<_> = battery().iter().map(|q| reference.answer(q)).collect();
    let sharded = Arc::new(ShardedIndex::from_index(index.clone(), 4).unwrap());

    let local_before = numa_metrics::LOCAL_ACCESSES.value();
    let remote_before = numa_metrics::REMOTE_ACCESSES.value();
    let pins_before = numa_metrics::WORKER_PINNINGS.value();

    // A 2-node × 4-core machine: two placed workers, four shards split
    // between them. WakeMode::Always forces real cross-thread serving.
    let engine = ShardedEngine::with_runtime_on(
        Arc::clone(&sharded),
        3,
        0,
        WakeMode::Always,
        Topology::new(2, 4),
    );
    assert_eq!(engine.num_workers(), 2);
    for (query, expected) in battery().iter().zip(&expected) {
        assert_eq!(&engine.execute_uncached(query), expected);
    }

    if imm_obs::recording_enabled() {
        // The pinning hook runs on worker-thread start, concurrently with
        // this assertion: poll briefly for both workers to come up.
        for _ in 0..1000 {
            if numa_metrics::WORKER_PINNINGS.value() >= pins_before + 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(numa_metrics::WORKER_PINNINGS.value(), pins_before + 2);
        let local = numa_metrics::LOCAL_ACCESSES.value() - local_before;
        let remote = numa_metrics::REMOTE_ACCESSES.value() - remote_before;
        // Every scattered request of the battery lands in exactly one
        // bucket; which one is a scheduling
        // race, but the total cannot be zero.
        assert!(local + remote > 0, "placed serving must be counted");
        // The gauge is shared across tests in this binary (another test
        // may have re-set it to its own topology), so only sanity-check.
        assert!(numa_metrics::TOPOLOGY_NODES.value() >= 1.0);
    }
}

#[test]
fn single_node_topologies_serve_identically_and_count_the_fallback() {
    let index = sample_index(0xFA11);
    let reference = Reference::new(index.sets());
    let expected: Vec<_> = battery().iter().map(|q| reference.answer(q)).collect();
    let sharded = Arc::new(ShardedIndex::from_index(index.clone(), 3).unwrap());

    let fallbacks_before = numa_metrics::SINGLE_NODE_FALLBACKS.value();
    let engine = ShardedEngine::with_runtime_on(
        Arc::clone(&sharded),
        2,
        0,
        WakeMode::Always,
        Topology::uma(4),
    );
    for (query, expected) in battery().iter().zip(&expected) {
        assert_eq!(&engine.execute_uncached(query), expected);
    }
    if imm_obs::recording_enabled() {
        assert_eq!(numa_metrics::SINGLE_NODE_FALLBACKS.value(), fallbacks_before + 1);
    }
}
