//! Facade smoke test: every re-export in `src/lib.rs` must resolve, and the
//! core types of each sub-crate must be constructible through the facade
//! paths alone.

use efficient_imm_repro::{diffusion, graph, imm, memsim, numa, rrr, service, shard};

#[test]
fn every_reexported_crate_path_resolves() {
    // One symbol per re-exported crate, referenced through the facade.
    let _: fn(usize) -> rrr::BitSet = rrr::BitSet::new;
    let _: graph::NodeId = 0;
    let _ = diffusion::DiffusionModel::IndependentCascade;
    let _ = numa::PlacementPolicy::Interleaved;
    let _ = memsim::HierarchyConfig::default();
    let _ = imm::Algorithm::Efficient;
    let _ = service::Query::top_k(1);
    let _ = shard::SHARD_MAGIC;
}

#[test]
fn core_types_are_constructible() {
    let collection = rrr::RrrCollection::new(64);
    assert_eq!(collection.num_nodes(), 64);
    assert_eq!(collection.len(), 0);

    let topology = numa::Topology::new(2, 4);
    assert_eq!(topology.num_nodes(), 2);

    let hierarchy = memsim::HierarchyConfig::default();
    let mut core = memsim::CoreCaches::new(hierarchy);
    core.access(memsim::synthetic_address(1, 0));

    let model = diffusion::DiffusionModel::LinearThreshold;
    assert_ne!(model, diffusion::DiffusionModel::IndependentCascade);
}

#[test]
fn facade_supports_an_end_to_end_run() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut rng = SmallRng::seed_from_u64(11);
    let g =
        graph::CsrGraph::from_edge_list(&graph::generators::social_network(200, 5, 0.3, &mut rng));
    let w = graph::EdgeWeights::ic_weighted_cascade(&g);
    let params =
        imm::ImmParams::new(3, 0.5, diffusion::DiffusionModel::IndependentCascade).with_seed(1);
    let exec = imm::ExecutionConfig::new(imm::Algorithm::Efficient, 2);
    let result = imm::run_imm(&g, &w, &params, &exec).expect("facade run");
    assert_eq!(result.seeds.len(), 3);
}

#[test]
fn facade_supports_build_index_then_top_k_and_spread() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    // Sample once through the facade, retaining the collection...
    let mut rng = SmallRng::seed_from_u64(23);
    let g =
        graph::CsrGraph::from_edge_list(&graph::generators::social_network(250, 5, 0.3, &mut rng));
    let w = graph::EdgeWeights::ic_weighted_cascade(&g);
    let params =
        imm::ImmParams::new(4, 0.5, diffusion::DiffusionModel::IndependentCascade).with_seed(3);
    let exec = imm::ExecutionConfig::new(imm::Algorithm::Efficient, 2).with_retained_sets(true);
    let result = imm::run_imm(&g, &w, &params, &exec).expect("facade run");

    // ...freeze it into an index and serve queries against it (a single
    // index is the query engine's one-shard case).
    let index = service::SketchIndex::build(&g, result.rrr_sets.unwrap(), "facade-smoke")
        .expect("index build");
    let single = shard::ShardedIndex::from_index(index.clone(), 1).expect("one shard");
    let engine = shard::ShardedEngine::new(Arc::new(single));

    let top = engine.execute(&service::Query::top_k(4));
    let seeds = match &top {
        service::QueryResponse::TopK { seeds, .. } => {
            assert_eq!(seeds, &result.seeds, "served seeds must match the batch run");
            seeds.clone()
        }
        other => panic!("unexpected {other:?}"),
    };

    match engine.execute(&service::Query::Spread { seeds }) {
        service::QueryResponse::Spread { estimate, .. } => {
            assert!((estimate - result.estimated_influence).abs() < 1e-9);
        }
        other => panic!("unexpected {other:?}"),
    }

    // ...and the same index partitioned into shards serves identically
    // through the facade's scatter/gather path.
    let single_answer = engine.execute(&service::Query::top_k(4));
    let sharded = shard::ShardedIndex::from_index(index, 3).expect("shardable");
    let sharded_engine = shard::ShardedEngine::new(Arc::new(sharded));
    assert_eq!(sharded_engine.execute(&service::Query::top_k(4)), single_answer);
}
