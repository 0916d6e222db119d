//! Chaos case for the store: an injected fault mid-map must degrade to the
//! read-decode path — counted, logically lossless, and still serving the
//! exact same query responses. A second fault site covers `madvise`
//! placement advice failing without affecting correctness.
#![cfg(all(target_os = "linux", target_endian = "little"))]

use imm_diffusion::DiffusionModel;
use imm_fault::FaultConfig;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_service::{Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use imm_store::{LoadMode, Store, StoreError};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_store_fallback_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.sketch", std::process::id()))
}

/// The query engine over `index` as one shard (its postings adopted as is).
fn one_shard_engine(index: SketchIndex) -> ShardedEngine {
    ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 1).unwrap()))
}

fn sample_index(seed: u64) -> SketchIndex {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(100, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, seed);
    SketchIndex::sample(&graph, &weights, spec, 64, 2, "chaos").unwrap()
}

#[test]
fn a_fault_mid_map_degrades_to_read_decode_and_keeps_parity() {
    let index = sample_index(31);
    let path = temp_path("open_fault");
    index.save_to_path(&path).unwrap();

    let queries = [Query::top_k(3), Query::top_k(6), Query::Spread { seeds: vec![2, 4, 8] }];
    let baseline: Vec<_> = {
        let engine = one_shard_engine(Store::open_mapped(&path).unwrap().index);
        queries.iter().map(|q| engine.execute(q)).collect()
    };

    let fallbacks_before = imm_store::metrics::MMAP_FALLBACKS.value();
    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(5) }, |_| {
        // First open trips `store.mmap.open` and must degrade, not die.
        let degraded = Store::open(&path).expect("fallback must absorb the fault");
        assert_eq!(degraded.mode, LoadMode::ReadDecode);
        assert_eq!(degraded.index, index);
        let engine = one_shard_engine(degraded.index);
        let served: Vec<_> = queries.iter().map(|q| engine.execute(q)).collect();
        assert_eq!(served, baseline, "degraded path must serve identical batches");

        // The site fails only its first call: the retry maps normally.
        let recovered = Store::open(&path).expect("retry");
        assert_eq!(recovered.mode, LoadMode::Mapped);
        assert_eq!(recovered.index, index);
    });
    if imm_obs::recording_enabled() {
        assert_eq!(
            imm_store::metrics::MMAP_FALLBACKS.value(),
            fallbacks_before + 1,
            "exactly the faulted open is counted as a fallback"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_mapped_surfaces_the_injected_fault_without_fallback() {
    let index = sample_index(32);
    let path = temp_path("strict_fault");
    index.save_to_path(&path).unwrap();

    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(6) }, |_| {
        match Store::open_mapped(&path) {
            Err(StoreError::Fault(site)) => assert_eq!(site, imm_store::FAULT_SITE_OPEN),
            other => panic!("strict open must surface the fault, got {other:?}"),
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn advise_faults_are_absorbed_and_serving_continues() {
    let index = sample_index(33);
    let path = temp_path("advise_fault");
    index.save_to_path(&path).unwrap();

    // `fail_first: 1` also arms `store.mmap.open` — open once *outside*
    // the plan so only the advise site is exercised under faults.
    let opened = Store::open_mapped(&path).unwrap();
    let n = opened.index.num_sets();
    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(7) }, |_| {
        // First advised range is swallowed by the fault; the second works.
        let advised = opened.advise_shard_ranges(&[(0, n / 2), (n / 2, n - n / 2)]);
        assert_eq!(advised, 1, "the faulted range is skipped, the rest proceed");
    });
    // Serving is unaffected either way.
    let engine = one_shard_engine(opened.index);
    assert!(matches!(engine.execute(&Query::top_k(4)), imm_service::QueryResponse::TopK { .. }));
    std::fs::remove_file(&path).ok();
}
