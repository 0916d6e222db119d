//! # imm-shard
//!
//! The query engine: a range-sharded sketch index served by scatter/gather
//! distributed greedy. A single index is its one-shard case.
//!
//! `imm-service` freezes one sampled RRR collection into an index; this
//! crate serves it. The flat arena layout (one contiguous vertex array plus
//! a span directory) makes an RRR **shard** representable as a contiguous
//! arena range, so the index splits by set range into independent serving
//! units — the serving-side analogue of the paper's divide-the-sketches
//! parallel structure, where each worker counts over its own slice of the
//! sketches and only merged bounds cross worker boundaries.
//!
//! * [`ShardSegment`] — one shard: a zero-copy arena slice (through
//!   [`imm_rrr::CollectionSlice`]) plus its *own* vertex → set postings and
//!   occurrence counts ([`imm_service::PostingsStore`]), with shard-local
//!   set ids.
//! * [`ShardedIndex`] — N segments over one shared collection, partitioned
//!   by near-equal contiguous set ranges. One shard adopts a
//!   [`imm_service::SketchIndex`]'s postings as they are, heap-built or
//!   mapped from a snapshot; `apply_delta` routes incremental refresh
//!   through the shard map so only shards owning a resampled set rebuild.
//! * [`ShardedEngine`] — answers the full query vocabulary (Top-K with
//!   optional audience masks, spread, marginal, batches, response cache)
//!   by scatter/gather over a **persistent pinned worker pool**
//!   ([`imm_exec::PinnedPool`]): each worker permanently owns one shard's
//!   serving state and answers typed requests over per-shard channels, so
//!   a CELF round costs one message round-trip per shard (served inline,
//!   with no channel traffic, when the pool has no workers). The greedy
//!   runs over merged bounds held engine-side, kept exact by the shards'
//!   retire streams. Top-K is **byte-identical** to the batch selection
//!   kernels (`efficient_imm::select_seeds`) for every shard count, thread
//!   count and [`WakeMode`] — the crate's parity suites pin this,
//!   including after `apply_delta`.
//! * [`snapshot`] — split a v3 index snapshot into per-shard files (each a
//!   self-verifying standard snapshot behind a small shard header) and
//!   reassemble them, preserving the shard layout.
//!
//! ```
//! use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
//! use imm_diffusion::DiffusionModel;
//! use imm_graph::{generators, CsrGraph, EdgeWeights};
//! use imm_service::{Query, QueryResponse, SketchIndex};
//! use imm_shard::{ShardedEngine, ShardedIndex};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = CsrGraph::from_edge_list(&generators::social_network(300, 5, 0.3, &mut rng));
//! let weights = EdgeWeights::ic_weighted_cascade(&graph);
//! let params = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade).with_seed(7);
//! // Opt in to keeping the sampled collection, then freeze it into an index.
//! let exec = ExecutionConfig::new(Algorithm::Efficient, 2).with_retained_sets(true);
//! let result = run_imm(&graph, &weights, &params, &exec).unwrap();
//! let index = SketchIndex::build(&graph, result.rrr_sets.unwrap(), "docs").unwrap();
//! // Served as one shard (the index as built) and split into four: same
//! // collection, same greedy — the served seeds match the batch run.
//! for shards in [1, 4] {
//!     let sharded = ShardedIndex::from_index(index.clone(), shards).unwrap();
//!     let engine = ShardedEngine::new(Arc::new(sharded));
//!     match engine.execute(&Query::top_k(4)) {
//!         QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, result.seeds),
//!         _ => unreachable!(),
//!     }
//! }
//! ```

pub mod engine;
pub mod index;
pub mod metrics;
mod placement;
pub mod segment;
pub mod snapshot;

pub use engine::{ShardedEngine, DEFAULT_CACHE_CAPACITY};
pub use imm_exec::{ScatterError, WakeMode};
pub use index::ShardedIndex;
pub use segment::{LocalSetId, ShardSegment};
pub use snapshot::{
    assemble, load_shard_files, read_shard, read_shard_file, split_to_bytes, write_shard_files,
    write_sharded_files, ShardFileError, ShardPart, SHARD_MAGIC, SHARD_VERSION, SHARD_VERSION_V1,
};

/// Vertex identifier (re-exported from `imm-rrr` for convenience).
pub type NodeId = imm_rrr::NodeId;
