//! Time-to-first-query of the two snapshot load paths: classic
//! read-decode (checksum + full heap decode) vs the `imm-store` zero-copy
//! mmap open, swept across index sizes and written as `BENCH_9.json`.
//!
//! The number this bin exists to pin down is **TTFQ** — wall time from
//! "the daemon is told to open this file" to "the first Top-K answer is
//! out". The read-decode path pays the whole file up front (read + FNV +
//! decode), so its TTFQ grows linearly with the index; the mapped path
//! parses a few head pages and lets queries fault data pages in on
//! demand, so its TTFQ stays near-flat. The sweep makes the crossover and
//! the asymptotic gap visible in one file.
//!
//! Both paths are measured through the same [`imm_store::Store`] entry
//! points the daemon uses (`open_mapped` strictly — no silent fallback
//! can contaminate the mapped column; `open_read` for the classic path),
//! and both end with one uncached Top-K on a fresh one-shard
//! `ShardedEngine` (which adopts the opened index's postings, mapped or
//! heap, without rebuilding them), so the mapped column includes the page
//! faults its laziness deferred.
//!
//! # Output schema (`BENCH_9.json`)
//!
//! ```json
//! {
//!   "bench": "startup_bench",
//!   "schema_version": 1,
//!   "smoke": false,
//!   "workload": {
//!     "nodes_per_size": [...], "theta_per_size": [...],
//!     "k": 8, "repeats": 5, "model": "independent-cascade",
//!     "edge_probability": 0.02, "rng_seed": 9424
//!   },
//!   "sizes": [
//!     { "nodes": 8000, "theta": 8000, "snapshot_bytes": 1234567,
//!       "mapped":      { "open_ns": ..., "map_ns": ..., "decode_ns": ...,
//!                        "first_query_ns": ..., "ttfq_ns": ... },
//!       "read_decode": { "open_ns": ..., "map_ns": 0, "decode_ns": ...,
//!                        "first_query_ns": ..., "ttfq_ns": ... },
//!       "ttfq_speedup": 12.3 }
//!   ],
//!   "obs_metrics": { ... }   // imm_bench::obs::registry_json() embed
//! }
//! ```
//!
//! All nanosecond figures are medians over `repeats` runs (odd count). A
//! full (non-smoke) run asserts the mapped TTFQ on the largest index is
//! at least 5x faster than read-decode — the acceptance bar for serving
//! restarts from mapped snapshots.
//!
//! # Flags
//!
//! * `--smoke` — tiny sizes, one repeat; CI proves the bin runs and its
//!   JSON parses.
//! * `--out PATH` — write somewhere other than `./BENCH_9.json`.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_service::{Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use imm_store::{OpenedIndex, Store};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Fixed base seed of the workload (graph + sampling).
const RNG_SEED: u64 = 9424;

/// Median of raw u64 samples (callers pass odd repeat counts).
fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One timed open + first query through a given store entry point.
struct Ttfq {
    open_ns: u64,
    map_ns: u64,
    decode_ns: u64,
    first_query_ns: u64,
}

impl Ttfq {
    fn total_ns(&self) -> u64 {
        self.open_ns + self.map_ns + self.decode_ns + self.first_query_ns
    }
}

fn time_path(open: impl Fn() -> OpenedIndex, k: usize) -> Ttfq {
    let opened = open();
    let timings = opened.timings;
    let sharded = ShardedIndex::from_index(opened.index, 1).expect("one shard adopts the index");
    let engine = ShardedEngine::new(Arc::new(sharded));
    let t = Instant::now();
    let response = engine.execute_uncached(&Query::top_k(k));
    let first_query_ns = t.elapsed().as_nanos() as u64;
    std::hint::black_box(&response);
    Ttfq {
        open_ns: timings.open_ns,
        map_ns: timings.map_ns,
        decode_ns: timings.decode_ns,
        first_query_ns,
    }
}

/// Median each phase independently over `repeats` runs. Phase-wise medians
/// don't necessarily sum to the median total, so the total is medianed on
/// its own — `ttfq_ns` is the honest end-to-end figure, the phases are the
/// honest breakdown.
fn median_ttfq(open: impl Fn() -> OpenedIndex, k: usize, repeats: usize) -> (Ttfq, u64) {
    let runs: Vec<Ttfq> = (0..repeats).map(|_| time_path(&open, k)).collect();
    let phase = |f: fn(&Ttfq) -> u64| {
        let mut v: Vec<u64> = runs.iter().map(f).collect();
        median(&mut v)
    };
    let mut totals: Vec<u64> = runs.iter().map(Ttfq::total_ns).collect();
    (
        Ttfq {
            open_ns: phase(|t| t.open_ns),
            map_ns: phase(|t| t.map_ns),
            decode_ns: phase(|t| t.decode_ns),
            first_query_ns: phase(|t| t.first_query_ns),
        },
        median(&mut totals),
    )
}

fn phase_json(t: &Ttfq, ttfq_ns: u64) -> serde_json::Value {
    serde_json::json!({
        "open_ns": t.open_ns,
        "map_ns": t.map_ns,
        "decode_ns": t.decode_ns,
        "first_query_ns": t.first_query_ns,
        "ttfq_ns": ttfq_ns,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => value.clone(),
            _ => {
                eprintln!("error: --out requires a path operand");
                std::process::exit(2);
            }
        },
        None => "BENCH_9.json".to_string(),
    };

    // (nodes, theta) per size; theta scales with the graph so the snapshot
    // grows roughly linearly across the sweep.
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(800, 800), (1_600, 1_600)]
    } else {
        vec![(8_000, 8_000), (30_000, 30_000), (90_000, 90_000)]
    };
    let repeats = if smoke { 1 } else { 5 };
    let k = 8usize;
    let edge_probability = 0.02f32;

    imm_bench::obs::register_workspace_metrics();

    let dir = std::env::temp_dir().join("imm_startup_bench");
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut size_reports = Vec::with_capacity(sizes.len());
    let mut last_speedup = 0.0f64;
    for &(nodes, theta) in &sizes {
        let mut rng = SmallRng::seed_from_u64(RNG_SEED ^ nodes as u64);
        let graph = CsrGraph::from_edge_list(&generators::social_network(nodes, 8, 0.3, &mut rng));
        let weights = EdgeWeights::constant(&graph, edge_probability);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, RNG_SEED);
        let index = SketchIndex::sample(&graph, &weights, spec, theta, 2, "startup-bench")
            .expect("index samples");
        let path = dir.join(format!("startup_{nodes}.sketch"));
        index.save_to_path(&path).expect("snapshot saves");
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot stat").len();
        drop(index);

        let (mapped, mapped_ttfq_ns) = median_ttfq(
            || Store::open_mapped(&path).expect("mapped open (strict, no fallback)"),
            k,
            repeats,
        );
        let (read, read_ttfq_ns) =
            median_ttfq(|| Store::open_read(&path).expect("read-decode open"), k, repeats);
        let speedup = read_ttfq_ns as f64 / mapped_ttfq_ns.max(1) as f64;
        last_speedup = speedup;
        eprintln!(
            "[startup-bench] {nodes} nodes / θ = {theta} ({snapshot_bytes} B): mapped TTFQ \
             {:.2} ms vs read-decode {:.2} ms ({speedup:.1}x)",
            mapped_ttfq_ns as f64 / 1e6,
            read_ttfq_ns as f64 / 1e6,
        );
        size_reports.push(serde_json::json!({
            "nodes": nodes,
            "theta": theta,
            "snapshot_bytes": snapshot_bytes,
            "mapped": phase_json(&mapped, mapped_ttfq_ns),
            "read_decode": phase_json(&read, read_ttfq_ns),
            "ttfq_speedup": speedup,
        }));
        std::fs::remove_file(&path).ok();
    }

    // The acceptance bar: on the largest index a mapped restart must beat a
    // full decode by at least 5x. Smoke sizes are too small to clear the
    // constant page-table costs, so they only record.
    if !smoke {
        assert!(
            last_speedup >= 5.0,
            "mapped TTFQ is only {last_speedup:.1}x faster than read-decode on the largest \
             index (need >= 5x)"
        );
    }

    let report = serde_json::json!({
        "bench": "startup_bench",
        "schema_version": 1,
        "smoke": smoke,
        "workload": {
            "nodes_per_size": sizes.iter().map(|s| s.0).collect::<Vec<_>>(),
            "theta_per_size": sizes.iter().map(|s| s.1).collect::<Vec<_>>(),
            "k": k,
            "repeats": repeats,
            "model": "independent-cascade",
            "edge_probability": edge_probability,
            "rng_seed": RNG_SEED,
        },
        "sizes": size_reports,
        "obs_metrics": imm_bench::obs::registry_json(),
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &rendered).expect("write BENCH json");

    // Self-check: the written file must parse back with the tracked keys —
    // the contract `ci.sh --smoke` relies on.
    let reread = std::fs::read_to_string(&out_path).expect("reread BENCH json");
    let parsed: serde_json::Value = serde_json::from_str(&reread).expect("BENCH json parses");
    let entries = parsed["sizes"].as_array().expect("sizes array present");
    assert_eq!(entries.len(), sizes.len(), "one entry per index size");
    for entry in entries {
        for path in ["mapped", "read_decode"] {
            for key in ["open_ns", "map_ns", "decode_ns", "first_query_ns", "ttfq_ns"] {
                assert!(
                    entry[path][key].as_u64().is_some(),
                    "{path}.{key} missing from {out_path}"
                );
            }
        }
        assert!(entry["ttfq_speedup"].as_f64().is_some(), "speedup missing from {out_path}");
    }
    let registry = parsed["obs_metrics"]["metrics"].as_array().expect("obs registry embedded");
    assert!(
        registry.iter().any(|m| m["name"] == serde_json::json!("store_mmap_opens")),
        "store counters missing from the embedded registry"
    );
    println!("{rendered}");
    println!("startup bench OK: {out_path}");
}
