//! Incremental sketch refresh vs. full rebuild across edge-churn rates.
//!
//! The dynamic-graph scenario the ROADMAP targets: a serving index is built
//! once, then the graph keeps mutating (followers added/dropped, weights
//! drifting). For each churn rate the harness applies one random delta batch
//! — half deletions of existing edges, half insertions — and measures
//! `SketchIndex::apply_delta` (invalidate → resample touched sets → rebuild
//! postings) against `SketchIndex::sample` from scratch on the mutated
//! graph. Both paths produce byte-identical indexes (asserted), so the table
//! is a pure cost comparison.
//!
//! Both paths start from `(old graph, delta)` and end with the new graph
//! plus a refreshed index, so the rebuild column includes the graph-mutation
//! cost (`GraphDelta::apply`) the incremental path pays internally.
//!
//! Environment knobs: `IMM_REFRESH_NODES` (default 10000),
//! `IMM_REFRESH_DEGREE` (default 8), `IMM_REFRESH_THETA` (default 20000),
//! `IMM_REFRESH_CHURN` (comma-separated fractions, default
//! `0.001,0.005,0.01,0.02,0.05`), `IMM_REFRESH_EDGE_PROB` (default 0.0625).

use imm_bench::output::{fmt_ratio, fmt_seconds, results_dir, TextTable};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_service::{SampleSpec, SketchIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default).max(1)
}

fn env_f32(key: &str, default: f32) -> f32 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn churn_rates() -> Vec<f64> {
    match std::env::var("IMM_REFRESH_CHURN") {
        Ok(raw) => raw.split(',').filter_map(|p| p.trim().parse().ok()).collect(),
        Err(_) => vec![0.001, 0.005, 0.01, 0.02, 0.05],
    }
}

/// A churn batch: delete `churn/2` random existing edges, insert the same
/// number of fresh random edges.
fn churn_delta(graph: &CsrGraph, churn: f64, edge_prob: f32, rng: &mut SmallRng) -> GraphDelta {
    let n = graph.num_nodes() as u32;
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let touched = ((edges.len() as f64 * churn) as usize).max(2);
    let mut delta = GraphDelta::new();
    let mut used = std::collections::HashSet::new();
    for _ in 0..touched / 2 {
        let mut pick = rng.gen_range(0..edges.len());
        while !used.insert(pick) {
            pick = rng.gen_range(0..edges.len());
        }
        let (src, dst) = edges[pick];
        delta = delta.delete(src, dst);
        delta = delta.insert(rng.gen_range(0..n), rng.gen_range(0..n), edge_prob);
    }
    delta
}

fn main() {
    let nodes = env_usize("IMM_REFRESH_NODES", 10_000);
    let degree = env_usize("IMM_REFRESH_DEGREE", 8);
    let theta = env_usize("IMM_REFRESH_THETA", 20_000);
    let edge_prob = env_f32("IMM_REFRESH_EDGE_PROB", 0.0625);
    let threads = 4usize;

    // Erdős–Rényi in the subcritical reverse-percolation regime
    // (p · degree < 1): RRR-set sizes have an exponential tail, so the cost
    // of a refresh tracks the *number* of invalidated sets. (On heavy-tailed
    // graphs the giant sets contain every touched vertex, so any mutation
    // invalidates most of the sampling work no matter how it is organized.)
    let mut rng = SmallRng::seed_from_u64(0x0DE17A);
    let graph = CsrGraph::from_edge_list(&generators::erdos_renyi(
        nodes,
        degree as f64 / nodes as f64,
        true,
        &mut rng,
    ));
    let weights = EdgeWeights::constant(&graph, edge_prob);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);

    let t0 = Instant::now();
    let base_index =
        SketchIndex::sample(&graph, &weights, spec, theta, threads, "churn-bench").expect("sample");
    let base_build = t0.elapsed().as_secs_f64();
    eprintln!(
        "[incremental-refresh] base index: θ = {theta}, {} nodes, {} edges, sampled in {}",
        nodes,
        graph.num_edges(),
        fmt_seconds(base_build),
    );

    let mut table = TextTable::new(&[
        "Churn",
        "Touched edges",
        "Resampled sets",
        "Resampled %",
        "Incremental (s)",
        "Rebuild (s)",
        "Speedup",
    ]);

    for churn in churn_rates() {
        // Fresh copies per churn rate so every row mutates the same base.
        let mut index = base_index.clone();
        let mut delta_rng = SmallRng::seed_from_u64((churn * 1e6) as u64 ^ 0xC0FFEE);
        let delta = churn_delta(&graph, churn, edge_prob, &mut delta_rng);
        let touched = delta.len();

        let t0 = Instant::now();
        let (new_graph, new_weights, stats) =
            index.apply_delta(&graph, &weights, &delta).expect("delta applies");
        let incremental = t0.elapsed().as_secs_f64();

        // The rebuild path pays the same graph mutation before resampling.
        let t0 = Instant::now();
        let (rebuild_graph, rebuild_weights) =
            delta.apply(&graph, &weights).expect("delta applies");
        let rebuilt = SketchIndex::sample(
            &rebuild_graph,
            &rebuild_weights,
            spec,
            theta,
            threads,
            "churn-bench",
        )
        .expect("rebuild");
        let rebuild = t0.elapsed().as_secs_f64();
        assert_eq!(rebuild_graph.num_edges(), new_graph.num_edges());
        drop((new_graph, new_weights));

        assert_eq!(index.sets(), rebuilt.sets(), "refresh must equal the rebuild");

        table.add_row(vec![
            format!("{:.2}%", churn * 100.0),
            touched.to_string(),
            format!("{}/{}", stats.resampled_sets, stats.total_sets),
            format!("{:.1}%", stats.resampled_fraction() * 100.0),
            fmt_seconds(incremental),
            fmt_seconds(rebuild),
            fmt_ratio(rebuild / incremental.max(1e-9)),
        ]);
        eprintln!("[incremental-refresh] churn {:.2}% done", churn * 100.0);
    }

    println!(
        "Incremental refresh vs full rebuild ({nodes} nodes, avg degree {degree}, θ = {theta})"
    );
    println!("{}", table.render());
    let csv = results_dir().join("incremental_refresh.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
