//! The batch side of a session: `run_imm`, Monte-Carlo validation of its
//! seeds, and a traced driver that runs Algorithm 1 through the same public
//! calls `run_imm` makes, one span per call.

use std::time::Instant;

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::SamplingConfig;
use efficient_imm::{
    generate_rrr_sets, math, run_imm, select_seeds, Algorithm, ExecutionConfig, GlobalCounter,
    ImmParams, ImmResult, WorkProfile,
};
use imm_diffusion::{monte_carlo_spread, SpreadEstimate};
use imm_graph::{CsrGraph, EdgeWeights};
use imm_rrr::RrrCollection;

use crate::trace::Tracer;

/// `run_imm` with EfficientIMM at `threads`, timed.
pub fn timed_imm(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    params: &ImmParams,
    threads: usize,
) -> (ImmResult, f64) {
    let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
    let t = Instant::now();
    let result = run_imm(graph, weights, params, &exec).expect("workload IMM parameters are valid");
    (result, t.elapsed().as_secs_f64())
}

/// Monte-Carlo spread of `seeds` at a fixed trial count, timed.
pub fn timed_spread(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    params: &ImmParams,
    seeds: &[u32],
    trials: usize,
) -> (SpreadEstimate, f64) {
    let t = Instant::now();
    let estimate =
        monte_carlo_spread(graph, weights, params.model, seeds, trials, params.rng_seed ^ 0x4D43);
    (estimate, t.elapsed().as_secs_f64())
}

/// What the traced driver produced and how its time split.
#[derive(Debug, Clone)]
pub struct Driven {
    /// Selected seeds.
    pub seeds: Vec<u32>,
    /// Final number of RRR sets.
    pub theta: usize,
    /// Wall time of the whole driver, s.
    pub wall_s: f64,
    /// Time in `generate_rrr_sets`, s.
    pub sampling_s: f64,
    /// Time in `select_seeds`, s.
    pub selection_s: f64,
    /// Time in `RrrCollection::extend_from`, s.
    pub extend_s: f64,
    /// Sampling work per thread, merged over calls.
    pub sampling_work: WorkProfile,
    /// `select_seeds` calls made.
    pub selection_calls: usize,
    /// Counter rebuilds over all selections.
    pub counter_rebuilds: usize,
    /// Counter decrements over all selections.
    pub counter_decrements: usize,
    /// Sets stored as bitmaps in the final collection.
    pub bitmap_sets: usize,
    /// Heap bytes of the final collection.
    pub memory_bytes: usize,
}

/// Algorithm 1 through public calls, each wrapped in a span under one
/// `core.imm_driver` span. Mirrors `run_imm` call for call, so at the same
/// inputs it must select the same seeds at the same θ. The final
/// collection's statistics are read after the driver's span has closed.
pub fn traced_imm(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    params: &ImmParams,
    threads: usize,
    tracer: &mut Tracer,
    request: u64,
) -> Driven {
    let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
    let started = Instant::now();
    let root = tracer.enter("core.imm_driver", request);

    let (pool, fused) = tracer.span("core.driver_setup", request, || {
        let fused = (exec.algorithm == Algorithm::Efficient && exec.features.kernel_fusion)
            .then(|| GlobalCounter::new(graph.num_nodes()));
        (exec.build_pool(), fused)
    });
    let n = graph.num_nodes();
    let (k, epsilon) = (params.k, params.epsilon);
    let ell = math::adjusted_ell(params.ell, n);
    let config = SamplingConfig {
        model: params.model,
        rng_seed: params.rng_seed,
        policy: exec.features.representation_policy(),
        schedule: if exec.features.dynamic_balancing {
            Schedule::Dynamic { chunk: exec.job_chunk.max(1) }
        } else {
            Schedule::Static
        },
        threads: exec.threads,
        fused_counter: fused.as_ref(),
    };

    let mut sets = RrrCollection::new(n);
    let mut work = WorkProfile::new(threads);
    let mut top_up = |target: usize, sets: &mut RrrCollection, tracer: &mut Tracer| {
        if target > sets.len() {
            let missing = target - sets.len();
            let out = tracer.span("core.generate_rrr_sets", request, || {
                generate_rrr_sets(graph, weights, missing, sets.len(), &config, &pool)
            });
            work.merge(&out.work);
            tracer.span("rrr.extend_from", request, || sets.extend_from(out.sets));
        }
    };
    let mut selections = Vec::new();
    let mut select = |sets: &RrrCollection, tracer: &mut Tracer| {
        let s = tracer.span("core.select_seeds", request, || {
            select_seeds(sets, k, &exec, &pool, fused.as_ref())
        });
        selections.push((s.counter_rebuilds, s.counter_decrements));
        s
    };

    let mut lower_bound = None;
    for i in 1..=math::sampling_iterations(n) {
        let target = tracer.span("core.theta_for_iteration", request, || {
            math::theta_for_iteration(n, k, epsilon, ell, i)
        });
        top_up(target, &mut sets, tracer);
        let selection = select(&sets, tracer);
        let converged = tracer.span("core.sampling_converged", request, || {
            math::sampling_converged(n, selection.coverage_fraction, epsilon, i)
        });
        if converged {
            lower_bound = Some(math::opt_lower_bound(n, selection.coverage_fraction, epsilon));
            break;
        }
    }
    let lower_bound = lower_bound.unwrap_or(k as f64);
    let theta = tracer
        .span("core.final_theta", request, || math::final_theta(n, k, epsilon, ell, lower_bound));
    top_up(theta, &mut sets, tracer);
    let selection = select(&sets, tracer);
    let wall_s = started.elapsed().as_secs_f64();
    let root_id = tracer.exit(root);

    let stats = tracer.span("rrr.coverage_stats", request, || sets.coverage_stats());
    Driven {
        seeds: selection.seeds,
        theta: sets.len(),
        wall_s,
        sampling_s: tracer_total(tracer, "core.generate_rrr_sets", root_id),
        selection_s: tracer_total(tracer, "core.select_seeds", root_id),
        extend_s: tracer_total(tracer, "rrr.extend_from", root_id),
        sampling_work: work,
        selection_calls: selections.len(),
        counter_rebuilds: selections.iter().map(|s| s.0).sum(),
        counter_decrements: selections.iter().map(|s| s.1).sum(),
        bitmap_sets: stats.bitmap_sets,
        memory_bytes: stats.memory_bytes,
    }
}

/// Total seconds of the spans named `name` directly under `root`.
fn tracer_total(tracer: &Tracer, name: &str, root: Option<u64>) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.parent == root)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}
