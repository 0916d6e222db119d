//! One run of one workload: set-up, the batch phase, the serving phase,
//! the correctness gates and every metric.
//!
//! The run is split into rounds, and every round takes a sample of every
//! measurement: set-ups, `run_imm`, a Monte-Carlo validation, daemon
//! restarts, rollouts, and a slice of the base-rate and overload streams.
//! On a host whose speed drifts over seconds, each metric then sees the
//! whole run rather than one stretch of it, and the reported medians and
//! pooled percentiles move less from run to run.
//!
//! Each round has `--seconds / ROUNDS` of time. The overload phase takes
//! a fixed share of it, and the base-rate phase takes what the rest of the
//! round left, but never less than `MIN_BASE_SHARE`, so a run takes about
//! `--seconds` unless its fixed work alone exceeds that.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use efficient_imm::{ImmParams, ImmResult};
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_serve::protocol::{Request, Response};
use imm_service::Query;
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};

use crate::batch;
use crate::host;
use crate::loadgen::{self, Record, RolloutLane, RolloutRecord, Schedule};
use crate::obs;
use crate::serving::{self, Daemon, QueryStream};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Weights, Workload, DELTA_EDGES, EPSILON, MC_TRIALS, OVERLOAD_SHARE};

/// Worker threads every layer is asked to use (the global pool is sized
/// to match in `main`).
pub const THREADS: usize = 2;
/// Rounds per run.
const ROUNDS: usize = 3;
/// Daemon restarts per round; `ttfq_ms` is the median over all of them.
const RESTARTS_PER_ROUND: usize = 3;
/// Set-ups repeat within a round until this much time is used; `setup_s`
/// is the median over all of them.
const SETUP_PER_ROUND: Duration = Duration::from_millis(1000);
/// Monte-Carlo validations repeat within a round until this much time is
/// used; `mc_validate_s` is the median over all of them.
const MC_PER_ROUND: Duration = Duration::from_millis(1000);
/// The base-rate phase's least share of a round.
const MIN_BASE_SHARE: f64 = 0.15;
/// The driver's spans must cover 90% of `run_imm`'s time wherever
/// `run_imm` takes at least this long. A shorter run (0.3 s on the serve
/// workloads) moved by ±15% from one run to the next, more than the 10%
/// margin, so there the ratio is reported but not gated.
const SPAN_GATE_MIN_S: f64 = 1.0;
/// Length of each of the two read phases that measure tracing overhead.
const OVERHEAD_PHASE: Duration = Duration::from_millis(1500);
/// Queries in the parity battery.
const BATTERY: usize = 24;
/// Distinct queries generated per phase; longer phases cycle them. The
/// response cache holds far fewer, so cycling never turns a miss into a hit.
const QUERY_POOL: usize = 4096;
/// Base-phase queries replayed in-process to split socket from compute.
const REPLAY: usize = 1500;
/// Untimed reads at the base rate after each restart.
const WARM_UP: Duration = Duration::from_millis(250);
/// Counters summed over the timed stream slices.
const STREAM_COUNTERS: [&str; 6] = [
    "exec_pinned_served_worker",
    "exec_pinned_served_inline",
    "service_cache_hits",
    "service_cache_misses",
    "shard_gather_rounds",
    "serve_queries",
];

/// A named check that must pass for the run to count as correct.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The figures behind the verdict.
    pub detail: String,
}

/// Everything a run produced.
pub struct Outcome {
    /// Every metric, end-to-end and per-layer: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were rejected or timed out.
    pub failed: u64,
    /// The correctness gates.
    pub gates: Vec<Gate>,
    /// Host block and per-phase details for the report file.
    pub report: Value,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

#[derive(Default)]
struct Recorder {
    metrics: Vec<(&'static str, f64, &'static str)>,
    gates: Vec<Gate>,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn gate(&mut self, name: &'static str, passed: bool, detail: String) {
        if !passed {
            eprintln!("[bench] gate failed: {name}: {detail}");
        }
        self.gates.push(Gate { name, passed, detail });
    }

    fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Add `key` to a JSON object (the offline `serde_json` has no `IndexMut`).
pub fn insert(object: &mut Value, key: &str, value: Value) {
    if let Value::Object(pairs) = object {
        pairs.push((key.to_string(), value));
    }
}

/// Generate the workload's graph and weights from `seed`; returns the time
/// spent in the graph layer's calls.
fn build_graph(w: &Workload, seed: u64, tracer: &mut Tracer) -> (CsrGraph, EdgeWeights, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges = generators::social_network(w.nodes, w.avg_degree, 0.3, &mut rng);
    let t = Instant::now();
    let graph = tracer.span("graph.from_edge_list", 0, || CsrGraph::from_edge_list(&edges));
    let weights = tracer.span("graph.edge_weights", 0, || match w.weights {
        Weights::IcUniform => EdgeWeights::ic_uniform(&graph, &mut rng),
        Weights::WeightedCascade => EdgeWeights::ic_weighted_cascade(&graph),
        Weights::LtNormalized => EdgeWeights::lt_normalized(&graph, &mut rng),
    });
    (graph, weights, t.elapsed().as_secs_f64())
}

/// Files a run leaves in the work directory, removed when the run ends,
/// whether it succeeded or not.
struct RemoveOnDrop(Vec<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Samples gathered across rounds.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    graph_s: Vec<f64>,
    imm_s: Vec<f64>,
    mc_s: Vec<f64>,
    restarts: Vec<serving::Restart>,
    base: Vec<Record>,
    base_s: Vec<f64>,
    base_late_ms: Vec<f64>,
    base_backlog: usize,
    overload_failed: usize,
    overload_attempted: usize,
    capacity_rps: Vec<f64>,
    rollouts: Vec<RolloutRecord>,
    shard_refresh_ms: Vec<f64>,
    stream_counters: BTreeMap<&'static str, f64>,
}

/// What the last round leaves running for the traced extras.
struct Round {
    graph: CsrGraph,
    weights: EdgeWeights,
    daemon: Daemon,
    original: Arc<ShardedIndex>,
    applied: Vec<String>,
    result: ImmResult,
}

/// The fixed inputs of a run.
struct Plan<'a> {
    w: &'a Workload,
    seed: u64,
    snapshot: PathBuf,
    socket: PathBuf,
    params: ImmParams,
    round_s: f64,
    base: Schedule,
    overload: Schedule,
    warm_queries: Vec<Query>,
    warm_kinds: Vec<u8>,
    base_queries: Vec<Query>,
    base_kinds: Vec<u8>,
    over_queries: Vec<Query>,
    over_kinds: Vec<u8>,
    battery: Vec<Query>,
}

/// Run workload `w` once.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> io::Result<Outcome> {
    let numa_before = host::numastat();
    let counters_start = obs::read();
    let mut tracer = Tracer::new(traced);
    let mut rec = Recorder::default();
    let tag = format!("{}-{}", w.name, std::process::id());
    let round_s = seconds / ROUNDS as f64;
    // The longest base phase a round can have; each round shortens it.
    let base = Schedule {
        rate_per_s: w.base_rate,
        duration: Duration::from_secs_f64(round_s * (1.0 - OVERLOAD_SHARE)),
        stop_at_end: false,
    };
    let overload = Schedule {
        rate_per_s: w.overload_rate,
        duration: Duration::from_secs_f64(round_s * OVERLOAD_SHARE),
        stop_at_end: true,
    };
    let mut stream = QueryStream::new(seed ^ 0x5EAD, w.nodes);
    let warm_up = Schedule { duration: WARM_UP, ..base };
    let (warm_queries, warm_kinds) = stream.take(warm_up.count());
    let (base_queries, base_kinds) = stream.take(base.count().min(QUERY_POOL));
    let (over_queries, over_kinds) = stream.take(overload.count().min(QUERY_POOL));
    let plan = Plan {
        w,
        seed,
        snapshot: work_dir.join(format!("{tag}.sketch")),
        socket: work_dir.join(format!("{tag}.sock")),
        params: ImmParams::new(w.k, EPSILON, w.weights.model()).with_seed(seed),
        round_s,
        base,
        overload,
        warm_queries,
        warm_kinds,
        base_queries,
        base_kinds,
        over_queries,
        over_kinds,
        battery: QueryStream::new(seed ^ 0xBA77, w.nodes).take(BATTERY).0,
    };

    let _cleanup = RemoveOnDrop(vec![plan.snapshot.clone(), plan.socket.clone()]);
    let mut samples = Samples::default();
    let mut last = None;
    for round in 0..ROUNDS {
        let state = run_round(&plan, round, &mut samples, &mut rec, &mut tracer)?;
        if round + 1 < ROUNDS {
            // Stopped before the next round binds the socket path again.
            state.daemon.stop()?;
        } else {
            last = Some(state);
        }
    }
    let Round { graph, weights, daemon, original, applied, result } =
        last.expect("at least one round ran");

    rec.metric("setup_s", median(&samples.setup_s), "s");
    rec.metric("graph.build_s", median(&samples.graph_s), "s");
    rec.metric("imm_s", median(&samples.imm_s), "s");
    rec.metric("mc_validate_s", median(&samples.mc_s), "s");
    let restart_median = |f: fn(&serving::Restart) -> f64| {
        median(&samples.restarts.iter().map(f).collect::<Vec<_>>())
    };
    rec.metric("ttfq_ms", restart_median(|r| r.ttfq_ms), "ms");
    rec.metric("store.open_ms", restart_median(|r| r.open_ms), "ms");
    rec.metric("shard.partition_ms", restart_median(|r| r.partition_ms), "ms");
    rec.metric("serve.start_ms", restart_median(|r| r.start_ms), "ms");
    rec.metric("serve.first_query_ms", restart_median(|r| r.first_query_ms), "ms");
    let base_summary = loadgen::summarize(&samples.base, u64::MAX);
    rec.metric("read_p50_ms", base_summary.p50_ms, "ms");
    rec.metric("read_p90_ms", base_summary.p90_ms, "ms");
    rec.metric("read_p99_ms", base_summary.p99_ms, "ms");
    rec.metric("read_capacity_rps", median(&samples.capacity_rps), "req/s");
    let rollout_ms: Vec<f64> = samples.rollouts.iter().map(RolloutRecord::latency_ms).collect();
    let rollout_p50 = median(&rollout_ms);
    rec.metric("rollout_p50_ms", rollout_p50, "ms");
    let shard_refresh_ms = median(&samples.shard_refresh_ms);
    rec.metric("shard.refresh_ms", shard_refresh_ms, "ms");
    rec.metric("serve.rollout_swap_ms", rollout_p50 - shard_refresh_ms, "ms");
    rec.metric("gen.late_ms", median(&samples.base_late_ms), "ms");
    rec.metric("gen.backlog", samples.base_backlog as f64, "count");
    rec.gate(
        "serve.reads_all_ok",
        base_summary.failed == 0 && samples.overload_failed == 0,
        format!(
            "{} of {} base and {} of {} overload reads failed",
            base_summary.failed,
            base_summary.attempted,
            samples.overload_failed,
            samples.overload_attempted
        ),
    );
    let counter = |name: &str| samples.stream_counters.get(name).copied().unwrap_or(0.0);
    let worker = counter("exec_pinned_served_worker");
    let inline = counter("exec_pinned_served_inline");
    rec.metric("exec.pinned_worker_frac", ratio(worker, worker + inline), "ratio");
    let (hits, misses) = (counter("service_cache_hits"), counter("service_cache_misses"));
    rec.metric("service.cache_hit_frac", ratio(hits, hits + misses), "ratio");
    rec.metric(
        "shard.gather_rounds_per_query",
        ratio(counter("shard_gather_rounds"), counter("serve_queries")),
        "ratio",
    );
    let resampled: Vec<f64> = samples
        .rollouts
        .iter()
        .filter_map(|r| r.outcome.as_ref().map(|o| o.resampled_sets as f64))
        .collect();
    rec.metric("service.sets_resampled", median(&resampled), "count");

    let batch_report = json!({
        "theta": result.theta,
        "estimated_influence": result.estimated_influence,
        "imm_runs_s": samples.imm_s,
        "sampling_s_in_run_imm": result.breakdown.timings.generate_rrrsets.as_secs_f64(),
        "selection_s_in_run_imm": result.breakdown.timings.find_most_influential.as_secs_f64(),
        "monte_carlo_runs_s": samples.mc_s,
    });
    let mut per_class: [Vec<f64>; 4] = Default::default();
    for r in &samples.base {
        per_class[usize::from(r.kind)].push(r.latency_ms());
    }
    let class_p50: Vec<Value> = serving::KIND_NAMES
        .iter()
        .zip(&per_class)
        .map(|(name, v)| json!({ "class": name, "p50_ms": median(v), "samples": v.len() }))
        .collect();
    let mut serve_report = json!({
        "ttfq_ms": samples.restarts.iter().map(|r| r.ttfq_ms).collect::<Vec<_>>(),
        "base": summary_json(&base_summary, plan.base.rate_per_s, &samples.base_s),
        "base_p50_by_class": class_p50,
        "overload_capacity_rps": samples.capacity_rps,
        "rollouts_ms": rollout_ms,
    });

    if traced {
        traced_batch(&plan, &graph, &weights, &result, &samples, &mut rec, &mut tracer);
        // The same short phase untraced, then traced, on the same index:
        // their p50 ratio is the tracing overhead on the read path.
        // Each half of the base queries is used once, so neither phase
        // answers from entries the other put in the response cache.
        let reads = daemon.connect()?;
        let pair = Schedule { duration: OVERHEAD_PHASE, ..plan.base };
        let half = plan.base_queries.len() / 2;
        let mut p50 = [0.0; 2];
        for (slot, spans) in [false, true].into_iter().enumerate() {
            let range = slot * half..(slot + 1) * half;
            let out = loadgen::run_phase(
                &reads,
                &plan.base_queries[range.clone()],
                &plan.base_kinds[range],
                pair,
                None,
                spans,
            )?;
            let summary = loadgen::summarize(&out.records, out.phase_ns);
            rec.ops(summary.attempted, summary.failed);
            p50[slot] = summary.p50_ms;
            if spans {
                let encode = out.spans.durations_ns("serve.encode_request");
                let decode = out.spans.durations_ns("serve.decode_response");
                rec.metric("serve.encode_us", median(&encode) / 1e3, "us");
                rec.metric("serve.decode_us", median(&decode) / 1e3, "us");
                tracer.absorb(out.spans);
            }
        }
        rec.metric("trace.serve_overhead", ratio(p50[1], p50[0]), "ratio");
    }
    daemon.stop()?;
    let counters_end = obs::read();
    let rejected = [
        "serve_rejected_over_budget",
        "serve_rejected_queue_full",
        "serve_rejected_invalid_vertex",
        "serve_deadline_exceeded",
    ]
    .iter()
    .map(|name| counters_end.since(&counters_start, name))
    .sum::<f64>();
    rec.metric("serve.rejected", rejected, "count");
    rec.metric(
        "serve.protocol_errors",
        counters_end.since(&counters_start, "serve_protocol_errors"),
        "count",
    );
    rec.metric("store.mapped", counters_end.since(&counters_start, "store_mmap_opens"), "count");
    rec.metric(
        "store.fallbacks",
        counters_end.since(&counters_start, "store_mmap_fallbacks"),
        "count",
    );
    rec.metric("shard.load_imbalance", counters_end.get("shard_load_imbalance"), "ratio");

    if traced {
        let replay = REPLAY.min(plan.base_queries.len());
        let per_kind = serving::replay_in_process(
            Arc::clone(&original),
            &plan.base_queries[..replay],
            &plan.base_kinds[..replay],
            THREADS,
            &mut tracer,
        );
        let names =
            ["shard.topk_us", "shard.spread_us", "shard.marginal_us", "shard.audience_topk_us"];
        for (name, kind_samples) in names.into_iter().zip(&per_kind) {
            rec.metric(name, median(kind_samples), "us");
        }
        let pooled: Vec<f64> = per_kind.concat();
        rec.metric("serve.socket_ms", base_summary.p50_ms - median(&pooled) / 1e3, "ms");
        let refresh = serving::replay_refresh(
            &plan.snapshot,
            (graph.clone(), weights.clone()),
            &applied,
            &mut tracer,
        )?;
        rec.metric("service.refresh_ms", median(&refresh), "ms");
        insert(&mut serve_report, "refresh_ms", json!(refresh));
    }
    drop(original);

    let counters_final = obs::read();
    let tasks_worker = counters_final.since(&counters_start, "exec_tasks_worker");
    let tasks_spawned = counters_final.since(&counters_start, "exec_tasks_spawned");
    rec.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let other_node = host::other_node_frac(&numa_before, &host::numastat());
    let report = json!({
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "host": {
            "nproc": host::nproc(),
            "numa_nodes": host::numa_nodes(),
            "threads_requested": THREADS,
            "exec_tasks_spawned": tasks_spawned,
            "exec_tasks_worker": tasks_worker,
            "exec_worker_task_frac": ratio(tasks_worker, tasks_spawned),
            "inline_only": THREADS > 1 && tasks_worker == 0.0,
            "numa_other_node_frac": other_node.map_or(json!("n/a"), |f| json!(f)),
            "git_rev": host::git_rev(),
            "build_profile": host::build_profile(),
        },
        "graph": { "nodes": graph.num_nodes(), "edges": graph.num_edges() },
        "batch": batch_report,
        "serving": serve_report,
        "failed_frac": ratio(rec.failed as f64, rec.attempted as f64),
    });
    Ok(Outcome {
        metrics: rec.metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        gates: rec.gates,
        report,
        tracer,
    })
}

/// One round: set-ups, the batch samples, restarts, rollouts, a slice of
/// each stream and the parity checks. Returns the round's daemon, still
/// running.
fn run_round(
    plan: &Plan<'_>,
    round: usize,
    samples: &mut Samples,
    rec: &mut Recorder,
    tracer: &mut Tracer,
) -> io::Result<Round> {
    let w = plan.w;
    let model = w.weights.model();
    let round_started = Instant::now();

    // Set-up: graph, weights, serving sketch and its snapshot, repeated
    // until the round's set-up time is used.
    let mut live = None;
    while live.is_none() || round_started.elapsed() < SETUP_PER_ROUND {
        let t = Instant::now();
        let (graph, weights, graph_s) = build_graph(w, plan.seed, tracer);
        tracer.span("service.sample_and_save", round as u64, || {
            serving::write_sketch(
                &graph,
                &weights,
                model,
                plan.seed,
                w.sketch_theta,
                THREADS,
                &plan.snapshot,
            )
        });
        samples.setup_s.push(t.elapsed().as_secs_f64());
        samples.graph_s.push(graph_s);
        live = Some((graph, weights));
    }
    let (graph, weights) = live.expect("at least one set-up per round");

    // Batch: run_imm until the round's batch share is used, then one
    // Monte-Carlo validation of the seeds.
    let budget = Duration::from_secs_f64(plan.round_s * w.batch_share);
    let started = Instant::now();
    let result = loop {
        let (result, secs) = batch::timed_imm(&graph, &weights, &plan.params, THREADS);
        samples.imm_s.push(secs);
        rec.ops(1, 0);
        if started.elapsed() >= budget {
            break result;
        }
    };
    let distinct: HashSet<_> = result.seeds.iter().collect();
    rec.gate(
        "imm.k_distinct_seeds",
        result.seeds.len() == w.k && distinct.len() == w.k,
        format!("{} seeds, {} distinct, k = {}", result.seeds.len(), distinct.len(), w.k),
    );
    let started = Instant::now();
    let (spread, secs) = loop {
        let (spread, secs) =
            batch::timed_spread(&graph, &weights, &plan.params, &result.seeds, MC_TRIALS);
        samples.mc_s.push(secs);
        rec.ops(1, 0);
        if started.elapsed() >= MC_PER_ROUND {
            break (spread, secs);
        }
    };
    let gap = (spread.mean - result.estimated_influence).abs() / result.estimated_influence;
    rec.gate(
        "imm.monte_carlo_agrees",
        gap <= w.mc_tolerance,
        format!(
            "Monte-Carlo {:.1} vs estimate {:.1}: gap {:.2}% (tolerance {:.0}%)",
            spread.mean,
            result.estimated_influence,
            gap * 100.0,
            w.mc_tolerance * 100.0
        ),
    );
    if round == 0 {
        let activations = spread.mean * spread.trials as f64;
        rec.metric("diffusion.activations", activations, "count");
        rec.metric("diffusion.ns_per_activation", ratio(secs * 1e9, activations), "ns");
    }

    // Restarts; the last one serves the round's streams.
    let mut daemon: Option<Daemon> = None;
    for r in 0..RESTARTS_PER_ROUND {
        if let Some(previous) = daemon.take() {
            previous.stop()?;
        }
        let live = (graph.clone(), weights.clone());
        let request = (round * RESTARTS_PER_ROUND + r) as u64;
        let (d, times) =
            serving::restart(&plan.snapshot, &plan.socket, live, THREADS, tracer, request)?;
        samples.restarts.push(times);
        rec.ops(1, 0);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one restart ran");
    let original = Arc::clone(&daemon.index);
    let first_round = round == 0;
    let last_round = round + 1 == ROUNDS;
    if first_round {
        let local = ShardedEngine::with_options(Arc::clone(&original), THREADS, 0);
        let before_load = serving::parity(&mut daemon.client, &local, &plan.battery, THREADS)?;
        rec.gate("serve.parity_before_load", before_load, format!("{BATTERY} queries"));
        rec.ops(1, 0);
    }

    // Rollouts on an idle daemon, when none run alongside the reads.
    let (lo, hi) = w.delta_weight;
    let delta_seed = plan.seed ^ 0xDE17A ^ ((round as u64) << 32);
    let mut rollouts = Vec::new();
    let idle_texts = if w.rollout_cadence_ms.is_none() {
        let texts = serving::delta_texts(delta_seed, w.nodes, w.idle_rollouts, DELTA_EDGES, lo, hi);
        let mut writes = daemon.connect()?;
        for text in &texts {
            let t = Instant::now();
            let answer = serving::call(&mut writes, &Request::ApplyDelta { text: text.clone() })?;
            let done_ns = Some(t.elapsed().as_nanos() as u64);
            let outcome = match answer {
                Response::DeltaApplied(outcome) => Some(outcome),
                _ => None,
            };
            rollouts.push(RolloutRecord { due_ns: 0, done_ns, outcome });
        }
        texts
    } else {
        Vec::new()
    };

    // Fault the mapped snapshot in and fill the response cache before
    // anything is timed; a restarted daemon pays this once, not per query.
    let reads = daemon.connect()?;
    let warm = Schedule { duration: WARM_UP, ..plan.base };
    let out = loadgen::run_phase(&reads, &plan.warm_queries, &plan.warm_kinds, warm, None, false)?;
    let warm_summary = loadgen::summarize(&out.records, out.phase_ns);
    rec.ops(warm_summary.attempted, warm_summary.failed);

    // The base phase gets what the round has left after the overload
    // phase, within its least share and the queries generated for it.
    let left = plan.round_s - round_started.elapsed().as_secs_f64();
    let base_s = (left - plan.overload.duration.as_secs_f64())
        .max(plan.round_s * MIN_BASE_SHARE)
        .min(plan.base.duration.as_secs_f64());
    let base = Schedule { duration: Duration::from_secs_f64(base_s), ..plan.base };
    samples.base_s.push(base_s);

    let before = obs::read();
    let (base_out, over_out, lane_texts) = match w.rollout_cadence_ms {
        Some(cadence_ms) => {
            let cadence = Duration::from_millis(cadence_ms);
            let per_phase = |s: &Schedule| {
                (s.duration.as_secs_f64() * 1000.0 / cadence_ms as f64).ceil() as usize
            };
            let (n_base, n_over) = (per_phase(&base), per_phase(&plan.overload));
            let texts =
                serving::delta_texts(delta_seed, w.nodes, n_base + n_over, DELTA_EDGES, lo, hi);
            let mut lane = RolloutLane::new(daemon.connect()?, texts[..n_base].to_vec(), cadence)?;
            let base_out = loadgen::run_phase(
                &reads,
                &plan.base_queries,
                &plan.base_kinds,
                base,
                Some(&mut lane),
                false,
            )?;
            let mut lane = RolloutLane::new(daemon.connect()?, texts[n_base..].to_vec(), cadence)?;
            let over_out = loadgen::run_phase(
                &reads,
                &plan.over_queries,
                &plan.over_kinds,
                plan.overload,
                Some(&mut lane),
                false,
            )?;
            // A lane whose phase ended before it sent all its texts leaves
            // a gap: only the texts actually sent are mirrored.
            let mut sent = texts[..base_out.rollouts.len()].to_vec();
            sent.extend_from_slice(&texts[n_base..n_base + over_out.rollouts.len()]);
            (base_out, over_out, sent)
        }
        None => {
            let base_out = loadgen::run_phase(
                &reads,
                &plan.base_queries,
                &plan.base_kinds,
                base,
                None,
                false,
            )?;
            let over_out = loadgen::run_phase(
                &reads,
                &plan.over_queries,
                &plan.over_kinds,
                plan.overload,
                None,
                false,
            )?;
            (base_out, over_out, Vec::new())
        }
    };
    let after = obs::read();
    for name in STREAM_COUNTERS {
        *samples.stream_counters.entry(name).or_insert(0.0) += after.since(&before, name);
    }
    let base_summary = loadgen::summarize(&base_out.records, base_out.phase_ns);
    let over_summary = loadgen::summarize(&over_out.records, over_out.phase_ns);
    rec.ops(base_summary.attempted, base_summary.failed);
    rec.ops(over_summary.attempted, over_summary.failed);
    samples.base.extend_from_slice(&base_out.records);
    samples.base_late_ms.push(base_summary.late_p99_ms);
    samples.base_backlog += base_summary.backlog;
    samples.capacity_rps.push(over_summary.completions_per_s);
    samples.overload_failed += over_summary.failed;
    samples.overload_attempted += over_summary.attempted;
    drop(reads);

    rollouts.extend(base_out.rollouts.into_iter().chain(over_out.rollouts));
    let applied = [idle_texts, lane_texts].concat();
    let failed = rollouts.iter().filter(|r| !r.latency_ms().is_finite()).count();
    rec.ops(rollouts.len(), failed);
    rec.gate("serve.rollouts_answered", failed == 0, format!("round {round}: {failed} failed"));
    samples.rollouts.extend(rollouts.iter().cloned());
    if last_round {
        check_rollouts(
            plan,
            &graph,
            &weights,
            &original,
            &applied,
            &rollouts,
            &mut daemon,
            samples,
            rec,
        )?;
    }
    Ok(Round { graph, weights, daemon, original, applied, result })
}

/// Replay the last round's deltas in-process: the daemon must agree on what
/// each refresh did and answer the battery byte-identically after them.
#[allow(clippy::too_many_arguments)]
fn check_rollouts(
    plan: &Plan<'_>,
    graph: &CsrGraph,
    weights: &EdgeWeights,
    original: &Arc<ShardedIndex>,
    applied: &[String],
    rollouts: &[RolloutRecord],
    daemon: &mut Daemon,
    samples: &mut Samples,
    rec: &mut Recorder,
) -> io::Result<()> {
    let mut mirror = serving::Mirror::new(Arc::clone(original), (graph.clone(), weights.clone()));
    let mut agree = applied.len() == rollouts.len();
    for (text, record) in applied.iter().zip(rollouts) {
        let t = Instant::now();
        let stats = mirror.apply(text)?;
        samples.shard_refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        agree &= record
            .outcome
            .as_ref()
            .is_some_and(|o| o.resampled_sets == stats.resampled_sets as u64);
    }
    rec.gate(
        "serve.rollouts_match_in_process_refresh",
        agree,
        format!("{} rollouts replayed", rollouts.len()),
    );
    let local = ShardedEngine::with_options(Arc::clone(&mirror.index), THREADS, 0);
    let after_rollouts = serving::parity(&mut daemon.client, &local, &plan.battery, THREADS)?;
    rec.gate("serve.parity_after_rollouts", after_rollouts, format!("{BATTERY} queries"));
    rec.ops(1, 0);
    Ok(())
}

/// The traced batch extras: the driver at two threads and at one, its
/// gates, and the per-layer figures of sampling and selection.
///
/// The driver's sampling, extension and selection spans are set against
/// the untraced `run_imm` time: the median of the rounds' runs and of one
/// run just before and one just after the driver, so that a change in the
/// host's speed between the rounds and the driver moves the ratio less.
fn traced_batch(
    plan: &Plan<'_>,
    graph: &CsrGraph,
    weights: &EdgeWeights,
    result: &ImmResult,
    samples: &Samples,
    rec: &mut Recorder,
    tracer: &mut Tracer,
) {
    let mut untraced = samples.imm_s.clone();
    untraced.push(batch::timed_imm(graph, weights, &plan.params, THREADS).1);
    let before = obs::read();
    let two = batch::traced_imm(graph, weights, &plan.params, THREADS, tracer, 2);
    let after = obs::read();
    untraced.push(batch::timed_imm(graph, weights, &plan.params, THREADS).1);
    let imm_s = median(&untraced);
    let one = batch::traced_imm(graph, weights, &plan.params, 1, tracer, 1);
    for (threads, d) in [(THREADS, &two), (1, &one)] {
        rec.gate(
            "trace.driver_matches_run_imm",
            d.seeds == result.seeds && d.theta == result.theta,
            format!("{threads} thread(s): θ {} vs {}", d.theta, result.theta),
        );
    }
    let calls_s = two.sampling_s + two.extend_s + two.selection_s;
    let coverage = ratio(calls_s, imm_s);
    rec.gate(
        "trace.spans_cover_run_imm",
        imm_s < SPAN_GATE_MIN_S || coverage >= 0.9,
        format!(
            "sampling, extension and selection spans ({calls_s:.3} s) cover {:.1}% of \
             untraced run_imm ({imm_s:.3} s){}",
            coverage * 100.0,
            if imm_s < SPAN_GATE_MIN_S { "; not gated, run_imm is too short" } else { "" }
        ),
    );
    let vertices = after.since(&before, "core_rrr_set_vertices");
    rec.metric("core.sampling_s", two.sampling_s, "s");
    rec.metric("core.selection_s", two.selection_s, "s");
    rec.metric("core.sets_sampled", after.since(&before, "core_rrr_sets_sampled"), "count");
    rec.metric("core.vertices_visited", vertices, "count");
    rec.metric("core.ns_per_vertex", ratio(two.sampling_s * 1e9, vertices), "ns");
    rec.metric("core.sampling_imbalance", two.sampling_work.imbalance(), "ratio");
    rec.metric("core.selection_calls", two.selection_calls as f64, "count");
    rec.metric("core.counter_rebuilds", two.counter_rebuilds as f64, "count");
    rec.metric("core.counter_decrements", two.counter_decrements as f64, "count");
    rec.metric("core.sampling_speedup_2t", ratio(one.sampling_s, two.sampling_s), "ratio");
    rec.metric("core.selection_speedup_2t", ratio(one.selection_s, two.selection_s), "ratio");
    rec.metric("rrr.extend_s", two.extend_s, "s");
    rec.metric("rrr.bitmap_set_frac", ratio(two.bitmap_sets as f64, two.theta as f64), "ratio");
    rec.metric("rrr.memory_bytes", two.memory_bytes as f64, "B");
    let spawned = after.since(&before, "exec_tasks_spawned");
    rec.metric(
        "exec.worker_task_frac",
        ratio(after.since(&before, "exec_tasks_worker"), spawned),
        "ratio",
    );
    rec.metric("trace.imm_overhead", ratio(two.wall_s, imm_s), "ratio");
    rec.metric("trace.imm_span_coverage", coverage, "ratio");
}

fn summary_json(s: &loadgen::Summary, rate_per_s: f64, round_durations_s: &[f64]) -> Value {
    json!({
        "rate_per_s": rate_per_s,
        "round_durations_s": round_durations_s,
        "attempted": s.attempted,
        "failed": s.failed,
        "p50_ms": s.p50_ms,
        "p90_ms": s.p90_ms,
        "p99_ms": s.p99_ms,
        "tail": s.tail.map(|t| json!({
            "percentile": t.percentile,
            "value_ms": t.value,
            "samples": t.samples,
        })),
    })
}
