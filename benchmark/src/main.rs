//! The repository benchmark.
//!
//! ```text
//! imm-repo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs one session of the
//! workload, checks its outputs, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run also records
//! spans around its calls into each layer and prints the per-layer metrics
//! instead. A report with the host block and per-phase details, and in
//! traced runs the spans, are written under `.bench_work/`. See `README.md`.

mod batch;
mod host;
mod loadgen;
mod obs;
mod serving;
mod session;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Value};

/// Where reports, traces, snapshots and sockets go, relative to the
/// directory the benchmark runs from. Kept short: it holds unix sockets.
const WORK_DIR: &str = ".bench_work";

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [&str; 5] =
    ["setup_s", "imm_s", "mc_validate_s", "peak_rss_mb", "read_capacity_rps"];

/// Per-layer metrics, printed by traced runs.
pub const PER_LAYER: [&str; 51] = [
    "graph.build_s",
    "core.sampling_s",
    "core.selection_s",
    "core.sets_sampled",
    "core.vertices_visited",
    "core.ns_per_vertex",
    "core.sampling_imbalance",
    "core.selection_calls",
    "core.counter_rebuilds",
    "core.counter_decrements",
    "core.sampling_speedup_2t",
    "core.selection_speedup_2t",
    "rrr.extend_s",
    "rrr.bitmap_set_frac",
    "rrr.memory_bytes",
    "exec.worker_task_frac",
    "exec.pinned_worker_frac",
    "diffusion.activations",
    "diffusion.ns_per_activation",
    "store.open_ms",
    "store.mapped",
    "store.fallbacks",
    "shard.partition_ms",
    "shard.topk_us",
    "shard.audience_topk_us",
    "shard.spread_us",
    "shard.marginal_us",
    "shard.load_imbalance",
    "service.cache_hit_frac",
    "shard.gather_rounds_per_query",
    "service.sets_resampled",
    "service.refresh_ms",
    "shard.refresh_ms",
    "serve.start_ms",
    "serve.first_query_ms",
    "serve.encode_us",
    "serve.decode_us",
    "serve.socket_ms",
    "serve.rollout_swap_ms",
    "serve.rejected",
    "serve.protocol_errors",
    "ttfq_ms",
    "read_p50_ms",
    "read_p90_ms",
    "read_p99_ms",
    "rollout_p50_ms",
    "gen.late_ms",
    "gen.backlog",
    "trace.imm_overhead",
    "trace.serve_overhead",
    "trace.imm_span_coverage",
];

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, traced })
}

/// The result line: every metric of `names`, with its unit.
fn result_line(outcome: &session::Outcome, names: &[&str], correct: bool) -> Value {
    let metrics = names
        .iter()
        .map(|name| {
            let (_, value, unit) = outcome
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name.to_string(), json!({ "value": value, "unit": unit }))
        })
        .collect();
    json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    })
}

fn write_outputs(args: &Args, outcome: &session::Outcome, work_dir: &Path) -> std::io::Result<()> {
    let stem = format!("{}-seed{}-trace{}", args.workload.name, args.seed, u8::from(args.traced));
    let mut report = outcome.report.clone();
    session::insert(
        &mut report,
        "metrics",
        json!(outcome
            .metrics
            .iter()
            .map(|(n, v, u)| json!({"name": n, "value": v, "unit": u}))
            .collect::<Vec<_>>()),
    );
    session::insert(
        &mut report,
        "gates",
        json!(outcome
            .gates
            .iter()
            .map(|g| json!({"name": g.name, "passed": g.passed, "detail": g.detail}))
            .collect::<Vec<_>>()),
    );
    let text = serde_json::to_string_pretty(&report).map_err(std::io::Error::other)?;
    std::fs::write(work_dir.join(format!("report-{stem}.json")), text)?;
    if args.traced {
        outcome.tracer.write_jsonl(&work_dir.join(format!("trace-{stem}.jsonl")))?;
    }
    Ok(())
}

fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: imm-repo-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if imm_exec::configure_global(session::THREADS).is_err() {
        eprintln!("error: the global worker pool was initialized before configuration");
        return ExitCode::FAILURE;
    }
    obs::register_all();
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }

    let outcome =
        match session::run(&args.workload, args.seed, args.seconds, args.traced, &work_dir) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {} run failed: {e}", args.workload.name);
                return ExitCode::FAILURE;
            }
        };
    if let Err(e) = write_outputs(&args, &outcome, &work_dir) {
        eprintln!("error: cannot write the report: {e}");
        return ExitCode::FAILURE;
    }
    let host = &outcome.report["host"];
    eprintln!(
        "[bench] {} seed {}: nproc {} numa_nodes {} threads {} worker_task_frac {:.3} \
         inline_only {} numa.other_node_frac {} rev {} profile {}",
        args.workload.name,
        args.seed,
        show(&host["nproc"]),
        show(&host["numa_nodes"]),
        show(&host["threads_requested"]),
        host["exec_worker_task_frac"].as_f64().unwrap_or(0.0),
        show(&host["inline_only"]),
        show(&host["numa_other_node_frac"]),
        show(&host["git_rev"]),
        show(&host["build_profile"]),
    );
    let correct = outcome.gates.iter().all(|g| g.passed);
    let names: &[&str] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let line = result_line(&outcome, names, correct);
    println!("{}", serde_json::to_string(&line).expect("a JSON value always serializes"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Weights, Workload, WORKLOADS};

    fn manifest() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(manifest: &Value, list: &str) -> Vec<String> {
        manifest[list]
            .as_array()
            .expect("list present")
            .iter()
            .map(|m| m["name"].as_str().expect("named").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_measures() {
        let m = manifest();
        assert_eq!(names(&m, "end_to_end"), END_TO_END);
        assert_eq!(names(&m, "per_layer"), PER_LAYER);
        assert_eq!(names(&m, "workloads"), WORKLOADS.map(|w| w.name));
    }

    /// A session small enough for a unit test, on either rollout path.
    fn smoke(name: &'static str, weights: Weights, rollout_cadence_ms: Option<u64>) -> Workload {
        Workload {
            name,
            nodes: 2_000,
            avg_degree: 4,
            weights,
            k: 5,
            mc_tolerance: 0.25,
            batch_share: 0.1,
            sketch_theta: 400,
            base_rate: 200.0,
            overload_rate: 2_000.0,
            rollout_cadence_ms,
            idle_rollouts: 1,
            delta_weight: (0.001, 0.01),
        }
    }

    #[test]
    fn a_smoke_run_emits_every_metric_and_passes_every_gate() {
        let _ = imm_exec::configure_global(session::THREADS);
        obs::register_all();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_work/test");
        std::fs::create_dir_all(&dir).expect("work dir");
        let m = manifest();
        let units = |list: &str| -> Vec<(String, String)> {
            m[list]
                .as_array()
                .expect("list")
                .iter()
                .map(|x| (x["name"].as_str().unwrap().into(), x["unit"].as_str().unwrap().into()))
                .collect()
        };
        for w in [
            smoke("smoke-idle", Weights::LtNormalized, None),
            smoke("smoke-lane", Weights::WeightedCascade, Some(100)),
        ] {
            let outcome = session::run(&w, 7, 2.0, true, &dir).expect("smoke run completes");
            for gate in &outcome.gates {
                assert!(gate.passed, "{}: gate {} failed: {}", w.name, gate.name, gate.detail);
            }
            assert_eq!(outcome.failed, 0, "{}: failed operations", w.name);
            for (name, unit) in units("end_to_end").into_iter().chain(units("per_layer")) {
                let found = outcome.metrics.iter().find(|(n, _, _)| *n == name);
                let (_, value, emitted_unit) =
                    found.unwrap_or_else(|| panic!("{}: {name} not emitted", w.name));
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                assert_eq!(*emitted_unit, unit, "{}: unit of {name}", w.name);
            }
            let line = result_line(&outcome, &END_TO_END, true);
            let parsed = serde_json::from_str(&serde_json::to_string(&line).unwrap()).unwrap();
            assert_eq!(parsed, line, "the result line round-trips as JSON");
        }
    }
}
