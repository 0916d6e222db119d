//! Distributed-serving metrics (`shard_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The sharded engine's failure modes are *distributional*: one hot
//! shard doing most of the retire work, or gather rounds ballooning
//! with the seed budget. So the layer exports a per-shard retire-walk
//! histogram (every shard records its retired-set count every round —
//! zeros included, so a skewed distribution is visible against the
//! round count), a gather-round counter, and a load-imbalance gauge
//! (max/mean per-shard postings work, recomputed at build and refresh).
//! Query latency, cache and CELF metrics are *not* duplicated here: the
//! engine records them in the `service_` family.

use std::sync::Once;

use imm_obs::{Counter, Gauge, Histogram, Metric, Unit};

/// Sets retired by one shard in one CELF retire walk.
pub static RETIRE_WALK_SETS: Histogram = Histogram::new(
    "shard_retire_walk_sets",
    "RRR sets retired by a single shard in one CELF retire round (zeros included)",
    Unit::Count,
);

/// Scatter/gather rounds issued by the sharded engine (CELF retire
/// rounds, whether served by pinned workers or inline).
pub static GATHER_ROUNDS: Counter = Counter::new(
    "shard_gather_rounds",
    "CELF scatter/gather retire rounds issued by the sharded engine",
);

/// Max/mean per-shard postings work, recomputed at build and refresh.
pub static LOAD_IMBALANCE: Gauge = Gauge::new(
    "shard_load_imbalance",
    "Ratio of the busiest shard's postings entries to the per-shard mean",
    Unit::Ratio,
);

/// Register the shard metrics with the process-global registry.
/// Idempotent; called from the engine constructor.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        imm_obs::register(&[
            &RETIRE_WALK_SETS as &'static dyn Metric,
            &GATHER_ROUNDS as &'static dyn Metric,
            &LOAD_IMBALANCE as &'static dyn Metric,
        ]);
    });
}

/// Fold per-shard postings totals into the [`LOAD_IMBALANCE`] gauge.
pub(crate) fn record_shard_work(per_shard_postings: &[u64]) {
    let shards = per_shard_postings.len();
    let total: u64 = per_shard_postings.iter().sum();
    if shards == 0 || total == 0 {
        LOAD_IMBALANCE.set(0.0);
        return;
    }
    let max = *per_shard_postings.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / shards as f64;
    LOAD_IMBALANCE.set(max / mean);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_join_the_global_registry() {
        register();
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for expected in ["shard_retire_walk_sets", "shard_gather_rounds", "shard_load_imbalance"] {
            assert!(names.contains(&expected), "{expected} missing from registry");
        }
    }

    #[test]
    fn load_imbalance_is_max_over_mean() {
        if !imm_obs::recording_enabled() {
            return;
        }
        record_shard_work(&[10, 10, 10, 10]);
        assert_eq!(LOAD_IMBALANCE.value(), 1.0);
        record_shard_work(&[30, 10, 10, 10]);
        assert_eq!(LOAD_IMBALANCE.value(), 2.0);
        record_shard_work(&[]);
        assert_eq!(LOAD_IMBALANCE.value(), 0.0);
    }
}
