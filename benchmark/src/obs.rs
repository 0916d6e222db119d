//! Before/after readings of the `imm-obs` registry the crates export.

use std::collections::BTreeMap;

use imm_obs::MetricValue;

/// Register every crate's metrics so a reading lists the full catalog.
pub fn register_all() {
    imm_exec::metrics::register();
    efficient_imm::metrics::register();
    imm_service::metrics::register();
    imm_shard::metrics::register();
    imm_serve::metrics::register();
    imm_store::metrics::register();
}

/// Counter and gauge values at one instant.
#[derive(Debug, Clone, Default)]
pub struct Reading(BTreeMap<&'static str, f64>);

/// Read every counter and gauge.
pub fn read() -> Reading {
    Reading(
        imm_obs::snapshot()
            .into_iter()
            .filter_map(|s| match s.value {
                MetricValue::Counter(v) => Some((s.name, v as f64)),
                MetricValue::Gauge(v) => Some((s.name, v)),
                _ => None,
            })
            .collect(),
    )
}

impl Reading {
    /// The value of `name` (0 if not registered).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// How much counter `name` grew since `earlier`.
    pub fn since(&self, earlier: &Reading, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }
}
