//! The four workloads. Each is one user session over the whole system:
//! build the graph and the serving sketch, run IMM and validate its seeds,
//! restart the daemon from the snapshot, serve an open-loop read stream at
//! a base rate and at overload, and roll graph deltas out. The workloads
//! differ in the input properties the layers are sensitive to and in where
//! the run's time goes; the rationale for each is in `README.md`.

use imm_diffusion::DiffusionModel;

/// IMM's ε, as in the paper's evaluation.
pub const EPSILON: f64 = 0.5;
/// Monte-Carlo trials validating the seeds.
pub const MC_TRIALS: usize = 100;
/// Edge insertions per rollout.
pub const DELTA_EDGES: usize = 20;
/// Share of each round spent at the overload rate.
pub const OVERLOAD_SHARE: f64 = 0.15;

/// How edge weights are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    /// IC with probabilities uniform in [0, 1] (the paper's IC setting).
    IcUniform,
    /// IC with weighted-cascade probabilities `1 / in-degree`.
    WeightedCascade,
    /// LT with normalized random in-weights.
    LtNormalized,
}

impl Weights {
    /// The diffusion model the weights belong to.
    pub fn model(self) -> DiffusionModel {
        match self {
            Weights::IcUniform | Weights::WeightedCascade => DiffusionModel::IndependentCascade,
            Weights::LtNormalized => DiffusionModel::LinearThreshold,
        }
    }
}

/// Every parameter of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Vertices of the generated social network.
    pub nodes: usize,
    /// Average-degree parameter of the generator.
    pub avg_degree: usize,
    /// Edge-weight model.
    pub weights: Weights,
    /// Seeds IMM selects.
    pub k: usize,
    /// Allowed relative gap between the Monte-Carlo spread and IMM's
    /// estimate.
    pub mc_tolerance: f64,
    /// Share of each round spent repeating `run_imm` (at least one run
    /// per round).
    pub batch_share: f64,
    /// RRR sets in the serving sketch.
    pub sketch_theta: usize,
    /// Requests per second of the base-rate phase.
    pub base_rate: f64,
    /// Requests per second offered in the overload phase.
    pub overload_rate: f64,
    /// Rollouts run while reads are in flight, one per this many ms
    /// (`None`: rollouts run on an idle daemon before the reads).
    pub rollout_cadence_ms: Option<u64>,
    /// Rollouts per round on an idle daemon, when none run alongside reads.
    pub idle_rollouts: usize,
    /// Range of inserted edge weights.
    pub delta_weight: (f32, f32),
}

const BASE: Workload = Workload {
    name: "",
    nodes: 50_000,
    avg_degree: 8,
    weights: Weights::WeightedCascade,
    k: 50,
    mc_tolerance: 0.10,
    batch_share: 0.15,
    sketch_theta: 50_000,
    base_rate: 200.0,
    overload_rate: 8000.0,
    rollout_cadence_ms: None,
    idle_rollouts: 5,
    delta_weight: (0.01, 0.2),
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "imm-ic",
        nodes: 25_000,
        avg_degree: 2,
        weights: Weights::IcUniform,
        mc_tolerance: 0.15,
        batch_share: 0.0,
        sketch_theta: 64,
        base_rate: 100.0,
        overload_rate: 4000.0,
        idle_rollouts: 10,
        delta_weight: (0.0, 1.0),
        ..BASE
    },
    Workload {
        name: "imm-lt",
        nodes: 300_000,
        avg_degree: 8,
        weights: Weights::LtNormalized,
        k: 100,
        batch_share: 0.0,
        base_rate: 125.0,
        overload_rate: 4000.0,
        idle_rollouts: 1,
        delta_weight: (0.0005, 0.002),
        ..BASE
    },
    Workload { name: "serve-read", ..BASE },
    Workload { name: "serve-rollout", rollout_cadence_ms: Some(500), ..BASE },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}
