//! The experiment registry: every table and figure this crate regenerates,
//! by name.
//!
//! Each module holds one experiment's payload structs and loop. A run
//! takes a [`Preset`] and a seed and hands back an [`Outcome`] (the text
//! report and the JSON payload); it never parses arguments, prints or
//! writes files itself. [`crate::run_experiment`] is the one place an
//! outcome reaches stdout and `results/`.

mod churn_sweep;
mod comm_cost;
mod corruption_sweep;
mod fault_sweep;
mod fig4;
mod fleet_sweep;
mod leakage_sweep;
mod noise_ablation;
mod parallel_speedup;
mod poison_sweep;
mod pool_ablation;
mod queue_sweep;
mod scale_sweep;
mod table1;
mod telemetry_report;
mod ushaped_compare;

use serde::Serialize;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Seconds-long smoke run (`--quick`), what CI runs.
    Quick,
    /// The settings EXPERIMENTS.md reports (no flag).
    Standard,
    /// Paper scale (`--full`); only experiments with
    /// [`Experiment::full`] set accept it.
    Full,
}

impl Preset {
    /// The preset's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Quick => "quick",
            Preset::Standard => "standard",
            Preset::Full => "full",
        }
    }
}

/// What one run hands back: the report for stdout and the payload for
/// the results envelope.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable summary (tables and notes). Wall-clock figures may
    /// appear here and nowhere else.
    pub report: String,
    /// The JSON nested under the envelope's `data` key.
    pub data: String,
    /// Extra artifacts written next to the JSON, as (file name, bytes).
    pub files: Vec<(String, Vec<u8>)>,
}

impl Outcome {
    /// An outcome whose payload is `data` rendered as pretty JSON.
    pub fn new<T: Serialize>(report: String, data: &T) -> Self {
        Outcome {
            report,
            data: serde_json::to_string_pretty(data).expect("serialize result"),
            files: Vec::new(),
        }
    }
}

/// One named experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line id, also stamped as the envelope's `"bin"`.
    pub id: &'static str,
    /// What the experiment regenerates, for `stsl-exp list`.
    pub title: &'static str,
    /// The run writes `<results dir>/<stem>.json`.
    pub stem: &'static str,
    /// Seed used when `--seed` is not given.
    pub seed: u64,
    /// Whether the experiment has a [`Preset::Full`].
    pub full: bool,
    /// Runs the experiment.
    pub run: fn(Preset, u64) -> Outcome,
}

/// Builds [`EXPERIMENTS`] with each module's name as its id. A module
/// left out of the list fails the build as dead code.
macro_rules! registry {
    ($($id:ident: $stem:literal, seed $seed:literal, full $full:literal, $title:literal;)*) => {
        /// Every experiment, in paper order: Table I, Fig. 4, then E3–E16.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            id: stringify!($id),
            title: $title,
            stem: $stem,
            seed: $seed,
            full: $full,
            run: $id::run,
        }),*];
    };
}

registry! {
    table1: "table1", seed 42, full true, "Table I: accuracy vs cut depth";
    fig4: "fig4", seed 7, full false, "Fig. 4: activation capture triptychs";
    leakage_sweep: "leakage", seed 13, full false, "E3: inversion leakage vs cut depth";
    queue_sweep: "queue", seed 21, full false, "E4: queueing and scheduling (paper §II)";
    scale_sweep: "scale", seed 31, full false, "E5: N=1 (Fig. 1) to N=16 (Fig. 2)";
    comm_cost: "comm", seed 17, full false, "E6: bytes vs FedAvg vs raw upload";
    noise_ablation: "noise", seed 23, full false, "E7: Gaussian noise defense trade-off";
    ushaped_compare: "ushaped", seed 29, full false, "E8: label-private U-shaped protocol";
    pool_ablation: "pool", seed 37, full false, "E9: max vs average pooling privacy";
    fault_sweep: "fault", seed 33, full false, "E10: fault injection and recovery";
    corruption_sweep: "guard", seed 47, full false, "E11: integrity guard vs payload corruption";
    telemetry_report: "telemetry", seed 51, full false, "E12: latency and staleness telemetry";
    churn_sweep: "churn", seed 43, full false, "E13: churn and overload control";
    parallel_speedup: "parallel", seed 9, full false, "E14: backend and thread-pool speedup (wall clock)";
    poison_sweep: "poison", seed 47, full false, "E15: Byzantine poisoning vs robust aggregation";
    // Seed 17 is `FleetConfig::crossval64().seed`, the shared row's data seed.
    fleet_sweep: "fleet", seed 17, full true, "E16: fleet scale, 1k to 100k end-systems";
}

/// The registry entry named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}
