//! **E11** — data-plane integrity under payload corruption.
//!
//! Sweeps the in-flight corruption rate over the asynchronous trainer
//! twice per rate: once with the integrity guard on (checksummed wire
//! format + ingress validation + quarantine + rollback watchdog) and once
//! with it off (the legacy trusting receiver). With the guard, corrupted
//! frames are caught by CRC and retransmitted, so accuracy stays within a
//! couple of points of the fault-free run; without it, frames that still
//! parse are silently applied and training degrades or diverges.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_simnet::{FaultPlan, Link, SimDuration, SimTime, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, GuardConfig, RetryPolicy, SchedulingPolicy,
    SplitConfig,
};

const CLIENTS: usize = 4;

#[derive(Serialize)]
struct Row {
    corruption_rate: f64,
    guard: bool,
    sim_seconds: f64,
    corrupted_payloads: u64,
    corrupted_rejected: u64,
    anomalies_rejected: u64,
    quarantines: u64,
    quarantine_drops: u64,
    rollbacks: u64,
    retransmits: u64,
    retry_exhausted: u64,
    batches_lost: u64,
    served_per_client: Vec<u64>,
    accuracy: f32,
}

#[derive(Serialize)]
struct CorruptionSweep {
    data_source: String,
    end_systems: usize,
    rates: Vec<f64>,
    /// Accuracy of the fault-free guard-on run, the reference the
    /// guard-on rows are compared against.
    clean_accuracy: f32,
    rows: Vec<Row>,
}

fn run_one(
    rate: f64,
    guard: bool,
    epochs: usize,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> Row {
    let topology = StarTopology::new(
        (0..CLIENTS)
            .map(|i| Link::wan(5.0 + 10.0 * i as f64, 100.0))
            .collect(),
    );
    let mut plan = FaultPlan::new();
    if rate > 0.0 {
        // Corruption active over the whole run.
        plan = plan.payload_corruption_all(
            CLIENTS,
            rate,
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX),
        );
    }
    let cfg = SplitConfig::new(CutPoint(1), CLIENTS)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(16)
        .seed(seed);
    let mut trainer = AsyncSplitTrainer::new(
        cfg,
        train,
        topology,
        SchedulingPolicy::RoundRobin,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy::default())
    .with_auto_checkpoint(SimDuration::from_millis(200));
    if guard {
        trainer = trainer.with_integrity_guard(GuardConfig::default());
    }
    let r = trainer.run(test);
    Row {
        corruption_rate: rate,
        guard,
        sim_seconds: r.sim_seconds,
        corrupted_payloads: r.corrupted_payloads,
        corrupted_rejected: r.corrupted_rejected,
        anomalies_rejected: r.anomalies_rejected,
        quarantines: r.quarantines,
        quarantine_drops: r.quarantine_drops,
        rollbacks: r.rollbacks,
        retransmits: r.retransmits,
        retry_exhausted: r.retry_exhausted,
        batches_lost: r.batches_lost,
        served_per_client: r.served_per_client.clone(),
        accuracy: r.final_accuracy,
    }
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let epochs = if quick { 2 } else { 4 };
    let train_n = if quick { 160 } else { 640 };
    let rates: Vec<f64> = if quick {
        vec![0.0, 0.05]
    } else {
        vec![0.0, 0.01, 0.05, 0.15]
    };

    let (train, test, source) = load_data(train_n, 160, 16, seed, 0.12);
    let header = format!(
        "E11 corruption sweep — {} data, {} end-systems, epochs {}",
        source, CLIENTS, epochs
    );

    let mut rows = Vec::new();
    let mut clean_accuracy = 0.0f32;
    for &rate in &rates {
        for guard in [true, false] {
            let row = run_one(rate, guard, epochs, seed, &train, &test);
            if rate == 0.0 && guard {
                clean_accuracy = row.accuracy;
            }
            rows.push(row);
        }
    }

    let table = render_table(
        &rows,
        &[
            ("corruption", &|r| {
                format!("{:.2}%", r.corruption_rate * 100.0)
            }),
            ("guard", &|r| {
                (if r.guard { "on" } else { "off" }).to_string()
            }),
            ("corrupted", &|r| r.corrupted_payloads.to_string()),
            ("rejected", &|r| r.corrupted_rejected.to_string()),
            ("anomalies", &|r| r.anomalies_rejected.to_string()),
            ("rollbacks", &|r| r.rollbacks.to_string()),
            ("lost", &|r| r.batches_lost.to_string()),
            ("Δacc (pts)", &|r| {
                format!("{:+.1}", (r.accuracy - clean_accuracy) * 100.0)
            }),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
        ],
    );
    Outcome::new(
        format!("{header}\n\n{table}"),
        &CorruptionSweep {
            data_source: source.to_string(),
            end_systems: CLIENTS,
            rates,
            clean_accuracy,
            rows,
        },
    )
}
