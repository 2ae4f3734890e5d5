//! **E10** — fault tolerance under injected failures.
//!
//! Sweeps the intensity of a seeded random [`stsl_simnet::FaultPlan`]
//! (link outages, loss surges, latency spikes, client crash→recover
//! windows, server stalls) over the asynchronous trainer with
//! retransmission, liveness tracking and auto-checkpointing enabled, and
//! reports the robustness counters: retransmits, batches lost, downtime,
//! crash/recovery/checkpoint events and final accuracy.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_simnet::{FaultPlan, Link, SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, RetryPolicy, SchedulingPolicy, SplitConfig,
};

const CLIENTS: usize = 4;
/// Baseline per-link loss, an `f32` widened to `f64` at use: the
/// widened value (0.05000000074505806) is what `results/fault.json`
/// records.
const BASE_LOSS: f32 = 0.05;

#[derive(Serialize)]
struct Row {
    intensity: f64,
    fault_episodes: usize,
    sim_seconds: f64,
    network_drops: u64,
    retransmits: u64,
    retry_exhausted: u64,
    batches_lost: u64,
    crash_events: u64,
    recovery_events: u64,
    checkpoint_saves: u64,
    checkpoint_restores: u64,
    dead_clients_detected: u64,
    total_downtime_ms: f64,
    served_per_client: Vec<u64>,
    accuracy: f32,
}

#[derive(Serialize)]
struct FaultSweep {
    data_source: String,
    end_systems: usize,
    base_loss: f64,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let epochs = if quick { 1 } else { 3 };
    let train_n = if quick { 160 } else { 640 };
    let base_loss = BASE_LOSS as f64;
    let intensities: Vec<f64> = if quick {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    };

    let (train, test, source) = load_data(train_n, 160, 16, seed, 0.12);
    let header = format!(
        "E10 fault-tolerance sweep — {} data, {} end-systems, {:.0}% base loss, epochs {}",
        source,
        CLIENTS,
        base_loss * 100.0,
        epochs
    );

    // Heterogeneous links with a lossy baseline, so retransmission is
    // exercised even at intensity 0.
    let topology = StarTopology::new(
        (0..CLIENTS)
            .map(|i| Link::wan(5.0 + 20.0 * i as f64, 100.0).loss(base_loss))
            .collect(),
    );
    let compute = ComputeModel::default();
    // Faults are scheduled over roughly the horizon a clean run needs;
    // crashes outlasting the survivors' work still recover (the run only
    // ends once every scheduled recovery has fired).
    let horizon = SimDuration::from_millis(if quick { 2_000 } else { 6_000 });

    let mut rows = Vec::new();
    for &intensity in &intensities {
        let plan = FaultPlan::random(CLIENTS, horizon, seed ^ 0xFA17, intensity);
        let cfg = SplitConfig::new(CutPoint(1), CLIENTS)
            .arch(CnnArch::tiny())
            .epochs(epochs)
            .batch_size(16)
            .seed(seed);
        let mut trainer = AsyncSplitTrainer::new(
            cfg,
            &train,
            topology.clone(),
            SchedulingPolicy::RoundRobin,
            compute,
        )
        .expect("valid config")
        .with_fault_plan(plan.clone())
        .with_retry_policy(RetryPolicy::default())
        .with_auto_checkpoint(SimDuration::from_millis(200))
        .with_liveness_timeout(SimDuration::from_millis(1_000));
        let r = trainer.run(&test);
        rows.push(Row {
            intensity,
            fault_episodes: plan.len(),
            sim_seconds: r.sim_seconds,
            network_drops: r.network_drops,
            retransmits: r.retransmits,
            retry_exhausted: r.retry_exhausted,
            batches_lost: r.batches_lost,
            crash_events: r.crash_events,
            recovery_events: r.recovery_events,
            checkpoint_saves: r.checkpoint_saves,
            checkpoint_restores: r.checkpoint_restores,
            dead_clients_detected: r.dead_clients_detected,
            total_downtime_ms: r.downtime_ms_per_client.iter().sum(),
            served_per_client: r.served_per_client.clone(),
            accuracy: r.final_accuracy,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("intensity", &|r| format!("{:.2}", r.intensity)),
            ("episodes", &|r| r.fault_episodes.to_string()),
            ("drops", &|r| r.network_drops.to_string()),
            ("retransmits", &|r| r.retransmits.to_string()),
            ("lost", &|r| r.batches_lost.to_string()),
            ("crash/recover", &|r| {
                format!("{}/{}", r.crash_events, r.recovery_events)
            }),
            ("downtime (ms)", &|r| format!("{:.0}", r.total_downtime_ms)),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
        ],
    );
    Outcome::new(
        format!("{header}\n\n{table}"),
        &FaultSweep {
            data_source: source.to_string(),
            end_systems: CLIENTS,
            base_loss,
            rows,
        },
    )
}
