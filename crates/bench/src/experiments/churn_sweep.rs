//! **E13** — churn-resilient membership and server overload control.
//!
//! Two experiments in one run, both written into `results/churn.json`:
//!
//! 1. **Churn sweep** — a fleet of founding members plus pre-declared
//!    dormant joiners runs a seeded churn arrival process
//!    ([`FaultPlan::churn`]) at increasing turnover. Departing
//!    end-systems have their un-acked batch rewound, rejoin from their
//!    last acked batch with server-seeded warm start, and keep
//!    contributing; final accuracy at 20 % turnover stays within a
//!    couple of points of the churn-free (turnover 0) run.
//! 2. **Overload stress** — a deliberately slow server behind a latency
//!    gradient, run once with admission control (bounded ingress queue +
//!    token buckets) and once without. Shed-off, the queue climbs to the
//!    fleet size; shed-on, depth never exceeds the configured cap and the
//!    overflow is counted as `batches_shed` instead of hiding as queue
//!    wait.
//!
//! Every value derives from simulated time, so the file is bitwise
//! identical for any `STSL_THREADS`.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_simnet::{FaultPlan, Link, SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, DeadlineConfig, OverloadConfig,
    SchedulingPolicy, SplitConfig,
};

const MEMBERS: usize = 6;
const JOINERS: usize = 2;

#[derive(Serialize)]
struct ChurnRow {
    turnover: f64,
    shed: bool,
    sim_seconds: f64,
    clients_joined: u64,
    clients_departed: u64,
    rejoins: u64,
    batches_shed: u64,
    breaker_trips: u64,
    deadline_partial_applies: u64,
    checkpoint_restores: u64,
    batches_lost: u64,
    max_queue_depth: usize,
    served_total: u64,
    accuracy: f32,
}

#[derive(Serialize)]
struct OverloadRow {
    shed: bool,
    queue_capacity: usize,
    max_queue_depth: usize,
    batches_shed: u64,
    batches_lost: u64,
    served_total: u64,
    sim_seconds: f64,
    accuracy: f32,
    /// Every 8th ingress-queue depth sample, oldest first — shed-off this
    /// profile climbs toward the fleet size; shed-on it plateaus at the
    /// cap.
    depth_profile: Vec<usize>,
}

#[derive(Serialize)]
struct ChurnSweep {
    data_source: String,
    founding_members: usize,
    joiners: usize,
    turnovers: Vec<f64>,
    horizon_ms: u64,
    /// Accuracy of the turnover-0 shed-on run: the churn-free baseline
    /// the churn rows are compared against.
    baseline_accuracy: f32,
    rows: Vec<ChurnRow>,
    overload: Vec<OverloadRow>,
}

fn run_churn(
    turnover: f64,
    shed: bool,
    horizon_ms: u64,
    epochs: usize,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> ChurnRow {
    let fleet = MEMBERS + JOINERS;
    let topology = StarTopology::new(
        (0..fleet)
            .map(|i| Link::wan(3.0 + 2.0 * i as f64, 100.0))
            .collect(),
    );
    let plan = FaultPlan::churn(
        MEMBERS,
        JOINERS,
        SimDuration::from_millis(horizon_ms),
        seed ^ 0xC4A2,
        turnover,
    );
    let cfg = SplitConfig::new(CutPoint(1), fleet)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(8)
        .seed(seed);
    let mut trainer = AsyncSplitTrainer::new(
        cfg,
        train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan)
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_round_deadlines(DeadlineConfig::default());
    if shed {
        trainer = trainer.with_overload_control(OverloadConfig::default());
    }
    let r = trainer.run(test);
    ChurnRow {
        turnover,
        shed,
        sim_seconds: r.sim_seconds,
        clients_joined: r.clients_joined,
        clients_departed: r.clients_departed,
        rejoins: r.rejoins,
        batches_shed: r.batches_shed,
        breaker_trips: r.breaker_trips,
        deadline_partial_applies: r.deadline_partial_applies,
        checkpoint_restores: r.checkpoint_restores,
        batches_lost: r.batches_lost,
        max_queue_depth: r.max_queue_depth,
        served_total: r.served_per_client.iter().sum(),
        accuracy: r.final_accuracy,
    }
}

fn run_overload(
    shed: bool,
    epochs: usize,
    seed: u64,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> OverloadRow {
    // Staggered arrivals plus a server an order of magnitude slower than
    // the clients: the ingress queue is the bottleneck by construction.
    let topology = StarTopology::latency_gradient(MEMBERS, 1.0, 60.0, 100.0);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(2),
        server_batch: SimDuration::from_millis(40),
        retry_timeout: SimDuration::from_millis(500),
    };
    let overload = OverloadConfig {
        queue_capacity: 2,
        ..OverloadConfig::default()
    };
    let cfg = SplitConfig::new(CutPoint(1), MEMBERS)
        .arch(CnnArch::tiny())
        .epochs(epochs)
        .batch_size(8)
        .seed(seed);
    let mut trainer = AsyncSplitTrainer::new(cfg, train, topology, SchedulingPolicy::Fifo, compute)
        .expect("valid config");
    if shed {
        trainer = trainer.with_overload_control(overload);
    }
    let r = trainer.run(test);
    let depth_profile: Vec<usize> = trainer
        .queue_depth_samples()
        .iter()
        .step_by(8)
        .copied()
        .collect();
    OverloadRow {
        shed,
        queue_capacity: if shed { overload.queue_capacity } else { 0 },
        max_queue_depth: r.max_queue_depth,
        batches_shed: r.batches_shed,
        batches_lost: r.batches_lost,
        served_total: r.served_per_client.iter().sum(),
        sim_seconds: r.sim_seconds,
        accuracy: r.final_accuracy,
        depth_profile,
    }
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let epochs = if quick { 2 } else { 4 };
    let train_n = if quick { 240 } else { 640 };
    let horizon_ms = if quick { 400 } else { 1600 };
    let turnovers: Vec<f64> = if quick {
        vec![0.0, 0.2]
    } else {
        vec![0.0, 0.2, 0.5]
    };

    let (train, test, source) = load_data(train_n, 160, 16, seed, 0.12);
    let header = format!(
        "E13 churn sweep — {} data, {} founding members + {} joiners, epochs {}, churn horizon {} ms",
        source, MEMBERS, JOINERS, epochs, horizon_ms
    );

    let mut rows = Vec::new();
    let mut baseline_accuracy = 0.0f32;
    for &turnover in &turnovers {
        for shed in [true, false] {
            let row = run_churn(turnover, shed, horizon_ms, epochs, seed, &train, &test);
            if turnover == 0.0 && shed {
                baseline_accuracy = row.accuracy;
            }
            rows.push(row);
        }
    }

    let overload: Vec<OverloadRow> = [true, false]
        .into_iter()
        .map(|shed| run_overload(shed, epochs.min(2), seed, &train, &test))
        .collect();

    let on_off = |on: bool| (if on { "on" } else { "off" }).to_string();
    let table = render_table(
        &rows,
        &[
            ("turnover", &|r| format!("{:.0}%", r.turnover * 100.0)),
            ("shed", &|r| on_off(r.shed)),
            ("joined", &|r| r.clients_joined.to_string()),
            ("departed", &|r| r.clients_departed.to_string()),
            ("rejoined", &|r| r.rejoins.to_string()),
            ("shed batches", &|r| r.batches_shed.to_string()),
            ("partial applies", &|r| {
                r.deadline_partial_applies.to_string()
            }),
            ("lost", &|r| r.batches_lost.to_string()),
            ("Δacc (pts)", &|r| {
                format!("{:+.1}", (r.accuracy - baseline_accuracy) * 100.0)
            }),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
        ],
    );
    let overload_table = render_table(
        &overload,
        &[
            ("shed", &|r| on_off(r.shed)),
            ("cap", &|r| r.queue_capacity.to_string()),
            ("max depth", &|r| r.max_queue_depth.to_string()),
            ("shed batches", &|r| r.batches_shed.to_string()),
            ("served", &|r| r.served_total.to_string()),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
        ],
    );

    Outcome::new(
        format!(
            "{header}\n\n{table}\noverload stress — slow server, bounded ingress on/off\n\n{overload_table}"
        ),
        &ChurnSweep {
            data_source: source.to_string(),
            founding_members: MEMBERS,
            joiners: JOINERS,
            turnovers,
            horizon_ms,
            baseline_accuracy,
            rows,
            overload,
        },
    )
}
