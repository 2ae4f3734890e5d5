//! **E5** — scalability in the number of end-systems (Fig. 1 vs Fig. 2).
//!
//! With the total data volume fixed, sweeps N ∈ {1, 2, 4, 8, …}: N = 1 is
//! vanilla split learning (Fig. 1), larger N is the paper's
//! spatio-temporal setting (Fig. 2). Reports accuracy (all data still
//! reaches one shared server model, so it should stay near-flat — the
//! paper's core claim) and simulated wall-clock time over a WAN topology
//! (more end-systems pipeline more batches concurrently).

use super::{Outcome, Preset};
use crate::{crossval_fleet_report, load_data, render_table};
use serde::Serialize;
use stsl_simnet::{Link, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, SchedulingPolicy, SpatioTemporalTrainer,
    SplitConfig,
};

const CUT: usize = 1;

#[derive(Serialize)]
struct Row {
    end_systems: usize,
    accuracy_sync: f32,
    per_client_accuracy: Vec<f32>,
    sim_seconds_async: f64,
    uplink_mb: f64,
}

/// The 64-end-system row that goes through the cohort-sharded fleet path
/// instead of per-client replicas — the same `FleetConfig::crossval64()`
/// run that `fleet_sweep` records, so the two result files overlap on
/// this point (E16 cross-validation). It always runs at
/// `FleetConfig::crossval64().seed`, whatever `--seed` says.
#[derive(Serialize)]
struct FleetRow {
    end_systems: usize,
    cohorts: usize,
    final_accuracy: f32,
    sim_seconds: f64,
    events_per_sim_sec: f64,
    mean_queue_depth: f64,
    cohort_steps: u64,
}

#[derive(Serialize)]
struct ScaleSweep {
    data_source: String,
    cut: usize,
    train_samples: usize,
    rows: Vec<Row>,
    fleet_row: FleetRow,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let (train_n, epochs) = if quick { (240, 1) } else { (1_200, 8) };
    let ns: Vec<usize> = if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };

    let (train, test, source) = load_data(train_n, 200, 16, seed, 0.12);
    let header = format!(
        "E5 scalability sweep — {} data, {} samples total, cut {}, {} epochs",
        source,
        train.len(),
        CUT,
        epochs
    );

    let mut rows = Vec::new();
    for &n in &ns {
        let cfg = || {
            SplitConfig::new(CutPoint(CUT), n)
                .arch(CnnArch::tiny())
                .epochs(epochs)
                .batch_size(16)
                .seed(seed)
        };
        // Accuracy from the idealized synchronous trainer.
        let mut sync = SpatioTemporalTrainer::new(cfg(), &train).expect("valid config");
        let report = sync.train(&test);
        // Simulated wall-clock from the async trainer on a 20 ms WAN.
        let topology = StarTopology::uniform(n, Link::wan(20.0, 100.0));
        let mut asynct = AsyncSplitTrainer::new(
            cfg(),
            &train,
            topology,
            SchedulingPolicy::RoundRobin,
            ComputeModel::default(),
        )
        .expect("valid config");
        let ar = asynct.run(&test);
        rows.push(Row {
            end_systems: n,
            accuracy_sync: report.final_accuracy,
            per_client_accuracy: report.per_client_accuracy.clone(),
            sim_seconds_async: ar.sim_seconds,
            uplink_mb: report.comm.uplink_bytes as f64 / 1e6,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("end-systems", &|r| r.end_systems.to_string()),
            ("accuracy", &|r| format!("{:.2}%", r.accuracy_sync * 100.0)),
            ("sim time (s)", &|r| format!("{:.2}", r.sim_seconds_async)),
            ("uplink (MB)", &|r| format!("{:.2}", r.uplink_mb)),
        ],
    );

    // Past the per-client-replica ceiling: 64 end-systems through the
    // cohort-sharded fleet path (identical run to fleet_sweep's 64 row).
    let fr = crossval_fleet_report();
    let report = format!(
        "{header}\n\n{table}\
         N=1 is vanilla split learning (paper Fig. 1); N>1 is spatio-temporal (Fig. 2).\n\
         Accuracy stays near-flat because every batch still trains the one shared server model.\n\n\
         N=64 (cohort path, K={}, fixed seed {}) accuracy {:.1}%  sim time {:.2}s  mean depth {:.2}  {:.0} ev/sim-s\n",
        fr.cohorts,
        stsl_split::FleetConfig::crossval64().seed,
        fr.final_accuracy * 100.0,
        fr.sim_seconds,
        fr.mean_queue_depth,
        fr.events_per_sim_sec
    );
    let fleet_row = FleetRow {
        end_systems: fr.clients,
        cohorts: fr.cohorts,
        final_accuracy: fr.final_accuracy,
        sim_seconds: fr.sim_seconds,
        events_per_sim_sec: fr.events_per_sim_sec,
        mean_queue_depth: fr.mean_queue_depth,
        cohort_steps: fr.cohort_steps,
    };

    Outcome::new(
        report,
        &ScaleSweep {
            data_source: source.to_string(),
            cut: CUT,
            train_samples: train.len(),
            rows,
            fleet_row,
        },
    )
}
