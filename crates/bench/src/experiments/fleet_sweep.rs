//! **E16** — fleet-scale simulation: 1k–100k+ end-systems through the
//! calendar event queue and cohort-sharded client state.
//!
//! Sweeps fleet size N with the cohort count K held small, charting
//! arrival-queue depth, gradient staleness, accuracy and simulation
//! throughput (events per *simulated* second — a deterministic number
//! that lands in `results/fleet.json`; wall-clock events/sec is printed
//! to stdout only, since it varies by machine). The 64-client row runs
//! the exact `FleetConfig::crossval64()` configuration that `scale_sweep`
//! also runs, so `results/scale.json` and `results/fleet.json` overlap
//! on one point for cross-validation. That row always runs at
//! `FleetConfig::crossval64().seed`; `--seed` moves only the other rows.
//!
//! The file is byte-identical across `STSL_THREADS` settings.

use super::{Outcome, Preset};
use crate::{crossval_fleet_data, load_data, render_table};
use serde::Serialize;
use stsl_data::ImageDataset;
use stsl_split::{FleetConfig, FleetReport, FleetTrainer, WallTimer};

#[derive(Serialize)]
struct Row {
    clients: usize,
    cohorts: usize,
    crossval: bool,
    sim_seconds: f64,
    events_processed: u64,
    events_per_sim_sec: f64,
    sends_attempted: u64,
    admission_rejected: u64,
    shed: u64,
    served: u64,
    cohort_steps: u64,
    mean_queue_depth: f64,
    max_queue_depth: usize,
    mean_staleness_ms: f64,
    final_accuracy: f32,
    model_bytes: u64,
    per_client_state_bytes: u64,
    departures: u64,
    snapshots_emitted: u64,
}

impl Row {
    fn from_report(r: &FleetReport, crossval: bool) -> Self {
        Row {
            clients: r.clients,
            cohorts: r.cohorts,
            crossval,
            sim_seconds: r.sim_seconds,
            events_processed: r.events_processed,
            events_per_sim_sec: r.events_per_sim_sec,
            sends_attempted: r.sends_attempted,
            admission_rejected: r.admission_rejected,
            shed: r.shed,
            served: r.served,
            cohort_steps: r.cohort_steps,
            mean_queue_depth: r.mean_queue_depth,
            max_queue_depth: r.max_queue_depth,
            mean_staleness_ms: r.mean_staleness_ms,
            final_accuracy: r.final_accuracy,
            model_bytes: r.model_bytes,
            per_client_state_bytes: r.per_client_state_bytes,
            departures: r.departures,
            snapshots_emitted: r.snapshots_emitted,
        }
    }
}

#[derive(Serialize)]
struct FleetSweep {
    data_source: String,
    queue: String,
    rows: Vec<Row>,
}

/// Runs one fleet. Its wall-clock throughput goes to the text report
/// only: it depends on the machine and must never reach the envelope.
fn run_row(
    cfg: FleetConfig,
    train: &ImageDataset,
    test: &ImageDataset,
    crossval: bool,
) -> (Row, String) {
    let mut fleet = FleetTrainer::new(cfg, train).expect("valid fleet config");
    let timer = WallTimer::start();
    let report = fleet.run(test);
    let secs = timer.seconds();
    let eps = if secs > 0.0 {
        report.events_processed as f64 / secs
    } else {
        0.0
    };
    (
        Row::from_report(&report, crossval),
        format!("N={} {:.0} ev/wall-s", report.clients, eps),
    )
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    // The 64-client row always runs (it is the scale.json overlap point);
    // larger rows chart how the calendar queue + cohort sharding scale.
    let sizes: &[usize] = match preset {
        Preset::Quick => &[1_000],
        Preset::Standard => &[1_000, 10_000],
        Preset::Full => &[1_000, 10_000, 100_000],
    };
    let queue = stsl_simnet::QueueKind::active().name();

    // Shared cross-validation row: identical config + data to scale_sweep.
    let (train, test) = crossval_fleet_data();
    let mut runs = vec![run_row(FleetConfig::crossval64(), &train, &test, true)];
    // Fleet-scale rows: same synthetic data spec, smoke() preset scaled up.
    let (train, test, source) = load_data(320, 120, 16, seed, 0.12);
    runs.extend(
        sizes
            .iter()
            .map(|&n| run_row(FleetConfig::smoke(n), &train, &test, false)),
    );
    let (rows, wall): (Vec<Row>, Vec<String>) = runs.into_iter().unzip();

    let table = render_table(
        &rows,
        &[
            ("clients", &|r| {
                format!("{}{}", r.clients, if r.crossval { "*" } else { "" })
            }),
            ("cohorts", &|r| r.cohorts.to_string()),
            ("mean depth", &|r| format!("{:.2}", r.mean_queue_depth)),
            ("staleness (ms)", &|r| format!("{:.1}", r.mean_staleness_ms)),
            ("accuracy", &|r| format!("{:.1}%", r.final_accuracy * 100.0)),
            ("events/sim-s", &|r| format!("{:.0}", r.events_per_sim_sec)),
            ("model bytes", &|r| r.model_bytes.to_string()),
            ("per-client B", &|r| r.per_client_state_bytes.to_string()),
        ],
    );
    let report = format!(
        "E16 fleet sweep — {source} data, queue {queue}\n\n{table}\
         * = crossval64 row shared with scale_sweep (results/scale.json); \
         it always runs at seed {}, whatever --seed says.\n\
         Model bytes are O(cohorts): constant while clients grow 64 → {}.\n\
         wall clock: {}\n",
        FleetConfig::crossval64().seed,
        rows.last().map(|r| r.clients).unwrap_or(64),
        wall.join(", ")
    );
    Outcome::new(
        report,
        &FleetSweep {
            data_source: source.to_string(),
            queue: queue.to_string(),
            rows,
        },
    )
}
