//! **E12** — deterministic observability: latency/staleness/queue-depth
//! distributions, the event journal, and the live dashboard.
//!
//! Runs the asynchronous trainer over a latency-gradient star topology
//! with the telemetry hub attached, prints the final dashboard snapshot,
//! and writes `results/telemetry.json`: per-end-system p50/p90/p99
//! uplink/downlink latency, gradient staleness and service-time
//! histograms plus the sim-time-stamped event journal.
//!
//! The output is part of the determinism contract: every value derives
//! from simulated time, so the file is bitwise identical for any
//! `STSL_THREADS`.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use stsl_simnet::{SimDuration, StarTopology};
use stsl_split::{
    AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, SchedulingPolicy, SplitConfig,
};
use stsl_telemetry::{render_dashboard, MetricId};

const CLIENTS: usize = 4;
const SNAPSHOT_MS: u64 = 250;
const JOURNAL_CAP: usize = 4096;

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let (train_n, budget_s) = if preset == Preset::Quick {
        (240, 2.0)
    } else {
        (1_000, 15.0)
    };

    let (train, test, source) = load_data(train_n, 160, 16, seed, 0.12);
    let header = format!(
        "E12 telemetry report — {} data, {} end-systems, {:.0} s simulated budget, snapshot every {} ms",
        source, CLIENTS, budget_s, SNAPSHOT_MS
    );

    // Latency gradient (1..120 ms) so the per-end-system latency and
    // staleness distributions actually differ; slow server so a queue
    // forms and queue-depth has something to show.
    let topology = StarTopology::latency_gradient(CLIENTS, 1.0, 120.0, 100.0);
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(4),
        server_batch: SimDuration::from_millis(10),
        retry_timeout: SimDuration::from_millis(400),
    };
    let cfg = SplitConfig::new(CutPoint(1), CLIENTS)
        .arch(CnnArch::tiny())
        .epochs(10_000)
        .batch_size(16)
        .seed(seed);
    let mut trainer =
        AsyncSplitTrainer::new(cfg, &train, topology, SchedulingPolicy::Fifo, compute)
            .expect("valid config")
            .with_telemetry(SimDuration::from_millis(SNAPSHOT_MS), JOURNAL_CAP);
    trainer.enable_trace();

    let r = trainer.run_with_budget(&test, Some(SimDuration::from_secs_f64(budget_s)));
    let hub = trainer.telemetry().expect("telemetry enabled");

    let dashboard = match hub.latest_snapshot() {
        Some(snap) => render_dashboard(snap),
        None => "(no snapshot emitted)".to_string(),
    };

    // Per-end-system latency/staleness summary table.
    let quantiles = |metric: MetricId| {
        move |actor: &u64| match hub.registry().histogram(metric, *actor) {
            Some(h) => format!("{}/{}/{}", h.p50(), h.p90(), h.p99()),
            None => "-".to_string(),
        }
    };
    let actors: Vec<u64> = (0..CLIENTS as u64).collect();
    let table = render_table(
        &actors,
        &[
            ("end-system", &|a| a.to_string()),
            (
                "uplink p50/p90/p99 (us)",
                &quantiles(MetricId::UplinkLatency),
            ),
            (
                "downlink p50/p90/p99 (us)",
                &quantiles(MetricId::DownlinkLatency),
            ),
            (
                "staleness p50/p90/p99 (us)",
                &quantiles(MetricId::GradientStaleness),
            ),
        ],
    );
    let report = format!(
        "{header}\n\n{dashboard}\n{table}snapshots {}  journal events {} (evicted {})  served {:?}\n",
        r.snapshots_emitted,
        hub.journal_log().len(),
        r.journal_dropped,
        r.served_per_client
    );

    // Hand-rendered payload: every value is simulated-time-derived, so
    // the bytes must not depend on the thread count.
    let data = format!(
        "{{\"data_source\":\"{}\",\"end_systems\":{},\"policy\":\"{}\",\"sim_seconds\":{},\"snapshots_emitted\":{},\"journal_dropped\":{},\"telemetry\":{}}}",
        source,
        CLIENTS,
        r.policy,
        r.sim_seconds,
        r.snapshots_emitted,
        r.journal_dropped,
        hub.export_json()
    );
    Outcome {
        report,
        data,
        files: Vec::new(),
    }
}
