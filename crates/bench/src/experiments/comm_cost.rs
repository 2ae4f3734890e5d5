//! **E6** — communication cost: split learning vs FedAvg vs raw upload.
//!
//! The paper's §I motivation is that raw medical data may not be moved.
//! This experiment compares what each approach ships per training epoch
//! (or FedAvg round): raw-image upload (the centralized strawman), smashed
//! activations at each cut depth (split learning; shrinks as pooling
//! deepens), and full-model weights twice per round (FedAvg).

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_split::{baselines::FedAvgTrainer, CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig};

const CLIENTS: usize = 4;

#[derive(Serialize)]
struct Row {
    scheme: String,
    uplink_mb_per_epoch: f64,
    downlink_mb_per_epoch: f64,
    total_mb_per_epoch: f64,
    raw_data_leaves_site: bool,
}

#[derive(Serialize)]
struct CommCost {
    data_source: String,
    end_systems: usize,
    samples: usize,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let (arch, side, train_n) = if preset == Preset::Quick {
        (CnnArch::tiny(), 16, 200)
    } else {
        (CnnArch::paper(), 32, 1_000)
    };
    let max_cut = (arch.blocks() - 1).clamp(1, 4);

    let (train, test, source) = load_data(train_n, 50, side, seed, 0.12);
    let header = format!(
        "E6 communication cost — {} data, {} samples, {} end-systems (1 epoch / 1 round each)",
        source,
        train.len(),
        CLIENTS
    );

    let mut rows = Vec::new();

    // Strawman: centralize by uploading raw pixels once (amortized as one
    // "epoch" here; in reality it is once, but it also forfeits privacy).
    let (c, h, w) = train.image_dims();
    let raw_mb = (train.len() * c * h * w * 4) as f64 / 1e6;
    rows.push(Row {
        scheme: "raw upload (centralized)".into(),
        uplink_mb_per_epoch: raw_mb,
        downlink_mb_per_epoch: 0.0,
        total_mb_per_epoch: raw_mb,
        raw_data_leaves_site: true,
    });

    // Split learning at each cut; byte accounting needs no evaluation.
    for cut in 1..=max_cut {
        let cfg = SplitConfig::new(CutPoint(cut), CLIENTS)
            .arch(arch.clone())
            .epochs(1)
            .seed(seed);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        t.run_epoch(0);
        let comm = t.comm();
        rows.push(Row {
            scheme: format!("split, cut {} ({})", cut, CutPoint(cut).label()),
            uplink_mb_per_epoch: comm.uplink_bytes as f64 / 1e6,
            downlink_mb_per_epoch: comm.downlink_bytes as f64 / 1e6,
            total_mb_per_epoch: comm.total_bytes() as f64 / 1e6,
            raw_data_leaves_site: false,
        });
    }

    // FedAvg: one round, one local epoch.
    let cfg = SplitConfig::new(CutPoint(0), CLIENTS)
        .arch(arch.clone())
        .epochs(1)
        .seed(seed);
    let mut fed = FedAvgTrainer::new(cfg, &train, 1).expect("valid config");
    fed.train(1, &test);
    let fed_up = 0.0f64.max(CLIENTS as f64 * fed.model_bytes() as f64 / 1e6);
    rows.push(Row {
        scheme: "fedavg (1 round, E=1)".into(),
        uplink_mb_per_epoch: fed_up,
        downlink_mb_per_epoch: fed_up,
        total_mb_per_epoch: 2.0 * fed_up,
        raw_data_leaves_site: false,
    });

    let table = render_table(
        &rows,
        &[
            ("scheme", &|r| r.scheme.clone()),
            ("uplink MB/epoch", &|r| {
                format!("{:.2}", r.uplink_mb_per_epoch)
            }),
            ("downlink MB/epoch", &|r| {
                format!("{:.2}", r.downlink_mb_per_epoch)
            }),
            ("total MB/epoch", &|r| {
                format!("{:.2}", r.total_mb_per_epoch)
            }),
            ("raw data leaves?", &|r| {
                (if r.raw_data_leaves_site { "yes" } else { "no" }).to_string()
            }),
        ],
    );
    Outcome::new(
        format!("{header}\n\n{table}"),
        &CommCost {
            data_source: source.to_string(),
            end_systems: CLIENTS,
            samples: train.len(),
            rows,
        },
    )
}
