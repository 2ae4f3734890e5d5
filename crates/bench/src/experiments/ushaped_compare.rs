//! **E8 (extension)** — label-sharing vs U-shaped (label-private) split
//! learning.
//!
//! The paper's protocol sends labels with the activations; the U-shaped
//! variant (its ref. \[3\]) keeps the loss and the final layer at the
//! end-system so labels never leave. This experiment compares the two on
//! the same data: accuracy, communication bytes and messages per epoch.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig, UShapedTrainer};

const CLIENTS: usize = 2;

#[derive(Serialize)]
struct Row {
    protocol: String,
    cut: usize,
    accuracy: f32,
    total_mb: f64,
    messages: u64,
    labels_leave_site: bool,
}

#[derive(Serialize)]
struct UShapedCompare {
    data_source: String,
    end_systems: usize,
    epochs: usize,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let (train_n, epochs) = if quick { (240, 1) } else { (1_000, 4) };
    let cuts: Vec<usize> = if quick { vec![1] } else { vec![1, 2] };

    let (train, test, source) = load_data(train_n, 150, 16, seed, 0.1);
    let header = format!(
        "E8 protocol comparison — {} data, {} end-systems, {} epochs",
        source, CLIENTS, epochs
    );

    let mut rows = Vec::new();
    for &cut in &cuts {
        let cfg = || {
            SplitConfig::new(CutPoint(cut), CLIENTS)
                .arch(CnnArch::tiny())
                .epochs(epochs)
                .seed(seed)
        };
        let mut standard = SpatioTemporalTrainer::new(cfg(), &train).expect("valid config");
        let rs = standard.train(&test);
        rows.push(Row {
            protocol: "label-sharing (paper)".into(),
            cut,
            accuracy: rs.final_accuracy,
            total_mb: rs.comm.total_bytes() as f64 / 1e6,
            messages: rs.comm.uplink_messages + rs.comm.downlink_messages,
            labels_leave_site: true,
        });
        let mut ushaped = UShapedTrainer::new(cfg(), &train).expect("valid config");
        let ru = ushaped.train(&test);
        rows.push(Row {
            protocol: "u-shaped (label-private)".into(),
            cut,
            accuracy: ru.final_accuracy,
            total_mb: ru.comm.total_bytes() as f64 / 1e6,
            messages: ru.comm.uplink_messages + ru.comm.downlink_messages,
            labels_leave_site: false,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("cut", &|r| r.cut.to_string()),
            ("protocol", &|r| r.protocol.clone()),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
            ("total MB", &|r| format!("{:.2}", r.total_mb)),
            ("messages", &|r| r.messages.to_string()),
            ("labels leave?", &|r| {
                (if r.labels_leave_site { "yes" } else { "no" }).to_string()
            }),
        ],
    );
    Outcome::new(
        format!(
            "{header}\n\n{table}u-shaped doubles the per-batch round trips but keeps labels on site\n"
        ),
        &UShapedCompare {
            data_source: source.to_string(),
            end_systems: CLIENTS,
            epochs,
            rows,
        },
    )
}
