//! **E8 (extension)** — label-sharing vs U-shaped (label-private) split
//! learning.
//!
//! The paper's protocol sends labels with the activations; the U-shaped
//! variant (its ref. \[3\]) keeps the loss and the final layer at the
//! end-system so labels never leave. This experiment compares the two on
//! the same data: accuracy, communication bytes and messages per epoch.
//!
//! ```text
//! cargo run -p stsl-bench --release --bin ushaped_compare
//! cargo run -p stsl-bench --release --bin ushaped_compare -- --quick
//! ```

use serde::Serialize;
use stsl_bench::{load_data, render_table, write_results, Args};
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig, UShapedTrainer};

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

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let (train_n, epochs) = if quick {
        (240usize, 1usize)
    } else {
        (
            args.get_usize("samples", 1_000),
            args.get_usize("epochs", 4),
        )
    };
    let clients = args.get_usize("clients", 2);
    let seed = args.get_u64("seed", 29);
    let cuts: Vec<usize> = if quick { vec![1] } else { vec![1, 2] };

    let difficulty = args.get_f32("difficulty", 0.1);
    let (train, test, source) = load_data(train_n, 150, 16, seed, difficulty);
    println!(
        "E8 protocol comparison — {} data, {} end-systems, {} epochs",
        source, clients, epochs
    );

    let mut rows = Vec::new();
    for &cut in &cuts {
        let cfg = || {
            SplitConfig::new(CutPoint(cut), clients)
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
        println!(
            "  cut {}: label-sharing {:.1}% / {:.2} MB   u-shaped {:.1}% / {:.2} MB",
            cut,
            rs.final_accuracy * 100.0,
            rs.comm.total_bytes() as f64 / 1e6,
            ru.final_accuracy * 100.0,
            ru.comm.total_bytes() as f64 / 1e6
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.cut),
                r.protocol.clone(),
                format!("{:.1}%", r.accuracy * 100.0),
                format!("{:.2}", r.total_mb),
                format!("{}", r.messages),
                if r.labels_leave_site {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "cut",
                "protocol",
                "accuracy",
                "total MB",
                "messages",
                "labels leave?"
            ],
            &table
        )
    );
    println!("u-shaped doubles the per-batch round trips but keeps labels on site");

    write_results(
        "ushaped",
        "ushaped_compare",
        seed,
        &UShapedCompare {
            data_source: source.to_string(),
            end_systems: clients,
            epochs,
            rows,
        },
    );
}
