//! The experiment harness behind the `stsl-exp` binary: one registry of
//! named experiments ([`EXPERIMENTS`]), its command line ([`cli`]), the
//! results writer ([`run_experiment`]), and the dataset and table helpers
//! the experiments share.
//!
//! Every registry entry regenerates one table or figure of the paper;
//! see DESIGN.md §4 for the index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod results;

pub use experiments::{find, Experiment, Outcome, Preset, EXPERIMENTS};
pub use results::{run_experiment, RESULTS_SCHEMA};

use std::path::{Path, PathBuf};
use stsl_data::{cifar, ImageDataset, SyntheticCifar};

/// Where experiment outputs land (`results/` under the working
/// directory, or `$STSL_RESULTS`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("STSL_RESULTS").unwrap_or_else(|_| "results".to_string()))
}

/// The training/evaluation data for an experiment: real CIFAR-10 when the
/// binary directory is available (point `STSL_CIFAR_DIR` at it),
/// the synthetic generator otherwise (see DESIGN.md §2).
///
/// `difficulty` is the synthetic generator's pixel-noise level (ignored
/// for real CIFAR-10); the Table I experiments use ~0.35 so the accuracy
/// ceiling sits near the paper's ~71 % rather than saturating.
pub fn load_data(
    train_n: usize,
    test_n: usize,
    side: usize,
    seed: u64,
    difficulty: f32,
) -> (ImageDataset, ImageDataset, &'static str) {
    if side == 32 {
        if let Ok(dir) = std::env::var("STSL_CIFAR_DIR") {
            if cifar::is_available(&dir) {
                let (train, test) = cifar::load_dir(Path::new(&dir)).expect("load cifar");
                let train_idx: Vec<usize> = (0..train.len().min(train_n)).collect();
                let test_idx: Vec<usize> = (0..test.len().min(test_n)).collect();
                return (train.subset(&train_idx), test.subset(&test_idx), "cifar10");
            }
        }
    }
    let train = SyntheticCifar::new(seed)
        .difficulty(difficulty)
        .generate_sized(train_n, side);
    let test = SyntheticCifar::new(seed ^ 0xDEAD_BEEF)
        .difficulty(difficulty)
        .generate_sized(test_n, side);
    (train, test, "synthetic")
}

/// The fixed dataset both `scale_sweep` and `fleet_sweep` use for their
/// shared 64-client cohort-path row (E16's cross-validation point).
/// Always synthetic (side 16 never hits the CIFAR path), so the
/// overlapping row is byte-comparable across machines and environments.
pub fn crossval_fleet_data() -> (ImageDataset, ImageDataset) {
    let seed = stsl_split::FleetConfig::crossval64().seed;
    let (train, test, _) = load_data(320, 120, 16, seed, 0.12);
    (train, test)
}

/// Runs the shared 64-client / 4-cohort fleet configuration on the
/// shared dataset — the exact computation whose results must agree
/// between `results/scale.json` and `results/fleet.json`.
pub fn crossval_fleet_report() -> stsl_split::FleetReport {
    let (train, test) = crossval_fleet_data();
    let mut fleet = stsl_split::FleetTrainer::new(stsl_split::FleetConfig::crossval64(), &train)
        .expect("crossval64 config is valid");
    fleet.run(&test)
}

/// One table column: its header and how to render a row's cell.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// Renders `rows` as a markdown table with padded columns.
pub fn render_table<R>(rows: &[R], columns: &[Column<R>]) -> String {
    let header: Vec<String> = columns.iter().map(|(h, _)| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| {
            body.iter()
                .map(|row| row[i].len())
                .fold(header[i].len(), usize::max)
        })
        .collect();
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{:<w$}", c))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let mut out = line(&header) + &line(&rule);
    for row in &body {
        out += &line(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_data_fallback() {
        let (train, test, source) = load_data(20, 10, 16, 0, 0.1);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(source, "synthetic");
    }

    #[test]
    fn table_renders_with_padding() {
        let table = render_table(
            &[("a", 1), ("long-name", 2)],
            &[
                ("name", &|r| r.0.to_string()),
                ("value", &|r| r.1.to_string()),
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
