//! **E7 (ablation)** — the Gaussian noise defense on smashed activations.
//!
//! The paper protects privacy architecturally (max-pooling destroys
//! detail; Fig. 4). An orthogonal knob is adding noise to whatever leaves
//! the end-system. This ablation sweeps the noise level σ and measures
//! both sides of the trade: task accuracy (synchronous trainer) and
//! inversion-attack leakage against the protected encoder.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_privacy::measure_leakage;
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig};

const CUT: usize = 1;

#[derive(Serialize)]
struct Row {
    sigma: f32,
    accuracy: f32,
    psnr_db: f32,
    ssim: f32,
    dcor: f32,
}

#[derive(Serialize)]
struct NoiseAblation {
    data_source: String,
    cut: usize,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let (train_n, epochs, aux_n, attack_epochs) = if quick {
        (240, 2, 400, 6)
    } else {
        (800, 4, 800, 10)
    };
    let sigmas: Vec<f32> = if quick {
        vec![0.0, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    };

    let (train, test, source) = load_data(train_n, 150, 16, seed, 0.1);
    let (aux, victims, _) = load_data(aux_n, 32, 16, seed ^ 0x55, 0.1);
    let header = format!(
        "E7 noise-defense ablation — {} data, cut {}, σ sweep {:?}",
        source, CUT, sigmas
    );

    let mut rows = Vec::new();
    for &sigma in &sigmas {
        let cfg = SplitConfig::new(CutPoint(CUT), 2)
            .arch(CnnArch::tiny())
            .epochs(epochs)
            .seed(seed)
            .smash_noise(sigma);
        let mut trainer = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        let report = trainer.train(&test);
        let client = trainer.clients_mut().first_mut().expect("client");
        let leak = measure_leakage(
            |x| client.encode_protected(x),
            &aux,
            &victims,
            attack_epochs,
            seed,
        );
        rows.push(Row {
            sigma,
            accuracy: report.final_accuracy,
            psnr_db: leak.psnr_db,
            ssim: leak.ssim,
            dcor: leak.dcor,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("σ", &|r| r.sigma.to_string()),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
            ("attack PSNR (dB)", &|r| format!("{:.2}", r.psnr_db)),
            ("SSIM", &|r| format!("{:.3}", r.ssim)),
            ("dCor", &|r| format!("{:.3}", r.dcor)),
        ],
    );
    Outcome::new(
        format!(
            "{header}\n\n{table}higher σ ⇒ lower leakage (PSNR/dCor fall) at the cost of accuracy\n"
        ),
        &NoiseAblation {
            data_source: source.to_string(),
            cut: CUT,
            rows,
        },
    )
}
