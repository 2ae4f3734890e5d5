//! **E3** — privacy–utility trade-off: inversion-attack reconstruction
//! fidelity vs. cut depth.
//!
//! Quantifies Fig. 4 / §III: for every cut `L_1..L_k` we train the
//! end-system, then mount the regression inversion attack (honest-but-
//! curious server with auxiliary data) against its encoder and report
//! PSNR / SSIM / distance correlation of the reconstructions. Leakage
//! falls as the cut deepens — the mirror image of Table I's accuracy
//! degradation, which together form the paper's central trade-off.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_privacy::measure_leakage;
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig};

#[derive(Serialize)]
struct Row {
    cut: usize,
    label: String,
    psnr_db: f32,
    ssim: f32,
    dcor: f32,
    mse: f32,
    activation_floats: usize,
}

#[derive(Serialize)]
struct Leakage {
    data_source: String,
    attack_epochs: usize,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    // The inversion regression must be well-posed: auxiliary samples must
    // exceed the widest cut's activation width. The tiny 16×16 arch keeps
    // that affordable (cut-1 width 512 < 800 aux); the paper arch at
    // cut 1 would need > 4096 auxiliary samples and a 12M-parameter
    // decoder.
    let arch = CnnArch::tiny();
    let (train_n, train_epochs, attack_epochs, aux_n, victim_n) = if quick {
        (200, 1, 5, 150, 30)
    } else {
        (800, 3, 20, 800, 48)
    };
    let max_cut = arch.blocks().clamp(1, 4);

    let difficulty = if quick { 0.12 } else { 0.2 };
    let (train, test, source) = load_data(train_n, 64, 16, seed, difficulty);
    // The attacker's auxiliary data is drawn from a *different* generator
    // seed: same distribution, disjoint samples.
    let (aux, victims, _) = load_data(aux_n, victim_n, 16, seed ^ 0xABCD, difficulty);
    let header = format!(
        "E3 leakage sweep — {} data, cuts 1..={}, attack {} epochs on {} aux samples",
        source,
        max_cut,
        attack_epochs,
        aux.len()
    );

    let mut rows = Vec::new();
    for cut in 1..=max_cut {
        let cfg = SplitConfig::new(CutPoint(cut), 1)
            .arch(arch.clone())
            .epochs(train_epochs)
            .seed(seed);
        let mut trainer = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        trainer.train(&test);
        let activation_floats: usize = arch.cut_dims(CutPoint(cut), 1).iter().product();
        let client = trainer.clients_mut().first_mut().expect("one client");
        let report = measure_leakage(|x| client.encode(x), &aux, &victims, attack_epochs, seed);
        rows.push(Row {
            cut,
            label: CutPoint(cut).label(),
            psnr_db: report.psnr_db,
            ssim: report.ssim,
            dcor: report.dcor,
            mse: report.mse,
            activation_floats,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("Layers at end-system", &|r| r.label.clone()),
            ("PSNR (dB) ↓=private", &|r| format!("{:.2}", r.psnr_db)),
            ("SSIM", &|r| format!("{:.3}", r.ssim)),
            ("dCor", &|r| format!("{:.3}", r.dcor)),
            ("act. floats", &|r| r.activation_floats.to_string()),
        ],
    );
    let monotone = rows.windows(2).all(|w| w[1].psnr_db <= w[0].psnr_db + 0.5);
    let verdict = if monotone {
        "=> leakage decreases with cut depth: deeper cuts are more private\n"
    } else {
        ""
    };
    Outcome::new(
        format!("{header}\n\n{table}{verdict}"),
        &Leakage {
            data_source: source.to_string(),
            attack_epochs,
            rows,
        },
    )
}
