//! **Fig. 4** — image capture during deep neural network computation.
//!
//! Trains one end-system briefly (so `L_1` has realistic weights), then
//! for one image per class renders the triptych the paper shows:
//! (a) the original image, (b) the activation after the `Conv2D` of
//! `L_1` — still recognizable — and (c) the activation after the full
//! `L_1` block (conv + max-pool), which hides the original. PPM files and
//! per-stage structural-similarity numbers are written to `results/`.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_privacy::visualize::{capture_stages, fig4_triptych, stage_similarity};
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig};

#[derive(Serialize)]
struct ClassCapture {
    class: usize,
    original_vs_conv: f32,
    original_vs_pooled: f32,
    ppm: String,
}

#[derive(Serialize)]
struct Fig4 {
    data_source: String,
    trained_epochs: usize,
    per_class: Vec<ClassCapture>,
    mean_conv_similarity: f32,
    mean_pool_similarity: f32,
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let (arch, side, train_n, epochs) = if quick {
        (CnnArch::tiny(), 16, 200, 1)
    } else {
        (CnnArch::paper(), 32, 1_000, 2)
    };
    let difficulty = if quick { 0.12 } else { 0.2 };
    let (train, test, source) = load_data(train_n, 100, side, seed, difficulty);
    let header = format!(
        "Fig. 4 reproduction — {} data, L1 trained for {} epoch(s)",
        source, epochs
    );

    // Train an end-system with L1 private so the captured activations come
    // from realistic (not random) weights, as in the paper.
    let cfg = SplitConfig::new(CutPoint(1), 1)
        .arch(arch)
        .epochs(epochs)
        .seed(seed);
    let mut trainer = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
    trainer.train(&test);

    let mut per_class = Vec::new();
    let mut files = Vec::new();
    let classes = train.num_classes();
    for class in 0..classes {
        // First test image of this class.
        let Some(idx) = (0..test.len()).find(|&i| test.label(i) == class) else {
            continue;
        };
        let image = test.image(idx);
        let client = trainer.clients_mut().first_mut().expect("one client");
        let model = client.model_mut();
        let stages = capture_stages(model, &image);
        let conv_sim = stage_similarity(&image, &stages[1].activation);
        let pool_sim = stage_similarity(&image, &stages[3].activation);
        let mut ppm = Vec::new();
        fig4_triptych(model, &image, 4)
            .write_ppm(&mut ppm)
            .expect("write ppm to memory");
        let name = format!("fig4_class{}.ppm", class);
        files.push((name.clone(), ppm));
        per_class.push(ClassCapture {
            class,
            original_vs_conv: conv_sim,
            original_vs_pooled: pool_sim,
            ppm: name,
        });
    }

    let mean_conv =
        per_class.iter().map(|c| c.original_vs_conv).sum::<f32>() / per_class.len().max(1) as f32;
    let mean_pool =
        per_class.iter().map(|c| c.original_vs_pooled).sum::<f32>() / per_class.len().max(1) as f32;

    let table = render_table(
        &per_class,
        &[
            ("class", &|c| c.class.to_string()),
            ("sim(orig, conv L1)", &|c| {
                format!("{:.3}", c.original_vs_conv)
            }),
            ("sim(orig, L1 pooled)", &|c| {
                format!("{:.3}", c.original_vs_pooled)
            }),
            ("triptych", &|c| c.ppm.clone()),
        ],
    );
    let verdict = if mean_conv > mean_pool {
        "=> matches the paper: max-pooling is what hides the original image"
    } else {
        "WARNING: pooled stage unexpectedly more similar than conv stage"
    };
    let mut outcome = Outcome::new(
        format!(
            "{header}\n\n{table}mean structural similarity: conv stage {:.3} (recognizable) \
             vs pooled stage {:.3} (hidden)\n{verdict}\n",
            mean_conv, mean_pool
        ),
        &Fig4 {
            data_source: source.to_string(),
            trained_epochs: epochs,
            per_class,
            mean_conv_similarity: mean_conv,
            mean_pool_similarity: mean_pool,
        },
    );
    outcome.files = files;
    outcome
}
