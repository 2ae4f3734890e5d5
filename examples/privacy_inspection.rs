//! What does the server actually see? (Paper Fig. 4, interactively.)
//!
//! Trains an end-system, then for one sample image prints the
//! structural-similarity of each captured stage to the original, writes
//! the Fig. 4 triptych as a PPM, and mounts the inversion attack at two
//! cut depths to show the privacy side of the cut-depth trade-off.
//!
//! ```text
//! cargo run --release --example privacy_inspection
//! ```

use stsl_data::SyntheticCifar;
use stsl_privacy::measure_leakage;
use stsl_privacy::visualize::{capture_stages, fig4_triptych, stage_similarity};
use stsl_split::{CnnArch, CutPoint, SpatioTemporalTrainer, SplitConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = SyntheticCifar::new(5)
        .difficulty(0.08)
        .generate_sized(400, 16);
    let test = SyntheticCifar::new(6)
        .difficulty(0.08)
        .generate_sized(60, 16);

    // Train one end-system with L1 private.
    let config = SplitConfig::new(CutPoint(1), 1)
        .arch(CnnArch::tiny())
        .epochs(2)
        .seed(3);
    let mut trainer = SpatioTemporalTrainer::new(config, &train)?;
    trainer.train(&test);

    // Capture every stage of the private encoder for one image.
    let image = test.image(0);
    let client = trainer.clients_mut().first_mut().expect("one client");
    println!("stage similarity to the original image (1.0 = fully visible):");
    let stages = capture_stages(client.model_mut(), &image);
    for stage in &stages {
        println!(
            "  {:<12} {:>5.3}   shape {:?}",
            stage.label,
            stage_similarity(&image, &stage.activation),
            stage.activation.dims()
        );
    }

    // Write the Fig. 4 triptych: original | conv(L1) | L1 (conv+pool).
    let out = std::path::Path::new("results");
    std::fs::create_dir_all(out)?;
    let path = out.join("privacy_inspection_triptych.ppm");
    fig4_triptych(client.model_mut(), &image, 6).save_ppm(&path)?;
    println!(
        "\nwrote {} — compare the three panels as in the paper's Fig. 4",
        path.display()
    );

    // Quantify with the inversion attack at two depths.
    let aux = SyntheticCifar::new(9)
        .difficulty(0.08)
        .generate_sized(300, 16);
    let victims = SyntheticCifar::new(10)
        .difficulty(0.08)
        .generate_sized(30, 16);
    let shallow = measure_leakage(|x| client.encode(x), &aux, &victims, 8, 0);
    println!(
        "\ninversion attack vs this L1 encoder: psnr {:.1} dB, ssim {:.3}, dcor {:.3}",
        shallow.psnr_db, shallow.ssim, shallow.dcor
    );
    println!("(run `cargo run -p stsl-bench --release --bin stsl-exp -- leakage_sweep` for the full E3 sweep)");
    Ok(())
}
