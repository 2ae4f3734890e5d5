//! **E14** — serial/parallel speedup of the `stsl-parallel` thread pool,
//! per numeric backend.
//!
//! Times the GEMM kernels (including the large square product the CI
//! speedup gate watches) and one synchronous split-learning epoch at
//! increasing thread counts, on both the scalar **reference** backend and
//! the cache-**blocked** backend, and reports wall-clock medians plus the
//! speedup over the exact serial path (`threads = 1`, same backend).
//! Because every parallel kernel is bitwise-deterministic *within a
//! backend*, the runs at different thread counts compute identical
//! results — the only thing that may change is time.
//!
//! Numbers are honest: `hardware_threads` records what the machine
//! actually offers, every row carries the requested **and** granted
//! thread counts, and the envelope collects explicit warnings whenever a
//! sweep point asks for more threads than the host exposes — on such rows
//! the pool still spawns the requested workers, but they time-share cores
//! and the speedup is noise, not signal. `scripts/check_speedup.py`
//! consumes these fields to decide whether the ≥2× four-thread gate is
//! applicable on the current runner.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_parallel::with_threads;
use stsl_split::{CutPoint, SpatioTemporalTrainer, SplitConfig};
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::ops::matmul::{gemm, gemm_at_b};
use stsl_tensor::{with_backend, Backend, Tensor};

#[derive(Serialize)]
struct Timing {
    workload: String,
    backend: String,
    threads_requested: usize,
    threads_granted: usize,
    median_ms: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct SpeedupReport {
    hardware_threads: usize,
    repeats: usize,
    gemm_dims: Vec<usize>,
    gemm_large_dims: Vec<usize>,
    epoch_samples: usize,
    data_source: String,
    /// Human-readable caveats (e.g. oversubscribed sweep points). Empty
    /// means every row's speedup is meaningful on this host.
    warnings: Vec<String>,
    rows: Vec<Timing>,
}

/// Median wall-clock milliseconds of `repeats` runs of `f`.
fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = stsl_split::WallTimer::start();
            f();
            start.seconds() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let repeats = if quick { 3 } else { 7 };
    let (m, k, n) = if quick { (96, 96, 96) } else { (256, 256, 256) };
    let large = if quick { 160 } else { 384 };
    let train_n = if quick { 64 } else { 256 };
    let threads_sweep = [1usize, 2, 4];

    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rng = rng_from_seed(3);
    let a: Vec<f32> = Tensor::randn([m, k], &mut rng).as_slice().to_vec();
    let b: Vec<f32> = Tensor::randn([k, n], &mut rng).as_slice().to_vec();
    let al: Vec<f32> = Tensor::randn([large, large], &mut rng).as_slice().to_vec();
    let bl: Vec<f32> = Tensor::randn([large, large], &mut rng).as_slice().to_vec();
    let (train, _test, data_source) = load_data(train_n, 16, 16, 5, 0.05);

    let mut warnings: Vec<String> = Vec::new();
    for &threads in &threads_sweep {
        if threads > hardware_threads {
            warnings.push(format!(
                "{threads}-thread rows are oversubscribed: host exposes only \
                 {hardware_threads} hardware thread(s), so their speedups \
                 measure scheduling overhead, not parallel scaling"
            ));
        }
    }

    let mut rows: Vec<Timing> = Vec::new();
    for backend in [Backend::Reference, Backend::Blocked] {
        for (workload, mut run) in [
            (
                "gemm",
                Box::new(|| {
                    std::hint::black_box(gemm(&a, &b, m, k, n));
                }) as Box<dyn FnMut()>,
            ),
            (
                "gemm_large",
                Box::new(|| {
                    std::hint::black_box(gemm(&al, &bl, large, large, large));
                }),
            ),
            (
                "gemm_at_b",
                Box::new(|| {
                    std::hint::black_box(gemm_at_b(&a, &b, k, m, n));
                }),
            ),
            (
                "sync_epoch",
                Box::new(|| {
                    let cfg = SplitConfig::tiny(CutPoint(1), 4).epochs(1).seed(seed);
                    let mut t = SpatioTemporalTrainer::new(cfg, &train).expect("valid config");
                    std::hint::black_box(t.run_epoch(0));
                }),
            ),
        ] {
            let mut serial_ms = 0.0;
            for &threads in &threads_sweep {
                let (ms, granted) = with_backend(backend, || {
                    with_threads(threads, || {
                        (median_ms(repeats, &mut run), stsl_parallel::max_threads())
                    })
                });
                if threads == 1 {
                    serial_ms = ms;
                }
                let speedup = if ms > 0.0 { serial_ms / ms } else { 0.0 };
                rows.push(Timing {
                    workload: workload.to_string(),
                    backend: backend.name().to_string(),
                    threads_requested: threads,
                    threads_granted: granted,
                    median_ms: ms,
                    speedup_vs_serial: speedup,
                });
            }
        }
    }

    let oversubscribed = |r: &Timing| {
        if r.threads_requested > hardware_threads {
            "!"
        } else {
            ""
        }
    };
    let table = render_table(
        &rows,
        &[
            ("workload", &|r| r.workload.clone()),
            ("backend", &|r| r.backend.clone()),
            ("granted/req", &|r| {
                format!(
                    "{}/{}{}",
                    r.threads_granted,
                    r.threads_requested,
                    oversubscribed(r)
                )
            }),
            ("median ms", &|r| format!("{:.3}", r.median_ms)),
            ("speedup", &|r| format!("{:.2}x", r.speedup_vs_serial)),
        ],
    );
    let warning_lines: String = warnings.iter().map(|w| format!("warning: {w}\n")).collect();
    Outcome::new(
        format!(
            "parallel speedup (hardware threads: {hardware_threads}, repeats: {repeats})\n\n{table}{warning_lines}"
        ),
        &SpeedupReport {
            hardware_threads,
            repeats,
            gemm_dims: vec![m, k, n],
            gemm_large_dims: vec![large, large, large],
            epoch_samples: train_n,
            data_source: data_source.to_string(),
            warnings,
            rows,
        },
    )
}
