//! Bitwise serial/parallel equivalence — the contract of `stsl-parallel`.
//!
//! Every parallel kernel in the workspace partitions its output into
//! contiguous disjoint slices and keeps the per-element accumulation order
//! identical to the serial loop, so results must be **bitwise identical**
//! for any thread count. These tests pin that contract at every layer:
//! raw GEMM kernels, the conv2d forward/backward pipeline, one full
//! synchronous training epoch, and a four-end-system asynchronous epoch
//! including the scheduler's event order.
//!
//! Since the backend seam landed, the contract is **per backend**: the
//! scalar reference path and the cache-blocked path produce different
//! (ULP-bounded, see `kernel_conformance`) numbers from each other, but
//! *within* each backend results must not depend on the thread count —
//! blocked-kernel band and tile boundaries never change any element's
//! accumulation order. Every test therefore runs the full
//! {reference, blocked} × {1, 2, 4} threads matrix.
//!
//! Thread counts are forced with [`parallel::with_threads`] and backends
//! with [`tensor::with_backend`]; both take precedence over the
//! `STSL_THREADS` / `STSL_BACKEND` environment variables, so the suite
//! proves the same thing no matter what CI sets them to.

use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::parallel::{self, ChunkPolicy};
use spatio_temporal_split_learning::simnet::StarTopology;
use spatio_temporal_split_learning::split::{
    AsyncSplitTrainer, ComputeModel, CutPoint, SchedulingPolicy, SpatioTemporalTrainer, SplitConfig,
};
use spatio_temporal_split_learning::tensor::init::rng_from_seed;
use spatio_temporal_split_learning::tensor::ops::conv::{
    conv2d_backward, conv2d_forward, ConvSpec,
};
use spatio_temporal_split_learning::tensor::ops::matmul::{gemm, gemm_a_bt, gemm_at_b};
use spatio_temporal_split_learning::tensor::{with_backend, Backend, Tensor};

/// Both numeric backends; every test runs the full matrix against each.
const BACKENDS: [Backend; 2] = [Backend::Reference, Backend::Blocked];

/// Runs `f` once per thread count *under the given backend* and asserts
/// all results are bitwise equal to the single-threaded one.
fn assert_equal_across_threads_on<R: PartialEq + std::fmt::Debug>(
    backend: Backend,
    label: &str,
    mut f: impl FnMut() -> R,
) -> R {
    let serial = with_backend(backend, || parallel::with_threads(1, &mut f));
    for threads in [2, 4] {
        let parallel = with_backend(backend, || parallel::with_threads(threads, &mut f));
        assert_eq!(
            serial,
            parallel,
            "{label} [{}]: {threads}-thread result diverged from serial",
            backend.name()
        );
    }
    serial
}

/// Runs the {reference, blocked} × {1, 2, 4}-thread matrix and returns the
/// per-backend single-threaded results (which are *allowed* to differ
/// between backends — that difference is bounded by `kernel_conformance`).
fn assert_equal_across_threads<R: PartialEq + std::fmt::Debug>(
    label: &str,
    mut f: impl FnMut() -> R,
) -> R {
    let mut out = None;
    for backend in BACKENDS {
        out = Some(assert_equal_across_threads_on(backend, label, &mut f));
    }
    out.expect("at least one backend")
}

/// Height and width of the blocked GEMM's register microtile
/// (`MR`×`NR` in `ops/blocked.rs`): its bands split on `MR`-row tile edges
/// and it packs `B` in `NR`-wide strips.
const MR: usize = 4;
const NR: usize = 8;

/// Whether `policy` hands `items` to at least two blocks at 2 threads —
/// a test that never splits would pass without testing anything.
fn splits(policy: ChunkPolicy, items: usize) -> bool {
    policy.ranges(items, 2).len() >= 2
}

/// Asserts an `m×k×n` GEMM splits on both backends: the reference row
/// bands, the blocked tile-aligned bands and the blocked `B` packing.
fn assert_gemm_splits(label: &str, m: usize, k: usize, n: usize) {
    assert!(
        splits(ChunkPolicy::macs(k * n), m),
        "{label}: reference rows"
    );
    assert!(
        splits(ChunkPolicy::macs(k * n).tiled(MR), m),
        "{label}: bands"
    );
    assert!(
        splits(ChunkPolicy::elems(k * NR), n.div_ceil(NR)),
        "{label}: B packing"
    );
}

#[test]
fn gemm_kernels_bitwise_identical() {
    // Sized from the work grains: every kernel below splits at 2 threads.
    let (m, k, n) = (37, 129, 1031);
    assert!(m * k * n >= 4 * parallel::MIN_BLOCK_MACS);
    assert_gemm_splits("gemm", m, k, n);
    let mut rng = rng_from_seed(100);
    let a: Vec<f32> = Tensor::randn([m, k], &mut rng).as_slice().to_vec();
    let b: Vec<f32> = Tensor::randn([k, n], &mut rng).as_slice().to_vec();
    let at: Vec<f32> = Tensor::randn([k, m], &mut rng).as_slice().to_vec();
    let bt: Vec<f32> = Tensor::randn([n, k], &mut rng).as_slice().to_vec();

    assert_equal_across_threads("gemm", || gemm(&a, &b, m, k, n));
    assert_equal_across_threads("gemm_at_b", || gemm_at_b(&at, &b, m, k, n));
    assert_equal_across_threads("gemm_a_bt", || gemm_a_bt(&a, &bt, m, k, n));
}

#[test]
fn conv_pipeline_bitwise_identical() {
    // Sized from the work grains: every stage splits at 2 threads.
    let (n, c, side, oc) = (8, 8, 32, 16);
    let (ckk, hw) = (c * 9, side * side);
    let l = n * hw;
    assert!(splits(ChunkPolicy::elems(l), ckk), "im2col");
    assert_gemm_splits("forward", oc, ckk, l);
    assert!(splits(ChunkPolicy::elems(oc * hw), n), "output reorder");
    assert!(splits(ChunkPolicy::elems(l), oc), "dflat reorder");
    assert_gemm_splits("dW", oc, l, ckk);
    assert_gemm_splits("dcols", ckk, oc, l);
    assert!(splits(ChunkPolicy::elems(ckk * hw), n), "col2im");

    let mut rng = rng_from_seed(101);
    let x = Tensor::randn([n, c, side, side], &mut rng);
    let w = Tensor::randn([oc, c, 3, 3], &mut rng);
    let bias = Tensor::randn([oc], &mut rng);
    let spec = ConvSpec::same(3);
    let dout = Tensor::randn([n, oc, side, side], &mut rng);

    assert_equal_across_threads("conv2d fwd+bwd", || {
        let fwd = conv2d_forward(&x, &w, &bias, spec).unwrap();
        let grads = conv2d_backward(&dout, &fwd.cols, &w, (n, c, side, side), spec);
        (
            fwd.output,
            fwd.cols,
            grads.dinput,
            grads.dweight,
            grads.dbias,
        )
    });
}

#[test]
fn sync_training_step_bitwise_identical() {
    let train = SyntheticCifar::new(7)
        .difficulty(0.05)
        .generate_sized(64, 16);
    let test = SyntheticCifar::new(8)
        .difficulty(0.05)
        .generate_sized(16, 16);

    let (ckpt, loss, acc, eval) = assert_equal_across_threads("sync epoch", || {
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(11);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let (loss, acc) = t.run_epoch(0);
        let eval = t.evaluate(&test);
        let ckpt = t.checkpoint();
        (
            (ckpt.server_state, ckpt.client_states),
            loss.to_bits(),
            acc.to_bits(),
            eval.to_bits(),
        )
    });
    // Sanity: the run actually did something.
    assert!(!ckpt.0.is_empty());
    assert!(f32::from_bits(loss).is_finite());
    assert!(f32::from_bits(acc) >= 0.0);
    assert!(f32::from_bits(eval) >= 0.0);
}

#[test]
fn async_four_end_system_epoch_bitwise_identical() {
    let train = SyntheticCifar::new(9)
        .difficulty(0.05)
        .generate_sized(64, 16);
    let test = SyntheticCifar::new(10)
        .difficulty(0.05)
        .generate_sized(16, 16);

    let (csv, report_json) = assert_equal_across_threads("async epoch", || {
        let cfg = SplitConfig::tiny(CutPoint(1), 4)
            .epochs(1)
            .batch_size(8)
            .seed(13);
        // Heterogeneous latencies so arrival order interleaves non-trivially.
        let top = StarTopology::latency_gradient(4, 2.0, 40.0, 100.0);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::RoundRobin,
            ComputeModel::default(),
        )
        .unwrap();
        t.enable_trace();
        let report = t.run(&test);
        let csv = t.trace().expect("trace enabled").to_csv();
        (csv, serde_json::to_string(&report).unwrap())
    });

    // The trace must show all four end-systems reaching the server, and the
    // serialized report carries the exact final metrics — both were just
    // proven identical across thread counts, *including event order*.
    for client in 0..4 {
        assert!(
            csv.lines().any(|l| l.ends_with(&format!(",{client}"))),
            "end-system {client} missing from trace"
        );
    }
    assert!(report_json.contains("\"end_systems\":4"));
}
