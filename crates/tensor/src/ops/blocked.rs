//! Cache-blocked packed GEMM microkernels — the [`Backend::Blocked`]
//! implementation of the matmul family.
//!
//! The layout follows the classic BLIS/GotoBLAS decomposition, reduced to
//! what safe Rust auto-vectorizes well:
//!
//! * `B` is packed once per call into `NR`-wide column strips, k-major
//!   inside each strip, zero-padded on the ragged edge. Each microkernel
//!   iteration then reads one contiguous `NR`-float row.
//! * `A` is packed per `MC×KC` block into `MR`-tall row strips, k-major,
//!   so the microkernel reads one contiguous `MR`-float column per step.
//! * The microkernel keeps an `MR×NR` accumulator array in registers and
//!   walks `k` ascending; LLVM turns the fixed-bound inner loops into
//!   plain SIMD mul/add chains (no fast-math, no intrinsics, no unsafe).
//!
//! # Determinism
//!
//! Work is partitioned over **microtile-aligned bands** of output rows
//! ([`stsl_parallel::ChunkPolicy::tiled`]), and each output element
//! accumulates its `k` terms in ascending order within each `KC` panel,
//! with panels applied in ascending order — a fixed association that does
//! not depend on where band or block boundaries fall. Results are
//! therefore bitwise identical for every `STSL_THREADS` value.
//!
//! Relative to the scalar reference backend the association *does*
//! differ (panel partial sums are accumulated in registers before being
//! added to `C`, and `alpha` is applied to the panel sum rather than to
//! each term), so blocked results are ULP-bounded against the reference,
//! not bitwise equal. `tests/kernel_conformance.rs` asserts the bound.

use stsl_parallel::{par_chunks_mut, ChunkPolicy};

/// Rows per microtile (the microkernel's register-block height).
pub(crate) const MR: usize = 4;
/// Columns per microtile (two SSE vectors; the accumulator is MR×NR).
pub(crate) const NR: usize = 8;
/// k-panel depth: one packed A strip of `MR * KC` floats is 4 KiB.
const KC: usize = 256;
/// Row-block height per A pack (MC×KC floats = 64 KiB, L2-resident).
const MC: usize = 64;

/// How one logical GEMM operand is stored.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    /// Row-major as written: logical `(r, c)` at `data[r * cols + c]`.
    Normal,
    /// Transposed storage: logical `(r, c)` at `data[c * rows + r]`.
    Trans,
}

/// Reads logical `A[i, kk]` for an `m×k` logical matrix.
#[inline]
fn a_at(a: &[f32], layout: Layout, i: usize, kk: usize, m: usize, k: usize) -> f32 {
    match layout {
        Layout::Normal => a[i * k + kk],
        Layout::Trans => {
            let _ = m;
            a[kk * m + i]
        }
    }
}

/// Packs all of `B` into `NR`-wide strips, k-major within each strip,
/// zero-padded to a whole strip on the right edge. Strip `js` occupies
/// `bpack[js * k * NR ..][.. k * NR]`; row `kk` of that strip is the
/// contiguous `NR` floats `B[kk, js*NR .. js*NR+NR]`.
///
/// Pure indexed writes, so the strip-parallel fill is partition-invariant.
fn pack_b(b: &[f32], layout: Layout, k: usize, n: usize) -> Vec<f32> {
    let strips = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; strips * k * NR];
    if bpack.is_empty() {
        return bpack;
    }
    let strip_len = k * NR;
    par_chunks_mut(
        &mut bpack,
        strip_len,
        ChunkPolicy::elems(strip_len),
        |js0, band| {
            for (si, strip) in band.chunks_mut(strip_len).enumerate() {
                let j0 = (js0 + si) * NR;
                let width = NR.min(n - j0);
                match layout {
                    Layout::Normal => {
                        for kk in 0..k {
                            let src = &b[kk * n + j0..kk * n + j0 + width];
                            strip[kk * NR..kk * NR + width].copy_from_slice(src);
                        }
                    }
                    Layout::Trans => {
                        // b is n×k; strip lane jj is column j0+jj, i.e. row
                        // j0+jj of the stored matrix, walked along k.
                        for jj in 0..width {
                            let src = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                            for (kk, &v) in src.iter().enumerate() {
                                strip[kk * NR + jj] = v;
                            }
                        }
                    }
                }
            }
        },
    );
    bpack
}

/// Packs rows `i0..i0+rows` × columns `k0..k0+kc` of logical `A` into
/// `MR`-tall strips, k-major, zero-padding the ragged bottom strip.
/// Strip `is` holds rows `i0 + is*MR ..`; step `kk` of a strip is the
/// contiguous `MR` floats `A[rows of strip, k0+kk]`.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn pack_a(
    apack: &mut Vec<f32>,
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
) {
    let strips = rows.div_ceil(MR);
    apack.clear();
    apack.resize(strips * kc * MR, 0.0);
    for is in 0..strips {
        let r0 = i0 + is * MR;
        let height = MR.min(i0 + rows - r0);
        let strip = &mut apack[is * kc * MR..(is + 1) * kc * MR];
        for kk in 0..kc {
            for r in 0..height {
                strip[kk * MR + r] = a_at(a, layout, r0 + r, k0 + kk, m, k);
            }
        }
    }
}

/// The register microkernel: accumulates a `kc`-deep panel product of one
/// packed A strip and one packed B strip, then folds `alpha * acc` into a
/// full `MR × NR` tile of `c` (row stride `ldc`). `ap` is `kc*MR` floats,
/// `bp` is `kc*NR` floats, and `c` must cover the whole tile — ragged
/// edges go through [`microkernel_edge`].
///
/// Two details here are load-bearing for codegen, each worth ~2×:
///
/// * `inline(never)`: compiled standalone, LLVM keeps the whole `MR×NR`
///   accumulator in SIMD registers; inlined into the blocking loops it
///   inherits their register pressure and spills accumulators on every
///   `k` step. The call cost is amortized over `kc·MR·NR` multiply-adds.
/// * The writeback loops have **constant** bounds (`MR`, `NR`). Any
///   dynamically-bounded read of `acc` (as the edge case needs) defeats
///   SROA, the accumulator becomes a stack object, and the hot `k` loop
///   round-trips it through memory each iteration.
#[inline(never)]
fn microkernel(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], ldc: usize, alpha: f32) {
    let mut acc = [[0.0f32; NR]; MR];
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let ar = arow[r];
            for j in 0..NR {
                acc[r][j] += ar * brow[j];
            }
        }
    }
    for r in 0..MR {
        let crow = &mut c[r * ldc..r * ldc + NR];
        for j in 0..NR {
            crow[j] += alpha * acc[r][j];
        }
    }
}

/// Ragged-edge wrapper: runs [`microkernel`] into a zeroed `MR×NR`
/// scratch tile (`alpha = 1`, so scratch holds the raw panel sums), then
/// folds `alpha * sum` into the valid `mr_eff × nr_eff` corner of `c` —
/// the same `c += alpha · panel_sum` association as the full-tile path,
/// so edge elements are bitwise independent of which path handled them.
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
fn microkernel_edge(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    alpha: f32,
) {
    let mut scratch = [0.0f32; MR * NR];
    microkernel(ap, bp, kc, &mut scratch, NR, 1.0);
    for r in 0..mr_eff {
        let crow = &mut c[r * ldc..r * ldc + nr_eff];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * scratch[r * NR + j];
        }
    }
}

/// `C += alpha * A · B` with packed blocked microkernels; `C` is `m×n`
/// row-major, logical `A` is `m×k`, logical `B` is `k×n` (storage per
/// `Layout`).
#[allow(clippy::too_many_arguments)] // BLAS-style shape/offset scalars
pub(crate) fn gemm_core(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        // k == 0 is an empty sum: C += alpha·0 leaves C untouched, same
        // as the reference loops simply not executing.
        return;
    }
    let bpack = pack_b(b, b_layout, k, n);
    let strips = n.div_ceil(NR);
    // One band per thread, boundaries on microtile edges so no MR-tile is
    // split across threads; each row costs k*n multiply-adds, as on the
    // reference path.
    let policy = ChunkPolicy::macs(k * n).tiled(MR);
    par_chunks_mut(c, n, policy, |row0, band| {
        let rows = band.len() / n;
        let mut apack = Vec::new();
        for ic in (0..rows).step_by(MC) {
            let ic_len = MC.min(rows - ic);
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                pack_a(&mut apack, a, a_layout, m, k, row0 + ic, ic_len, k0, kc);
                for js in 0..strips {
                    let bp = &bpack[js * k * NR + k0 * NR..][..kc * NR];
                    let j0 = js * NR;
                    let nr_eff = NR.min(n - j0);
                    for (is, ap) in apack.chunks_exact(kc * MR).enumerate() {
                        let ir = ic + is * MR;
                        let mr_eff = MR.min(rows - ir).min(ic_len - is * MR);
                        let ctile = &mut band[ir * n + j0..];
                        if mr_eff == MR && nr_eff == NR {
                            microkernel(ap, bp, kc, ctile, n, alpha);
                        } else {
                            microkernel_edge(ap, bp, kc, ctile, n, mr_eff, nr_eff, alpha);
                        }
                    }
                }
            }
        }
    });
}

/// Blocked `C += alpha * A · B` (row-major `m×k` times `k×n`).
pub(crate) fn gemm_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    gemm_core(a, Layout::Normal, b, Layout::Normal, c, m, k, n, alpha);
}

/// Blocked `C = Aᵀ · B` where `a` is stored `k×m`.
pub(crate) fn gemm_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_core(a, Layout::Trans, b, Layout::Normal, &mut c, m, k, n, 1.0);
    c
}

/// Blocked `C = A · Bᵀ` where `b` is stored `n×k`.
pub(crate) fn gemm_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_core(a, Layout::Normal, b, Layout::Trans, &mut c, m, k, n, 1.0);
    c
}

/// Fixed-order lane-parallel sum: eight running partial sums over the
/// slice, combined pairwise, remainder appended last. The association is
/// a function of `xs.len()` alone — never of thread count — so it is
/// deterministic, but it differs from the reference left-fold and is
/// ULP-bounded against it.
pub(crate) fn sum_lanes(xs: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for ch in chunks {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += ch[j];
        }
    }
    let mut tail = 0.0f32;
    for &v in rem {
        tail += v;
    }
    let front = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let back = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    (front + back) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * scale)
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_f64_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (4, 8, 8),
            (5, 9, 11),
            (17, 300, 7),
            (70, 1, 70),
            (65, 64, 63),
        ] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut c = vec![0.0f32; m * n];
            gemm_into(&a, &b, &mut c, m, k, n, 1.0);
            let want = naive(&a, &b, m, k, n);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                    "({m},{k},{n}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn blocked_transposed_variants_agree_with_normal() {
        let (m, k, n) = (9usize, 13usize, 10usize);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.2);
        let mut c = vec![0.0f32; m * n];
        gemm_into(&a, &b, &mut c, m, k, n, 1.0);

        // Build transposed storages and check the *_at_b / *_a_bt entry
        // points recover the same product (identical association, so
        // bitwise equality is expected).
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        assert_eq!(gemm_at_b(&at, &b, m, k, n), c);
        assert_eq!(gemm_a_bt(&a, &bt, m, k, n), c);
    }

    #[test]
    fn k_zero_leaves_c_untouched() {
        let mut c = vec![3.0f32; 6];
        gemm_into(&[], &[], &mut c, 2, 0, 3, 1.0);
        assert_eq!(c, vec![3.0; 6]);
    }

    #[test]
    fn alpha_scales_the_panel_sum() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = vec![10.0f32];
        gemm_into(&a, &b, &mut c, 1, 2, 1, 0.5);
        assert_eq!(c, vec![10.0 + 0.5 * 11.0]);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        use stsl_parallel::with_threads;
        // k straddles a KC panel edge, and both the row bands and the B
        // packing carry at least two grains of work, so both split at 2
        // threads.
        let (m, k, n) = (37usize, 300usize, 457usize);
        assert!(ChunkPolicy::macs(k * n).tiled(MR).ranges(m, 2).len() >= 2);
        assert!(ChunkPolicy::elems(k * NR).ranges(n.div_ceil(NR), 2).len() >= 2);
        let a = seq(m * k, 0.03);
        let b = seq(k * n, 0.07);
        let run = || {
            let mut c = vec![0.0f32; m * n];
            gemm_into(&a, &b, &mut c, m, k, n, 1.0);
            c
        };
        let serial = with_threads(1, run);
        for threads in [2usize, 3, 4, 7] {
            assert_eq!(serial, with_threads(threads, run), "{threads} threads");
        }
    }

    #[test]
    fn sum_lanes_is_exact_on_integers_and_handles_edges() {
        assert_eq!(sum_lanes(&[]), 0.0);
        assert_eq!(sum_lanes(&[2.5]), 2.5);
        let xs: Vec<f32> = (1..=25).map(|i| i as f32).collect();
        assert_eq!(sum_lanes(&xs), 325.0);
    }
}
