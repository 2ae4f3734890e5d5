//! Matrix multiplication kernels.
//!
//! Every public entry point dispatches on [`Backend::active`]:
//!
//! * **Reference** — the `i-k-j`-ordered scalar kernel this crate has
//!   always used. Each output element accumulates its `k` terms in
//!   ascending-`kk` order directly into `C`, so it defines the exact
//!   summation order the conformance suite treats as the oracle.
//! * **Blocked** — packed cache-blocked microkernels (see
//!   `super::blocked`) that accumulate `KC`-deep panel sums in
//!   registers; ULP-bounded against the reference, much faster.
//!
//! Both paths are row-parallelized with `stsl-parallel` over disjoint
//! `split_at_mut` slices, each output row costing `k * n` multiply-adds
//! toward the work grain, and keep every element's accumulation order
//! independent of the partition, so within each backend results are
//! bitwise identical for every `STSL_THREADS` setting.

use crate::ops::blocked;
use crate::{Backend, Tensor, TensorError};
use stsl_parallel::{par_chunks_mut, ChunkPolicy};

/// Cache-block edge (elements). 64×64 f32 blocks ≈ 16 KiB, comfortably L1.
const BLOCK: usize = 64;

/// Computes `C = A · B` for row-major slices: `a` is `m×k`, `b` is `k×n`,
/// and the result is `m×n`.
///
/// This is the raw kernel; prefer [`Tensor::matmul`] in library code.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    let mut c = vec![0.0f32; m * n];
    gemm_into(a, b, &mut c, m, k, n, 1.0);
    c
}

/// Computes `C += alpha * A · B` into an existing buffer.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, alpha: f32) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    if c.is_empty() {
        return;
    }
    match Backend::active() {
        Backend::Reference => {
            par_chunks_mut(c, n, ChunkPolicy::macs(k * n), |row0, chunk| {
                gemm_rows(a, b, chunk, row0, k, n, alpha);
            });
        }
        Backend::Blocked => blocked::gemm_into(a, b, c, m, k, n, alpha),
    }
}

/// Serial blocked kernel for one contiguous band of output rows: `chunk`
/// holds rows `row0..row0+chunk.len()/n` of `C` and accumulates
/// `alpha * A·B` into them.
///
/// Each `c[i][j]` sums its `k` terms in ascending-`kk` order (the `i`/`j`
/// cache blocking never reorders a single element's accumulation), so the
/// result does not depend on where the band boundaries fall.
fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], row0: usize, k: usize, n: usize, alpha: f32) {
    let rows = c.len() / n;
    for i0 in (0..rows).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(rows);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    let crow = &mut c[i * n..(i + 1) * n];
                    let arow = &a[(row0 + i) * k..(row0 + i + 1) * k];
                    for kk in k0..k1 {
                        let aik = alpha * arow[kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        // The inner j-loop is contiguous over both B and C,
                        // which lets LLVM auto-vectorize it.
                        for j in j0..j1 {
                            crow[j] += aik * brow[j];
                        }
                    }
                }
            }
        }
    }
}

/// Computes `C = Aᵀ · B` where `a` is `k×m` (so the result is `m×n`).
///
/// Avoids materializing the transpose; used by conv/dense backward passes.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn gemm_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    let mut c = vec![0.0f32; m * n];
    if c.is_empty() {
        return c;
    }
    if Backend::active() == Backend::Blocked {
        return blocked::gemm_at_b(a, b, m, k, n);
    }
    // Output rows are partitioned across threads; per element the k terms
    // still accumulate in ascending-kk order (A is read strided instead of
    // transposed), so this matches the serial result bit for bit.
    par_chunks_mut(&mut c, n, ChunkPolicy::macs(k * n), |row0, chunk| {
        let rows = chunk.len() / n;
        for i in 0..rows {
            let crow = &mut chunk[i * n..(i + 1) * n];
            for kk in 0..k {
                let aik = a[kk * m + row0 + i];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
    });
    c
}

/// Computes `C = A · Bᵀ` where `b` is `n×k` (so the result is `m×n`).
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn gemm_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    let mut c = vec![0.0f32; m * n];
    if c.is_empty() {
        return c;
    }
    if Backend::active() == Backend::Blocked {
        return blocked::gemm_a_bt(a, b, m, k, n);
    }
    par_chunks_mut(&mut c, n, ChunkPolicy::macs(k * n), |row0, chunk| {
        let rows = chunk.len() / n;
        for i in 0..rows {
            let arow = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += arow[kk] * brow[kk];
                }
                chunk[i * n + j] = acc;
            }
        }
    });
    c
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch. See
    /// [`Tensor::try_matmul`] for the fallible variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use stsl_tensor::Tensor;
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
    /// assert_eq!(a.matmul(&i), a);
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if either operand is not
    /// rank 2 or the inner dimensions differ.
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::IncompatibleShapes {
                reason: format!(
                    "matmul requires rank-2 operands, got {} and {}",
                    self.shape(),
                    rhs.shape()
                ),
            });
        }
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                reason: format!(
                    "matmul inner dims differ: {} vs {}",
                    self.shape(),
                    rhs.shape()
                ),
            });
        }
        let c = gemm(self.as_slice(), rhs.as_slice(), m, k, n);
        Ok(Tensor::from_vec(c, [m, n]))
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "t_matmul lhs rank");
        assert_eq!(rhs.rank(), 2, "t_matmul rhs rank");
        let (k, m) = (self.dim(0), self.dim(1));
        assert_eq!(
            k,
            rhs.dim(0),
            "t_matmul inner dims: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let n = rhs.dim(1);
        let c = gemm_at_b(self.as_slice(), rhs.as_slice(), m, k, n);
        Tensor::from_vec(c, [m, n])
    }

    /// `self · rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_t lhs rank");
        assert_eq!(rhs.rank(), 2, "matmul_t rhs rank");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(
            k,
            rhs.dim(1),
            "matmul_t inner dims: {} vs {}",
            self.shape(),
            rhs.shape()
        );
        let n = rhs.dim(0);
        let c = gemm_a_bt(self.as_slice(), rhs.as_slice(), m, k, n);
        Tensor::from_vec(c, [m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        Tensor::from_fn([m, n], |idx| {
            (0..k)
                .map(|kk| a.at(&[idx[0], kk]) * b.at(&[kk, idx[1]]))
                .sum()
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn known_small_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_matches_naive_on_awkward_sizes() {
        // Sizes straddling the 64-element block edge.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (63, 65, 64), (70, 1, 70)] {
            let mut rng = rng_from_seed(9);
            let a = Tensor::randn([m, k], &mut rng);
            let b = Tensor::randn([k, n], &mut rng);
            let fast = a.matmul(&b);
            let slow = naive(&a, &b);
            assert!(
                fast.allclose(&slow, 1e-4),
                "mismatch at ({},{},{})",
                m,
                k,
                n
            );
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = rng_from_seed(4);
        let a = Tensor::randn([5, 3], &mut rng);
        let b = Tensor::randn([5, 4], &mut rng);
        assert!(a.t_matmul(&b).allclose(&a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = rng_from_seed(4);
        let a = Tensor::randn([5, 3], &mut rng);
        let b = Tensor::randn([4, 3], &mut rng);
        assert!(a.matmul_t(&b).allclose(&a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(a.try_matmul(&b).is_err());
        let v = Tensor::zeros([3]);
        assert!(a.try_matmul(&v).is_err());
    }

    #[test]
    fn kernels_bitwise_identical_across_thread_counts() {
        use stsl_parallel::{with_threads, MIN_BLOCK_MACS};
        let mut rng = rng_from_seed(21);
        // Awkward sizes: straddle the cache-block edge, and carry just over
        // two grains of work so the row bands split at 2 threads with the
        // boundary landing mid-block.
        let (m, k, n) = (131, 129, 127);
        assert!(m * k * n >= 2 * MIN_BLOCK_MACS);
        assert!(ChunkPolicy::macs(k * n).ranges(m, 2).len() >= 2);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let bt = Tensor::randn([n, k], &mut rng);
        let at = Tensor::randn([k, m], &mut rng);
        // The row-partitioned kernels here are the reference backend's.
        let reference = |threads: usize| {
            crate::with_backend(Backend::Reference, || {
                with_threads(threads, || {
                    (
                        gemm(a.as_slice(), b.as_slice(), m, k, n),
                        gemm_at_b(at.as_slice(), b.as_slice(), m, k, n),
                        gemm_a_bt(a.as_slice(), bt.as_slice(), m, k, n),
                    )
                })
            })
        };
        let serial = reference(1);
        for threads in [2usize, 4, 7] {
            let par = reference(threads);
            assert_eq!(serial.0, par.0, "gemm drifted at {threads} threads");
            assert_eq!(serial.1, par.1, "gemm_at_b drifted at {threads} threads");
            assert_eq!(serial.2, par.2, "gemm_a_bt drifted at {threads} threads");
        }
    }

    #[test]
    fn gemm_into_accumulates_with_alpha() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 0.0, 0.0, 2.0];
        let mut c = vec![1.0f32; 4];
        gemm_into(&a, &b, &mut c, 2, 2, 2, 0.5);
        assert_eq!(c, vec![2.0, 1.0, 1.0, 2.0]);
    }
}
