//! 2-D batch normalization.

use crate::layer::{Layer, ParamView};
use stsl_parallel::{par_chunks_mut, par_chunks_mut2, par_map_indexed, ChunkPolicy};
use stsl_tensor::Tensor;

/// Batch normalization over `NCHW` activations (per-channel statistics
/// across batch and spatial dimensions), with learnable scale/shift and
/// running statistics for inference.
///
/// Not part of the paper's Fig. 3 CNN, but provided for architecture
/// ablations (normalization interacts interestingly with split learning:
/// batch statistics become *per-end-system* statistics).
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones([channels]),
            beta: Tensor::zeros([channels]),
            dgamma: Tensor::zeros([channels]),
            dbeta: Tensor::zeros([channels]),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Overrides the running-statistics momentum (builder style).
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    fn stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let plane = h * w;
        let count = (n * plane) as f32;
        let src = input.as_slice();
        // Channel-parallel: each channel's reduction is an independent
        // serial loop in (ni, i) ascending order, so the f64 accumulation
        // order — and therefore every rounded f32 — is identical for any
        // thread count.
        let per_channel = par_map_indexed(c, ChunkPolicy::elems(n * plane), |ci| {
            let planes = (0..n).map(|ni| {
                let off = (ni * c + ci) * plane;
                &src[off..off + plane]
            });
            let acc =
                stsl_tensor::sum_f64(planes.clone().flat_map(|p| p.iter().map(|&v| v as f64)));
            let mean = (acc / count as f64) as f32;
            let sq = stsl_tensor::sum_f64(planes.flat_map(|p| {
                p.iter().map(move |&v| {
                    let d = v - mean;
                    (d * d) as f64
                })
            }));
            (mean, (sq / count as f64) as f32)
        });
        per_channel.into_iter().unzip()
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(
            input.rank(),
            4,
            "batchnorm2d expects NCHW, got {}",
            input.shape()
        );
        assert_eq!(input.dim(1), self.channels, "channel mismatch");
    }

    /// Normalizes `input` with per-channel `mean` and `var`, then applies
    /// the affine map; returns the output and what `backward` needs.
    fn normalize(&self, input: &Tensor, mean: &[f32], var: &[f32]) -> (Tensor, Cache) {
        let (c, h, w) = (input.dim(1), input.dim(2), input.dim(3));
        let plane = h * w;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let src = input.as_slice();
        let gamma = self.gamma.as_slice();
        let beta = self.beta.as_slice();
        let mut out = vec![0.0f32; src.len()];
        let mut xhat = vec![0.0f32; src.len()];
        // Batch-parallel elementwise normalization; both outputs are pure
        // per-element writes, so results are partition-invariant.
        let sample = c * plane;
        if !out.is_empty() {
            par_chunks_mut2(
                &mut out,
                &mut xhat,
                sample,
                sample,
                ChunkPolicy::elems(sample),
                |ni0, out_band, xhat_band| {
                    for bi in 0..out_band.len() / sample {
                        let ni = ni0 + bi;
                        for ci in 0..c {
                            let off = (ni * c + ci) * plane;
                            let loc = (bi * c + ci) * plane;
                            for i in 0..plane {
                                let xh = (src[off + i] - mean[ci]) * inv_std[ci];
                                xhat_band[loc + i] = xh;
                                out_band[loc + i] = gamma[ci] * xh + beta[ci];
                            }
                        }
                    }
                },
            );
        }
        let dims = input.dims().to_vec();
        let cache = Cache {
            xhat: Tensor::from_vec(xhat, dims.clone()),
            inv_std,
            dims: dims.clone(),
        };
        (Tensor::from_vec(out, dims), cache)
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.check_input(input);
        let (out, _) = self.normalize(
            input,
            self.running_mean.as_slice(),
            self.running_var.as_slice(),
        );
        out
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.check_input(input);
        let (mean, var) = self.stats(input);
        // Update running statistics.
        for ci in 0..self.channels {
            let rm = self.running_mean.as_mut_slice();
            rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
            let rv = self.running_var.as_mut_slice();
            rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
        }
        let (out, cache) = self.normalize(input, &mean, &var);
        self.cache = Some(cache);
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm2d backward without cached forward");
        let dims = cache.dims;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let xhat = cache.xhat.as_slice();
        let g = dout.as_slice();
        let gamma = self.gamma.as_slice();
        // Per-channel reductions, one channel per parallel unit. Each
        // channel's two sums accumulate in the same (ni, i) ascending order
        // as the serial sweep, so no reduction-order drift.
        let (sum_dy, sum_dy_xhat): (Vec<f32>, Vec<f32>) =
            par_map_indexed(c, ChunkPolicy::elems(n * plane), |ci| {
                let offs = (0..n).map(|ni| (ni * c + ci) * plane);
                let dy = stsl_tensor::sum_f32(
                    offs.clone()
                        .flat_map(|off| g[off..off + plane].iter().copied()),
                );
                let dy_xhat = stsl_tensor::sum_f32(offs.flat_map(|off| {
                    g[off..off + plane]
                        .iter()
                        .zip(&xhat[off..off + plane])
                        .map(|(&gv, &xv)| gv * xv)
                }));
                (dy, dy_xhat)
            })
            .into_iter()
            .unzip();
        // Parameter gradients.
        for ci in 0..c {
            self.dbeta.as_mut_slice()[ci] += sum_dy[ci];
            self.dgamma.as_mut_slice()[ci] += sum_dy_xhat[ci];
        }
        // Input gradient: dx = γ/(m·σ) · (m·dy − Σdy − x̂·Σ(dy·x̂)),
        // batch-parallel pure writes.
        let mut dx = vec![0.0f32; g.len()];
        let sample = c * plane;
        if !dx.is_empty() {
            par_chunks_mut(&mut dx, sample, ChunkPolicy::elems(sample), |ni0, band| {
                for bi in 0..band.len() / sample {
                    let ni = ni0 + bi;
                    for ci in 0..c {
                        let off = (ni * c + ci) * plane;
                        let loc = (bi * c + ci) * plane;
                        let k = gamma[ci] * cache.inv_std[ci] / count;
                        for i in 0..plane {
                            band[loc + i] = k
                                * (count * g[off + i]
                                    - sum_dy[ci]
                                    - xhat[off + i] * sum_dy_xhat[ci]);
                        }
                    }
                }
            });
        }
        Tensor::from_vec(dx, dims)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamView<'_>)) {
        f(ParamView {
            value: &mut self.gamma,
            grad: &mut self.dgamma,
            name: "gamma",
        });
        f(ParamView {
            value: &mut self.beta,
            grad: &mut self.dbeta,
            name: "beta",
        });
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        assert_eq!(input_dims.len(), 4, "batchnorm2d expects NCHW");
        assert_eq!(input_dims[1], self.channels, "channel mismatch");
        input_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use stsl_tensor::init::rng_from_seed;

    #[test]
    fn train_output_is_normalized_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn([4, 2, 5, 5], &mut rng_from_seed(0));
        let y = bn.forward(&x, Mode::Train);
        // Each channel of the output has ≈ zero mean and unit variance.
        let (n, plane) = (4, 25);
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..n {
                for i in 0..plane {
                    vals.push(y.at(&[ni, ci, i / 5, i % 5]));
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {}", mean);
            assert!((var - 1.0).abs() < 1e-2, "var {}", var);
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1).momentum(1.0); // running = last batch
        let x = &Tensor::ones([2, 1, 2, 2]) * 3.0;
        // Train once on constant 3s: running_mean = 3, running_var = 0.
        bn.forward(&x, Mode::Train);
        // Eval on 3s must give ≈ 0 (normalized by running stats).
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.as_slice().iter().all(|v| v.abs() < 1e-2), "{:?}", y);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = rng_from_seed(1);
        let x = Tensor::randn([2, 2, 3, 3], &mut rng);
        let m = Tensor::randn([2, 2, 3, 3], &mut rng);
        bn.forward(&x, Mode::Train);
        let dx = bn.backward(&m);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train);
            bn.cache = None; // do not let probe forwards leak caches
            y.as_slice()
                .iter()
                .zip(m.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            let ana = dx.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{}]: {} vs {}",
                i,
                num,
                ana
            );
        }
    }

    #[test]
    fn eval_mode_parameter_gradients_match_finite_differences() {
        // Eval mode never caches, so there is no backward path to probe —
        // but its parameter dependence is the plain affine map
        // y = γ·x̂_run + β, whose gradients under L = Σ m·y have the
        // closed forms dγ_c = Σ m·x̂_run and dβ_c = Σ m. Verify both
        // against central finite differences through the real Eval
        // forward, with non-trivial running statistics.
        let mut bn = BatchNorm2d::new(2);
        let mut rng = rng_from_seed(3);
        let warm = Tensor::randn([4, 2, 3, 3], &mut rng);
        bn.forward(&warm, Mode::Train);
        bn.cache = None;
        let x = Tensor::randn([2, 2, 3, 3], &mut rng);
        let m = Tensor::randn([2, 2, 3, 3], &mut rng);
        let loss = |bn: &mut BatchNorm2d| -> f32 {
            bn.forward(&x, Mode::Eval)
                .as_slice()
                .iter()
                .zip(m.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (n, c, plane) = (2usize, 2usize, 9usize);
        let fd_eps = 1e-2f32;
        for ci in 0..c {
            let rm = bn.running_mean.as_slice()[ci];
            let rv = bn.running_var.as_slice()[ci];
            let inv = 1.0 / (rv + bn.eps).sqrt();
            let mut dgamma = 0.0f32;
            let mut dbeta = 0.0f32;
            for ni in 0..n {
                let off = (ni * c + ci) * plane;
                for i in 0..plane {
                    let xh = (x.as_slice()[off + i] - rm) * inv;
                    dgamma += m.as_slice()[off + i] * xh;
                    dbeta += m.as_slice()[off + i];
                }
            }
            let orig_g = bn.gamma.as_slice()[ci];
            bn.gamma.as_mut_slice()[ci] = orig_g + fd_eps;
            let lp = loss(&mut bn);
            bn.gamma.as_mut_slice()[ci] = orig_g - fd_eps;
            let lm = loss(&mut bn);
            bn.gamma.as_mut_slice()[ci] = orig_g;
            let num_g = (lp - lm) / (2.0 * fd_eps);
            assert!(
                (num_g - dgamma).abs() < 2e-2 * (1.0 + num_g.abs()),
                "dgamma[{}]: {} vs {}",
                ci,
                num_g,
                dgamma
            );
            let orig_b = bn.beta.as_slice()[ci];
            bn.beta.as_mut_slice()[ci] = orig_b + fd_eps;
            let lp = loss(&mut bn);
            bn.beta.as_mut_slice()[ci] = orig_b - fd_eps;
            let lm = loss(&mut bn);
            bn.beta.as_mut_slice()[ci] = orig_b;
            let num_b = (lp - lm) / (2.0 * fd_eps);
            assert!(
                (num_b - dbeta).abs() < 2e-2 * (1.0 + num_b.abs()),
                "dbeta[{}]: {} vs {}",
                ci,
                num_b,
                dbeta
            );
        }
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn([2, 1, 2, 2], &mut rng_from_seed(2));
        bn.forward(&x, Mode::Train);
        bn.backward(&Tensor::ones([2, 1, 2, 2]));
        // dbeta = Σ dout = 8.
        assert!((bn.dbeta.item() - 8.0).abs() < 1e-5);
        bn.zero_grads();
        assert_eq!(bn.dbeta.item(), 0.0);
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut bn = BatchNorm2d::new(7);
        assert_eq!(bn.param_count(), 14);
    }
}
