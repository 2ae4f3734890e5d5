//! Average-pooling layer.

use crate::layer::Layer;
use stsl_tensor::ops::conv::ConvSpec;
use stsl_tensor::ops::pool::{avgpool2d_backward, avgpool2d_forward};
use stsl_tensor::Tensor;

/// 2-D average pooling over `NCHW` activations.
///
/// The paper's CNN uses max pooling; this layer exists for the
/// pooling-type ablation (`pool_ablation` experiment), which tests the
/// paper's Fig. 4 claim that it is specifically *max*-pooling that hides
/// the original image.
#[derive(Debug)]
pub struct AvgPool2d {
    spec: ConvSpec,
    input_dims: Option<(usize, usize, usize, usize)>,
}

impl AvgPool2d {
    /// Creates a `k×k` pool with stride `k` (non-overlapping windows).
    pub fn new(k: usize) -> Self {
        AvgPool2d {
            spec: ConvSpec {
                kh: k,
                kw: k,
                stride: k,
                pad: 0,
            },
            input_dims: None,
        }
    }

    /// Creates a pool with explicit window and stride.
    pub fn with_stride(k: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: ConvSpec {
                kh: k,
                kw: k,
                stride,
                pad: 0,
            },
            input_dims: None,
        }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        avgpool2d_forward(input, self.spec)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.input_dims = Some((input.dim(0), input.dim(1), input.dim(2), input.dim(3)));
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("avgpool2d backward without cached forward");
        avgpool2d_backward(dout, dims, self.spec)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        assert_eq!(input_dims.len(), 4, "avgpool2d expects NCHW input");
        let (oh, ow) = self
            .spec
            .output_hw(input_dims[2], input_dims[3])
            .expect("pool window does not fit");
        vec![input_dims[0], input_dims[1], oh, ow]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use stsl_tensor::init::rng_from_seed;

    #[test]
    fn halves_spatial_dims() {
        let mut pool = AvgPool2d::new(2);
        let y = pool.forward(&Tensor::zeros([1, 4, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        assert_eq!(pool.output_dims(&[1, 4, 8, 8]), vec![1, 4, 4, 4]);
    }

    #[test]
    fn forward_averages_windows() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 1, 2, 2]);
        let mut pool = AvgPool2d::new(2);
        assert_eq!(pool.forward(&x, Mode::Eval).as_slice(), &[4.0]);
    }

    #[test]
    fn gradient_mass_is_conserved() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng_from_seed(1));
        let y = pool.forward(&x, Mode::Train);
        let dout = Tensor::ones(y.dims().to_vec());
        let dx = pool.backward(&dout);
        assert!((dx.sum() - dout.sum()).abs() < 1e-5);
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn avgpool_keeps_more_detail_than_maxpool_on_smooth_signals() {
        // Reconstruction sanity: average pooling is linear and keeps the
        // low-frequency content; max pooling is a nonlinear envelope.
        let mut avg = AvgPool2d::new(2);
        let mut max = crate::layers::MaxPool2d::new(2);
        let x = Tensor::from_fn([1, 1, 8, 8], |idx| ((idx[2] + idx[3]) % 2) as f32);
        let a = avg.forward(&x, Mode::Eval);
        let m = max.forward(&x, Mode::Eval);
        // Checkerboard: avg gives the true mean (0.5), max saturates at 1.
        assert!(a.as_slice().iter().all(|&v| (v - 0.5).abs() < 1e-6));
        assert!(m.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn has_no_parameters() {
        let mut pool = AvgPool2d::new(2);
        assert_eq!(pool.param_count(), 0);
    }
}
