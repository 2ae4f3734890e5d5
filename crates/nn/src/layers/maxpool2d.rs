//! Max-pooling layer.

use crate::layer::Layer;
use stsl_tensor::ops::conv::ConvSpec;
use stsl_tensor::ops::pool::{maxpool2d_backward, maxpool2d_forward};
use stsl_tensor::Tensor;

/// 2-D max pooling over `NCHW` activations.
///
/// The paper's CNN (Fig. 3) follows every convolution with a `2×2`,
/// stride-2 max pool, which both downsamples and — as Fig. 4 demonstrates —
/// destroys enough spatial detail to hide the original image.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: ConvSpec,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    argmax: Vec<usize>,
    input_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a `k×k` pool with stride `k` (non-overlapping windows).
    pub fn new(k: usize) -> Self {
        MaxPool2d {
            spec: ConvSpec {
                kh: k,
                kw: k,
                stride: k,
                pad: 0,
            },
            cache: None,
        }
    }

    /// Creates a pool with explicit window and stride.
    pub fn with_stride(k: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: ConvSpec {
                kh: k,
                kw: k,
                stride,
                pad: 0,
            },
            cache: None,
        }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        maxpool2d_forward(input, self.spec).output
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let fwd = maxpool2d_forward(input, self.spec);
        self.cache = Some(Cache {
            argmax: fwd.argmax,
            input_dims: input.dims().to_vec(),
        });
        fwd.output
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("maxpool2d backward without cached forward");
        let len = cache.input_dims.iter().product();
        maxpool2d_backward(dout, &cache.argmax, len).reshape(cache.input_dims)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        assert_eq!(input_dims.len(), 4, "maxpool2d expects NCHW input");
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
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&Tensor::zeros([1, 4, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        assert_eq!(pool.output_dims(&[1, 4, 8, 8]), vec![1, 4, 4, 4]);
    }

    #[test]
    fn backward_restores_input_shape() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::randn([2, 3, 6, 6], &mut rng_from_seed(0));
        let y = pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::ones(y.dims().to_vec()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn gradient_mass_is_conserved() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng_from_seed(1));
        let y = pool.forward(&x, Mode::Train);
        let dout = Tensor::ones(y.dims().to_vec());
        let dx = pool.backward(&dout);
        assert!((dx.sum() - dout.sum()).abs() < 1e-5);
    }

    #[test]
    fn overlapping_pool_with_stride() {
        let mut pool = MaxPool2d::with_stride(3, 1);
        let y = pool.forward(&Tensor::zeros([1, 1, 5, 5]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
    }

    #[test]
    fn has_no_parameters() {
        let mut pool = MaxPool2d::new(2);
        assert_eq!(pool.param_count(), 0);
        assert!(pool.param_tensors().is_empty());
    }
}
