//! Parameter-free activation and reshaping layers.

use crate::layer::Layer;
use stsl_tensor::init::rng_from_seed;
use stsl_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| x.max(0.0))
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        self.infer(input)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("relu backward without cached forward");
        assert_eq!(dout.len(), mask.len(), "relu dout length mismatch");
        let data = dout
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, dout.shape().clone())
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

/// Leaky rectified linear unit: `y = x` if `x > 0`, else `alpha * x`.
#[derive(Debug)]
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<Vec<bool>>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with negative-slope `alpha`.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { alpha, mask: None }
    }
}

impl Layer for LeakyRelu {
    fn name(&self) -> &'static str {
        "leaky_relu"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let a = self.alpha;
        input.map(|x| if x > 0.0 { x } else { a * x })
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        self.infer(input)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("leaky_relu backward without cached forward");
        let a = self.alpha;
        let data = dout
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { a * g })
            .collect();
        Tensor::from_vec(data, dout.shape().clone())
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{-x})`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let y = self
            .output
            .take()
            .expect("sigmoid backward without cached forward");
        // dy/dx = y (1 - y)
        dout.zip_map(&y, |g, y| g * y * (1.0 - y))
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(f32::tanh)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let y = self
            .output
            .take()
            .expect("tanh backward without cached forward");
        // dy/dx = 1 - y²
        dout.zip_map(&y, |g, y| g * (1.0 - y * y))
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

/// Flattens `[n, …]` to `[n, prod(…)]` (the conv→dense transition).
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert!(input.rank() >= 1, "flatten expects a batch dimension");
        let n = input.dim(0);
        input.reshape([n, input.len() / n.max(1)])
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.input_dims = Some(input.dims().to_vec());
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("flatten backward without cached forward");
        dout.reshape(dims)
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        let n = input_dims[0];
        vec![n, input_dims[1..].iter().product()]
    }
}

/// Inverted dropout: in training, zeroes each element with probability `p`
/// and scales survivors by `1/(1-p)`; identity in evaluation.
///
/// The RNG stream is owned by the layer and seeded at construction, so runs
/// are reproducible.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: rand::rngs::StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1), got {}",
            p
        );
        Dropout {
            p,
            rng: rng_from_seed(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.clone()
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            return self.infer(input);
        }
        use rand::Rng;
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let data = input
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&x, &m)| x * m)
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(data, input.shape().clone())
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        match self.mask.take() {
            None => dout.clone(), // p == 0 path
            Some(mask) => {
                let data = dout
                    .as_slice()
                    .iter()
                    .zip(&mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, dout.shape().clone())
            }
        }
    }

    fn output_dims(&self, input_dims: &[usize]) -> Vec<usize> {
        input_dims.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(r.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], [2]);
        r.forward(&x, Mode::Train);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 7.0], [2]));
        assert_eq!(dx.as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut r = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-2.0, 4.0], [2]);
        assert_eq!(r.forward(&x, Mode::Eval).as_slice(), &[-0.2, 4.0]);
        r.forward(&x, Mode::Train);
        let dx = r.backward(&Tensor::ones([2]));
        assert_eq!(dx.as_slice(), &[0.1, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], [3]);
        let y = s.forward(&x, Mode::Eval);
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_differences() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0], [3]);
        s.forward(&x, Mode::Train);
        let dx = s.backward(&Tensor::ones([3]));
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (s.forward(&xp, Mode::Eval).as_slice()[i]
                - s.forward(&xm, Mode::Eval).as_slice()[i])
                / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 2.0], [3]);
        let y = t.forward(&x, Mode::Eval);
        assert!((y.as_slice()[0] + y.as_slice()[2]).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut t = Tanh::new();
        t.forward(&Tensor::zeros([1]), Mode::Train);
        let dx = t.backward(&Tensor::ones([1]));
        assert!((dx.item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros([2, 3, 4, 4]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 48]);
        let dx = f.backward(&Tensor::ones([2, 48]));
        assert_eq!(dx.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn dropout_is_identity_in_eval() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones([100]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn dropout_preserves_expectation_in_train() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones([20_000]);
        let y = d.forward(&x, Mode::Train);
        // E[y] = 1; allow 5% sampling slack.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are scaled by 2.
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones([1000]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones([1000]));
        // Gradient is zero exactly where the forward output was zero.
        for (o, g) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }
}
