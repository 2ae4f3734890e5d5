//! The paper's CNN (Fig. 3) and the cut-point abstraction.
//!
//! Fig. 3 specifies five blocks `L_1..L_5`, each a `Conv2D` (3×3, "same")
//! followed by `MaxPooling2D` (2×2), with 16/32/64/128/256 filters, then
//! two dense layers of 512 and 10 units. We insert the conventional ReLU
//! after every convolution and the hidden dense layer (the paper's Keras
//! reference model does the same via `activation="relu"`).

use serde::{Deserialize, Serialize};
use stsl_nn::layers::{AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, Relu};
use stsl_nn::Sequential;
use stsl_tensor::init::derive_seed;

/// Which pooling operator follows each convolution.
///
/// The paper uses max pooling and credits it with hiding the original
/// image (Fig. 4); [`PoolKind::Avg`] exists for the `pool_ablation`
/// experiment that tests exactly that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling (the paper's choice).
    #[default]
    Max,
    /// Average pooling.
    Avg,
}

impl std::fmt::Display for PoolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolKind::Max => write!(f, "max"),
            PoolKind::Avg => write!(f, "avg"),
        }
    }
}

/// Layers per convolutional block in the assembled [`Sequential`]:
/// `Conv2d`, `Relu`, `MaxPool2d`.
pub const LAYERS_PER_BLOCK: usize = 3;

/// How many leading blocks `L_1..L_k` live at the end-systems.
///
/// `CutPoint(0)` means everything is at the server (the paper's "Nothing"
/// row of Table I); `CutPoint(4)` is the deepest cut the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CutPoint(pub usize);

impl CutPoint {
    /// Index in the layer stack where the model is split.
    pub fn layer_index(self) -> usize {
        self.0 * LAYERS_PER_BLOCK
    }

    /// Number of blocks at the end-system.
    pub fn blocks(self) -> usize {
        self.0
    }

    /// The paper's Table I label for this cut.
    pub fn label(self) -> String {
        match self.0 {
            0 => "Nothing (all layers at server)".to_string(),
            k => {
                let names: Vec<String> = (1..=k).map(|i| format!("L{}", i)).collect();
                names.join(",")
            }
        }
    }
}

impl std::fmt::Display for CutPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cut={}", self.0)
    }
}

/// Architecture of the evaluation CNN, parameterized so tests can shrink
/// it while the experiment harness uses the paper's exact widths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnArch {
    /// Input channels (3 for CIFAR).
    pub in_channels: usize,
    /// Input spatial side (32 for CIFAR).
    pub image_side: usize,
    /// Filters per block, e.g. `[16, 32, 64, 128, 256]`.
    pub filters: Vec<usize>,
    /// Hidden dense width (512 in the paper).
    pub dense_units: usize,
    /// Output classes (10).
    pub classes: usize,
    /// Pooling operator after each convolution (defaults to max, the
    /// paper's choice).
    #[serde(default)]
    pub pool: PoolKind,
}

impl CnnArch {
    /// The paper's Fig. 3 architecture for CIFAR-10.
    pub fn paper() -> Self {
        CnnArch {
            in_channels: 3,
            image_side: 32,
            filters: vec![16, 32, 64, 128, 256],
            dense_units: 512,
            classes: 10,
            pool: PoolKind::Max,
        }
    }

    /// A shrunken architecture for fast tests: three blocks on 16×16
    /// inputs.
    pub fn tiny() -> Self {
        CnnArch {
            in_channels: 3,
            image_side: 16,
            filters: vec![8, 16, 32],
            dense_units: 32,
            classes: 10,
            pool: PoolKind::Max,
        }
    }

    /// Number of convolutional blocks.
    pub fn blocks(&self) -> usize {
        self.filters.len()
    }

    /// Maximum valid cut (all conv blocks at the end-system, as in the
    /// paper's `L_1..L_4` deepest configuration you can extend to `L_5`).
    pub fn max_cut(&self) -> CutPoint {
        CutPoint(self.blocks())
    }

    /// Flattened feature width after all conv blocks.
    pub fn flat_features(&self) -> usize {
        let mut side = self.image_side;
        for _ in &self.filters {
            side /= 2;
        }
        assert!(
            side >= 1,
            "image side {} too small for {} blocks",
            self.image_side,
            self.blocks()
        );
        self.filters.last().copied().unwrap_or(self.in_channels) * side * side
    }

    /// Builds the full network with parameters seeded from `seed`.
    ///
    /// Layer order: `blocks × [Conv2d, Relu, MaxPool2d]`, then `Flatten`,
    /// `Dense(dense_units)`, `Relu`, `Dense(classes)`.
    pub fn build(&self, seed: u64) -> Sequential {
        assert!(!self.filters.is_empty(), "need at least one block");
        let mut net = Sequential::new();
        let mut in_c = self.in_channels;
        for (i, &f) in self.filters.iter().enumerate() {
            net.push(Conv2d::new(in_c, f, 3, derive_seed(seed, i as u64)));
            net.push(Relu::new());
            match self.pool {
                PoolKind::Max => net.push(MaxPool2d::new(2)),
                PoolKind::Avg => net.push(AvgPool2d::new(2)),
            };
            in_c = f;
        }
        net.push(Flatten::new());
        net.push(Dense::new(
            self.flat_features(),
            self.dense_units,
            derive_seed(seed, 100),
        ));
        net.push(Relu::new());
        net.push(Dense::new(
            self.dense_units,
            self.classes,
            derive_seed(seed, 101),
        ));
        net
    }

    /// Builds and splits the network at `cut`: `(client part, server
    /// part)`. The client part of end-system `e` should be built with a
    /// seed unique to `e` — the paper's "individual first hidden layers".
    ///
    /// # Panics
    ///
    /// Panics if `cut` exceeds the number of blocks.
    pub fn build_split(&self, cut: CutPoint, seed: u64) -> (Sequential, Sequential) {
        assert!(
            cut.blocks() <= self.blocks(),
            "cut {} exceeds {} blocks",
            cut.blocks(),
            self.blocks()
        );
        self.build(seed).split_at(cut.layer_index())
    }

    /// Shape of the smashed activations at `cut` for batch size `n`.
    pub fn cut_dims(&self, cut: CutPoint, n: usize) -> Vec<usize> {
        let side = self.image_side >> cut.blocks();
        let channels = if cut.blocks() == 0 {
            self.in_channels
        } else {
            self.filters[cut.blocks() - 1]
        };
        vec![n, channels, side, side]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_nn::Mode;
    use stsl_tensor::init::rng_from_seed;
    use stsl_tensor::Tensor;

    #[test]
    fn paper_arch_matches_fig3() {
        let arch = CnnArch::paper();
        assert_eq!(arch.filters, vec![16, 32, 64, 128, 256]);
        assert_eq!(arch.dense_units, 512);
        assert_eq!(arch.classes, 10);
        // After 5 pools: 32 -> 1, so flatten yields 256 features.
        assert_eq!(arch.flat_features(), 256);
    }

    #[test]
    fn build_produces_expected_layer_sequence() {
        let net = CnnArch::tiny().build(0);
        let names = net.layer_names();
        assert_eq!(names.len(), 3 * LAYERS_PER_BLOCK + 4);
        assert_eq!(&names[..3], &["conv2d", "relu", "maxpool2d"]);
        assert_eq!(
            &names[names.len() - 4..],
            &["flatten", "dense", "relu", "dense"]
        );
    }

    #[test]
    fn forward_shapes_through_paper_cnn() {
        let arch = CnnArch::paper();
        let mut net = arch.build(1);
        let x = Tensor::randn([2, 3, 32, 32], &mut rng_from_seed(0));
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn infer_matches_train_forward_on_every_layer_and_caches_nothing() {
        for arch in [CnnArch::paper(), CnnArch::tiny()] {
            let mut net = arch.build(4);
            let side = arch.image_side;
            let x = Tensor::randn([2, 3, side, side], &mut rng_from_seed(5));
            assert_eq!(net.infer(&x), net.forward(&x, Mode::Eval));
            let mut a = x;
            net.visit_layers(&mut |layer| {
                let fresh = format!("{layer:?}");
                let inferred = layer.infer(&a);
                let evaluated = layer.forward(&a, Mode::Eval);
                assert_eq!(format!("{layer:?}"), fresh, "{} cached", layer.name());
                let trained = layer.forward(&a, Mode::Train);
                assert_eq!(inferred, trained, "{} infer differs", layer.name());
                assert_eq!(evaluated, trained, "{} eval differs", layer.name());
                a = trained;
            });
        }
    }

    #[test]
    fn cut_dims_match_actual_activations() {
        let arch = CnnArch::tiny();
        for k in 0..=arch.blocks() {
            let cut = CutPoint(k);
            let (mut client, _server) = arch.build_split(cut, 3);
            let x = Tensor::randn([4, 3, 16, 16], &mut rng_from_seed(1));
            let smashed = client.forward(&x, Mode::Eval);
            assert_eq!(
                smashed.dims(),
                arch.cut_dims(cut, 4).as_slice(),
                "cut {}",
                k
            );
        }
    }

    #[test]
    fn split_composition_equals_full_model() {
        let arch = CnnArch::tiny();
        let mut full = arch.build(9);
        let (mut client, mut server) = arch.build_split(CutPoint(2), 9);
        let x = Tensor::randn([2, 3, 16, 16], &mut rng_from_seed(2));
        let direct = full.forward(&x, Mode::Eval);
        let smashed = client.forward(&x, Mode::Eval);
        let composed = server.forward(&smashed, Mode::Eval);
        assert_eq!(direct, composed);
    }

    #[test]
    fn cut_zero_puts_everything_at_server() {
        let (client, server) = CnnArch::tiny().build_split(CutPoint(0), 0);
        assert!(client.is_empty());
        assert_eq!(server.len(), 3 * LAYERS_PER_BLOCK + 4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn cut_beyond_blocks_rejected() {
        CnnArch::tiny().build_split(CutPoint(4), 0);
    }

    #[test]
    fn table_one_labels() {
        assert_eq!(CutPoint(0).label(), "Nothing (all layers at server)");
        assert_eq!(CutPoint(3).label(), "L1,L2,L3");
    }

    #[test]
    fn param_count_is_plausible_for_paper_arch() {
        let mut net = CnnArch::paper().build(0);
        let params = net.param_count();
        // conv: 3*16*9+16 + 16*32*9+32 + 32*64*9+64 + 64*128*9+128 + 128*256*9+256
        // dense: 256*512+512 + 512*10+10
        let expected = (3 * 16 * 9 + 16)
            + (16 * 32 * 9 + 32)
            + (32 * 64 * 9 + 64)
            + (64 * 128 * 9 + 128)
            + (128 * 256 * 9 + 256)
            + (256 * 512 + 512)
            + (512 * 10 + 10);
        assert_eq!(params, expected);
    }
}
