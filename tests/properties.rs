//! Cross-crate property-based tests: protocol round-trips, partition
//! invariants and model-splitting laws under randomized inputs.

use proptest::prelude::*;
use rand::Rng;
use spatio_temporal_split_learning::data::{Partition, SyntheticCifar};
use spatio_temporal_split_learning::nn::Mode;
use spatio_temporal_split_learning::simnet::EndSystemId;
use spatio_temporal_split_learning::split::protocol::{
    crc32, ActivationMsg, BatchId, GradientMsg, KIND_ACTIVATION, KIND_GRADIENT, WIRE_HEADER_BYTES,
    WIRE_MAGIC, WIRE_VERSION,
};
use spatio_temporal_split_learning::split::{combine, AggregationPolicy, CnnArch, CutPoint};
use spatio_temporal_split_learning::tensor::init::rng_from_seed;
use spatio_temporal_split_learning::tensor::Tensor;

/// Every aggregation policy under test, parameterized by a small-int
/// strategy so proptest can shrink across them.
fn policy_from(which: u8, trim: f32, f: usize) -> AggregationPolicy {
    match which % 5 {
        0 => AggregationPolicy::Mean,
        1 => AggregationPolicy::CoordinateMedian,
        2 => AggregationPolicy::TrimmedMean { trim },
        3 => AggregationPolicy::NormClippedMean,
        _ => AggregationPolicy::Krum {
            assumed_attackers: f,
        },
    }
}

/// A window of `n` random updates of dimension `dim`.
fn random_window(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
        .collect()
}

/// Wraps `payload` in a frame header with a valid length and CRC, so the
/// decoders get past the framing checks into the payload parser.
fn valid_crc_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = WIRE_MAGIC.to_vec();
    frame.extend_from_slice(&[WIRE_VERSION, kind]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

proptest! {
    // The byte-soup test below almost never passes the magic and CRC
    // checks, so this one builds well-framed payloads around an arbitrary
    // tensor header: any rank up to one past the wire limit, any `u32`
    // dims (or small ones, so some frames parse), and a short or empty
    // tail. Hostile headers are cheap, so it runs many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_tensor_headers_never_panic(
        gradient in 0u8..2,
        dims in prop::collection::vec(0u32..=u32::MAX, 0..10),
        small in 0u8..2,
        tail in prop::collection::vec(0u8..=255, 0..64)
    ) {
        let mut payload = vec![0u8; 12];
        payload.push(dims.len() as u8);
        for d in dims {
            let d = if small == 1 { d % 4 } else { d };
            payload.extend_from_slice(&d.to_le_bytes());
        }
        payload.extend_from_slice(&tail);
        if gradient == 1 {
            let frame = valid_crc_frame(KIND_GRADIENT, &payload);
            let strict = GradientMsg::decode(&frame);
            let lenient = GradientMsg::decode_lenient(&frame);
            prop_assert_eq!(strict.is_ok(), lenient.is_ok());
        } else {
            let frame = valid_crc_frame(KIND_ACTIVATION, &payload);
            let strict = ActivationMsg::decode(&frame);
            let lenient = ActivationMsg::decode_lenient(&frame);
            prop_assert_eq!(strict.is_ok(), lenient.is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn activation_messages_roundtrip(
        n in 1usize..5, c in 1usize..9, hw in 1usize..9,
        from in 0usize..16, epoch in 0u32..100, batch in 0u32..1000,
        seed in 0u64..1000
    ) {
        let msg = ActivationMsg {
            from: EndSystemId(from),
            batch_id: BatchId { epoch, batch },
            activations: Tensor::randn([n, c, hw, hw], &mut rng_from_seed(seed)),
            targets: (0..n).map(|i| i % 10).collect(),
        };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.encoded_len());
        prop_assert_eq!(ActivationMsg::decode(encoded), Ok(msg));
    }

    #[test]
    fn gradient_messages_roundtrip(
        dims in prop::collection::vec(1usize..6, 1..4),
        to in 0usize..16, seed in 0u64..1000
    ) {
        let msg = GradientMsg {
            to: EndSystemId(to),
            batch_id: BatchId { epoch: 0, batch: 0 },
            grad: Tensor::randn(dims, &mut rng_from_seed(seed)),
        };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.encoded_len());
        prop_assert_eq!(GradientMsg::decode(encoded), Ok(msg));
    }

    /// A single bit flip anywhere in an activation frame must surface as a
    /// typed error — never a panic, never a silently accepted frame.
    #[test]
    fn bit_flipped_activation_frames_always_err(
        n in 1usize..4, c in 1usize..6, hw in 1usize..6,
        seed in 0u64..1000, byte_frac in 0.0f64..1.0, bit in 0u8..8
    ) {
        let msg = ActivationMsg {
            from: EndSystemId(1),
            batch_id: BatchId { epoch: 1, batch: 2 },
            activations: Tensor::randn([n, c, hw, hw], &mut rng_from_seed(seed)),
            targets: (0..n).map(|i| i % 10).collect(),
        };
        let mut raw = msg.encode().as_ref().to_vec();
        let idx = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[idx] ^= 1 << bit;
        // Flipping a bit inside the stored CRC field itself leaves the
        // payload intact, so the checksum (recomputed over the payload)
        // no longer matches the header — still an error. Every other
        // position corrupts payload or framing. Either way: Err.
        prop_assert!(ActivationMsg::decode(raw).is_err());
    }

    #[test]
    fn bit_flipped_gradient_frames_always_err(
        dims in prop::collection::vec(1usize..6, 1..4),
        seed in 0u64..1000, byte_frac in 0.0f64..1.0, bit in 0u8..8
    ) {
        let msg = GradientMsg {
            to: EndSystemId(0),
            batch_id: BatchId { epoch: 3, batch: 4 },
            grad: Tensor::randn(dims, &mut rng_from_seed(seed)),
        };
        let mut raw = msg.encode().as_ref().to_vec();
        let idx = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[idx] ^= 1 << bit;
        prop_assert!(GradientMsg::decode(raw).is_err());
    }

    /// Truncation at any prefix length — header, mid-tensor, last byte —
    /// returns Err from both the checked and unchecked decoders.
    #[test]
    fn truncated_frames_never_panic(
        n in 1usize..4, hw in 1usize..6, seed in 0u64..1000,
        keep_frac in 0.0f64..1.0
    ) {
        let msg = ActivationMsg {
            from: EndSystemId(2),
            batch_id: BatchId { epoch: 0, batch: 7 },
            activations: Tensor::randn([n, 2, hw, hw], &mut rng_from_seed(seed)),
            targets: (0..n).map(|i| i % 10).collect(),
        };
        let raw = msg.encode().as_ref().to_vec();
        let keep = ((raw.len() - 1) as f64 * keep_frac) as usize;
        let cut = raw[..keep].to_vec();
        prop_assert!(ActivationMsg::decode(cut.clone()).is_err());
        prop_assert!(ActivationMsg::decode_lenient(cut).is_err());
    }

    /// Arbitrary byte soup — with or without a plausible-looking header —
    /// must decode to Err on both message types without panicking.
    #[test]
    fn random_bytes_never_panic(
        mut soup in prop::collection::vec(0u8..=255, 0..256),
        with_header in 0u8..2
    ) {
        if with_header == 1 && soup.len() >= WIRE_HEADER_BYTES {
            // Graft a valid-looking prefix so decoding reaches the
            // payload parser instead of bailing at the magic check.
            soup[0..4].copy_from_slice(b"STSL");
            soup[4] = 1;
            soup[5] = 0xA5;
            let len = (soup.len() - WIRE_HEADER_BYTES) as u32;
            soup[6..10].copy_from_slice(&len.to_le_bytes());
        }
        let _ = ActivationMsg::decode(soup.clone());
        let _ = ActivationMsg::decode_lenient(soup.clone());
        let _ = GradientMsg::decode(soup.clone());
        let _ = GradientMsg::decode_lenient(soup);
    }

    #[test]
    fn partitions_are_exact_covers(
        clients in 1usize..7, seed in 0u64..100, alpha in 0.05f32..2.0
    ) {
        let data = SyntheticCifar::new(1).difficulty(0.0).generate_sized(60, 8);
        for partition in [Partition::Iid, Partition::Dirichlet { alpha }] {
            let sets = partition.split_indices(&data, clients, seed);
            prop_assert_eq!(sets.len(), clients);
            let mut all: Vec<usize> = sets.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..60).collect::<Vec<_>>());
            prop_assert!(sets.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn model_split_composes_at_every_cut(cut in 0usize..4, seed in 0u64..50) {
        let arch = CnnArch::tiny();
        let mut full = arch.build(seed);
        let (mut lower, mut upper) = arch.build(seed).split_at(CutPoint(cut).layer_index());
        let x = Tensor::randn([2, 3, 16, 16], &mut rng_from_seed(seed + 1));
        let direct = full.forward(&x, Mode::Eval);
        let composed = upper.forward(&lower.forward(&x, Mode::Eval), Mode::Eval);
        prop_assert_eq!(direct, composed);
    }

    /// R1 for the aggregation seam: every policy is *bitwise* invariant
    /// to the arrival order of the window — the property that makes the
    /// poison sweep byte-identical across STSL_THREADS settings.
    #[test]
    fn aggregation_is_bitwise_permutation_invariant(
        which in 0u8..5, n in 2usize..8, dim in 1usize..6,
        seed in 0u64..500, rot in 1usize..7, trim in 0.0f32..0.49,
        f in 0usize..3
    ) {
        let policy = policy_from(which, trim, f);
        let u = random_window(n, dim, seed);
        let mut perm = u.clone();
        perm.rotate_left(rot % n);
        if n >= 2 { perm.swap(0, n - 1); }
        let a = combine(policy, &u).unwrap();
        let b = combine(policy, &perm).unwrap();
        prop_assert_eq!(a.combined, b.combined);
        prop_assert_eq!(a.trimmed, b.trimmed);
    }

    /// Trimming nothing must be *exactly* the mean — same floats, not
    /// merely close — so `TrimmedMean { trim: 0.0 }` can serve as a
    /// drop-in mean with outlier reporting.
    #[test]
    fn trim_zero_is_bitwise_mean(
        n in 1usize..8, dim in 1usize..6, seed in 0u64..500
    ) {
        let u = random_window(n, dim, seed);
        let a = combine(AggregationPolicy::TrimmedMean { trim: 0.0 }, &u).unwrap();
        let b = combine(AggregationPolicy::Mean, &u).unwrap();
        prop_assert_eq!(a.combined, b.combined);
    }

    /// The classical robustness guarantee: with at most `f` attackers in
    /// a window of `2f + 1` or more updates, coordinate-median and
    /// trimmed mean (trim depth ≥ f) stay inside the honest coordinate
    /// range — no attacker value, however extreme, can drag a coordinate
    /// past the honest envelope.
    #[test]
    fn median_and_trimmed_stay_in_honest_range(
        extra in 0usize..5, f in 1usize..3, dim in 1usize..5,
        seed in 0u64..500, gain in 1.0f32..100.0
    ) {
        // Honest majority by construction: n_honest = 2f + 1 + extra.
        let honest_n = 2 * f + 1 + extra;
        let honest = random_window(honest_n, dim, seed);
        let mut window = honest.clone();
        for a in 0..f {
            // Adversarial update: huge alternating-sign coordinates.
            window.push(
                (0..dim)
                    .map(|j| if (a + j) % 2 == 0 { gain * 50.0 } else { -gain * 50.0 })
                    .collect(),
            );
        }
        let n = window.len();
        let trim = (f as f32 + 0.5) / n as f32; // depth ≥ f each side
        for policy in [
            AggregationPolicy::CoordinateMedian,
            AggregationPolicy::TrimmedMean { trim },
        ] {
            let out = combine(policy, &window).unwrap();
            for j in 0..dim {
                let lo = honest.iter().map(|h| h[j]).fold(f32::INFINITY, f32::min);
                let hi = honest.iter().map(|h| h[j]).fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    out.combined[j] >= lo && out.combined[j] <= hi,
                    "{:?} coordinate {} = {} escaped honest range [{}, {}]",
                    policy, j, out.combined[j], lo, hi
                );
            }
        }
    }

    #[test]
    fn cut_dims_predict_encoder_output(cut in 0usize..4, n in 1usize..4, seed in 0u64..50) {
        let arch = CnnArch::tiny();
        let (mut lower, _) = arch.build_split(CutPoint(cut), seed);
        let x = Tensor::randn([n, 3, 16, 16], &mut rng_from_seed(seed));
        let smashed = lower.forward(&x, Mode::Eval);
        let expected = arch.cut_dims(CutPoint(cut), n);
        prop_assert_eq!(smashed.dims(), expected.as_slice());
    }
}
