//! The centralized server: upper layers, loss, and the single shared model
//! trained on every end-system's smashed activations.

use crate::aggregate::{AggregationPolicy, RobustAggregator, RobustApply};
use crate::client::EndSystem;
use crate::guard::{validate_update, Anomaly, GuardConfig};
use crate::protocol::{ActivationMsg, GradientMsg};
use stsl_data::ImageDataset;
use stsl_nn::loss::{Loss, SoftmaxCrossEntropy};
use stsl_nn::metrics::RunningMean;
use stsl_nn::optim::Optimizer;
use stsl_nn::{Mode, Sequential};
use stsl_parallel::{par_map_mut, ChunkPolicy};
use stsl_telemetry::{MetricId, TelemetryHub};
use stsl_tensor::Tensor;

/// Result of the server processing one activation batch.
#[derive(Debug, Clone)]
pub struct ServerStepOutput {
    /// Gradient message to return to the originating end-system.
    pub gradient: GradientMsg,
    /// Mean loss on this batch.
    pub loss: f32,
    /// Training-batch accuracy (cheap progress signal).
    pub batch_accuracy: f32,
}

/// The centralized server of Fig. 2.
///
/// It owns layers `L_{k+1}..` plus the dense head and the loss, and is the
/// only place where data from *all* end-systems meets — which is exactly
/// why the paper's scheme achieves near-centralized accuracy.
#[derive(Debug)]
pub struct CentralServer {
    model: Sequential,
    loss: SoftmaxCrossEntropy,
    opt: Box<dyn Optimizer>,
    steps: u64,
    served_per_client: Vec<u64>,
    train_loss: RunningMean,
    robust: Option<RobustAggregator>,
    last_robust: Option<RobustApply>,
}

impl CentralServer {
    /// Creates a server over the upper `model` half.
    pub fn new(model: Sequential, opt: Box<dyn Optimizer>, end_systems: usize) -> Self {
        CentralServer {
            model,
            loss: SoftmaxCrossEntropy::new(),
            opt,
            steps: 0,
            served_per_client: vec![0; end_systems],
            train_loss: RunningMean::new(),
            robust: None,
            last_robust: None,
        }
    }

    /// Enables windowed robust aggregation: per-batch gradients are
    /// buffered and combined under `policy` every `window` batches, and
    /// only the combined gradient reaches the optimizer (batches between
    /// window boundaries step nothing). `outlier_factor` scales the
    /// statistical-outlier threshold (see
    /// [`crate::aggregate::outlier_flags`]), and `refine` enables the
    /// two-pass outlier-exclusion recombine
    /// ([`RobustAggregator::refine_outliers`] — the trainer sets it when
    /// the integrity guard is on). A zero `window` is clamped to 1 and a
    /// non-finite or non-positive `outlier_factor` keeps the default.
    pub fn enable_robust_aggregation(
        &mut self,
        policy: AggregationPolicy,
        window: usize,
        outlier_factor: f32,
        refine: bool,
    ) {
        self.robust = Some(
            RobustAggregator::new(policy, window)
                .outlier_factor(outlier_factor)
                .refine_outliers(refine),
        );
    }

    /// Whether robust aggregation is active.
    pub fn robust_enabled(&self) -> bool {
        self.robust.is_some()
    }

    /// Resizes the aggregation window (no-op when robust aggregation is
    /// off). The trainer calls this as senders enter and leave
    /// quarantine so the window tracks the active cohort — a window
    /// waiting on updates from exiled senders would slow the optimizer
    /// cadence for everyone else. A zero `window` is clamped to 1.
    pub fn set_robust_window(&mut self, window: usize) {
        if let Some(agg) = self.robust.as_mut() {
            agg.set_window(window);
        }
    }

    /// The current aggregation window size, if robust aggregation is on.
    pub fn robust_window(&self) -> Option<usize> {
        self.robust.as_ref().map(|agg| agg.window())
    }

    /// Takes the outcome of the most recent robust window apply, if one
    /// happened since the last call (the trainer polls this after each
    /// served batch to drive counters, telemetry and quarantine).
    pub fn take_robust_apply(&mut self) -> Option<RobustApply> {
        self.last_robust.take()
    }

    /// Discards any buffered not-yet-combined updates (called on
    /// watchdog rollback so stale gradients never cross the restore
    /// boundary).
    pub fn clear_robust_buffer(&mut self) {
        if let Some(agg) = self.robust.as_mut() {
            agg.clear();
        }
        self.last_robust = None;
    }

    fn flat_grads(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        self.model
            .visit_params(&mut |p| flat.extend_from_slice(p.grad.as_slice()));
        flat
    }

    fn write_grads(&mut self, combined: &[f32]) {
        let mut offset = 0usize;
        self.model.visit_params(&mut |p| {
            let dst = p.grad.as_mut_slice();
            dst.copy_from_slice(&combined[offset..offset + dst.len()]);
            offset += dst.len();
        });
        debug_assert_eq!(offset, combined.len(), "combined gradient length drift");
    }

    /// Total batches processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Batches processed per originating end-system — the contribution
    /// histogram the scheduling experiments analyze for bias.
    pub fn served_per_client(&self) -> &[u64] {
        &self.served_per_client
    }

    /// Running mean of training losses since construction.
    pub fn mean_train_loss(&self) -> Option<f32> {
        self.train_loss.mean()
    }

    /// Processes one activation batch: forward through the upper layers,
    /// loss, backward, optimizer step, and the cut-layer gradient to send
    /// back.
    ///
    /// With robust aggregation enabled
    /// ([`CentralServer::enable_robust_aggregation`]) the per-batch
    /// gradient is buffered instead of applied; the optimizer steps only
    /// when a full window is combined. The cut-layer gradient returned to
    /// the sender is unchanged either way.
    ///
    /// # Panics
    ///
    /// Panics if the message's client id is out of range or shapes are
    /// inconsistent with the model.
    pub fn process(&mut self, msg: &ActivationMsg) -> ServerStepOutput {
        assert!(
            msg.from.0 < self.served_per_client.len(),
            "unknown end-system {}",
            msg.from
        );
        self.model.zero_grads();
        let logits = self.model.forward(&msg.activations, Mode::Train);
        let out = self.loss.forward(&logits, &msg.targets);
        let cut_grad = self.model.backward(&out.grad);
        if let Some(mut agg) = self.robust.take() {
            let flat = self.flat_grads();
            if let Some(apply) = agg.push(msg.from.0, flat) {
                self.write_grads(&apply.combined);
                self.model.step(self.opt.as_mut());
                self.last_robust = Some(apply);
            }
            self.robust = Some(agg);
        } else {
            self.model.step(self.opt.as_mut());
        }
        self.steps += 1;
        self.served_per_client[msg.from.0] += 1;
        self.train_loss.push(out.value);
        let preds = logits.argmax_rows();
        let hits = preds
            .iter()
            .zip(&msg.targets)
            .filter(|(p, t)| p == t)
            .count();
        ServerStepOutput {
            gradient: GradientMsg {
                to: msg.from,
                batch_id: msg.batch_id,
                grad: cut_grad,
            },
            loss: out.value,
            batch_accuracy: hits as f32 / msg.targets.len().max(1) as f32,
        }
    }

    /// Like [`CentralServer::process`], but with ingress validation: the
    /// incoming activations must be finite and within the guard's RMS
    /// bound *before* they touch the model or optimizer.
    ///
    /// # Errors
    ///
    /// Returns the [`Anomaly`] without mutating any server state — no
    /// optimizer step, no counters, no loss history.
    pub fn process_guarded(
        &mut self,
        msg: &ActivationMsg,
        guard: &GuardConfig,
    ) -> Result<ServerStepOutput, Anomaly> {
        validate_update(&msg.activations, guard.max_activation_rms)?;
        Ok(self.process(msg))
    }

    /// Ingress path with optional guard and telemetry: validates when a
    /// guard is given, then processes and records the batch's service
    /// time as [`MetricId::ServiceTime`] for the originating end-system.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::process_guarded`]: rejected updates mutate no
    /// server state and record no service time.
    pub fn process_observed(
        &mut self,
        msg: &ActivationMsg,
        guard: Option<&GuardConfig>,
        telemetry: Option<&mut TelemetryHub>,
        service_us: u64,
    ) -> Result<ServerStepOutput, Anomaly> {
        if let Some(g) = guard {
            validate_update(&msg.activations, g.max_activation_rms)?;
        }
        let out = self.process(msg);
        if let Some(hub) = telemetry {
            hub.record(MetricId::ServiceTime, msg.from.0 as u64, service_us);
        }
        Ok(out)
    }

    /// Current learning rate of the server optimizer.
    pub fn learning_rate(&self) -> f32 {
        self.opt.learning_rate()
    }

    /// Scales the server optimizer's learning rate (the watchdog's
    /// post-rollback cooldown).
    pub fn scale_learning_rate(&mut self, factor: f32) {
        let lr = self.opt.learning_rate();
        self.opt.set_learning_rate(lr * factor);
    }

    /// Inference through the upper layers only (activations already
    /// encoded by some end-system).
    pub fn infer(&self, activations: &Tensor) -> Tensor {
        self.model.infer(activations)
    }

    /// Evaluates accuracy on `test` using `encode` to run an end-system's
    /// private encoder, in batches of `batch_size`.
    pub fn evaluate_with_encoder(
        &self,
        test: &ImageDataset,
        batch_size: usize,
        encode: impl FnMut(&Tensor) -> Tensor,
    ) -> f32 {
        accuracy(&self.model, test, batch_size, encode)
    }

    /// Test accuracy of every end-system's encoder followed by the upper
    /// layers, in `encoders` order: bitwise the per-encoder
    /// [`CentralServer::evaluate_with_encoder`] loop.
    ///
    /// Encoders are independent, so they fan out across threads, each
    /// evaluation at a budget of one thread; with a single block the
    /// caller's thread keeps the whole budget for the kernels inside.
    pub fn evaluate_encoders(
        &self,
        test: &ImageDataset,
        batch_size: usize,
        encoders: &mut [EndSystem],
    ) -> Vec<f32> {
        let model = &self.model;
        par_map_mut(encoders, ChunkPolicy::min_chunk(1), |_, e| {
            accuracy(model, test, batch_size, |x| e.encode(x))
        })
    }

    /// The upper model (for checkpointing in experiments).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }
}

/// Accuracy of `encode` followed by `model` on `test`, in batches of
/// `batch_size`. Takes the upper model alone, not the server, so several
/// threads can share it while each runs its own encoder.
fn accuracy(
    model: &Sequential,
    test: &ImageDataset,
    batch_size: usize,
    mut encode: impl FnMut(&Tensor) -> Tensor,
) -> f32 {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut start = 0;
    while start < test.len() {
        let end = (start + batch_size).min(test.len());
        let indices: Vec<usize> = (start..end).collect();
        let (images, targets) = test.batch(&indices);
        let logits = model.infer(&encode(&images));
        let preds = logits.argmax_rows();
        hits += preds.iter().zip(&targets).filter(|(p, t)| p == t).count();
        total += targets.len();
        start = end;
    }
    hits as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CnnArch, CutPoint};
    use crate::protocol::BatchId;
    use stsl_data::SyntheticCifar;
    use stsl_nn::optim::Sgd;
    use stsl_simnet::EndSystemId;
    use stsl_tensor::init::rng_from_seed;

    fn make_server(cut: usize) -> (CentralServer, CnnArch) {
        let arch = CnnArch::tiny();
        let (_, upper) = arch.build_split(CutPoint(cut), 11);
        (CentralServer::new(upper, Box::new(Sgd::new(0.05)), 2), arch)
    }

    fn activation_msg(arch: &CnnArch, cut: usize, n: usize, from: usize) -> ActivationMsg {
        let dims = arch.cut_dims(CutPoint(cut), n);
        ActivationMsg {
            from: EndSystemId(from),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::randn(dims, &mut rng_from_seed(3)),
            targets: (0..n).map(|i| i % arch.classes).collect(),
        }
    }

    #[test]
    fn process_returns_matching_gradient() {
        let (mut server, arch) = make_server(1);
        let msg = activation_msg(&arch, 1, 4, 0);
        let out = server.process(&msg);
        assert_eq!(out.gradient.grad.dims(), msg.activations.dims());
        assert_eq!(out.gradient.to, msg.from);
        assert_eq!(out.gradient.batch_id, msg.batch_id);
        assert!(out.loss > 0.0);
        assert!(server.mean_train_loss().is_some());
    }

    #[test]
    fn process_counts_per_client() {
        let (mut server, arch) = make_server(1);
        server.process(&activation_msg(&arch, 1, 2, 0));
        server.process(&activation_msg(&arch, 1, 2, 1));
        server.process(&activation_msg(&arch, 1, 2, 1));
        assert_eq!(server.served_per_client(), &[1, 2]);
        assert_eq!(server.steps(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown end-system")]
    fn process_rejects_unknown_client() {
        let (mut server, arch) = make_server(1);
        server.process(&activation_msg(&arch, 1, 2, 5));
    }

    #[test]
    fn repeated_steps_reduce_loss_on_fixed_batch() {
        let (mut server, arch) = make_server(0);
        let data = SyntheticCifar::new(1).generate_sized(16, arch.image_side);
        let (images, targets) = data.batch(&(0..16).collect::<Vec<_>>());
        let msg = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: images,
            targets,
        };
        let first = server.process(&msg).loss;
        let mut last = first;
        for _ in 0..25 {
            last = server.process(&msg).loss;
        }
        assert!(last < first * 0.8, "loss {} -> {}", first, last);
    }

    #[test]
    fn guarded_process_rejects_poison_without_state_change() {
        let (mut server, arch) = make_server(1);
        let guard = GuardConfig::default();
        let mut msg = activation_msg(&arch, 1, 4, 0);
        let weights_before = server.model_mut().state_dict();

        // NaN poison: rejected, nothing moves.
        msg.activations.as_mut_slice()[3] = f32::NAN;
        assert!(matches!(
            server.process_guarded(&msg, &guard),
            Err(crate::guard::Anomaly::NonFinite)
        ));
        assert_eq!(server.steps(), 0);
        assert_eq!(server.mean_train_loss(), None);
        assert_eq!(server.model_mut().state_dict(), weights_before);

        // Norm explosion: rejected.
        let mut huge = activation_msg(&arch, 1, 4, 0);
        huge.activations.map_inplace(|_| 1e6);
        assert!(matches!(
            server.process_guarded(&huge, &guard),
            Err(crate::guard::Anomaly::NormExplosion { .. })
        ));
        assert_eq!(server.steps(), 0);

        // A healthy batch flows through identically to process().
        let clean = activation_msg(&arch, 1, 4, 0);
        let out = server.process_guarded(&clean, &guard).unwrap();
        assert_eq!(out.gradient.grad.dims(), clean.activations.dims());
        assert_eq!(server.steps(), 1);
    }

    #[test]
    fn observed_process_records_service_time_only_on_success() {
        let (mut server, arch) = make_server(1);
        let guard = GuardConfig::default();
        let mut hub = TelemetryHub::new(8);

        let mut poison = activation_msg(&arch, 1, 4, 0);
        poison.activations.as_mut_slice()[0] = f32::NAN;
        assert!(server
            .process_observed(&poison, Some(&guard), Some(&mut hub), 1_000)
            .is_err());
        assert!(hub.registry().histogram(MetricId::ServiceTime, 0).is_none());

        let clean = activation_msg(&arch, 1, 4, 0);
        let out = server
            .process_observed(&clean, Some(&guard), Some(&mut hub), 1_000)
            .unwrap();
        assert_eq!(out.gradient.to, clean.from);
        let h = hub.registry().histogram(MetricId::ServiceTime, 0).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(1_000));
    }

    #[test]
    fn learning_rate_cooldown_scales() {
        let (mut server, _) = make_server(1);
        assert_eq!(server.learning_rate(), 0.05);
        server.scale_learning_rate(0.5);
        assert!((server.learning_rate() - 0.025).abs() < 1e-9);
    }

    #[test]
    fn evaluate_encoders_matches_the_serial_loop_at_every_thread_count() {
        let cut = 1;
        let (server, arch) = make_server(cut);
        let test = SyntheticCifar::new(2).generate_sized(20, arch.image_side);
        // Fewer encoders than threads (2 at 4) and more (8 at 2 and 4).
        for count in [2usize, 8] {
            let mut encoders: Vec<EndSystem> = (0..count)
                .map(|i| {
                    let (lower, _) = arch.build_split(CutPoint(cut), 100 + i as u64);
                    let shard = SyntheticCifar::new(i as u64).generate_sized(4, arch.image_side);
                    EndSystem::new(
                        EndSystemId(i),
                        lower,
                        shard,
                        4,
                        Box::new(Sgd::new(0.05)),
                        false,
                        i as u64,
                    )
                })
                .collect();
            let serial: Vec<u32> = stsl_parallel::with_threads(1, || {
                encoders
                    .iter_mut()
                    .map(|e| server.evaluate_with_encoder(&test, 8, |x| e.encode(x)))
                    .map(f32::to_bits)
                    .collect()
            });
            for threads in [1usize, 2, 4] {
                let fanned: Vec<u32> = stsl_parallel::with_threads(threads, || {
                    server.evaluate_encoders(&test, 8, &mut encoders)
                })
                .into_iter()
                .map(f32::to_bits)
                .collect();
                assert_eq!(fanned, serial, "{count} encoders at {threads} threads");
            }
        }
    }

    #[test]
    fn evaluate_with_identity_encoder() {
        let (server, arch) = make_server(0);
        let test = SyntheticCifar::new(2).generate_sized(20, arch.image_side);
        let acc = server.evaluate_with_encoder(&test, 8, |x| x.clone());
        assert!((0.0..=1.0).contains(&acc));
    }
}
