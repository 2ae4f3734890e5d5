//! The asynchronous, network-simulated spatio-temporal trainer.
//!
//! Where [`crate::SpatioTemporalTrainer`] idealizes the network away, this
//! trainer runs the same protocol over a [`stsl_simnet`] star topology in
//! simulated time: activations and gradients take real (sampled) transfer
//! times, the server has a finite per-batch service time, and arrivals
//! wait in an [`crate::ArrivalQueue`] governed by a
//! [`crate::SchedulingPolicy`]. This is the machinery behind experiment E4
//! (queueing/staleness/scheduling) and the latency half of E5.
//!
//! # Fault tolerance
//!
//! The trainer survives a [`FaultPlan`] of scheduled fault episodes (link
//! outages, loss surges, latency spikes, client crashes, server stalls):
//!
//! * **Retransmission** — a lost activation or gradient message is resent
//!   under a [`RetryPolicy`] (exponential backoff + jitter); only when the
//!   retry budget is exhausted is the batch abandoned and counted lost.
//! * **Liveness tracking** — the server keeps last-seen bookkeeping per
//!   end-system ([`LivenessTracker`]), declares silent ones dead, and
//!   handles their rejoin; the epoch keeps progressing with the survivors
//!   (graceful quorum degradation).
//! * **Crash / recover** — a crashed end-system loses its outstanding
//!   batch and its in-flight messages; on recovery it restores its private
//!   layers from the last auto-checkpoint (if any) and resumes from its
//!   persisted data-loader position.
//! * **Auto-checkpointing** — with
//!   [`AsyncSplitTrainer::with_auto_checkpoint`], the full deployment
//!   state is snapshotted every interval of simulated time into a
//!   [`CheckpointRing`]; the newest snapshot drives crash recovery and is
//!   available afterwards via [`AsyncSplitTrainer::last_checkpoint`].
//! * **Data-plane integrity** — with
//!   [`AsyncSplitTrainer::with_integrity_guard`], corrupted frames are
//!   rejected at the receiving edge (the wire format's CRC), incoming
//!   activations are validated before they touch the shared model,
//!   repeat offenders are quarantined with probationary rejoin, and a
//!   health watchdog rolls the deployment back through the checkpoint
//!   ring when training diverges anyway.

use crate::aggregate::AggregationPolicy;
use crate::checkpoint::{Checkpoint, CheckpointRing};
use crate::client::EndSystem;
use crate::config::{DeadlineConfig, OverloadConfig, SplitConfig};
use crate::guard::{tensor_rms, GuardConfig, HealthWatchdog, QuarantineStatus, QuarantineTracker};
use crate::membership::{Membership, MembershipState, QuorumLost};
use crate::protocol::{ActivationMsg, GradientMsg};
use crate::report::{AsyncReport, CommReport};
use crate::resilience::{
    BreakerConfig, BreakerDecision, CircuitBreaker, LivenessTracker, RetryPolicy,
};
use crate::scheduler::{ArrivalQueue, SchedulingPolicy, TokenBucket};
use crate::server::CentralServer;
use crate::trainer::ConfigError;
use rand::Rng;
use std::num::NonZeroUsize;
use stsl_data::{ImageDataset, Partition};
use stsl_simnet::{
    corrupt_payload, AttackSpec, EndSystemId, EventQueue, FaultPlan, SimDuration, SimTime,
    StarTopology, TraceKind, TraceLog, TraceTally,
};
use stsl_telemetry::{JournalKind, MetricId, TelemetryHub};
use stsl_tensor::init::{derive_seed, rng_from_seed};
use stsl_tensor::Tensor;

/// Timing knobs of the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Time an end-system needs to forward one batch through its private
    /// layers (and to apply a returned gradient).
    pub client_batch: SimDuration,
    /// Time the server needs to process one batch (forward + backward +
    /// step).
    pub server_batch: SimDuration,
    /// Legacy loss-recovery knob: the default [`RetryPolicy`] is derived
    /// from it (see [`RetryPolicy::from_timeout`]). Override with
    /// [`AsyncSplitTrainer::with_retry_policy`] for full control.
    pub retry_timeout: SimDuration,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            client_batch: SimDuration::from_millis(5),
            server_batch: SimDuration::from_millis(3),
            retry_timeout: SimDuration::from_millis(500),
        }
    }
}

/// One message on an end-system's WAN link: smashed activations up to
/// the server, or the cut-layer gradient back down. Both directions share
/// one send, retry and garble path; the frame supplies what differs.
#[derive(Debug)]
enum Frame {
    Up(ActivationMsg),
    Down(GradientMsg),
}

impl Frame {
    /// The end-system at the far end of the link.
    fn peer(&self) -> EndSystemId {
        match self {
            Frame::Up(m) => m.from,
            Frame::Down(m) => m.to,
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Frame::Up(m) => m.encoded_len(),
            Frame::Down(m) => m.encoded_len(),
        }
    }

    fn encode(&self) -> Box<[u8]> {
        match self {
            Frame::Up(m) => m.encode(),
            Frame::Down(m) => m.encode(),
        }
    }

    /// The `(bytes, messages)` send counters of the frame's direction.
    fn comm<'c>(&self, comm: &'c mut CommReport) -> (&'c mut u64, &'c mut u64) {
        match self {
            Frame::Up(_) => (&mut comm.uplink_bytes, &mut comm.uplink_messages),
            Frame::Down(_) => (&mut comm.downlink_bytes, &mut comm.downlink_messages),
        }
    }

    fn latency_metric(&self) -> MetricId {
        match self {
            Frame::Up(_) => MetricId::UplinkLatency,
            Frame::Down(_) => MetricId::DownlinkLatency,
        }
    }

    /// Decodes `wire`, a garbled copy of this frame, at the receiving
    /// edge. A guarded receiver verifies the CRC, which catches the damage
    /// barring an astronomically unlikely collision. The unguarded
    /// receiver accepts any frame that still parses with the right
    /// sender, batch, shapes and label range (`classes`), since it cannot
    /// tell such a frame apart from a healthy one: silent poison. `None`
    /// means the receiver rejected the frame.
    fn receive(&self, wire: &[u8], guarded: bool, classes: usize) -> Option<Frame> {
        match self {
            Frame::Up(_) if guarded => ActivationMsg::decode(wire).ok().map(Frame::Up),
            Frame::Down(_) if guarded => GradientMsg::decode(wire).ok().map(Frame::Down),
            Frame::Up(sent) => {
                let (m, _crc_ok) = ActivationMsg::decode_lenient(wire).ok()?;
                (m.from == sent.from
                    && m.batch_id == sent.batch_id
                    && m.activations.dims() == sent.activations.dims()
                    && m.targets.len() == sent.targets.len()
                    && m.targets.iter().all(|&c| c < classes))
                .then_some(Frame::Up(m))
            }
            Frame::Down(sent) => {
                let (m, _crc_ok) = GradientMsg::decode_lenient(wire).ok()?;
                (m.to == sent.to
                    && m.batch_id == sent.batch_id
                    && m.grad.dims() == sent.grad.dims())
                .then_some(Frame::Down(m))
            }
        }
    }
}

#[derive(Debug)]
enum Event {
    /// A frame reached its receiver.
    Deliver(Frame),
    /// The server finished a batch (or a stall ended) and can pick the
    /// next queued one.
    ServerFree,
    /// A lost frame is retransmitted. `failures` counts the send attempts
    /// that have already failed.
    Retry { frame: Frame, failures: u32 },
    /// A frame arrived garbled and was detected at the receiving edge;
    /// `frame` is the original for retransmission.
    Corrupt { frame: Frame, failures: u32 },
    /// A client's outstanding batch is lost for good; abandon it and move
    /// on to the next one.
    BatchAbandon(EndSystemId),
    /// A scheduled fault crashes the end-system.
    ClientCrash(EndSystemId),
    /// A crashed end-system comes back up.
    ClientRecover(EndSystemId),
    /// Periodic auto-checkpoint.
    CheckpointTick,
    /// Periodic telemetry snapshot.
    TelemetrySnapshot,
    /// A scheduled joiner is admitted to the fleet mid-training.
    MemberJoin(EndSystemId),
    /// A member departs the fleet for good (until a scheduled rejoin).
    MemberLeave(EndSystemId),
    /// A departed member re-admits and resyncs from its last acked batch.
    MemberRejoin(EndSystemId),
    /// Per-round deadline: check round progress and, with enough quorum,
    /// abandon the stragglers' outstanding batches.
    RoundDeadline,
    /// A breaker-deferred send is re-attempted when its link half-opens.
    /// Unlike [`Event::Retry`] nothing was lost, so it is not counted as a
    /// retransmission.
    Probe { frame: Frame, failures: u32 },
}

/// Asynchronous trainer over a simulated network.
#[derive(Debug)]
pub struct AsyncSplitTrainer {
    config: SplitConfig,
    topology: StarTopology,
    policy: SchedulingPolicy,
    compute: ComputeModel,
    server: CentralServer,
    clients: Vec<EndSystem>,
    queue: ArrivalQueue,
    events: EventQueue<Event>,
    link_rngs: Vec<rand::rngs::StdRng>,
    retry_rng: rand::rngs::StdRng,
    server_busy_until: SimTime,
    comm: CommReport,
    client_epoch: Vec<u64>,
    trace: Option<TraceLog>,
    /// Per-run count of every emitted [`TraceKind`]; the report's event
    /// counters read it (see [`AsyncSplitTrainer::emit`]).
    tally: TraceTally,
    // Fault tolerance.
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    liveness_timeout: SimDuration,
    liveness: LivenessTracker,
    checkpoint_every: Option<SimDuration>,
    ring: CheckpointRing,
    crashed: Vec<bool>,
    down_since: Vec<Option<SimTime>>,
    downtime_us: Vec<u64>,
    stall_wake: Option<SimTime>,
    batches_lost_per_client: Vec<u64>,
    // Data-plane integrity.
    guard: Option<GuardConfig>,
    quarantine: QuarantineTracker,
    watchdog: HealthWatchdog,
    // Observability.
    telemetry: Option<TelemetryHub>,
    telemetry_every: Option<SimDuration>,
    // Dynamic membership & overload control.
    membership: Membership,
    overload: Option<OverloadConfig>,
    breaker: CircuitBreaker,
    buckets: Vec<TokenBucket>,
    deadlines: Option<DeadlineConfig>,
    deadline_snapshot: Vec<u64>,
    quorum_lost: Option<QuorumLost>,
    // Byzantine resilience.
    attack_rngs: Vec<rand::rngs::StdRng>,
    attack_steps: Vec<u64>,
    updates_trimmed: u64,
    /// The window size [`AsyncSplitTrainer::with_robust_aggregation`]
    /// configured; the live window shrinks below it while senders sit in
    /// quarantine (0 = robust aggregation off).
    robust_window_base: usize,
    /// Periodic housekeeping events (checkpoint/snapshot/deadline ticks)
    /// currently sitting in the queue. Ticks reschedule only while the
    /// queue holds a *non-tick* event; otherwise two coexisting tick
    /// streams would keep each other — and the event loop — alive forever.
    queued_ticks: usize,
}

impl AsyncSplitTrainer {
    /// Builds the trainer.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or the
    /// topology size disagrees with `config.end_systems`.
    pub fn new(
        config: SplitConfig,
        train: &ImageDataset,
        topology: StarTopology,
        policy: SchedulingPolicy,
        compute: ComputeModel,
    ) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError)?;
        if topology.len() != config.end_systems {
            return Err(ConfigError(format!(
                "topology has {} links but config has {} end-systems",
                topology.len(),
                config.end_systems
            )));
        }
        if train.len() < config.end_systems {
            return Err(ConfigError("dataset smaller than client count".into()));
        }
        let partition: Partition = config.partition.into();
        let shards = partition.split(train, config.end_systems, derive_seed(config.seed, 7));
        let (_, server_model) = config.arch.build_split(config.cut, config.seed);
        let server = CentralServer::new(server_model, config.build_optimizer(), config.end_systems);
        let clients: Vec<EndSystem> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let client_seed = derive_seed(config.seed, 1000 + i as u64);
                let (client_model, _) = config.arch.build_split(config.cut, client_seed);
                EndSystem::new(
                    EndSystemId(i),
                    client_model,
                    shard,
                    config.batch_size,
                    config.build_optimizer(),
                    config.augment,
                    client_seed,
                )
                .with_smash_noise(config.smash_noise)
            })
            .collect();
        let link_rngs = (0..config.end_systems)
            .map(|i| rng_from_seed(derive_seed(config.seed, 5000 + i as u64)))
            .collect();
        let retry_rng = rng_from_seed(derive_seed(config.seed, 6000));
        let queue = ArrivalQueue::new(policy, config.end_systems);
        let n = config.end_systems;
        let liveness_timeout = SimDuration::from_millis(2_000);
        Ok(AsyncSplitTrainer {
            config,
            topology,
            policy,
            compute,
            server,
            clients,
            queue,
            events: EventQueue::new(),
            link_rngs,
            retry_rng,
            server_busy_until: SimTime::ZERO,
            comm: CommReport::default(),
            client_epoch: Vec::new(),
            trace: None,
            tally: TraceTally::default(),
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::from_timeout(compute.retry_timeout),
            liveness_timeout,
            liveness: LivenessTracker::new(n, liveness_timeout),
            checkpoint_every: None,
            ring: CheckpointRing::new(NonZeroUsize::MIN),
            crashed: vec![false; n],
            down_since: vec![None; n],
            downtime_us: vec![0; n],
            stall_wake: None,
            batches_lost_per_client: vec![0; n],
            guard: None,
            quarantine: QuarantineTracker::new(n, &GuardConfig::default()),
            watchdog: HealthWatchdog::new(&GuardConfig::default()),
            telemetry: None,
            telemetry_every: None,
            membership: Membership::new(n),
            overload: None,
            breaker: CircuitBreaker::new(n, BreakerConfig::default()),
            buckets: Vec::new(),
            deadlines: None,
            deadline_snapshot: vec![0; n],
            quorum_lost: None,
            attack_rngs: Vec::new(),
            attack_steps: vec![0; n],
            updates_trimmed: 0,
            robust_window_base: 0,
            queued_ticks: 0,
        })
    }

    /// Injects a schedule of faults (builder style). Crash windows are
    /// turned into crash/recover events when the run starts; link faults
    /// are consulted on every transfer.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the retransmission policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables periodic auto-checkpointing every `every` of simulated time
    /// (builder style). The latest snapshot drives crash recovery.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_auto_checkpoint(mut self, every: SimDuration) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "checkpoint interval must be positive"
        );
        self.checkpoint_every = Some(every);
        self
    }

    /// Overrides how long the server tolerates silence from an end-system
    /// before declaring it dead (builder style; default 2 s).
    pub fn with_liveness_timeout(mut self, timeout: SimDuration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Enables the data-plane integrity guard (builder style): corrupted
    /// frames are rejected by CRC and retransmitted, activations are
    /// validated at ingress, repeat offenders are quarantined, and the
    /// health watchdog rolls back through the checkpoint ring on
    /// divergence. Without the guard, corrupted frames that still parse
    /// are silently accepted — the poison the guard exists to stop.
    pub fn with_integrity_guard(mut self, guard: GuardConfig) -> Self {
        self.quarantine = QuarantineTracker::new(self.clients.len(), &guard);
        self.watchdog = HealthWatchdog::new(&guard);
        self.ring = CheckpointRing::new(guard.ring_capacity);
        self.guard = Some(guard);
        self
    }

    /// Enables windowed Byzantine-robust aggregation on the server
    /// (builder style): per-batch gradients are buffered and combined
    /// under `policy` every `window` batches before they reach the
    /// optimizer. With the integrity guard also enabled, the stack turns
    /// attack-aware: window members flagged as statistical outliers are
    /// excluded from the combine (two-pass refine) and accrue anomaly
    /// score toward quarantine ([`GuardConfig::outlier_factor`] sets the
    /// flagging threshold; apply
    /// [`AsyncSplitTrainer::with_integrity_guard`] *before* this builder
    /// so both are picked up).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_robust_aggregation(mut self, policy: AggregationPolicy, window: usize) -> Self {
        let factor = self
            .guard
            .map(|g| g.outlier_factor)
            .unwrap_or(GuardConfig::default().outlier_factor);
        self.server
            .enable_robust_aggregation(policy, window, factor, self.guard.is_some());
        self.robust_window_base = window;
        self
    }

    /// Re-derives the live aggregation window from the configured base
    /// minus the senders currently in quarantine, so exiling an attacker
    /// does not leave the window waiting on updates that can never
    /// arrive (which would slow the optimizer cadence for the honest
    /// cohort). Called on every quarantine entry and release.
    fn resize_robust_window(&mut self, t: SimTime) {
        if self.robust_window_base == 0 {
            return;
        }
        let quarantined = (0..self.clients.len())
            .filter(|&i| self.quarantine.in_quarantine(i, t))
            .count();
        let window = self.robust_window_base.saturating_sub(quarantined).max(1);
        self.server.set_robust_window(window);
    }

    /// Enables telemetry (builder style): uplink/downlink latency, queue
    /// depth, gradient staleness and service-time histograms per
    /// end-system, a bounded event journal of `journal_capacity` events,
    /// and a [`Snapshot`](stsl_telemetry::Snapshot) of every metric each
    /// `every` of simulated time (plus one final snapshot when the run
    /// drains).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_telemetry(mut self, every: SimDuration, journal_capacity: usize) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "telemetry snapshot interval must be positive"
        );
        self.telemetry = Some(TelemetryHub::new(journal_capacity));
        self.telemetry_every = Some(every);
        self
    }

    /// The telemetry hub, if [`AsyncSplitTrainer::with_telemetry`] was
    /// used.
    pub fn telemetry(&self) -> Option<&TelemetryHub> {
        self.telemetry.as_ref()
    }

    /// Enables server-side overload protection (builder style): the
    /// ingress queue is bounded (arrivals past the cap shed the oldest
    /// pending batch), each end-system is admission-limited by a token
    /// bucket, and every link gets a circuit breaker that trips after
    /// repeated delivery failures and half-opens on an exponential
    /// backoff schedule.
    pub fn with_overload_control(mut self, cfg: OverloadConfig) -> Self {
        let n = self.clients.len();
        self.queue = ArrivalQueue::new(self.policy, n).with_capacity(cfg.queue_capacity);
        self.breaker = CircuitBreaker::new(
            n,
            BreakerConfig {
                threshold: cfg.breaker_threshold,
                base_open: SimDuration::from_millis(cfg.breaker_base_open_ms),
                max_open: SimDuration::from_millis(cfg.breaker_max_open_ms),
            },
        );
        self.buckets = (0..n)
            .map(|_| TokenBucket::new(cfg.bucket_rate, cfg.bucket_burst))
            .collect();
        self.overload = Some(cfg);
        self
    }

    /// Enables straggler mitigation (builder style): at every round
    /// deadline, if at least `min_quorum_frac` of the current members
    /// made progress this round, the stragglers' outstanding batches are
    /// abandoned so the round's updates apply without waiting for them.
    ///
    /// # Panics
    ///
    /// Panics if `round_ms` is zero or `min_quorum_frac` is outside
    /// `(0, 1]`.
    pub fn with_round_deadlines(mut self, cfg: DeadlineConfig) -> Self {
        assert!(cfg.round_ms > 0, "round length must be positive");
        assert!(
            cfg.min_quorum_frac > 0.0 && cfg.min_quorum_frac <= 1.0,
            "min_quorum_frac must be in (0, 1]"
        );
        self.deadlines = Some(cfg);
        self
    }

    /// The membership registry: per-client lifecycle state plus the
    /// join/depart/rejoin accounting.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Downsampled ingress-queue depth series (one sample per push/pop),
    /// for offline analysis of overload behavior.
    pub fn queue_depth_samples(&self) -> &[usize] {
        self.queue.depth_samples()
    }

    /// The most recent auto-checkpoint, if any was taken.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.ring.latest()
    }

    /// The ring of recent checkpoints (holds one without the integrity
    /// guard, [`GuardConfig::ring_capacity`] with it).
    pub fn checkpoint_ring(&self) -> &CheckpointRing {
        &self.ring
    }

    /// The end-systems — for inspection and for fault injection (e.g.
    /// poisoning a client's private model to exercise the ingress guard).
    pub fn clients_mut(&mut self) -> &mut [EndSystem] {
        &mut self.clients
    }

    /// Enables event tracing; every arrival, service start, gradient
    /// delivery, drop, retransmission, crash, recovery and checkpoint is
    /// recorded for later inspection via [`AsyncSplitTrainer::trace`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::new());
    }

    /// The event trace, if [`AsyncSplitTrainer::enable_trace`] was called.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// The id used for server-scoped trace events (one past the last
    /// end-system).
    fn server_trace_id(&self) -> EndSystemId {
        EndSystemId(self.clients.len())
    }

    /// Schedules a periodic housekeeping tick, keeping the tick census in
    /// step with the queue.
    fn schedule_tick(&mut self, at: SimTime, ev: Event) {
        self.queued_ticks += 1;
        self.events.schedule(at, ev);
    }

    /// Whether the queue holds any event that can make training progress
    /// (i.e. anything besides the periodic ticks). Ticks reschedule only
    /// while this holds, so a drained simulation terminates even with
    /// several tick streams active.
    fn has_pending_work(&self) -> bool {
        self.events.len() > self.queued_ticks
    }

    /// The one event seam. Records `kind` in the trace (if enabled),
    /// counts it in the per-run tally every report counter reads, and
    /// journals it into the telemetry hub (if attached) when it has a
    /// journal counterpart. A journal eviction is itself an accountable
    /// loss and is emitted as [`TraceKind::JournalDrop`].
    fn emit(&mut self, at: SimTime, kind: TraceKind, id: EndSystemId) {
        if let Some(log) = &mut self.trace {
            log.record(at, kind, id);
        }
        self.tally.bump(kind);
        if let (Some(hub), Some(journal)) = (&mut self.telemetry, journal_kind(kind)) {
            if hub.journal(at.as_micros(), journal, id.0 as u64) {
                self.emit(at, TraceKind::JournalDrop, id);
            }
        }
    }

    /// Emits `kind` for `id`'s outstanding batch, counts the batch as lost
    /// and schedules its abandonment at `at`.
    fn lose_batch(&mut self, at: SimTime, kind: TraceKind, id: EndSystemId) {
        self.emit(at, kind, id);
        self.batches_lost_per_client[id.0] += 1;
        self.events.schedule(at, Event::BatchAbandon(id));
    }

    /// Emits one telemetry snapshot at `t` (traced as
    /// [`TraceKind::SnapshotEmit`] and journaled).
    fn emit_snapshot(&mut self, t: SimTime) {
        if self.telemetry.is_none() {
            return;
        }
        let server_id = self.server_trace_id();
        let shed = self.tally.count(TraceKind::IngressShed);
        let overload = self.overload.is_some();
        let robust = self.server.robust_enabled();
        let rejected = self.tally.count(TraceKind::RobustOutlier)
            + self.tally.count(TraceKind::AnomalyRejected)
            + self.tally.count(TraceKind::QuarantineDrop);
        if let Some(hub) = &mut self.telemetry {
            if overload {
                // Cumulative shed total sampled once per snapshot — the
                // dashboard's shed-rate series.
                hub.record(MetricId::ShedRate, server_id.0 as u64, shed);
            }
            if robust {
                // Cumulative defense-layer refusals (ingress anomalies,
                // quarantine drops, robust outliers), sampled once per
                // snapshot — the dashboard's rejected-update series.
                hub.record(MetricId::RejectedUpdateRate, server_id.0 as u64, rejected);
            }
            hub.emit_snapshot(t.as_micros());
        }
        self.emit(t, TraceKind::SnapshotEmit, server_id);
    }

    /// Runs the configured number of client epochs to completion and
    /// evaluates on `test`.
    pub fn run(&mut self, test: &ImageDataset) -> AsyncReport {
        self.run_with_budget(test, None)
    }

    /// Like [`AsyncSplitTrainer::run`], but stops the simulation once the
    /// clock passes `budget` (if given), even if clients still have
    /// batches left.
    ///
    /// Fixed-time-budget runs are how the §II "biased learning" effect is
    /// measured: under a wall-clock budget, far end-systems complete fewer
    /// batches, so per-client service counts diverge and the scheduling
    /// policy matters. (In run-to-completion mode every batch is served
    /// eventually and totals are trivially equal.)
    pub fn run_with_budget(
        &mut self,
        test: &ImageDataset,
        budget: Option<SimDuration>,
    ) -> AsyncReport {
        self.run_inner(test, budget).0
    }

    /// Like [`AsyncSplitTrainer::run`], but surfaces quorum loss as a
    /// typed error: if every member departs while training is unfinished
    /// (and no future join or rejoin is scheduled), the simulation stops
    /// immediately instead of draining dead events.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumLost`] when no active member remains and work is
    /// left.
    pub fn try_run(&mut self, test: &ImageDataset) -> Result<AsyncReport, QuorumLost> {
        self.try_run_with_budget(test, None)
    }

    /// Budgeted counterpart of [`AsyncSplitTrainer::try_run`].
    ///
    /// # Errors
    ///
    /// Returns [`QuorumLost`] when no active member remains and work is
    /// left.
    pub fn try_run_with_budget(
        &mut self,
        test: &ImageDataset,
        budget: Option<SimDuration>,
    ) -> Result<AsyncReport, QuorumLost> {
        match self.run_inner(test, budget) {
            (_, Some(lost)) => Err(lost),
            (report, None) => Ok(report),
        }
    }

    fn run_inner(
        &mut self,
        test: &ImageDataset,
        budget: Option<SimDuration>,
    ) -> (AsyncReport, Option<QuorumLost>) {
        let n = self.clients.len();
        self.client_epoch = vec![0; n];
        self.liveness = LivenessTracker::new(n, self.liveness_timeout);
        for c in &mut self.clients {
            c.begin_epoch(0);
        }
        // Pre-declared joiners (clients with a scheduled join episode)
        // start dormant: they are part of the configured fleet but sit in
        // `Joining` until their admission event fires.
        let mut membership = Membership::new(n);
        for (id, _) in self.fault_plan.join_events() {
            if id.0 < n {
                membership = membership.dormant(id.0);
            }
        }
        self.membership = membership;
        self.deadline_snapshot = vec![0; n];
        self.tally = TraceTally::default();
        self.quorum_lost = None;
        self.queued_ticks = 0;
        // Adversary streams are derived per client and consulted only
        // while an attack window is active, so attack-free plans keep
        // their exact event streams (the same discipline as corruption).
        self.attack_rngs = (0..n)
            .map(|i| rng_from_seed(derive_seed(self.config.seed, 7000 + i as u64)))
            .collect();
        self.attack_steps = vec![0; n];
        self.updates_trimmed = 0;
        self.server.clear_robust_buffer();
        if let Some(cfg) = self.overload {
            // Fresh breaker/bucket state per run keeps repeated runs of
            // one trainer seed-deterministic.
            self.breaker = CircuitBreaker::new(
                n,
                BreakerConfig {
                    threshold: cfg.breaker_threshold,
                    base_open: SimDuration::from_millis(cfg.breaker_base_open_ms),
                    max_open: SimDuration::from_millis(cfg.breaker_max_open_ms),
                },
            );
            self.buckets = (0..n)
                .map(|_| TokenBucket::new(cfg.bucket_rate, cfg.bucket_burst))
                .collect();
        }
        // Schedule every crash window from the fault plan.
        for (id, from, until) in self.fault_plan.crash_windows() {
            self.events.schedule(from, Event::ClientCrash(id));
            self.events.schedule(until, Event::ClientRecover(id));
        }
        // Schedule the churn arrivals: joins, leaves and rejoins.
        for (id, at) in self.fault_plan.join_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberJoin(id));
            }
        }
        for (id, at) in self.fault_plan.leave_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberLeave(id));
            }
        }
        for (id, at) in self.fault_plan.rejoin_events() {
            if id.0 < n {
                self.events.schedule(at, Event::MemberRejoin(id));
            }
        }
        // First round deadline one round in.
        if let Some(d) = self.deadlines {
            self.schedule_tick(
                SimTime::ZERO + SimDuration::from_millis(d.round_ms),
                Event::RoundDeadline,
            );
        }
        // First auto-checkpoint one interval in.
        if let Some(iv) = self.checkpoint_every {
            self.schedule_tick(SimTime::ZERO + iv, Event::CheckpointTick);
        }
        // First telemetry snapshot one interval in.
        if let Some(iv) = self.telemetry_every {
            self.schedule_tick(SimTime::ZERO + iv, Event::TelemetrySnapshot);
        }
        // Kick off: every client computes its first batch at t = 0. The
        // batch forwards are independent per client, so they fan out
        // across threads; the uplinks are then sent in ascending client
        // order, so the event schedule — and with it every subsequent
        // arrival, retry, and gradient — is identical to a serial kickoff
        // for any `STSL_THREADS`.
        let crashed = self.crashed.clone();
        // Dormant joiners keep their data-loader cursor untouched until
        // admission; their first batch is produced at join time.
        let dormant: Vec<bool> = (0..n)
            .map(|i| self.membership.state(i) == Some(MembershipState::Joining))
            .collect();
        let firsts: Vec<Option<ActivationMsg>> = stsl_parallel::par_map_mut(
            &mut self.clients,
            stsl_parallel::ChunkPolicy::min_chunk(1),
            |i, c| {
                if crashed[i] || dormant[i] || c.epoch_finished() {
                    None
                } else {
                    c.next_batch()
                }
            },
        );
        for (i, first) in firsts.into_iter().enumerate() {
            match first {
                Some(mut msg) => {
                    self.apply_attack(&mut msg, SimTime::ZERO);
                    self.send(Frame::Up(msg), 0, SimTime::ZERO + self.compute.client_batch)
                }
                // Degenerate cases (pre-crashed client, empty shard) take
                // the ordinary path so epoch bookkeeping stays in one
                // place. (Dormant joiners fall through its membership
                // gate untouched.)
                None => self.launch_next_batch(EndSystemId(i), SimTime::ZERO),
            }
        }
        // Drain the event loop.
        'sim: while let Some((t, event)) = self.events.pop() {
            if let Some(b) = budget {
                if t.since(SimTime::ZERO) > b {
                    break;
                }
            }
            for silent in self.liveness.sweep(t) {
                // A member that went silent is suspected, not evicted: it
                // still counts toward quorum and resumes on its next
                // uplink.
                if self.membership.state(silent.0) == Some(MembershipState::Active) {
                    let _ = self
                        .membership
                        .transition(silent.0, MembershipState::Suspect);
                    self.note_membership();
                }
            }
            match event {
                Event::Deliver(Frame::Up(msg)) => {
                    let id = msg.from;
                    if self.crashed[id.0] {
                        // The sender crashed while the message was in
                        // flight; its forward cache is gone, so the batch
                        // is useless to the server.
                        continue;
                    }
                    if !self.is_member(id.0) {
                        // The sender departed while the message was in
                        // flight; its batch is replayed if it rejoins.
                        continue;
                    }
                    if self.guard.is_some() {
                        match self.quarantine.admit(id.0, t) {
                            QuarantineStatus::Dropped => {
                                self.lose_batch(t, TraceKind::QuarantineDrop, id);
                                continue;
                            }
                            QuarantineStatus::Released => {
                                self.emit(t, TraceKind::QuarantineRelease, id);
                                self.resize_robust_window(t);
                            }
                            QuarantineStatus::Clear => {}
                        }
                    }
                    if self.liveness.observe(id, t)
                        && self.membership.state(id.0) == Some(MembershipState::Suspect)
                    {
                        // The suspect spoke up: back to full membership.
                        let _ = self.membership.transition(id.0, MembershipState::Active);
                        self.note_membership();
                    }
                    if self.overload.is_some() && !self.buckets[id.0].try_take(t) {
                        // Rate limit: the sender is over its admission
                        // budget, so the batch is refused at the ingress
                        // edge and never counts as an arrival.
                        self.lose_batch(t, TraceKind::IngressShed, id);
                        continue;
                    }
                    self.emit(t, TraceKind::Arrival, id);
                    if self.overload.is_some() {
                        let victims =
                            self.queue
                                .push_shed_observed(t, msg, self.telemetry.as_mut());
                        for victim in victims {
                            // Oldest-staleness-first shed: the longest-
                            // waiting pending batch makes room.
                            self.lose_batch(t, TraceKind::IngressShed, victim.from);
                        }
                    } else {
                        self.queue.push_observed(t, msg, self.telemetry.as_mut());
                    }
                    self.try_serve(t);
                }
                Event::ServerFree => {
                    self.try_serve(t);
                }
                Event::Deliver(Frame::Down(grad)) => {
                    let id = grad.to;
                    if self.crashed[id.0] || !self.is_member(id.0) {
                        continue; // delivered into the void
                    }
                    self.emit(t, TraceKind::GradientDelivered, id);
                    // A stale gradient (its batch was abandoned after a
                    // retry exhaustion or crash) is ignored; the client
                    // already moved on.
                    if self.clients[id.0].apply_gradient(&grad).is_ok() {
                        // The gradient application costs client compute
                        // time.
                        self.launch_next_batch(id, t + self.compute.client_batch);
                    }
                }
                Event::Retry { frame, failures } => {
                    let id = frame.peer();
                    if self.crashed[id.0] || !self.is_member(id.0) {
                        continue;
                    }
                    self.emit(t, TraceKind::Retransmit, id);
                    self.send(frame, failures, t);
                }
                Event::Probe { frame, failures } => {
                    let id = frame.peer();
                    if self.crashed[id.0] || !self.is_member(id.0) {
                        continue;
                    }
                    self.send(frame, failures, t);
                }
                Event::Corrupt { frame, failures } => {
                    let id = frame.peer();
                    if self.crashed[id.0] || !self.is_member(id.0) {
                        continue;
                    }
                    self.emit(t, TraceKind::CorruptRejected, id);
                    self.retry_or_give_up(frame, failures, t);
                }
                Event::BatchAbandon(id) => {
                    if self.crashed[id.0] || !self.is_member(id.0) {
                        continue;
                    }
                    self.clients[id.0].abandon_outstanding();
                    self.launch_next_batch(id, t);
                }
                Event::ClientCrash(id) => {
                    if self.crashed[id.0] {
                        continue; // overlapping crash windows
                    }
                    self.crashed[id.0] = true;
                    self.down_since[id.0] = Some(t);
                    self.emit(t, TraceKind::ClientCrash, id);
                    if self.clients[id.0].outstanding().is_some() {
                        self.clients[id.0].abandon_outstanding();
                        self.batches_lost_per_client[id.0] += 1;
                    }
                }
                Event::ClientRecover(id) => {
                    if !self.crashed[id.0] || self.fault_plan.client_crashed(id, t) {
                        continue; // still inside an overlapping window
                    }
                    self.crashed[id.0] = false;
                    if let Some(s) = self.down_since[id.0].take() {
                        self.downtime_us[id.0] += t.since(s).as_micros();
                    }
                    self.emit(t, TraceKind::ClientRecover, id);
                    let state = self.ring.latest().map(|c| c.client_states[id.0].clone());
                    if let Some(state) = state {
                        // Crash-recovery restore: the private layers roll
                        // back to the newest persisted snapshot.
                        self.clients[id.0].model_mut().load_state_dict(&state);
                        self.emit(t, TraceKind::CheckpointRestore, id);
                    }
                    self.launch_next_batch(id, t);
                }
                Event::CheckpointTick => {
                    self.queued_ticks = self.queued_ticks.saturating_sub(1);
                    self.take_checkpoint(t);
                    if let Some(iv) = self.checkpoint_every {
                        // Only reschedule while the simulation still has
                        // non-tick work; otherwise coexisting tick
                        // streams would keep the event loop alive forever.
                        if self.has_pending_work() {
                            self.schedule_tick(t + iv, Event::CheckpointTick);
                        }
                    }
                }
                Event::TelemetrySnapshot => {
                    self.queued_ticks = self.queued_ticks.saturating_sub(1);
                    self.emit_snapshot(t);
                    if let Some(iv) = self.telemetry_every {
                        // Same liveness discipline as CheckpointTick.
                        if self.has_pending_work() {
                            self.schedule_tick(t + iv, Event::TelemetrySnapshot);
                        }
                    }
                }
                Event::MemberJoin(id) => {
                    if self.membership.state(id.0) != Some(MembershipState::Joining)
                        || self
                            .membership
                            .transition(id.0, MembershipState::Active)
                            .is_err()
                    {
                        continue;
                    }
                    self.emit(t, TraceKind::ClientJoin, id);
                    self.note_membership();
                    self.liveness.readmit(id, t);
                    // Server-seeded warm start: clone the most-served
                    // active member's private layers from the newest
                    // checkpoint, so the joiner's lowers are compatible
                    // with the co-adapted uppers instead of dragging them
                    // back toward initialization. Without a checkpoint the
                    // joiner keeps its fresh seed-derived init.
                    let donor = self.warm_start_donor(id);
                    let state = match (donor, self.ring.latest()) {
                        (Some(d), Some(ckpt)) => Some(ckpt.client_states[d].clone()),
                        _ => None,
                    };
                    if let Some(state) = state {
                        self.clients[id.0].model_mut().load_state_dict(&state);
                        self.emit(t, TraceKind::CheckpointRestore, id);
                    }
                    self.launch_next_batch(id, t);
                }
                Event::MemberLeave(id) => {
                    if !matches!(
                        self.membership.state(id.0),
                        Some(MembershipState::Active) | Some(MembershipState::Suspect)
                    ) || self
                        .membership
                        .transition(id.0, MembershipState::Departed)
                        .is_err()
                    {
                        continue;
                    }
                    self.emit(t, TraceKind::ClientLeave, id);
                    self.note_membership();
                    self.liveness.retire(id);
                    // The un-acked batch is rewound, not abandoned: if the
                    // client rejoins, it resumes from its last acked batch
                    // and replays this one.
                    self.clients[id.0].rewind_outstanding();
                    if let Some(lost) = self.quorum_check(t) {
                        self.quorum_lost = Some(lost);
                        break 'sim;
                    }
                }
                Event::MemberRejoin(id) => {
                    if self.membership.state(id.0) != Some(MembershipState::Departed)
                        || self
                            .membership
                            .transition(id.0, MembershipState::Rejoining)
                            .is_err()
                    {
                        continue;
                    }
                    // Rejoining -> Active is immediate in simulation; the
                    // two-step keeps the lifecycle auditable.
                    let _ = self.membership.transition(id.0, MembershipState::Active);
                    self.emit(t, TraceKind::ClientRejoin, id);
                    self.note_membership();
                    self.liveness.readmit(id, t);
                    // Resync: the cursor was rewound at departure, so the
                    // next launch replays the exact batch whose gradient
                    // never arrived.
                    self.launch_next_batch(id, t);
                }
                Event::RoundDeadline => {
                    self.queued_ticks = self.queued_ticks.saturating_sub(1);
                    let Some(d) = self.deadlines else { continue };
                    if let Some(lost) = self.quorum_check(t) {
                        self.quorum_lost = Some(lost);
                        break 'sim;
                    }
                    let members: Vec<usize> = (0..self.clients.len())
                        .filter(|&i| self.is_member(i))
                        .collect();
                    let served: Vec<u64> = self.queue.served_per_client().to_vec();
                    let progressed = members
                        .iter()
                        .filter(|&&i| served[i] > self.deadline_snapshot[i])
                        .count();
                    let needed =
                        ((members.len() as f64) * d.min_quorum_frac).ceil().max(1.0) as usize;
                    let stragglers: Vec<EndSystemId> = members
                        .iter()
                        .filter(|&&i| {
                            served[i] <= self.deadline_snapshot[i]
                                && self.clients[i].outstanding().is_some()
                                && !self.crashed[i]
                        })
                        .map(|&i| EndSystemId(i))
                        .collect();
                    if progressed >= needed && !stragglers.is_empty() {
                        // Partial-quorum apply: enough of the fleet made
                        // progress this round, so the stragglers'
                        // outstanding batches are abandoned instead of
                        // holding everyone back.
                        let server_id = self.server_trace_id();
                        self.emit(t, TraceKind::DeadlinePartialApply, server_id);
                        for id in stragglers {
                            self.batches_lost_per_client[id.0] += 1;
                            self.events.schedule(t, Event::BatchAbandon(id));
                        }
                    }
                    self.deadline_snapshot.copy_from_slice(&served);
                    // Same liveness discipline as CheckpointTick.
                    if self.has_pending_work() {
                        self.schedule_tick(
                            t + SimDuration::from_millis(d.round_ms),
                            Event::RoundDeadline,
                        );
                    }
                }
            }
        }
        let end = self.events.now();
        // A final snapshot so short runs (and the tail of long ones) are
        // always covered.
        self.emit_snapshot(end);
        // Clients still down when the simulation ends accrue downtime to
        // the end of the run.
        for i in 0..self.clients.len() {
            if let Some(s) = self.down_since[i].take() {
                self.downtime_us[i] += end.since(s).as_micros();
            }
        }
        let sim_seconds = end.as_secs_f64();
        let batch = self.config.batch_size.max(32);
        let per = self
            .server
            .evaluate_encoders(test, batch, &mut self.clients);
        let final_accuracy = stsl_tensor::mean_f32(&per);
        // The defense headline: accuracy over the fleet the server still
        // serves. An exiled attacker's own encoder trained against
        // poisoned activations — it is attacker-owned damage no
        // server-side policy can undo, so it belongs in `final_accuracy`
        // (whole-fleet average) but not here. With nothing exiled the
        // two are identical.
        let active: Vec<f32> = per
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantine.in_quarantine(*i, end))
            .map(|(_, &a)| a)
            .collect();
        let active_accuracy = if active.is_empty() {
            final_accuracy
        } else {
            stsl_tensor::mean_f32(&active)
        };
        let tally = self.tally;
        let report = AsyncReport {
            policy: self.policy.to_string(),
            end_systems: self.config.end_systems,
            cut_blocks: self.config.cut.blocks(),
            sim_seconds,
            final_accuracy,
            active_accuracy,
            served_per_client: self.queue.served_per_client().to_vec(),
            service_imbalance: self.queue.service_imbalance(),
            mean_queue_depth: self.queue.mean_depth(),
            max_queue_depth: self.queue.max_depth(),
            mean_queue_wait_ms: self.queue.mean_wait().as_micros() as f64 / 1e3,
            scheduler_drops: tally.count(TraceKind::SchedulerDrop),
            network_drops: tally.count(TraceKind::NetworkDrop),
            retransmits: tally.count(TraceKind::Retransmit),
            retry_exhausted: tally.count(TraceKind::RetryExhausted),
            batches_lost: self.batches_lost_per_client.iter().sum(),
            batches_lost_per_client: self.batches_lost_per_client.clone(),
            downtime_ms_per_client: self.downtime_us.iter().map(|&us| us as f64 / 1e3).collect(),
            crash_events: tally.count(TraceKind::ClientCrash),
            recovery_events: tally.count(TraceKind::ClientRecover),
            checkpoint_saves: tally.count(TraceKind::CheckpointSave),
            checkpoint_restores: tally.count(TraceKind::CheckpointRestore),
            dead_clients_detected: self.liveness.dead_detections(),
            corrupted_payloads: tally.count(TraceKind::PayloadCorrupted),
            corrupted_rejected: tally.count(TraceKind::CorruptRejected),
            anomalies_rejected: tally.count(TraceKind::AnomalyRejected),
            quarantines: tally.count(TraceKind::Quarantine),
            quarantine_drops: tally.count(TraceKind::QuarantineDrop),
            quarantine_releases: tally.count(TraceKind::QuarantineRelease),
            rollbacks: tally.count(TraceKind::Rollback),
            snapshots_emitted: tally.count(TraceKind::SnapshotEmit),
            journal_dropped: tally.count(TraceKind::JournalDrop),
            clients_joined: tally.count(TraceKind::ClientJoin),
            clients_departed: tally.count(TraceKind::ClientLeave),
            rejoins: tally.count(TraceKind::ClientRejoin),
            batches_shed: tally.count(TraceKind::IngressShed),
            breaker_trips: tally.count(TraceKind::BreakerTrip),
            deadline_partial_applies: tally.count(TraceKind::DeadlinePartialApply),
            attacks_injected: tally.count(TraceKind::AttackInjected),
            robust_applies: tally.count(TraceKind::RobustApply),
            robust_outliers: tally.count(TraceKind::RobustOutlier),
            updates_trimmed: self.updates_trimmed,
            comm: self.comm,
        };
        (report, self.quorum_lost.take())
    }

    /// Whether end-system `i` currently counts toward the fleet (state
    /// `Active` or `Suspect`).
    fn is_member(&self, i: usize) -> bool {
        matches!(
            self.membership.state(i),
            Some(MembershipState::Active) | Some(MembershipState::Suspect)
        )
    }

    /// Records the current fleet size as [`MetricId::MembershipSize`]
    /// (called on every membership transition).
    fn note_membership(&mut self) {
        let size = self.membership.member_count() as u64;
        let server_id = self.server_trace_id();
        if let Some(hub) = &mut self.telemetry {
            hub.record(MetricId::MembershipSize, server_id.0 as u64, size);
        }
    }

    /// Whether end-system `i` has produced (and been acked for) every
    /// batch of every configured epoch.
    fn training_complete(&self, i: usize) -> bool {
        self.clients[i].epoch_finished() && self.client_epoch[i] + 1 >= self.config.epochs as u64
    }

    /// Detects quorum loss at `t`: no member remains, unfinished work is
    /// left, and no scheduled join or rejoin can ever repopulate the
    /// fleet.
    fn quorum_check(&self, t: SimTime) -> Option<QuorumLost> {
        if self.membership.member_count() > 0 {
            return None;
        }
        let unfinished = (0..self.clients.len()).any(|i| !self.training_complete(i));
        if !unfinished {
            return None;
        }
        let repopulates = self
            .fault_plan
            .join_events()
            .into_iter()
            .chain(self.fault_plan.rejoin_events())
            .any(|(_, at)| at > t);
        if repopulates {
            return None;
        }
        Some(QuorumLost {
            at_us: t.as_micros(),
            joined: self.membership.joined(),
            departed: self.membership.departed(),
        })
    }

    /// Picks the warm-start donor for a joiner: the most-served active
    /// member (lowest id on ties), whose checkpointed private layers the
    /// joiner clones.
    fn warm_start_donor(&self, joiner: EndSystemId) -> Option<usize> {
        let served = self.queue.served_per_client();
        let mut donor: Option<usize> = None;
        for i in 0..self.clients.len() {
            if i == joiner.0 || self.membership.state(i) != Some(MembershipState::Active) {
                continue;
            }
            if donor.is_none_or(|d| served[i] > served[d]) {
                donor = Some(i);
            }
        }
        donor
    }

    /// Snapshots the full deployment (config, server uppers, every
    /// end-system's private lowers) into the checkpoint ring. With the
    /// integrity guard on, a non-finite server state is never banked —
    /// that would turn the rollback ring into a trap.
    fn take_checkpoint(&mut self, t: SimTime) {
        let server_state = self.server.model_mut().state_dict();
        if self.guard.is_some()
            && server_state
                .iter()
                .any(|p| p.as_slice().iter().any(|v| !v.is_finite()))
        {
            return;
        }
        let config = self.config.clone();
        let client_states = self
            .clients
            .iter_mut()
            .map(|c| c.model_mut().state_dict())
            .collect();
        self.ring.push(Checkpoint {
            config,
            server_state,
            client_states,
        });
        let server_id = self.server_trace_id();
        self.emit(t, TraceKind::CheckpointSave, server_id);
    }

    /// Watchdog-triggered rollback: restore the newest ring checkpoint
    /// (server uppers *and* every end-system's private lowers — they
    /// co-adapted, so they roll back together), cool the learning rate,
    /// and re-arm the watchdog. Repeated divergences pop progressively
    /// older entries.
    fn rollback(&mut self, t: SimTime, guard: &GuardConfig) {
        let server_id = self.server_trace_id();
        self.emit(t, TraceKind::Rollback, server_id);
        if let Some(ckpt) = self.ring.pop_latest() {
            self.server.model_mut().load_state_dict(&ckpt.server_state);
            for (client, state) in self.clients.iter_mut().zip(&ckpt.client_states) {
                client.model_mut().load_state_dict(state);
            }
        }
        self.server.scale_learning_rate(guard.lr_cooldown);
        // A half-filled aggregation window straddling the rollback point
        // mixes pre- and post-restore gradients; drop it.
        self.server.clear_robust_buffer();
        self.watchdog.reset();
    }

    /// Computes client `id`'s next batch starting at `t` and sends it
    /// uplink. Advances the client's epoch when its shard is exhausted;
    /// stops silently (and retires the client from liveness tracking)
    /// after the final epoch.
    fn launch_next_batch(&mut self, id: EndSystemId, t: SimTime) {
        if self.crashed[id.0] {
            return; // relaunched on recovery
        }
        if !self.is_member(id.0) {
            return; // relaunched on join/rejoin
        }
        let client = &mut self.clients[id.0];
        if client.epoch_finished() {
            let next_epoch = self.client_epoch[id.0] + 1;
            if next_epoch >= self.config.epochs as u64 {
                self.liveness.retire(id);
                return; // this client is done for good
            }
            self.client_epoch[id.0] = next_epoch;
            client.begin_epoch(next_epoch);
        }
        let Some(mut msg) = client.next_batch() else {
            return;
        };
        self.apply_attack(&mut msg, t);
        self.send(Frame::Up(msg), 0, t + self.compute.client_batch);
    }

    /// Applies the sender's active adversarial persona (if any) to a
    /// freshly produced batch, at batch-production time. The poisoned
    /// payload carries through retransmission untouched — the attacker
    /// *is* the sender, so every copy it puts on the wire lies
    /// identically. Unlike payload corruption, the poison is semantic:
    /// the frame stays CRC-valid, finite and RMS-plausible, so only
    /// statistical defenses at the aggregation point can catch it.
    fn apply_attack(&mut self, msg: &mut ActivationMsg, t: SimTime) {
        let id = msg.from;
        let Some(attack) = self.fault_plan.attack(id, t) else {
            return;
        };
        self.emit(t, TraceKind::AttackInjected, id);
        match attack {
            AttackSpec::SignFlip { gain } => {
                let g = -(gain as f32);
                msg.activations.map_inplace(|x| g * x);
            }
            AttackSpec::Scale { factor } => {
                let f = factor as f32;
                msg.activations.map_inplace(|x| f * x);
            }
            AttackSpec::GaussianDrift { sigma } => {
                // Noise grows with the attacker's step count: early
                // batches look almost honest, later ones drift ever
                // further — the slow-poison profile norm bounds miss.
                self.attack_steps[id.0] += 1;
                let scale = (sigma * (self.attack_steps[id.0] as f64).sqrt()) as f32;
                let noise =
                    Tensor::randn(msg.activations.dims().to_vec(), &mut self.attack_rngs[id.0]);
                msg.activations.axpy(scale, &noise);
            }
            AttackSpec::Collude { clique, gain } => {
                // Every clique member sends the same pseudorandom
                // direction for the same batch id: colluders reinforce
                // one another instead of averaging out, the attack
                // Krum-style selectors are most vulnerable to.
                let batch_key = ((msg.batch_id.epoch as u64) << 32) | msg.batch_id.batch as u64;
                let seed = derive_seed(derive_seed(self.config.seed, 7700 + clique), batch_key);
                let g = gain as f32;
                let mut dir =
                    Tensor::randn(msg.activations.dims().to_vec(), &mut rng_from_seed(seed));
                dir.map_inplace(|x| g * x);
                msg.activations = dir;
            }
        }
    }

    /// Attempts one transmission of `frame` at `at` (`failures` prior
    /// attempts have been lost). On loss, schedules a backed-off
    /// retransmission — or abandons the batch once the budget is spent.
    fn send(&mut self, frame: Frame, failures: u32, at: SimTime) {
        let id = frame.peer();
        if self.overload.is_some() {
            // A tripped breaker defers the send until its link half-opens
            // — before any comm accounting, since nothing hits the wire.
            if let BreakerDecision::Defer(until) = self.breaker.allow(id, at) {
                self.events
                    .schedule(until, Event::Probe { frame, failures });
                return;
            }
        }
        let bytes = frame.encoded_len();
        let (sent_bytes, sent_messages) = frame.comm(&mut self.comm);
        *sent_bytes += bytes as u64;
        *sent_messages += 1;
        let link = *self.topology.link(id);
        match self
            .fault_plan
            .transfer_through(&link, id, bytes, at, &mut self.link_rngs[id.0])
        {
            Some(dur) => {
                let latency = frame.latency_metric();
                // The corruption RNG is only consulted while a corruption
                // episode is active, so corruption-free plans keep their
                // exact event streams.
                let rate = self.fault_plan.corruption_rate(id, at);
                let deliver = if rate > 0.0 && self.link_rngs[id.0].gen_bool(rate) {
                    self.emit(at, TraceKind::PayloadCorrupted, id);
                    self.garble(frame, failures)
                } else {
                    Event::Deliver(frame)
                };
                if self.overload.is_some() {
                    self.breaker.record_success(id);
                }
                if let Some(hub) = &mut self.telemetry {
                    hub.record(latency, id.0 as u64, dur.as_micros());
                }
                self.events.schedule(at + dur, deliver);
            }
            None => {
                self.emit(at, TraceKind::NetworkDrop, id);
                if self.overload.is_some() && self.breaker.record_failure(id, at) {
                    self.emit(at, TraceKind::BreakerTrip, id);
                }
                self.retry_or_give_up(frame, failures, at);
            }
        }
    }

    /// One more send of `frame` failed at `at`: schedules a backed-off
    /// retransmission, or counts the batch as lost once the retry budget
    /// is spent.
    fn retry_or_give_up(&mut self, frame: Frame, failures: u32, at: SimTime) {
        let failures = failures + 1;
        if self.retry.may_retry(failures) {
            let delay = self.retry.backoff(failures, &mut self.retry_rng);
            self.events
                .schedule(at + delay, Event::Retry { frame, failures });
        } else {
            self.lose_batch(at, TraceKind::RetryExhausted, frame.peer());
        }
    }

    /// Runs `frame` through the wire: encode, garble the bytes with the
    /// link's RNG, and decode at the receiving edge (see
    /// [`Frame::receive`]). A rejected frame comes back as
    /// [`Event::Corrupt`] for retransmission.
    fn garble(&mut self, frame: Frame, failures: u32) -> Event {
        let mut wire = frame.encode().into_vec();
        corrupt_payload(&mut wire, &mut self.link_rngs[frame.peer().0]);
        match frame.receive(&wire, self.guard.is_some(), self.config.arch.classes) {
            Some(garbled) => Event::Deliver(garbled),
            None => Event::Corrupt { frame, failures },
        }
    }

    /// If the server is idle (and not stalled by a fault) at `t`, pops the
    /// next job per the scheduling policy, processes it and schedules the
    /// completion + gradient delivery. Clients whose jobs were discarded
    /// as stale are told to skip.
    fn try_serve(&mut self, t: SimTime) {
        if let Some(stall_end) = self.fault_plan.server_stall_end(t) {
            // Wake up once when the stall lifts; queued work waits.
            if self.stall_wake != Some(stall_end) {
                self.stall_wake = Some(stall_end);
                self.events.schedule(stall_end, Event::ServerFree);
            }
            return;
        }
        if self.server_busy_until > t || self.queue.is_empty() {
            return;
        }
        let (job, discarded) = self.queue.pop_observed(t, self.telemetry.as_mut());
        for msg in discarded {
            // The client is still awaiting a gradient for this batch.
            self.lose_batch(t, TraceKind::SchedulerDrop, msg.from);
        }
        let Some(job) = job else { return };
        let id = job.msg.from;
        self.emit(t, TraceKind::ServiceStart, id);
        let service_us = self.compute.server_batch.as_micros();
        let out = match self.server.process_observed(
            &job.msg,
            self.guard.as_ref(),
            self.telemetry.as_mut(),
            service_us,
        ) {
            Ok(out) => out,
            Err(_) => {
                // Only reachable with the guard on: ingress validation
                // rejected the update before it touched the model.
                // Validation is cheap, so the server stays free for the
                // next queued job.
                self.lose_batch(t, TraceKind::AnomalyRejected, id);
                if self.quarantine.record_anomaly(id.0, t) {
                    self.emit(t, TraceKind::Quarantine, id);
                    self.resize_robust_window(t);
                }
                self.try_serve(t);
                return;
            }
        };
        let done = t + self.compute.server_batch;
        self.server_busy_until = done;
        self.events.schedule(done, Event::ServerFree);
        if let Some(g) = self.guard {
            // With robust aggregation on, the quarantine clean-credit is
            // deferred to the window verdict below: a sender is "clean"
            // when its update survives statistical scrutiny, not when it
            // merely parses. Crediting here would let a persistent
            // attacker decay its own anomaly score once per round and
            // plateau below the quarantine threshold forever.
            if !self.server.robust_enabled() {
                self.quarantine.record_clean(id.0);
            }
            if self
                .watchdog
                .observe(out.loss, tensor_rms(&out.gradient.grad))
            {
                // The optimizer step that just happened poisoned the
                // shared model: roll back instead of propagating the
                // gradient. The batch still cost server time.
                self.rollback(t, &g);
                self.batches_lost_per_client[id.0] += 1;
                self.events.schedule(done, Event::BatchAbandon(id));
                return;
            }
        }
        if let Some(apply) = self.server.take_robust_apply() {
            self.updates_trimmed += apply.trimmed as u64;
            let server_id = self.server_trace_id();
            self.emit(t, TraceKind::RobustApply, server_id);
            if let Some(hub) = &mut self.telemetry {
                hub.record(
                    MetricId::TrimFraction,
                    server_id.0 as u64,
                    apply.trim_fraction_permille,
                );
            }
            if self.guard.is_some() {
                // The deferred clean-credit: window members the policy
                // did not flag decay their anomaly score here.
                for sender in &apply.cleared {
                    self.quarantine.record_clean(*sender);
                }
            }
            for sender in apply.outliers {
                let sid = EndSystemId(sender);
                self.emit(t, TraceKind::RobustOutlier, sid);
                // Statistical outliers accrue quarantine anomaly score
                // exactly like NaN/RMS ingress rejections: the guard
                // becomes attack-aware, not just corruption-aware.
                if self.guard.is_some() && self.quarantine.record_anomaly(sender, t) {
                    self.emit(t, TraceKind::Quarantine, sid);
                    self.resize_robust_window(t);
                }
            }
        }
        self.send(Frame::Down(out.gradient), 0, done);
    }
}

/// The journal counterpart of a trace kind, if it is journaled at all.
fn journal_kind(kind: TraceKind) -> Option<JournalKind> {
    Some(match kind {
        TraceKind::Arrival => JournalKind::Arrival,
        TraceKind::ServiceStart => JournalKind::ServiceStart,
        TraceKind::GradientDelivered => JournalKind::GradientDelivered,
        TraceKind::SchedulerDrop => JournalKind::SchedulerDrop,
        TraceKind::NetworkDrop => JournalKind::NetworkDrop,
        TraceKind::Retransmit => JournalKind::Retransmit,
        TraceKind::ClientCrash => JournalKind::ClientCrash,
        TraceKind::ClientRecover => JournalKind::ClientRecover,
        TraceKind::CheckpointSave => JournalKind::CheckpointSave,
        TraceKind::CheckpointRestore => JournalKind::CheckpointRestore,
        TraceKind::AnomalyRejected => JournalKind::AnomalyRejected,
        TraceKind::Quarantine => JournalKind::Quarantine,
        TraceKind::QuarantineRelease => JournalKind::QuarantineRelease,
        TraceKind::QuarantineDrop => JournalKind::QuarantineDrop,
        TraceKind::Rollback => JournalKind::Rollback,
        TraceKind::SnapshotEmit => JournalKind::SnapshotEmit,
        TraceKind::ClientJoin => JournalKind::ClientJoin,
        TraceKind::ClientLeave => JournalKind::ClientLeave,
        TraceKind::ClientRejoin => JournalKind::ClientRejoin,
        TraceKind::IngressShed => JournalKind::IngressShed,
        TraceKind::BreakerTrip => JournalKind::BreakerTrip,
        TraceKind::DeadlinePartialApply => JournalKind::DeadlinePartial,
        TraceKind::AttackInjected => JournalKind::AttackInjected,
        TraceKind::RobustApply => JournalKind::RobustApply,
        TraceKind::RobustOutlier => JournalKind::RobustOutlier,
        TraceKind::RetryExhausted
        | TraceKind::PayloadCorrupted
        | TraceKind::CorruptRejected
        | TraceKind::JournalDrop
        | TraceKind::CohortStep => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CutPoint;
    use stsl_data::SyntheticCifar;
    use stsl_simnet::Link;

    fn data(n: usize) -> ImageDataset {
        SyntheticCifar::new(3)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    fn run_with(
        policy: SchedulingPolicy,
        topology: StarTopology,
        clients: usize,
        epochs: usize,
    ) -> AsyncReport {
        let cfg = SplitConfig::tiny(CutPoint(1), clients)
            .epochs(epochs)
            .batch_size(8)
            .seed(4);
        let train = data(clients * 24);
        let test = data(40);
        let mut t =
            AsyncSplitTrainer::new(cfg, &train, topology, policy, ComputeModel::default()).unwrap();
        t.run(&test)
    }

    #[test]
    fn completes_and_serves_every_batch_homogeneous() {
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let r = run_with(SchedulingPolicy::Fifo, top, 2, 1);
        // 24 samples per client, batch 8 -> 3 batches each.
        assert_eq!(r.served_per_client, vec![3, 3]);
        assert_eq!(r.scheduler_drops, 0);
        assert_eq!(r.network_drops, 0);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.batches_lost, 0);
        assert!(r.sim_seconds > 0.0);
        assert_eq!(r.comm.uplink_messages, 6);
        assert_eq!(r.comm.downlink_messages, 6);
    }

    #[test]
    fn topology_size_must_match_clients() {
        let cfg = SplitConfig::tiny(CutPoint(1), 3);
        let top = StarTopology::uniform(2, Link::ideal());
        let err = AsyncSplitTrainer::new(
            cfg,
            &data(60),
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("topology"));
    }

    #[test]
    fn heterogeneous_latency_slows_completion() {
        let fast = StarTopology::uniform(2, Link::wan(1.0, 100.0));
        let slow = StarTopology::uniform(2, Link::wan(200.0, 100.0));
        let rf = run_with(SchedulingPolicy::Fifo, fast, 2, 1);
        let rs = run_with(SchedulingPolicy::Fifo, slow, 2, 1);
        assert!(
            rs.sim_seconds > rf.sim_seconds * 2.0,
            "{} vs {}",
            rs.sim_seconds,
            rf.sim_seconds
        );
    }

    #[test]
    fn lossy_network_retransmits_and_still_serves_every_batch() {
        // 20 % loss on client 0's link: with retransmission the run now
        // completes *all* batches (where the old fixed-timeout design
        // silently lost them) at the cost of retransmits and extra
        // messages.
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0).loss(0.2), Link::wan(5.0, 100.0)]);
        let r = run_with(SchedulingPolicy::Fifo, top, 2, 2);
        assert!(r.network_drops > 0, "expected some drops");
        assert!(r.retransmits > 0, "expected retransmissions");
        assert_eq!(r.served_per_client, vec![6, 6]);
        assert_eq!(r.batches_lost, 0);
        // Every drop was either retransmitted or (never, here) given up.
        assert_eq!(r.retransmits + r.retry_exhausted, r.network_drops);
        // Retransmissions cost extra messages over the 12 useful ones.
        assert!(r.comm.uplink_messages + r.comm.downlink_messages > 24);
    }

    #[test]
    fn pathological_loss_exhausts_retries_but_does_not_wedge() {
        // 90 % loss and a tiny retry budget: batches get abandoned, but
        // the run still terminates and the lossless client is unharmed.
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0).loss(0.9), Link::wan(5.0, 100.0)]);
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(40),
            jitter_frac: 0.1,
            max_attempts: 2,
        });
        let r = t.run(&test);
        assert!(r.retry_exhausted > 0, "expected exhausted retries: {:?}", r);
        assert!(r.batches_lost > 0);
        assert_eq!(r.batches_lost_per_client[1], 0);
        assert_eq!(r.served_per_client[1], 3);
    }

    #[test]
    fn trace_records_protocol_events() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap();
        t.enable_trace();
        t.run(&test);
        let trace = t.trace().expect("trace enabled");
        // 2 clients x 2 batches each: every batch arrives, is served, and
        // its gradient is delivered.
        use stsl_simnet::TraceKind;
        assert_eq!(trace.count(TraceKind::Arrival), 4);
        assert_eq!(trace.count(TraceKind::ServiceStart), 4);
        assert_eq!(trace.count(TraceKind::GradientDelivered), 4);
        assert_eq!(trace.count(TraceKind::SchedulerDrop), 0);
        assert_eq!(trace.count(TraceKind::NetworkDrop), 0);
        assert_eq!(trace.count(TraceKind::Retransmit), 0);
        assert_eq!(trace.count(TraceKind::ClientCrash), 0);
        // CSV export is well-formed.
        assert_eq!(trace.to_csv().lines().count(), 13);
    }

    #[test]
    fn telemetry_collects_distributions_and_journal() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::new(vec![Link::wan(5.0, 100.0), Link::wan(60.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_telemetry(SimDuration::from_millis(100), 64);
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.snapshots_emitted > 0);
        assert_eq!(r.journal_dropped, 0);
        let hub = t.telemetry().expect("telemetry enabled");
        assert_eq!(hub.snapshots().len() as u64, r.snapshots_emitted);
        // Both clients uplinked twice; the slow link's latencies dominate.
        let up0 = hub
            .registry()
            .histogram(stsl_telemetry::MetricId::UplinkLatency, 0)
            .unwrap();
        let up1 = hub
            .registry()
            .histogram(stsl_telemetry::MetricId::UplinkLatency, 1)
            .unwrap();
        assert_eq!(up0.count(), 2);
        assert_eq!(up1.count(), 2);
        assert!(up1.p50() > up0.p50());
        // Staleness and service time were recorded at apply time.
        assert!(hub
            .registry()
            .histogram(stsl_telemetry::MetricId::GradientStaleness, 0)
            .is_some());
        let svc = hub
            .registry()
            .histogram(stsl_telemetry::MetricId::ServiceTime, 0)
            .unwrap();
        assert_eq!(svc.max(), Some(3_000)); // ComputeModel::default

        // The journal saw every protocol milestone.
        let journal = hub.journal_log();
        assert_eq!(journal.count(JournalKind::Arrival), 4);
        assert_eq!(journal.count(JournalKind::ServiceStart), 4);
        assert_eq!(journal.count(JournalKind::GradientDelivered), 4);
        assert!(journal.count(JournalKind::SnapshotEmit) > 0);
        // Snapshot emissions are traced with the same discipline as every
        // other counter.
        let trace = t.trace().unwrap();
        assert_eq!(
            trace.count(TraceKind::SnapshotEmit) as u64,
            r.snapshots_emitted
        );
        assert_eq!(trace.count(TraceKind::JournalDrop), 0);
    }

    #[test]
    fn tiny_journal_capacity_reports_evictions() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(32);
        let test = data(8);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_telemetry(SimDuration::from_millis(100), 2);
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.journal_dropped > 0, "a 2-slot ring must evict");
        let hub = t.telemetry().unwrap();
        assert_eq!(hub.journal_log().evicted(), r.journal_dropped);
        assert_eq!(hub.journal_log().len(), 2);
        assert_eq!(
            t.trace().unwrap().count(TraceKind::JournalDrop) as u64,
            r.journal_dropped
        );
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            let top = StarTopology::latency_gradient(3, 1.0, 80.0, 50.0);
            run_with(SchedulingPolicy::RoundRobin, top, 3, 1)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.served_per_client, b.served_per_client);
        assert_eq!(a.final_accuracy, b.final_accuracy);
    }

    #[test]
    fn time_budget_stops_early_and_biases_service_toward_near_clients() {
        // One near, one far client, many epochs, tight budget: the near
        // client gets served more — §II's bias, measurable only under a
        // fixed time budget.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(50)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::new(vec![Link::wan(1.0, 100.0), Link::wan(120.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap();
        let budget = SimDuration::from_millis(3_000);
        let r = t.run_with_budget(&test, Some(budget));
        assert!(
            r.sim_seconds <= budget.as_secs_f64() + 1.0,
            "sim {}s",
            r.sim_seconds
        );
        assert!(
            r.served_per_client[0] > 2 * r.served_per_client[1],
            "near client should dominate under a budget: {:?}",
            r.served_per_client
        );
        assert!(r.service_imbalance > 0.1);
    }

    #[test]
    fn staleness_policy_reports_drops_under_pressure() {
        // Extremely slow server -> deep queue -> stale batches.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let compute = ComputeModel {
            client_batch: SimDuration::from_millis(1),
            server_batch: SimDuration::from_millis(400),
            retry_timeout: SimDuration::from_millis(100),
        };
        let top = StarTopology::uniform(2, Link::wan(1.0, 100.0));
        let policy = SchedulingPolicy::StalenessDrop {
            max_age: SimDuration::from_millis(50),
        };
        let mut t = AsyncSplitTrainer::new(cfg, &train, top, policy, compute).unwrap();
        let r = t.run(&test);
        assert!(
            r.scheduler_drops > 0,
            "expected stale drops, report {:?}",
            r
        );
        // Scheduler discards count as lost work too.
        assert_eq!(r.batches_lost, r.scheduler_drops);
    }

    #[test]
    fn crash_window_loses_work_then_recovers_from_checkpoint() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(4)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().client_crash(
            EndSystemId(0),
            SimTime::from_millis(40),
            SimTime::from_millis(400),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_auto_checkpoint(SimDuration::from_millis(25));
        t.enable_trace();
        let r = t.run(&test);
        assert_eq!(r.crash_events, 1);
        assert_eq!(r.recovery_events, 1);
        assert_eq!(r.checkpoint_restores, 1);
        assert!(r.checkpoint_saves > 0);
        assert!(
            (r.downtime_ms_per_client[0] - 360.0).abs() < 1.0,
            "downtime {:?}",
            r.downtime_ms_per_client
        );
        assert_eq!(r.downtime_ms_per_client[1], 0.0);
        // The crashed client still finished all its batches after
        // recovery (run-to-completion), minus at most the one lost.
        assert!(r.served_per_client[0] >= 11, "{:?}", r.served_per_client);
        assert_eq!(r.served_per_client[1], 12);
        let trace = t.trace().unwrap();
        assert_eq!(trace.count(TraceKind::ClientCrash), 1);
        assert_eq!(trace.count(TraceKind::ClientRecover), 1);
        assert_eq!(trace.count(TraceKind::CheckpointRestore), 1);
        assert!(trace.count(TraceKind::CheckpointSave) > 0);
        assert!(t.last_checkpoint().is_some());
    }

    #[test]
    fn liveness_detects_dead_client_during_long_crash() {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(6)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().client_crash(
            EndSystemId(0),
            SimTime::from_millis(30),
            SimTime::from_millis(800),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_liveness_timeout(SimDuration::from_millis(100));
        let r = t.run(&test);
        assert!(
            r.dead_clients_detected >= 1,
            "server should notice the silence: {:?}",
            r
        );
        // The survivor kept training the whole time (quorum of one).
        assert_eq!(r.served_per_client[1], 18);
    }

    #[test]
    fn server_stall_delays_but_loses_nothing() {
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mk = |plan: FaultPlan| {
            let cfg = SplitConfig::tiny(CutPoint(1), 2)
                .epochs(1)
                .batch_size(8)
                .seed(4);
            let train = data(48);
            let test = data(20);
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top.clone(),
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan);
            t.run(&test)
        };
        let clean = mk(FaultPlan::new());
        let stalled =
            mk(FaultPlan::new().server_stall(SimTime::from_millis(10), SimTime::from_millis(300)));
        assert_eq!(stalled.served_per_client, clean.served_per_client);
        assert_eq!(stalled.batches_lost, 0);
        assert!(
            stalled.sim_seconds > clean.sim_seconds + 0.2,
            "stall should delay: {} vs {}",
            stalled.sim_seconds,
            clean.sim_seconds
        );
    }

    #[test]
    fn scheduled_churn_joins_leaves_and_rejoins() {
        // Fleet of 3: clients 0 and 1 start active, client 2 is a
        // pre-declared joiner admitted at 100 ms. Client 0 departs at
        // 150 ms and rejoins at 400 ms, resuming from its last acked
        // batch.
        let mk = || {
            let cfg = SplitConfig::tiny(CutPoint(1), 3)
                .epochs(4)
                .batch_size(8)
                .seed(4);
            let train = data(72);
            let test = data(20);
            let top = StarTopology::uniform(3, Link::wan(5.0, 100.0));
            let plan = FaultPlan::new()
                .client_join(EndSystemId(2), SimTime::from_millis(100))
                .client_leave(EndSystemId(0), SimTime::from_millis(150))
                .client_rejoin(EndSystemId(0), SimTime::from_millis(400));
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top,
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan)
            .with_auto_checkpoint(SimDuration::from_millis(50));
            t.enable_trace();
            let r = t.run(&test);
            let csv = t.trace().unwrap().to_csv();
            let conserves = t.membership().conserves();
            (r, csv, conserves)
        };
        let (r, csv_a, conserves) = mk();
        assert_eq!(r.clients_joined, 1);
        assert_eq!(r.clients_departed, 1);
        assert_eq!(r.rejoins, 1);
        assert!(conserves, "joined - departed must equal members");
        // The joiner was warm-started from a checkpointed donor.
        assert!(r.checkpoint_restores >= 1, "{:?}", r);
        // Everyone finished every batch: the joiner ran its full shard
        // after admission, the rejoiner replayed its un-acked batch.
        assert_eq!(r.served_per_client, vec![12, 12, 12]);
        assert_eq!(r.batches_lost, 0);
        // Churn is seed-deterministic down to the trace.
        let (_, csv_b, _) = mk();
        assert_eq!(csv_a, csv_b);
    }

    #[test]
    fn overload_control_sheds_oldest_and_bounds_the_queue() {
        // Fast clients, nearly-stalled server, tiny ingress bound: the
        // queue sheds oldest-first and its depth never exceeds the cap.
        let cfg = SplitConfig::tiny(CutPoint(1), 3)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(72);
        let test = data(20);
        let compute = ComputeModel {
            client_batch: SimDuration::from_millis(1),
            server_batch: SimDuration::from_millis(500),
            retry_timeout: SimDuration::from_millis(100),
        };
        let top = StarTopology::uniform(3, Link::wan(1.0, 100.0));
        let mut t = AsyncSplitTrainer::new(cfg, &train, top, SchedulingPolicy::Fifo, compute)
            .unwrap()
            .with_overload_control(OverloadConfig {
                queue_capacity: 1,
                bucket_rate: 1_000,
                bucket_burst: 1_000,
                ..OverloadConfig::default()
            });
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.batches_shed > 0, "expected shedding: {:?}", r);
        assert!(r.max_queue_depth <= 1, "depth {}", r.max_queue_depth);
        assert_eq!(
            t.trace().unwrap().count(TraceKind::IngressShed) as u64,
            r.batches_shed
        );
        assert_eq!(r.batches_lost, r.batches_shed);
        assert!(!t.queue_depth_samples().is_empty());
    }

    #[test]
    fn round_deadlines_apply_partial_quorum_and_abandon_stragglers() {
        // One near client, one pathologically far straggler, short round
        // deadline: the fleet applies partial quorums instead of waiting.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(1)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::new(vec![Link::wan(2.0, 100.0), Link::wan(2_000.0, 100.0)]);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_round_deadlines(DeadlineConfig {
            round_ms: 100,
            min_quorum_frac: 0.5,
        });
        t.enable_trace();
        let r = t.run(&test);
        assert!(
            r.deadline_partial_applies > 0,
            "expected partial applies: {:?}",
            r
        );
        assert_eq!(
            t.trace().unwrap().count(TraceKind::DeadlinePartialApply) as u64,
            r.deadline_partial_applies
        );
        // The near client is unharmed; the straggler lost work to the
        // deadline.
        assert_eq!(r.served_per_client[0], 3);
        assert!(r.batches_lost_per_client[1] > 0);
    }

    #[test]
    fn breaker_trips_on_dead_link_and_defers_sends() {
        // Client 0's link drops everything during the surge: the breaker
        // trips after the threshold and defers sends while open.
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(2)
            .batch_size(8)
            .seed(4);
        let train = data(48);
        let test = data(20);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let plan = FaultPlan::new().loss_surge(
            EndSystemId(0),
            0.97,
            SimTime::from_millis(0),
            SimTime::from_millis(300),
        );
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(30),
            jitter_frac: 0.1,
            max_attempts: 30,
        })
        .with_overload_control(OverloadConfig::default());
        t.enable_trace();
        let r = t.run(&test);
        assert!(r.breaker_trips > 0, "expected breaker trips: {:?}", r);
        assert_eq!(
            t.trace().unwrap().count(TraceKind::BreakerTrip) as u64,
            r.breaker_trips
        );
        // The healthy client is untouched by client 0's breaker.
        assert_eq!(r.served_per_client[1], 6);
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        let mk = || {
            let cfg = SplitConfig::tiny(CutPoint(1), 2)
                .epochs(2)
                .batch_size(8)
                .seed(9);
            let train = data(48);
            let test = data(20);
            let top = StarTopology::new(vec![
                Link::wan(5.0, 100.0).loss(0.15),
                Link::wan(40.0, 100.0),
            ]);
            let plan = FaultPlan::new()
                .client_crash(
                    EndSystemId(1),
                    SimTime::from_millis(50),
                    SimTime::from_millis(250),
                )
                .loss_surge(
                    EndSystemId(0),
                    0.3,
                    SimTime::from_millis(0),
                    SimTime::from_millis(200),
                );
            let mut t = AsyncSplitTrainer::new(
                cfg,
                &train,
                top,
                SchedulingPolicy::Fifo,
                ComputeModel::default(),
            )
            .unwrap()
            .with_fault_plan(plan)
            .with_auto_checkpoint(SimDuration::from_millis(40));
            t.enable_trace();
            let r = t.run(&test);
            let csv = t.trace().unwrap().to_csv();
            (r, csv)
        };
        let (a, csv_a) = mk();
        let (b, csv_b) = mk();
        assert_eq!(csv_a, csv_b, "identical seeds must reproduce the trace");
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.downtime_ms_per_client, b.downtime_ms_per_client);
    }

    /// A 2-client guarded trainer whose client 0 sends norm-exploding
    /// activations, journaling into a `journal_capacity`-slot ring.
    fn poisoned_guarded(journal_capacity: usize) -> AsyncSplitTrainer {
        let cfg = SplitConfig::tiny(CutPoint(1), 2)
            .epochs(4)
            .batch_size(8)
            .seed(4);
        let top = StarTopology::uniform(2, Link::wan(5.0, 100.0));
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &data(48),
            top,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_integrity_guard(GuardConfig {
            probation: SimDuration::from_millis(40),
            ..GuardConfig::default()
        })
        .with_telemetry(SimDuration::from_millis(100), journal_capacity);
        let poisoned: Vec<Tensor> = t.clients_mut()[0]
            .model_mut()
            .state_dict()
            .into_iter()
            .map(|mut p| {
                p.map_inplace(|_| 1e20);
                p
            })
            .collect();
        t.clients_mut()[0].model_mut().load_state_dict(&poisoned);
        t.enable_trace();
        t
    }

    #[test]
    fn quarantine_transitions_are_journaled() {
        let mut t = poisoned_guarded(4096);
        let r = t.run(&data(20));
        assert!(r.quarantines > 0, "{r:?}");
        assert!(r.quarantine_drops > 0, "{r:?}");
        assert!(r.quarantine_releases > 0, "{r:?}");
        assert_eq!(r.journal_dropped, 0);
        let journal = t.telemetry().unwrap().journal_log();
        let count = |k| journal.count(k) as u64;
        assert_eq!(count(JournalKind::Quarantine), r.quarantines);
        assert_eq!(count(JournalKind::QuarantineDrop), r.quarantine_drops);
        assert_eq!(count(JournalKind::QuarantineRelease), r.quarantine_releases);
    }

    #[test]
    fn quarantine_journal_evictions_are_traced() {
        // With a 1-slot ring every journaled event after the first evicts
        // one, the quarantine kinds included.
        let mut t = poisoned_guarded(1);
        let r = t.run(&data(20));
        assert!(r.quarantine_drops > 0, "{r:?}");
        assert_eq!(
            t.telemetry().unwrap().journal_log().evicted(),
            r.journal_dropped
        );
        assert_eq!(
            t.trace().unwrap().count(TraceKind::JournalDrop) as u64,
            r.journal_dropped
        );
    }
}
