//! Trace-to-report accounting: every `TraceKind` is counted by exactly
//! one report field, and on a traced run that field equals the number of
//! traced events of its kind.
//!
//! The map from kind to field is an exhaustive `match` with no `_` arm,
//! so adding a trace kind does not compile until its counter is named
//! here. The scenarios below (faults, guard, watchdog, churn, overload,
//! stragglers, Byzantine, fleet) then check that each counter agrees with its trace, and
//! between them fire every kind at least once.

use spatio_temporal_split_learning::data::{ImageDataset, SyntheticCifar};
use spatio_temporal_split_learning::simnet::{
    AttackSpec, EndSystemId, FaultPlan, Link, SimDuration, SimTime, StarTopology, TraceKind,
    TraceLog,
};
use spatio_temporal_split_learning::split::{
    AggregationPolicy, AsyncReport, AsyncSplitTrainer, ComputeModel, CutPoint, DeadlineConfig,
    FleetConfig, FleetReport, FleetTrainer, GuardConfig, OverloadConfig, RetryPolicy,
    SchedulingPolicy, SplitConfig,
};
use spatio_temporal_split_learning::tensor::Tensor;

/// The report field that counts one trace kind.
enum Counter {
    /// A per-run `AsyncReport` event counter.
    Run(fn(&AsyncReport) -> u64),
    /// An `AsyncReport` total over the trainer's lifetime.
    Lifetime(fn(&AsyncReport) -> u64),
    /// A lifetime send counter: every traced event was one send, but a
    /// send that is lost, garbled or delivered to a crashed end-system
    /// is never traced, so the trace count is a lower bound.
    Sends(fn(&AsyncReport) -> u64),
    /// A `FleetReport` event counter.
    Fleet(fn(&FleetReport) -> u64),
}

fn counter(kind: TraceKind) -> Counter {
    use Counter::{Fleet, Lifetime, Run, Sends};
    match kind {
        TraceKind::Arrival => Sends(|r| r.comm.uplink_messages),
        TraceKind::ServiceStart => Lifetime(|r| r.served_per_client.iter().sum()),
        TraceKind::GradientDelivered => Sends(|r| r.comm.downlink_messages),
        TraceKind::SchedulerDrop => Run(|r| r.scheduler_drops),
        TraceKind::NetworkDrop => Run(|r| r.network_drops),
        TraceKind::Retransmit => Run(|r| r.retransmits),
        TraceKind::RetryExhausted => Run(|r| r.retry_exhausted),
        TraceKind::ClientCrash => Run(|r| r.crash_events),
        TraceKind::ClientRecover => Run(|r| r.recovery_events),
        TraceKind::CheckpointSave => Run(|r| r.checkpoint_saves),
        TraceKind::CheckpointRestore => Run(|r| r.checkpoint_restores),
        TraceKind::PayloadCorrupted => Run(|r| r.corrupted_payloads),
        TraceKind::CorruptRejected => Run(|r| r.corrupted_rejected),
        TraceKind::AnomalyRejected => Run(|r| r.anomalies_rejected),
        TraceKind::Quarantine => Run(|r| r.quarantines),
        TraceKind::QuarantineRelease => Run(|r| r.quarantine_releases),
        TraceKind::QuarantineDrop => Run(|r| r.quarantine_drops),
        TraceKind::Rollback => Run(|r| r.rollbacks),
        TraceKind::SnapshotEmit => Run(|r| r.snapshots_emitted),
        TraceKind::JournalDrop => Run(|r| r.journal_dropped),
        TraceKind::ClientJoin => Run(|r| r.clients_joined),
        TraceKind::ClientLeave => Run(|r| r.clients_departed),
        TraceKind::ClientRejoin => Run(|r| r.rejoins),
        TraceKind::IngressShed => Run(|r| r.batches_shed),
        TraceKind::BreakerTrip => Run(|r| r.breaker_trips),
        TraceKind::DeadlinePartialApply => Run(|r| r.deadline_partial_applies),
        TraceKind::AttackInjected => Run(|r| r.attacks_injected),
        TraceKind::RobustApply => Run(|r| r.robust_applies),
        TraceKind::RobustOutlier => Run(|r| r.robust_outliers),
        TraceKind::CohortStep => Fleet(|r| r.cohort_steps),
    }
}

fn count(trace: &TraceLog, kind: TraceKind) -> u64 {
    trace.count(kind) as u64
}

/// Checks every kind of a first-run async trace against its counter.
fn assert_async_accounting(name: &str, trace: &TraceLog, r: &AsyncReport) {
    for kind in TraceKind::ALL {
        let traced = count(trace, kind);
        match counter(kind) {
            Counter::Run(field) | Counter::Lifetime(field) => {
                assert_eq!(traced, field(r), "{name}: {kind:?}");
            }
            Counter::Sends(field) => assert!(traced <= field(r), "{name}: {kind:?}"),
            Counter::Fleet(_) => assert_eq!(traced, 0, "{name}: {kind:?}"),
        }
    }
}

fn data(n: usize, seed: u64) -> ImageDataset {
    SyntheticCifar::new(seed)
        .difficulty(0.06)
        .generate_sized(n, 16)
}

fn trainer(
    clients: usize,
    epochs: usize,
    links: Vec<Link>,
    compute: ComputeModel,
) -> AsyncSplitTrainer {
    let cfg = SplitConfig::tiny(CutPoint(1), clients)
        .epochs(epochs)
        .batch_size(8)
        .seed(4);
    AsyncSplitTrainer::new(
        cfg,
        &data(clients * 24, 5),
        StarTopology::new(links),
        SchedulingPolicy::Fifo,
        compute,
    )
    .unwrap()
}

fn wan(clients: usize) -> Vec<Link> {
    vec![Link::wan(5.0, 100.0); clients]
}

/// Builds one scenario's trainer.
type Scenario = fn() -> AsyncSplitTrainer;

/// Loss with a small retry budget, a crash window and checkpoints.
fn faults() -> AsyncSplitTrainer {
    let mut links = wan(2);
    links[0] = links[0].loss(0.5);
    let plan = FaultPlan::new().client_crash(
        EndSystemId(1),
        SimTime::from_millis(40),
        SimTime::from_millis(300),
    );
    trainer(2, 3, links, ComputeModel::default())
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(40),
            jitter_frac: 0.1,
            max_attempts: 2,
        })
        .with_auto_checkpoint(SimDuration::from_millis(25))
}

/// Wire corruption and a norm-exploding client under the guard, with a
/// tiny telemetry journal that must evict.
fn guard() -> AsyncSplitTrainer {
    let plan = FaultPlan::new().payload_corruption(
        EndSystemId(1),
        0.3,
        SimTime::ZERO,
        SimTime::from_millis(100_000),
    );
    let mut t = trainer(2, 4, wan(2), ComputeModel::default())
        .with_fault_plan(plan)
        .with_integrity_guard(GuardConfig {
            probation: SimDuration::from_millis(40),
            ..GuardConfig::default()
        })
        .with_telemetry(SimDuration::from_millis(50), 8);
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
    t
}

/// An absurd learning rate the health watchdog must roll back.
fn watchdog() -> AsyncSplitTrainer {
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(3)
        .batch_size(8)
        .learning_rate(50.0)
        .seed(21);
    AsyncSplitTrainer::new(
        cfg,
        &data(48, 5),
        StarTopology::new(wan(2)),
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_auto_checkpoint(SimDuration::from_millis(50))
    .with_integrity_guard(GuardConfig {
        warmup_steps: 2,
        ..GuardConfig::default()
    })
}

/// A scheduled join, a leave and a rejoin, with a warm-start checkpoint.
fn churn() -> AsyncSplitTrainer {
    let plan = FaultPlan::new()
        .client_join(EndSystemId(2), SimTime::from_millis(100))
        .client_leave(EndSystemId(0), SimTime::from_millis(150))
        .client_rejoin(EndSystemId(0), SimTime::from_millis(400));
    trainer(3, 3, wan(3), ComputeModel::default())
        .with_fault_plan(plan)
        .with_auto_checkpoint(SimDuration::from_millis(50))
}

/// A nearly stalled server behind a 1-slot ingress queue, and a dead
/// link that trips its circuit breaker.
fn overload() -> AsyncSplitTrainer {
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(1),
        server_batch: SimDuration::from_millis(500),
        retry_timeout: SimDuration::from_millis(100),
    };
    let plan = FaultPlan::new().loss_surge(
        EndSystemId(0),
        0.97,
        SimTime::ZERO,
        SimTime::from_millis(300),
    );
    trainer(3, 1, vec![Link::wan(1.0, 100.0); 3], compute)
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy {
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(30),
            jitter_frac: 0.1,
            max_attempts: 30,
        })
        .with_overload_control(OverloadConfig {
            queue_capacity: 1,
            bucket_rate: 1_000,
            bucket_burst: 1_000,
            ..OverloadConfig::default()
        })
}

/// A slow server with a staleness policy, and a far straggler that
/// round deadlines give up on.
fn stragglers() -> AsyncSplitTrainer {
    let compute = ComputeModel {
        client_batch: SimDuration::from_millis(1),
        server_batch: SimDuration::from_millis(400),
        retry_timeout: SimDuration::from_millis(100),
    };
    let cfg = SplitConfig::tiny(CutPoint(1), 3)
        .epochs(2)
        .batch_size(8)
        .seed(4);
    let policy = SchedulingPolicy::StalenessDrop {
        max_age: SimDuration::from_millis(50),
    };
    let mut links = vec![Link::wan(1.0, 100.0); 3];
    links[2] = Link::wan(2_000.0, 100.0);
    AsyncSplitTrainer::new(cfg, &data(72, 5), StarTopology::new(links), policy, compute)
        .unwrap()
        .with_round_deadlines(DeadlineConfig {
            round_ms: 100,
            min_quorum_frac: 0.3,
        })
}

/// A sign-flipping attacker against the attack-aware robust stack.
fn byzantine() -> AsyncSplitTrainer {
    let plan = FaultPlan::new().adversaries(
        1,
        AttackSpec::SignFlip { gain: 4.0 },
        SimTime::ZERO,
        SimTime::from_millis(100_000_000),
    );
    let cfg = SplitConfig::tiny(CutPoint(1), 5)
        .epochs(3)
        .batch_size(8)
        .learning_rate(0.05)
        .seed(33);
    AsyncSplitTrainer::new(
        cfg,
        &data(200, 9),
        StarTopology::new(wan(5)),
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan)
    .with_integrity_guard(GuardConfig {
        loss_blowup: 100.0,
        probation: SimDuration::from_millis(600_000),
        outlier_factor: 8.0,
        quarantine_threshold: 4.0,
        ..GuardConfig::default()
    })
    .with_robust_aggregation(AggregationPolicy::CoordinateMedian, 5)
}

#[test]
fn every_trace_kind_is_counted_by_its_report_field() {
    let scenarios: [(&str, Scenario); 7] = [
        ("faults", faults),
        ("guard", guard),
        ("watchdog", watchdog),
        ("churn", churn),
        ("overload", overload),
        ("stragglers", stragglers),
        ("byzantine", byzantine),
    ];
    let test = data(16, 6);
    let mut fired = [0u64; TraceKind::ALL.len()];
    for (name, build) in scenarios {
        let mut t = build();
        t.enable_trace();
        let r = t.run(&test);
        let trace = t.trace().unwrap();
        assert_async_accounting(name, trace, &r);
        for kind in TraceKind::ALL {
            fired[kind.index()] += count(trace, kind);
        }
    }

    let config = FleetConfig {
        cohorts: 4,
        sends_per_client: 2,
        arrivals_per_step: 25,
        ..FleetConfig::smoke(100)
    };
    let mut fleet = FleetTrainer::new(config, &data(64, 5)).unwrap();
    let r = fleet.run(&test);
    for kind in TraceKind::ALL {
        let traced = count(fleet.trace(), kind);
        match counter(kind) {
            Counter::Fleet(field) => assert_eq!(traced, field(&r), "fleet: {kind:?}"),
            Counter::Run(_) | Counter::Lifetime(_) | Counter::Sends(_) => {
                assert_eq!(traced, 0, "fleet: {kind:?}")
            }
        }
        fired[kind.index()] += traced;
    }

    let silent: Vec<TraceKind> = TraceKind::ALL
        .into_iter()
        .filter(|k| fired[k.index()] == 0)
        .collect();
    assert!(silent.is_empty(), "no scenario fired {silent:?}");
}

#[test]
fn a_second_run_reports_per_run_counters() {
    let test = data(16, 6);
    let mut t = faults();
    t.enable_trace();
    t.run(&test);
    let first: Vec<u64> = TraceKind::ALL
        .into_iter()
        .map(|k| count(t.trace().unwrap(), k))
        .collect();
    let r = t.run(&test);
    let trace = t.trace().unwrap();
    let mut checked = 0;
    for kind in TraceKind::ALL {
        let total = count(trace, kind);
        match counter(kind) {
            Counter::Run(field) => {
                assert_eq!(field(&r), total - first[kind.index()], "{kind:?}");
                checked += u64::from(field(&r) > 0);
            }
            Counter::Lifetime(field) => assert_eq!(field(&r), total, "{kind:?}"),
            Counter::Sends(field) => assert!(total <= field(&r), "{kind:?}"),
            Counter::Fleet(_) => assert_eq!(total, 0, "{kind:?}"),
        }
    }
    assert!(r.network_drops > 0 && r.checkpoint_saves > 0, "{r:?}");
    assert!(
        checked >= 4,
        "the second run must exercise several counters"
    );
}
