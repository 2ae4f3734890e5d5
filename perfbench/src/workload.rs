//! The three workloads: their sizes, inputs, trainers and correctness
//! gates.
//!
//! Every workload is a closed loop: each end-system (or cohort replica)
//! waits for its gradient before it sends its next batch. A run builds
//! the inputs from the seed, constructs the trainer (together: set-up),
//! trains a fixed amount of work and evaluates. The same seed gives the
//! same inputs and, by the workspace's determinism contract, the same
//! outcome at any thread count.

use std::time::Instant;

use stsl_data::{ImageDataset, SyntheticCifar};
use stsl_simnet::{FaultPlan, Link, SimDuration, SimTime, StarTopology};
use stsl_split::{
    AsyncReport, AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, FleetConfig, FleetReport,
    FleetTrainer, GuardConfig, RetryPolicy, SchedulingPolicy, SpatioTemporalTrainer, SplitConfig,
};
use stsl_tensor::init::derive_seed;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synchronous Table I epoch on the paper CNN.
    SyncPaper,
    /// Asynchronous run over lossy WAN links with the fault plane on.
    AsyncFaults,
    /// 100k-end-system fleet simulation.
    Fleet100k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SyncPaper,
        Workload::AsyncFaults,
        Workload::Fleet100k,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncPaper => "sync-paper",
            Workload::AsyncFaults => "async-faults",
            Workload::Fleet100k => "fleet-100k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a run is: `Full` is what the benchmark measures, `Smoke`
/// is a seconds-long miniature of the same code path for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's stated sizes.
    Full,
    /// A miniature for tests.
    Smoke,
}

/// The sizes of one workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Network architecture.
    pub arch: CnnArch,
    /// Cut depth.
    pub cut: CutPoint,
    /// End-systems (cohort replicas for the fleet).
    pub clients: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Training samples.
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Simulated fleet size (fleet only).
    pub fleet_clients: usize,
    /// Admitted arrivals per real cohort step (fleet only).
    pub arrivals_per_step: u64,
}

impl Spec {
    /// The sizes of `workload` at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Spec {
        let full = scale == Scale::Full;
        let (arch, clients, batch) = match (workload, full) {
            (Workload::Fleet100k, _) => (CnnArch::tiny(), 8, 8),
            (_, true) => (CnnArch::paper(), 4, 32),
            (_, false) => (CnnArch::tiny(), 2, 8),
        };
        Spec {
            workload,
            arch,
            cut: CutPoint(1),
            clients,
            batch,
            // The fleet uses the data sizes of the repository's own fleet
            // sweep (E16).
            train_n: match (workload, full) {
                (_, false) => 64,
                (Workload::Fleet100k, true) => 320,
                _ => 512,
            },
            test_n: match (workload, full) {
                (_, false) => 32,
                (Workload::Fleet100k, true) => 120,
                _ => 256,
            },
            fleet_clients: if full { 100_000 } else { 2_000 },
            arrivals_per_step: if full { 2_000 } else { 40 },
        }
    }

    /// Image side of the generated data.
    pub fn side(&self) -> usize {
        self.arch.image_side
    }

    /// Configuration of the synchronous and asynchronous trainers (and
    /// of the probes that stand in for them).
    pub fn split_config(&self, seed: u64) -> SplitConfig {
        SplitConfig::new(self.cut, self.clients)
            .arch(self.arch.clone())
            .batch_size(self.batch)
            .epochs(1)
            .seed(seed)
    }

    /// The fleet configuration, spelled out in full. `FleetConfig::smoke`
    /// is not used as is: its `arrivals_per_step` of `clients / 2`
    /// trains zero steps at 1k clients and above (an open defect of the
    /// preset), so the fleet row would report the accuracy of an
    /// untrained model.
    pub fn fleet_config(&self, seed: u64) -> FleetConfig {
        FleetConfig {
            clients: self.fleet_clients,
            cohorts: self.clients,
            arch: self.arch.clone(),
            cut: self.cut,
            batch_size: self.batch,
            learning_rate: 0.05,
            seed,
            sends_per_client: 4,
            arrivals_per_step: self.arrivals_per_step,
            think_us: 200_000,
            serve_interval_us: 2_000,
            ingress_batch: 64,
            queue_capacity: 4_096,
            admission_rate: 20,
            admission_burst: 4,
            step_service_us: 3_000,
            snapshot_every_us: 100_000,
            leave_permille: 50,
        }
    }

    /// Heterogeneous WAN links: end-system `i` at `5 + 10·i` ms, 100 Mb/s.
    pub fn link(&self, i: usize) -> Link {
        Link::wan(5.0 + 10.0 * i as f64, 100.0)
    }

    /// The star topology of the asynchronous workload.
    pub fn topology(&self) -> StarTopology {
        StarTopology::new((0..self.clients).map(|i| self.link(i)).collect())
    }

    /// The fault plan of the workload: payload corruption at rate 0.5 on
    /// every link for the asynchronous workload, nothing otherwise.
    pub fn fault_plan(&self) -> FaultPlan {
        match self.workload {
            Workload::AsyncFaults => FaultPlan::new().payload_corruption_all(
                self.clients,
                0.5,
                SimTime::ZERO,
                SimTime::from_micros(u64::MAX),
            ),
            _ => FaultPlan::new(),
        }
    }

    /// Retransmission policy of the asynchronous workload.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        }
    }
}

/// The training set of `spec` from `seed`.
pub fn generate_train(spec: &Spec, seed: u64) -> ImageDataset {
    SyntheticCifar::new(derive_seed(seed, 1)).generate_sized(spec.train_n, spec.side())
}

/// The test set of `spec` from `seed`.
pub fn generate_test(spec: &Spec, seed: u64) -> ImageDataset {
    SyntheticCifar::new(derive_seed(seed, 2)).generate_sized(spec.test_n, spec.side())
}

/// A constructed trainer, ready to run.
#[derive(Debug)]
pub enum Trainer {
    /// `sync-paper`.
    Sync(Box<SpatioTemporalTrainer>),
    /// `async-faults`.
    Async(Box<AsyncSplitTrainer>),
    /// `fleet-100k`.
    Fleet(Box<FleetTrainer>),
}

/// Builds the trainer of `spec` on `train`.
///
/// # Panics
///
/// Panics if the workload's own configuration is rejected, which is a
/// defect of the benchmark.
pub fn build(spec: &Spec, seed: u64, train: &ImageDataset) -> Trainer {
    match spec.workload {
        Workload::SyncPaper => Trainer::Sync(Box::new(
            SpatioTemporalTrainer::new(spec.split_config(seed), train).expect("sync-paper config"),
        )),
        Workload::AsyncFaults => {
            let trainer = AsyncSplitTrainer::new(
                spec.split_config(seed),
                train,
                spec.topology(),
                SchedulingPolicy::RoundRobin,
                ComputeModel::default(),
            )
            .expect("async-faults config")
            .with_fault_plan(spec.fault_plan())
            .with_retry_policy(spec.retry_policy())
            .with_integrity_guard(GuardConfig::default())
            .with_auto_checkpoint(SimDuration::from_millis(200))
            .with_telemetry(SimDuration::from_millis(100), 1024);
            Trainer::Async(Box::new(trainer))
        }
        Workload::Fleet100k => Trainer::Fleet(Box::new(
            FleetTrainer::new(spec.fleet_config(seed), train).expect("fleet-100k config"),
        )),
    }
}

/// What one run produced. Everything but the wall-clock fields is
/// deterministic given the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Training samples the server model consumed.
    pub samples: u64,
    /// Distinct training batches sent to the server.
    pub batches: u64,
    /// Batches lost for good.
    pub failed: u64,
    /// Simulation events processed (fleet only; 0 otherwise).
    pub events: u64,
    /// Test accuracy after the run.
    pub final_accuracy: f64,
    /// Simulated seconds to finish (simulated workloads).
    pub sim_s: Option<f64>,
    /// Mean arrival-queue wait in simulated milliseconds (async only).
    pub sim_queue_wait_ms: Option<f64>,
    /// Share of the work the system refused or lost.
    pub fail_ratio: Option<f64>,
    /// Wire frames coded (every corrupted frame is encoded and decoded).
    pub wire_frames: u64,
    /// Auto-checkpoints taken.
    pub checkpoint_saves: u64,
    /// Telemetry snapshots emitted.
    pub snapshots: u64,
    /// Real cohort training steps (fleet only).
    pub cohort_steps: u64,
    /// Every report counter, rendered; equal strings mean bitwise-equal
    /// outcomes.
    pub fingerprint: String,
    /// Workload-specific correctness checks that failed.
    pub gate_failures: Vec<String>,
}

/// Trains `trainer` for the workload's fixed amount of work and
/// evaluates it on `test`.
pub fn run(spec: &Spec, trainer: &mut Trainer, test: &ImageDataset) -> Outcome {
    match trainer {
        Trainer::Sync(t) => {
            t.run_epoch(0);
            let per_client = t.evaluate_per_client(test);
            let final_accuracy = stsl_tensor::mean_f32(&per_client) as f64;
            let expected: Vec<u64> = t
                .clients_mut()
                .iter()
                .map(|c| c.batches_per_epoch() as u64)
                .collect();
            let served = t.server_mut().served_per_client().to_vec();
            let mut gate_failures = Vec::new();
            if served != expected {
                gate_failures.push(format!(
                    "served_per_client {served:?} != expected {expected:?}"
                ));
            }
            let batches: u64 = served.iter().sum();
            Outcome {
                samples: batches * spec.batch as u64,
                batches,
                failed: 0,
                events: 0,
                final_accuracy,
                sim_s: None,
                sim_queue_wait_ms: None,
                fail_ratio: None,
                wire_frames: 0,
                checkpoint_saves: 0,
                snapshots: 0,
                cohort_steps: 0,
                fingerprint: format!("{per_client:?} {served:?} {:?}", t.comm()),
                gate_failures,
            }
        }
        Trainer::Async(t) => {
            let expected: Vec<u64> = t
                .clients_mut()
                .iter()
                .map(|c| c.batches_per_epoch() as u64)
                .collect();
            let r = t.run(test);
            async_outcome(spec, &r, &expected)
        }
        Trainer::Fleet(t) => fleet_outcome(spec, &t.run(test)),
    }
}

fn async_outcome(spec: &Spec, r: &AsyncReport, expected: &[u64]) -> Outcome {
    let served: u64 = r.served_per_client.iter().sum();
    let sent = served + r.batches_lost;
    let mut gate_failures = Vec::new();
    if r.corrupted_rejected != r.corrupted_payloads {
        gate_failures.push(format!(
            "guard let corruption through: {} of {} corrupted frames rejected",
            r.corrupted_rejected, r.corrupted_payloads
        ));
    }
    if r.corrupted_payloads == 0 {
        gate_failures.push("no frame was corrupted: the fault plane did not run".into());
    }
    if r.served_per_client != expected {
        gate_failures.push(format!(
            "served_per_client {:?} != expected {expected:?}",
            r.served_per_client
        ));
    }
    if r.checkpoint_saves == 0 || r.snapshots_emitted == 0 {
        gate_failures.push("auto-checkpoint or telemetry did not run".into());
    }
    Outcome {
        samples: served * spec.batch as u64,
        batches: sent,
        failed: r.batches_lost,
        events: 0,
        final_accuracy: r.final_accuracy as f64,
        sim_s: Some(r.sim_seconds),
        sim_queue_wait_ms: Some(r.mean_queue_wait_ms),
        fail_ratio: Some(r.batches_lost as f64 / sent.max(1) as f64),
        wire_frames: r.corrupted_payloads,
        checkpoint_saves: r.checkpoint_saves,
        snapshots: r.snapshots_emitted,
        cohort_steps: 0,
        fingerprint: format!("{r:?}"),
        gate_failures,
    }
}

fn fleet_outcome(spec: &Spec, r: &FleetReport) -> Outcome {
    let mut gate_failures = Vec::new();
    if r.cohort_steps < r.cohorts as u64 {
        gate_failures.push(format!(
            "fleet trained {} cohort steps across {} cohorts: the accuracy row is untrained",
            r.cohort_steps, r.cohorts
        ));
    }
    if r.events_processed == 0 || r.sends_attempted == 0 {
        gate_failures.push("the fleet simulation processed no events".into());
    }
    Outcome {
        samples: r.cohort_steps * spec.batch as u64,
        batches: r.cohort_steps,
        failed: 0,
        events: r.events_processed,
        final_accuracy: r.final_accuracy as f64,
        sim_s: Some(r.sim_seconds),
        sim_queue_wait_ms: None,
        fail_ratio: Some((r.admission_rejected + r.shed) as f64 / r.sends_attempted.max(1) as f64),
        wire_frames: 0,
        checkpoint_saves: 0,
        snapshots: r.snapshots_emitted,
        cohort_steps: r.cohort_steps,
        fingerprint: format!("{r:?}"),
        gate_failures,
    }
}

/// One timed run: set-up, then training and evaluation.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Seconds spent generating inputs and constructing the trainer.
    pub setup_s: f64,
    /// Seconds spent training and evaluating.
    pub run_s: f64,
    /// What the run produced.
    pub outcome: Outcome,
}

/// Sets up and runs `spec` once, timing both phases.
pub fn timed_run(spec: &Spec, seed: u64) -> Timed {
    let start = Instant::now();
    let train = generate_train(spec, seed);
    let test = generate_test(spec, seed);
    let mut trainer = build(spec, seed, &train);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcome = run(spec, &mut trainer, &test);
    let run_s = start.elapsed().as_secs_f64();
    Timed {
        setup_s,
        run_s,
        outcome,
    }
}
