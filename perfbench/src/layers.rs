//! The traced run: per-layer metrics from spans around public calls.
//!
//! The run first replays the workload with spans (the synchronous round
//! loop is re-driven call by call through `EndSystem` and
//! `CentralServer`; the simulated workloads are timed around their
//! trainers' public entry points), paired with untraced repeats so the
//! tracing overhead shows. It then probes each layer at the workload's
//! shapes through that layer's public functions. Counts and shares are
//! the workload's own; a workload that does not use a layer reports 0
//! for them.

use std::collections::BTreeMap;
use std::time::Instant;

use stsl_data::{ImageDataset, Partition};
use stsl_nn::loss::{Loss, SoftmaxCrossEntropy};
use stsl_nn::optim::{Optimizer, Sgd};
use stsl_nn::Mode;
use stsl_parallel::{par_map_indexed, par_map_mut, with_threads, ChunkPolicy};
use stsl_simnet::{EndSystemId, EventQueue, QueueKind, SimTime};
use stsl_split::protocol::{crc32, ActivationMsg, BatchId, GradientMsg};
use stsl_split::{
    validate_update, ArrivalQueue, CentralServer, EndSystem, FleetJob, GuardConfig,
    SchedulingPolicy, SpatioTemporalTrainer, TokenBucket,
};
use stsl_telemetry::{MetricId, TelemetryHub};
use stsl_tensor::init::{derive_seed, rng_from_seed};
use stsl_tensor::ops::matmul::gemm;
use stsl_tensor::Tensor;

use crate::metrics::{Report, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workload::{
    build, generate_test, generate_train, run, timed_run, Spec, Trainer, Workload,
};

/// Result of the traced run.
#[derive(Debug)]
pub struct LayerRun {
    /// The per-layer metrics, in catalogue order, and the checks.
    pub report: Report,
    /// Untraced samples per second of each paired repeat.
    pub untraced_sps: Vec<f64>,
    /// Traced samples per second of each paired repeat.
    pub traced_sps: Vec<f64>,
}

/// Collects per-layer values with the per-call summaries behind them.
#[derive(Default)]
struct Collector {
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Collector {
    fn set(&mut self, name: &'static str, value: f64, detail: String) {
        self.values.insert(name, value);
        self.lines.push(format!("{name}: {value} ({detail})"));
    }

    /// A per-call timing: the median, with the summary as detail.
    fn timing(&mut self, name: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.set(name, s.p50, s.describe());
    }
}

/// Spends at least `min_s` seconds and `min_n` calls on `f`, returning
/// each call's duration in seconds.
fn repeat_timed(min_n: usize, min_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_n || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Times `blocks` blocks of `per_block` calls of `f`, returning the
/// mean nanoseconds per call of each block (single calls are too short
/// for the clock).
fn blocks_ns(blocks: usize, per_block: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut i = 0;
    (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_block {
                f(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / per_block as f64
        })
        .collect()
}

/// Builds the server and end-systems exactly as the workload's trainer
/// does, so the replay reproduces its outcome.
fn split_parts(spec: &Spec, seed: u64, train: &ImageDataset) -> (CentralServer, Vec<EndSystem>) {
    let fleet = spec.workload == Workload::Fleet100k;
    let cfg = spec.split_config(seed);
    let lr = spec.fleet_config(seed).learning_rate;
    let opt = || -> Box<dyn Optimizer> {
        if fleet {
            Box::new(Sgd::new(lr))
        } else {
            cfg.build_optimizer()
        }
    };
    let shards = Partition::Iid.split(train, spec.clients, derive_seed(seed, 7));
    let (_, server_model) = spec.arch.build_split(spec.cut, seed);
    let server = CentralServer::new(server_model, opt(), spec.clients);
    let clients = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let client_seed = derive_seed(seed, 1000 + i as u64);
            let (model, _) = spec.arch.build_split(spec.cut, client_seed);
            EndSystem::new(
                EndSystemId(i),
                model,
                shard,
                spec.batch,
                opt(),
                false,
                client_seed,
            )
            .with_smash_noise(cfg.smash_noise)
        })
        .collect();
    (server, clients)
}

/// One synchronous epoch, driven round by round like
/// `SpatioTemporalTrainer::run_epoch`: a parallel client forward
/// phase, the server serving arrivals in end-system order, and a
/// parallel gradient phase. Returns the batches served.
fn replay_sync_epoch(server: &mut CentralServer, clients: &mut [EndSystem], t: &mut Tracer) -> u64 {
    let fanout = ChunkPolicy::min_chunk(1);
    for c in clients.iter_mut() {
        c.begin_epoch(0);
    }
    let mut served = 0;
    while !clients.iter().all(EndSystem::epoch_finished) {
        let round = t.new_round();
        t.span("split.round", round, |t| {
            let msgs: Vec<Option<ActivationMsg>> = t.span("split.client_fwd", round, |t| {
                let out = par_map_mut(clients, fanout, |_, c| {
                    let s = Instant::now();
                    (c.next_batch(), s, Instant::now())
                });
                out.into_iter()
                    .map(|(m, s, e)| {
                        t.record("EndSystem::next_batch", round, None, s, e);
                        m
                    })
                    .collect()
            });
            let grads: Vec<Option<GradientMsg>> = t.span("split.server_step", round, |t| {
                msgs.iter()
                    .map(|m| {
                        let m = m.as_ref()?;
                        served += 1;
                        Some(t.span("CentralServer::process", round, |_| {
                            server.process(m).gradient
                        }))
                    })
                    .collect()
            });
            t.span("split.client_bwd", round, |t| {
                let out = par_map_mut(clients, fanout, |i, c| {
                    let s = Instant::now();
                    let r = grads[i].as_ref().map(|g| c.apply_gradient(g));
                    (r, s, Instant::now())
                });
                for (r, s, e) in out {
                    if let Some(r) = r {
                        r.expect("the replay answers every batch in order");
                        t.record("EndSystem::apply_gradient", round, None, s, e);
                    }
                }
            });
        });
    }
    served
}

/// `steps` cohort steps driven like `FleetTrainer`'s: one replica at a
/// time, forward, server step and gradient in series.
fn replay_cohort_steps(
    server: &mut CentralServer,
    replicas: &mut [EndSystem],
    steps: usize,
    t: &mut Tracer,
) {
    let mut epoch = vec![0u64; replicas.len()];
    for r in replicas.iter_mut() {
        r.begin_epoch(0);
    }
    for step in 0..steps {
        let c = step % replicas.len();
        let replica = &mut replicas[c];
        let round = t.new_round();
        t.span("split.round", round, |t| {
            let msg = t.span("split.client_fwd", round, |_| {
                replica.next_batch().or_else(|| {
                    epoch[c] += 1;
                    replica.begin_epoch(epoch[c]);
                    replica.next_batch()
                })
            });
            let msg = msg.expect("every cohort shard holds a batch");
            let grad = t.span("split.server_step", round, |_| {
                server.process(&msg).gradient
            });
            t.span("split.client_bwd", round, |_| replica.apply_gradient(&grad))
                .expect("the replay answers every batch in order");
        });
    }
}

/// Evaluates every end-system's encoder as the trainers do; returns the
/// mean accuracy.
fn replay_eval(
    server: &mut CentralServer,
    clients: &mut [EndSystem],
    test: &ImageDataset,
    batch: usize,
    t: &mut Tracer,
) -> f64 {
    let per: Vec<f32> = clients
        .iter_mut()
        .map(|c| {
            let round = t.new_round();
            t.span("split.eval", round, |_| {
                server.evaluate_with_encoder(test, batch, |x| c.encode(x))
            })
        })
        .collect();
    stsl_tensor::mean_f32(&per) as f64
}

/// What a traced repeat of the workload produced.
struct TracedRepeat {
    run_s: f64,
    samples: u64,
    batches: u64,
    failed: u64,
    final_accuracy: f64,
    /// The report fingerprint, for the workloads whose trainer runs as
    /// a whole.
    fingerprint: Option<String>,
    /// Simulation events: the fleet's own count, or the asynchronous
    /// trainer's trace-log records.
    events: u64,
}

/// One repeat of the workload with spans around every public call.
fn traced_workload(spec: &Spec, seed: u64, t: &mut Tracer, gen_us: &mut Vec<f64>) -> TracedRepeat {
    let round = t.new_round();
    let mut generate = |t: &mut Tracer, f: &dyn Fn(&Spec, u64) -> ImageDataset| {
        let s = Instant::now();
        let data = f(spec, seed);
        let e = Instant::now();
        t.record("SyntheticCifar::generate_sized", round, None, s, e);
        gen_us.push((e - s).as_secs_f64() * 1e6 / data.len().max(1) as f64);
        data
    };
    let (train, test) = t.span("inputs", round, |t| {
        (generate(t, &generate_train), generate(t, &generate_test))
    });
    if spec.workload == Workload::SyncPaper {
        let (mut server, mut clients) =
            t.span("trainer.build", round, |_| split_parts(spec, seed, &train));
        let start = Instant::now();
        let (served, acc) = t.span("run", round, |t| {
            let served = replay_sync_epoch(&mut server, &mut clients, t);
            (
                served,
                replay_eval(&mut server, &mut clients, &test, spec.batch.max(32), t),
            )
        });
        return TracedRepeat {
            run_s: start.elapsed().as_secs_f64(),
            samples: served * spec.batch as u64,
            batches: served,
            failed: 0,
            final_accuracy: acc,
            fingerprint: None,
            events: 0,
        };
    }
    let mut trainer = t.span("trainer.build", round, |_| build(spec, seed, &train));
    if let Trainer::Async(a) = &mut trainer {
        a.enable_trace();
    }
    let name = match trainer {
        Trainer::Async(_) => "AsyncSplitTrainer::run",
        _ => "FleetTrainer::run",
    };
    let start = Instant::now();
    let outcome = t.span(name, round, |_| run(spec, &mut trainer, &test));
    let run_s = start.elapsed().as_secs_f64();
    let events = match &trainer {
        Trainer::Async(a) => a.trace().map_or(0, |log| log.len() as u64),
        _ => outcome.events,
    };
    TracedRepeat {
        run_s,
        samples: outcome.samples,
        batches: outcome.batches,
        failed: outcome.failed,
        final_accuracy: outcome.final_accuracy,
        fingerprint: Some(outcome.fingerprint),
        events,
    }
}

/// Conv-lowered GEMM shapes `(m, k, n)` of the workload's network at its
/// batch size: `[out channels, in channels·9] · [in channels·9, batch·side²]`.
pub fn conv_shapes(spec: &Spec) -> Vec<(usize, usize, usize)> {
    let mut side = spec.arch.image_side;
    let mut in_c = spec.arch.in_channels;
    let mut out = Vec::new();
    for &f in &spec.arch.filters {
        out.push((f, in_c * 9, spec.batch * side * side));
        side /= 2;
        in_c = f;
    }
    out
}

/// Dense-layer GEMM shapes `(batch, in, out)` of the workload's network.
pub fn dense_shapes(spec: &Spec) -> Vec<(usize, usize, usize)> {
    let a = &spec.arch;
    vec![
        (spec.batch, a.flat_features(), a.dense_units),
        (spec.batch, a.dense_units, a.classes),
    ]
}

/// Multiply-add flops one training sample costs the whole network:
/// each GEMM runs once forward and twice backward (weight and input
/// gradients).
pub fn flops_per_sample(spec: &Spec) -> f64 {
    let per_batch: usize = conv_shapes(spec)
        .into_iter()
        .chain(dense_shapes(spec))
        .map(|(m, k, n)| 2 * m * k * n)
        .sum();
    3.0 * per_batch as f64 / spec.batch as f64
}

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7919 + salt) % 1000) as f32 / 1000.0 - 0.5)
        .collect()
}

/// GEMM throughput at the conv shapes and the worst parallel slowdown
/// over every kernel shape.
fn probe_gemm(spec: &Spec, threads: usize, c: &mut Collector, t: &mut Tracer) {
    let conv = conv_shapes(spec);
    let mut flops = 0.0;
    let mut secs = 0.0;
    let mut worst: (f64, String) = (0.0, String::new());
    for (idx, (m, k, n)) in conv.iter().copied().chain(dense_shapes(spec)).enumerate() {
        let a = filled(m * k, 1);
        let b = filled(k * n, 2);
        let mut at = |threads: usize| {
            let round = t.new_round();
            let s = Instant::now();
            let d = repeat_timed(3, 0.05, || {
                std::hint::black_box(with_threads(threads, || gemm(&a, &b, m, k, n)));
            });
            t.record("stsl_tensor::gemm", round, None, s, Instant::now());
            median(&d)
        };
        let (one, granted) = (at(1), at(threads));
        if idx < conv.len() {
            flops += (2 * m * k * n) as f64;
            secs += granted;
        }
        let ratio = granted / one;
        if ratio > worst.0 {
            worst = (
                ratio,
                format!(
                    "{m}x{k}x{n}: {:.3} ms at {threads} threads vs {:.3} ms at 1",
                    granted * 1e3,
                    one * 1e3
                ),
            );
        }
    }
    c.set(
        "tensor.gemm_gflops",
        flops / secs / 1e9,
        format!("{} conv-lowered shapes, median call each", conv.len()),
    );
    c.set(
        "tensor.flops_per_sample",
        flops_per_sample(spec),
        "analytic: forward plus two backward GEMMs".into(),
    );
    c.set("parallel.slowdown_max", worst.0, worst.1);
    let d = repeat_timed(2_000, 0.1, || {
        std::hint::black_box(par_map_indexed(threads, ChunkPolicy::min_chunk(1), |i| i));
    });
    let us: Vec<f64> = d.iter().map(|s| s * 1e6).collect();
    c.timing("parallel.dispatch_us", &us);
}

/// Forward and backward span names of a layer kind.
fn span_names(layer: &str) -> (&'static str, &'static str) {
    match layer {
        "conv2d" => ("nn.conv.fwd", "nn.conv.bwd"),
        "maxpool2d" | "avgpool2d" => ("nn.pool.fwd", "nn.pool.bwd"),
        "relu" => ("nn.relu.fwd", "nn.relu.bwd"),
        "dense" => ("nn.dense.fwd", "nn.dense.bwd"),
        _ => ("nn.other.fwd", "nn.other.bwd"),
    }
}

/// Per-layer-kind forward and backward time of the whole network on one
/// batch, layer by layer through `Sequential::visit_layers`, plus the
/// loss and the optimizer step. Each pass is one round; a metric is the
/// per-round sum over the layers of its kind.
fn probe_nn(spec: &Spec, seed: u64, train: &ImageDataset, c: &mut Collector, t: &mut Tracer) {
    let mut model = spec.arch.build(seed);
    let mut opt: Box<dyn Optimizer> = spec.split_config(seed).build_optimizer();
    let loss = SoftmaxCrossEntropy::new();
    let idx: Vec<usize> = (0..spec.batch.min(train.len())).collect();
    let (x, y) = train.batch(&idx);
    let layers = model.len();
    let first = t.spans().len();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 5 || (start.elapsed().as_secs_f64() < 1.0 && passes < 200) {
        let round = t.new_round();
        t.span("nn.pass", round, |t| {
            model.zero_grads();
            let mut a = x.clone();
            model.visit_layers(&mut |layer| {
                let s = Instant::now();
                a = layer.forward(&a, Mode::Train);
                t.record(span_names(layer.name()).0, round, None, s, Instant::now());
            });
            let out = t.span("nn.loss", round, |_| loss.forward(&a, &y));
            let mut g = out.grad;
            for j in (0..layers).rev() {
                let mut at = 0;
                model.visit_layers(&mut |layer| {
                    if at == j {
                        let s = Instant::now();
                        g = layer.backward(&g);
                        t.record(span_names(layer.name()).1, round, None, s, Instant::now());
                    }
                    at += 1;
                });
            }
            t.span("nn.optim", round, |_| model.step(opt.as_mut()));
        });
        passes += 1;
    }
    let sums = per_round_ms(t, first);
    for (metric, span) in [
        ("nn.conv.fwd_ms", "nn.conv.fwd"),
        ("nn.conv.bwd_ms", "nn.conv.bwd"),
        ("nn.pool.fwd_ms", "nn.pool.fwd"),
        ("nn.pool.bwd_ms", "nn.pool.bwd"),
        ("nn.relu.fwd_ms", "nn.relu.fwd"),
        ("nn.relu.bwd_ms", "nn.relu.bwd"),
        ("nn.dense.fwd_ms", "nn.dense.fwd"),
        ("nn.dense.bwd_ms", "nn.dense.bwd"),
        ("nn.loss_ms", "nn.loss"),
        ("nn.optim_ms", "nn.optim"),
    ] {
        c.timing(metric, sums.get(span).map_or(&[][..], Vec::as_slice));
    }
}

/// For every span name recorded from index `first` on, the per-round
/// sums of its durations in milliseconds, in round order.
fn per_round_ms(t: &Tracer, first: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in &t.spans()[first..] {
        *by.entry(s.name).or_default().entry(s.round).or_default() += s.ns() as f64 / 1e6;
    }
    by.into_iter()
        .map(|(k, v)| (k, v.into_values().collect()))
        .collect()
}

/// The workload's smashed-activation message: what crosses the wire.
fn activation_msg(spec: &Spec) -> ActivationMsg {
    let dims = spec.arch.cut_dims(spec.cut, spec.batch);
    let len: usize = dims.iter().product();
    ActivationMsg {
        from: EndSystemId(0),
        batch_id: BatchId { epoch: 0, batch: 0 },
        activations: Tensor::from_vec(filled(len, 3), dims),
        targets: (0..spec.batch).map(|i| i % 10).collect(),
    }
}

/// Wire codec and CRC throughput on one activation frame, and the
/// guard's validation of it. Returns the codec seconds per frame.
fn probe_wire(spec: &Spec, c: &mut Collector, failures: &mut Vec<String>) -> f64 {
    let msg = activation_msg(spec);
    let bytes = msg.encode();
    let mb = bytes.as_ref().len() as f64 / 1e6;
    let enc = repeat_timed(20, 0.2, || {
        std::hint::black_box(msg.encode());
    });
    let mut decoded_ok = true;
    let dec = repeat_timed(20, 0.2, || {
        decoded_ok &= ActivationMsg::decode(bytes.clone()).as_ref() == Ok(&msg);
    });
    if !decoded_ok {
        failures.push("wire: a decoded frame differs from the encoded message".into());
    }
    let crc = repeat_timed(20, 0.1, || {
        std::hint::black_box(crc32(bytes.as_ref()));
    });
    let detail = |d: &[f64]| {
        format!(
            "{:.3} MB frame; per call {}",
            mb,
            Summary::of(&ms(d)).describe()
        )
    };
    c.set("wire.encode_mb_s", mb / median(&enc), detail(&enc));
    c.set("wire.decode_mb_s", mb / median(&dec), detail(&dec));
    c.set("wire.crc_mb_s", mb / median(&crc), detail(&crc));
    let max_rms = GuardConfig::default().max_activation_rms;
    let guard = repeat_timed(50, 0.1, || {
        std::hint::black_box(validate_update(&msg.activations, max_rms).is_ok());
    });
    c.timing(
        "guard.validate_us",
        &guard.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
    median(&enc) + median(&dec)
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// Capturing a full deployment checkpoint at the workload's shapes.
fn probe_checkpoint(spec: &Spec, seed: u64, train: &ImageDataset, c: &mut Collector) {
    let mut trainer =
        SpatioTemporalTrainer::new(spec.split_config(seed), train).expect("probe config");
    let d = repeat_timed(10, 0.2, || {
        std::hint::black_box(trainer.checkpoint());
    });
    c.timing("checkpoint.capture_ms", &ms(&d));
}

/// Arrival-queue push and pop at the workload's depth, and admission
/// token-bucket takes.
fn probe_sched(spec: &Spec, c: &mut Collector) {
    let fleet = spec.workload == Workload::Fleet100k;
    let cfg = spec.fleet_config(0);
    let (policy, capacity) = if fleet {
        (SchedulingPolicy::Fifo, Some(cfg.queue_capacity))
    } else {
        (SchedulingPolicy::RoundRobin, None)
    };
    let mut q = ArrivalQueue::<FleetJob>::new(policy, spec.clients);
    if let Some(cap) = capacity {
        q = q.with_capacity(cap);
    }
    let job = |i: usize| FleetJob {
        from: EndSystemId(i),
        cohort: (i % spec.clients) as u32,
    };
    let mut now = 0u64;
    let depth = capacity.unwrap_or(spec.clients);
    for i in 0..depth {
        q.push(SimTime::from_micros(i as u64), job(i));
    }
    let per_block = 64;
    let mut push = Vec::new();
    let mut pop = Vec::new();
    for _ in 0..200 {
        push.extend(blocks_ns(1, per_block, |i| {
            now += 1;
            if capacity.is_some() {
                std::hint::black_box(q.push_shed(SimTime::from_micros(now), job(i)));
            } else {
                q.push(SimTime::from_micros(now), job(i));
            }
        }));
        pop.extend(blocks_ns(1, per_block, |_| {
            now += 1;
            std::hint::black_box(q.pop(SimTime::from_micros(now)));
        }));
    }
    c.timing("sched.push_ns", &push);
    c.timing("sched.pop_ns", &pop);
    let mut bucket = TokenBucket::new(cfg.admission_rate, cfg.admission_burst);
    let admit = blocks_ns(200, 256, |i| {
        std::hint::black_box(bucket.try_take(SimTime::from_micros(i as u64 * 10_000)));
    });
    c.timing("sched.admit_ns", &admit);
}

/// Event-queue schedule and pop in steady state (each pop followed by a
/// schedule) at the workload's pending depth, for both queue kinds; the
/// metrics carry the active kind. Also link transfers through the
/// workload's fault plan.
fn probe_simnet(spec: &Spec, seed: u64, c: &mut Collector, t: &mut Tracer) {
    let active = QueueKind::active();
    let fleet = spec.workload == Workload::Fleet100k;
    let depth = if fleet {
        spec.fleet_clients
    } else {
        16 * spec.clients
    };
    let horizon = spec.fleet_config(seed).think_us * 4;
    let offset = |i: usize| 1 + derive_seed(seed, 7_000_000 + i as u64) % horizon;
    let mut kinds = vec![active];
    kinds.extend(
        [QueueKind::Calendar, QueueKind::Reference]
            .into_iter()
            .filter(|k| *k != active),
    );
    for kind in kinds {
        let round = t.new_round();
        let s = Instant::now();
        let mut q = EventQueue::<u64>::with_kind(kind);
        for i in 0..depth {
            q.schedule(SimTime::from_micros(offset(i)), i as u64);
        }
        let (mut sched, mut pop) = (Vec::new(), Vec::new());
        let mut last = SimTime::ZERO;
        for _ in 0..200 {
            pop.extend(blocks_ns(1, 256, |_| {
                if let Some((at, _)) = q.pop() {
                    last = at;
                }
            }));
            sched.extend(blocks_ns(1, 256, |i| {
                q.schedule(
                    SimTime::from_micros(last.as_micros() + offset(depth + i)),
                    i as u64,
                );
            }));
        }
        t.record("stsl_simnet::EventQueue", round, None, s, Instant::now());
        if kind == active {
            c.timing("simnet.schedule_ns", &sched);
            c.timing("simnet.pop_ns", &pop);
        }
        c.lines.push(format!(
            "simnet {} queue at depth {depth}: schedule {} | pop {}",
            kind.name(),
            Summary::of(&sched).describe(),
            Summary::of(&pop).describe()
        ));
    }
    let plan = spec.fault_plan();
    let link = spec.link(0);
    let bytes = activation_msg(spec).encoded_len();
    let mut rng = rng_from_seed(derive_seed(seed, 99));
    let transfer = blocks_ns(200, 256, |i| {
        let at = SimTime::from_micros(i as u64 * 1_000);
        std::hint::black_box(plan.transfer_through(&link, EndSystemId(0), bytes, at, &mut rng));
    });
    c.timing("simnet.transfer_ns", &transfer);
}

/// Telemetry recording and snapshots over the workload's actors.
fn probe_telemetry(spec: &Spec, c: &mut Collector) {
    let mut hub = TelemetryHub::new(1024);
    let actors = spec.clients as u64;
    let record = blocks_ns(200, 256, |i| {
        let i = i as u64;
        hub.record(MetricId::QueueDepth, i % actors, i % 97);
        hub.record(MetricId::ServiceTime, i % actors, 3_000 + i % 1_000);
    });
    let per_record: Vec<f64> = record.iter().map(|ns| ns / 2.0).collect();
    c.timing("telemetry.record_ns", &per_record);
    let mut at = 0;
    let snap = repeat_timed(200, 0.05, || {
        at += 100_000;
        std::hint::black_box(hub.emit_snapshot(at));
    });
    c.timing(
        "telemetry.snapshot_us",
        &snap.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
}

/// The traced run of `spec`: paired untraced and traced repeats for at
/// least half of `seconds`, then the layer probes.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, threads: usize, t: &mut Tracer) -> LayerRun {
    let mut c = Collector::default();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced_sps = Vec::new();
    let mut traced_sps = Vec::new();
    let mut traced_run_s = Vec::new();
    let mut gen_us = Vec::new();
    let mut last_traced = None;
    let start = Instant::now();
    with_threads(threads, || {
        while untraced_sps.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
            // Alternate which side runs first, so an order effect (a warm
            // allocator, say) does not masquerade as tracing overhead.
            let traced_first = untraced_sps.len() % 2 == 1;
            let first = traced_first.then(|| traced_workload(spec, seed, t, &mut gen_us));
            let untraced = timed_run(spec, seed);
            let traced = match first {
                Some(traced) => traced,
                None => traced_workload(spec, seed, t, &mut gen_us),
            };
            let u = &untraced.outcome;
            let same = match &traced.fingerprint {
                Some(f) => *f == u.fingerprint,
                None => traced.final_accuracy == u.final_accuracy && traced.samples == u.samples,
            };
            if !same {
                failures.push("the traced repeat did not reproduce the untraced outcome".into());
            }
            failures.extend(u.gate_failures.iter().cloned());
            attempted += u.batches + traced.batches;
            failed += u.failed + traced.failed;
            untraced_sps.push(u.samples as f64 / untraced.run_s);
            traced_sps.push(traced.samples as f64 / traced.run_s);
            traced_run_s.push(traced.run_s);
            last_traced = Some((traced, untraced.outcome));
        }
    });
    let (traced, outcome) = last_traced.expect("at least one pair ran");
    failures.dedup();
    let wall = median(&traced_run_s);

    let train = generate_train(spec, seed);
    let test = generate_test(spec, seed);
    with_threads(threads, || {
        // Split-layer rounds: the sync workload's traced replay already
        // holds them; the others replay rounds of their own shape.
        match spec.workload {
            Workload::SyncPaper => {}
            Workload::AsyncFaults => {
                let (mut server, mut clients) = split_parts(spec, seed, &train);
                replay_sync_epoch(&mut server, &mut clients, t);
                replay_eval(&mut server, &mut clients, &test, spec.batch.max(32), t);
            }
            Workload::Fleet100k => {
                let (mut server, mut replicas) = split_parts(spec, seed, &train);
                replay_cohort_steps(&mut server, &mut replicas, 16 * spec.clients, t);
                replay_eval(&mut server, &mut replicas, &test, spec.batch, t);
            }
        }
        probe_gemm(spec, threads, &mut c, t);
        probe_nn(spec, seed, &train, &mut c, t);
        let codec_s = probe_wire(spec, &mut c, &mut failures);
        c.set(
            "wire.frames",
            outcome.wire_frames as f64,
            "frames the workload coded".into(),
        );
        c.set(
            "wire.share",
            outcome.wire_frames as f64 * codec_s / wall,
            format!(
                "{} frames x {:.3} ms codec / {wall:.3} s traced wall",
                outcome.wire_frames,
                codec_s * 1e3
            ),
        );
        probe_checkpoint(spec, seed, &train, &mut c);
        c.set(
            "checkpoint.saves",
            outcome.checkpoint_saves as f64,
            "auto-checkpoints the workload took".into(),
        );
        probe_sched(spec, &mut c);
        probe_simnet(spec, seed, &mut c, t);
        c.set(
            "simnet.events",
            traced.events as f64,
            "simulation events of the traced repeat".into(),
        );
        probe_telemetry(spec, &mut c);
        c.set(
            "telemetry.snapshots",
            outcome.snapshots as f64,
            "snapshots the workload emitted".into(),
        );
    });

    c.timing("data.gen_us_per_sample", &gen_us);
    c.timing("split.client_fwd_ms", &t.durations_ms("split.client_fwd"));
    c.timing("split.server_step_ms", &t.durations_ms("split.server_step"));
    c.timing("split.client_bwd_ms", &t.durations_ms("split.client_bwd"));
    c.timing("split.eval_ms", &t.durations_ms("split.eval"));
    c.timing("split.round_self_ms", &t.self_ms("split.round"));
    if spec.workload == Workload::Fleet100k {
        // Compute is the cohort steps plus evaluating every cohort's
        // encoder; the rest of the wall is the simulation.
        let steps = outcome.cohort_steps as f64;
        let step = Summary::of(&t.durations_ms("split.round"));
        let eval_ms = median(&t.durations_ms("split.eval")) * spec.clients as f64;
        c.set("fleet.step_ms", step.p50, step.describe());
        c.set(
            "fleet.cohort_steps",
            steps,
            "real cohort training steps".into(),
        );
        c.set(
            "fleet.des_share",
            1.0 - (steps * step.p50 + eval_ms) / 1e3 / wall,
            format!(
                "1 - ({steps} steps x {:.3} ms + {eval_ms:.3} ms evaluation) / {wall:.3} s traced wall",
                step.p50
            ),
        );
    } else {
        for name in ["fleet.step_ms", "fleet.cohort_steps", "fleet.des_share"] {
            c.set(name, 0.0, "not a fleet workload".into());
        }
    }
    let (u, tr) = (median(&untraced_sps), median(&traced_sps));
    c.set(
        "trace.overhead",
        1.0 - tr / u,
        format!(
            "traced {tr:.3} vs untraced {u:.3} samples/s over {} pairs",
            traced_sps.len()
        ),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, c.values.get(m.name).copied().unwrap_or(f64::NAN)))
        .collect();
    LayerRun {
        report: Report {
            metrics,
            lines: c.lines,
            attempted,
            failed,
            failures,
        },
        untraced_sps,
        traced_sps,
    }
}
