//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the end-to-end metrics every workload emits
//! (`tracked`) and every per-layer metric; the tests check that the two
//! agree. The remaining end-to-end metrics exist only on some workloads,
//! are zero on some (`fail_ratio` and `sim_queue_wait_ms` on
//! `async-faults`), or, like the near-chance `final_accuracy` of a
//! one-epoch run, vary across seeds by more than any allowed bound. The
//! one command prints them and gates them (they are deterministic), but
//! they are not tracked across commits.

use crate::workload::Workload;
use crate::workload::Workload::{AsyncFaults, Fleet100k, SyncPaper};

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads that produce it.
    pub workloads: &'static [Workload],
    /// Whether `BENCHMARK.json` tracks it (emitted by every workload,
    /// never zero, and steady across seeds).
    pub tracked: bool,
}

const ALL: &[Workload] = &[SyncPaper, AsyncFaults, Fleet100k];

/// Every end-to-end metric the one command prints.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        workloads: ALL,
        tracked: true,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        workloads: ALL,
        tracked: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        workloads: ALL,
        tracked: true,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        workloads: &[Fleet100k],
        tracked: false,
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "fraction",
        better: Better::Higher,
        workloads: ALL,
        tracked: false,
    },
    EndToEnd {
        name: "sim_s",
        unit: "sim-s",
        better: Better::Lower,
        workloads: &[AsyncFaults, Fleet100k],
        tracked: false,
    },
    EndToEnd {
        name: "sim_queue_wait_ms",
        unit: "sim-ms",
        better: Better::Lower,
        workloads: &[AsyncFaults],
        tracked: false,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "fraction",
        better: Better::Lower,
        workloads: &[AsyncFaults, Fleet100k],
        tracked: false,
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, emitted by the traced run of every workload.
/// Counts and shares are the workload's own (zero where the workload
/// does not use the layer); per-call timings come from probes at the
/// workload's shapes and are the median call.
pub const PER_LAYER: &[PerLayer] = &[
    pl("tensor.gemm_gflops", "GFLOP/s", Higher),
    pl("tensor.flops_per_sample", "flop", Lower),
    pl("parallel.dispatch_us", "us", Lower),
    pl("parallel.slowdown_max", "ratio", Lower),
    pl("nn.conv.fwd_ms", "ms", Lower),
    pl("nn.conv.bwd_ms", "ms", Lower),
    pl("nn.pool.fwd_ms", "ms", Lower),
    pl("nn.pool.bwd_ms", "ms", Lower),
    pl("nn.relu.fwd_ms", "ms", Lower),
    pl("nn.relu.bwd_ms", "ms", Lower),
    pl("nn.dense.fwd_ms", "ms", Lower),
    pl("nn.dense.bwd_ms", "ms", Lower),
    pl("nn.loss_ms", "ms", Lower),
    pl("nn.optim_ms", "ms", Lower),
    pl("split.client_fwd_ms", "ms", Lower),
    pl("split.server_step_ms", "ms", Lower),
    pl("split.client_bwd_ms", "ms", Lower),
    pl("split.eval_ms", "ms", Lower),
    pl("split.round_self_ms", "ms", Lower),
    pl("wire.encode_mb_s", "MB/s", Higher),
    pl("wire.decode_mb_s", "MB/s", Higher),
    pl("wire.crc_mb_s", "MB/s", Higher),
    pl("wire.frames", "count", Lower),
    pl("wire.share", "fraction", Lower),
    pl("guard.validate_us", "us", Lower),
    pl("checkpoint.capture_ms", "ms", Lower),
    pl("checkpoint.saves", "count", Lower),
    pl("sched.push_ns", "ns", Lower),
    pl("sched.pop_ns", "ns", Lower),
    pl("sched.admit_ns", "ns", Lower),
    pl("simnet.schedule_ns", "ns", Lower),
    pl("simnet.pop_ns", "ns", Lower),
    pl("simnet.transfer_ns", "ns", Lower),
    pl("simnet.events", "count", Lower),
    pl("telemetry.record_ns", "ns", Lower),
    pl("telemetry.snapshot_us", "us", Lower),
    pl("telemetry.snapshots", "count", Lower),
    pl("data.gen_us_per_sample", "us", Lower),
    pl("fleet.step_ms", "ms", Lower),
    pl("fleet.cohort_steps", "count", Higher),
    pl("fleet.des_share", "fraction", Lower),
    pl("trace.overhead", "fraction", Lower),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Metric values in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics the run owes, in catalogue order.
    pub metrics: Values,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
    /// Training batches sent, over all workload runs.
    pub attempted: u64,
    /// Training batches lost, over all workload runs.
    pub failed: u64,
    /// Correctness gates that failed.
    pub failures: Vec<String>,
}

/// The final result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).unwrap_or("");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `value` as a JSON number with all its digits (non-finite values,
/// which JSON cannot carry, become 0).
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    let s = format!("{value}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}
