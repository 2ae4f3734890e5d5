//! The untraced run: end-to-end metrics and correctness gates.
//!
//! One warm-up run at a single thread doubles as the thread-count gate;
//! the timed repeats then run at the granted threads until the time
//! budget is spent, and every repeat must reproduce the single-thread
//! outcome bit for bit. Timings are reported as medians over repeats.

use std::time::Instant;

use stsl_parallel::with_threads;

use crate::host::peak_rss_mb;
use crate::metrics::{Report, Values, END_TO_END};
use crate::stats::median;
use crate::workload::{timed_run, Spec, Timed};

/// Fewest timed repeats in a run, whatever the time budget.
pub const MIN_REPEATS: usize = 3;

/// Runs `spec` repeatedly for at least `seconds` at `threads` threads.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, threads: usize) -> Report {
    let serial = with_threads(1, || timed_run(spec, seed));
    let start = Instant::now();
    let mut runs: Vec<Timed> = Vec::new();
    with_threads(threads, || {
        while runs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
            runs.push(timed_run(spec, seed));
        }
    });

    let reference = &serial.outcome;
    let mut failures = reference.gate_failures.clone();
    let differing: Vec<usize> = (0..runs.len())
        .filter(|&i| runs[i].outcome != *reference)
        .collect();
    if let Some(&first) = differing.first() {
        failures.push(format!(
            "repeats {differing:?} at {threads} threads differ from the 1-thread run: {} vs {}",
            runs[first].outcome.fingerprint, reference.fingerprint
        ));
    }

    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let sps: Vec<f64> = runs
        .iter()
        .map(|r| r.outcome.samples as f64 / r.run_s)
        .collect();
    let eps: Vec<f64> = runs
        .iter()
        .map(|r| r.outcome.events as f64 / r.run_s)
        .collect();
    let value = |name: &str| -> Option<f64> {
        match name {
            "setup_s" => Some(median(&setup)),
            "samples_per_s" => Some(median(&sps)),
            "peak_rss_mb" => peak_rss_mb(),
            "events_per_s" => Some(median(&eps)),
            "final_accuracy" => Some(reference.final_accuracy),
            "sim_s" => reference.sim_s,
            "sim_queue_wait_ms" => reference.sim_queue_wait_ms,
            "fail_ratio" => reference.fail_ratio,
            _ => None,
        }
    };
    let mut metrics = Values::new();
    let mut lines = Vec::new();
    for m in END_TO_END
        .iter()
        .filter(|m| m.workloads.contains(&spec.workload))
    {
        match value(m.name) {
            Some(v) => metrics.push((m.name, v)),
            None => failures.push(format!("metric {} could not be measured", m.name)),
        }
    }
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("min={lo:.6} max={hi:.6}")
    };
    lines.push(format!(
        "repeats: {} timed at {threads} threads after one 1-thread warm-up; setup_s {}; samples_per_s {}",
        runs.len(),
        spread(&setup),
        spread(&sps)
    ));
    let attempted = serial.outcome.batches + runs.iter().map(|r| r.outcome.batches).sum::<u64>();
    let failed = serial.outcome.failed + runs.iter().map(|r| r.outcome.failed).sum::<u64>();
    Report {
        metrics,
        lines,
        attempted,
        failed,
        failures,
    }
}
