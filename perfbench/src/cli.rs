//! Command line and report printing.

use std::io::Write;
use std::path::PathBuf;

use stsl_simnet::{with_queue_kind, QueueKind};
use stsl_tensor::{with_backend, Backend};

use crate::host::{hardware_threads, Provenance};
use crate::metrics::{result_line, unit_of, Values};
use crate::trace::Tracer;
use crate::workload::{Scale, Spec, Workload};
use crate::{e2e, layers};

/// Usage text.
pub const USAGE: &str = "usage: stsl-perfbench --workload <sync-paper|async-faults|fleet-100k> \
--seed <n> --seconds <n> --trace <0|1>";

/// The compute backend every run pins (the library default), set through
/// its scope rather than read from the environment.
pub const BACKEND: Backend = Backend::Blocked;

/// The event-queue kind every run pins (the library default), set
/// through its scope rather than read from the environment.
pub const QUEUE: QueueKind = QueueKind::Calendar;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Run size: always `Full` from the command line; tests run `Smoke`.
    pub scale: Scale,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a message naming the first bad or missing argument.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: unexpected value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

/// What a run printed, in machine-readable form.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// The metrics of the result line.
    pub metrics: Values,
}

/// Runs the benchmark as `args` asks, printing the report to `out` with
/// the result line last.
///
/// # Errors
///
/// Returns an I/O error from `out` or from writing the span file.
pub fn execute(args: &Args, out: &mut dyn Write) -> std::io::Result<Outcome> {
    let hw = hardware_threads();
    let provenance = Provenance {
        workload: args.workload.name(),
        seed: args.seed,
        hardware_threads: hw,
        threads_granted: hw,
        backend: BACKEND,
        queue_kind: QUEUE,
    };
    let spec = Spec::new(args.workload, args.scale);
    writeln!(out, "provenance {}", provenance.to_json())?;
    let threads = provenance.threads_granted;

    let mut report = if args.trace {
        let mut tracer = Tracer::new();
        let run = pinned(|| layers::measure(&spec, args.seed, args.seconds, threads, &mut tracer));
        let path = trace_path(args);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        std::fs::write(
            &path,
            format!(
                "{{\"provenance\":{},\"untraced_samples_per_s\":[{}],\"traced_samples_per_s\":[{}],\"spans\":{}}}\n",
                provenance.to_json(),
                list(&run.untraced_sps),
                list(&run.traced_sps),
                tracer.to_json()
            ),
        )?;
        let mut report = run.report;
        report.lines.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        report
    } else {
        pinned(|| e2e::measure(&spec, args.seed, args.seconds, threads))
    };

    for line in &report.lines {
        writeln!(out, "{line}")?;
    }
    for (name, value) in &report.metrics {
        if !value.is_finite() {
            report
                .failures
                .push(format!("metric {name} is not a finite number"));
        }
        writeln!(
            out,
            "metric {name} = {value} {}",
            unit_of(name).unwrap_or("")
        )?;
    }
    let tracked: Values = if args.trace {
        report.metrics.clone()
    } else {
        report
            .metrics
            .iter()
            .copied()
            .filter(|(n, _)| {
                crate::metrics::END_TO_END
                    .iter()
                    .any(|m| m.tracked && m.name == *n)
            })
            .collect()
    };
    for f in &report.failures {
        writeln!(out, "gate FAILED: {f}")?;
    }
    let correct = report.failures.is_empty();
    if correct {
        writeln!(out, "gates: all passed")?;
    }
    let line = result_line(correct, report.attempted.max(1), report.failed, &tracked);
    writeln!(out, "{line}")?;
    Ok(Outcome {
        correct,
        metrics: report.metrics,
    })
}

/// Runs `f` with the compute backend and event-queue kind pinned
/// through their scopes.
fn pinned<R>(f: impl FnOnce() -> R) -> R {
    with_backend(BACKEND, || with_queue_kind(QUEUE, f))
}

/// `<directory of the executable>/perfbench-trace/<workload>-seed<n>.json`:
/// inside the build directory, which version control ignores.
pub fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    dir.join("perfbench-trace")
        .join(format!("{}-seed{}.json", args.workload.name(), args.seed))
}
