//! Host facts and provenance recorded with every report.

use stsl_simnet::QueueKind;
use stsl_tensor::Backend;

/// Where and how a report was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Hardware threads the process may run on.
    pub hardware_threads: usize,
    /// Threads `stsl-parallel` was pinned to (never above
    /// `hardware_threads`).
    pub threads_granted: usize,
    /// Tensor compute backend, pinned with `with_backend`.
    pub backend: Backend,
    /// Simulation event-queue kind, pinned with `with_queue_kind`.
    pub queue_kind: QueueKind,
}

impl Provenance {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"hardware_threads\":{},\"threads_granted\":{},\"backend\":\"{}\",\"queue_kind\":\"{}\"}}",
            self.workload,
            self.seed,
            self.hardware_threads,
            self.threads_granted,
            self.backend.name(),
            self.queue_kind.name()
        )
    }
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
