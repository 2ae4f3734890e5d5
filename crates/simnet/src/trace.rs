//! Event tracing: a bounded, queryable log of simulation events.
//!
//! Experiments attach a `TraceLog` to record what happened when (arrivals,
//! services, drops) and later slice it by time window or end-system —
//! useful for plotting queue dynamics without re-running the simulation.

use crate::{EndSystemId, SimTime};

/// The kinds of events worth tracing in a split-learning simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Activations arrived at the server.
    Arrival,
    /// The server began processing a batch.
    ServiceStart,
    /// A gradient was delivered back to an end-system.
    GradientDelivered,
    /// The scheduler discarded a stale batch.
    SchedulerDrop,
    /// The network lost a message.
    NetworkDrop,
    /// A lost message was retransmitted after a backoff.
    Retransmit,
    /// A message exhausted its retry budget and its batch was abandoned.
    RetryExhausted,
    /// An end-system crashed.
    ClientCrash,
    /// A crashed end-system recovered and rejoined.
    ClientRecover,
    /// Training state was checkpointed.
    CheckpointSave,
    /// An end-system was restored from a checkpoint.
    CheckpointRestore,
    /// A fault garbled an in-flight payload.
    PayloadCorrupted,
    /// The integrity guard rejected a frame (checksum/structure failure).
    CorruptRejected,
    /// Ingress validation rejected a non-finite or norm-exploding update.
    AnomalyRejected,
    /// An end-system was quarantined after repeated anomalies.
    Quarantine,
    /// A quarantined end-system finished probation and rejoined.
    QuarantineRelease,
    /// An update from a quarantined end-system was dropped.
    QuarantineDrop,
    /// The health watchdog rolled training back to an earlier checkpoint.
    Rollback,
    /// A telemetry snapshot was emitted.
    SnapshotEmit,
    /// The telemetry journal evicted its oldest event to make room.
    JournalDrop,
    /// A new end-system joined the fleet mid-training.
    ClientJoin,
    /// An end-system departed the fleet.
    ClientLeave,
    /// A departed end-system rejoined and resynced from its last acked
    /// batch.
    ClientRejoin,
    /// The bounded ingress queue shed a batch under overload.
    IngressShed,
    /// A per-link circuit breaker tripped open after repeated delivery
    /// failures.
    BreakerTrip,
    /// A round deadline fired and the partial quorum was applied.
    DeadlinePartialApply,
    /// An adversarial persona poisoned an outgoing update.
    AttackInjected,
    /// The robust aggregator combined a full window of updates.
    RobustApply,
    /// The robust aggregator flagged a sender as a statistical outlier.
    RobustOutlier,
    /// A cohort model replica completed one real training step on behalf
    /// of its sharded end-systems (fleet path).
    CohortStep,
}

impl TraceKind {
    /// Every variant, in declaration order: `ALL[k.index()] == k`. A
    /// variant missing here has no [`TraceTally`] slot, so counting it
    /// panics on its first emission.
    pub const ALL: [TraceKind; 30] = [
        TraceKind::Arrival,
        TraceKind::ServiceStart,
        TraceKind::GradientDelivered,
        TraceKind::SchedulerDrop,
        TraceKind::NetworkDrop,
        TraceKind::Retransmit,
        TraceKind::RetryExhausted,
        TraceKind::ClientCrash,
        TraceKind::ClientRecover,
        TraceKind::CheckpointSave,
        TraceKind::CheckpointRestore,
        TraceKind::PayloadCorrupted,
        TraceKind::CorruptRejected,
        TraceKind::AnomalyRejected,
        TraceKind::Quarantine,
        TraceKind::QuarantineRelease,
        TraceKind::QuarantineDrop,
        TraceKind::Rollback,
        TraceKind::SnapshotEmit,
        TraceKind::JournalDrop,
        TraceKind::ClientJoin,
        TraceKind::ClientLeave,
        TraceKind::ClientRejoin,
        TraceKind::IngressShed,
        TraceKind::BreakerTrip,
        TraceKind::DeadlinePartialApply,
        TraceKind::AttackInjected,
        TraceKind::RobustApply,
        TraceKind::RobustOutlier,
        TraceKind::CohortStep,
    ];

    /// Dense position of this kind, for arrays indexed by kind.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Per-kind event counts. Unlike a [`TraceLog`] a tally is never
/// capacity-limited and is kept whether or not tracing is on, so report
/// counters read from it agree with the trace by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTally([u64; TraceKind::ALL.len()]);

impl TraceTally {
    /// Counts one event of `kind`.
    pub fn bump(&mut self, kind: TraceKind) {
        self.0[kind.index()] += 1;
    }

    /// Events of `kind` counted so far.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.0[kind.index()]
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Which end-system it concerned.
    pub end_system: EndSystemId,
}

/// An append-only, optionally bounded event log.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl TraceLog {
    /// Creates an unbounded log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Creates a log that keeps only the first `capacity` events (and
    /// counts the rest).
    pub fn with_capacity_limit(capacity: usize) -> Self {
        TraceLog {
            events: Vec::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Appends an event.
    pub fn record(&mut self, at: SimTime, kind: TraceKind, end_system: EndSystemId) {
        if let Some(cap) = self.capacity {
            if self.events.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.events.push(TraceEvent {
            at,
            kind,
            end_system,
        });
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events silently dropped because of the capacity limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of events of `kind`.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Count of events of `kind` for one end-system.
    pub fn count_for(&self, kind: TraceKind, end_system: EndSystemId) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.end_system == end_system)
            .count()
    }

    /// Events with `from <= at < to`, in recording order.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.at >= from && e.at < to)
            .collect()
    }

    /// Renders the log as CSV (`time_us,kind,end_system`) for external
    /// plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_us,kind,end_system\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{:?},{}\n",
                e.at.as_micros(),
                e.kind,
                e.end_system.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn records_and_counts() {
        let mut log = TraceLog::new();
        log.record(t(1), TraceKind::Arrival, EndSystemId(0));
        log.record(t(2), TraceKind::Arrival, EndSystemId(1));
        log.record(t(3), TraceKind::ServiceStart, EndSystemId(0));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(TraceKind::Arrival), 2);
        assert_eq!(log.count_for(TraceKind::Arrival, EndSystemId(0)), 1);
        assert_eq!(log.count(TraceKind::NetworkDrop), 0);
    }

    #[test]
    fn window_is_half_open() {
        let mut log = TraceLog::new();
        for ms in [1u64, 5, 10, 15] {
            log.record(t(ms), TraceKind::Arrival, EndSystemId(0));
        }
        let w = log.window(t(5), t(15));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].at, t(5));
        assert_eq!(w[1].at, t(10));
    }

    #[test]
    fn capacity_limit_counts_overflow() {
        let mut log = TraceLog::with_capacity_limit(2);
        for ms in 0..5u64 {
            log.record(t(ms), TraceKind::Arrival, EndSystemId(0));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut log = TraceLog::new();
        log.record(t(2), TraceKind::SchedulerDrop, EndSystemId(3));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "time_us,kind,end_system");
        assert_eq!(lines[1], "2000,SchedulerDrop,3");
    }

    #[test]
    fn all_lists_every_kind_at_its_index() {
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        let mut tally = TraceTally::default();
        tally.bump(TraceKind::CohortStep);
        tally.bump(TraceKind::CohortStep);
        assert_eq!(tally.count(TraceKind::CohortStep), 2);
        assert_eq!(tally.count(TraceKind::Arrival), 0);
    }
}
