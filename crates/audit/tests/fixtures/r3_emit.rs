//! Fixture: non-test code that records every `TraceKind` variant, so the
//! R3 liveness check sees each one emitted. Never compiled.

pub fn emit_all(sink: &mut Vec<TraceKind>) {
    sink.push(TraceKind::Arrival);
    sink.push(TraceKind::ServiceStart);
    sink.push(TraceKind::GradientDelivered);
    sink.push(TraceKind::SchedulerDrop);
    sink.push(TraceKind::NetworkDrop);
    sink.push(TraceKind::Retransmit);
    sink.push(TraceKind::RetryExhausted);
    sink.push(TraceKind::ClientCrash);
    sink.push(TraceKind::ClientRecover);
    sink.push(TraceKind::CheckpointSave);
    sink.push(TraceKind::CheckpointRestore);
    sink.push(TraceKind::PayloadCorrupted);
    sink.push(TraceKind::CorruptRejected);
    sink.push(TraceKind::AnomalyRejected);
    sink.push(TraceKind::Quarantine);
    sink.push(TraceKind::QuarantineRelease);
    sink.push(TraceKind::QuarantineDrop);
    sink.push(TraceKind::Rollback);
    sink.push(TraceKind::SnapshotEmit);
    sink.push(TraceKind::JournalDrop);
    sink.push(TraceKind::ClientJoin);
    sink.push(TraceKind::ClientLeave);
    sink.push(TraceKind::ClientRejoin);
    sink.push(TraceKind::IngressShed);
    sink.push(TraceKind::BreakerTrip);
    sink.push(TraceKind::DeadlinePartialApply);
    sink.push(TraceKind::AttackInjected);
    sink.push(TraceKind::RobustApply);
    sink.push(TraceKind::RobustOutlier);
    sink.push(TraceKind::CohortStep);
}
