//! Fixture: trace kinds named only as match-arm patterns (like the
//! trainer's trace-to-journal map) or as a tally read. Neither is an
//! emission, so R3 must still fire for `Rollback` (before `|`, and read
//! through `count`) and `ServiceStart` (before `=>`) once their real
//! emissions are gone. Never compiled.

pub fn journaled(kind: TraceKind) -> bool {
    match kind {
        TraceKind::Rollback | TraceKind::Arrival => true,
        TraceKind::ServiceStart => false,
        _ => false,
    }
}

pub fn rollbacks(tally: &TraceTally) -> u64 {
    tally.count(TraceKind::Rollback)
}
