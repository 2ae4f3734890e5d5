//! A deterministic discrete-event queue with a selectable backing store.
//!
//! Two implementations sit behind one API, mirroring the `Backend` seam
//! in `stsl-tensor`:
//!
//! * [`QueueKind::Reference`] — the original `BinaryHeap`, the ordering
//!   oracle. O(log n) per op with excellent constants at small n.
//! * [`QueueKind::Calendar`] — a calendar/bucket queue (see
//!   [`crate::calendar`]) with O(1) amortized ops, built for fleet-scale
//!   simulations where the pending set reaches hundreds of thousands.
//!
//! Both deliver the exact same `(time, insertion seq)` total order, so a
//! simulation trace is bitwise identical whichever backing is active —
//! `tests/queue_equivalence.rs` proves it by property test and by
//! diffing full trainer traces.
//!
//! # Selection
//!
//! Resolution order, at queue construction:
//!
//! 1. a scope override installed by [`with_queue_kind`] (rides the
//!    `stsl-parallel` scope context, on bits disjoint from the tensor
//!    backend's, so the two seams compose);
//! 2. the `STSL_QUEUE` environment variable (`calendar`/`bucket` or
//!    `reference`/`heap`; an unparsable value falls back to the
//!    reference heap);
//! 3. the default: [`QueueKind::Calendar`].

use crate::calendar::CalendarQueue;
use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which backing store services a simulation's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The original `BinaryHeap` path: the ordering oracle.
    Reference,
    /// Calendar/bucket queue: O(1) amortized, fleet-scale default.
    #[default]
    Calendar,
}

/// Scope-context bit pattern for a pinned reference (heap) queue.
/// Bits 2–3; bits 0–1 belong to `stsl-tensor`'s backend seam.
const CTX_QUEUE_REFERENCE: u64 = 1 << 2;
/// Scope-context bit pattern for a pinned calendar queue.
const CTX_QUEUE_CALENDAR: u64 = 2 << 2;
/// Mask of the scope-context bits owned by queue selection.
const CTX_QUEUE_MASK: u64 = 0b11 << 2;

impl QueueKind {
    /// The backing store a new [`EventQueue`] adopts on this thread: a
    /// [`with_queue_kind`] scope override, else `STSL_QUEUE`, else
    /// [`QueueKind::Calendar`].
    pub fn active() -> QueueKind {
        match stsl_parallel::scope_context() & CTX_QUEUE_MASK {
            CTX_QUEUE_REFERENCE => QueueKind::Reference,
            CTX_QUEUE_CALENDAR => QueueKind::Calendar,
            _ => Self::from_env(),
        }
    }

    /// Parses a queue-kind name: `reference`/`heap` or `calendar`/`bucket`
    /// (ASCII case-insensitive).
    pub fn parse(name: &str) -> Option<QueueKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" | "heap" => Some(QueueKind::Reference),
            "calendar" | "bucket" => Some(QueueKind::Calendar),
            _ => None,
        }
    }

    /// Stable lower-case name, the spelling `STSL_QUEUE` accepts and the
    /// bench envelopes report.
    pub fn name(&self) -> &'static str {
        match self {
            QueueKind::Reference => "reference",
            QueueKind::Calendar => "calendar",
        }
    }

    /// Environment-level selection: `STSL_QUEUE`, else the default.
    /// Unparsable values resolve to the reference heap.
    fn from_env() -> QueueKind {
        match std::env::var("STSL_QUEUE") {
            Ok(v) => QueueKind::parse(&v).unwrap_or(QueueKind::Reference),
            Err(_) => QueueKind::default(),
        }
    }
}

/// Runs `f` with the event-queue backing pinned to `kind` for every
/// [`EventQueue`] constructed inside, restoring the previous selection
/// afterwards (including on panic). Rides the `stsl-parallel` scope
/// context, so the pin reaches queues built on pool worker threads too.
pub fn with_queue_kind<R>(kind: QueueKind, f: impl FnOnce() -> R) -> R {
    let bits = match kind {
        QueueKind::Reference => CTX_QUEUE_REFERENCE,
        QueueKind::Calendar => CTX_QUEUE_CALENDAR,
    };
    let ctx = (stsl_parallel::scope_context() & !CTX_QUEUE_MASK) | bits;
    stsl_parallel::with_scope_context(ctx, f)
}

/// An event queue delivering payloads in `(time, insertion order)` order.
///
/// Ties at the same timestamp are broken by insertion sequence number, so
/// a simulation run is bit-reproducible regardless of queue internals —
/// and regardless of which [`QueueKind`] backs it.
#[derive(Debug)]
pub struct EventQueue<T> {
    backing: Backing<T>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
enum Backing<T> {
    Heap(BinaryHeap<Entry<T>>),
    Calendar(CalendarQueue<T>),
}

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time zero, backed per
    /// [`QueueKind::active`].
    pub fn new() -> Self {
        Self::with_kind(QueueKind::active())
    }

    /// Creates an empty queue at time zero with an explicit backing,
    /// ignoring scope and environment selection.
    pub fn with_kind(kind: QueueKind) -> Self {
        let backing = match kind {
            QueueKind::Reference => Backing::Heap(BinaryHeap::new()),
            QueueKind::Calendar => Backing::Calendar(CalendarQueue::new()),
        };
        EventQueue {
            backing,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Which backing store this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.backing {
            Backing::Heap(_) => QueueKind::Reference,
            Backing::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Heap(h) => h.len(),
            Backing::Calendar(c) => c.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is allowed (the event fires "now"): clock
    /// monotonicity is enforced at pop time by clamping to `now`.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.backing {
            Backing::Heap(h) => h.push(Entry {
                time: at,
                seq,
                payload,
            }),
            Backing::Calendar(c) => c.insert(at, seq, self.now, payload),
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp
    /// (clamped to be monotone).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (time, payload) = match &mut self.backing {
            Backing::Heap(h) => h.pop().map(|e| (e.time, e.payload))?,
            Backing::Calendar(c) => c.pop(self.now).map(|e| (e.time, e.payload))?,
        };
        let fire_at = time.max(self.now);
        self.now = fire_at;
        Some((fire_at, payload))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backing {
            Backing::Heap(h) => h.peek().map(|e| e.time),
            Backing::Calendar(c) => c.peek_time(self.now),
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [QueueKind; 2] = [QueueKind::Reference, QueueKind::Calendar];

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_micros(30), "c");
            q.schedule(SimTime::from_micros(10), "a");
            q.schedule(SimTime::from_micros(20), "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "kind {kind:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_micros(5);
            for i in 0..10 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "kind {kind:?}");
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_micros(100), ());
            q.pop();
            assert_eq!(q.now(), SimTime::from_micros(100));
            // An event scheduled in the past fires at the current clock.
            q.schedule(SimTime::from_micros(50), ());
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_micros(100), "kind {kind:?}");
            assert_eq!(q.now(), SimTime::from_micros(100));
        }
    }

    #[test]
    fn empty_queue_behaviour() {
        for kind in BOTH {
            let mut q: EventQueue<()> = EventQueue::with_kind(kind);
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            assert_eq!(q.peek_time(), None);
            assert_eq!(q.now(), SimTime::ZERO);
        }
    }

    #[test]
    fn peek_does_not_advance_clock() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_micros(42), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_micros(42)));
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn kinds_report_and_parse() {
        assert_eq!(QueueKind::parse("reference"), Some(QueueKind::Reference));
        assert_eq!(QueueKind::parse("HEAP"), Some(QueueKind::Reference));
        assert_eq!(QueueKind::parse(" calendar "), Some(QueueKind::Calendar));
        assert_eq!(QueueKind::parse("bucket"), Some(QueueKind::Calendar));
        assert_eq!(QueueKind::parse("wheel"), None);
        for k in BOTH {
            assert_eq!(QueueKind::parse(k.name()), Some(k));
            assert_eq!(EventQueue::<()>::with_kind(k).kind(), k);
        }
    }

    #[test]
    fn with_queue_kind_pins_and_restores() {
        let outer = QueueKind::active();
        with_queue_kind(QueueKind::Reference, || {
            assert_eq!(QueueKind::active(), QueueKind::Reference);
            assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Reference);
            with_queue_kind(QueueKind::Calendar, || {
                assert_eq!(QueueKind::active(), QueueKind::Calendar);
            });
            assert_eq!(QueueKind::active(), QueueKind::Reference);
        });
        assert_eq!(QueueKind::active(), outer);
    }

    #[test]
    fn queue_kind_bits_compose_with_backend_bits() {
        // The queue seam owns bits 2–3; anything living in bits 0–1 (the
        // tensor backend pin) must survive a nested queue-kind pin.
        stsl_parallel::with_scope_context(0b01, || {
            with_queue_kind(QueueKind::Reference, || {
                assert_eq!(stsl_parallel::scope_context() & 0b11, 0b01);
                assert_eq!(QueueKind::active(), QueueKind::Reference);
            });
        });
    }

    #[test]
    fn interleaved_schedule_pop_matches_reference() {
        // Deterministic stress: both kinds run the same script of
        // schedules (some past, some far future, bursts of ties) and
        // interleaved pops; the pop streams must match exactly.
        let script: Vec<(u64, bool)> = (0..500)
            .map(|i: u64| {
                let t = (i * 7919) % 10_000
                    + if i.is_multiple_of(17) {
                        1_000_000_000
                    } else {
                        0
                    };
                (t, i.is_multiple_of(3))
            })
            .collect();
        let mut runs: Vec<Vec<(SimTime, u64)>> = Vec::new();
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            let mut out = Vec::new();
            for (i, &(t, pop)) in script.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i as u64);
                if pop {
                    if let Some(e) = q.pop() {
                        out.push(e);
                    }
                }
            }
            while let Some(e) = q.pop() {
                out.push(e);
            }
            runs.push(out);
        }
        assert_eq!(runs[0], runs[1]);
    }
}
