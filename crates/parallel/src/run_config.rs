//! Run selection: the thread budget, the tensor compute backend and the
//! simulation event-queue kind, resolved in one place.

use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel family services tensor ops on this thread.
///
/// Backend choice is explicit state, never host sniffing (stsl-audit bans
/// runtime CPU-feature detection), so a given `(backend, seed)` pair
/// reproduces bit-for-bit on any machine, and within each backend results
/// are bitwise identical for every thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Scalar reference kernels with the exact per-element summation
    /// order: the numeric oracle `tests/kernel_conformance.rs` measures
    /// the blocked kernels against.
    Reference,
    /// Cache-blocked packed microkernels tuned for auto-vectorization.
    /// Blocking reorders some float accumulations, so results are within
    /// the documented error bound of the reference, not bitwise equal.
    #[default]
    Blocked,
}

impl Backend {
    /// The backend kernels dispatch to on this thread:
    /// `RunConfig::active().backend`.
    pub fn active() -> Backend {
        RunConfig::active().backend
    }

    /// Parses a backend name: `reference`/`scalar` or `blocked`/`simd`
    /// (ASCII case-insensitive, surrounding whitespace ignored).
    pub fn parse(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" | "scalar" => Some(Backend::Reference),
            "blocked" | "simd" => Some(Backend::Blocked),
            _ => None,
        }
    }

    /// Stable lower-case name, the spelling `STSL_BACKEND` accepts and
    /// the bench envelopes report.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Blocked => "blocked",
        }
    }
}

/// Which backing store services a simulation's event queue. Both deliver
/// the same `(time, insertion seq)` order, so traces are bitwise identical
/// whichever is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The `BinaryHeap` path: the ordering oracle.
    Reference,
    /// Calendar/bucket queue: O(1) amortized, fleet-scale default.
    #[default]
    Calendar,
}

impl QueueKind {
    /// The backing store a new event queue adopts on this thread:
    /// `RunConfig::active().queue`.
    pub fn active() -> QueueKind {
        RunConfig::active().queue
    }

    /// Parses a queue-kind name: `reference`/`heap` or `calendar`/`bucket`
    /// (ASCII case-insensitive, surrounding whitespace ignored).
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
}

/// The thread budget, compute backend and queue kind a run uses.
///
/// None of the three may change a run's results: the workspace's outputs
/// are byte-identical across every combination.
///
/// # Resolution
///
/// [`RunConfig::active`] is the value in force on the current thread:
///
/// 1. the innermost scoped override installed by [`with_threads`],
///    [`with_backend`] or [`with_queue_kind`] (each replaces one field of
///    the active value), else
/// 2. the process default, read once from `STSL_THREADS`, `STSL_BACKEND`
///    and `STSL_QUEUE`. An unset variable gives the default
///    (`available_parallelism` threads, [`Backend::Blocked`],
///    [`QueueKind::Calendar`]); an unparsable value, or a thread count of
///    zero, gives the exact path (1 thread, [`Backend::Reference`],
///    [`QueueKind::Reference`]).
///
/// Overrides are **propagated into every worker thread** the parallel
/// primitives spawn (with `threads: 1`, so parallelism stays one level
/// deep), so a pin installed around a whole trainer run reaches every
/// nested kernel and queue. Overrides nest and restore on scope exit,
/// including on panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunConfig {
    /// Thread budget for parallel calls; always at least 1.
    pub threads: usize,
    /// Tensor kernel family.
    pub backend: Backend,
    /// Event-queue backing store.
    pub queue: QueueKind,
}

thread_local! {
    static OVERRIDE: Cell<Option<RunConfig>> = const { Cell::new(None) };
}

impl RunConfig {
    /// Resolves raw setting values (`None` = unset) under the fallback
    /// rules documented on [`RunConfig`].
    fn parse(threads: Option<&str>, backend: Option<&str>, queue: Option<&str>) -> RunConfig {
        RunConfig {
            threads: match threads {
                Some(v) => v.trim().parse().ok().filter(|&n| n >= 1).unwrap_or(1),
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            backend: backend.map_or(Backend::default(), |v| {
                Backend::parse(v).unwrap_or(Backend::Reference)
            }),
            queue: queue.map_or(QueueKind::default(), |v| {
                QueueKind::parse(v).unwrap_or(QueueKind::Reference)
            }),
        }
    }

    /// The config in force on this thread: the innermost scoped override,
    /// else the process default (see [`RunConfig`]).
    pub fn active() -> RunConfig {
        OVERRIDE.with(Cell::get).unwrap_or_else(process_default)
    }
}

/// The process-wide default, read from the environment on first use.
fn process_default() -> RunConfig {
    static DEFAULT: OnceLock<RunConfig> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let var = |name| std::env::var(name).ok();
        RunConfig::parse(
            var("STSL_THREADS").as_deref(),
            var("STSL_BACKEND").as_deref(),
            var("STSL_QUEUE").as_deref(),
        )
    })
}

/// Restores the previous override when dropped, so overrides nest
/// correctly even across panics.
struct Restore(Option<RunConfig>);

impl Drop for Restore {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.0));
    }
}

/// Runs `f` with `config` as this thread's override, restoring the
/// previous one when `f` returns or unwinds.
fn install<R>(config: RunConfig, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(config))));
    f()
}

/// Worker-side prologue: adopt the spawning thread's config with a serial
/// thread budget, then run the block. Every block of a parallel call,
/// the caller's own included, funnels through here.
pub(crate) fn worker<R>(mut config: RunConfig, f: impl FnOnce() -> R) -> R {
    config.threads = 1;
    install(config, f)
}

/// The thread budget for parallel calls made on the current thread:
/// `RunConfig::active().threads`.
pub fn max_threads() -> usize {
    RunConfig::active().threads
}

/// Runs `f` with the thread budget pinned to `n.max(1)` on this thread,
/// restoring the previous budget afterwards (including on panic).
///
/// This is how the equivalence suite compares `STSL_THREADS=1` against
/// `STSL_THREADS=4` inside a single test process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let mut config = RunConfig::active();
    config.threads = n.max(1);
    install(config, f)
}

/// Runs `f` with the compute backend pinned to `backend`, restoring the
/// previous selection afterwards (including on panic). The pin reaches
/// every worker a parallel kernel inside `f` spawns.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    let mut config = RunConfig::active();
    config.backend = backend;
    install(config, f)
}

/// Runs `f` with the event-queue backing pinned to `queue` for every
/// queue constructed inside, restoring the previous selection afterwards
/// (including on panic). The pin reaches queues built on pool workers too.
pub fn with_queue_kind<R>(queue: QueueKind, f: impl FnOnce() -> R) -> R {
    let mut config = RunConfig::active();
    config.queue = queue;
    install(config, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{join, par_chunks_mut, par_chunks_mut2, par_map_indexed, par_map_mut, ChunkPolicy};

    #[test]
    fn parse_unset_gives_the_default() {
        let c = RunConfig::parse(None, None, None);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(c.threads, hw);
        assert_eq!(c.backend, Backend::Blocked);
        assert_eq!(c.queue, QueueKind::Calendar);
    }

    #[test]
    fn parse_accepts_every_spelling() {
        for (b, want) in [
            ("reference", Backend::Reference),
            ("SCALAR", Backend::Reference),
            (" blocked ", Backend::Blocked),
            ("Simd\n", Backend::Blocked),
        ] {
            assert_eq!(RunConfig::parse(None, Some(b), None).backend, want, "{b:?}");
        }
        for (q, want) in [
            ("reference", QueueKind::Reference),
            ("HEAP", QueueKind::Reference),
            (" calendar ", QueueKind::Calendar),
            ("Bucket\t", QueueKind::Calendar),
        ] {
            assert_eq!(RunConfig::parse(None, None, Some(q)).queue, want, "{q:?}");
        }
        for (t, want) in [("1", 1), ("4", 4), (" 12 ", 12)] {
            assert_eq!(RunConfig::parse(Some(t), None, None).threads, want, "{t:?}");
        }
        for b in [Backend::Reference, Backend::Blocked] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        for q in [QueueKind::Reference, QueueKind::Calendar] {
            assert_eq!(QueueKind::parse(q.name()), Some(q));
        }
    }

    #[test]
    fn parse_falls_back_to_the_exact_path() {
        let exact = RunConfig {
            threads: 1,
            backend: Backend::Reference,
            queue: QueueKind::Reference,
        };
        for bad in ["x", "", "gpu", "-2", "1.5"] {
            assert_eq!(
                RunConfig::parse(Some(bad), Some(bad), Some(bad)),
                exact,
                "{bad:?}"
            );
        }
        assert_eq!(RunConfig::parse(Some("0"), None, None).threads, 1);
        assert_eq!(RunConfig::parse(Some(" 0 "), None, None).threads, 1);
    }

    #[test]
    fn overrides_replace_one_field_and_restore() {
        let outer = RunConfig::active();
        with_threads(3, || {
            with_backend(Backend::Reference, || {
                with_queue_kind(QueueKind::Reference, || {
                    let c = RunConfig::active();
                    assert_eq!(
                        (c.threads, c.backend, c.queue),
                        (3, Backend::Reference, QueueKind::Reference)
                    );
                    with_backend(Backend::Blocked, || {
                        assert_eq!(Backend::active(), Backend::Blocked);
                        assert_eq!(QueueKind::active(), QueueKind::Reference);
                        assert_eq!(max_threads(), 3);
                    });
                    assert_eq!(Backend::active(), Backend::Reference);
                });
                assert_eq!(QueueKind::active(), outer.queue);
            });
            assert_eq!(Backend::active(), outer.backend);
        });
        assert_eq!(RunConfig::active(), outer);
    }

    /// Pins `outer`, then `inner` inside it, panics at both depths, and
    /// checks that each unwind restores the config active before its pin.
    fn assert_restores_after_panic<T: Copy + std::panic::RefUnwindSafe>(
        pin: fn(T, &dyn Fn()),
        outer: T,
        inner: T,
    ) {
        let before = RunConfig::active();
        let caught = std::panic::catch_unwind(|| {
            pin(outer, &|| {
                let mid = RunConfig::active();
                let caught = std::panic::catch_unwind(|| pin(inner, &|| panic!("inner boom")));
                assert!(caught.is_err());
                assert_eq!(RunConfig::active(), mid);
                panic!("outer boom");
            })
        });
        assert!(caught.is_err());
        assert_eq!(RunConfig::active(), before);
    }

    #[test]
    fn overrides_restore_after_a_panic() {
        assert_restores_after_panic(|n, f| with_threads(n, f), 3, 2);
        let (reference, blocked) = (Backend::Reference, Backend::Blocked);
        assert_restores_after_panic(|b, f| with_backend(b, f), reference, blocked);
        let (heap, calendar) = (QueueKind::Reference, QueueKind::Calendar);
        assert_restores_after_panic(|q, f| with_queue_kind(q, f), heap, calendar);
    }

    #[test]
    fn workers_of_every_primitive_see_the_pinned_config() {
        let want = RunConfig {
            threads: 1,
            backend: Backend::Reference,
            queue: QueueKind::Reference,
        };
        let policy = ChunkPolicy::min_chunk(1);
        with_threads(4, || {
            with_backend(Backend::Reference, || {
                with_queue_kind(QueueKind::Reference, || {
                    let seen = par_map_indexed(8, policy, |_| RunConfig::active());
                    assert_eq!(seen, vec![want; 8]);

                    let mut items = vec![0u8; 8];
                    let seen = par_map_mut(&mut items, policy, |_, _| RunConfig::active());
                    assert_eq!(seen, vec![want; 8]);

                    let mut buf = vec![None; 8];
                    par_chunks_mut(&mut buf, 1, policy, |_, c| {
                        c.fill(Some(RunConfig::active()))
                    });
                    assert_eq!(buf, vec![Some(want); 8]);

                    let mut a = vec![None; 8];
                    let mut b = vec![None; 16];
                    par_chunks_mut2(&mut a, &mut b, 1, 2, policy, |_, ca, cb| {
                        ca.fill(Some(RunConfig::active()));
                        cb.fill(Some(RunConfig::active()));
                    });
                    assert_eq!(a, vec![Some(want); 8]);
                    assert_eq!(b, vec![Some(want); 16]);

                    assert_eq!(join(RunConfig::active, RunConfig::active), (want, want));
                });
            });
        });
    }
}
