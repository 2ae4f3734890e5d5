//! Deterministic scoped thread pool for the STSL workspace.
//!
//! A tiny parallel-for layer built directly on [`std::thread::scope`] — no
//! work stealing, no global registry, no dependencies. The API is shaped
//! like rayon's `scope`/`join`/indexed parallel-for, but the scheduling
//! model is much simpler: every parallel call splits its index space into
//! **contiguous, disjoint blocks** (see [`ChunkPolicy`]) and runs one block
//! per thread.
//!
//! # Determinism guarantee
//!
//! Callers are required to make each output element depend only on its own
//! index — blocks write disjoint slices, there are no atomics and no
//! parallel reductions, and every per-element accumulation loop runs in the
//! same order regardless of how the index space is partitioned. Under that
//! contract the results are **bitwise identical** for every thread count,
//! which `tests/parallel_equivalence.rs` at the workspace root enforces.
//!
//! # Thread-count control
//!
//! The thread budget is `RunConfig::active().threads` (see [`RunConfig`]
//! for how it, the tensor [`Backend`] and the event [`QueueKind`] are
//! resolved): a [`with_threads`] override (tests use this to compare serial
//! and parallel runs inside one process), else `STSL_THREADS` (`1` = exact
//! serial path), else [`std::thread::available_parallelism`].
//!
//! # Work grain
//!
//! A parallel call pays one OS-thread spawn per extra block (about
//! 45–50 µs on a 2-vCPU x86-64 host), so a block only pays when it carries
//! more work than that. Kernels state their work per item with
//! [`ChunkPolicy::macs`] (compute-bound: multiply-adds) or
//! [`ChunkPolicy::elems`] (memory-bound: elements touched), and the policy
//! turns the crate-wide grains [`MIN_BLOCK_MACS`] and [`MIN_BLOCK_ELEMS`]
//! into a minimum block size. Problems below two blocks' worth of work stay
//! on the caller's thread. [`ChunkPolicy::min_chunk`] remains for fan-outs
//! whose one item is a whole model pass (the split trainers' client
//! phases and their evaluation across encoders).
//!
//! Parallelism is one level deep: every block of a parallel call runs with
//! the caller's [`RunConfig`] at a budget of `1`, so nested kernels (e.g. a
//! GEMM inside a per-client forward pass) do not oversubscribe the machine
//! and still see the caller's backend and queue pins. A call that stays on
//! the caller's thread leaves the budget untouched, so the innermost
//! *parallelizable* layer still gets the full budget when outer layers have
//! nothing to split.

#![forbid(unsafe_code)]

use std::ops::Range;

mod run_config;

use run_config::worker;
pub use run_config::{
    max_threads, with_backend, with_queue_kind, with_threads, Backend, QueueKind, RunConfig,
};

/// Scoped threads, re-exported so downstream crates never spell out
/// `std::thread` for ad-hoc fan-outs.
pub use std::thread::scope;

/// Runs two closures, potentially in parallel, and returns both results.
///
/// With a budget of 1 this is exactly `(a(), b())`; otherwise `b` runs on a
/// scoped thread while `a` runs on the caller's thread. Panics in either
/// closure propagate to the caller.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let config = RunConfig::active();
    if config.threads < 2 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(move || worker(config, b));
        let ra = worker(config, a);
        let rb = match hb.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        };
        (ra, rb)
    })
}

/// Multiply-adds one block of a compute-bound kernel (GEMM bands and rows)
/// must carry before it is worth a thread of its own.
///
/// Measured on a 2-vCPU x86-64 host: a thread dispatch costs about
/// 45–50 µs and the blocked GEMM runs about 5–9 G MAC/s per thread, so a
/// dispatch is worth roughly 0.25–0.45 M MACs and a block must carry about
/// two dispatches' worth. GEMM at 2 threads against 1 on that host: 64³
/// (0.26 M MACs) was 2.5× slower, 96³ (0.9 M MACs) 1.38× slower, and 128³
/// (2.1 M MACs, two blocks of this grain) 0.88× — faster.
pub const MIN_BLOCK_MACS: usize = 1 << 20;

/// Elements one block of a memory-bound pass (im2col, col2im, the conv
/// reorders, softmax rows, batch-norm sweeps, bias adds, B packing) must
/// touch before it is worth a thread of its own.
///
/// Measured on the same host: these passes cost about 1–2.6 ns per
/// element, so a 45–50 µs dispatch is worth roughly 20–50 K elements and
/// a block must carry about two dispatches' worth.
pub const MIN_BLOCK_ELEMS: usize = 1 << 16;

/// How a parallel call splits its index space into contiguous blocks.
///
/// `min_chunk` is the smallest number of items worth handing to a thread;
/// an index space of `items` is split into
/// `min(threads, items / min_chunk).max(1)` balanced contiguous ranges.
/// Small problems therefore stay on the caller's thread with zero spawn
/// overhead. Kernels derive `min_chunk` from their work per item through
/// [`ChunkPolicy::macs`] or [`ChunkPolicy::elems`], so every block carries
/// at least [`MIN_BLOCK_MACS`] or [`MIN_BLOCK_ELEMS`] of work.
///
/// `tile` (see [`ChunkPolicy::tiled`]) additionally forces every block
/// boundary except the last onto a multiple of the tile size, so
/// cache-blocked kernels never see a microtile split across two threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Minimum items per block; blocks are never smaller than this unless
    /// the whole index space is.
    pub min_chunk: usize,
    /// Block-boundary alignment in items; 1 means unaligned row splits.
    pub tile: usize,
}

impl ChunkPolicy {
    /// Policy with the given minimum block size and unaligned boundaries.
    ///
    /// For fan-outs whose one item is a whole model pass; kernels use
    /// [`ChunkPolicy::macs`] or [`ChunkPolicy::elems`] instead.
    pub const fn min_chunk(min_chunk: usize) -> Self {
        ChunkPolicy { min_chunk, tile: 1 }
    }

    /// Policy for a compute-bound kernel whose items each cost `per_item`
    /// multiply-adds: every block carries at least [`MIN_BLOCK_MACS`].
    pub const fn macs(per_item: usize) -> Self {
        Self::min_chunk(grain(MIN_BLOCK_MACS, per_item))
    }

    /// Policy for a memory-bound pass whose items each touch `per_item`
    /// elements: every block carries at least [`MIN_BLOCK_ELEMS`].
    pub const fn elems(per_item: usize) -> Self {
        Self::min_chunk(grain(MIN_BLOCK_ELEMS, per_item))
    }

    /// This policy with block boundaries on multiples of `tile`.
    ///
    /// This is the partitioning the blocked GEMM bands use: the index
    /// space is a stack of `tile`-row microtiles, and handing a thread a
    /// range that starts or ends mid-tile would force it to recompute a
    /// partial tile another thread also owns. Boundaries are rounded down
    /// to tile edges (the final block absorbs the ragged tail), and a
    /// block never covers fewer than `min_chunk.max(tile)` items unless
    /// the whole index space does.
    pub const fn tiled(self, tile: usize) -> Self {
        ChunkPolicy { tile, ..self }
    }

    /// The contiguous, disjoint, ascending ranges covering `0..items`.
    ///
    /// Partitioning depends on `threads`, but because callers keep
    /// per-element work independent of the partition, results do not.
    pub fn ranges(&self, items: usize, threads: usize) -> Vec<Range<usize>> {
        if items == 0 {
            return Vec::new();
        }
        let min = self.min_chunk.max(1).max(self.tile);
        let mut blocks = (items / min).clamp(1, threads.max(1));
        let tile = self.tile.max(1);
        if tile > 1 {
            // Never more blocks than whole tiles, or boundaries collide.
            blocks = blocks.min(items.div_ceil(tile));
        }
        if blocks <= 1 {
            // One element, not a range-to-collect: the lint misreads this.
            #[allow(clippy::single_range_in_vec_init)]
            return vec![0..items];
        }
        let mut out = Vec::with_capacity(blocks);
        let mut start = 0;
        if tile == 1 {
            let base = items / blocks;
            let rem = items % blocks;
            for b in 0..blocks {
                let len = base + usize::from(b < rem);
                out.push(start..start + len);
                start += len;
            }
        } else {
            for b in 1..=blocks {
                let end = if b == blocks {
                    items
                } else {
                    (items * b / blocks / tile * tile).clamp(start, items)
                };
                if end > start {
                    out.push(start..end);
                    start = end;
                }
            }
        }
        out
    }
}

/// Items needed to carry `work` when each costs `per_item` (at least 1).
const fn grain(work: usize, per_item: usize) -> usize {
    let per_item = if per_item == 0 { 1 } else { per_item };
    work.div_ceil(per_item)
}

/// Splits `data` into row-aligned contiguous chunks and calls
/// `f(first_row, chunk)` for each, potentially in parallel.
///
/// `data.len()` must be a multiple of `row_len`; the chunk passed to `f`
/// starts at row `first_row` and blocks never split a row. Each block owns
/// its slice exclusively (`split_at_mut`), so there is no write contention
/// by construction.
///
/// # Panics
///
/// Panics if `row_len == 0` or `data.len() % row_len != 0`; panics from `f`
/// propagate.
pub fn par_chunks_mut<T, F>(data: &mut [T], row_len: usize, policy: ChunkPolicy, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(data.len() % row_len, 0, "data must be whole rows");
    let rows = data.len() / row_len;
    let config = RunConfig::active();
    let ranges = policy.ranges(rows, config.threads);
    if ranges.len() <= 1 {
        if rows > 0 {
            f(0, data);
        }
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = data;
        let mut handles = Vec::new();
        let mut first = None;
        for (bi, r) in ranges.iter().enumerate() {
            let tmp = std::mem::take(&mut rest);
            let (chunk, tail) = tmp.split_at_mut((r.end - r.start) * row_len);
            rest = tail;
            if bi == 0 {
                first = Some((r.start, chunk));
            } else {
                let start = r.start;
                handles.push(s.spawn(move || worker(config, || f(start, chunk))));
            }
        }
        let (start, chunk) = first.expect("at least two ranges");
        worker(config, || f(start, chunk));
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Two-buffer variant of [`par_chunks_mut`]: both slices are split at the
/// same row boundaries (`a` in rows of `a_row`, `b` in rows of `b_row`) and
/// `f(first_row, a_chunk, b_chunk)` runs per block.
///
/// Used where one pass fills two outputs (e.g. batchnorm's normalized
/// activations plus its cached `x̂`).
///
/// # Panics
///
/// Panics if either slice is not whole rows or the row counts differ.
pub fn par_chunks_mut2<A, B, F>(
    a: &mut [A],
    b: &mut [B],
    a_row: usize,
    b_row: usize,
    policy: ChunkPolicy,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(a_row > 0 && b_row > 0, "row lengths must be positive");
    assert_eq!(a.len() % a_row, 0, "a must be whole rows");
    assert_eq!(b.len() % b_row, 0, "b must be whole rows");
    let rows = a.len() / a_row;
    assert_eq!(b.len() / b_row, rows, "row counts must agree");
    let config = RunConfig::active();
    let ranges = policy.ranges(rows, config.threads);
    if ranges.len() <= 1 {
        if rows > 0 {
            f(0, a, b);
        }
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest_a = a;
        let mut rest_b = b;
        let mut handles = Vec::new();
        let mut first = None;
        for (bi, r) in ranges.iter().enumerate() {
            let rows_here = r.end - r.start;
            let tmp_a = std::mem::take(&mut rest_a);
            let (chunk_a, tail_a) = tmp_a.split_at_mut(rows_here * a_row);
            rest_a = tail_a;
            let tmp_b = std::mem::take(&mut rest_b);
            let (chunk_b, tail_b) = tmp_b.split_at_mut(rows_here * b_row);
            rest_b = tail_b;
            if bi == 0 {
                first = Some((r.start, chunk_a, chunk_b));
            } else {
                let start = r.start;
                handles.push(s.spawn(move || worker(config, || f(start, chunk_a, chunk_b))));
            }
        }
        let (start, chunk_a, chunk_b) = first.expect("at least two ranges");
        worker(config, || f(start, chunk_a, chunk_b));
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Indexed parallel map: returns `[f(0), f(1), …, f(items-1)]` in index
/// order, computing contiguous blocks of indices potentially in parallel.
pub fn par_map_indexed<R, F>(items: usize, policy: ChunkPolicy, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let config = RunConfig::active();
    let ranges = policy.ranges(items, config.threads);
    if ranges.len() <= 1 {
        return (0..items).map(f).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut iter = ranges.into_iter();
        let head = iter.next().expect("at least two ranges");
        let handles: Vec<_> = iter
            .map(|r| s.spawn(move || worker(config, || r.map(f).collect::<Vec<R>>())))
            .collect();
        let mut out = worker(config, || head.map(f).collect::<Vec<R>>());
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        out
    })
}

/// Parallel map with exclusive mutable access to each item: returns
/// `[f(0, &mut items[0]), …]` in index order.
///
/// This is the fan-out primitive the split trainers use to run every
/// end-system's forward/backward concurrently — each `EndSystem` is one
/// item, touched by exactly one thread.
pub fn par_map_mut<T, R, F>(items: &mut [T], policy: ChunkPolicy, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let config = RunConfig::active();
    let ranges = policy.ranges(items.len(), config.threads);
    if ranges.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = items;
        let mut handles = Vec::new();
        let mut first = None;
        for (bi, r) in ranges.iter().enumerate() {
            let tmp = std::mem::take(&mut rest);
            let (chunk, tail) = tmp.split_at_mut(r.end - r.start);
            rest = tail;
            if bi == 0 {
                first = Some((r.start, chunk));
            } else {
                let start = r.start;
                handles.push(s.spawn(move || {
                    worker(config, || {
                        chunk
                            .iter_mut()
                            .enumerate()
                            .map(|(i, t)| f(start + i, t))
                            .collect::<Vec<R>>()
                    })
                }));
            }
        }
        let (start, chunk) = first.expect("at least two ranges");
        let mut out = worker(config, || {
            chunk
                .iter_mut()
                .enumerate()
                .map(|(i, t)| f(start + i, t))
                .collect::<Vec<R>>()
        });
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_exactly_once_and_respect_min_chunk() {
        for items in [0usize, 1, 5, 16, 17, 100] {
            for threads in [1usize, 2, 4, 7] {
                for min in [1usize, 4, 32] {
                    let ranges = ChunkPolicy::min_chunk(min).ranges(items, threads);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous ascending");
                        assert!(r.end > r.start, "non-empty");
                        next = r.end;
                    }
                    assert_eq!(next, items, "full coverage");
                    assert!(ranges.len() <= threads.max(1));
                    if ranges.len() > 1 {
                        for r in &ranges {
                            assert!(r.end - r.start >= min);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_ranges_align_all_interior_boundaries() {
        for items in [1usize, 3, 4, 7, 16, 37, 64, 129, 1000] {
            for threads in [1usize, 2, 4, 7] {
                for tile in [2usize, 4, 8] {
                    let ranges = ChunkPolicy::min_chunk(1).tiled(tile).ranges(items, threads);
                    let mut next = 0;
                    for (i, r) in ranges.iter().enumerate() {
                        assert_eq!(r.start, next, "contiguous ascending");
                        assert!(r.end > r.start, "non-empty");
                        if i + 1 < ranges.len() {
                            assert_eq!(r.end % tile, 0, "interior boundary on tile edge");
                        }
                        next = r.end;
                    }
                    assert_eq!(next, items, "full coverage");
                    assert!(ranges.len() <= threads.max(1));
                    assert!(ranges.len() <= items.div_ceil(tile));
                }
            }
        }
    }

    #[test]
    fn work_policies_give_every_block_a_full_grain() {
        for per_item in [0usize, 1, 3, 1000, 4096, 70_000, MIN_BLOCK_MACS, 1 << 22] {
            for items in [1usize, 2, 17, 300, 5000] {
                for (policy, grain) in [
                    (ChunkPolicy::macs(per_item), MIN_BLOCK_MACS),
                    (ChunkPolicy::elems(per_item), MIN_BLOCK_ELEMS),
                    (ChunkPolicy::macs(per_item).tiled(4), MIN_BLOCK_MACS),
                ] {
                    let ranges = policy.ranges(items, 4);
                    if ranges.len() > 1 {
                        for r in &ranges {
                            assert!((r.end - r.start) * per_item.max(1) >= grain);
                        }
                    }
                }
            }
        }
        // Two grains' worth splits in two; just under stays whole.
        assert_eq!(ChunkPolicy::macs(1000).ranges(2 * 1049, 2).len(), 2);
        assert_eq!(ChunkPolicy::macs(1000).ranges(2 * 1049 - 1, 2).len(), 1);
        assert_eq!(ChunkPolicy::elems(MIN_BLOCK_ELEMS).ranges(2, 2).len(), 2);
        assert_eq!(ChunkPolicy::macs(8).tiled(4).tile, 4);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn workers_run_with_serial_budget() {
        with_threads(4, || {
            let budgets = par_map_indexed(4, ChunkPolicy::min_chunk(1), |_| max_threads());
            // Every block (including the caller's own) pins itself to 1 so
            // nested calls cannot oversubscribe.
            assert_eq!(budgets, vec![1, 1, 1, 1]);
        });
    }

    #[test]
    fn par_chunks_mut_matches_serial_fill() {
        let fill = |start: usize, chunk: &mut [usize]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start * 3 + i) * 7;
            }
        };
        let mut serial_out = vec![0usize; 30];
        with_threads(1, || {
            par_chunks_mut(&mut serial_out, 3, ChunkPolicy::min_chunk(1), |s, c| {
                fill(s, c)
            })
        });
        let mut par_out = vec![0usize; 30];
        with_threads(4, || {
            par_chunks_mut(&mut par_out, 3, ChunkPolicy::min_chunk(1), |s, c| {
                fill(s, c)
            })
        });
        assert_eq!(serial_out, par_out);
        // Row 4 starts at element 12, so element 12 is (4*3+0)*7.
        assert_eq!(par_out[12], 84);
    }

    #[test]
    fn par_chunks_mut2_splits_both_buffers_consistently() {
        let mut a = vec![0usize; 12]; // rows of 2
        let mut b = vec![0usize; 18]; // rows of 3
        with_threads(4, || {
            par_chunks_mut2(
                &mut a,
                &mut b,
                2,
                3,
                ChunkPolicy::min_chunk(1),
                |row0, ca, cb| {
                    for (i, v) in ca.iter_mut().enumerate() {
                        *v = row0 * 2 + i;
                    }
                    for (i, v) in cb.iter_mut().enumerate() {
                        *v = row0 * 3 + i;
                    }
                },
            );
        });
        assert_eq!(a, (0..12).collect::<Vec<_>>());
        assert_eq!(b, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_preserves_index_order() {
        let mut items: Vec<usize> = (0..11).collect();
        let out = with_threads(4, || {
            par_map_mut(&mut items, ChunkPolicy::min_chunk(1), |i, v| {
                *v += 100;
                i * 2
            })
        });
        assert_eq!(out, (0..11).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(items, (100..111).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_handles_empty_and_tiny() {
        let empty: Vec<usize> =
            with_threads(4, || par_map_indexed(0, ChunkPolicy::min_chunk(1), |i| i));
        assert!(empty.is_empty());
        let one = with_threads(4, || {
            par_map_indexed(1, ChunkPolicy::min_chunk(1), |i| i + 9)
        });
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn join_runs_both_sides() {
        let counter = AtomicUsize::new(0);
        let (a, b) = with_threads(2, || {
            join(
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    "left"
                },
                || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    "right"
                },
            )
        });
        assert_eq!((a, b), ("left", "right"));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let mut data = vec![0u8; 8];
        with_threads(4, || {
            par_chunks_mut(&mut data, 1, ChunkPolicy::min_chunk(1), |row0, _| {
                if row0 > 0 {
                    panic!("worker boom");
                }
            });
        });
    }

    #[test]
    fn min_chunk_keeps_small_problems_on_caller_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(4, || {
            par_map_indexed(3, ChunkPolicy::min_chunk(8), |_| {
                std::thread::current().id()
            })
        });
        assert!(ids.iter().all(|&id| id == caller));
    }
}
