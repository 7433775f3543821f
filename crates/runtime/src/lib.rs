//! # srmac-runtime: the shared parallel runtime
//!
//! One persistent worker pool behind two dispatch primitives:
//!
//! - [`Runtime::parallel_fill_blocks`] fills a row-major matrix over a
//!   fixed grid of rectangles. The `MacGemm` accumulation loops in
//!   `srmac-qgemm` dispatch their tile rectangles through it.
//! - [`Runtime::run_jobs`] runs heterogeneous `'static` jobs and hands
//!   their results back in job order (the trainer's replica seam).
//!
//! Both share one private dispatch loop. It enqueues the jobs, hands each
//! result back as soon as it arrives (so tile copy-back overlaps the jobs
//! still running) and fails loudly if a job died. It runs the jobs inline
//! when the runtime is serial, when called from inside a pool worker (so
//! nested dispatch can never deadlock the pool), or when there is at most
//! one job.
//!
//! Everything cheaper than a MAC tile runs serially on its caller and
//! does not use the pool: [`tree_reduce`] (the gradient sum over
//! replicas), the optimizer update, and the data movement around each
//! GEMM (`im2row`, `col2im`, the NCHW scatter/gathers, transposes, batch
//! assembly). Passes this cheap lose to the pool's dispatch cost.
//!
//! # The fill determinism contract
//!
//! [`Runtime::parallel_fill_blocks`] partitions an output buffer into a
//! grid of disjoint rectangles and runs one job per rectangle. The
//! contract every caller relies on (and every test asserts):
//!
//! - **Disjoint writes.** A job writes only its own rectangle. No two
//!   rectangles overlap, so there are no write races and no need for
//!   atomics.
//! - **Zeroed blocks.** Each rectangle arrives zero-filled; a job either
//!   overwrites every element or accumulates into zeros. The inline path
//!   zero-fills the whole output first, so both paths start identically.
//! - **No reduction-order changes.** The grid is a pure function of the
//!   shape and the tile sizes, never of the thread count. The runtime
//!   never splits an output element across jobs and never reassociates
//!   arithmetic: whatever order a job uses to compute one element is the
//!   same order the inline path uses. Consequently results are **bitwise
//!   identical** for every thread count, including 1 — parallelism
//!   changes wall-clock time, never bits.
//!
//! [`tree_reduce`] keeps the same discipline for *reductions*: its
//! association order is a pure function of the buffer count, so a
//! gradient sum over R replicas is bitwise pinned.
//!
//! # Scratch blocks
//!
//! Worker jobs must be `'static` (the pool outlives any one call), so each
//! tile job fills a recycled scratch block that the runtime copies into
//! the caller's output. Scratch blocks live in a free list on the runtime:
//! after warm-up, a steady-state training step performs no transient
//! allocations inside the runtime.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod pool;

use std::ops::Range;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};

use pool::WorkerPool;

/// Number of worker threads to use by default (the machine's available
/// parallelism).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A parallel execution context: an optional persistent worker pool plus
/// a free list of recycled scratch blocks.
///
/// A runtime with one thread has no pool at all; every dispatch runs
/// inline on the caller's thread with zero overhead. Results are bitwise
/// identical either way (see the module docs).
#[derive(Debug)]
pub struct Runtime {
    pool: Option<WorkerPool>,
    scratch: Mutex<Vec<Vec<f32>>>,
}

impl Runtime {
    /// Creates a runtime with `threads` workers (min 1; 1 means serial).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// A strictly serial runtime (no pool, inline execution).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The process-wide shared runtime, sized to [`available_threads`].
    /// The GEMM engines and the trainer use this by default, so the whole
    /// stack shares one pool instead of spawning one per engine.
    #[must_use]
    pub fn global() -> &'static Arc<Runtime> {
        static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Runtime::new(available_threads())))
    }

    /// Worker count (1 for a serial runtime).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::threads)
    }

    /// Fills `out` — a row-major `rows x cols` matrix — by running
    /// `job(row_range, col_range, block)` over a fixed grid of disjoint
    /// rectangles of `row_tile x col_tile` (edge tiles smaller). The
    /// block handed to the job is the rectangle in row-major order with
    /// stride `col_range.len()`; the runtime copies it back into `out`.
    ///
    /// The grid is a pure function of `(rows, cols, row_tile, col_tile)`
    /// — **never** of the thread count — and no output element is ever
    /// split across jobs, so results are bitwise identical for every
    /// thread count (see the module docs). When the dispatch would run
    /// inline (a serial runtime, a call from a pool worker, or a
    /// single-tile grid) the job runs once over the whole matrix; an empty
    /// matrix runs no job.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows * cols` or if a worker job dies.
    pub fn parallel_fill_blocks<F>(
        &self,
        rows: usize,
        cols: usize,
        row_tile: usize,
        col_tile: usize,
        out: &mut [f32],
        job: F,
    ) where
        F: Fn(Range<usize>, Range<usize>, &mut [f32]) + Send + Sync + 'static,
    {
        assert_eq!(out.len(), rows * cols, "out must be rows * cols");
        if rows == 0 || cols == 0 {
            return;
        }
        let rt = row_tile.max(1);
        let ct = col_tile.max(1);
        let col_jobs = cols.div_ceil(ct);
        let jobs = rows.div_ceil(rt) * col_jobs;
        if self.runs_inline(jobs) {
            out.fill(0.0);
            job(0..rows, 0..cols, out);
            return;
        }
        let tile = move |ji: usize| {
            let (r0, c0) = ((ji / col_jobs) * rt, (ji % col_jobs) * ct);
            (r0..(r0 + rt).min(rows), c0..(c0 + ct).min(cols))
        };
        let job = Arc::new(job);
        let tasks = (0..jobs).map(|ji| {
            #[expect(
                clippy::expect_used,
                reason = "a poisoned stash means a worker already panicked — propagate the abort"
            )]
            let mut block = self
                .scratch
                .lock()
                .expect("scratch poisoned")
                .pop()
                .unwrap_or_default();
            let job = Arc::clone(&job);
            move || {
                let (r, c) = tile(ji);
                block.clear();
                block.resize(r.len() * c.len(), 0.0);
                job(r, c, &mut block);
                block
            }
        });
        self.dispatch(tasks, |ji, block| {
            let (r, c) = tile(ji);
            if c.len() == cols {
                // Full-width tiles are one contiguous run of `out`.
                out[r.start * cols..r.end * cols].copy_from_slice(&block);
            } else {
                for (row, brow) in r.zip(block.chunks_exact(c.len())) {
                    out[row * cols + c.start..row * cols + c.end].copy_from_slice(brow);
                }
            }
            self.recycle(block);
        });
    }

    /// Runs independent `'static` closures on the pool and returns their
    /// results **in job order**. A serial runtime — or a call from inside
    /// a pool worker, or a single job — runs them inline in order;
    /// provided each job is deterministic in isolation, results are
    /// identical either way (scheduling changes wall-clock time, never
    /// values).
    ///
    /// This is the replica-dispatch seam of the data-parallel trainer:
    /// each job owns its replica's model and returns that replica's
    /// flattened gradients and state.
    ///
    /// # Panics
    ///
    /// Panics if a worker job dies before returning a result.
    pub fn run_jobs<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut slots: Vec<Option<T>> = (0..jobs.len()).map(|_| None).collect();
        self.dispatch(jobs.into_iter(), |i, out| slots[i] = Some(out));
        #[expect(
            clippy::expect_used,
            reason = "dispatch asserted every job ran; each slot was filled exactly once"
        )]
        let results = slots
            .into_iter()
            .map(|s| s.expect("every job completed"))
            .collect();
        results
    }

    /// True when a dispatch of `jobs` jobs runs on the calling thread: a
    /// serial runtime, a call from inside a pool worker, or at most one
    /// job.
    fn runs_inline(&self, jobs: usize) -> bool {
        self.pool.is_none() || jobs <= 1 || pool::in_worker()
    }

    /// The one dispatch loop: runs every job of `jobs` and hands each
    /// `(job index, result)` to `sink` as it arrives — in arrival order
    /// on the pool, in job order when [`Runtime::runs_inline`].
    ///
    /// A job that panics drops its result sender without sending, so the
    /// loop ends short; returning a partial result would silently corrupt
    /// downstream numerics, so that fails loudly instead.
    fn dispatch<T, F>(&self, jobs: impl ExactSizeIterator<Item = F>, mut sink: impl FnMut(usize, T))
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let pool = match &self.pool {
            Some(pool) if !self.runs_inline(n) => pool,
            _ => {
                for (i, job) in jobs.enumerate() {
                    sink(i, job());
                }
                return;
            }
        };
        let (tx, rx) = channel::<(usize, T)>();
        for (i, job) in jobs.enumerate() {
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                let _ = tx.send((i, job()));
            }));
        }
        drop(tx);
        let mut completed = 0usize;
        for (i, out) in rx.iter().take(n) {
            sink(i, out);
            completed += 1;
        }
        assert_eq!(completed, n, "a runtime worker job died before completing");
    }

    fn recycle(&self, block: Vec<f32>) {
        // Bound the free list by the only concurrency the pool can reach.
        #[expect(clippy::expect_used, reason = "poisoned stash — propagate the abort")]
        let mut stash = self.scratch.lock().expect("scratch poisoned");
        if stash.len() < 2 * self.threads() {
            stash.push(block);
        }
    }
}

/// Reduces `bufs` — equal-length `f32` buffers, one per replica — into
/// `bufs[0]` by a **fixed binary tree**: level one adds buffer `i + 1`
/// into buffer `i` for every even `i`, level two adds `i + 2` into `i`
/// for every `i` divisible by 4, and so on with doubling strides. The
/// association order is a pure function of `bufs.len()`: 3 buffers always
/// reduce as `(b0 + b1) + b2` element-wise, 4 as `(b0 + b1) + (b2 + b3)`.
///
/// The reduction runs serially on the caller. At the trainer's model
/// sizes one add per element is too little work to amortise a pool
/// dispatch: on a 2-vCPU host a 4-buffer reduce of a width-8 ResNet-20's
/// gradients took 29–39 µs serial and 53–86 µs on a 2-thread pool (the
/// pool only pulls ahead at width 32). On return `bufs[0]` holds the
/// reduction; the other buffers are clobbered with intermediate partial
/// sums.
///
/// # Panics
///
/// Panics if the buffers have unequal lengths.
pub fn tree_reduce(bufs: &mut [Vec<f32>]) {
    let n = bufs.len();
    if let Some(first) = bufs.first() {
        let len = first.len();
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(b.len(), len, "tree_reduce buffer {i} length mismatch");
        }
    }
    let mut stride = 1;
    while stride < n {
        for i in (0..n - stride).step_by(2 * stride) {
            let (left, right) = bufs.split_at_mut(i + stride);
            for (d, s) in left[i].iter_mut().zip(&right[0]) {
                *d += *s;
            }
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_fill_handles_empty_shapes() {
        let rt = Runtime::new(2);
        for (rows, cols) in [(0, 7), (9, 0), (0, 0)] {
            let calls = Arc::new(Mutex::new(0usize));
            let seen = Arc::clone(&calls);
            let mut out: Vec<f32> = Vec::new();
            rt.parallel_fill_blocks(rows, cols, 1, 1, &mut out, move |_rows, _cols, _block| {
                *seen.lock().unwrap() += 1;
            });
            assert!(out.is_empty(), "{rows}x{cols}");
            assert_eq!(
                *calls.lock().unwrap(),
                0,
                "{rows}x{cols}: an empty fill runs no job"
            );
        }
    }

    #[test]
    fn scratch_blocks_are_recycled() {
        let rt = Runtime::new(2);
        for _ in 0..10 {
            let mut out = vec![0.0f32; 64 * 4];
            rt.parallel_fill_blocks(64, 4, 1, 4, &mut out, |rows, _cols, block| {
                for (bi, r) in rows.enumerate() {
                    block[bi * 4] = r as f32;
                }
            });
        }
        let stash = rt.scratch.lock().unwrap();
        assert!(
            !stash.is_empty() && stash.len() <= 2 * rt.threads(),
            "free list should hold a bounded number of recycled blocks, has {}",
            stash.len()
        );
    }

    /// A rectangle job for the blocked primitive with an output that
    /// depends on the absolute (row, col) position, so any partition or
    /// copy-back mistake shows up as a bit difference.
    fn rect_job() -> impl Fn(Range<usize>, Range<usize>, &mut [f32]) + Send + Sync {
        |rows: Range<usize>, cols: Range<usize>, block: &mut [f32]| {
            let w = cols.len();
            for (bi, r) in rows.enumerate() {
                for (bj, c) in cols.clone().enumerate() {
                    block[bi * w + bj] = (r as f32 * 1.7 - 3.0) * (c as f32).cos() + c as f32;
                }
            }
        }
    }

    #[test]
    fn parallel_fill_blocks_is_bitwise_thread_and_tile_invariant() {
        let (rows, cols) = (23, 37);
        let mut want = vec![f32::NAN; rows * cols];
        want.fill(0.0);
        rect_job()(0..rows, 0..cols, &mut want);
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            for (row_tile, col_tile) in [(1, 64), (5, 7), (8, 16), (64, 64)] {
                let mut out = vec![f32::NAN; rows * cols];
                rt.parallel_fill_blocks(rows, cols, row_tile, col_tile, &mut out, rect_job());
                let same = want
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "{threads} threads, {row_tile}x{col_tile} tiles: blocked fill diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_fill_blocks_zeroes_unwritten_elements() {
        let rt = Runtime::new(3);
        let mut out = vec![f32::NAN; 4 * 6];
        // Job writes only the first column of its rectangle.
        rt.parallel_fill_blocks(4, 6, 2, 3, &mut out, |rows, cols, block| {
            let w = cols.len();
            for (bi, r) in rows.enumerate() {
                block[bi * w] = r as f32 + 1.0;
            }
        });
        for r in 0..4 {
            for c in 0..6 {
                let want = if c % 3 == 0 { r as f32 + 1.0 } else { 0.0 };
                assert_eq!(out[r * 6 + c], want, "({r},{c})");
            }
        }
    }

    #[test]
    fn single_tile_grid_runs_inline() {
        let rt = Runtime::new(4);
        let ranges = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ranges);
        let mut out = vec![0.0f32; 5 * 9];
        rt.parallel_fill_blocks(5, 9, 8, 16, &mut out, move |rows, cols, _block| {
            seen.lock().unwrap().push((rows.clone(), cols.clone()));
        });
        let seen_ranges = ranges.lock().unwrap();
        assert_eq!(seen_ranges.len(), 1, "one tile means inline execution");
        assert_eq!(seen_ranges[0], (0..5, 0..9));
    }

    #[test]
    #[should_panic(expected = "worker job died")]
    fn panicking_block_job_fails_the_fill_loudly() {
        let rt = Runtime::new(2);
        let mut out = vec![0.0f32; 64 * 8];
        rt.parallel_fill_blocks(64, 8, 4, 8, &mut out, |rows, _cols, _block| {
            if rows.start >= 32 {
                panic!("job failure injection");
            }
        });
    }

    #[test]
    fn tree_reduce_three_buffers_is_left_pair_first() {
        // Non-associativity witness: values chosen so (b0 + b1) + b2 and
        // b0 + (b1 + b2) differ in f32. Under the pinned order,
        // (1e8 + -1e8) + 1.25 == 1.25 exactly; right-first would compute
        // -1e8 + 1.25 -> -1e8 (1.25 is below the half-ulp of 4 at that
        // magnitude), so 1e8 + (…) == 0.0 — a different bit pattern.
        let mut bufs = vec![vec![1.0e8f32], vec![-1.0e8f32], vec![1.25f32]];
        tree_reduce(&mut bufs);
        assert_eq!(bufs[0][0].to_bits(), 1.25f32.to_bits());
        let right_first = 1.0e8f32 + (-1.0e8f32 + 1.25f32);
        assert_ne!(
            right_first.to_bits(),
            1.25f32.to_bits(),
            "witness must actually be non-associative"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn tree_reduce_rejects_unequal_lengths() {
        let mut bufs = vec![vec![0.0f32; 4], vec![0.0f32; 5]];
        tree_reduce(&mut bufs);
    }

    #[test]
    fn run_jobs_returns_results_in_job_order() {
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            let jobs: Vec<_> = (0..9usize)
                .map(|i| {
                    move || {
                        // Stagger completion so out-of-order arrival is
                        // likely on a real pool.
                        std::thread::sleep(std::time::Duration::from_millis(((9 - i) % 3) as u64));
                        i * i
                    }
                })
                .collect();
            let got = rt.run_jobs(jobs);
            let want: Vec<usize> = (0..9).map(|i| i * i).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "worker job died")]
    fn panicking_run_job_fails_loudly() {
        let rt = Runtime::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 2, "job failure injection");
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let _ = rt.run_jobs(jobs);
    }

    #[test]
    fn nested_dispatch_from_a_worker_runs_inline_and_matches() {
        // A run_jobs job that itself calls parallel_fill_blocks and
        // run_jobs: with a pool of 2 and 2 such jobs, every worker is
        // busy, so the nested dispatches can only complete via the
        // in-worker inline path — and must still match the serial bits.
        let serial = Runtime::serial();
        let compute = |rt: &Runtime| -> Vec<f32> {
            let mut rect = vec![0.0f32; 8 * 8];
            rt.parallel_fill_blocks(8, 8, 2, 4, &mut rect, rect_job());
            let inner: Vec<_> = (0..3).map(|i| move || i as f32 * 0.5).collect();
            let scalars = rt.run_jobs(inner);
            let mut bufs = vec![rect, vec![scalars.iter().sum(); 64]];
            tree_reduce(&mut bufs);
            bufs.swap_remove(0)
        };
        let want = compute(&serial);
        let rt = Arc::new(Runtime::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let rt = Arc::clone(&rt);
                move || compute(&rt)
            })
            .collect();
        for got in rt.run_jobs(jobs) {
            let same = want
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "nested dispatch changed bits");
        }
    }

    #[test]
    fn global_runtime_is_shared() {
        let a = Arc::as_ptr(Runtime::global());
        let b = Arc::as_ptr(Runtime::global());
        assert_eq!(a, b);
        assert!(Runtime::global().threads() >= 1);
    }
}
