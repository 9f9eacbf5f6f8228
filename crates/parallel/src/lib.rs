//! The parallel execution engine behind the placer's hot paths.
//!
//! The build environment has no crates.io access, so this crate plays the
//! role rayon would: a process-global pool of worker threads plus a small
//! set of structured primitives ([`join`], [`map_chunks`],
//! [`for_each_chunk_mut`], [`map_indexed`]) that the thermal solver,
//! objective rebuild, and recursive bisection are written against.
//!
//! # Determinism contract
//!
//! Results must not depend on *how many* threads execute a call — only on
//! the input data. Two rules enforce that:
//!
//! 1. **Chunking is a pure function of data length.** [`chunk_ranges`]
//!    never consults the thread count, so the same input always produces
//!    the same chunk boundaries regardless of `--threads`.
//! 2. **Reductions fold chunk partials in chunk order** on the calling
//!    thread. A single thread computes the same chunks inline and folds
//!    them in the same order, so floating-point sums are bitwise
//!    identical for every thread count, 1 included.
//!
//! # Thread-count scoping
//!
//! The effective thread count is resolved per *task tree*, not globally:
//! [`with_threads`] installs a thread-local override for the duration of
//! a closure, and every task spawned underneath inherits it. This keeps
//! concurrent placer runs with different `--threads` settings (e.g. the
//! equivalence tests, which run serial and parallel placements from the
//! same process) fully isolated from each other. Outside any scope the
//! count is the hardware parallelism.
//!
//! # Blocking and nesting
//!
//! Structured calls block until their tasks finish, and while blocked the
//! caller *helps*: it pops and runs queued jobs instead of sleeping. That
//! makes arbitrarily nested parallelism (the recursive bisection tree)
//! deadlock-free even when every worker is itself blocked in a nested
//! call. Panics inside tasks are caught, forwarded, and re-thrown on the
//! calling thread after the whole batch has drained, so a panicking task
//! can never leave a borrowed-scope job alive behind the caller's back.

mod budget;

pub use budget::{ThreadBudget, ThreadLease};

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Hard ceiling on the worker pool, far above any sane `--threads`.
const MAX_THREADS: usize = 256;

/// Upper bound on chunks per structured call. Bounds scheduling overhead
/// while staying independent of the thread count (determinism rule 1).
const MAX_CHUNKS: usize = 64;

/// A queued unit of work. Lifetimes are erased when jobs enter the queue;
/// the latch protocol in [`run_tasks`] guarantees the borrow outlives the
/// job (the caller cannot return until every task has completed).
type Job = Box<dyn FnOnce() + Send>;

struct Pool {
    state: Mutex<PoolState>,
    work_available: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    spawned: usize,
}

thread_local! {
    /// Scope override installed by [`with_threads`]; 0 = none.
    static SCOPE_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            spawned: 0,
        }),
        work_available: Condvar::new(),
    })
}

/// The number of hardware threads available, at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective thread count at this point: the innermost
/// [`with_threads`] scope if one is active, else the hardware
/// parallelism.
pub fn threads() -> usize {
    match SCOPE_THREADS.with(Cell::get) {
        0 => available_threads(),
        n => n,
    }
}

/// Runs `f` with the effective thread count pinned to `n` (`0` = use all
/// hardware threads). Tasks spawned inside inherit the pinned count, so
/// an entire placement pipeline can be scoped with one call. Scopes nest;
/// the previous value is restored on exit (including on panic).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = if n == 0 {
        available_threads()
    } else {
        n.min(MAX_THREADS)
    };
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPE_THREADS.with(|c| c.replace(n)));
    f()
}

/// Completion latch for one batch of tasks, carrying the first panic.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Locks a pool/latch mutex, recovering from poisoning. Task panics are
/// caught by `run_tasks` and re-thrown on the caller, so a poisoned lock
/// only means some thread died between guarded statements — the guarded
/// state itself is never left mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = lock(&self.state);
        if st.panic.is_none() {
            st.panic = panic;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }
}

fn ensure_workers(wanted: usize) {
    let pool = pool();
    let mut st = lock(&pool.state);
    while st.spawned < wanted.min(MAX_THREADS - 1) {
        st.spawned += 1;
        let spawned = std::thread::Builder::new()
            .name(format!("tvp-worker-{}", st.spawned))
            .spawn(worker_loop);
        if spawned.is_err() {
            // Out of OS threads: run with however many workers exist.
            // The help-while-waiting loop keeps every batch live even
            // with zero workers, so this only costs parallelism.
            st.spawned -= 1;
            break;
        }
    }
}

fn worker_loop() {
    let pool = pool();
    loop {
        let job = {
            let mut st = lock(&pool.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = pool
                    .work_available
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// Runs every task in the batch, in parallel when the effective thread
/// count allows, and returns once all have completed. Panics from tasks
/// are re-thrown here after the batch drains.
///
/// This is the primitive underneath the typed helpers; prefer those.
pub fn run_tasks<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let eff = threads();
    if eff <= 1 || tasks.len() <= 1 {
        for task in tasks {
            task();
        }
        return;
    }
    ensure_workers(eff - 1);
    let latch = Arc::new(Latch::new(tasks.len()));
    {
        let pool = pool();
        let mut st = lock(&pool.state);
        for task in tasks {
            let latch = Arc::clone(&latch);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                // Workers inherit the spawner's effective thread count so
                // nested structured calls see a consistent value.
                let result = with_threads(eff, || panic::catch_unwind(AssertUnwindSafe(task)));
                latch.complete(result.err());
            });
            // SAFETY: the job borrows data that lives for 'scope. This
            // function does not return until `latch` reports all jobs
            // complete (see wait loop below), so the borrow is live for
            // the job's entire execution. The fat-pointer layout of the
            // trait object is unchanged by the lifetime erasure.
            let job: Job = unsafe { std::mem::transmute(job) };
            st.queue.push_back(job);
        }
        pool.work_available.notify_all();
    }
    // Help-while-waiting: run queued jobs (ours or anyone's) instead of
    // sleeping, so nested batches can always make progress.
    loop {
        let job = lock(&pool().state).queue.pop_front();
        if let Some(job) = job {
            job();
            continue;
        }
        let st = lock(&latch.state);
        if st.remaining == 0 {
            break;
        }
        // Timed wait: a job enqueued between the pop attempt above and
        // this wait would otherwise leave us sleeping on the wrong
        // condvar; the timeout re-polls the queue.
        drop(
            latch
                .done
                .wait_timeout(st, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
    let panic = lock(&latch.state).panic.take();
    if let Some(panic) = panic {
        panic::resume_unwind(panic);
    }
}

/// Splits `0..len` into contiguous ranges of at least `min_chunk`
/// elements (bounded by `MAX_CHUNKS`). A pure function of `len` and
/// `min_chunk` — never of the thread count — so chunk boundaries, and
/// therefore chunked floating-point reductions, are identical for every
/// parallel configuration.
pub fn chunk_ranges(len: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let chunks = len.div_ceil(min_chunk).clamp(1, MAX_CHUNKS);
    let base = len / chunks;
    let rem = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < rem);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    run_tasks(vec![
        Box::new(|| ra = Some(a())),
        Box::new(|| rb = Some(b())),
    ]);
    // run_tasks re-throws task panics, so reaching here means both
    // closures ran to completion and filled their slot.
    (
        ra.unwrap_or_else(|| unreachable!("join task a completed")),
        rb.unwrap_or_else(|| unreachable!("join task b completed")),
    )
}

/// Maps each chunk of `0..len` through `f`, returning per-chunk results
/// **in chunk order**. Fold the returned vector serially for a
/// thread-count-independent reduction.
pub fn map_chunks<R: Send>(
    len: usize,
    min_chunk: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(len, min_chunk);
    if ranges.len() <= 1 || threads() <= 1 {
        return ranges.into_iter().map(&f).collect();
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .zip(ranges)
        .map(|(slot, range)| {
            Box::new(move || *slot = Some(f(range))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    run_tasks(tasks);
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("chunk task completed")))
        .collect()
}

/// Ordered-deterministic chunked sum: chunk partials (computed in
/// parallel) folded left-to-right on the caller. Bitwise identical for
/// every thread count, 1 included.
///
/// Below `serial_below` elements the same chunk partials are computed
/// inline on the caller (same chunk boundaries, same fold order, so the
/// same bits), skipping pool dispatch entirely: a cutoff for sites whose
/// work per element is too small to amortize scheduling on small inputs
/// (0 = no cutoff). The other chunked primitives take it too.
pub fn sum_chunks(
    len: usize,
    min_chunk: usize,
    serial_below: usize,
    f: impl Fn(Range<usize>) -> f64 + Sync,
) -> f64 {
    if len < serial_below {
        return chunk_ranges(len, min_chunk).into_iter().map(f).sum();
    }
    map_chunks(len, min_chunk, f).into_iter().sum()
}

/// Maps each chunk of `data` through `f(chunk_start, chunk)` with
/// exclusive access to its chunk, returning per-chunk results **in chunk
/// order**. The mutable analogue of [`map_chunks`], for fused kernels
/// that both write an output slice and reduce a scalar in one pass.
/// Below `serial_below` elements the chunks run inline (see
/// [`sum_chunks`]).
pub fn map_chunks_mut<T: Send, R: Send>(
    data: &mut [T],
    min_chunk: usize,
    serial_below: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(data.len(), min_chunk);
    if data.len() < serial_below || ranges.len() <= 1 || threads() <= 1 {
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest = &mut *data;
        let mut consumed = 0;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.end - consumed);
            consumed = range.end;
            rest = tail;
            out.push(f(range.start, chunk));
        }
        return out;
    }
    let f = &f;
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut consumed = 0;
    for (slot, range) in slots.iter_mut().zip(ranges) {
        let (chunk, tail) = rest.split_at_mut(range.end - consumed);
        consumed = range.end;
        rest = tail;
        let start = range.start;
        tasks.push(Box::new(move || *slot = Some(f(start, chunk))));
    }
    run_tasks(tasks);
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("chunk task completed")))
        .collect()
}

/// Applies `f(chunk_start, chunk)` to disjoint mutable chunks of `data`
/// in parallel. `chunk_start` is the offset of `chunk` within `data`, so
/// `f` can index sibling read-only slices at matching positions. Below
/// `serial_below` elements the chunks run inline (see [`sum_chunks`]).
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    min_chunk: usize,
    serial_below: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let ranges = chunk_ranges(data.len(), min_chunk);
    if data.len() < serial_below || ranges.len() <= 1 || threads() <= 1 {
        for range in ranges {
            f(range.start, &mut data[range]);
        }
        return;
    }
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    let mut consumed = 0;
    for range in ranges {
        let (chunk, tail) = rest.split_at_mut(range.end - consumed);
        consumed = range.end;
        rest = tail;
        let start = range.start;
        tasks.push(Box::new(move || f(start, chunk)));
    }
    run_tasks(tasks);
}

/// Like [`for_each_chunk_mut`], but advances two equal-length slices in
/// lockstep — one fused pass for updates like CG's `x += αp; r -= αAp`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn for_each_chunk_mut2<T: Send, U: Send>(
    a: &mut [T],
    b: &mut [U],
    min_chunk: usize,
    serial_below: usize,
    f: impl Fn(usize, &mut [T], &mut [U]) + Sync,
) {
    assert_eq!(a.len(), b.len(), "paired chunk slices must match");
    let ranges = chunk_ranges(a.len(), min_chunk);
    if a.len() < serial_below || ranges.len() <= 1 || threads() <= 1 {
        for range in ranges {
            let start = range.start;
            f(start, &mut a[range.clone()], &mut b[range]);
        }
        return;
    }
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let (mut rest_a, mut rest_b) = (a, b);
    let mut consumed = 0;
    for range in ranges {
        let (chunk_a, tail_a) = rest_a.split_at_mut(range.end - consumed);
        let (chunk_b, tail_b) = rest_b.split_at_mut(range.end - consumed);
        consumed = range.end;
        rest_a = tail_a;
        rest_b = tail_b;
        let start = range.start;
        tasks.push(Box::new(move || f(start, chunk_a, chunk_b)));
    }
    run_tasks(tasks);
}

/// Maps `f` over `0..n` with one task per index, returning results in
/// index order. For coarse-grained work (multi-start partitioning) where
/// each index is already a large unit.
pub fn map_indexed<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n <= 1 || threads() <= 1 {
        return (0..n).map(&f).collect();
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| Box::new(move || *slot = Some(f(i))) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    run_tasks(tasks);
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("indexed task completed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunk_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 64, 1000, 4096, 100_000] {
            for min_chunk in [1usize, 16, 1024] {
                let ranges = chunk_ranges(len, min_chunk);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous at len={len}");
                    assert!(!r.is_empty(), "no empty chunks at len={len}");
                    next = r.end;
                }
                assert_eq!(next, len, "covers len={len}");
                assert!(ranges.len() <= MAX_CHUNKS);
            }
        }
    }

    #[test]
    fn chunking_ignores_thread_count() {
        let at_2 = with_threads(2, || chunk_ranges(10_000, 64));
        let at_7 = with_threads(7, || chunk_ranges(10_000, 64));
        let at_1 = with_threads(1, || chunk_ranges(10_000, 64));
        assert_eq!(at_2, at_7);
        assert_eq!(at_2, at_1);
    }

    #[test]
    fn sum_is_bitwise_stable_across_thread_counts() {
        // Values chosen to make reassociation visible if it happened.
        let data: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64) * 0.731).sin() * 1e10 + 1e-7)
            .collect();
        let reference = with_threads(2, || {
            sum_chunks(data.len(), 256, 0, |r| data[r].iter().sum::<f64>())
        });
        for n in [3, 4, 8] {
            let got = with_threads(n, || {
                sum_chunks(data.len(), 256, 0, |r| data[r].iter().sum::<f64>())
            });
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={n}");
        }
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = with_threads(4, || join(|| 6 * 7, || "ok".to_string()));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
        let (a, b) = with_threads(1, || join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_joins_do_not_deadlock() {
        fn tree_sum(depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            let (l, r) = join(|| tree_sum(depth - 1), || tree_sum(depth - 1));
            l + r
        }
        let got = with_threads(4, || tree_sum(8));
        assert_eq!(got, 1 << 8);
    }

    #[test]
    fn for_each_chunk_mut_sees_every_element_once() {
        let mut data = vec![0u64; 10_000];
        with_threads(4, || {
            for_each_chunk_mut(&mut data, 128, 0, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as u64;
                }
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn cutoff_variants_match_dispatched_results_bitwise() {
        let data: Vec<f64> = (0..9_000)
            .map(|i| ((i as f64) * 0.377).cos() * 1e8 + 3e-6)
            .collect();
        // Sum: serial-cutoff path vs dispatched path, same chunking.
        let dispatched = with_threads(4, || {
            sum_chunks(data.len(), 256, 0, |r| data[r].iter().sum::<f64>())
        });
        let cut = with_threads(4, || {
            sum_chunks(data.len(), 256, usize::MAX, |r| data[r].iter().sum::<f64>())
        });
        assert_eq!(cut.to_bits(), dispatched.to_bits());

        // for_each: both paths must visit every element exactly once with
        // the same chunk offsets.
        let fill = |serial_below: usize| {
            let mut out = vec![0u64; 5_000];
            with_threads(4, || {
                for_each_chunk_mut(&mut out, 128, serial_below, |start, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (start + i) as u64 * 3 + 1;
                    }
                });
            });
            out
        };
        assert_eq!(fill(usize::MAX), fill(0));

        let fill2 = |serial_below: usize| {
            let mut a = vec![0u64; 5_000];
            let mut b = vec![0u64; 5_000];
            with_threads(4, || {
                for_each_chunk_mut2(&mut a, &mut b, 128, serial_below, |start, xs, ys| {
                    for (i, (x, y)) in xs.iter_mut().zip(ys.iter_mut()).enumerate() {
                        *x = (start + i) as u64;
                        *y = (start + i) as u64 * 2;
                    }
                });
            });
            (a, b)
        };
        assert_eq!(fill2(usize::MAX), fill2(0));
    }

    #[test]
    fn map_chunks_mut_writes_chunks_and_returns_partials_in_order() {
        let mut data = vec![0.0f64; 20_000];
        let partials = with_threads(4, || {
            map_chunks_mut(&mut data, 512, 0, |start, chunk| {
                let mut sum = 0.0;
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as f64;
                    sum += *v;
                }
                sum
            })
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as f64));
        let total: f64 = partials.into_iter().sum();
        assert_eq!(total, (0..20_000).map(|i| i as f64).sum::<f64>());

        // Serial cutoff path produces identical partials.
        let mut again = vec![0.0f64; 20_000];
        let cut = with_threads(4, || {
            map_chunks_mut(&mut again, 512, usize::MAX, |start, chunk| {
                let mut sum = 0.0;
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as f64;
                    sum += *v;
                }
                sum
            })
        });
        assert_eq!(again, data);
        assert_eq!(cut.into_iter().sum::<f64>().to_bits(), total.to_bits());
    }

    #[test]
    fn map_indexed_preserves_order() {
        let got = with_threads(4, || map_indexed(20, |i| i * i));
        assert_eq!(got, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_after_batch_drains() {
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                map_indexed(8, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    i
                })
            })
        }));
        assert!(result.is_err(), "panic reached the caller");
        // The batch drained fully before rethrow (no task left running
        // against freed stack frames).
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn with_threads_scopes_nest_and_restore() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn workers_inherit_scope_thread_count() {
        let seen = with_threads(5, || map_indexed(4, |_| threads()));
        assert!(seen.iter().all(|&n| n == 5), "workers saw {seen:?}");
    }
}
