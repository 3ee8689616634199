//! `rex-pool` — a zero-dependency persistent worker-thread pool with a
//! *deterministic* work-partitioning contract.
//!
//! # Why a custom pool
//!
//! The reproduction's correctness story rests on bitwise-reproducible
//! training trajectories (see the golden-trace suite from the telemetry
//! layer). Off-the-shelf work-stealing pools split work by *thread count*
//! and combine partial results in *completion order*, so the same program
//! produces different floating-point results at different thread counts.
//! This pool inverts that design:
//!
//! * **Chunk boundaries are a function of problem size only.** Callers pass
//!   an explicit chunk length; [`parallel_for`] always creates
//!   `ceil(n_items / chunk)` chunks regardless of how many threads exist.
//! * **Combination order is a function of chunk count only.**
//!   [`parallel_reduce`] stores each chunk's partial into a dedicated slot
//!   and folds the slots with a fixed-shape pairwise tree on the calling
//!   thread.
//!
//! Under this contract a chunk body that only touches its own range
//! executes the *same float operations in the same order* whether the pool
//! has 1 thread or N, so results are bitwise identical across thread
//! counts.
//!
//! # Execution model
//!
//! Workers are spawned lazily on first use and persist for the process
//! lifetime (`num_threads() - 1` workers; the submitting thread always
//! participates, so a "1-thread" pool spawns nothing and runs inline).
//! Task handoff is a mutex-protected queue plus condvar — no busy waiting.
//! Chunks are claimed with an atomic counter, so a job is finished exactly
//! when `completed == n_chunks` even if a chunk body panics; the first
//! panic payload is captured and re-raised on the submitting thread
//! (a panicking chunk therefore aborts the whole op with the original
//! panic message instead of deadlocking the submitter).
//!
//! Nested calls from inside a worker run inline and serially — by the
//! determinism contract this is bitwise identical to a parallel run, and it
//! keeps coarse-grained outer parallelism (e.g. the schedule-grid harness)
//! from deadlocking on inner kernel parallelism.
//!
//! # Sizing
//!
//! Thread count resolves once per process, in priority order:
//! [`set_num_threads`] (e.g. a `--threads` CLI flag) > the
//! `REX_NUM_THREADS` env var > [`std::thread::available_parallelism`]
//! (capped at [`MAX_DEFAULT_THREADS`]). Tests and benchmarks can run a
//! scoped pool of any size via [`with_pool_size`].

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// Upper bound on the *default* thread count when neither
/// [`set_num_threads`] nor `REX_NUM_THREADS` pins one. Explicit settings
/// may exceed it.
pub const MAX_DEFAULT_THREADS: usize = 32;

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// Parses a thread count: an integer of at least 1. The one parse behind
/// `REX_NUM_THREADS` and every `--threads` flag.
///
/// # Errors
///
/// Names what a thread count must be.
pub fn parse_threads(s: &str) -> Result<usize, String> {
    (s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| "a thread count must be an integer >= 1".to_owned())
}

fn resolve_default() -> usize {
    if let Some(n) = std::env::var("REX_NUM_THREADS")
        .ok()
        .and_then(|raw| parse_threads(&raw).ok())
    {
        return n;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_DEFAULT_THREADS)
}

/// Returns the process-wide thread count, resolving (and caching) it on
/// first call: [`set_num_threads`] > `REX_NUM_THREADS` > core count.
pub fn num_threads() -> usize {
    *CONFIGURED.get_or_init(resolve_default)
}

/// Pins the process-wide thread count, overriding `REX_NUM_THREADS`.
///
/// Must be called before the first parallel operation (CLI flag parsing is
/// the intended call site). Returns an error if the count has already been
/// resolved — either by an earlier call or because a parallel op already
/// ran — since the persistent pool cannot be resized after workers exist.
pub fn set_num_threads(n: usize) -> Result<(), String> {
    let n = n.max(1);
    match CONFIGURED.set(n) {
        Ok(()) => Ok(()),
        Err(_) if num_threads() == n => Ok(()),
        Err(_) => Err(format!(
            "thread count already resolved to {} (set --threads before any parallel work)",
            num_threads()
        )),
    }
}

// ---------------------------------------------------------------------------
// Job: one parallel_for invocation, shared between submitter and workers
// ---------------------------------------------------------------------------

/// Type-erased chunk runner. The `'static` is a lie told to the type
/// system: `run_chunked` guarantees the referent outlives every
/// dereference by blocking until `completed == n_chunks` before returning.
type BodyRef = &'static (dyn Fn(usize) + Sync);

struct JobState {
    completed: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Job {
    body: BodyRef,
    n_chunks: usize,
    /// Next unclaimed chunk index; claimed with `fetch_add`, so every chunk
    /// is executed exactly once no matter how many threads race.
    next: AtomicUsize,
    state: Mutex<JobState>,
    done: Condvar,
    /// When the job was pushed onto the queue; chunk 0's claim records
    /// `enqueued_at.elapsed()` as the job's queue-wait.
    enqueued_at: Instant,
}

impl Job {
    /// Claims and runs chunks until none remain. Called by both workers and
    /// the submitting thread. Panics in the body are caught so `completed`
    /// always reaches `n_chunks` (no deadlock); the first payload is kept
    /// for the submitter to re-raise.
    ///
    /// Instrumentation: `fetch_add` hands chunk 0 to exactly one claimant —
    /// the first thread to start this job — so that claim measures the
    /// submit-to-first-run queue wait. Each chunk body's wall time is
    /// accumulated separately (worker vs submitter), none of which touches
    /// the chunk bodies themselves, so computed bytes are unchanged.
    fn run_to_completion(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.n_chunks {
                return;
            }
            if chunk == 0 {
                STATS.queue_wait_ns.fetch_add(
                    self.enqueued_at.elapsed().as_nanos() as u64,
                    Ordering::Relaxed,
                );
            }
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(chunk)));
            let dt = t0.elapsed().as_nanos() as u64;
            STATS.chunks.fetch_add(1, Ordering::Relaxed);
            STATS.exec_ns.fetch_add(dt, Ordering::Relaxed);
            if IN_WORKER.with(|f| f.get()) {
                STATS.worker_busy_ns.fetch_add(dt, Ordering::Relaxed);
            } else {
                STATS.submitter_busy_ns.fetch_add(dt, Ordering::Relaxed);
            }
            let mut st = self.state.lock().unwrap();
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.completed += 1;
            if st.completed == self.n_chunks {
                self.done.notify_all();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instrumentation counters
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StatsCells {
    jobs: AtomicU64,
    chunks: AtomicU64,
    queue_wait_ns: AtomicU64,
    exec_ns: AtomicU64,
    worker_busy_ns: AtomicU64,
    submitter_busy_ns: AtomicU64,
}

static STATS: StatsCells = StatsCells {
    jobs: AtomicU64::new(0),
    chunks: AtomicU64::new(0),
    queue_wait_ns: AtomicU64::new(0),
    exec_ns: AtomicU64::new(0),
    worker_busy_ns: AtomicU64::new(0),
    submitter_busy_ns: AtomicU64::new(0),
};

/// Snapshot of the pool's cumulative instrumentation counters.
///
/// Only *pooled* jobs are counted — the inline path (single chunk, one
/// thread, or nested-in-worker) bypasses the queue and stays unmeasured so
/// small hot ops pay nothing. All fields are process-lifetime cumulative;
/// rates come from differencing two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs pushed onto the worker queue.
    pub jobs: u64,
    /// Chunks executed across all pooled jobs.
    pub chunks: u64,
    /// Total submit-to-first-claim wait across jobs, in nanoseconds.
    pub queue_wait_ns: u64,
    /// Total chunk-body execution time across all threads, in nanoseconds.
    pub exec_ns: u64,
    /// Portion of `exec_ns` spent on pool worker threads.
    pub worker_busy_ns: u64,
    /// Portion of `exec_ns` spent on the submitting thread itself.
    pub submitter_busy_ns: u64,
}

/// Current values of the pool's instrumentation counters.
pub fn stats() -> PoolStats {
    PoolStats {
        jobs: STATS.jobs.load(Ordering::Relaxed),
        chunks: STATS.chunks.load(Ordering::Relaxed),
        queue_wait_ns: STATS.queue_wait_ns.load(Ordering::Relaxed),
        exec_ns: STATS.exec_ns.load(Ordering::Relaxed),
        worker_busy_ns: STATS.worker_busy_ns.load(Ordering::Relaxed),
        submitter_busy_ns: STATS.submitter_busy_ns.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Pool core + worker loop
// ---------------------------------------------------------------------------

struct QueueState {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct PoolCore {
    queue: Mutex<QueueState>,
    available: Condvar,
    /// Total threads including the submitter; `workers == threads - 1`.
    threads: usize,
}

thread_local! {
    /// Set in pool worker threads: nested parallel ops run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped pool overrides installed by `with_pool_size` (innermost last).
    static OVERRIDE: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

fn worker_loop(core: Arc<PoolCore>) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = core.queue.lock().unwrap();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                q = core.available.wait(q).unwrap();
            }
        };
        // The queue may hold stale copies of already-finished jobs; the
        // chunk-claim check in `run_to_completion` makes those a no-op and
        // the `Arc` keeps the `Job` allocation alive, so this is safe.
        job.run_to_completion();
    }
}

/// An owned pool instance. The global pool lives forever in a `OnceLock`;
/// scoped pools from [`with_pool_size`] shut their workers down on drop.
struct Pool {
    core: Arc<PoolCore>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let core = Arc::new(PoolCore {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            threads,
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let core = Arc::clone(&core);
                thread::Builder::new()
                    .name(format!("rex-pool-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("failed to spawn rex-pool worker")
            })
            .collect();
        Self { core, handles }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.core.queue.lock().unwrap().shutdown = true;
        self.available_notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Pool {
    fn available_notify_all(&self) {
        self.core.available.notify_all();
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

fn current_core() -> Arc<PoolCore> {
    if let Some(core) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
        return core;
    }
    Arc::clone(&GLOBAL.get_or_init(|| Pool::new(num_threads())).core)
}

/// Returns the thread count of the pool the *current thread* would submit
/// to: the innermost [`with_pool_size`] override if one is active,
/// otherwise the process-wide [`num_threads`].
pub fn current_num_threads() -> usize {
    if let Some(core) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
        return core.threads;
    }
    num_threads()
}

/// Runs `f` with a scoped pool of exactly `threads` threads (for the
/// calling thread only), then tears the pool down. Used by the kernel-bench
/// thread sweep and the determinism test suite to compare thread counts
/// within one process. Nestable; the innermost scope wins.
pub fn with_pool_size<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    let pool = Pool::new(threads);
    OVERRIDE.with(|o| o.borrow_mut().push(Arc::clone(&pool.core)));
    let _guard = PopGuard;
    f()
    // _guard pops the override (even on panic), then `pool` drops and joins.
}

// ---------------------------------------------------------------------------
// parallel_for and friends
// ---------------------------------------------------------------------------

/// Executes `n_chunks` chunk indices across the current pool, with the
/// submitting thread participating. Blocks until every chunk has finished;
/// re-raises the first chunk panic, if any.
fn run_chunked(n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let inline = n_chunks == 1 || IN_WORKER.with(|f| f.get());
    let core = if inline { None } else { Some(current_core()) };
    let core = match core {
        Some(c) if c.threads > 1 => c,
        _ => {
            for chunk in 0..n_chunks {
                body(chunk);
            }
            return;
        }
    };
    // Erase the borrow lifetime; sound because this function does not
    // return until `completed == n_chunks` (see the wait loop below), and
    // stale queue entries never dereference `body` once all chunks are
    // claimed.
    let body: BodyRef = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body,
        n_chunks,
        next: AtomicUsize::new(0),
        state: Mutex::new(JobState {
            completed: 0,
            panic: None,
        }),
        done: Condvar::new(),
        enqueued_at: Instant::now(),
    });
    STATS.jobs.fetch_add(1, Ordering::Relaxed);
    {
        let mut q = core.queue.lock().unwrap();
        // One queue entry per worker that could usefully help; each entry
        // is a handle into the same chunk counter, not a unit of work.
        let copies = (core.threads - 1).min(n_chunks);
        for _ in 0..copies {
            q.jobs.push_back(Arc::clone(&job));
        }
    }
    core.available.notify_all();
    job.run_to_completion();
    let mut st = job.state.lock().unwrap();
    while st.completed < n_chunks {
        st = job.done.wait(st).unwrap();
    }
    if let Some(payload) = st.panic.take() {
        drop(st);
        resume_unwind(payload);
    }
}

/// Runs `body(chunk_index, item_range)` for every chunk of `chunk` items
/// covering `0..n_items` (last chunk may be short).
///
/// Chunk boundaries depend only on `n_items` and `chunk`, so a body that
/// only touches state derived from its own range produces bitwise-identical
/// results at every thread count. Blocks until all chunks complete; a panic
/// in any chunk aborts the call by re-raising on the current thread.
pub fn parallel_for<F>(n_items: usize, chunk: usize, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = n_items.div_ceil(chunk);
    run_chunked(n_chunks, &|c| {
        let start = c * chunk;
        body(c, start..(start + chunk).min(n_items));
    });
}

/// Like [`parallel_for`], but hands each chunk a disjoint `&mut` window of
/// `data`: `body(chunk_index, offset, window)` where
/// `window == &mut data[offset..offset + len]` and `len <= chunk`.
///
/// This is the safe way to parallelize writes: windows never alias because
/// every chunk index is claimed exactly once.
pub fn parallel_for_slices<T, F>(data: &mut [T], chunk: usize, body: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = data.len();
    let chunk = chunk.max(1);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(len, chunk, move |c, range| {
        let base = &base; // capture the SendPtr wrapper, not the raw field
        let offset = range.start;
        // SAFETY: ranges from `parallel_for` partition `0..len` disjointly
        // and each chunk index runs exactly once, so no two windows alias;
        // `data` outlives the call because `parallel_for` blocks until all
        // chunks finish.
        let window = unsafe { std::slice::from_raw_parts_mut(base.0.add(offset), range.len()) };
        body(c, offset, window);
    });
}

/// Deterministic chunked reduction: maps every chunk of `chunk` items to a
/// partial with `map(chunk_index, item_range)` (in parallel), then folds
/// the partials with `combine` on the calling thread using a fixed-shape
/// pairwise tree over chunk indices.
///
/// Both the chunk grid and the tree shape depend only on `n_items` and
/// `chunk` — never on thread count or completion order — so floating-point
/// reductions are bitwise identical for any pool size *including the
/// serial path*. Returns `None` when `n_items == 0`.
pub fn parallel_reduce<T, M, C>(n_items: usize, chunk: usize, map: M, combine: C) -> Option<T>
where
    T: Send,
    M: Fn(usize, Range<usize>) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let chunk = chunk.max(1);
    let n_chunks = n_items.div_ceil(chunk);
    if n_chunks == 0 {
        return None;
    }
    let mut partials: Vec<Option<T>> = Vec::with_capacity(n_chunks);
    partials.resize_with(n_chunks, || None);
    parallel_for_slices(&mut partials, 1, |c, _, slot| {
        let start = c * chunk;
        slot[0] = Some(map(c, start..(start + chunk).min(n_items)));
    });
    // Fixed pairwise tree: (p0⊕p1)⊕(p2⊕p3)… repeated until one value
    // remains. Shape depends only on n_chunks.
    let mut level: Vec<T> = partials.into_iter().map(|p| p.unwrap()).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.pop()
}

struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard};

    /// The pool counters are process-global and tests run concurrently:
    /// the test that asserts exact counter deltas holds this exclusively,
    /// every other test holds it shared.
    static STATS: RwLock<()> = RwLock::new(());

    fn shared_stats() -> RwLockReadGuard<'static, ()> {
        STATS.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parallel_for_covers_every_item_exactly_once() {
        let _shared = shared_stats();
        with_pool_size(4, || {
            let n = 1003;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            parallel_for(n, 17, |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn parallel_for_slices_windows_are_disjoint_and_complete() {
        let _shared = shared_stats();
        with_pool_size(3, || {
            let mut data = vec![0u32; 500];
            parallel_for_slices(&mut data, 7, |c, offset, window| {
                assert_eq!(offset, c * 7);
                for (i, x) in window.iter_mut().enumerate() {
                    *x = (offset + i) as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
        });
    }

    #[test]
    fn reduce_is_bitwise_identical_across_thread_counts() {
        let _shared = shared_stats();
        // Catastrophic-cancellation-prone series: any re-grouping of the
        // fold changes the result, so equality here means the tree really
        // is fixed.
        let xs: Vec<f32> = (0..40_000)
            .map(|i| ((i * 2654435761u64 as usize) as f32).sin() * 1e4)
            .collect();
        let run = || {
            parallel_reduce(
                xs.len(),
                1 << 10,
                |_, r| xs[r].iter().fold(0.0f32, |acc, &v| acc + v),
                |a, b| a + b,
            )
            .unwrap()
        };
        let serial = with_pool_size(1, run);
        for threads in [2, 3, 7] {
            let par = with_pool_size(threads, run);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn panicking_chunk_aborts_instead_of_deadlocking() {
        let _shared = shared_stats();
        with_pool_size(4, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(64, 4, |c, _| {
                    if c == 9 {
                        panic!("poisoned task 9");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate to the submitter");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("poisoned task 9"), "got {msg:?}");
            // The pool must still be usable after a panicked job.
            let sum = parallel_reduce(100, 8, |_, r| r.len(), |a, b| a + b).unwrap();
            assert_eq!(sum, 100);
        });
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        let _shared = shared_stats();
        with_pool_size(2, || {
            let totals: Vec<usize> = {
                let mut out = vec![0usize; 8];
                parallel_for_slices(&mut out, 1, |c, _, slot| {
                    // Inner op on a busy pool: must complete (inline on a
                    // worker, cooperative on the submitter).
                    slot[0] =
                        parallel_reduce(50, 5, |_, r| r.len() * (c + 1), |a, b| a + b).unwrap();
                });
                out
            };
            for (c, t) in totals.iter().enumerate() {
                assert_eq!(*t, 50 * (c + 1));
            }
        });
    }

    #[test]
    fn with_pool_size_overrides_and_restores() {
        let _shared = shared_stats();
        let outer = current_num_threads();
        with_pool_size(5, || {
            assert_eq!(current_num_threads(), 5);
            with_pool_size(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 5);
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn stats_count_pooled_jobs_and_split_wait_from_exec() {
        let _exclusive = STATS.write().unwrap_or_else(PoisonError::into_inner);
        let before = stats();
        with_pool_size(3, || {
            parallel_for(1000, 10, |_, range| {
                // enough work per chunk that exec_ns registers
                let mut acc = 0u64;
                for i in range {
                    acc = acc.wrapping_add((i as u64).wrapping_mul(2654435761));
                }
                std::hint::black_box(acc);
            });
        });
        let after = stats();
        assert_eq!(after.jobs, before.jobs + 1);
        assert_eq!(after.chunks, before.chunks + 100);
        assert!(
            after.queue_wait_ns > before.queue_wait_ns,
            "first chunk claim must record a queue wait"
        );
        assert!(after.exec_ns > before.exec_ns);
        assert_eq!(
            after.exec_ns - before.exec_ns,
            (after.worker_busy_ns - before.worker_busy_ns)
                + (after.submitter_busy_ns - before.submitter_busy_ns),
            "exec time must split exactly into worker + submitter shares"
        );

        // the inline path (1 thread) bypasses the queue and stays unmeasured
        let before = stats();
        with_pool_size(1, || {
            parallel_for(100, 10, |_, _| {});
        });
        let after = stats();
        assert_eq!(after.jobs, before.jobs);
        assert_eq!(after.chunks, before.chunks);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let _shared = shared_stats();
        with_pool_size(3, || {
            parallel_for(0, 8, |_, _| panic!("must not run"));
            assert!(parallel_reduce(0, 8, |_, _| 1usize, |a, b| a + b).is_none());
        });
    }
}
