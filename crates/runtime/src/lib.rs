//! Deterministic parallel execution primitives.
//!
//! The experiment stack fans out over independent units of work — hosts,
//! seeds, probe durations, aggregation levels — whose outputs are pure
//! functions of their inputs. [`parallel_map`] exploits that: it runs a
//! closure over a batch of items on a bounded pool of worker threads and
//! returns the results **in input order**, so the output is bit-identical
//! to a sequential `map` regardless of the thread count or OS scheduling.
//! [`parallel_zip_mut`] is the in-place variant the event engine uses
//! every round: it mutates two caller-owned slices through exclusive
//! per-index access and allocates nothing. It is the one function here
//! that turns a shared pointer into a `&mut`; [`parallel_map`] is safe
//! code on top of it.
//!
//! The layer is dependency-free. Worker threads are spawned once, on the
//! first parallel dispatch, into a process-wide `pool`; subsequent
//! dispatches hand a borrowed job to the resident workers through a
//! condvar handshake, so steady-state fan-outs allocate no thread stacks
//! and no queue nodes. The effective worker count is resolved, in
//! priority order, from:
//!
//! 1. a programmatic override installed with [`set_threads`] (the
//!    `repro --threads N` flag uses this),
//! 2. the `NWS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Requesting more workers than the machine has cores only adds
//! scheduling overhead — every primitive here is output-invariant in the
//! thread count by construction — so the resolved count is additionally
//! clamped to the detected hardware parallelism at dispatch time.
//! `threads = 1` is a guaranteed sequential fallback: the closure runs on
//! the caller's thread and the pool is never touched.
//!
//! On top of the parallel primitives sits the [`engine`] module: the
//! deterministic discrete-event engine the sensing → storage → forecast →
//! serve pipeline runs on, with swappable virtual [`clock`]s.

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod engine;
pub mod hash;

pub use clock::{Clock, StepClock, VirtualClock};
pub use engine::{Cadence, Engine, EngineConfig, Source, Stage};
pub use hash::{fnv1a, host_seed, Fnv1a};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Programmatic thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide thread-count override taking precedence over
/// `NWS_THREADS` and the detected parallelism. Pass `None` to clear it.
///
/// A count of 0 is treated as `None`.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Resolves the requested worker-thread count.
///
/// Priority: [`set_threads`] override, then the `NWS_THREADS` environment
/// variable (ignored if unparsable or zero), then
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("NWS_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    hardware_threads()
}

/// Detected hardware parallelism (cached; 1 if detection fails).
fn hardware_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached > 0 {
        return cached;
    }
    let detected = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    CACHED.store(detected, Ordering::Relaxed);
    detected
}

/// Effective worker count for a dispatch over `n` items: the requested
/// count, bounded by the items available and the hardware (see the
/// module docs for why oversubscription is clamped).
fn effective_workers(requested: usize, n: usize) -> usize {
    requested.max(1).min(n).min(hardware_threads())
}

/// Chunk of consecutive indices a worker claims per cursor fetch. Large
/// enough to amortize the atomic, small enough (4 chunks per worker) to
/// rebalance when per-item costs are uneven.
fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).max(1)
}

/// The resident worker pool: spawned once, reused by every dispatch.
///
/// A dispatch publishes a *borrowed* job (a type-erased `&impl Fn()`)
/// under a mutex, wakes the workers, runs the job on the caller's thread
/// too, and blocks until every worker has bumped the done counter. The
/// caller outliving the handshake is what makes the borrow sound — no
/// boxing, no channels, no per-job allocation.
mod pool {
    use std::panic::AssertUnwindSafe;
    use std::sync::{Condvar, Mutex, Once, OnceLock};

    /// Type-erased pointer to a caller-stack job closure.
    #[derive(Clone, Copy)]
    struct Job {
        data: *const (),
        call: unsafe fn(*const ()),
    }
    // SAFETY: `data` points at a closure that is `Sync` (enforced by
    // `run`'s bound), so calling it from another thread is sound, and
    // the caller blocks until all workers are done with it; `call` is a
    // plain function pointer.
    unsafe impl Send for Job {}

    struct Shared {
        /// Monotonic job counter; workers run each epoch exactly once.
        epoch: u64,
        /// The job for the current epoch.
        job: Option<Job>,
        /// Workers finished with the current epoch's job.
        done: usize,
        /// First panic payload a worker caught for the current epoch.
        panic: Option<Box<dyn std::any::Any + Send>>,
    }

    pub(crate) struct Pool {
        shared: Mutex<Shared>,
        work_cv: Condvar,
        done_cv: Condvar,
        /// Serializes dispatches; `try_lock` failure means a nested or
        /// concurrent dispatch, which runs inline instead.
        gate: Mutex<()>,
        /// Resident worker threads (callers participate too, so the
        /// pool holds `hardware_threads() - 1` of them).
        workers: usize,
    }

    fn helper_loop(pool: &'static Pool) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut s = pool.shared.lock().expect("pool state poisoned");
                loop {
                    if s.epoch != seen {
                        if let Some(job) = s.job {
                            seen = s.epoch;
                            break job;
                        }
                    }
                    s = pool.work_cv.wait(s).expect("pool state poisoned");
                }
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `run` built `job` from one `&F` — `data` is that
                // reference and `call` is `call_impl::<F>` — and blocks
                // until `done` reaches the worker count, so the closure
                // is alive for this call.
                unsafe { (job.call)(job.data) }
            }));
            let mut s = pool.shared.lock().expect("pool state poisoned");
            if let Err(payload) = outcome {
                s.panic.get_or_insert(payload);
            }
            s.done += 1;
            if s.done >= pool.workers {
                pool.done_cv.notify_one();
            }
        }
    }

    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        static STARTED: Once = Once::new();
        let pool = POOL.get_or_init(|| Pool {
            shared: Mutex::new(Shared {
                epoch: 0,
                job: None,
                done: 0,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            gate: Mutex::new(()),
            workers: super::hardware_threads().saturating_sub(1),
        });
        STARTED.call_once(|| {
            for _ in 0..pool.workers {
                std::thread::spawn(move || helper_loop(pool));
            }
        });
        pool
    }

    /// Runs `job` on the pool workers and the caller's thread, returning
    /// once every participant has finished. `job` must fully cooperate
    /// through interior synchronization (the dispatchers use an atomic
    /// index cursor), because every resident worker calls it once.
    pub(crate) fn run<F: Fn() + Sync>(job: &F) {
        let pool = get();
        if pool.workers == 0 {
            job();
            return;
        }
        let _gate = match pool.gate.try_lock() {
            Ok(g) => g,
            // Nested or concurrent dispatch: index-claiming jobs drain
            // correctly on one thread, so run inline rather than block.
            Err(_) => {
                job();
                return;
            }
        };
        /// # Safety
        ///
        /// `data` must be a `&F` that is live for the whole call.
        unsafe fn call_impl<F: Fn()>(data: *const ()) {
            // SAFETY: the caller passes a live `&F` (see above).
            unsafe { (*(data as *const F))() }
        }
        {
            let mut s = pool.shared.lock().expect("pool state poisoned");
            s.epoch += 1;
            s.job = Some(Job {
                data: job as *const F as *const (),
                call: call_impl::<F>,
            });
            s.done = 0;
            s.panic = None;
            pool.work_cv.notify_all();
        }
        // Participate, but trap a local panic until the workers have
        // finished with the borrowed job — unwinding early would free
        // the closure out from under them.
        let caller_panic = std::panic::catch_unwind(AssertUnwindSafe(job)).err();
        let mut s = pool.shared.lock().expect("pool state poisoned");
        while s.done < pool.workers {
            s = pool.done_cv.wait(s).expect("pool state poisoned");
        }
        s.job = None;
        let worker_panic = s.panic.take();
        drop(s);
        if let Some(payload) = caller_panic.or(worker_panic) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A raw pointer the dispatch closure shares across threads; only
/// [`parallel_zip_mut`] dereferences one.
struct SyncPtr<T>(*mut T);
// SAFETY: the one field is a pointer into a slice `parallel_zip_mut` holds
// exclusively for the whole dispatch, and the atomic cursor hands each
// index to exactly one worker, so the `&mut T` derived from it are
// disjoint; they mutate `T` on other threads, hence `T: Send`.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(i)` for every `i in 0..n`, each index exactly once, fanned
/// over `workers` participants (the caller plus pool workers). Allocates
/// nothing after the pool's one-time spawn.
fn dispatch(workers: usize, n: usize, f: impl Fn(usize) + Sync) {
    debug_assert!(workers >= 2, "sequential callers skip dispatch");
    let chunk = chunk_size(n, workers);
    let cursor = AtomicUsize::new(0);
    let tickets = AtomicUsize::new(0);
    let body = move || {
        // Every resident worker calls the job; only `workers` of them
        // (counting the caller) actually claim indices, preserving the
        // requested concurrency bound.
        if tickets.fetch_add(1, Ordering::Relaxed) >= workers {
            return;
        }
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                f(i);
            }
        }
    };
    pool::run(&body);
}

/// Maps `f` over `items` on up to [`threads`]`()` pool workers,
/// returning the results in input order.
///
/// Work is handed out in chunks through a shared atomic cursor, so
/// threads stay busy even when per-item costs are uneven; each result is
/// written back into the slot matching its input index, which makes the
/// output order — and therefore every downstream artifact — independent
/// of scheduling.
///
/// With an effective worker count of 1 (or at most one item) this runs
/// sequentially on the caller's thread. A panic in `f` propagates to the
/// caller once the dispatch completes.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Each item is taken out of its cell and its result put into the
    // cell beside it, in place.
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    parallel_zip_mut(&mut items, &mut results, |_, item, result| {
        *result = item.take().map(&f);
    });
    results
        .into_iter()
        .map(|result| result.expect("every index is dispatched once"))
        .collect()
}

/// Runs `f(index, &mut a[index], &mut b[index])` over two equal-length
/// caller-owned slices in place, fanned over up to [`threads`]`()` pool
/// workers. Exclusive access per index is guaranteed by the dispatch
/// protocol; completion order is unspecified, so `f` must not depend on
/// cross-index ordering.
///
/// Allocates nothing: the engine calls this every round to pair each
/// shard with its event arena without interleaving their storage. It is
/// the one function in the crate that derives a `&mut` from a shared
/// pointer; [`parallel_map`] is safe code on top of it.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn parallel_zip_mut<A, B, F>(a: &mut [A], b: &mut [B], f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut A, &mut B) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped slices must match");
    let n = a.len();
    let workers = effective_workers(threads(), n);
    if workers <= 1 {
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            f(i, x, y);
        }
        return;
    }
    let (pa, pb) = (SyncPtr(a.as_mut_ptr()), SyncPtr(b.as_mut_ptr()));
    dispatch(workers, n, |i| {
        // SAFETY: `i < n`, the length of both slices, so both offsets are
        // in bounds; `dispatch` hands out each index exactly once, so the
        // two `&mut` at `i` alias nothing another worker holds; and the
        // caller's exclusive borrows of `a` and `b` outlive the dispatch,
        // which returns only after every worker is done.
        let (x, y) = unsafe { (&mut *pa.get().add(i), &mut *pb.get().add(i)) };
        f(i, x, y);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fan-out itself is stressed through the public functions in
    // `tests/fanout.rs`, a process of its own: it sets the global thread
    // count, which tests sharing this binary would race on.

    #[test]
    fn override_beats_env_and_detection() {
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "zipped slices must match")]
    fn zip_mut_rejects_mismatched_lengths() {
        let mut a = [1, 2, 3];
        let mut b = [1, 2];
        parallel_zip_mut(&mut a, &mut b, |_, _, _| {});
    }
}
