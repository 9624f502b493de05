//! Deterministic parallel execution primitives.
//!
//! The experiment stack fans out over independent units of work — hosts,
//! seeds, probe durations, aggregation levels — whose outputs are pure
//! functions of their inputs. [`parallel_map`] exploits that: it runs a
//! closure over a batch of items on a bounded pool of worker threads and
//! returns the results **in input order**, so the output is bit-identical
//! to a sequential `map` regardless of the thread count or OS scheduling.
//! [`parallel_zip_mut`] and [`parallel_for_each_mut`] are the in-place
//! variants the event engine uses: they mutate caller-owned slices
//! through exclusive per-index access and allocate nothing.
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
//! serve pipeline runs on, with swappable [`clock`]s (virtual time for
//! simulation and tests, wall time for live serving).

pub mod clock;
pub mod engine;
pub mod hash;

pub use clock::{Clock, StepClock, VirtualClock, WallClock};
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
pub fn hardware_threads() -> usize {
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
    // SAFETY: the pointee is `Sync` (enforced by `run`'s bound) and the
    // caller blocks until all workers are done with it.
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
            // SAFETY: the dispatching caller blocks until `done` reaches
            // the worker count, so the pointee is alive for this call.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data) }));
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
        unsafe fn call_impl<F: Fn()>(data: *const ()) {
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

/// A raw pointer the dispatch closures may share across threads.
///
/// Soundness rests on the index protocol: the atomic cursor hands each
/// index to exactly one worker, so derived `&mut` accesses are disjoint.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

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
    parallel_map_with(threads(), items, f)
}

/// [`parallel_map`] with an explicit thread count, bypassing the global
/// resolution. Mostly useful for tests pinning both sides of an
/// equivalence check.
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_workers(threads, n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let slot_ptr = SyncPtr(slots.as_mut_ptr());
    let result_ptr = SyncPtr(results.as_mut_ptr());
    dispatch(workers, n, |i| {
        // SAFETY: `dispatch` hands out each index exactly once, so the
        // slot and result cells at `i` are exclusively ours; both
        // vectors outlive the dispatch (the caller blocks in it).
        let item = unsafe { (*slot_ptr.get().add(i)).take() }.expect("work item claimed twice");
        let out = f(item);
        unsafe { *result_ptr.get().add(i) = Some(out) };
    });

    results
        .into_iter()
        .map(|slot| slot.expect("worker left result slot empty"))
        .collect()
}

/// Runs `f(index, &mut item)` over a caller-owned slice in place, fanned
/// over up to [`threads`]`()` pool workers. Exclusive access per index is
/// guaranteed by the dispatch protocol; completion order is unspecified,
/// so `f` must not depend on cross-index ordering.
///
/// Allocates nothing: the engine calls this every round with its
/// persistent shard and arena storage.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = effective_workers(threads(), n);
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let ptr = SyncPtr(items.as_mut_ptr());
    dispatch(workers, n, |i| {
        // SAFETY: each index is claimed exactly once (disjoint `&mut`),
        // and the slice outlives the dispatch.
        f(i, unsafe { &mut *ptr.get().add(i) });
    });
}

/// [`parallel_for_each_mut`] over two equal-length slices advanced in
/// lockstep: `f(index, &mut a[index], &mut b[index])`. The engine uses
/// this to pair each shard with its event arena without interleaving
/// their storage.
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
    let pa = SyncPtr(a.as_mut_ptr());
    let pb = SyncPtr(b.as_mut_ptr());
    dispatch(workers, n, |i| {
        // SAFETY: as in `parallel_for_each_mut`, per-index exclusivity
        // comes from the dispatch protocol; both slices outlive it.
        f(i, unsafe { &mut *pa.get().add(i) }, unsafe {
            &mut *pb.get().add(i)
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        for workers in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..97).collect();
            let out = parallel_map_with(workers, items.clone(), |x| x * x);
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert_eq!(parallel_map_with(4, empty, |x| x + 1), Vec::<i32>::new());
        assert_eq!(parallel_map_with(4, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn handles_non_clone_items_and_results() {
        // T and R only need Send; exercise with heap-owning values.
        let items: Vec<String> = (0..20).map(|i| format!("host-{i}")).collect();
        let out = parallel_map_with(4, items, |s| s.into_bytes());
        assert_eq!(out.len(), 20);
        assert_eq!(out[7], b"host-7".to_vec());
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Early items sleep longer, so later items finish first.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map_with(8, items, |i| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        parallel_map_with(4, vec![0, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn override_beats_env_and_detection() {
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn sequential_fallback_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let out = parallel_map_with(1, vec![(), (), ()], |()| std::thread::current().id());
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn for_each_mut_touches_each_index_exactly_once() {
        for threads in [1, 4] {
            set_threads(Some(threads));
            let mut items: Vec<u64> = vec![0; 257];
            parallel_for_each_mut(&mut items, |i, slot| *slot += i as u64 + 1);
            set_threads(None);
            let expect: Vec<u64> = (0..257).map(|i| i + 1).collect();
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn zip_mut_pairs_by_index() {
        for threads in [1, 4] {
            set_threads(Some(threads));
            let mut a: Vec<u64> = (0..100).collect();
            let mut b: Vec<u64> = vec![0; 100];
            parallel_zip_mut(&mut a, &mut b, |i, x, y| {
                *x *= 2;
                *y = *x + i as u64;
            });
            set_threads(None);
            for i in 0..100u64 {
                assert_eq!(a[i as usize], i * 2);
                assert_eq!(b[i as usize], i * 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zipped slices must match")]
    fn zip_mut_rejects_mismatched_lengths() {
        let mut a = [1, 2, 3];
        let mut b = [1, 2];
        parallel_zip_mut(&mut a, &mut b, |_, _, _| {});
    }

    #[test]
    fn for_each_mut_handles_empty_slice() {
        let mut items: Vec<u8> = Vec::new();
        parallel_for_each_mut(&mut items, |_, _| unreachable!());
    }

    #[test]
    fn nested_dispatch_falls_back_inline() {
        // A parallel map whose closure itself fans out must not deadlock
        // on the single dispatch gate.
        let items: Vec<u64> = (0..8).collect();
        let out = parallel_map_with(4, items, |i| {
            let mut inner: Vec<u64> = (0..16).collect();
            parallel_for_each_mut(&mut inner, |_, v| *v += i);
            inner.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|i| (0..16).map(|v| v + i).sum()).collect();
        assert_eq!(out, expect);
    }
}
