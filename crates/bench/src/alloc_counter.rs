//! A counting wrapper around the system allocator, for benchmarks that
//! track allocation-count reductions alongside wall-clock timings.
//!
//! Register it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: nws_bench::alloc_counter::CountingAllocator =
//!     nws_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! then bracket a region with [`snapshot`] and [`AllocSnapshot::since`].
//! The global counters are relaxed atomics, cheap enough to leave on
//! permanently; they count every thread's allocations, which is what a
//! multi-threaded region wants. Each thread also keeps its own tally
//! ([`measure_thread`]), exact for a single-threaded region whatever
//! other threads allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without `Drop`, so reading it from inside
    // the allocator neither allocates nor registers a destructor.
    static THREAD_TALLY: Cell<AllocSnapshot> =
        const { Cell::new(AllocSnapshot { calls: 0, bytes: 0 }) };
}

/// Counts one allocator round trip of `bytes`, globally and for the
/// calling thread.
fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_TALLY.try_with(|tally| {
        let t = tally.get();
        tally.set(AllocSnapshot {
            calls: t.calls + 1,
            bytes: t.bytes + bytes as u64,
        });
    });
}

/// Forwards to [`System`], counting every allocation and reallocation.
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the only added behavior is
// counter increments (relaxed atomics and a non-allocating thread-local),
// which cannot affect allocation semantics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, forwarded
        // unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with
        // this `layout`, as the caller's `dealloc` contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded
        // unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still returns fresh usable bytes; count it as
        // one allocator round trip like the others.
        count(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with
        // this `layout`; the caller's `realloc` contract covers the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative allocator counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (alloc + alloc_zeroed + realloc) so far.
    pub calls: u64,
    /// Bytes requested so far (not live bytes; frees are not subtracted).
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls.saturating_sub(earlier.calls),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Reads the cumulative counters. Monotone; diff two snapshots with
/// [`AllocSnapshot::since`] to measure a region.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f`, returning its result and the allocations every thread
/// performed meanwhile.
///
/// Only meaningful in binaries that registered [`CountingAllocator`] as
/// the global allocator; elsewhere both counters stay zero.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (out, after.since(&before))
}

/// [`measure`] for a single-threaded `f`: counts only the allocations
/// the calling thread performed, so another thread allocating meanwhile
/// (a test harness's main thread, say) does not show.
pub fn measure_thread<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = THREAD_TALLY.with(Cell::get);
    let out = f();
    let after = THREAD_TALLY.with(Cell::get);
    (out, after.since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test harness does not register the counting allocator, so the
    // counters stay zero here; what can be tested is the snapshot
    // arithmetic itself.
    #[test]
    fn since_subtracts_and_saturates() {
        let a = AllocSnapshot {
            calls: 10,
            bytes: 400,
        };
        let b = AllocSnapshot {
            calls: 25,
            bytes: 1000,
        };
        assert_eq!(
            b.since(&a),
            AllocSnapshot {
                calls: 15,
                bytes: 600
            }
        );
        assert_eq!(a.since(&b), AllocSnapshot { calls: 0, bytes: 0 });
    }

    #[test]
    fn measure_runs_the_closure() {
        let (v, delta) = measure(|| vec![1u8; 64].len());
        assert_eq!(v, 64);
        // Without the global registration the delta is zero, but it must
        // never go negative/saturate weirdly.
        assert!(delta.calls == 0 || delta.calls >= 1);
    }
}
