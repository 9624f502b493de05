//! Seeded stress of the crate's one pointer-deriving block, through the
//! public function that holds it and the one built on that.
//!
//! One test, in a process of its own: it sets the global thread count,
//! which tests sharing a binary would race on. The effective worker
//! count is clamped to the machine's cores, so on a single-core machine
//! every dispatch below is the sequential loop.

use nws_runtime::{fnv1a, parallel_map, parallel_zip_mut, set_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// Uneven, seeded per-item cost: a spin of 0–255 hash rounds.
fn spin(seed: u64, i: usize) -> u64 {
    let rounds = fnv1a(&(seed ^ i as u64).to_le_bytes()) % 256;
    (0..rounds).fold(seed, |h, r| fnv1a(&(h ^ r).to_le_bytes()))
}

fn here() -> ThreadId {
    std::thread::current().id()
}

#[test]
fn every_index_is_visited_once_in_input_order_at_any_worker_count() {
    for workers in [1usize, 2, 3, 8, 64] {
        set_threads(Some(workers));
        for n in [0usize, 1, 2, 97, 4096] {
            let seed = (workers * 10_000 + n) as u64;
            let label = format!("workers={workers} n={n}");
            let spun: Vec<u64> = (0..n).map(|i| spin(seed, i)).collect();

            // Map: heap-owning, non-`Clone` items and results, returned
            // in input order whichever worker finished first.
            let items: Vec<String> = (0..n).map(|i| format!("host-{i}")).collect();
            let out = parallel_map(items, |name| {
                let i: usize = name["host-".len()..].parse().expect("index");
                (name.into_bytes(), spin(seed, i), here())
            });
            assert_eq!(out.len(), n, "{label}");
            for (i, (name, result, thread)) in out.iter().enumerate() {
                assert_eq!(name, format!("host-{i}").as_bytes(), "{label}");
                assert_eq!(*result, spun[i], "{label}");
                if workers == 1 {
                    assert_eq!(*thread, here(), "one worker is the caller");
                }
            }

            // Zip: each index sees its own pair, exactly once.
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut visits = vec![0u32; n];
            parallel_zip_mut(&mut a, &mut visits, |i, x, v| {
                *x = (*x * 2 + i as u64).wrapping_add(spin(seed, i));
                *v += 1;
            });
            assert!(visits.iter().all(|&v| v == 1), "{label}: {visits:?}");
            for (i, x) in a.iter().enumerate() {
                assert_eq!(*x, (3 * i as u64).wrapping_add(spun[i]), "{label}");
            }
        }

        // A dispatch from inside a dispatch runs inline on the thread
        // that made it instead of deadlocking on the pool's gate.
        let sums = parallel_map((0..8u64).collect(), |i| {
            let outer = here();
            let mut inner: Vec<u64> = (0..16).collect();
            let mut threads = vec![outer; 16];
            parallel_zip_mut(&mut inner, &mut threads, |_, v, t| {
                *v += i;
                *t = here();
            });
            // With one worker the outer map is a plain loop, so the inner
            // dispatch is the only one and may fan out.
            assert!(workers == 1 || threads.iter().all(|t| *t == outer));
            inner.iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|i| (0..16).map(|v| v + i).sum()).collect();
        assert_eq!(sums, expect, "workers={workers}");

        // A panicking item reaches the caller only after every worker
        // has left the closure, and the pool serves the next dispatch.
        let inside = AtomicUsize::new(0);
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..97usize).collect(), |i| {
                inside.fetch_add(1, Ordering::SeqCst);
                let _leave = Leave(&inside);
                if i == 0 {
                    panic!("boom");
                }
                spin(7, i)
            })
        }));
        let payload = outcome.expect_err("the item's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(inside.load(Ordering::SeqCst), 0, "a worker outlived it");
        let again = parallel_map((0..97u64).collect(), |x| x * x);
        assert_eq!(again, (0..97u64).map(|x| x * x).collect::<Vec<_>>());
    }
    set_threads(None);
}
