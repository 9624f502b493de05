//! What the benchmark reads off the process and the machine rather
//! than off its own stopwatch: exact allocation counts, procfs
//! counters, and the calibration kernel behind the reference clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and bytes only while a
/// [`count_allocs`] region is open — so the end-to-end passes never pay
/// for (or contend on) the counters.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`;
// the added relaxed counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

fn note(calls: u64, allocated: usize, freed: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(calls, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(allocated as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(freed as u64, Ordering::Relaxed);
    }
}

/// What the allocator was asked for inside a [`count_allocs`] region,
/// by every thread of the process. Exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested minus bytes given back: what the region left
    /// allocated (negative if it freed more than it took).
    pub live_bytes: i64,
}

/// Runs `f` and returns its result with what it asked of the allocator.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    for counter in [&ALLOC_CALLS, &ALLOC_BYTES, &FREED_BYTES] {
        counter.store(0, Ordering::Relaxed);
    }
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = Allocs {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        live_bytes: ALLOC_BYTES.load(Ordering::Relaxed) as i64
            - FREED_BYTES.load(Ordering::Relaxed) as i64,
    };
    (out, allocs)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
}

/// Resets the peak resident set size to the current one, so a run that
/// shares its process with earlier runs reports its own peak. Warns if
/// the kernel refuses: `VmHWM` then still covers the whole process.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset VmHWM ({e}); peak_rss_mb covers the whole process");
    }
}

/// Peak resident set size since [`reset_peak_rss`] (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// `read`- plus `write`-family system calls this process has made
/// (`syscr + syscw` of `/proc/self/io`).
pub fn io_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscr:").unwrap_or(0)
        + proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// Voluntary context switches of every live thread of this process:
/// each one is a thread that blocked and had to be woken. Rust's
/// `TcpStream` reads and writes with `recv`/`send`, which the
/// `/proc/self/io` counters above do not see; the wake-ups they cause
/// show here.
pub fn wakeups() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let status = task.path().join("status");
            proc_field(status.to_str()?, "voluntary_ctxt_switches:")
        })
        .sum()
}

/// The calibration kernel: four independent xorshift + fused-multiply-
/// add chains, each also updating a 4 KB table that stays in L1 — fixed
/// work that keeps the core's ports and its L1 busy the way compiled
/// code does and touches nothing further out, so its time follows the
/// clock and whatever shares the core, and nothing else. It runs as six
/// chunks and reports six times the median chunk: a preemption in the
/// middle of it lands in one chunk and is left out, where a slower
/// clock stretches all six.
pub fn calib_spin_ms() -> f64 {
    const CHUNKS: usize = 6;
    const ITERS: u64 = 110_000;
    let mut chains = [
        std::hint::black_box(0x9E37_79B9_7F4A_7C15u64),
        0xD1B5_4A32_D192_ED03,
        0x8CB9_2BA7_2F3D_8DD7,
        0x2545_F491_4F6C_DD1D,
    ];
    let mut acc = [0.0f64; 4];
    let mut table = [0u64; 512];
    let mut chunk_ms = [0.0f64; CHUNKS];
    for ms in &mut chunk_ms {
        let t = Instant::now();
        for _ in 0..ITERS {
            for (x, acc) in chains.iter_mut().zip(&mut acc) {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                let slot = (*x >> 55) as usize;
                table[slot] = table[slot].wrapping_add(*x);
                *acc = ((*x >> 11) as f64).mul_add(1.0 / (1u64 << 53) as f64, *acc * 0.999_999);
            }
        }
        *ms = t.elapsed().as_secs_f64() * 1e3;
    }
    std::hint::black_box((acc, &table));
    chunk_ms.sort_unstable_by(f64::total_cmp);
    (chunk_ms[CHUNKS / 2 - 1] + chunk_ms[CHUNKS / 2]) / 2.0 * CHUNKS as f64
}

/// Cost of one clock read, ns — the floor under every individually
/// timed op and the size of the tracing overhead per span boundary.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(READS)
}
