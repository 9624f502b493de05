//! Thread placement: the measuring thread on one CPU, the thread it
//! measures against (event loop or ticker) on another.
//!
//! Measured on the 2-vCPU VM this benchmark was written on: two busy
//! unpinned threads each lose ~17 % of their time to 4–8 ms stalls (the
//! kernel keeps stacking them on one CPU and pulling them apart again);
//! pinned one per CPU they lose ~1 %. Without pinning every `serve_*`
//! tail latency is that stall, not the server.
//!
//! A new thread inherits its creator's affinity, which is how threads
//! spawned inside `nws-server` get placed: [`spawning_on_server_cpu`]
//! moves the calling thread over for the duration of the spawn.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// A pin was refused; reported with the results rather than fatal.
static UNPINNED: AtomicBool = AtomicBool::new(false);

/// The two CPUs used: `(driver, server)`, the first two this process
/// may run on. `None` if the mask cannot be read or holds fewer.
fn cpus() -> Option<(usize, usize)> {
    static CPUS: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer
        // and its exact size is passed; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return None;
        }
        let mut allowed = (0..1024).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1);
        let server = allowed.next()?;
        let driver = allowed.next()?;
        Some((driver, server))
    })
}

fn pin_to(cpu: Option<usize>) {
    let pinned = cpu.is_some_and(|cpu| {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `set` is a valid `cpu_set_t`-sized buffer whose exact
        // size is passed; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    });
    if !pinned {
        UNPINNED.store(true, Ordering::Relaxed);
    }
}

/// Pins the calling thread to the CPU the measuring thread runs on.
pub fn pin_driver() {
    pin_to(cpus().map(|(driver, _)| driver));
}

/// Pins the calling thread to the CPU the measured-against thread
/// (event loop, ticker) runs on.
pub fn pin_server() {
    pin_to(cpus().map(|(_, server)| server));
}

/// Runs `spawn` on the server CPU, so the threads it creates inherit
/// that placement, then returns the caller to the driver CPU.
pub fn spawning_on_server_cpu<T>(spawn: impl FnOnce() -> T) -> T {
    pin_server();
    let out = spawn();
    pin_driver();
    out
}

/// Whether every pin so far took effect.
pub fn all_pinned() -> bool {
    !UNPINNED.load(Ordering::Relaxed)
}
