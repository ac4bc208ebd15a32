//! Host hygiene between goal submissions, outside the timed calls.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Hands the memory freed by earlier goals back to the operating system,
/// so the peak resident set is set by one goal's live memory, not by how
/// the goals before it fragmented the heap.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointers; it only shrinks the
    // allocator's own free lists, under the allocator's locks.
    unsafe {
        malloc_trim(0);
    }
}

/// The CPUs this process may run on, read once before any pinning.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the
        // size passed is its size.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
        (0..1024)
            .filter(|cpu| ok && mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    })
}

fn pin(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// A short fixed amount of integer and cache work.
fn probe() -> Duration {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = [0u64; 512];
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x % 512) as usize;
        table[slot] = table[slot].wrapping_add(i);
    }
    black_box(&table);
    started.elapsed()
}

/// Pins the calling thread, and so the engine worker it spawns next, to
/// the allowed CPU that runs a probe fastest right now. On a shared host
/// the CPUs' speeds differ and change by the second with their
/// neighbours' load; which one the scheduler happens to pick is noise,
/// not a property of the synthesizer.
pub fn pin_to_fastest_cpu() {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return;
    }
    let mut fastest: Option<(usize, Duration)> = None;
    for &cpu in cpus {
        if pin(cpu) {
            let took = probe();
            if fastest.is_none_or(|(_, best)| took < best) {
                fastest = Some((cpu, took));
            }
        }
    }
    if let Some((cpu, _)) = fastest {
        pin(cpu);
    }
}
