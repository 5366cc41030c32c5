//! Host and provenance record: calibration kernel, CPU steal, process
//! I/O counters, peak RSS and the source revision.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A fixed kernel: an xorshift walk doing read-modify-writes over a
/// 32 MiB table, so its time tracks both the core's speed and the shared
/// cache and memory the host's other tenants contend for. It shares no
/// code with the system under test.
fn kernel(table: &mut [u32], rounds: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(i as u32);
        acc = acc.wrapping_add(u64::from(table[(j * 7) & mask]));
    }
    acc
}

/// Median milliseconds of five runs of the calibration kernel.
pub fn calib_ms() -> f64 {
    let mut table = vec![1u32; 1 << 23];
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel(black_box(&mut table), black_box(500_000)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut runs)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal share in percent between two [`cpu_jiffies`] readings.
pub fn steal_pct(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 / total as f64 * 100.0
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// `(wchar, syscw)` of this process: bytes passed to write calls, and
/// the number of those calls.
pub fn write_counters() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "wchar"),
        proc_field("/proc/self/io", "syscw"),
    )
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

/// Reset `VmHWM` to the current resident set; returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free pages back to the kernel (glibc
/// `malloc_trim(0)`, every arena), so the resident set holds live data
/// and not what earlier work freed.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes a plain integer and only returns free
    // memory; it is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Restrict the calling thread — and every thread it spawns later — to
/// the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// when the affinity calls fail (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
