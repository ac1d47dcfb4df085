//! Process accounting and small statistics — the benchmark's own
//! instruments. Std only: CPU time and context switches come from
//! `/proc`, allocations from a counting global allocator that is inert
//! until a traced pass switches it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports (it is an ABI constant, not `CONFIG_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds of a task, as `/proc/<..>/stat` reports them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

fn cpu_from(path: &str) -> Cpu {
    // Fields 14 and 15 (utime, stime) counted after the `(comm)` field,
    // which may itself contain spaces — split at its closing parenthesis.
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (user, sys) = (tick(), tick());
    Cpu { user_s: user / TICKS_PER_SEC, sys_s: sys / TICKS_PER_SEC }
}

/// CPU consumed so far by the whole process (every thread, exited ones
/// included).
pub fn process_cpu() -> Cpu {
    cpu_from("/proc/self/stat")
}

/// CPU consumed so far by the calling thread alone.
pub fn thread_cpu() -> Cpu {
    cpu_from("/proc/thread-self/stat")
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` of this process in KiB: the peak resident set.
pub fn peak_rss_kb() -> u64 {
    status_field(&std::fs::read_to_string("/proc/self/status").unwrap_or_default(), "VmHWM")
}

/// `VmRSS` of this process in KiB: the current resident set.
pub fn rss_kb() -> u64 {
    status_field(&std::fs::read_to_string("/proc/self/status").unwrap_or_default(), "VmRSS")
}

/// Context switches (voluntary + involuntary) summed over every live thread
/// of this process. Threads that already exited are not counted, so read it
/// while the threads of interest are still running.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .map(|t| {
            let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// The global allocator: `System`, plus two counters that only move while
/// [`count_allocations`] has switched them on (the traced pass). The
/// untraced pass pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: same block, same layout, caller-checked `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn allocations() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Wall-clock nanoseconds `f` takes.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Times `batch` (which performs `ops` operations of one layer per call)
/// repeatedly and returns the median nanoseconds per operation. Repeats
/// until `budget_ms` of wall time is spent, at least three times, so a
/// replay costs the traced pass a bounded slice of its run.
pub fn ns_per_op(ops: u64, budget_ms: u64, mut batch: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed().as_millis() as u64) < budget_ms {
        let ((), ns) = time_ns(&mut batch);
        samples.push(ns as f64 / ops.max(1) as f64);
        if samples.len() >= 1000 {
            break;
        }
    }
    median(&mut samples)
}

/// Median of `values` (sorts them). Zero for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted slice. Zero when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of unsorted nanosecond samples, in milliseconds.
pub fn p50_ms(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    quantile_sorted(samples, 0.5) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_kb() > 0);
        assert!(rss_kb() > 0);
        let a = process_cpu();
        assert!(a.total_s() >= 0.0);
    }
}
