//! Host memory measurement: peak resident set size from `/proc`, and a
//! counting global allocator that the traced rep switches on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS by writing
/// `5` to `clear_refs`. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    reset_peak_rss_at(Path::new("/proc/self/clear_refs"))
}

fn reset_peak_rss_at(clear_refs: &Path) -> bool {
    std::fs::write(clear_refs, "5").is_ok()
}

/// Peak resident set size since the last reset, in MiB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_mb_at(Path::new("/proc/self/status"))
}

fn peak_rss_mb_at(status: &Path) -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string(status).ok()?)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting allocations and live bytes while
/// [`set_counting`] is on. Off, each call costs one relaxed load.
pub struct Counting;

impl Counting {
    fn grew(&self, by: i64) {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            let live = LIVE.fetch_add(by, Relaxed) + by;
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.grew(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Start a new heap high-water window at the current live size.
pub fn reset_heap_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Heap growth at the high-water mark of the current window, in bytes
/// above the live size at `start` (a [`live_bytes`] reading).
pub fn heap_peak_above(start: i64) -> u64 {
    (PEAK.load(Relaxed) - start).max(0) as u64
}

/// Live bytes allocated while counting was on, net of frees.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_refs_reset_lowers_the_peak() {
        if !Path::new("/proc/self/status").exists() {
            assert_eq!(peak_rss_mb(), None);
            return;
        }
        // Touch 64 MiB, free it, and the peak must stay up until reset.
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb().expect("VmHWM readable");
        assert!(reset_peak_rss(), "clear_refs writable");
        let after = peak_rss_mb().expect("VmHWM readable");
        assert!(
            after < before,
            "peak {before} MiB did not drop on reset ({after})"
        );
    }

    #[test]
    fn missing_proc_reads_as_not_available() {
        let nowhere = Path::new("/nonexistent-proc/self");
        assert!(!reset_peak_rss_at(&nowhere.join("clear_refs")));
        assert_eq!(peak_rss_mb_at(&nowhere.join("status")), None);
    }

    #[test]
    fn status_parsing_reads_vm_hwm() {
        assert_eq!(
            vm_hwm_mb("Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\n"),
            Some(2.0)
        );
        assert_eq!(vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }
}
