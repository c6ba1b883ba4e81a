//! A counting global allocator for honest per-run memory measurement.
//!
//! The scaling benchmark used to report `VmHWM` from `/proc/self/status` per
//! sweep cell — but `VmHWM` is *monotone over the process lifetime*, so every
//! cell after the largest run inherited the largest run's high-water mark and
//! the per-entry numbers were meaningless. This allocator counts live heap
//! bytes directly: `reset_peak` rearms the high-water mark at the current
//! footprint before a run, and `peak_kib` reads the honest per-run peak
//! afterwards, independent of what ran earlier in the sweep.
//!
//! Install it from a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bss_bench::alloc::CountingAllocator = bss_bench::alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes right now.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `CURRENT` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator that tracks live bytes and their peak.
///
/// Counter updates use relaxed atomics: the counters never synchronise other
/// memory, and the benchmark reads them between runs, when no allocation is
/// in flight. The accounting cost is two atomic ops per (de)allocation —
/// invisible next to the allocation itself.
pub struct CountingAllocator;

impl CountingAllocator {
    fn record_alloc(size: usize) {
        let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn record_dealloc(size: usize) {
        CURRENT.fetch_sub(size, Ordering::Relaxed);
    }
}

/// The allocator's raw pass-through to [`System`] plus counter bookkeeping —
/// the one `unsafe impl` in the crate, quarantined here. Safety: every method
/// forwards verbatim to [`System`], which upholds the `GlobalAlloc` contract;
/// the added code only touches two atomics.
#[allow(unsafe_code)]
mod implementation {
    use super::*;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let pointer = System.alloc(layout);
            if !pointer.is_null() {
                CountingAllocator::record_alloc(layout.size());
            }
            pointer
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let pointer = System.alloc_zeroed(layout);
            if !pointer.is_null() {
                CountingAllocator::record_alloc(layout.size());
            }
            pointer
        }

        unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
            System.dealloc(pointer, layout);
            CountingAllocator::record_dealloc(layout.size());
        }

        unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_pointer = System.realloc(pointer, layout, new_size);
            if !new_pointer.is_null() {
                CountingAllocator::record_dealloc(layout.size());
                CountingAllocator::record_alloc(new_size);
            }
            new_pointer
        }
    }
}

/// Rearms the high-water mark at the current footprint. Call immediately
/// before the region to measure.
pub(crate) fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`], in KiB (rounded up).
/// Reads zero when the binary did not install [`CountingAllocator`].
pub(crate) fn peak_kib() -> u64 {
    (PEAK.load(Ordering::Relaxed) as u64).div_ceil(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test harness may not have the allocator installed (counters stay
    // zero), so only the installed case exercises real numbers; both cases
    // must at least hold the reset invariant.
    #[test]
    fn reset_rearms_peak_at_current() {
        reset_peak();
        let baseline = peak_kib();
        let ballast: Vec<u8> = vec![7; 4 * 1024 * 1024];
        std::hint::black_box(&ballast);
        drop(ballast);
        reset_peak();
        let after = peak_kib();
        // After a reset the peak restarts from the live footprint: the
        // 4 MiB ballast allocated and freed above must not linger in it.
        assert!(after <= baseline.max(CURRENT.load(Ordering::Relaxed) as u64 / 1024 + 1));
    }
}
