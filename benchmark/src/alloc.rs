//! A counting global allocator local to the benchmark binary: live heap bytes
//! and their high-water mark, re-armed before every timed rep so
//! `peak_heap_mib` is the peak *during that rep*.
//!
//! The simulator allocates some 85 times per exchange, so two shared atomic
//! updates per call cost the figure workloads 4 % of their wall time. Each
//! thread therefore keeps its own running balance and folds it into the
//! shared counters only when it has drifted by [`FLUSH_BYTES`]; the reported
//! peak is exact to within that much per thread (0.05 % of the figure
//! workloads' 130 MiB).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

const FLUSH_BYTES: isize = 64 * 1024;

// Both counters are statistics that publish no other data, so `Relaxed` is
// enough. `LIVE` is signed because one thread may free what another
// allocated, so a balance (and momentarily the total) can be negative.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor runs during thread teardown. A
    // thread that exits takes at most `FLUSH_BYTES` of balance with it.
    static BALANCE: Cell<isize> = const { Cell::new(0) };
}

fn flush(balance: isize) {
    let live = LIVE.fetch_add(balance, Ordering::Relaxed) + balance;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn account(delta: isize) {
    // `try_with` because the allocator also runs while a thread's locals are
    // being torn down; those few calls go uncounted.
    let _ = BALANCE.try_with(|balance| {
        let drifted = balance.get() + delta;
        if drifted.abs() >= FLUSH_BYTES {
            flush(drifted);
            balance.set(0);
        } else {
            balance.set(drifted);
        }
    });
}

/// Forwards to the system allocator and counts what it hands out.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers or layouts passed through, and `account` does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let pointer = unsafe { System.alloc(layout) };
        if !pointer.is_null() {
            account(layout.size() as isize);
        }
        pointer
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let pointer = unsafe { System.alloc_zeroed(layout) };
        if !pointer.is_null() {
            account(layout.size() as isize);
        }
        pointer
    }

    unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are forwarded as they are.
        unsafe { System.dealloc(pointer, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let moved = unsafe { System.realloc(pointer, layout, new_size) };
        if !moved.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

/// Folds the calling thread's balance in and resets the high-water mark to
/// the current live size.
pub fn rearm() {
    account_now();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The high-water mark of live heap bytes since the last [`rearm`], in MiB.
pub fn peak_mib() -> f64 {
    account_now();
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

fn account_now() {
    let _ = BALANCE.try_with(|balance| flush(balance.replace(0)));
}
