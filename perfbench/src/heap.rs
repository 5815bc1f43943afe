//! Counting global allocator: live heap bytes, their peak, and the net
//! bytes each thread has allocated.
//!
//! `peak_heap_mb` reads the process-wide peak; `core.prepare_bytes`
//! reads the per-thread net delta around `snapshot_pipeline`, so two
//! clients preparing at once do not see each other's allocations.
//!
//! Each thread batches its changes and adds them to the shared counter
//! once they pass [`FLUSH_BYTES`], so the two clients do not contend on
//! one cache line for every allocation. The shared counter, and so the
//! peak, is therefore exact to within `FLUSH_BYTES` per thread; a thread
//! calls [`flush`] before it ends. On a 2-vCPU host, one shared
//! `fetch_add` per allocation instead cut serve-miss throughput from
//! about 24k to 13k req/s and serve-repeat's from about 0.55 M to
//! 0.36 M req/s, so the allocator would have measured itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Pass-through to the system allocator that keeps the counters below.
pub struct CountingAlloc;

/// Largest change a thread holds back from the shared counter.
const FLUSH_BYTES: i64 = 64 * 1024;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch them at any point of a thread's life without allocating.
    static THREAD_NET: Cell<i64> = const { Cell::new(0) };
    static PENDING: Cell<i64> = const { Cell::new(0) };
}

fn changed(bytes: i64) {
    let _ = THREAD_NET.try_with(|net| net.set(net.get() + bytes));
    let held = PENDING.try_with(|pending| {
        let held = pending.get() + bytes;
        if held.abs() < FLUSH_BYTES {
            pending.set(held);
            0
        } else {
            pending.set(0);
            held
        }
    });
    match held {
        Ok(0) => {}
        Ok(held) => publish(held),
        // The thread's locals are gone: count the change directly.
        Err(_) => publish(bytes),
    }
}

fn publish(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Adds the calling thread's held-back change to the shared counter.
pub fn flush() {
    if let Ok(held) = PENDING.try_with(|pending| pending.replace(0)) {
        publish(held);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and a const thread-local that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            changed(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            changed(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        changed(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            changed(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed).max(0) as usize
}

/// Restarts peak tracking from the current live bytes.
pub fn reset_peak() {
    flush();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Net bytes this thread has allocated (allocations minus frees made
/// on it), since the thread started.
pub fn thread_net() -> i64 {
    THREAD_NET.with(Cell::get)
}
