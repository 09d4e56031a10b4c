//! A counting global allocator that is off unless a memory pass asks for it.
//!
//! Timed passes run with counting off: every allocation then costs one
//! relaxed load and a branch on top of the system allocator. The memory
//! pass switches counting on, so the number it reports is the peak of
//! `bytes allocated − bytes freed` *since the pass began* — the extra live
//! heap the operations need on top of what set-up left behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

// All four are statistics that publish no other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNTED: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    COUNTED.fetch_add(1, Relaxed);
    let now = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && ON.load(Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// What a memory pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapPeak {
    /// Peak of `allocated − freed` since the pass began, in bytes.
    pub peak_bytes: u64,
    /// Allocator calls that grew the heap while counting was on.
    pub counted_calls: u64,
}

/// Run `f` with counting on and report the peak it reached.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapPeak) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    let before = COUNTED.load(Relaxed);
    ON.store(true, Relaxed);
    let result = f();
    ON.store(false, Relaxed);
    let peak = HeapPeak {
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
        counted_calls: COUNTED.load(Relaxed) - before,
    };
    (result, peak)
}

/// Allocator calls counted so far. Timed passes read this before and after
/// to prove counting stayed off.
pub fn counted_calls() -> u64 {
    COUNTED.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, so nothing else in this binary switches counting on while
    // the "off" half is being observed.
    #[test]
    fn counting_is_off_until_a_memory_pass_and_exact_inside_one() {
        let before = counted_calls();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        drop(v);
        assert_eq!(counted_calls(), before, "counted while off");

        let ((), first) = measure(|| {
            let a: Vec<u8> = std::hint::black_box(Vec::with_capacity(3 << 20));
            drop(a);
            let b: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
            drop(b);
        });
        assert!(first.counted_calls >= 2);
        // Other test threads may allocate or free while counting is on, but
        // not by the megabyte.
        let slack = 512 << 10;
        assert!(first.peak_bytes > (3 << 20) - slack && first.peak_bytes < (3 << 20) + slack);

        let after = counted_calls();
        let w: Vec<u8> = std::hint::black_box(Vec::with_capacity(1 << 20));
        drop(w);
        assert_eq!(counted_calls(), after, "still counting after the pass");
    }
}
