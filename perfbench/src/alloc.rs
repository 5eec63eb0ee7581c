//! Allocation counter for the traced run.
//!
//! Installed as the global allocator but counting only while
//! [`counting`] is on, which only the traced run switches on; the
//! untraced runs pay one relaxed load per allocation. Each thread adds
//! into one of [`SLOTS`] cache-line-sized slots with a plain
//! load/store (no locked instruction, no contention). Two live threads
//! that share a slot can lose an update, so the totals are a close
//! lower bound, not an exact count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 256;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static ON: AtomicBool = AtomicBool::new(false);
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (it is read from inside the allocator).
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub struct Counting;

impl Counting {
    #[inline]
    fn note(size: usize) {
        if !ON.load(Relaxed) {
            return;
        }
        let i = MINE.with(|m| {
            if m.get() == usize::MAX {
                m.set(NEXT.fetch_add(1, Relaxed) % SLOTS);
            }
            m.get()
        });
        let s = &TABLE[i];
        s.allocs.store(s.allocs.load(Relaxed) + 1, Relaxed);
        s.bytes.store(s.bytes.load(Relaxed) + size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off process-wide.
pub fn counting(on: bool) {
    ON.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far (reallocations count as one
/// allocation of the new size).
pub fn totals() -> (u64, u64) {
    TABLE.iter().fold((0, 0), |(a, b), s| {
        (a + s.allocs.load(Relaxed), b + s.bytes.load(Relaxed))
    })
}
