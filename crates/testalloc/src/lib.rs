//! A counting global allocator for tests that bound the allocations of one
//! call.
//!
//! The count is per thread and only runs while armed: [`count`] arms the
//! calling thread, runs the measured closure and disarms it again. libtest
//! runs the tests of one binary on parallel threads, so a process-global
//! counter would also see whatever the other tests allocate during the
//! measured window. Arming one thread sees only the measured call's own
//! allocations, provided the call keeps its work on that thread.
//!
//! Install it once per test binary:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: sbt_testalloc::CountingAllocator = sbt_testalloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one measured call allocated on its own thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allocs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub count: u64,
    /// Bytes requested by those calls (`new_size` for `realloc`).
    pub bytes: u64,
}

struct Probe {
    armed: Cell<bool>,
    count: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static PROBE: Probe = const {
        Probe { armed: Cell::new(false), count: Cell::new(0), bytes: Cell::new(0) }
    };
}

fn record(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = PROBE.try_with(|p| {
        if p.armed.get() {
            p.count.set(p.count.get() + 1);
            p.bytes.set(p.bytes.get() + bytes as u64);
        }
    });
}

/// The system allocator, counting the allocations of armed threads.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the counting beside it only touches a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with this thread's counter armed and return its result together
/// with what it allocated on this thread. Calls do not nest.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    PROBE.with(|p| {
        assert!(!p.armed.get(), "sbt_testalloc::count does not nest");
        p.count.set(0);
        p.bytes.set(0);
        p.armed.set(true);
    });
    let result = f();
    let allocs = PROBE.with(|p| {
        p.armed.set(false);
        Allocs { count: p.count.get(), bytes: p.bytes.get() }
    });
    (result, allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    #[test]
    fn counts_only_the_armed_thread() {
        let (v, allocs) = count(|| Vec::<u64>::with_capacity(16));
        assert_eq!(allocs, Allocs { count: 1, bytes: 128 });
        drop(v);

        // A megabyte allocated by another thread inside the armed window
        // is not counted.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        let peer = std::thread::spawn(move || {
            go_rx.recv().unwrap();
            done_tx.send(std::hint::black_box(vec![0u8; 1 << 20]).len()).unwrap();
        });
        let (len, allocs) = count(|| {
            go_tx.send(()).unwrap();
            done_rx.recv().unwrap()
        });
        peer.join().unwrap();
        assert_eq!(len, 1 << 20);
        assert!(allocs.bytes < 1 << 20, "counted another thread's allocation: {allocs:?}");

        std::hint::black_box(Box::new(1u8)); // unarmed: not counted below
        let (_, allocs) = count(|| ());
        assert_eq!(allocs, Allocs::default());
    }
}
