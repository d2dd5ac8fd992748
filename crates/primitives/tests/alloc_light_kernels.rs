//! The per-key order-statistic kernels allocate a fixed number of buffers
//! per window, however many key groups the window has: one output array
//! and one scratch buffer reused across groups. A kernel that allocated per
//! group would cost thousands of allocations on the TopK benchmark's window
//! shape (2 500 events over 1 000 keys) and tens over 10 keys.

use sbt_primitives::{median_per_key, sort_events_by_key, top_k_per_key};
use sbt_types::Event;

#[global_allocator]
static GLOBAL: sbt_testalloc::CountingAllocator = sbt_testalloc::CountingAllocator;

/// The most allocations one call may make: the output and the scratch.
const PER_CALL: u64 = 2;

fn window(n: u32, keys: u32) -> Vec<Event> {
    let mut state = 0x9e37_79b9_u32;
    let events: Vec<Event> = (0..n)
        .map(|i| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            Event::new(i % keys, state >> 8, i)
        })
        .collect();
    sort_events_by_key(&events)
}

#[test]
fn per_key_kernels_allocate_independently_of_the_key_count() {
    let mut top_k = Vec::new();
    let mut median = Vec::new();
    for keys in [1_000, 10] {
        let events = window(2_500, keys);
        let (pairs, allocs) = sbt_testalloc::count(|| top_k_per_key(&events, 10));
        assert!(pairs.len() >= keys as usize, "{keys} keys gave {} pairs", pairs.len());
        top_k.push(allocs.count);
        let (pairs, allocs) = sbt_testalloc::count(|| median_per_key(&events));
        assert_eq!(pairs.len(), keys as usize);
        median.push(allocs.count);
    }
    assert_eq!(top_k[0], top_k[1], "top_k_per_key allocations depend on the key count");
    assert_eq!(median[0], median[1], "median_per_key allocations depend on the key count");
    assert!(top_k[0] <= PER_CALL, "top_k_per_key made {} allocations", top_k[0]);
    assert!(median[0] <= PER_CALL, "median_per_key made {} allocations", median[0]);
}
