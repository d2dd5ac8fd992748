//! The TopK / TopKPerKey trusted primitives (§5, Table 2).
//!
//! TopK identifies the K largest values in a window; TopKPerKey does the
//! same within each key group of a key-sorted array (the TopK benchmark of
//! §9.2). Both rank by selection rather than by sorting everything: the
//! values are partitioned around the K-th largest, the rest is dropped, and
//! only the at most K survivors are sorted. TopKPerKey runs this once per
//! run of equal keys through the grouped scan's shared scratch buffer
//! ([`crate::grouped`]), so a window costs two allocations, not a few per
//! key.

use crate::grouped::select_per_key;
use sbt_types::{Event, KeyValue};

/// Keep the `k` largest of `values`, in descending order.
fn keep_top_k(values: &mut Vec<u32>, k: usize) {
    if k > 0 && values.len() > k {
        values.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    }
    values.truncate(k);
    values.sort_unstable_by(|a, b| b.cmp(a));
}

/// The `k` largest values in the window, in descending order. If the input
/// has fewer than `k` events, all values are returned.
pub fn top_k_by_value(events: &[Event], k: usize) -> Vec<u32> {
    let mut values: Vec<u32> = events.iter().map(|e| e.value).collect();
    keep_top_k(&mut values, k);
    values
}

/// For each key in a key-sorted array, its `k` largest values in
/// descending order, as one `(key, value)` pair per value. The output is
/// ordered by key.
pub fn top_k_per_key(sorted_events: &[Event], k: usize) -> Vec<KeyValue> {
    select_per_key(sorted_events, k, |values| keep_top_k(values, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sort_events_by_key;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn evs(values: &[u32]) -> Vec<Event> {
        values.iter().map(|v| Event::new(0, *v, 0)).collect()
    }

    #[test]
    fn top_k_returns_largest_in_descending_order() {
        let e = evs(&[5, 1, 9, 3, 7]);
        assert_eq!(top_k_by_value(&e, 3), vec![9, 7, 5]);
        assert_eq!(top_k_by_value(&e, 10), vec![9, 7, 5, 3, 1]);
        assert_eq!(top_k_by_value(&e, 0), Vec::<u32>::new());
        assert_eq!(top_k_by_value(&[], 3), Vec::<u32>::new());
    }

    #[test]
    fn top_k_keeps_duplicates() {
        let e = evs(&[4, 4, 4, 1]);
        assert_eq!(top_k_by_value(&e, 2), vec![4, 4]);
    }

    #[test]
    fn top_k_per_key_groups_correctly() {
        let events = sort_events_by_key(&[
            Event::new(2, 10, 0),
            Event::new(1, 50, 0),
            Event::new(2, 30, 0),
            Event::new(1, 40, 0),
            Event::new(2, 20, 0),
        ]);
        let kv = KeyValue::new;
        assert_eq!(top_k_per_key(&events, 2), vec![kv(1, 50), kv(1, 40), kv(2, 30), kv(2, 20)]);
    }

    #[test]
    fn top_k_per_key_zero_k_is_empty() {
        let events = evs(&[1, 2, 3]);
        assert!(top_k_per_key(&events, 0).is_empty());
    }

    proptest! {
        #[test]
        fn top_k_matches_sorted_reference(
            values in proptest::collection::vec(any::<u32>(), 0..300),
            k in 0usize..20,
        ) {
            let e = evs(&values);
            let got = top_k_by_value(&e, k);
            let mut expected = values.clone();
            expected.sort_unstable_by(|a, b| b.cmp(a));
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }

        // 4 keys make groups larger than k, 2000 keys mostly smaller; values
        // from 0..8 make duplicates.
        #[test]
        fn per_key_top_k_matches_reference(
            pairs in collection::vec((0u32..2000, prop_oneof![0u32..8, any::<u32>()]), 0..600),
            narrow in any::<bool>(),
            k in 0usize..=16,
        ) {
            let key_space = if narrow { 4 } else { 2000 };
            let events: Vec<Event> =
                pairs.iter().map(|(key, v)| Event::new(key % key_space, *v, 0)).collect();
            let mut by_key: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for e in &events {
                by_key.entry(e.key).or_default().push(e.value);
            }
            let mut expected = Vec::new();
            for (key, mut values) in by_key {
                values.sort_unstable_by(|a, b| b.cmp(a));
                expected.extend(values.into_iter().take(k).map(|v| KeyValue::new(key, v as u64)));
            }
            prop_assert_eq!(top_k_per_key(&sort_events_by_key(&events), k), expected);
        }
    }
}
