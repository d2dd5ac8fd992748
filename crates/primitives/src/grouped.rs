//! Per-key grouped primitives over key-sorted arrays: SumCnt-per-key,
//! Count-per-key, Average-per-key, Median-per-key and Unique (§5, Table 2).
//!
//! Grouping in StreamBox-TZ is sort-based: the input array is first sorted
//! by key (see [`crate::sort`]), after which every grouped aggregate is a
//! single sequential scan over runs of equal keys. This is the paper's
//! alternative to the hash tables commodity engines use, and it is
//! insensitive to key skew.
//!
//! The order-statistic kernels (Median-per-key here, TopK-per-key in
//! [`crate::topk`]) share `select_per_key`: each group's values are copied
//! into one scratch buffer reused across groups and reduced there by
//! selection, and the results go straight into one pre-sized `(key, value)`
//! array, the layout the data plane stores.
//!
//! All functions in this module require their input to be sorted by key and
//! debug-assert that property.

use sbt_types::{Event, KeyAgg, KeyCount, KeyValue};

#[inline]
fn debug_assert_sorted_by_key(events: &[Event]) {
    debug_assert!(
        events.windows(2).all(|w| w[0].key <= w[1].key),
        "grouped primitive requires key-sorted input"
    );
}

/// Visit each run of equal keys in a key-sorted array.
fn for_each_group(events: &[Event], mut f: impl FnMut(u32, &[Event])) {
    debug_assert_sorted_by_key(events);
    let mut start = 0;
    while start < events.len() {
        let key = events[start].key;
        let mut end = start + 1;
        while end < events.len() && events[end].key == key {
            end += 1;
        }
        f(key, &events[start..end]);
        start = end;
    }
}

/// Per-key sum and count (the `SumCnt` primitive applied per key). The
/// output is ordered by key.
pub fn sum_count_per_key(sorted_events: &[Event]) -> Vec<KeyAgg> {
    let mut out = Vec::new();
    for_each_group(sorted_events, |key, group| {
        let sum: u64 = group.iter().map(|e| e.value as u64).sum();
        out.push(KeyAgg::new(key, sum, group.len() as u64));
    });
    out
}

/// Per-key event count (the `CountPerKey` primitive). Ordered by key.
pub fn count_per_key(sorted_events: &[Event]) -> Vec<KeyCount> {
    let mut out = Vec::new();
    for_each_group(sorted_events, |key, group| {
        out.push(KeyCount::new(key, group.len() as u64));
    });
    out
}

/// Per-key average value (the `AveragePerKey` primitive). Ordered by key.
pub fn avg_per_key(sorted_events: &[Event]) -> Vec<KeyAgg> {
    // Returned as KeyAgg so downstream operators can keep merging partial
    // aggregates; the average itself is `KeyAgg::avg`.
    sum_count_per_key(sorted_events)
}

/// Reduce every run of equal keys to at most `per_group` values and emit
/// them as `(key, value)` pairs, ordered by key. `reduce` gets the group's
/// values in a scratch buffer and must leave at most `per_group` of them, in
/// output order. A first pass sizes the output and the scratch buffer
/// exactly, so a call allocates twice however many groups there are.
pub(crate) fn select_per_key(
    sorted_events: &[Event],
    per_group: usize,
    mut reduce: impl FnMut(&mut Vec<u32>),
) -> Vec<KeyValue> {
    let (mut out_len, mut max_group) = (0, 0);
    for_each_group(sorted_events, |_, group| {
        out_len += group.len().min(per_group);
        max_group = max_group.max(group.len());
    });
    let mut out = Vec::with_capacity(out_len);
    let mut scratch = Vec::with_capacity(max_group);
    for_each_group(sorted_events, |key, group| {
        scratch.clear();
        scratch.extend(group.iter().map(|e| e.value));
        reduce(&mut scratch);
        out.extend(scratch.iter().map(|v| KeyValue::new(key, *v as u64)));
    });
    out
}

/// Per-key median value, the lower middle for even-sized groups (the
/// `MedianPerKey` primitive). Ordered by key.
pub fn median_per_key(sorted_events: &[Event]) -> Vec<KeyValue> {
    select_per_key(sorted_events, 1, |values| {
        let mid = (values.len() - 1) / 2;
        values[0] = *values.select_nth_unstable(mid).1;
        values.truncate(1);
    })
}

/// Distinct keys present in the input (the `Unique` primitive). Ordered by
/// key. This is what the Distinct benchmark (unique taxi ids) is built on.
pub fn unique_keys(sorted_events: &[Event]) -> Vec<u32> {
    let mut out = Vec::new();
    for_each_group(sorted_events, |key, _| out.push(key));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::sort_events_by_key;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sorted(events: &[Event]) -> Vec<Event> {
        sort_events_by_key(events)
    }

    #[test]
    fn sum_count_per_key_on_small_input() {
        let events = sorted(&[
            Event::new(2, 10, 0),
            Event::new(1, 5, 0),
            Event::new(2, 20, 0),
            Event::new(1, 15, 0),
            Event::new(3, 7, 0),
        ]);
        let aggs = sum_count_per_key(&events);
        assert_eq!(aggs, vec![KeyAgg::new(1, 20, 2), KeyAgg::new(2, 30, 2), KeyAgg::new(3, 7, 1)]);
        assert_eq!(aggs[0].avg(), 10);
    }

    #[test]
    fn count_and_unique() {
        let events = sorted(&[Event::new(5, 0, 0), Event::new(5, 0, 0), Event::new(9, 0, 0)]);
        assert_eq!(count_per_key(&events), vec![KeyCount::new(5, 2), KeyCount::new(9, 1)]);
        assert_eq!(unique_keys(&events), vec![5, 9]);
    }

    #[test]
    fn empty_input_yields_empty_outputs() {
        assert!(sum_count_per_key(&[]).is_empty());
        assert!(count_per_key(&[]).is_empty());
        assert!(unique_keys(&[]).is_empty());
        assert!(median_per_key(&[]).is_empty());
    }

    #[test]
    fn median_per_key_uses_lower_middle() {
        let events = sorted(&[
            Event::new(1, 10, 0),
            Event::new(1, 30, 0),
            Event::new(1, 20, 0),
            Event::new(2, 4, 0),
            Event::new(2, 8, 0),
        ]);
        assert_eq!(median_per_key(&events), vec![KeyValue::new(1, 20), KeyValue::new(2, 4)]);
    }

    proptest! {
        // 4 keys make large groups, 2000 keys mostly singletons; values
        // from 0..8 make duplicates; even-sized groups take the lower middle.
        #[test]
        fn grouped_aggregates_match_hash_reference(
            pairs in proptest::collection::vec(
                (0u32..2000, prop_oneof![0u32..8, any::<u32>()]), 0..600),
            narrow in any::<bool>(),
        ) {
            let key_space = if narrow { 4 } else { 2000 };
            let events: Vec<Event> =
                pairs.iter().map(|(k, v)| Event::new(k % key_space, *v, 0)).collect();
            let sorted_events = sorted(&events);

            // Reference grouping with an ordered map.
            let mut reference: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for e in &events {
                reference.entry(e.key).or_default().push(e.value);
            }
            let (mut aggs, mut counts, mut medians) = (Vec::new(), Vec::new(), Vec::new());
            for (&key, values) in reference.iter_mut() {
                let n = values.len() as u64;
                aggs.push(KeyAgg::new(key, values.iter().map(|v| *v as u64).sum(), n));
                counts.push(KeyCount::new(key, n));
                values.sort_unstable();
                medians.push(KeyValue::new(key, values[(values.len() - 1) / 2] as u64));
            }
            prop_assert_eq!(sum_count_per_key(&sorted_events), aggs);
            prop_assert_eq!(count_per_key(&sorted_events), counts);
            prop_assert_eq!(median_per_key(&sorted_events), medians);
            let expected_keys: Vec<u32> = reference.keys().copied().collect();
            prop_assert_eq!(unique_keys(&sorted_events), expected_keys);
        }

        #[test]
        fn outputs_are_ordered_by_key(
            pairs in proptest::collection::vec((0u32..100, 0u32..100), 0..300),
        ) {
            let events: Vec<Event> =
                pairs.iter().map(|(k, v)| Event::new(*k, *v, 0)).collect();
            let s = sorted(&events);
            prop_assert!(sum_count_per_key(&s).windows(2).all(|w| w[0].key < w[1].key));
            prop_assert!(unique_keys(&s).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
