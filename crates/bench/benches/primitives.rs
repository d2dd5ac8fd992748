//! Criterion benchmarks for the remaining trusted primitives: grouped
//! aggregation, top-k, filtering, joins and segmentation.
//!
//! The per-key order-statistic kernels are timed in two regimes: large
//! groups (200 events per key) and the TopK benchmark's window shape
//! (2 500 events over 1 000 keys), where most groups are smaller than K and
//! per-group overhead, not ranking, dominates.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sbt_primitives::{
    filter_band, join_by_key, median_per_key, segment_by_window, sort_events_by_key,
    sum_count_per_key, top_k_per_key, unique_keys,
};
use sbt_types::{Duration, Event, WindowSpec};

fn make_events(n: usize, keys: u32) -> Vec<Event> {
    (0..n)
        .map(|i| {
            Event::new(
                ((i as u64 * 2654435761) % keys as u64) as u32,
                (i % 65_536) as u32,
                ((i * 1000) / n.max(1)) as u32,
            )
        })
        .collect()
}

fn bench_grouped(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_primitives");
    group.sample_size(10);
    let n = 200_000;
    let events = make_events(n, 1_000);
    let sorted = sort_events_by_key(&events);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("sum_count_per_key", |b| b.iter(|| sum_count_per_key(&sorted)));
    group.bench_function("unique_keys", |b| b.iter(|| unique_keys(&sorted)));
    group.bench_function("top_k_per_key_k10", |b| b.iter(|| top_k_per_key(&sorted, 10)));
    group.bench_function("median_per_key", |b| b.iter(|| median_per_key(&sorted)));
    group.bench_function("groupby_end_to_end", |b| {
        b.iter(|| sum_count_per_key(&sort_events_by_key(&events)))
    });
    group.finish();
}

fn bench_small_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_primitives_topk_window");
    group.sample_size(10);
    let n = 2_500;
    let sorted = sort_events_by_key(&make_events(n, 1_000));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("top_k_per_key_k10", |b| b.iter(|| top_k_per_key(&sorted, 10)));
    group.bench_function("median_per_key", |b| b.iter(|| median_per_key(&sorted)));
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_primitives");
    group.sample_size(10);
    let n = 500_000;
    let events = make_events(n, 100_000);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("filter_band_1pct", |b| {
        b.iter(|| filter_band(&events, 0, 655)); // ~1% of the 0..65536 value range
    });
    let spec = WindowSpec::fixed(Duration::from_millis(100));
    group.bench_function("segment_10_windows", |b| b.iter(|| segment_by_window(&events, &spec)));
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_primitive");
    group.sample_size(10);
    let left = sort_events_by_key(&make_events(100_000, 10_000));
    let right = sort_events_by_key(&make_events(100_000, 10_000));
    group.throughput(Throughput::Elements(200_000));
    group.bench_function("sort_merge_join_100k_x_100k", |b| b.iter(|| join_by_key(&left, &right)));
    group.finish();
}

criterion_group!(benches, bench_grouped, bench_small_groups, bench_scans, bench_join);
criterion_main!(benches);
