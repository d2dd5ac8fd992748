//! Deterministic inputs and their plain-Rust reference results.
//!
//! Every window is generated from `(seed, stream, window index)` alone, so a
//! run can produce its input one window at a time (bounded memory) and two
//! runs with one seed see identical events. Beside each window the
//! benchmark keeps only a digest of the result the engine must return for
//! it, computed here without any engine code.

use sbt_types::{Event, Watermark};
use sbt_workloads::datasets::{intel_lab_stream, synthetic_stream, StreamChunk};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Keys of the TopK stream (the TopK benchmark's key cardinality).
pub const TOPK_KEYS: u32 = 1_000;
/// Values kept per key by the TopK pipeline.
pub const TOPK_K: usize = 10;

/// Which dataset and pipeline a stream feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Intel-Lab sensor readings into `Pipeline::winsum_benchmark`.
    WinSum,
    /// 1 000-key synthetic events into `Pipeline::topk_benchmark(10)`.
    TopK,
}

/// One stream's deterministic window source.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub kind: Kind,
    pub seed: u64,
    pub events_per_window: usize,
}

/// One generated window: its events (event time inside the window's
/// second), the watermark closing it, and the digest of the reference
/// result.
pub struct Window {
    pub chunk: StreamChunk,
    pub expected: u64,
}

impl Stream {
    /// Generate window `index` of this stream.
    pub fn window(&self, index: u32) -> Window {
        let seed = self.seed ^ (u64::from(index) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut chunk = match self.kind {
            Kind::WinSum => intel_lab_stream(1, self.events_per_window, seed),
            Kind::TopK => synthetic_stream(1, self.events_per_window, TOPK_KEYS, seed),
        }
        .remove(0);
        // The dataset generators number windows from zero; move this one to
        // its place in the stream.
        let base_ms = index * 1_000;
        for e in &mut chunk.events {
            e.ts_ms += base_ms;
        }
        chunk.watermark = Watermark::from_millis(u64::from(base_ms) + 1_000);
        let expected = digest(&self.reference(&chunk.events));
        Window { chunk, expected }
    }

    /// The plaintext the engine must egress for a window of `events`, in
    /// the data plane's wire layout: one little-endian `u64` for WinSum;
    /// `(u32 key, u64 value)` pairs ordered by key, values descending, for
    /// TopK.
    fn reference(&self, events: &[Event]) -> Vec<u8> {
        match self.kind {
            Kind::WinSum => {
                events.iter().map(|e| u64::from(e.value)).sum::<u64>().to_le_bytes().to_vec()
            }
            Kind::TopK => {
                let mut pairs: Vec<(u32, u32)> = events.iter().map(|e| (e.key, e.value)).collect();
                pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
                let mut out = Vec::with_capacity(pairs.len() * 12);
                let mut run_key = None;
                let mut run_len = 0;
                for (key, value) in pairs {
                    if run_key != Some(key) {
                        run_key = Some(key);
                        run_len = 0;
                    }
                    if run_len < TOPK_K {
                        out.extend_from_slice(&key.to_le_bytes());
                        out.extend_from_slice(&u64::from(value).to_le_bytes());
                        run_len += 1;
                    }
                }
                out
            }
        }
    }
}

/// Digest of a result plaintext (both sides of a comparison use it within
/// one process, so a fixed-key hasher suffices).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

/// Split a window's events into batches of at most `batch` events.
pub fn batches(chunk: &StreamChunk, batch: usize) -> impl Iterator<Item = StreamChunk> + '_ {
    chunk.events.chunks(batch).map(move |events| StreamChunk {
        events: events.to_vec(),
        power_events: Vec::new(),
        watermark: chunk.watermark,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_deterministic_and_placed_in_event_time() {
        let s = Stream { kind: Kind::TopK, seed: 7, events_per_window: 500 };
        let a = s.window(3);
        let b = s.window(3);
        assert_eq!(a.chunk.events, b.chunk.events);
        assert_eq!(a.expected, b.expected);
        assert!(a.chunk.events.iter().all(|e| (3_000..4_000).contains(&e.ts_ms)));
        assert_eq!(a.chunk.watermark, Watermark::from_millis(4_000));
        assert_ne!(s.window(4).expected, a.expected);
    }

    #[test]
    fn topk_reference_keeps_ten_largest_per_key() {
        let s = Stream { kind: Kind::TopK, seed: 1, events_per_window: 0 };
        let mut events: Vec<Event> = (0..12).map(|v| Event::new(5, v, 0)).collect();
        events.push(Event::new(2, 99, 0));
        let plain = s.reference(&events);
        assert_eq!(plain.len(), 11 * 12);
        assert_eq!(u32::from_le_bytes(plain[0..4].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(plain[16..24].try_into().unwrap()), 11);
    }
}
