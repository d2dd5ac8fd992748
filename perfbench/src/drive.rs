//! The load generator: one thread that makes each lane's input, offers it
//! to the lane's engine — closed loop or paced open loop — and blocks in
//! every call it makes. Also the result and trail checks shared by all
//! workloads.

use crate::inputs::{batches, digest, Stream};
use crate::trace::{wait_until, Calls, Open, Recorder};
use sbt_attest::{verify_tenant_trail_parallel, LogSegment, Verifier, Violation};
use sbt_crypto::TenantKeychain;
use sbt_engine::{Engine, Executor, StreamSide};
use sbt_types::{TenantId, Watermark};
use sbt_workloads::datasets::StreamChunk;
use sbt_workloads::transport::{Channel, Delivery};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One lane: a tenant's engine and the source feeding it.
pub struct Feed {
    pub tenant: TenantId,
    pub engine: Arc<Engine>,
    pub stream: Stream,
    channel: Channel,
    batch: usize,
    next_window: u32,
    /// Digest of the reference result of every window offered, in offer
    /// order (the engine egresses one result per window, in window order).
    pub expected: Vec<u64>,
}

/// A window made ready for offering: encrypted batches and its watermark.
pub struct Prepared {
    deliveries: Vec<Delivery>,
    watermark: Watermark,
    next: usize,
}

/// Time the generator spent making input, outside the engine.
#[derive(Default)]
pub struct GenTime {
    /// Everything: events, reference results and encryption.
    pub total: Duration,
    /// Source encryption alone (`Channel::send`, what `Generator::next_offer`
    /// spends its time in).
    pub encrypt: Duration,
}

/// Every call the generator made into the engine, plus its counts.
#[derive(Default)]
pub struct Load {
    pub ingest: Calls,
    pub window: Calls,
    /// `StreamServer` calls (`serve` and the rekeys between serve rounds).
    pub server: Calls,
    pub gen: GenTime,
    pub batches: u64,
    pub events: u64,
    /// Batches whose ingest returned an error.
    pub failed_batches: u64,
}

impl Feed {
    pub fn new(
        tenant: TenantId,
        engine: Arc<Engine>,
        stream: Stream,
        channel: Channel,
        batch: usize,
    ) -> Self {
        Feed { tenant, engine, stream, channel, batch, next_window: 0, expected: Vec::new() }
    }

    /// Events per batch this lane offers.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Encrypt from now on through `channel` (a new key epoch).
    pub fn set_channel(&mut self, channel: Channel) {
        self.channel = channel;
    }

    /// Generate the next window in plaintext (a serve loop encrypts it
    /// itself), recording its reference digest.
    pub fn plain_window(&mut self) -> StreamChunk {
        let w = self.stream.window(self.next_window);
        self.next_window += 1;
        self.expected.push(w.expected);
        w.chunk
    }

    /// Generate and encrypt the next window.
    fn prepare(&mut self, gen: &mut GenTime) -> Prepared {
        let start = Instant::now();
        let chunk = self.plain_window();
        let enc = Instant::now();
        let deliveries = batches(&chunk, self.batch).map(|b| self.channel.send(&b)).collect();
        gen.encrypt += enc.elapsed();
        gen.total += start.elapsed();
        Prepared { deliveries, watermark: chunk.watermark, next: 0 }
    }

    /// Offer one batch; returns whether the engine accepted it.
    fn ingest(
        &self,
        d: Delivery,
        rec: &mut Recorder,
        parent: Option<Open>,
        load: &mut Load,
    ) -> bool {
        let events = d.event_count as u64;
        let (res, took) =
            rec.call("engine.ingest_many", parent, self.tenant.0, load.batches, || {
                self.engine.ingest_many(vec![d], StreamSide::Left)
            });
        load.ingest.push(took);
        load.batches += 1;
        load.events += events;
        if res.is_err() {
            load.failed_batches += 1;
        }
        res.is_ok()
    }

    /// Close window `id` (its index in `expected`): the call returns once
    /// its result is externalized.
    fn close(
        &self,
        wm: Watermark,
        id: u64,
        rec: &mut Recorder,
        parent: Option<Open>,
        load: &mut Load,
    ) -> bool {
        let (res, took) =
            rec.call("engine.advance_watermark_on", parent, self.tenant.0, id, || {
                self.engine.advance_watermark_on(wm, StreamSide::Left)
            });
        load.window.push(took);
        res.is_ok()
    }

    /// Output delay of the engine's last `n` windows, in ms.
    pub fn output_delays_ms(&self, n: u32) -> Vec<f64> {
        let windows = self.engine.metrics().windows;
        windows[windows.len() - n as usize..]
            .iter()
            .map(|w| w.output_delay_nanos as f64 / 1e6)
            .collect()
    }

    /// Closed loop over `windows` windows: each window is made, then its
    /// batches are offered one call after another, then its watermark.
    pub fn closed(
        &mut self,
        windows: u32,
        rec: &mut Recorder,
        parent: Option<Open>,
        load: &mut Load,
    ) {
        for _ in 0..windows {
            let p = self.prepare(&mut load.gen);
            for d in p.deliveries {
                self.ingest(d, rec, parent, load);
            }
            self.close(p.watermark, self.expected.len() as u64 - 1, rec, parent, load);
        }
    }
}

/// Outcome of a paced phase.
pub struct Paced {
    /// Per window: (lane, index into the lane's `expected`, latency in ms;
    /// infinite when the window failed).
    pub windows: Vec<(usize, usize, f64)>,
    /// How late each batch was sent relative to its due time, in ms.
    pub late_ms: Vec<f64>,
}

/// Open loop at fixed absolute rates: lane `i` creates `rates[i]` events
/// per second, `windows` windows each. A batch is due when its last event
/// is created; a window's latency runs from that due time of its last
/// batch until its watermark call returns with the result externalized.
///
/// The whole block's input is made before its clock starts, so the
/// generator thread spends the block only waiting for due times and in
/// the calls it makes (making input on the fly costs it about as much as
/// the calls themselves and would limit the rate it can sustain).
pub fn paced(
    feeds: &mut [Feed],
    rates: &[f64],
    windows: u32,
    rec: &mut Recorder,
    parent: Option<Open>,
    load: &mut Load,
) -> Paced {
    struct LaneState {
        /// Windows still to offer, the current one first.
        queue: VecDeque<Prepared>,
        /// Events offered so far (the next event's creation index).
        created: u64,
        window_ok: bool,
    }
    let mut lanes: Vec<LaneState> = feeds
        .iter_mut()
        .map(|f| LaneState {
            queue: (0..windows).map(|_| f.prepare(&mut load.gen)).collect(),
            created: 0,
            window_ok: true,
        })
        .collect();
    let mut out = Paced { windows: Vec::new(), late_ms: Vec::new() };
    let t0 = Instant::now();
    let due_of = |lane: &LaneState, rate: f64| -> Option<Instant> {
        let p = lane.queue.front()?;
        let last_event = lane.created + p.deliveries[p.next].event_count as u64 - 1;
        Some(t0 + Duration::from_secs_f64(last_event as f64 / rate))
    };
    loop {
        let next = lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| due_of(l, rates[i]).map(|due| (due, i)))
            .min();
        let Some((due, i)) = next else { break };
        wait_until(due);
        out.late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let lane = &mut lanes[i];
        let p = lane.queue.front_mut().expect("chosen lane is live");
        let d = p.deliveries[p.next].clone();
        p.next += 1;
        lane.created += d.event_count as u64;
        let last = p.next == p.deliveries.len();
        let wm = p.watermark;
        lane.window_ok &= feeds[i].ingest(d, rec, parent, load);
        if !last {
            continue;
        }
        lane.queue.pop_front();
        let id = feeds[i].expected.len() - lane.queue.len() - 1;
        let ok = feeds[i].close(wm, id as u64, rec, parent, load) && lane.window_ok;
        let latency =
            if ok { Instant::now().duration_since(due).as_secs_f64() * 1e3 } else { f64::INFINITY };
        out.windows.push((i, id, latency));
        lane.window_ok = true;
    }
    out
}

/// Open every result the lane's engine externalized with the tenant's
/// cloud keys and compare it with the reference. Returns per window
/// whether it matched, and how many results had no window.
///
/// Results come in window order and key epochs only advance, so each
/// result is opened starting from the epoch that opened the one before.
pub fn check_results(feed: &Feed, keys: &TenantKeychain) -> (Vec<bool>, u64) {
    let results = feed.engine.results();
    let latest = keys.latest().epoch;
    let mut epoch = keys.oldest_epoch();
    let ok = feed
        .expected
        .iter()
        .enumerate()
        .map(|(i, want)| {
            let opened = results.get(i).and_then(|msg| {
                (epoch..=latest).find_map(|e| Some((msg.open_with(keys.epoch(e)?)?, e)))
            });
            opened.is_some_and(|(plain, e)| {
                epoch = e;
                digest(&plain) == *want
            })
        })
        .collect();
    (ok, results.len().saturating_sub(feed.expected.len()) as u64)
}

/// What verifying one trail found and cost.
pub struct TrailCheck {
    pub ok: bool,
    pub segments: usize,
    pub bytes: usize,
    pub verify: Duration,
    /// Results the replay flagged as later than the pipeline's delay target
    /// (a latency outcome, reported by the output-delay metrics, not a
    /// correctness failure).
    pub stale: usize,
}

/// Authenticate a tenant's trail on the verifier pool and replay it
/// against the pipeline declaration.
pub fn verify_trail(
    feed: &Feed,
    segments: Vec<LogSegment>,
    keys: &TenantKeychain,
    pool: &Executor,
    rec: &mut Recorder,
    parent: Option<Open>,
) -> TrailCheck {
    let segments = Arc::new(segments);
    let bytes = segments.iter().map(|s| s.compressed.len()).sum();
    let tenant = feed.tenant;
    let (records, auth) =
        rec.call("attest.verify_tenant_trail_parallel", parent, tenant.0, 0, || {
            verify_tenant_trail_parallel(&segments, tenant, keys, pool)
        });
    let (ok, stale, replay) = match records {
        Err(e) => {
            eprintln!("tenant {}: trail rejected: {e}", tenant.0);
            (false, 0, Duration::ZERO)
        }
        Ok(records) => {
            let verifier = Verifier::new(feed.engine.pipeline().spec());
            let (report, took) =
                rec.call("attest.replay", parent, tenant.0, 0, || verifier.replay(&records));
            let stale = report
                .violations
                .iter()
                .filter(|v| matches!(v, Violation::StaleResult { .. }))
                .count();
            let wrong = report.violations.len() - stale;
            if wrong > 0 {
                eprintln!("tenant {}: replay found {wrong} violations", tenant.0);
            }
            (wrong == 0, stale, took)
        }
    };
    TrailCheck { ok, segments: segments.len(), bytes, verify: auth + replay, stale }
}
