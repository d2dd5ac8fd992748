//! What every workload shares: repeated set-up, the saturation phase with
//! its effective-time accounting, counter deltas over the measured phases,
//! and the translation of all of it into named metrics.

use crate::drive::Load;
use crate::report::Outcome;
use crate::trace::{median, quantile, Open, Recorder};
use crate::WORKERS;
use sbt_telemetry::{MetricsRegistry, TelemetrySnapshot};
use sbt_tz::{Platform, StatSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 101;
/// Closed-loop windows per lane before anything is measured.
pub const WARMUP_WINDOWS: u32 = 20;
/// Blocks per measured phase, unless a workload needs more. Each p99 is
/// computed per block and reported as the lower quartile over blocks
/// ([`tail_over_blocks`]).
pub const BLOCKS: u32 = 5;
/// Sub-blocks per block, about 100 windows each. Each p50 is computed per
/// sub-block and reported as the mean over the phase's sub-blocks. The
/// 2-vCPU host switches every second or so between a fast state and one in
/// which the same work takes 1.4-1.6 times as long, and the share of slow
/// time differs from run to run. A median over whole blocks then falls in
/// either state; the mean of short stretches moves only in proportion to
/// the share of slow time.
pub const SUBS: u32 = 10;

/// A p99 over a phase: the lower quartile (nearest rank) of its blocks'
/// p99s. The small shared host loses up to tens of milliseconds at a time
/// to its hypervisor, and in its busy spells that hits most blocks of a
/// run; each stall only adds time, so the blocks it spared carry the
/// program's own tail.
fn tail_over_blocks(p99s: &[f64]) -> f64 {
    quantile(p99s, 0.25)
}

/// Mean of the p50s of sub-blocks.
fn mean_p50<'a>(subs: impl Iterator<Item = &'a [f64]>) -> f64 {
    let p50s: Vec<f64> = subs.map(|s| quantile(s, 0.5)).collect();
    p50s.iter().sum::<f64>() / p50s.len().max(1) as f64
}

/// Split a block's per-window samples, in the order they were taken, into
/// `SUBS` contiguous sub-blocks.
fn sub_blocks(samples: &[f64]) -> impl Iterator<Item = &[f64]> {
    samples.chunks(samples.len().div_ceil(SUBS as usize).max(1))
}

/// Run one block, returning with its result the peak committed secure
/// memory during it. A phase's peak is the median of its blocks' peaks, so
/// one host stall that backs work up into the TEE moves one block's peak,
/// not the run's.
pub fn block_peak<T>(platform: &Platform, block: impl FnOnce() -> T) -> (T, u64) {
    platform.secure_mem().reset_high_water();
    let out = block();
    (out, platform.secure_mem().high_water())
}

/// Repeated set-up: each instance is dropped (outside the timed region)
/// before the next is built, so every set-up starts from the same state;
/// the last one runs the workload.
pub struct Setup<T> {
    pub seconds: Vec<f64>,
    pub kept: T,
}

impl<T> Setup<T> {
    pub fn measure(mut build: impl FnMut() -> T) -> Self {
        let mut seconds = Vec::with_capacity(SETUP_REPS);
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let start = Instant::now();
            let built = build();
            seconds.push(start.elapsed().as_secs_f64());
            kept = Some(built);
        }
        Setup { seconds, kept: kept.expect("at least one set-up") }
    }
}

/// Platform and registry counters at the start of the measured phases.
pub struct Measured {
    platform: Arc<Platform>,
    registry: Arc<MetricsRegistry>,
    tz: StatSnapshot,
    counters: TelemetrySnapshot,
}

/// Counter deltas over the measured phases.
pub struct Deltas {
    pub tz: StatSnapshot,
    pub counters: TelemetrySnapshot,
}

impl Measured {
    pub fn begin(platform: &Arc<Platform>, registry: &Arc<MetricsRegistry>) -> Self {
        Measured {
            platform: platform.clone(),
            registry: registry.clone(),
            tz: platform.stats().snapshot(),
            counters: registry.snapshot(),
        }
    }

    pub fn end(&self) -> Deltas {
        Deltas {
            tz: self.platform.stats().snapshot().delta_since(&self.tz),
            counters: self.registry.snapshot().delta_since(&self.counters),
        }
    }
}

/// Effective time of some saturated work: wall clock without the
/// generator's own time (the sensor's cost), plus the modeled TEE boundary
/// time spread over the workers that incur it concurrently — the
/// accounting `EngineMetrics::effective_nanos` uses.
#[derive(Default, Clone, Copy)]
struct Effective {
    events: u64,
    wall: Duration,
    gen: Duration,
    modeled_ns: u64,
}

impl Effective {
    fn seconds(&self) -> f64 {
        self.wall.saturating_sub(self.gen).as_secs_f64()
            + self.modeled_ns as f64 / 1e9 / WORKERS as f64
    }

    fn mev_s(&self) -> f64 {
        self.events as f64 / self.seconds().max(1e-9) / 1e6
    }

    fn add(&mut self, other: Effective) {
        self.events += other.events;
        self.wall += other.wall;
        self.gen += other.gen;
        self.modeled_ns += other.modeled_ns;
    }
}

/// One saturation sub-block.
struct SatSub {
    /// The block it belongs to.
    block: u32,
    effective: Effective,
    /// Output delay of every window the sub-block completed, in ms.
    delays_ms: Vec<f64>,
    traced: bool,
}

/// The effective time of some sub-blocks together.
fn sum<'a>(subs: impl IntoIterator<Item = &'a SatSub>) -> Effective {
    let mut e = Effective::default();
    for s in subs {
        e.add(s.effective);
    }
    e
}

/// The saturation phase's outcome.
pub struct Saturation {
    pub load: Load,
    subs: Vec<SatSub>,
    /// Peak committed secure memory of each block.
    peaks: Vec<u64>,
}

impl Saturation {
    fn total(&self) -> Effective {
        sum(&self.subs)
    }

    /// Each block's sub-blocks, in order.
    fn blocks(&self) -> Vec<Vec<&SatSub>> {
        let mut blocks: Vec<Vec<&SatSub>> = Vec::new();
        for s in &self.subs {
            match blocks.last_mut() {
                Some(b) if b[0].block == s.block => b.push(s),
                _ => blocks.push(vec![s]),
            }
        }
        blocks
    }

    /// Throughput over the traced or untraced sub-blocks together.
    fn throughput(&self, traced: bool) -> f64 {
        sum(self.subs.iter().filter(|s| s.traced == traced)).mev_s()
    }

    /// Mean over the untraced sub-blocks of each one's p50 output delay.
    fn delay_p50(&self) -> f64 {
        mean_p50(self.subs.iter().filter(|s| !s.traced).map(|s| s.delays_ms.as_slice()))
    }

    /// The untraced blocks' p99 output delays, over blocks.
    fn delay_p99(&self) -> f64 {
        let p99s: Vec<f64> = self
            .blocks()
            .iter()
            .filter(|b| !b[0].traced)
            .map(|b| {
                quantile(
                    &b.iter().flat_map(|s| s.delays_ms.iter().copied()).collect::<Vec<_>>(),
                    0.99,
                )
            })
            .collect();
        tail_over_blocks(&p99s)
    }

    /// Throughput of each whole block.
    fn block_throughputs(&self) -> Vec<f64> {
        self.blocks().into_iter().map(|b| sum(b).mev_s()).collect()
    }

    /// Output-delay windows per block (the smallest block).
    fn delay_samples(&self) -> usize {
        self.blocks().iter().map(|b| b.iter().map(|s| s.delays_ms.len()).sum()).min().unwrap_or(0)
    }

    /// Output-delay windows per sub-block (the smallest).
    fn delay_sub_samples(&self) -> usize {
        self.subs.iter().map(|s| s.delays_ms.len()).min().unwrap_or(0)
    }
}

/// Closed-loop saturation in `blocks` blocks of `subs` sub-blocks, each of
/// `windows` windows per lane: `offer(rec, span, load, n)` offers the next
/// `n` windows of every lane, returns once they are done, and returns their
/// output delays. In a traced run every second block is traced — spans and
/// the program's registry tracing on — so the tracing overhead is measured
/// on interleaved blocks of equal work.
#[allow(clippy::too_many_arguments)]
pub fn saturate(
    rec: &mut Recorder,
    parent: Option<Open>,
    platform: &Arc<Platform>,
    registry: &Arc<MetricsRegistry>,
    blocks: u32,
    subs: u32,
    windows: u32,
    mut offer: impl FnMut(&mut Recorder, Option<Open>, &mut Load, u32) -> Vec<f64>,
) -> Saturation {
    let traced_run = rec.enabled();
    let span = rec.open("saturation", parent);
    let mut load = Load::default();
    let mut done = Vec::with_capacity((blocks * subs) as usize);
    let mut peaks = Vec::with_capacity(blocks as usize);
    for block in 0..blocks {
        let traced = traced_run && block % 2 == 1;
        if traced_run {
            rec.set_enabled(traced);
            registry.set_enabled(traced);
        }
        let ((), peak) = block_peak(platform, || {
            for _ in 0..subs {
                let (events0, gen0) = (load.events, load.gen.total);
                let tz0 = platform.stats().snapshot();
                let start = Instant::now();
                let delays_ms = offer(rec, Some(span), &mut load, windows);
                let wall = start.elapsed();
                let modeled_ns =
                    platform.stats().snapshot().delta_since(&tz0).total_overhead_nanos();
                done.push(SatSub {
                    block,
                    effective: Effective {
                        events: load.events - events0,
                        wall,
                        gen: load.gen.total - gen0,
                        modeled_ns,
                    },
                    delays_ms,
                    traced,
                });
            }
        });
        peaks.push(peak);
    }
    if traced_run {
        rec.set_enabled(true);
        registry.set_enabled(true);
    }
    rec.close(span);
    Saturation { load, subs: done, peaks }
}

/// Per-layer figures only the server workload has.
#[derive(Default)]
pub struct ServerStats {
    pub serve_ms: f64,
    pub drr_penalties: u64,
    pub backpressure: u64,
    pub rejected_batches: u64,
    pub checkpoints: u64,
    pub heavy_vs_light_delay_p99: f64,
    pub checkpoint_ms: f64,
    pub snapshot_kb: f64,
    pub restore_ms: f64,
}

/// Everything a workload measured, ready to be named.
pub struct PhaseStats<'a> {
    pub setup_s: f64,
    pub sat: &'a Saturation,
    /// Window latencies of each paced block, in ms (infinite when failed).
    pub latencies_ms: &'a [Vec<f64>],
    pub paced: &'a Load,
    pub late_ms: &'a [f64],
    pub deltas: &'a Deltas,
    /// Encryption time measured for sources the program encrypts itself.
    pub extra_encrypt: Duration,
    pub trail_segments: usize,
    pub trail_bytes: usize,
    pub verify: Duration,
    pub stale: usize,
    /// Peak committed secure memory of each paced block.
    pub paced_peaks: &'a [u64],
    pub server: ServerStats,
}

/// Name every end-to-end and per-layer metric.
pub fn report(out: &mut Outcome, s: &PhaseStats) {
    let sat = &s.sat.load;
    let paced_p99: Vec<f64> = s.latencies_ms.iter().map(|b| quantile(b, 0.99)).collect();
    out.e2e("setup_s", s.setup_s, "s");
    out.e2e("throughput_mev_s", s.sat.throughput(false), "Mev/s");
    out.e2e("output_delay_p50_ms", s.sat.delay_p50(), "ms");
    out.e2e("output_delay_p99_ms", s.sat.delay_p99(), "ms");
    out.e2e("latency_p50_ms", mean_p50(s.latencies_ms.iter().flat_map(|b| sub_blocks(b))), "ms");
    out.e2e("latency_p99_ms", tail_over_blocks(&paced_p99), "ms");
    let peak_mb = |p: &[u64]| median(&p.iter().map(|&b| b as f64 / 1e6).collect::<Vec<_>>());
    out.e2e("tee_peak_mb", peak_mb(s.paced_peaks), "MB");
    let total = s.sat.total();
    out.note(format!(
        "saturation {:.2} s wall ({:.2} s generating input), {} events; p50s are the mean \
         over the phase's sub-blocks, p99s the lower quartile over its blocks",
        total.wall.as_secs_f64(),
        total.gen.as_secs_f64(),
        total.events
    ));
    let blocks = |v: Vec<f64>| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    let mb = |p: &[u64]| blocks(p.iter().map(|&b| b as f64 / 1e6).collect());
    out.note(format!(
        "per block: throughput {} Mev/s; latency p99 {} ms; peak secure memory {} MB \
         (saturation), {} MB (paced)",
        blocks(s.sat.block_throughputs()),
        blocks(paced_p99),
        mb(&s.sat.peaks),
        mb(s.paced_peaks),
    ));
    let paced_samples = s.latencies_ms.iter().map(Vec::len).min().unwrap_or(0);
    out.note(format!(
        "samples per block: output delay {} windows, latency {paced_samples} windows \
         (p99 leaves {} beyond it); per sub-block: output delay {} windows, latency {} windows",
        s.sat.delay_samples(),
        paced_samples / 100,
        s.sat.delay_sub_samples(),
        s.latencies_ms.iter().flat_map(|b| sub_blocks(b).map(<[f64]>::len)).min().unwrap_or(0),
    ));

    let events = (sat.events + s.paced.events).max(1) as f64;
    let encrypt = sat.gen.encrypt + s.paced.gen.encrypt + s.extra_encrypt;
    out.layer("workloads.encrypt_ms", encrypt.as_secs_f64() * 1e3, "ms");
    out.layer("workloads.late_p99_ms", quantile(s.late_ms, 0.99), "ms");

    let mut ingest = crate::trace::Calls::default();
    ingest.extend(&sat.ingest);
    ingest.extend(&s.paced.ingest);
    out.layer("engine.ingest_calls", ingest.count() as f64, "count");
    out.layer("engine.ingest_busy_ms", ingest.busy_ms(), "ms");
    out.layer("engine.ingest_p50_us", ingest.quantile_ns(0.50) / 1e3, "us");
    out.layer("engine.ingest_p99_us", ingest.quantile_ns(0.99) / 1e3, "us");

    let c = &s.deltas.counters;
    out.layer("dataplane.decrypt_ms", c.counter_u64("plane.decrypt_nanos") as f64 / 1e6, "ms");
    out.layer("dataplane.compute_ms", c.counter_u64("plane.compute_nanos") as f64 / 1e6, "ms");
    out.layer("dataplane.audit_records", c.counter_u64("plane.audit_records") as f64, "count");
    out.layer("dataplane.egress_count", c.counter_u64("plane.egress_count") as f64, "count");

    let mut window = crate::trace::Calls::default();
    window.extend(&sat.window);
    window.extend(&s.paced.window);
    out.layer("engine.window_calls", window.count() as f64, "count");
    out.layer("engine.window_busy_ms", window.busy_ms(), "ms");
    out.layer("engine.window_p50_ms", window.quantile_ns(0.50) / 1e6, "ms");
    out.layer("engine.window_p99_ms", window.quantile_ns(0.99) / 1e6, "ms");

    let tz = &s.deltas.tz;
    out.layer("tz.switches_per_kevent", tz.world_switches as f64 * 1e3 / events, "count");
    out.layer("tz.copied_bytes_per_event", tz.boundary_copy_bytes as f64 / events, "B");
    out.layer("tz.pages_per_kevent", tz.tee_pages_committed as f64 * 1e3 / events, "count");
    out.layer("tz.modeled_ms", tz.total_overhead_nanos() as f64 / 1e6, "ms");
    out.layer("tz.saturation_peak_mb", peak_mb(&s.sat.peaks), "MB");

    out.layer("executor.steals", c.counter_u64("executor.steals") as f64, "count");
    out.layer("executor.parks", c.counter_u64("executor.parks") as f64, "count");

    let sv = &s.server;
    out.layer("server.serve_ms", sv.serve_ms, "ms");
    out.layer("server.drr_penalties", sv.drr_penalties as f64, "count");
    out.layer("server.backpressure", sv.backpressure as f64, "count");
    out.layer("server.rejected_batches", sv.rejected_batches as f64, "count");
    out.layer("server.checkpoints", sv.checkpoints as f64, "count");
    out.layer("server.heavy_vs_light_delay_p99", sv.heavy_vs_light_delay_p99, "ratio");
    out.layer("server.checkpoint_ms", sv.checkpoint_ms, "ms");
    out.layer("server.snapshot_kb", sv.snapshot_kb, "KB");
    out.layer("server.restore_ms", sv.restore_ms, "ms");

    let verify_s = s.verify.as_secs_f64();
    out.layer("attest.segments", s.trail_segments as f64, "count");
    out.layer("attest.trail_bytes_per_kevent", s.trail_bytes as f64 * 1e3 / events, "B");
    out.layer("attest.verify_ms", verify_s * 1e3, "ms");
    out.layer("attest.verify_mb_s", s.trail_bytes as f64 / 1e6 / verify_s.max(1e-9), "MB/s");
    out.layer("attest.stale_results", s.stale as f64, "count");

    let busy = Duration::from_secs_f64(
        (sat.ingest.busy_ms() + sat.window.busy_ms() + sat.server.busy_ms()) / 1e3,
    );
    let unattributed = total.wall.saturating_sub(busy).saturating_sub(total.gen);
    out.layer("trace.unattributed_ms", unattributed.as_secs_f64() * 1e3, "ms");
    let traced = s.sat.throughput(true);
    let overhead =
        if traced > 0.0 { 100.0 * (1.0 - traced / s.sat.throughput(false)) } else { 0.0 };
    out.layer("trace.overhead_pct", overhead, "%");
}
