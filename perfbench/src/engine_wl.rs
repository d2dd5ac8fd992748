//! The single-engine workloads, `winsum-ingest` and `topk-compute`: one
//! tenant, `EngineVariant::Sbt`, a closed-loop saturation phase and a
//! paced open-loop phase, then result and trail checks.

use crate::drive::{check_results, paced, verify_trail, Feed, Load};
use crate::inputs::{Kind, Stream, TOPK_K};
use crate::phases::{self, Measured, PhaseStats, Setup};
use crate::report::Outcome;
use crate::trace::{median, Recorder};
use crate::WORKERS;
use sbt_engine::{Engine, EngineConfig, EngineVariant, Executor, Pipeline};
use sbt_types::TenantId;
use sbt_workloads::transport::Channel;
use std::time::Duration;

/// The shape of one single-engine workload.
pub struct Plan {
    pub kind: Kind,
    pub events_per_window: usize,
    pub batch: usize,
    /// Saturation windows per second of `--seconds`.
    pub saturation_windows_per_s: u32,
    /// The paced phase's fixed absolute offered rate, events per second.
    pub paced_rate: f64,
    /// Paced windows per second of `--seconds`.
    pub paced_windows_per_s: u32,
    /// Paced blocks: enough that the p99 over blocks is steady, each block
    /// at least 1 000 windows at `--seconds 45`.
    pub paced_blocks: u32,
}

fn pipeline(plan: &Plan) -> Pipeline {
    match plan.kind {
        Kind::WinSum => Pipeline::winsum_benchmark(),
        Kind::TopK => Pipeline::topk_benchmark(TOPK_K),
    }
    .batch_events(plan.batch)
}

pub fn run(plan: &Plan, seed: u64, seconds: u32, rec: &mut Recorder) -> Outcome {
    let setup = Setup::measure(|| {
        Engine::new(EngineConfig::for_variant(EngineVariant::Sbt, WORKERS), pipeline(plan))
    });
    let engine = setup.kept;
    let keys =
        engine.data_plane().verifier_keys(TenantId::DEFAULT).expect("the default tenant has keys");
    let stream = Stream { kind: plan.kind, seed, events_per_window: plan.events_per_window };
    let feed =
        Feed::new(TenantId::DEFAULT, engine.clone(), stream, Channel::encrypted_demo(), plan.batch);
    let mut feeds = [feed];
    let run_span = rec.open("workload", None);

    // Warm-up: caches, allocator reservations and lazily built tables.
    let mut warm = Load::default();
    feeds[0].closed(phases::WARMUP_WINDOWS, rec, Some(run_span), &mut warm);

    let measured = Measured::begin(engine.platform(), engine.telemetry());
    let sub_windows =
        (plan.saturation_windows_per_s * seconds / (phases::BLOCKS * phases::SUBS)).max(1);
    let sat = phases::saturate(
        rec,
        Some(run_span),
        engine.platform(),
        engine.telemetry(),
        phases::BLOCKS,
        phases::SUBS,
        sub_windows,
        |rec, span, load, n| {
            feeds[0].closed(n, rec, span, load);
            feeds[0].output_delays_ms(n)
        },
    );

    let paced_span = rec.open("paced", Some(run_span));
    let mut paced_load = Load::default();
    let paced_windows = plan.paced_windows_per_s * seconds / plan.paced_blocks;
    let (paced_out, paced_peaks): (Vec<_>, Vec<_>) = (0..plan.paced_blocks)
        .map(|_| {
            let rates = [plan.paced_rate];
            phases::block_peak(engine.platform(), || {
                paced(&mut feeds, &rates, paced_windows, rec, Some(paced_span), &mut paced_load)
            })
        })
        .unzip();
    rec.close(paced_span);
    let deltas = measured.end();

    // Checks: every result against the reference, then the trail.
    let [feed] = feeds;
    let (matched, extra) = check_results(&feed, &keys);
    let pool = Executor::new(WORKERS);
    let verify_span = rec.open("verify", Some(run_span));
    let trail =
        verify_trail(&feed, engine.drain_audit_segments(), &keys, &pool, rec, Some(verify_span));
    rec.close(verify_span);
    rec.close(run_span);

    let mut out = Outcome::default();
    let loads = [&warm, &sat.load, &paced_load];
    out.ops = loads.iter().map(|l| l.batches).sum::<u64>() + feed.expected.len() as u64 + 1;
    out.ops_failed = loads.iter().map(|l| l.failed_batches).sum::<u64>()
        + matched.iter().filter(|ok| !**ok).count() as u64
        + extra
        + u64::from(!trail.ok);
    let latencies: Vec<Vec<f64>> = paced_out
        .iter()
        .map(|block| {
            block
                .windows
                .iter()
                .map(|&(_, w, ms)| if matched[w] { ms } else { f64::INFINITY })
                .collect()
        })
        .collect();
    let late_ms: Vec<f64> = paced_out.iter().flat_map(|b| b.late_ms.iter().copied()).collect();
    phases::report(
        &mut out,
        &PhaseStats {
            setup_s: median(&setup.seconds),
            sat: &sat,
            latencies_ms: &latencies,
            paced: &paced_load,
            late_ms: &late_ms,
            deltas: &deltas,
            extra_encrypt: Duration::ZERO,
            trail_segments: trail.segments,
            trail_bytes: trail.bytes,
            verify: trail.verify,
            stale: trail.stale,
            paced_peaks: &paced_peaks,
            server: Default::default(),
        },
    );
    out.note(format!(
        "{}: {} events/window in batches of {}; \
         paced at {:.0} events/s; {} saturation and {paced_windows} paced windows per block",
        engine.pipeline().name(),
        plan.events_per_window,
        plan.batch,
        plan.paced_rate,
        sub_windows * phases::SUBS,
    ));
    out
}
