//! The multi-tenant workload, `tenants-drr`: one `StreamServer` on the
//! workers serving eight tenants with their own derived keys. Tenants
//! alternate WinSum and TopK; tenant 0 carries half of all events; policy
//! checkpoints are on. Saturation is the server's own deficit round-robin
//! `serve` loop, which pulls from (and encrypts through) its generators.
//! Afterwards every trail is verified and replayed, and the heavy tenant
//! is checkpointed and restored into a fresh server over the same vault.

use crate::drive::{check_results, paced, verify_trail, Feed, Load};
use crate::inputs::{Kind, Stream, TOPK_K};
use crate::phases::{self, Measured, PhaseStats, ServerStats, Setup};
use crate::report::Outcome;
use crate::trace::{median, quantile, Open, Recorder};
use crate::WORKERS;
use sbt_crypto::{MasterSecret, TenantKeychain};
use sbt_engine::{Executor, Pipeline};
use sbt_server::{ServerConfig, StreamServer, TenantConfig, TenantStream};
use sbt_types::TenantId;
use sbt_workloads::datasets::StreamChunk;
use sbt_workloads::generator::{Generator, GeneratorConfig};
use sbt_workloads::transport::Channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
/// The heavy tenant: as many events as the other seven together.
const HEAVY: usize = 0;
/// Events per window of each light tenant; the heavy tenant's windows are
/// `TENANTS - 1` times larger.
const LIGHT_EVENTS_PER_WINDOW: usize = 2_000;
/// Batches per window, for every tenant.
const BATCHES_PER_WINDOW: usize = 4;
/// Windows per tenant in one `serve` call (the generators hold their whole
/// input, so the phase is served in rounds of bounded memory).
const ROUND_WINDOWS: u32 = 25;
/// Saturation windows per tenant per second of `--seconds`.
const SATURATION_WINDOWS_PER_S: u32 = 33;
/// Saturation blocks: serve rounds interleave eight lanes, so a block's
/// delay quantiles vary more than a single engine's and the median needs
/// more blocks. Each serve round is one sub-block.
const SATURATION_BLOCKS: u32 = 8;
/// The paced phase's fixed absolute offered rate over all tenants, events
/// per second, split in proportion to each tenant's share of events.
pub const PACED_RATE: f64 = 1_200_000.0;
/// Paced windows per tenant per second of `--seconds`.
const PACED_WINDOWS_PER_S: u32 = 21;
/// Policy checkpoint interval, in ingested events.
const CHECKPOINT_EVERY_RECORDS: u64 = 200_000;
const SECURE_MEM: u64 = 256 * 1024 * 1024;

struct TenantPlan {
    kind: Kind,
    events_per_window: usize,
    config: TenantConfig,
}

impl TenantPlan {
    fn pipeline(&self) -> Pipeline {
        match self.kind {
            Kind::WinSum => Pipeline::winsum_benchmark(),
            Kind::TopK => Pipeline::topk_benchmark(TOPK_K),
        }
        .batch_events(self.batch())
    }

    fn batch(&self) -> usize {
        self.events_per_window.div_ceil(BATCHES_PER_WINDOW)
    }

    /// This tenant's share of all events.
    fn share(&self) -> f64 {
        self.events_per_window as f64 / (2 * (TENANTS - 1) * LIGHT_EVENTS_PER_WINDOW) as f64
    }
}

/// Tenants alternate WinSum and TopK. Quotas leave room for several
/// windows in flight and keep the summed demand within what pool-aware
/// admission accepts for two workers at the pipelines' delay targets.
fn tenant_plans() -> Vec<TenantPlan> {
    (0..TENANTS)
        .map(|t| {
            let kind = if t % 2 == 0 { Kind::WinSum } else { Kind::TopK };
            let heavy = t == HEAVY;
            let events_per_window = LIGHT_EVENTS_PER_WINDOW * if heavy { TENANTS - 1 } else { 1 };
            let quota = match (kind, heavy) {
                (_, true) => 8 << 20,
                (Kind::WinSum, false) => 2 << 20,
                (Kind::TopK, false) => 4 << 20,
            };
            let config = TenantConfig::new(&format!("tenant-{t}"), quota)
                .with_checkpoint_every_records(CHECKPOINT_EVERY_RECORDS);
            TenantPlan { kind, events_per_window, config }
        })
        .collect()
}

fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_cores(WORKERS)
        .with_secure_mem(SECURE_MEM)
        .with_max_tenants(TENANTS)
}

/// Bring up a server and admit every tenant (key derivation included).
fn bring_up(plans: &[TenantPlan]) -> (Arc<StreamServer>, Vec<TenantId>) {
    let server = StreamServer::new(server_config());
    let ids = plans
        .iter()
        .map(|p| server.admit(p.config.clone(), p.pipeline()).expect("tenant admission"))
        .collect();
    (server, ids)
}

/// What `serve` calls add up to.
#[derive(Default)]
struct ServeCounts {
    time: Duration,
    penalties: u64,
    backpressure: u64,
    rejected: u64,
    checkpoints: u64,
}

/// The saturation phase's `serve` calls.
struct Rounds<'a> {
    server: &'a StreamServer,
    master: &'a MasterSecret,
    /// Each tenant's current key epoch.
    epochs: Vec<u32>,
    served: u32,
    counts: ServeCounts,
}

impl Rounds<'_> {
    /// One `serve` call over the next `windows` windows of every tenant.
    /// Every round after the first starts a new key epoch: a source channel
    /// always begins at keystream block zero, so the fresh epoch keeps
    /// keystream from being reused across rounds.
    fn serve(
        &mut self,
        feeds: &mut [Feed],
        windows: u32,
        rec: &mut Recorder,
        span: Option<Open>,
        load: &mut Load,
    ) {
        let start = Instant::now();
        let inputs: Vec<Vec<StreamChunk>> =
            feeds.iter_mut().map(|f| (0..windows).map(|_| f.plain_window()).collect()).collect();
        load.gen.total += start.elapsed();
        let mut streams = Vec::with_capacity(feeds.len());
        for ((feed, epoch), chunks) in feeds.iter().zip(&mut self.epochs).zip(inputs) {
            if self.served > 0 {
                let server = self.server;
                let (rekeyed, took) =
                    rec.call("server.rekey", span, feed.tenant.0, 0, || server.rekey(feed.tenant));
                load.server.push(took);
                *epoch = rekeyed.expect("rekey of an admitted tenant");
            }
            streams.push(TenantStream {
                tenant: feed.tenant,
                generator: Generator::new(
                    GeneratorConfig { batch_events: feed.batch() },
                    Channel::for_tenant(self.master, feed.tenant, *epoch),
                    chunks,
                ),
            });
        }
        let server = self.server;
        let (report, took) =
            rec.call("server.serve", span, 0, u64::from(self.served), || server.serve(streams));
        load.server.push(took);
        self.served += 1;
        let report = report.expect("serve over admitted tenants");
        let c = &mut self.counts;
        c.time += took;
        // Each serve loop publishes its own DRR counters, from zero.
        c.penalties += server.telemetry().snapshot().counter_u64("drr.penalties");
        for t in &report.per_tenant {
            load.batches += t.accepted_batches + t.rejected_batches;
            load.events += t.offered_events;
            load.failed_batches += t.rejected_batches;
            c.backpressure += t.backpressure_signals;
            c.rejected += t.rejected_batches;
            c.checkpoints += t.checkpoints_taken;
        }
    }
}

/// Time spent in `Generator::next_offer` (source encryption) for the
/// inputs the serve loop encrypted itself, measured on an identical
/// replica of those sources — the same windows, rounds and batches —
/// outside the server.
fn replay_sources(
    plans: &[TenantPlan],
    ids: &[TenantId],
    seed: u64,
    windows: u32,
    master: &MasterSecret,
) -> Duration {
    let mut spent = Duration::ZERO;
    for (t, (plan, id)) in plans.iter().zip(ids).enumerate() {
        let stream = tenant_stream(plan, seed, t);
        let served = phases::WARMUP_WINDOWS..phases::WARMUP_WINDOWS + windows;
        for round in served.clone().step_by(ROUND_WINDOWS as usize) {
            let chunks = (round..(round + ROUND_WINDOWS).min(served.end))
                .map(|w| stream.window(w).chunk)
                .collect();
            let mut gen = Generator::new(
                GeneratorConfig { batch_events: plan.batch() },
                Channel::for_tenant(master, *id, 0),
                chunks,
            );
            let start = Instant::now();
            while let Some(offer) = gen.next_offer() {
                std::hint::black_box(offer);
            }
            spent += start.elapsed();
        }
    }
    spent
}

fn tenant_stream(plan: &TenantPlan, seed: u64, t: usize) -> Stream {
    Stream {
        kind: plan.kind,
        seed: seed.wrapping_add(t as u64 * 7919),
        events_per_window: plan.events_per_window,
    }
}

pub fn run(seed: u64, seconds: u32, rec: &mut Recorder) -> Outcome {
    let plans = tenant_plans();
    let master = MasterSecret::demo();
    let setup = Setup::measure(|| bring_up(&plans));
    let (server, ids) = setup.kept;
    let mut feeds: Vec<Feed> = plans
        .iter()
        .zip(&ids)
        .enumerate()
        .map(|(t, (plan, id))| {
            let engine = server.engine(*id).expect("admitted tenant has an engine");
            let channel = Channel::for_tenant(&master, *id, 0);
            Feed::new(*id, engine, tenant_stream(plan, seed, t), channel, plan.batch())
        })
        .collect();
    let mut rounds = Rounds {
        server: &server,
        master: &master,
        epochs: vec![0; TENANTS],
        served: 0,
        counts: ServeCounts::default(),
    };
    let run_span = rec.open("workload", None);

    let mut warm = Load::default();
    rounds.serve(&mut feeds, phases::WARMUP_WINDOWS, rec, Some(run_span), &mut warm);
    rounds.counts = ServeCounts::default();

    let measured = Measured::begin(server.platform(), server.telemetry());
    let rounds_per_block =
        (SATURATION_WINDOWS_PER_S * seconds / SATURATION_BLOCKS).div_ceil(ROUND_WINDOWS).max(1);
    let sat_windows = rounds_per_block * ROUND_WINDOWS;
    let sat = phases::saturate(
        rec,
        Some(run_span),
        server.platform(),
        server.telemetry(),
        SATURATION_BLOCKS,
        rounds_per_block,
        ROUND_WINDOWS,
        |rec, span, load, n| {
            rounds.serve(&mut feeds, n, rec, span, load);
            feeds.iter().flat_map(|f| f.output_delays_ms(n)).collect()
        },
    );
    let c = &rounds.counts;
    let mut server_stats = ServerStats {
        serve_ms: c.time.as_secs_f64() * 1e3,
        drr_penalties: c.penalties,
        backpressure: c.backpressure,
        rejected_batches: c.rejected,
        checkpoints: c.checkpoints,
        ..Default::default()
    };
    let served = sat_windows * SATURATION_BLOCKS;
    let p99s: Vec<f64> =
        feeds.iter().map(|f| quantile(&f.output_delays_ms(served), 0.99)).collect();

    // Paced phase: the benchmark paces every tenant's engine itself, at a
    // fixed aggregate rate split by tenant share, under a fresh epoch.
    for feed in &mut feeds {
        let epoch = server.rekey(feed.tenant).expect("rekey of an admitted tenant");
        feed.set_channel(Channel::for_tenant(&master, feed.tenant, epoch));
    }
    let rates: Vec<f64> = plans.iter().map(|p| PACED_RATE * p.share()).collect();
    let paced_span = rec.open("paced", Some(run_span));
    let mut paced_load = Load::default();
    let paced_windows = PACED_WINDOWS_PER_S * seconds / phases::BLOCKS;
    let (paced_out, paced_peaks): (Vec<_>, Vec<_>) = (0..phases::BLOCKS)
        .map(|_| {
            phases::block_peak(server.platform(), || {
                paced(&mut feeds, &rates, paced_windows, rec, Some(paced_span), &mut paced_load)
            })
        })
        .unzip();
    rec.close(paced_span);
    let deltas = measured.end();

    // Checks: every tenant's results and trail, on the verifier's pool.
    let keychains: Vec<TenantKeychain> =
        ids.iter().map(|id| server.verifier_keys(*id).expect("admitted tenant")).collect();
    let checks: Vec<(Vec<bool>, u64)> =
        feeds.iter().zip(&keychains).map(|(f, k)| check_results(f, k)).collect();
    let pool = Executor::new(WORKERS);
    let verify_span = rec.open("verify", Some(run_span));
    let trails: Vec<_> = feeds
        .iter()
        .zip(&keychains)
        .map(|(f, k)| {
            verify_trail(f, f.engine.drain_audit_segments(), k, &pool, rec, Some(verify_span))
        })
        .collect();
    rec.close(verify_span);

    // Recovery: checkpoint the heavy tenant, drop the server, restore the
    // tenant into a fresh server over the same vault.
    let recovery_span = rec.open("recovery", Some(run_span));
    let heavy = ids[HEAVY];
    let (receipt, checkpoint_took) =
        rec.call("server.checkpoint", Some(recovery_span), heavy.0, 0, || server.checkpoint(heavy));
    let receipt = receipt.expect("checkpoint of the heavy tenant");
    let vault = server.vault().clone();
    let windows_expected: u64 = feeds.iter().map(|f| f.expected.len() as u64).sum();
    drop(feeds);
    drop(server);
    let fresh = StreamServer::new(server_config().with_vault(vault));
    let (restored, restore_took) =
        rec.call("server.restore_tenant", Some(recovery_span), heavy.0, 0, || {
            fresh.restore_tenant(
                heavy,
                plans[HEAVY].config.clone(),
                plans[HEAVY].pipeline(),
                receipt.epoch,
            )
        });
    let restored_ok = restored.is_ok();
    if let Err(e) = restored {
        eprintln!("restore of tenant {} failed: {e:?}", heavy.0);
    }
    rec.close(recovery_span);
    rec.close(run_span);

    let mut out = Outcome::default();
    let loads = [&warm, &sat.load, &paced_load];
    out.ops =
        loads.iter().map(|l| l.batches).sum::<u64>() + windows_expected + trails.len() as u64 + 1;
    out.ops_failed = loads.iter().map(|l| l.failed_batches).sum::<u64>()
        + checks
            .iter()
            .map(|(ok, extra)| ok.iter().filter(|o| !**o).count() as u64 + extra)
            .sum::<u64>()
        + trails.iter().filter(|t| !t.ok).count() as u64
        + u64::from(!restored_ok);
    let latencies: Vec<Vec<f64>> = paced_out
        .iter()
        .map(|block| {
            block
                .windows
                .iter()
                .map(|&(lane, w, ms)| if checks[lane].0[w] { ms } else { f64::INFINITY })
                .collect()
        })
        .collect();
    let late_ms: Vec<f64> = paced_out.iter().flat_map(|b| b.late_ms.iter().copied()).collect();
    let light: Vec<f64> =
        p99s.iter().enumerate().filter(|(t, _)| *t != HEAVY).map(|(_, p)| *p).collect();
    server_stats.heavy_vs_light_delay_p99 = p99s[HEAVY] / median(&light).max(1e-9);
    server_stats.checkpoint_ms = checkpoint_took.as_secs_f64() * 1e3;
    server_stats.snapshot_kb = receipt.sealed_bytes as f64 / 1e3;
    server_stats.restore_ms = restore_took.as_secs_f64() * 1e3;
    phases::report(
        &mut out,
        &PhaseStats {
            setup_s: median(&setup.seconds),
            sat: &sat,
            latencies_ms: &latencies,
            paced: &paced_load,
            late_ms: &late_ms,
            deltas: &deltas,
            extra_encrypt: replay_sources(&plans, &ids, seed, served, &master),
            trail_segments: trails.iter().map(|t| t.segments).sum(),
            trail_bytes: trails.iter().map(|t| t.bytes).sum(),
            verify: trails.iter().map(|t| t.verify).sum(),
            stale: trails.iter().map(|t| t.stale).sum(),
            paced_peaks: &paced_peaks,
            server: server_stats,
        },
    );
    out.note(format!(
        "{TENANTS} tenants (WinSum/TopK alternating), tenant {HEAVY} carries half the events; \
         serve rounds of {ROUND_WINDOWS} windows per tenant; paced at {PACED_RATE:.0} events/s; \
         {sat_windows} saturation and {paced_windows} paced windows per tenant per block"
    ));
    out
}
