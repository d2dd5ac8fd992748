//! The repository benchmark: end-to-end and per-layer measurements of the
//! StreamBox-TZ engine, multi-tenant server and cloud verifier, driven only
//! through their public entry points.
//!
//! ```text
//! perfbench --workload <winsum-ingest|topk-compute|tenants-drr|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//!           [--trace-out <dir>] [--rustc <version>] [--git-rev <rev>]
//! ```
//!
//! Prints a provenance line, every metric by name and unit, `ops` and
//! `ops_failed`, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). Exits nonzero when any operation
//! failed or any result differed from the reference.

mod drive;
mod engine_wl;
mod inputs;
mod phases;
mod report;
mod server_wl;
mod trace;

use inputs::Kind;
use report::{metrics_json, string, Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;

/// Engine and server workers. Sized for a 2-core edge host; the load
/// generator is one more thread, blocked inside every call it makes.
pub const WORKERS: usize = 2;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["winsum-ingest", "topk-compute", "tenants-drr"];

/// `winsum-ingest`: each window reduces to one Sum, so nearly all time is
/// ingest — the gateway crossing, in-TEE decrypt lanes and Segment.
const WINSUM: engine_wl::Plan = engine_wl::Plan {
    kind: Kind::WinSum,
    events_per_window: 5_000,
    batch: 5_000,
    saturation_windows_per_s: 167,
    paced_rate: 2_750_000.0,
    paced_windows_per_s: 300,
    // A window here takes about 0.6 ms, so a host hiccup of a millisecond
    // moves a block's p99; more blocks keep the figure over blocks steady.
    paced_blocks: 9,
};

/// `topk-compute`: per-key top-10 over 1 000 keys, so most time is window
/// execution — sort, merge tree, top-K, uArray allocation, audit, seal.
const TOPK: engine_wl::Plan = engine_wl::Plan {
    kind: Kind::TopK,
    events_per_window: 2_500,
    batch: 2_500,
    saturation_windows_per_s: 112,
    paced_rate: 700_000.0,
    paced_windows_per_s: 200,
    // Nine blocks of 1 000 windows at `--seconds 45`: the p99 is read from
    // the blocks host stalls spared, so the more blocks, the steadier.
    paced_blocks: 9,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    trace_out: Option<PathBuf>,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        trace_out: None,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("duration"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--rustc" => args.rustc = value,
            "--git-rev" => args.git_rev = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run_workload(name: &'static str, args: &Args) -> Outcome {
    let mut rec = Recorder::new(name, args.trace);
    let out = match name {
        "winsum-ingest" => engine_wl::run(&WINSUM, args.seed, args.seconds, &mut rec),
        "topk-compute" => engine_wl::run(&TOPK, args.seed, args.seconds, &mut rec),
        _ => server_wl::run(args.seed, args.seconds, &mut rec),
    };
    if let Some(dir) = &args.trace_out {
        if args.trace {
            let path = dir.join(format!("{name}-seed{}.jsonl", args.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, rec.to_json_lines()));
            match written {
                Ok(()) => println!("# {} spans written to {}", rec.len(), path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
        }
    }
    out
}

fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cost = sbt_tz::CostModel::hikey();
    format!(
        "{{\"git_rev\":{},\"rustc\":{},\"available_parallelism\":{cores},\"workers\":{WORKERS},\
         \"oversubscribed\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cost_model\":{{\"name\":\"hikey\",\"cpu_hz\":{},\"switch_ns\":{},\
         \"copy_cycles_per_byte\":{},\"tee_page_commit_cycles\":{}}}}}",
        string(&args.git_rev),
        string(&args.rustc),
        WORKERS > cores,
        args.seed,
        args.seconds,
        args.trace,
        cost.cpu_hz,
        cost.switch_nanos(),
        cost.boundary_copy_cycles_per_byte,
        cost.tee_page_commit_cycles,
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# provenance {}", provenance(&args));
    let names: Vec<&'static str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => WORKLOADS.iter().copied().filter(|w| *w == one).collect(),
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics: Vec<(String, Metric)> = Vec::new();
    for name in &names {
        let out = run_workload(name, &args);
        println!("== {name}");
        for note in &out.notes {
            println!("# {note}");
        }
        let shown = if args.trace { &out.per_layer } else { &out.end_to_end };
        print_metrics(shown);
        println!("{:<34} {:>14}", "ops", out.ops);
        println!("{:<34} {:>14}", "ops_failed", out.ops_failed);
        attempted += out.ops;
        failed += out.ops_failed;
        let chosen = if args.trace { out.per_layer } else { out.end_to_end };
        for m in chosen {
            // `all` prefixes each metric with its workload.
            let key =
                if names.len() == 1 { m.name.to_string() } else { format!("{name}.{}", m.name) };
            metrics.push((key, m));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
