//! Timing of the benchmark's calls into the program, and the traced run's
//! in-memory span log.
//!
//! Every call the benchmark makes into a public entry point is timed (the
//! end-to-end metrics need the busy time of the blocking calls). With
//! tracing on, each timed call also leaves a span — name, start, end,
//! parent, tenant and batch or window id — in memory; the log is written
//! once, at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    tenant: u32,
    id: u64,
}

/// The span log of one workload run (empty unless tracing).
pub struct Recorder {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    enabled: bool,
}

/// Handle of an open span (a phase that parents the calls inside it).
#[derive(Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Recorder {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Recorder { epoch: Instant::now(), workload, spans: Vec::new(), enabled }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Keep or stop keeping spans (traced and untraced blocks interleave
    /// when the tracing overhead is measured).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a phase span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<Open>) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { index: None, start };
        }
        let start_ns = self.nanos(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.and_then(|p| p.index),
            tenant: 0,
            id: 0,
        });
        Open { index: Some(self.spans.len() - 1), start }
    }

    /// Close a phase span, returning how long it was open.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        let end_ns = self.nanos(end);
        if let Some(i) = open.index {
            self.spans[i].end_ns = end_ns;
        }
        end.duration_since(open.start)
    }

    /// Time one call, keeping a span for it when tracing.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        tenant: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.nanos(start),
                end_ns: self.nanos(end),
                parent: parent.and_then(|p| p.index),
                tenant,
                id,
            });
        }
        (out, end.duration_since(start))
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The span log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"tenant\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.tenant, s.id
            );
        }
        out
    }
}

/// Durations of one kind of call.
#[derive(Default)]
pub struct Calls {
    nanos: Vec<u64>,
}

impl Calls {
    pub fn push(&mut self, d: Duration) {
        self.nanos.push(d.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Calls) {
        self.nanos.extend_from_slice(&other.nanos);
    }

    pub fn count(&self) -> usize {
        self.nanos.len()
    }

    /// Summed duration, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e6
    }

    /// Quantile `q` of the durations, in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.nanos.iter().map(|&n| n as f64).collect();
        quantile(&v, q)
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none. Non-finite samples sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Sleep until shortly before `due`, then spin to it, so pacing adds no
/// wake-up jitter of its own. The spin window is wide: on a small virtual
/// host, an idle vCPU takes up to milliseconds to be scheduled again, so
/// the generator keeps its vCPU busy across the short gaps between sends.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(5);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
