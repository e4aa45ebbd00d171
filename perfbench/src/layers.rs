//! Per-layer attribution from outside the program: wall time around calls
//! into each layer's public functions, plus the difference of the
//! `seeker-obs` summary (the spans and counters the crates already emit)
//! across a stage.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use seeker_obs::{Event, Level, Sink, SinkGuard};

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover, accumulated from the span start/end events that
/// `seeker-obs` delivers at [`Level::Trace`]. Spans nest per thread.
#[derive(Default)]
struct SelfTimeSink {
    /// Per thread, the open spans as `(name, nanos covered by children)`.
    open: Mutex<HashMap<ThreadId, Vec<(&'static str, u64)>>>,
    self_nanos: Mutex<BTreeMap<&'static str, u64>>,
}

impl Sink for SelfTimeSink {
    fn record(&self, event: &Event) {
        let thread = std::thread::current().id();
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        let stack = open.entry(thread).or_default();
        match *event {
            Event::SpanStart { name, .. } => stack.push((name, 0)),
            Event::SpanEnd { name, nanos, .. } => {
                let child = match stack.pop() {
                    Some((open_name, child)) if open_name == name => child,
                    _ => 0,
                };
                if let Some(parent) = stack.last_mut() {
                    parent.1 += nanos;
                }
                let mut totals = self.self_nanos.lock().unwrap_or_else(PoisonError::into_inner);
                *totals.entry(name).or_insert(0) += nanos.saturating_sub(child);
            }
            _ => {}
        }
    }
}

fn self_time_sink() -> &'static Arc<SelfTimeSink> {
    static SINK: OnceLock<Arc<SelfTimeSink>> = OnceLock::new();
    SINK.get_or_init(Arc::default)
}

/// Switches span recording on (`true`: [`Level::Trace`] with the self-time
/// sink installed while the guard lives) or off (`false`: [`Level::Off`],
/// the setting of every end-to-end measurement; counters still count).
pub fn set_tracing(on: bool) -> Option<SinkGuard> {
    if on {
        seeker_obs::set_level(Level::Trace);
        Some(seeker_obs::add_sink(self_time_sink().clone()))
    } else {
        seeker_obs::set_level(Level::Off);
        None
    }
}

/// A snapshot of the `seeker-obs` span table, counter totals and span self
/// times.
#[derive(Debug, Clone)]
pub struct ObsMark {
    spans: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    self_nanos: BTreeMap<&'static str, u64>,
}

impl ObsMark {
    /// Takes the snapshot.
    pub fn now() -> ObsMark {
        let summary = seeker_obs::summary();
        let self_nanos =
            self_time_sink().self_nanos.lock().unwrap_or_else(PoisonError::into_inner).clone();
        ObsMark {
            spans: summary.spans.iter().map(|s| (s.name, (s.count, s.total_nanos))).collect(),
            counters: summary.counters.into_iter().collect(),
            self_nanos,
        }
    }

    /// What was recorded between this snapshot and now.
    pub fn delta(&self) -> ObsDelta {
        let now = ObsMark::now();
        let spans = now
            .spans
            .iter()
            .map(|(&name, &(count, nanos))| {
                let (c0, n0) = self.spans.get(name).copied().unwrap_or((0, 0));
                (name, (count - c0, nanos - n0))
            })
            .collect();
        let counters = now
            .counters
            .iter()
            .map(|(&name, &v)| (name, v - self.counters.get(name).copied().unwrap_or(0)))
            .collect();
        let self_nanos = now
            .self_nanos
            .iter()
            .map(|(&name, &v)| (name, v - self.self_nanos.get(name).copied().unwrap_or(0)))
            .collect();
        ObsDelta { spans, counters, self_nanos }
    }
}

/// Spans closed and counters added over a stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsDelta {
    spans: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    self_nanos: BTreeMap<&'static str, u64>,
}

impl ObsDelta {
    /// Total milliseconds spent in spans named `name` (0 when tracing is
    /// off: spans only accumulate at `SEEKER_LOG=summary` or `trace`).
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(_, nanos)| nanos as f64 / 1e6)
    }

    /// Self milliseconds of spans named `name`: their time minus the time
    /// of the spans nested in them (0 unless tracing is on).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_nanos.get(name).map_or(0.0, |&nanos| nanos as f64 / 1e6)
    }

    /// How many spans named `name` closed.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |&(count, _)| count)
    }

    /// How much counter `name` grew.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The growth of each of `names`, in order.
    pub fn counters_of(&self, names: &[&str]) -> Vec<u64> {
        names.iter().map(|n| self.counter(n)).collect()
    }
}

/// Work counters that must repeat exactly when the same inputs are
/// processed again: they count work, not time.
pub const EXACT_COUNTERS: [&str; 5] = [
    "ml.svm.kernel_evals",
    "graph.khop.extractions",
    "phase2.refine.dirty_pairs",
    "core.pairs_evaluated",
    "incremental.ingest.dirty_pairs",
];

/// Checks that every recorded vector of [`EXACT_COUNTERS`] values is
/// identical; returns a description of the first difference.
pub fn exact_repeat(label: &str, runs: &[Vec<u64>]) -> Result<(), String> {
    match runs.iter().position(|r| r != &runs[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{label}: work counters {EXACT_COUNTERS:?} differ between repeats: {:?} vs {:?}",
            runs[0], runs[i]
        )),
    }
}
