//! Process-wide telemetry: hierarchical span timers, atomic counters, and
//! per-iteration optimizer records, exported as a stable JSON document.
//!
//! The registry is a process-wide singleton that is **disabled by default**:
//! every recording call starts with one relaxed atomic load and a branch, so
//! instrumented hot paths (per-gate counters in the statevector kernels) are
//! effectively free unless a sink is installed with [`set_enabled`].
//! A [`capture`] scope gives one thread a private recorder instead, so
//! concurrent callers (tests in one binary) each see exactly their own
//! records.
//!
//! Layout of the exported document (see [`Snapshot::to_json`]):
//!
//! ```json
//! {
//!   "run": { "command": "vqe", "molecule": "h2", ... },
//!   "spans": [ { "path": "vqe/iteration", "count": 12,
//!                "total_ms": 3.4, "min_ms": 0.1, "max_ms": 0.9 } ],
//!   "counters": { "statevec.gates_1q": 420, "dist.modeled_time_s": 0.0012 },
//!   "iterations": [ { "i": 0, "energy": -1.1, "grad_norm": 0.3,
//!                     "evaluations": 5, "gates": 120, "wall_ms": 1.2 } ],
//!   "histograms": { "serve.latency_ms": { "count": 120, "mean": 4.2,
//!                   "min": 0.4, "max": 39.0, "p50": 3.1, "p95": 12.0,
//!                   "p99": 31.0 } }
//! }
//! ```
//!
//! Only `std` and `parking_lot` are used; JSON is serialized by hand so the
//! crate stays dependency-light and the schema stays under our control.

mod histogram;
mod json;

pub use histogram::Histogram;
pub use json::{JsonValue, Object, ParseError};

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// A counter cell: monotonically accumulated integer or float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CounterValue {
    /// Integer counter (event counts, byte totals).
    Int(u64),
    /// Float accumulator (modeled times, fractional quantities).
    Float(f64),
}

/// Aggregated timing for one span path.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total time across completions, in nanoseconds.
    pub total_ns: u128,
    /// Shortest single completion, in nanoseconds.
    pub min_ns: u128,
    /// Longest single completion, in nanoseconds.
    pub max_ns: u128,
}

/// One optimizer iteration as recorded by the VQE / ADAPT drivers.
#[derive(Clone, Debug, Default)]
pub struct IterationRecord {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Best energy known at the end of the iteration (Hartree).
    pub energy: f64,
    /// Gradient norm, when the driver computes one (ADAPT screening).
    pub grad_norm: Option<f64>,
    /// Objective evaluations consumed by the iteration.
    pub evaluations: u64,
    /// Gates in the ansatz at the end of the iteration.
    pub gates: u64,
    /// Wall-clock time of the iteration in milliseconds.
    pub wall_ms: f64,
    /// Free-form label (ADAPT: operator chosen this round).
    pub label: Option<String>,
}

/// Bit 0: recording is on process-wide. The rest counts, in steps of
/// [`ONE_CAPTURE`], the [`capture`] scopes open on any thread. One word, so
/// the off path stays a single load.
static STATE: AtomicUsize = AtomicUsize::new(0);
const ENABLED_BIT: usize = 1;
const ONE_CAPTURE: usize = 2;
static SPAN_HISTOGRAMS: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Snapshot> {
    static REGISTRY: Mutex<Snapshot> = Mutex::new(Snapshot {
        run: BTreeMap::new(),
        spans: BTreeMap::new(),
        counters: BTreeMap::new(),
        iterations: Vec::new(),
        histograms: BTreeMap::new(),
    });
    &REGISTRY
}

thread_local! {
    static SPAN_PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// The innermost [`capture`] scope open on this thread.
    static CAPTURE: RefCell<Option<Snapshot>> = const { RefCell::new(None) };
}

/// Applies `f` to the recorder this thread writes to: its innermost
/// [`capture`] scope, else the process-wide registry. Callers check
/// [`enabled`] first.
fn with_recorder(f: impl FnOnce(&mut Snapshot)) {
    let mut f = Some(f);
    if STATE.load(Ordering::Relaxed) >= ONE_CAPTURE {
        CAPTURE.with_borrow_mut(|scope| {
            if let Some(scope) = scope {
                (f.take().unwrap())(scope);
            }
        });
    }
    if let Some(f) = f {
        f(&mut registry().lock());
    }
}

/// Turns recording on or off process-wide. Off (the default) reduces every
/// recording call to a relaxed load and a branch.
pub fn set_enabled(on: bool) {
    if on {
        STATE.fetch_or(ENABLED_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!ENABLED_BIT, Ordering::Relaxed);
    }
}

/// Whether a recording call on this thread is kept: recording is on
/// process-wide, or this thread is inside a [`capture`] scope.
#[inline]
pub fn enabled() -> bool {
    let state = STATE.load(Ordering::Relaxed);
    state & ENABLED_BIT != 0 || (state >= ONE_CAPTURE && CAPTURE.with_borrow(Option::is_some))
}

/// Restores the enclosing scope when a [`capture`] ends, also on unwind.
struct CaptureGuard {
    outer: Option<Option<Snapshot>>,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if let Some(outer) = self.outer.take() {
            CAPTURE.set(outer);
        }
        STATE.fetch_sub(ONE_CAPTURE, Ordering::Relaxed);
    }
}

/// Runs `f` with a private recorder on the calling thread and returns its
/// result together with everything it recorded on this thread.
///
/// Inside the scope this thread records whether or not [`set_enabled`] is
/// on, and its records go only to the scope: other threads, the
/// process-wide registry and [`reset`] neither see nor disturb them, so
/// concurrent tests can each assert on exact counts. Threads that `f`
/// spawns are not captured. Scopes nest; the innermost one records.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    STATE.fetch_add(ONE_CAPTURE, Ordering::Relaxed);
    let mut guard = CaptureGuard {
        outer: Some(CAPTURE.replace(Some(Snapshot::default()))),
    };
    let r = f();
    let outer = guard.outer.take().unwrap();
    let captured = CAPTURE.replace(outer).unwrap_or_default();
    drop(guard);
    (r, captured)
}

/// Attaches a key/value pair to the run header of the export.
pub fn set_run_info(key: impl Into<String>, value: impl Into<String>) {
    if !enabled() {
        return;
    }
    let (key, value) = (key.into(), value.into());
    with_recorder(|reg| {
        reg.run.insert(key, value);
    });
}

/// Adds `delta` to the integer counter `name`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|reg| {
        match reg
            .counters
            .entry(name.to_string())
            .or_insert(CounterValue::Int(0))
        {
            CounterValue::Int(v) => *v += delta,
            CounterValue::Float(v) => *v += delta as f64,
        }
    });
}

/// Adds `delta` to the float accumulator `name`.
#[inline]
pub fn value_add(name: &'static str, delta: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|reg| {
        match reg
            .counters
            .entry(name.to_string())
            .or_insert(CounterValue::Float(0.0))
        {
            CounterValue::Int(v) => *v += delta as u64,
            CounterValue::Float(v) => *v += delta,
        }
    });
}

/// Overwrites the float gauge `name` with `value` (last write wins). Use for
/// derived ratios such as cache hit-rates where accumulation is meaningless.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|reg| {
        reg.counters
            .insert(name.to_string(), CounterValue::Float(value));
    });
}

/// Records one sample into the histogram `name` (creating it on first
/// use). Histograms aggregate latency-style quantities into fixed
/// log-buckets; the export carries p50/p95/p99 summaries.
pub fn histogram_record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|reg| {
        reg.histograms
            .entry(name.to_string())
            .or_default()
            .record(value)
    });
}

/// Reads a copy of the histogram `name`, if it has recorded anything.
pub fn histogram_snapshot(name: &str) -> Option<Histogram> {
    registry().lock().histograms.get(name).cloned()
}

/// When enabled, every completed [`span`] additionally records its elapsed
/// milliseconds into a histogram named `span.<path>`, making tail latency
/// (not just min/mean/max) visible for any instrumented section.
pub fn set_span_histograms(on: bool) {
    SPAN_HISTOGRAMS.store(on, Ordering::Relaxed);
}

/// Records one optimizer iteration.
pub fn record_iteration(record: IterationRecord) {
    if !enabled() {
        return;
    }
    with_recorder(|reg| reg.iterations.push(record));
}

/// RAII timer for one section; see [`span`].
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under any span currently open on this
/// thread: dropping the guard records the elapsed time under the
/// slash-joined path (e.g. `"vqe/iteration/energy"`). When telemetry is
/// disabled the guard is inert and costs one atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    SPAN_PATH.with(|p| p.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos();
        let path = SPAN_PATH.with(|p| {
            let mut stack = p.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let span_histograms = SPAN_HISTOGRAMS.load(Ordering::Relaxed);
        with_recorder(|reg| {
            if span_histograms {
                reg.histograms
                    .entry(format!("span.{path}"))
                    .or_default()
                    .record(elapsed as f64 / 1e6);
            }
            let s = reg.spans.entry(path).or_default();
            s.count += 1;
            s.total_ns += elapsed;
            s.min_ns = if s.count == 1 {
                elapsed
            } else {
                s.min_ns.min(elapsed)
            };
            s.max_ns = s.max_ns.max(elapsed);
        });
    }
}

/// Opens a [`span`] guard bound to a local: `let _s = span!("vqe.iteration");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Immutable copy of the registry contents at one moment.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Run header key/value pairs.
    pub run: BTreeMap<String, String>,
    /// Aggregated spans keyed by slash-joined path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Counters and float accumulators.
    pub counters: BTreeMap<String, CounterValue>,
    /// Optimizer iterations in recording order.
    pub iterations: Vec<IterationRecord>,
    /// Log-bucket histograms keyed by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies the current registry contents.
pub fn snapshot() -> Snapshot {
    registry().lock().clone()
}

/// Clears all recorded data (the enabled flag is left as-is).
pub fn reset() {
    let mut reg = registry().lock();
    reg.run.clear();
    reg.spans.clear();
    reg.counters.clear();
    reg.iterations.clear();
    reg.histograms.clear();
}

/// Convenience: reads a counter's integer value (0 when absent or float).
pub fn counter_value(name: &str) -> u64 {
    registry().lock().counter(name)
}

impl Snapshot {
    /// Reads the integer counter `name` (0 when absent or float).
    pub fn counter(&self, name: &str) -> u64 {
        match self.counters.get(name) {
            Some(CounterValue::Int(v)) => *v,
            _ => 0,
        }
    }

    /// Serializes to the stable JSON schema described at the crate root.
    pub fn to_json(&self) -> String {
        let mut root = json::Object::new();
        let mut run = json::Object::new();
        for (k, v) in &self.run {
            run.push(k, JsonValue::Str(v.clone()));
        }
        root.push("run", run.into_value());

        let mut spans = Vec::new();
        for (path, s) in &self.spans {
            let mut o = json::Object::new();
            o.push("path", JsonValue::Str(path.clone()));
            o.push("count", JsonValue::Int(s.count));
            o.push("total_ms", JsonValue::Float(s.total_ns as f64 / 1e6));
            o.push("min_ms", JsonValue::Float(s.min_ns as f64 / 1e6));
            o.push("max_ms", JsonValue::Float(s.max_ns as f64 / 1e6));
            spans.push(o.into_value());
        }
        root.push("spans", JsonValue::Array(spans));

        let mut counters = json::Object::new();
        for (name, v) in &self.counters {
            let jv = match v {
                CounterValue::Int(i) => JsonValue::Int(*i),
                CounterValue::Float(f) => JsonValue::Float(*f),
            };
            counters.push(name, jv);
        }
        root.push("counters", counters.into_value());

        let mut iterations = Vec::new();
        for it in &self.iterations {
            let mut o = json::Object::new();
            o.push("i", JsonValue::Int(it.iteration as u64));
            o.push("energy", JsonValue::Float(it.energy));
            o.push(
                "grad_norm",
                it.grad_norm
                    .map(JsonValue::Float)
                    .unwrap_or(JsonValue::Null),
            );
            o.push("evaluations", JsonValue::Int(it.evaluations));
            o.push("gates", JsonValue::Int(it.gates));
            o.push("wall_ms", JsonValue::Float(it.wall_ms));
            if let Some(label) = &it.label {
                o.push("label", JsonValue::Str(label.clone()));
            }
            iterations.push(o.into_value());
        }
        root.push("iterations", JsonValue::Array(iterations));

        let mut histograms = json::Object::new();
        for (name, h) in &self.histograms {
            histograms.push(name, h.summary_json());
        }
        root.push("histograms", histograms.into_value());

        root.into_value().render()
    }

    /// Writes the JSON document to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests record inside their own
    // `capture` scope and assert on what it returns.
    fn with_telemetry(f: impl FnOnce()) -> Snapshot {
        capture(f).1
    }

    #[test]
    fn disabled_records_nothing() {
        set_enabled(false);
        counter_add("test.disabled", 5);
        let _g = span("test.disabled.span");
        drop(_g);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("test.disabled"));
        assert!(!snap.spans.contains_key("test.disabled.span"));
    }

    #[test]
    fn counters_accumulate() {
        let snap = with_telemetry(|| {
            counter_add("test.counters.a", 2);
            counter_add("test.counters.a", 3);
            value_add("test.counters.f", 0.5);
            value_add("test.counters.f", 0.25);
        });
        assert_eq!(snap.counters["test.counters.a"], CounterValue::Int(5));
        assert_eq!(snap.counters["test.counters.f"], CounterValue::Float(0.75));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let snap = with_telemetry(|| {
            for _ in 0..3 {
                let _outer = span("test_outer");
                let _inner = span("test_inner");
            }
        });
        assert_eq!(snap.spans["test_outer"].count, 3);
        let nested = &snap.spans["test_outer/test_inner"];
        assert_eq!(nested.count, 3);
        assert!(nested.total_ns >= nested.min_ns * 3 / 2);
        assert!(nested.min_ns <= nested.max_ns);
    }

    #[test]
    fn gauges_overwrite_instead_of_accumulating() {
        let snap = with_telemetry(|| {
            gauge_set("test.gauge.rate", 0.25);
            gauge_set("test.gauge.rate", 0.75);
        });
        assert_eq!(snap.counters["test.gauge.rate"], CounterValue::Float(0.75));
        set_enabled(false);
        gauge_set("test.gauge.disabled", 1.0);
        assert!(!snapshot().counters.contains_key("test.gauge.disabled"));
    }

    #[test]
    fn iteration_records_roundtrip() {
        let snap = with_telemetry(|| {
            record_iteration(IterationRecord {
                iteration: 0,
                energy: -1.25,
                grad_norm: Some(0.5),
                evaluations: 7,
                gates: 42,
                wall_ms: 1.5,
                label: Some("op_3".into()),
            });
        });
        let it = snap.iterations.iter().find(|i| i.gates == 42).unwrap();
        assert_eq!(it.energy, -1.25);
        assert_eq!(it.label.as_deref(), Some("op_3"));
    }

    #[test]
    fn json_has_stable_top_level_shape() {
        let doc = with_telemetry(|| {
            set_run_info("command", "test \"quoted\"");
            counter_add("test.json.count", 1);
        })
        .to_json();
        assert!(doc.starts_with('{'));
        for key in [
            "\"run\"",
            "\"spans\"",
            "\"counters\"",
            "\"iterations\"",
            "\"histograms\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(doc.contains("test \\\"quoted\\\""));
    }

    #[test]
    fn histogram_registry_records_and_exports() {
        let snap = with_telemetry(|| {
            for i in 1..=100 {
                histogram_record("test.hist.latency", i as f64);
            }
        });
        let h = &snap.histograms["test.hist.latency"];
        assert_eq!(h.count(), 100);
        assert!(h.p99().unwrap() >= h.p50().unwrap());
        let doc = snap.to_json();
        assert!(doc.contains("\"test.hist.latency\""), "{doc}");
        // Disabled: nothing recorded.
        set_enabled(false);
        histogram_record("test.hist.disabled", 1.0);
        assert!(histogram_snapshot("test.hist.disabled").is_none());
    }

    #[test]
    fn span_timers_feed_histograms_when_opted_in() {
        let snap = with_telemetry(|| {
            set_span_histograms(true);
            for _ in 0..5 {
                let _g = span("test_span_hist");
            }
            set_span_histograms(false);
            let _g = span("test_span_hist_off");
        });
        let h = &snap.histograms["span.test_span_hist"];
        assert_eq!(h.count(), 5);
        assert!(h.p95().unwrap() >= 0.0);
        assert!(!snap.histograms.contains_key("span.test_span_hist_off"));
        // The plain span aggregate still recorded both.
        assert_eq!(snap.spans["test_span_hist"].count, 5);
        assert_eq!(snap.spans["test_span_hist_off"].count, 1);
    }

    #[test]
    fn capture_scopes_nest_and_ignore_other_threads() {
        let (inner, outer) = capture(|| {
            counter_add("test.capture.outer", 1);
            let (_, inner) = capture(|| counter_add("test.capture.inner", 1));
            std::thread::spawn(|| counter_add("test.capture.spawned", 1))
                .join()
                .unwrap();
            counter_add("test.capture.outer", 1);
            inner
        });
        assert_eq!(outer.counter("test.capture.outer"), 2);
        assert_eq!(outer.counter("test.capture.inner"), 0);
        assert_eq!(outer.counter("test.capture.spawned"), 0);
        assert_eq!(inner.counter("test.capture.inner"), 1);
        assert_eq!(inner.counter("test.capture.outer"), 0);
        assert!(!enabled(), "recording stays off outside the scope");
    }
}
