//! Metric names, the result a workload returns, and the one-line JSON
//! report. The two tables mirror `BENCHMARK.json`'s `end_to_end` and
//! `per_layer` lists (a test keeps them in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("solve_s", "s"),
    ("adapt_s", "s"),
    ("jobs_per_s", "1/s"),
    ("shard_s", "s"),
    ("recover_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not reach reports 0. `p99_ms` is here rather than end-to-end: on
/// a 2-vCPU host its value on `serve_mixed` follows host CPU steal, so it
/// cannot hold a regression bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_ms", "ms"),
    ("plan.template_s", "s"),
    ("plan.templates", "count"),
    ("plan.bind_s", "s"),
    ("plan.binds", "count"),
    ("plan.ops", "count"),
    ("plan.gates_in", "count"),
    ("backend.energy_s", "s"),
    ("backend.energy_calls", "count"),
    ("driver.self_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("evolve_s", "s"),
    ("evolve.updates", "count"),
    ("evolve.updates_per_s", "1/s"),
    ("evolve.bytes_computed", "B"),
    ("adjoint_s", "s"),
    ("adjoint.calls", "count"),
    ("expval_s", "s"),
    ("expval.terms", "count"),
    ("expval.flip_groups", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p99", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.h2_job_share", "ratio"),
    ("serve.rejected_share", "ratio"),
    ("gen.lag_ms.p99", "ms"),
    ("dist.plan_s", "s"),
    ("dist.run_s", "s"),
    ("dist.readout_s", "s"),
    ("single_node_s", "s"),
    ("dist.speedup_vs_single", "ratio"),
    ("comm.messages", "count"),
    ("comm.bytes", "B"),
    ("comm.exchanges_elided", "count"),
    ("comm.exchanges_fused", "count"),
    ("comm.bytes_saved", "B"),
    ("costmodel.ratio", "ratio"),
    ("snapshot.overhead", "ratio"),
    ("recovery.count", "count"),
    ("recovery.replay_s", "s"),
    ("chem.build_s", "s"),
    ("chem.terms", "count"),
    ("exact.reference_s", "s"),
    ("state.bytes", "B"),
    ("state.l3_ratio", "ratio"),
    ("trace.units", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("telemetry.on_overhead", "ratio"),
];

/// Last-level cache of the reference host (Intel Xeon, 105 MiB L3), the
/// yardstick for `state.l3_ratio`.
pub const L3_BYTES: f64 = 105.0 * 1024.0 * 1024.0;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one operation whose output was checked.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Fills the end-to-end metrics this workload has no native value for,
    /// so every run carries every metric: the time metrics (and `p50_ms`)
    /// repeat the workload's own unit time, and `jobs_per_s` is units per
    /// second at that time.
    pub fn alias_missing(&mut self, unit_s: f64) {
        for name in ["solve_s", "adapt_s", "shard_s", "recover_s"] {
            self.values.entry(name).or_insert(unit_s);
        }
        self.values.entry("p50_ms").or_insert(unit_s * 1e3);
        self.values.entry("jobs_per_s").or_insert(1.0 / unit_s);
    }

    /// The report line: exactly the metrics of `table`, in its order.
    /// Fails when an end-to-end metric is missing or any value is not a
    /// finite number.
    pub fn to_json(&self, table: &[(&str, &str)], all_required: bool) -> Result<String, String> {
        let mut m = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if all_required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` at least `reps` times, and more while the repetitions
/// total under [`SETUP_BUDGET_S`] (so a set-up of microseconds still
/// yields a steady median), and returns the last result with the median
/// set-up time. Each repetition must start cold (the callers clear the
/// process-wide plan cache first) so every repetition measures the same
/// work.
pub fn repeat_setup<T, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while more_setup(&times, reps) {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        // Dropped after the clock stops: tearing down the previous
        // repetition is not set-up work.
        last = Some(value);
    }
    Ok((
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    ))
}

/// Set-up repetitions continue until they have taken this long in total.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Whether another set-up repetition is due, given the times so far.
pub fn more_setup(times: &[f64], reps: usize) -> bool {
    times.len() < reps.max(1)
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must list exactly the metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = nwq_telemetry::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn report_line_lists_every_metric_once() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("p50_ms", 1.25);
        let line = o.to_json(PER_LAYER, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(
            o.to_json(END_TO_END, true).is_err(),
            "missing metrics are an error"
        );
        o.set("setup_s", f64::NAN);
        assert!(o.to_json(END_TO_END, false).is_err());
    }
}
