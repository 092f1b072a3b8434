//! The five workloads. Each `run` builds its inputs from the seed, sets up
//! (several times, reporting the median), measures for the requested
//! seconds, checks every output, and returns its metrics.

pub mod adapt;
pub mod dist;
pub mod h2;
pub mod serve;
pub mod water;

use crate::report::{Outcome, L3_BYTES};
use crate::trace::{coverage, CallKind, Layers, Probe};
use std::time::Instant;

pub const NAMES: &[&str] = &[
    "vqe_h2_pes",
    "vqe_water10_adjoint",
    "adapt_water10",
    "serve_mixed",
    "dist_24q",
];

/// Fewest set-up repetitions per run (see `report::repeat_setup`);
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Calls `step(k)` for k = 0, 1, … until `seconds` have passed (at least
/// once).
pub fn run_for(seconds: f64, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        step(k);
        k += 1;
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Sets the register-size input properties.
pub fn state_size(out: &mut Outcome, n_qubits: usize) {
    let bytes = 16.0 * (1u64 << n_qubits) as f64;
    out.set("state.bytes", bytes);
    out.set("state.l3_ratio", bytes / L3_BYTES);
}

/// Per-layer metrics of a backend-driven workload: the traced pass's
/// backend spans and run self time, and the replay's layer spans and
/// counts. `untraced_s`/`traced_s` time the same fixed work without and
/// with tracing.
pub fn backend_layers(
    out: &mut Outcome,
    probe: &Probe,
    layers: &Layers,
    untraced_s: f64,
    traced_s: f64,
) {
    let backend_s = probe.trace.total("backend.energy");
    let energy_calls = probe
        .calls
        .iter()
        .filter(|c| matches!(c.kind, CallKind::Energy { .. }))
        .count();
    let hits = probe
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Energy { hit: true })
        .count();
    let calls: usize = probe.calls.iter().map(|c| c.params.len()).sum();
    let t = &layers.trace;
    let evolve_s = t.total("evolve");
    out.set("backend.energy_s", backend_s);
    out.set("backend.energy_calls", calls as f64);
    out.set("driver.self_s", probe.trace.self_total("run"));
    out.set(
        "cache.hit_rate",
        if energy_calls > 0 {
            hits as f64 / energy_calls as f64
        } else {
            0.0
        },
    );
    out.set("plan.template_s", t.total("plan.template"));
    out.set("plan.templates", layers.templates as f64);
    out.set("plan.bind_s", t.total("plan.bind"));
    out.set("plan.binds", layers.binds as f64);
    out.set("plan.ops", layers.ops as f64);
    out.set("plan.gates_in", layers.gates_in as f64);
    out.set("evolve_s", evolve_s);
    out.set("evolve.updates", layers.updates as f64);
    out.set(
        "evolve.updates_per_s",
        if evolve_s > 0.0 {
            layers.updates as f64 / evolve_s
        } else {
            0.0
        },
    );
    // Computed, not measured: one 16-byte amplitude read and written per
    // amplitude update.
    out.set("evolve.bytes_computed", layers.updates as f64 * 32.0);
    out.set("adjoint_s", t.total("adjoint"));
    out.set("adjoint.calls", layers.adjoint_calls as f64);
    out.set("expval_s", t.total("expval"));
    out.set("expval.terms", layers.terms as f64);
    out.set("expval.flip_groups", layers.flip_groups as f64);
    out.set("trace.coverage", coverage(layers.layer_s(), backend_s));
    out.set("trace.overhead", traced_s / untraced_s);
    out.check(layers.mismatches == 0, || {
        format!(
            "{} replayed energies differ from the recorded calls",
            layers.mismatches
        )
    });
}
