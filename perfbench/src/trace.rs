//! Benchmark-side tracing. Spans are recorded around calls into each
//! crate's public functions from this package — nothing inside the
//! program is instrumented — and stay in memory until the run ends.
//!
//! For the backend-driven workloads, [`Probe`] wraps a `DirectBackend`
//! and records one span per `energy`, `energy_batch` or
//! `energy_and_gradient` call together with its inputs and cache-stats
//! delta; [`replay`] then re-executes every recorded call through the
//! public statevec layers (`plan_cache::template_for`,
//! `PlanTemplate::bind`, `Executor::run_plan`,
//! `expval::energy_direct_batched`, `adjoint::energy_and_gradient`),
//! one span per layer call.

use nwq_circuit::Circuit;
use nwq_common::Result;
use nwq_core::backend::{Backend, BackendStats, DirectBackend, GradientBackend};
use nwq_pauli::PauliOp;
use nwq_statevec::executor::Executor;
use nwq_statevec::{adjoint, expval, plan_cache, StateVector};
use std::time::Instant;

/// One timed interval, in seconds since the trace's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span store.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            parent,
            start: t,
            end: t,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent);
        let out = f();
        self.close(s);
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed self time (duration minus the part its children cover) of
    /// every span called `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time((s.start, s.end), &children[i]))
            .fold(0.0, |a, b| a + b)
    }
}

/// A span's self time: its duration minus the length of the union of its
/// children's intervals, clipped to the span. Overlapping children are
/// counted once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.0), b.min(span.1)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.1 - span.0) - covered
}

/// Share of `parent_s` that the replayed layers account for. Below 1 the
/// remainder is backend work no layer call explains; above 1 the replay
/// ran slower than the original calls.
pub fn coverage(layers_s: f64, parent_s: f64) -> f64 {
    if parent_s > 0.0 {
        layers_s / parent_s
    } else {
        0.0
    }
}

/// What a backend call was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CallKind {
    /// `energy`; `hit` when the post-ansatz cache answered it.
    Energy { hit: bool },
    /// `energy_batch`, one entry per parameter set.
    Batch,
    /// `energy_and_gradient`.
    Gradient,
}

/// One recorded backend call.
#[derive(Clone, Debug)]
pub struct Call {
    pub kind: CallKind,
    pub circuit: usize,
    pub observable: usize,
    pub params: Vec<Vec<f64>>,
    pub energies: Vec<f64>,
}

/// A `DirectBackend` decorator that records a span per call, parented to
/// the open run span, with the call's inputs and cache-stats delta for
/// [`replay`].
pub struct Probe {
    inner: DirectBackend,
    pub trace: Trace,
    pub run: Option<usize>,
    pub calls: Vec<Call>,
    pub circuits: Vec<Circuit>,
    pub observables: Vec<PauliOp>,
    last_circuit: Option<(usize, usize, usize)>,
    observable_addrs: Vec<usize>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            inner: DirectBackend::new(),
            trace: Trace::default(),
            run: None,
            calls: Vec::new(),
            circuits: Vec::new(),
            observables: Vec::new(),
            last_circuit: None,
            observable_addrs: Vec::new(),
        }
    }

    /// Replaces the wrapped backend with a fresh one (a new caller), keeping
    /// everything recorded so far.
    pub fn fresh_backend(&mut self) {
        self.inner = DirectBackend::new();
    }

    /// Opens a run span; backend calls until [`Probe::end_run`] are its
    /// children.
    pub fn begin_run(&mut self) {
        self.run = Some(self.trace.open("run", None));
    }

    pub fn end_run(&mut self) {
        if let Some(r) = self.run.take() {
            self.trace.close(r);
        }
    }

    /// Interns `c`. Consecutive calls almost always pass the same circuit
    /// object, so the same address, length and last gate skip the full
    /// comparison; an ansatz that grows in place (ADAPT) changes length.
    fn circuit_index(&mut self, c: &Circuit) -> usize {
        let key = (c as *const Circuit as usize, c.len());
        if let Some((addr, len, idx)) = self.last_circuit {
            if (addr, len) == key && self.circuits[idx].gates().last() == c.gates().last() {
                return idx;
            }
        }
        let idx = match self.circuits.iter().position(|k| k == c) {
            Some(i) => i,
            None => {
                self.circuits.push(c.clone());
                self.circuits.len() - 1
            }
        };
        self.last_circuit = Some((key.0, key.1, idx));
        idx
    }

    /// Interns `h` by address: every observable a workload passes is owned
    /// by its set-up and outlives the traced pass.
    fn observable_index(&mut self, h: &PauliOp) -> usize {
        let addr = h as *const PauliOp as usize;
        if let Some(i) = self.observable_addrs.iter().position(|&a| a == addr) {
            return i;
        }
        self.observable_addrs.push(addr);
        self.observables.push(h.clone());
        self.observables.len() - 1
    }

    /// Runs one call into the wrapped backend inside a backend span.
    fn span<T>(&mut self, f: impl FnOnce(&mut DirectBackend) -> T) -> T {
        let span = self.trace.open("backend.energy", self.run);
        let out = f(&mut self.inner);
        self.trace.close(span);
        out
    }

    fn record(
        &mut self,
        kind: CallKind,
        c: &Circuit,
        h: &PauliOp,
        params: Vec<Vec<f64>>,
        energies: Vec<f64>,
    ) {
        let circuit = self.circuit_index(c);
        let observable = self.observable_index(h);
        self.calls.push(Call {
            kind,
            circuit,
            observable,
            params,
            energies,
        });
    }
}

impl Backend for Probe {
    fn energy(&mut self, ansatz: &Circuit, params: &[f64], observable: &PauliOp) -> Result<f64> {
        let hits = self.inner.cache_stats().hits;
        let e = self.span(|b| b.energy(ansatz, params, observable))?;
        let kind = CallKind::Energy {
            hit: self.inner.cache_stats().hits > hits,
        };
        self.record(kind, ansatz, observable, vec![params.to_vec()], vec![e]);
        Ok(e)
    }

    fn energy_batch(
        &mut self,
        ansatz: &Circuit,
        param_sets: &[Vec<f64>],
        observable: &PauliOp,
    ) -> Result<Vec<f64>> {
        let es = self.span(|b| b.energy_batch(ansatz, param_sets, observable))?;
        let sets = param_sets.to_vec();
        self.record(CallKind::Batch, ansatz, observable, sets, es.clone());
        Ok(es)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn invalidate_cache(&mut self) {
        self.inner.invalidate_cache();
    }
}

impl GradientBackend for Probe {
    fn energy_and_gradient(
        &mut self,
        ansatz: &Circuit,
        params: &[f64],
        observable: &PauliOp,
    ) -> Result<(f64, Vec<f64>)> {
        let (e, g) = self.span(|b| b.energy_and_gradient(ansatz, params, observable))?;
        let kind = CallKind::Gradient;
        self.record(kind, ansatz, observable, vec![params.to_vec()], vec![e]);
        Ok((e, g))
    }

    fn as_backend(&mut self) -> &mut dyn Backend {
        self
    }
}

/// Layer totals of a replay.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace: Trace,
    pub templates: u64,
    pub binds: u64,
    pub ops: u64,
    pub gates_in: u64,
    pub updates: u64,
    pub adjoint_calls: u64,
    pub expval_calls: u64,
    pub terms: u64,
    pub flip_groups: u64,
    /// Replayed energies that differ (bitwise) from the recorded call.
    pub mismatches: u64,
}

impl Layers {
    /// Summed time of every replayed layer call.
    pub fn layer_s(&self) -> f64 {
        ["plan.template", "plan.bind", "evolve", "expval", "adjoint"]
            .iter()
            .map(|n| self.trace.total(n))
            .fold(0.0, |a, b| a + b)
    }
}

/// Re-executes every recorded call through the public statevec layers,
/// one span per layer call. A cache hit replays only the readout, on the
/// state of the preceding miss, as `DirectBackend` does.
pub fn replay(probe: &Probe) -> Result<Layers> {
    let mut out = Layers::default();
    let groups: Vec<u64> = probe
        .observables
        .iter()
        .map(|h| expval::flip_groups(h).len() as u64)
        .collect();
    let mut used = vec![false; probe.circuits.len()];
    let mut executor = Executor::new();
    let mut last: Option<StateVector> = None;
    for call in &probe.calls {
        let c = &probe.circuits[call.circuit];
        let h = &probe.observables[call.observable];
        used[call.circuit] = true;
        for (params, &recorded) in call.params.iter().zip(&call.energies) {
            let t = &mut out.trace;
            let e = match call.kind {
                CallKind::Gradient => {
                    out.adjoint_calls += 1;
                    t.time("adjoint", None, || {
                        adjoint::energy_and_gradient(c, params, h)
                    })?
                    .energy
                }
                CallKind::Energy { hit: true } if last.is_some() => {
                    let state = last.as_ref().expect("checked by the guard");
                    t.time("expval", None, || expval::energy_direct_batched(state, h))?
                }
                _ => {
                    let template = t.time("plan.template", None, || plan_cache::template_for(c))?;
                    let plan = t.time("plan.bind", None, || template.bind(params))?;
                    let state = t.time("evolve", None, || executor.run_plan(&plan))?;
                    let e = t.time("expval", None, || expval::energy_direct_batched(&state, h))?;
                    out.binds += 1;
                    out.ops += plan.len() as u64;
                    out.gates_in += template.gates_in() as u64;
                    out.updates += plan.len() as u64 * state.len() as u64;
                    last = Some(state);
                    e
                }
            };
            if !matches!(call.kind, CallKind::Gradient) {
                out.expval_calls += 1;
                out.terms += h.num_terms() as u64;
                out.flip_groups += groups[call.observable];
            }
            if e.to_bits() != recorded.to_bits() {
                out.mismatches += 1;
            }
        }
    }
    out.templates = used.iter().filter(|&&u| u).count() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping children [1,3] and [2,5] cover [1,5]; [8,12] is
        // clipped to the parent's end at 10.
        let children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)];
        assert_eq!(self_time((0.0, 10.0), &children), 4.0);
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 20.0)]), 0.0);
    }

    #[test]
    fn self_totals_follow_parent_links() {
        let mut t = Trace::default();
        let span = |name, parent, start, end| Span {
            name,
            parent,
            start,
            end,
        };
        t.spans = vec![
            span("run", None, 0.0, 10.0),
            span("backend.energy", Some(0), 1.0, 4.0),
            span("backend.energy", Some(0), 5.0, 9.0),
            span("run", None, 20.0, 22.0),
            span("backend.energy", Some(3), 20.5, 21.0),
        ];
        assert_eq!(t.total("backend.energy"), 7.5);
        assert_eq!(t.self_total("run"), 3.0 + 1.5);
        assert_eq!(coverage(6.0, t.total("backend.energy")), 0.8);
        assert_eq!(coverage(1.0, 0.0), 0.0);
    }

    #[test]
    fn replay_reproduces_recorded_energies_and_counts() {
        let mut c = Circuit::new(2);
        c.ry(0, nwq_circuit::ParamExpr::var(0)).cx(0, 1);
        let h = PauliOp::parse("0.5 ZZ + 0.25 XI").unwrap();
        let mut p = Probe::new();
        p.begin_run();
        p.energy(&c, &[0.3], &h).unwrap();
        p.energy(&c, &[0.3], &h).unwrap();
        p.energy_and_gradient(&c, &[0.4], &h).unwrap();
        p.end_run();
        assert_eq!(p.calls.len(), 3);
        assert_eq!(p.calls[1].kind, CallKind::Energy { hit: true });
        assert_eq!(p.circuits.len(), 1);
        let layers = replay(&p).unwrap();
        assert_eq!(layers.mismatches, 0);
        assert_eq!(
            (layers.binds, layers.expval_calls, layers.adjoint_calls),
            (1, 2, 1)
        );
        assert_eq!(layers.templates, 1);
        assert!(layers.layer_s() > 0.0);
        assert!(p.trace.self_total("run") >= 0.0);
    }
}
