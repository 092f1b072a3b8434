//! `vqe_h2_pes`: closed-loop H2/STO-3G VQE runs (UCCSD, 4 qubits) at
//! seeded bond lengths, Nelder–Mead from seeded starts near Hartree–Fock,
//! through `run_vqe` and a fresh `DirectBackend` per run. Each energy
//! evaluation is tiny, so plan binding, the post-ansatz cache, the driver
//! and the optimizer dominate.

use super::{backend_layers, run_for, state_size, timed, SETUP_REPS};
use crate::gen::{jitter, stratified, Rng};
use crate::report::{repeat_setup, Outcome};
use crate::stats::{median, tail};
use crate::trace::{replay, Probe};
use crate::Args;
use nwq_chem::sto3g::h2_molecule;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_common::Result;
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::ground_energy_default;
use nwq_core::{run_vqe, VqeProblem};
use nwq_opt::NelderMead;
use nwq_statevec::plan_cache;

/// Distinct bond lengths per seed, stratified over [1.0, 3.0) bohr.
const BONDS: usize = 128;
/// Seeded (bond, start) pairs the closed loop cycles through; more than
/// one run measures, so each run samples the start distribution afresh.
const STARTS: usize = 4096;
/// Runs in the fixed work of a traced run.
const TRACED_RUNS: usize = 128;
const MAX_EVALS: usize = 2000;
/// Tolerance against the exact ground energy at each bond length (Ha).
const TOLERANCE: f64 = 1e-6;

/// The generated inputs: bond lengths and (bond index, x0) starts.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub bonds: Vec<f64>,
    pub starts: Vec<(usize, Vec<f64>)>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let bonds = stratified(&mut rng, BONDS, 1.0, 3.0);
    let starts = (0..STARTS)
        .map(|k| (k % BONDS, jitter(&mut rng, 3, 0.05)))
        .collect();
    Inputs { bonds, starts }
}

struct Setup {
    problems: Vec<VqeProblem>,
    exact: Vec<f64>,
    chem_s: f64,
    exact_s: f64,
    terms: usize,
}

fn setup(inputs: &Inputs) -> Result<Setup> {
    plan_cache::clear();
    let (built, chem_s) = timed(|| -> Result<_> {
        let ansatz = uccsd_ansatz(4, 2)?;
        let mut problems = Vec::with_capacity(inputs.bonds.len());
        for &r in &inputs.bonds {
            let hamiltonian = h2_molecule(r)?.to_qubit_hamiltonian()?;
            problems.push(VqeProblem {
                hamiltonian,
                ansatz: ansatz.clone(),
            });
        }
        let terms: usize = problems.iter().map(|p| p.hamiltonian.num_terms()).sum();
        Ok((problems, terms))
    });
    let (problems, terms) = built?;
    let (exact, exact_s) = timed(|| {
        problems
            .iter()
            .map(|p| ground_energy_default(&p.hamiltonian))
            .collect::<Result<Vec<f64>>>()
    });
    plan_cache::template_for(&problems[0].ansatz)?;
    Ok(Setup {
        problems,
        exact: exact?,
        chem_s,
        exact_s,
        terms: terms / inputs.bonds.len(),
    })
}

fn vqe(s: &Setup, start: &(usize, Vec<f64>), backend: &mut dyn Backend) -> Result<f64> {
    let mut opt = NelderMead::for_vqe();
    Ok(run_vqe(&s.problems[start.0], backend, &mut opt, &start.1, MAX_EVALS)?.energy)
}

fn check(out: &mut Outcome, s: &Setup, start: &(usize, Vec<f64>), e: Result<f64>) {
    let exact = s.exact[start.0];
    out.check(matches!(e, Ok(e) if (e - exact).abs() <= TOLERANCE), || {
        format!("H2 VQE at bond {}: {e:?} vs exact {exact}", start.0)
    });
}

/// The traced pass: one run span per VQE run, one backend span per call.
fn traced(out: &mut Outcome, s: &Setup, starts: &[(usize, Vec<f64>)]) -> Probe {
    let mut probe = Probe::new();
    for start in starts {
        probe.fresh_backend();
        probe.begin_run();
        let e = vqe(s, start, &mut probe);
        probe.end_run();
        check(out, s, start, e);
    }
    probe
}

/// An untraced pass over the fixed traced work: per-run wall times.
fn untraced_pass(s: &Setup, inputs: &Inputs) -> Vec<f64> {
    inputs.starts[..TRACED_RUNS]
        .iter()
        .map(|start| {
            timed(|| std::hint::black_box(vqe(s, start, &mut DirectBackend::new()).ok())).1
        })
        .collect()
}

pub fn run(args: Args) -> Result<Outcome> {
    let inputs = inputs(args.seed);
    let (s, setup_s) = repeat_setup(SETUP_REPS, || setup(&inputs))?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    if !args.trace {
        let mut lat = Vec::new();
        run_for(args.seconds, |k| {
            let start = &inputs.starts[k % STARTS];
            let (e, t) = timed(|| vqe(&s, start, &mut DirectBackend::new()));
            lat.push(t);
            check(&mut out, &s, start, e);
        });
        let ms: Vec<f64> = lat.iter().map(|t| t * 1e3).collect();
        eprintln!("vqe_h2_pes: {} runs", ms.len());
        out.set("p50_ms", median(&ms));
        out.set("solve_s", median(&lat));
        out.alias_missing(median(&lat));
        return Ok(out);
    }

    // Untraced and telemetry-on passes over the same fixed work,
    // alternated so drift hits both sides alike.
    let (mut off, mut on, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let pass = untraced_pass(&s, &inputs);
        off.push(pass.iter().sum::<f64>());
        runs.extend(pass.iter().map(|t| t * 1e3));
        nwq_telemetry::set_enabled(true);
        on.push(untraced_pass(&s, &inputs).iter().sum::<f64>());
        nwq_telemetry::set_enabled(false);
        nwq_telemetry::reset();
    }
    let untraced_s = median(&off);
    out.set("telemetry.on_overhead", median(&on) / untraced_s);
    out.set("p99_ms", tail(&runs).0);

    let (probe, traced_s) = timed(|| traced(&mut out, &s, &inputs.starts[..TRACED_RUNS]));
    let layers = replay(&probe)?;
    backend_layers(&mut out, &probe, &layers, untraced_s, traced_s);
    out.set("trace.units", TRACED_RUNS as f64);
    out.set("chem.build_s", s.chem_s);
    out.set("chem.terms", s.terms as f64);
    out.set("exact.reference_s", s.exact_s);
    state_size(&mut out, 4);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
        let i = inputs(7);
        assert!(i.bonds.iter().all(|&r| (1.0..3.0).contains(&r)));
    }

    /// The per-layer counts of a traced pass repeat exactly for a seed.
    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let inputs = inputs(7);
        let s = setup(&inputs).unwrap();
        let counts = || {
            let mut out = Outcome::default();
            let probe = traced(&mut out, &s, &inputs.starts[..4]);
            let l = replay(&probe).unwrap();
            assert_eq!((out.failed, l.mismatches), (0, 0));
            let calls: Vec<_> = probe
                .calls
                .iter()
                .map(|c| (c.kind, c.params.clone()))
                .collect();
            (
                calls,
                l.templates,
                l.binds,
                l.ops,
                l.gates_in,
                l.updates,
                l.terms,
                l.flip_groups,
            )
        };
        let first = counts();
        assert!(first.2 > 0);
        assert_eq!(first, counts());
    }
}
