//! `vqe_water10_adjoint`: L-BFGS VQE on `water_model(5, 4)` (10 qubits,
//! UCCSD) with adjoint gradients through `run_vqe_grad`, from seeded
//! jitters around Hartree–Fock. The 16 KiB state fits in cache, so kernel
//! sweeps — forward evolution and the adjoint backward walk — dominate.

use super::{backend_layers, run_for, state_size, timed, SETUP_REPS};
use crate::gen::{jitter, Rng};
use crate::report::{repeat_setup, Outcome};
use crate::stats::median;
use crate::trace::{replay, Probe};
use crate::Args;
use nwq_chem::molecules::water_model;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_common::Result;
use nwq_core::backend::{DirectBackend, GradientBackend};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_core::{run_vqe_grad, GradSource, VqeProblem};
use nwq_opt::Lbfgs;
use nwq_statevec::plan_cache;

const ORBITALS: usize = 5;
const ELECTRONS: usize = 4;
/// Seeded starting points the solves cycle through.
const STARTS: usize = 16;
/// Per-parameter jitter around θ = 0 (radians). Small enough that every
/// start takes the same L-BFGS path length, so solves are comparable
/// across seeds.
const JITTER: f64 = 1e-3;
const MAX_EVALS: usize = 4000;
/// L-BFGS stops when the gradient ∞-norm falls below this.
const G_TOL: f64 = 1e-5;
/// Tolerance against the Lanczos reference (Ha).
const TOLERANCE: f64 = 1.6e-3;

pub fn inputs(seed: u64, n_params: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 2);
    (0..STARTS)
        .map(|_| jitter(&mut rng, n_params, JITTER))
        .collect()
}

struct Setup {
    problem: VqeProblem,
    exact: f64,
    chem_s: f64,
    exact_s: f64,
}

fn setup() -> Result<Setup> {
    plan_cache::clear();
    let (built, chem_s) = timed(|| -> Result<_> {
        let hamiltonian = water_model(ORBITALS, ELECTRONS).to_qubit_hamiltonian()?;
        let ansatz = uccsd_ansatz(hamiltonian.n_qubits(), ELECTRONS)?;
        Ok(VqeProblem {
            hamiltonian,
            ansatz,
        })
    });
    let problem = built?;
    let (exact, exact_s) = timed(|| {
        ground_energy_sector_default(&problem.hamiltonian, Sector::closed_shell(ELECTRONS))
    });
    plan_cache::adjoint_for(&problem.ansatz)?;
    Ok(Setup {
        problem,
        exact: exact?,
        chem_s,
        exact_s,
    })
}

fn solve(s: &Setup, x0: &[f64], backend: &mut dyn GradientBackend) -> Result<f64> {
    let mut opt = Lbfgs {
        g_tol: G_TOL,
        ..Lbfgs::default()
    };
    let r = run_vqe_grad(
        &s.problem,
        backend,
        &mut opt,
        GradSource::Adjoint,
        x0,
        MAX_EVALS,
    )?;
    Ok(r.energy)
}

fn check(out: &mut Outcome, s: &Setup, e: Result<f64>) {
    out.check(
        matches!(e, Ok(e) if (e - s.exact).abs() <= TOLERANCE),
        || format!("water10 L-BFGS solve: {e:?} vs Lanczos {}", s.exact),
    );
}

pub fn run(args: Args) -> Result<Outcome> {
    let (s, setup_s) = repeat_setup(SETUP_REPS, setup)?;
    let starts = inputs(args.seed, s.problem.ansatz.n_params());
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    if !args.trace {
        let mut solves = Vec::new();
        run_for(args.seconds, |k| {
            let (e, t) = timed(|| solve(&s, &starts[k % STARTS], &mut DirectBackend::new()));
            solves.push(t);
            check(&mut out, &s, e);
        });
        eprintln!("vqe_water10_adjoint: {} solves", solves.len());
        out.set("solve_s", median(&solves));
        out.alias_missing(median(&solves));
        return Ok(out);
    }

    let (e, untraced_s) = timed(|| solve(&s, &starts[0], &mut DirectBackend::new()));
    check(&mut out, &s, e);
    let mut probe = Probe::new();
    probe.begin_run();
    let (e, traced_s) = timed(|| solve(&s, &starts[0], &mut probe));
    probe.end_run();
    check(&mut out, &s, e);
    let layers = replay(&probe)?;
    backend_layers(&mut out, &probe, &layers, untraced_s, traced_s);
    out.set("trace.units", 1.0);
    out.set("chem.build_s", s.chem_s);
    out.set("chem.terms", s.problem.hamiltonian.num_terms() as f64);
    out.set("exact.reference_s", s.exact_s);
    state_size(&mut out, s.problem.ansatz.n_qubits());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(3, 54), inputs(3, 54));
        assert_ne!(inputs(3, 54), inputs(4, 54));
    }
}
