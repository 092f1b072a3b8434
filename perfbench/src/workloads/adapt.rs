//! `adapt_water10`: ADAPT-VQE (the paper's Fig 5 algorithm) on
//! `water_model(5, 6)` — 10 qubits, a singles/doubles pool — with a
//! Nelder–Mead inner loop, run until within 1 mHa of the Lanczos
//! reference. Ansätze are short and the Hamiltonian has many terms, so
//! expectation sweeps dominate, and every iteration compiles a new plan
//! template. ADAPT has no random input: the seed changes nothing here.

use super::{backend_layers, run_for, state_size, timed, SETUP_REPS};
use crate::report::{repeat_setup, Outcome};
use crate::stats::median;
use crate::trace::{replay, Probe};
use crate::Args;
use nwq_chem::molecules::water_model;
use nwq_chem::pool::OperatorPool;
use nwq_common::Result;
use nwq_core::adapt::{run_adapt_vqe, AdaptConfig, AdaptResult, StopReason};
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::exact::{ground_energy_sector_default, Sector};
use nwq_opt::NelderMead;
use nwq_pauli::PauliOp;
use nwq_statevec::plan_cache;

const ORBITALS: usize = 5;
const ELECTRONS: usize = 6;
/// Chemical accuracy against the Lanczos reference (Ha).
const ACCURACY: f64 = 1e-3;

struct Setup {
    hamiltonian: PauliOp,
    pool: OperatorPool,
    exact: f64,
    chem_s: f64,
    exact_s: f64,
}

fn setup() -> Result<Setup> {
    let (built, chem_s) = timed(|| -> Result<_> {
        let h = water_model(ORBITALS, ELECTRONS).to_qubit_hamiltonian()?;
        let pool = OperatorPool::singles_doubles(h.n_qubits(), ELECTRONS)?;
        Ok((h, pool))
    });
    let (hamiltonian, pool) = built?;
    let (exact, exact_s) =
        timed(|| ground_energy_sector_default(&hamiltonian, Sector::closed_shell(ELECTRONS)));
    Ok(Setup {
        hamiltonian,
        pool,
        exact: exact?,
        chem_s,
        exact_s,
    })
}

/// One ADAPT run from a cold plan cache: each run compiles its own
/// templates, as a new problem would.
fn adapt(s: &Setup, backend: &mut dyn Backend) -> Result<AdaptResult> {
    plan_cache::clear();
    let config = AdaptConfig {
        target_energy: Some(s.exact),
        accuracy: ACCURACY,
        ..AdaptConfig::default()
    };
    let mut opt = NelderMead::for_vqe();
    run_adapt_vqe(
        &s.hamiltonian,
        &s.pool,
        ELECTRONS,
        backend,
        &mut opt,
        &config,
    )
}

fn check(out: &mut Outcome, s: &Setup, r: &Result<AdaptResult>) {
    let ok = matches!(r, Ok(r) if r.stop_reason == StopReason::ReachedAccuracy
        && r.energy - s.exact <= ACCURACY);
    out.check(ok, || {
        let got = r.as_ref().map(|r| (r.energy, r.stop_reason));
        format!("ADAPT water10: {got:?} vs Lanczos {}", s.exact)
    });
}

pub fn run(args: Args) -> Result<Outcome> {
    let (s, setup_s) = repeat_setup(SETUP_REPS, setup)?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    if !args.trace {
        let mut runs = Vec::new();
        run_for(args.seconds, |_| {
            let (r, t) = timed(|| adapt(&s, &mut DirectBackend::new()));
            runs.push(t);
            check(&mut out, &s, &r);
        });
        eprintln!("adapt_water10: {} runs", runs.len());
        out.set("adapt_s", median(&runs));
        out.alias_missing(median(&runs));
        return Ok(out);
    }

    let (r, untraced_s) = timed(|| adapt(&s, &mut DirectBackend::new()));
    check(&mut out, &s, &r);
    let mut probe = Probe::new();
    probe.begin_run();
    let (r, traced_s) = timed(|| adapt(&s, &mut probe));
    probe.end_run();
    check(&mut out, &s, &r);
    let layers = replay(&probe)?;
    backend_layers(&mut out, &probe, &layers, untraced_s, traced_s);
    out.set("trace.units", 1.0);
    out.set("chem.build_s", s.chem_s);
    out.set("chem.terms", s.hamiltonian.num_terms() as f64);
    out.set("exact.reference_s", s.exact_s);
    state_size(&mut out, s.hamiltonian.n_qubits());
    Ok(out)
}
