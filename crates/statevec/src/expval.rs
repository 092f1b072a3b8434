//! Energy evaluation strategies (paper §4.1 + §4.2 combined).
//!
//! Three ways to evaluate `⟨ψ(θ)|H|ψ(θ)⟩`, in decreasing cost:
//!
//! 1. **Non-caching** (`energy_non_caching`): re-prepare the ansatz for
//!    every measurement group, apply the group's basis change, read the
//!    diagonal expectations. This is the baseline of paper Fig 3.
//! 2. **Caching** (`energy_cached`): prepare the ansatz once, then for
//!    each group copy the cached amplitudes and apply only the (tiny)
//!    basis-change circuit (§4.1.4).
//! 3. **Direct** (`StateVector::expectation`): no basis changes at all —
//!    evaluate each Pauli term as an exact amplitude reduction (§4.2).
//! 4. **Batched direct** ([`energy_direct_batched`]): the §4.2 reduction
//!    with Hamiltonian terms grouped by X/Y flip-mask, so every term in a
//!    group is evaluated in ONE amplitude pass instead of one pass per
//!    term.
//!
//! All strategies agree to numerical precision; the tests pin that down.
//! The group-based strategies (1, 2) compile the ansatz to an
//! [`crate::plan::ExecPlan`] so parameterized gates fuse at bind time; the
//! reported `gates_applied` stays the *logical* (pre-fusion) gate count,
//! which is the quantity paper Fig 3 compares.

use crate::executor::Executor;
use crate::plan::ExecPlan;
use crate::state::StateVector;
use nwq_circuit::basis::group_basis_circuit;
use nwq_circuit::Circuit;
use nwq_common::{bits::masked_parity, Error, Result, C64, C_ZERO};
use nwq_pauli::grouping::MeasurementGroup;
use nwq_pauli::{PauliOp, Phase};
use rayon::prelude::*;

/// Amplitude count at or above which the reductions here go parallel.
const PAR_THRESHOLD: usize = 1 << 12;

/// Block width (amplitudes) of the serial batched-expectation sweep: big
/// enough to amortize the SIMD dispatch and fill vector lanes, small
/// enough that the phase/weight buffers stay in L1 (2 × 128 × 16 B).
const EXPVAL_BLOCK: usize = 128;

/// Every energy entry point funnels its result through this: a NaN/Inf
/// energy (corrupted amplitudes, injected fault) is surfaced as
/// `Error::Numerical` instead of silently poisoning the optimizer, and
/// counted so `--metrics` artifacts show how often it happened.
pub(crate) fn ensure_finite_energy(energy: f64, context: &str) -> Result<f64> {
    if energy.is_finite() {
        Ok(energy)
    } else {
        nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
        Err(Error::Numerical(format!(
            "non-finite energy from {context}"
        )))
    }
}

/// Once every string in a group has been rotated to diagonal form, all its
/// expectations come from a single pass over the probabilities:
/// `⟨P_t⟩ = Σ_x |a_x|² (−1)^{|x ∧ support(P_t)|}`.
///
/// Each parallel part folds into ONE preallocated accumulator vector; the
/// per-amplitude closure only indexes into it (no heap traffic inside the
/// amplitude loop).
fn diagonal_group_energy(state: &StateVector, group: &MeasurementGroup) -> f64 {
    let supports: Vec<u64> = group.terms.iter().map(|(_, s)| s.support()).collect();
    let coeffs: Vec<f64> = group.terms.iter().map(|(c, _)| c.re).collect();
    let amps = state.amplitudes();
    let accumulate = |acc: &mut [f64], base: usize, chunk: &[C64]| {
        for (j, a) in chunk.iter().enumerate() {
            let x = (base + j) as u64;
            let p = a.norm_sqr();
            for (t, &m) in supports.iter().enumerate() {
                acc[t] += if masked_parity(x, m) { -p } else { p };
            }
        }
    };
    let per_term: Vec<f64> = if amps.len() >= PAR_THRESHOLD {
        let chunk = amps.len().div_ceil(rayon::current_num_threads());
        let partials: Vec<Vec<f64>> = amps
            .par_chunks(chunk)
            .enumerate()
            .map(|(ci, c)| {
                let mut acc = vec![0.0; supports.len()];
                accumulate(&mut acc, ci * chunk, c);
                acc
            })
            .collect();
        let mut total = vec![0.0; supports.len()];
        for part in partials {
            for (x, y) in total.iter_mut().zip(part) {
                *x += y;
            }
        }
        total
    } else {
        let mut acc = vec![0.0; supports.len()];
        accumulate(&mut acc, 0, amps);
        acc
    };
    per_term.iter().zip(&coeffs).map(|(e, c)| e * c).sum()
}

/// Batched §4.2 direct expectation: Hamiltonian terms sharing an X/Y
/// flip-mask `m` read the same amplitude pairs `(ψ[x⊕m], ψ[x])`, so the
/// per-term reductions collapse to one pass per *mask group*:
///
/// `⟨H⟩ = Σ_m Σ_x conj(ψ[x⊕m]) ψ[x] · Σ_{t: m_t=m} c_t φ_t (−1)^{|x ∧ z_t|}`
///
/// For molecular Hamiltonians many terms share flip-masks (all-diagonal
/// terms share `m = 0`), so this does strictly fewer amplitude sweeps than
/// the per-term `expectation_op` path. Telemetry records both sides:
/// `expval.term_sweeps` (what per-term would cost), `expval.batched_sweeps`
/// (passes actually made) and `expval.sweeps_saved`.
///
/// The inner loop is kept at least as lean as the per-term path's: terms
/// are grouped in a flat sorted vector (no per-amplitude BTreeMap or
/// nested-Vec indirection), the per-term sign is applied branchlessly
/// (`f += c · (1 − 2·parity)`, bitwise identical to the `±c` branch since
/// multiplying by exact ±1.0 is exact), and the `m = 0` group reads one
/// amplitude per index via `norm_sqr` instead of a conjugate product
/// (`Re(conj(a)·a)` computes `re·re − im·(−im)`, bitwise `norm_sqr`; the
/// imaginary part of a Hermitian group sum is discarded anyway).
pub fn energy_direct_batched(state: &StateVector, op: &PauliOp) -> Result<f64> {
    let psi = state.amplitudes();
    if psi.len() != 1usize << op.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << op.n_qubits(),
            got: psi.len(),
        });
    }
    // Flatten terms to (flip_mask, eff_coeff, z_mask) and sort by mask; a
    // stable sort reproduces the BTreeMap grouping this replaced (groups in
    // ascending mask order, terms in Hamiltonian order within a group), so
    // accumulation order — and thus the energy bits — is unchanged.
    let mut terms: Vec<(u64, C64, u64)> = op
        .terms()
        .iter()
        .map(|&(c, ref s)| {
            let eff = c * Phase::from_power(s.y_count()).to_c64();
            (s.x_mask(), eff, s.z_mask())
        })
        .collect();
    terms.sort_by_key(|t| t.0);
    let n_groups = terms.chunk_by(|a, b| a.0 == b.0).count();
    nwq_telemetry::counter_add("expval.term_sweeps", op.num_terms() as u64);
    nwq_telemetry::counter_add("expval.batched_sweeps", n_groups as u64);
    nwq_telemetry::counter_add("expval.sweeps_saved", (op.num_terms() - n_groups) as u64);
    let _span = nwq_telemetry::span!("expval.batched");
    // The parallel reduction only pays off when the pool can actually run
    // pieces concurrently; a single-thread pool takes the blocked SIMD
    // sweep below (identical accumulation order, so identical bits).
    let use_par = psi.len() >= PAR_THRESHOLD && crate::kernels::parallel_dispatch_enabled();
    let mut fbuf = [C_ZERO; EXPVAL_BLOCK];
    let mut wbuf = [C_ZERO; EXPVAL_BLOCK];
    let mut total = C_ZERO;
    for group in terms.chunk_by(|a, b| a.0 == b.0) {
        let m = group[0].0 as usize;
        if use_par {
            let body = |x: usize| -> C64 {
                // NaN/Inf amplitudes still poison the sum through norm_sqr
                // and surface via ensure_finite_energy below.
                let w = if m == 0 {
                    C64::new(psi[x].norm_sqr(), 0.0)
                } else {
                    psi[x ^ m].conj() * psi[x]
                };
                let mut f = C_ZERO;
                for &(_, c, z) in group {
                    let sign = 1.0 - 2.0 * ((x as u64 & z).count_ones() & 1) as f64;
                    f += c.scale(sign);
                }
                w * f
            };
            total += (0..psi.len())
                .into_par_iter()
                .map(body)
                .reduce(|| C_ZERO, |a, b| a + b);
        } else {
            // Blocked SIMD shape: fill a block of per-index group phases
            // f(x) (branch-free sign sweep) and pair weights w(x), then
            // fold w·f serially in index order. Each f and w is the same
            // expression the fused loop computed, and the fold adds the
            // products in the same order, so the energy bits are
            // unchanged — only the f/w fills vectorize.
            let mut acc = C_ZERO;
            for base in (0..psi.len()).step_by(EXPVAL_BLOCK) {
                let blk = EXPVAL_BLOCK.min(psi.len() - base);
                crate::simd::group_phase_block(&mut fbuf[..blk], base, group);
                crate::simd::flip_weights_block(&mut wbuf[..blk], psi, base, m);
                for j in 0..blk {
                    acc += wbuf[j] * fbuf[j];
                }
            }
            total += acc;
        }
    }
    ensure_finite_energy(total.re, "batched direct expectation")
}

/// One flip-mask group of a Hamiltonian, preprocessed for the batched §4.2
/// reduction: all terms share the X/Y flip-mask `mask`; each term carries
/// its effective coefficient (`c · i^{y_count}`) and Z mask.
///
/// This is the same grouping [`energy_direct_batched`] builds internally,
/// exposed so shard-parallel evaluators (the distributed backend) can run
/// the identical reduction without gathering the full state.
#[derive(Clone, Debug)]
pub struct FlipGroup {
    /// X/Y flip-mask shared by every term in the group.
    pub mask: u64,
    /// `(effective coefficient, z_mask)` per term, in Hamiltonian order.
    pub terms: Vec<(C64, u64)>,
}

/// Groups a Hamiltonian's terms by X/Y flip-mask (ascending mask order,
/// stable within a group), mirroring [`energy_direct_batched`]'s internal
/// grouping exactly.
pub fn flip_groups(op: &PauliOp) -> Vec<FlipGroup> {
    let mut terms: Vec<(u64, C64, u64)> = op
        .terms()
        .iter()
        .map(|&(c, ref s)| {
            let eff = c * Phase::from_power(s.y_count()).to_c64();
            (s.x_mask(), eff, s.z_mask())
        })
        .collect();
    terms.sort_by_key(|t| t.0);
    terms
        .chunk_by(|a, b| a.0 == b.0)
        .map(|g| FlipGroup {
            mask: g[0].0,
            terms: g.iter().map(|&(_, c, z)| (c, z)).collect(),
        })
        .collect()
}

/// One rank's contribution to a flip-group's sum in a sharded register:
///
/// `Σ_{x ∈ shard} conj(ψ[x⊕m]) ψ[x] · Σ_t c_t (−1)^{|x ∧ z_t|}`
///
/// `own` holds the rank's amplitudes (global indices `rank·2^n_local ..`),
/// `partner` the shard holding the `x⊕m` side (the own shard again when
/// the mask's global bits are zero). Same arithmetic as
/// [`energy_direct_batched`]'s inner loop, including the branchless sign
/// and the `norm_sqr` fast path for the diagonal (`m = 0`) group.
pub fn shard_group_partial(
    own: &[C64],
    partner: &[C64],
    rank: usize,
    n_local: usize,
    mask: u64,
    terms: &[(C64, u64)],
) -> C64 {
    debug_assert_eq!(own.len(), partner.len());
    debug_assert_eq!(own.len(), 1usize << n_local);
    let local_mask = (1u64 << n_local) - 1;
    let local_flip = (mask & local_mask) as usize;
    let base = (rank as u64) << n_local;
    let body = |k: usize| -> C64 {
        let x = base | k as u64;
        let w = if mask == 0 {
            C64::new(own[k].norm_sqr(), 0.0)
        } else {
            partner[k ^ local_flip].conj() * own[k]
        };
        let mut f = C_ZERO;
        for &(c, z) in terms {
            let sign = 1.0 - 2.0 * ((x & z).count_ones() & 1) as f64;
            f += c.scale(sign);
        }
        w * f
    };
    if own.len() >= PAR_THRESHOLD {
        (0..own.len())
            .into_par_iter()
            .map(body)
            .reduce(|| C_ZERO, |a, b| a + b)
    } else {
        (0..own.len()).map(body).sum()
    }
}

/// Result of a full energy evaluation, with the gate accounting that
/// paper Fig 3 compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyEval {
    /// The energy `Re⟨H⟩` (identity terms included by the caller's
    /// grouping; see [`energy_cached`]).
    pub energy: f64,
    /// Logical (pre-fusion) gates charged to this evaluation — the paper's
    /// Fig 3 cost metric, independent of how much the plan layer fuses.
    pub gates_applied: u64,
}

/// Baseline: re-run the ansatz before every measurement group. The ansatz
/// is compiled to a plan ONCE (binding and fusion are per-θ, not per-group)
/// but still *executed* once per group — that re-preparation is the cost
/// paper Fig 3 charges this strategy.
pub fn energy_non_caching(
    ansatz: &Circuit,
    params: &[f64],
    groups: &[MeasurementGroup],
    identity_energy: f64,
) -> Result<EnergyEval> {
    let mut ex = Executor::new();
    let plan = ExecPlan::compile(ansatz, params)?;
    let mut energy = identity_energy;
    let mut gates_applied = 0u64;
    for g in groups {
        let mut state = ex.run_plan(&plan)?;
        gates_applied += plan.stats().gates_in as u64;
        let basis = group_basis_circuit(ansatz.n_qubits(), g)?;
        ex.run_on(&basis, &[], &mut state)?;
        gates_applied += basis.len() as u64;
        energy += diagonal_group_energy_with_diagonalized(&state, g);
    }
    Ok(EnergyEval {
        energy: ensure_finite_energy(energy, "non-caching group evaluation")?,
        gates_applied,
    })
}

/// Caching execution: one ansatz run, then per-group basis changes applied
/// to copies of the cached state (§4.1). The ansatz runs through its
/// compiled plan; basis-change circuits are tiny and concrete, so they run
/// gate-by-gate.
pub fn energy_cached(
    ansatz: &Circuit,
    params: &[f64],
    groups: &[MeasurementGroup],
    identity_energy: f64,
) -> Result<EnergyEval> {
    let mut ex = Executor::new();
    let plan = ExecPlan::compile(ansatz, params)?;
    let cached = ex.run_plan(&plan)?;
    let mut energy = identity_energy;
    let mut gates_applied = plan.stats().gates_in as u64;
    for g in groups {
        let basis = group_basis_circuit(ansatz.n_qubits(), g)?;
        if basis.is_empty() {
            energy += diagonal_group_energy_with_diagonalized(&cached, g);
        } else {
            let mut state = cached.clone();
            ex.run_on(&basis, &[], &mut state)?;
            gates_applied += basis.len() as u64;
            energy += diagonal_group_energy_with_diagonalized(&state, g);
        }
    }
    Ok(EnergyEval {
        energy: ensure_finite_energy(energy, "cached group evaluation")?,
        gates_applied,
    })
}

/// After the group's basis change, each string contributes through its
/// *diagonalized* form (X/Y → Z on the same support).
fn diagonal_group_energy_with_diagonalized(state: &StateVector, group: &MeasurementGroup) -> f64 {
    // Identity terms have empty support and contribute coeff · 1; they are
    // covered by the same formula (parity of empty mask is even).
    let diag_group = MeasurementGroup {
        terms: group
            .terms
            .iter()
            .map(|&(c, s)| (c, nwq_circuit::basis::diagonalized(&s)))
            .collect(),
        basis: group.basis.clone(),
    };
    diagonal_group_energy(state, &diag_group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwq_circuit::ParamExpr;
    use nwq_pauli::grouping::{group_qubit_wise, group_singletons};
    use nwq_pauli::PauliOp;

    fn toy_ansatz() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, ParamExpr::var(0)).cx(0, 1).rz(1, ParamExpr::var(1));
        c
    }

    fn check_all_strategies_agree(h: &PauliOp, params: &[f64]) {
        let ansatz = toy_ansatz();
        let groups = group_qubit_wise(h);
        let singles = group_singletons(h);
        let direct = {
            let s = crate::executor::simulate(&ansatz, params).unwrap();
            s.energy(h).unwrap()
        };
        let nc = energy_non_caching(&ansatz, params, &groups, 0.0).unwrap();
        let ca = energy_cached(&ansatz, params, &groups, 0.0).unwrap();
        let nc_s = energy_non_caching(&ansatz, params, &singles, 0.0).unwrap();
        assert!(
            (nc.energy - direct).abs() < 1e-10,
            "non-caching {} vs {}",
            nc.energy,
            direct
        );
        assert!(
            (ca.energy - direct).abs() < 1e-10,
            "cached {} vs {}",
            ca.energy,
            direct
        );
        assert!((nc_s.energy - direct).abs() < 1e-10);
        // Caching must never use more gates.
        assert!(ca.gates_applied <= nc.gates_applied);
    }

    #[test]
    fn strategies_agree_on_toy_hamiltonian() {
        let h = PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap();
        check_all_strategies_agree(&h, &[0.3, -0.7]);
        check_all_strategies_agree(&h, &[1.2, 0.0]);
    }

    #[test]
    fn strategies_agree_with_y_terms_and_identity() {
        let h = PauliOp::parse("0.5 YY + 0.25 ZI + 0.125 II + 0.3 XY").unwrap();
        check_all_strategies_agree(&h, &[0.9, 0.4]);
    }

    #[test]
    fn caching_gate_savings_grow_with_terms() {
        // Many groups: caching runs the ansatz once instead of per group.
        let h = PauliOp::parse("1.0 XX + 1.0 YY + 1.0 ZZ + 0.5 XZ + 0.5 ZX").unwrap();
        let ansatz = toy_ansatz();
        let groups = group_singletons(&h);
        let nc = energy_non_caching(&ansatz, &[0.4, 0.2], &groups, 0.0).unwrap();
        let ca = energy_cached(&ansatz, &[0.4, 0.2], &groups, 0.0).unwrap();
        // Non-caching pays ansatz gates per group.
        let ansatz_len = ansatz.len() as u64;
        assert!(nc.gates_applied >= groups.len() as u64 * ansatz_len);
        assert!(ca.gates_applied < nc.gates_applied);
        assert!((nc.energy - ca.energy).abs() < 1e-10);
    }

    #[test]
    fn identity_energy_offset_applies() {
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        let groups = group_qubit_wise(&h);
        let e = energy_cached(&toy_ansatz(), &[0.0, 0.0], &groups, 2.5).unwrap();
        // θ=0 ansatz leaves |00⟩ (up to the rz phase): ⟨ZZ⟩=1 ⇒ 1 + 2.5.
        assert!((e.energy - 3.5).abs() < 1e-10);
    }

    #[test]
    fn diagonal_group_single_pass_matches_direct() {
        // Purely diagonal Hamiltonian needs zero basis-change gates.
        let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ").unwrap();
        let groups = group_qubit_wise(&h);
        assert_eq!(groups.len(), 1);
        let ansatz = toy_ansatz();
        let ca = energy_cached(&ansatz, &[0.8, 0.1], &groups, 0.0).unwrap();
        let direct = crate::executor::simulate(&ansatz, &[0.8, 0.1])
            .unwrap()
            .energy(&h)
            .unwrap();
        assert!((ca.energy - direct).abs() < 1e-10);
        // Only the ansatz gates were applied — no basis changes.
        assert_eq!(ca.gates_applied, ansatz.len() as u64);
    }

    #[test]
    fn batched_direct_matches_per_term_direct() {
        let ansatz = toy_ansatz();
        for h in [
            PauliOp::parse("1.0 ZZ + 1.0 XX").unwrap(),
            PauliOp::parse("0.5 YY + 0.25 ZI + 0.125 II + 0.3 XY").unwrap(),
            PauliOp::parse("1.0 XX + 1.0 YY + 1.0 ZZ + 0.5 XZ + 0.5 ZX + 0.1 IZ").unwrap(),
        ] {
            for params in [[0.3, -0.7], [1.2, 0.0], [0.9, 0.4]] {
                let s = crate::executor::simulate(&ansatz, &params).unwrap();
                let per_term = s.energy(&h).unwrap();
                let batched = energy_direct_batched(&s, &h).unwrap();
                assert!(
                    (batched - per_term).abs() < 1e-12,
                    "batched {batched} vs per-term {per_term}"
                );
            }
        }
    }

    #[test]
    fn batched_direct_groups_by_flip_mask() {
        // ZZ, ZI, IZ, II all have flip-mask 0; XX has its own. The batched
        // path must do 2 sweeps where per-term does 5.
        let h = PauliOp::parse("0.7 ZZ + 0.2 ZI + 0.1 IZ + 0.05 II + 1.0 XX").unwrap();
        let s = crate::executor::simulate(&toy_ansatz(), &[0.8, 0.1]).unwrap();
        let (e, snap) = nwq_telemetry::capture(|| energy_direct_batched(&s, &h).unwrap());
        let batched = snap.counter("expval.batched_sweeps");
        let terms = snap.counter("expval.term_sweeps");
        assert_eq!(terms, 5);
        assert_eq!(batched, 2);
        let per_term = s.energy(&h).unwrap();
        assert!((e - per_term).abs() < 1e-12);
    }

    #[test]
    fn batched_direct_large_register_parallel_path() {
        let n = 13; // crosses PAR_THRESHOLD
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        ansatz.cx(0, n - 1).rz(1, 0.4);
        let h = PauliOp::parse(&format!(
            "0.5 {}X + 0.25 Z{} + 0.125 {}",
            "I".repeat(n - 1),
            "I".repeat(n - 1),
            "Z".repeat(n)
        ))
        .unwrap();
        let s = crate::executor::simulate(&ansatz, &[]).unwrap();
        let per_term = s.energy(&h).unwrap();
        let batched = energy_direct_batched(&s, &h).unwrap();
        assert!((batched - per_term).abs() < 1e-12);
    }

    #[test]
    fn sharded_flip_group_reduction_matches_batched_direct() {
        // 4-qubit register sharded over 4 "ranks" (2 local qubits): sum of
        // per-rank flip-group partials must reproduce the single-node
        // batched energy.
        let n = 4;
        let n_local = 2;
        let n_ranks = 1usize << (n - n_local);
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        ansatz.cx(0, 3).ry(1, 0.7).rzz(2, 3, -0.4).cz(0, 2);
        let h = PauliOp::parse("0.7 ZZZZ + 0.3 XIXI + 0.2 IYZX + 0.1 ZIII + 0.05 IIII").unwrap();
        let s = crate::executor::simulate(&ansatz, &[]).unwrap();
        let single = energy_direct_batched(&s, &h).unwrap();
        let full = s.amplitudes();
        let part = full.len() / n_ranks;
        let shards: Vec<&[C64]> = (0..n_ranks)
            .map(|r| &full[r * part..(r + 1) * part])
            .collect();
        let mut total = C_ZERO;
        for g in flip_groups(&h) {
            for (r, own) in shards.iter().enumerate() {
                let partner = shards[r ^ (g.mask >> n_local) as usize];
                total += shard_group_partial(own, partner, r, n_local, g.mask, &g.terms);
            }
        }
        assert!(
            (total.re - single).abs() < 1e-12,
            "sharded {} vs single {}",
            total.re,
            single
        );
        assert!(total.im.abs() < 1e-12);
    }

    #[test]
    fn batched_direct_rejects_non_finite_energy() {
        let mut s = crate::executor::simulate(&toy_ansatz(), &[0.1, 0.2]).unwrap();
        s.amplitudes_mut()[0] = nwq_common::C64::new(f64::NAN, 0.0);
        let h = PauliOp::parse("1.0 ZZ").unwrap();
        let e = energy_direct_batched(&s, &h).unwrap_err();
        assert!(matches!(e, Error::Numerical(_)), "{e}");
    }

    #[test]
    fn batched_direct_dimension_mismatch_rejected() {
        let s = crate::executor::simulate(&toy_ansatz(), &[0.1, 0.2]).unwrap();
        let h = PauliOp::parse("1.0 ZZZ").unwrap();
        assert!(energy_direct_batched(&s, &h).is_err());
    }

    #[test]
    fn large_register_parallel_reduction() {
        let n = 13;
        let mut ansatz = Circuit::new(n);
        for q in 0..n {
            ansatz.h(q);
        }
        let label = format!("{}{}", "Z".repeat(2), "I".repeat(n - 2));
        let h = PauliOp::parse(&format!("1.0 {label}")).unwrap();
        let groups = group_qubit_wise(&h);
        let e = energy_cached(&ansatz, &[], &groups, 0.0).unwrap();
        // Uniform superposition: ⟨ZZ…⟩ = 0.
        assert!(e.energy.abs() < 1e-10);
    }
}
