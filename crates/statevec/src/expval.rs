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
use std::ops::Range;

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
/// are grouped by [`flip_groups`] (no per-amplitude map or nested
/// indirection), the per-term sign is applied branchlessly
/// (`f += c · (1 − 2·parity)`, bitwise identical to the `±c` branch since
/// multiplying by exact ±1.0 is exact), and the `m = 0` group reads one
/// amplitude per index via `norm_sqr` instead of a conjugate product
/// (`Re(conj(a)·a)` computes `re·re − im·(−im)`, bitwise `norm_sqr`; the
/// imaginary part of a Hermitian group sum is discarded anyway).
///
/// Each group folds serially in index order and the group sums are added
/// in group order; large registers split their groups over the pool
/// ([`map_group_chunks`]), which leaves every bit of the energy unchanged.
pub fn energy_direct_batched(state: &StateVector, op: &PauliOp) -> Result<f64> {
    let psi = state.amplitudes();
    if psi.len() != 1usize << op.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << op.n_qubits(),
            got: psi.len(),
        });
    }
    let groups = flip_groups(op);
    nwq_telemetry::counter_add("expval.term_sweeps", op.num_terms() as u64);
    nwq_telemetry::counter_add("expval.batched_sweeps", groups.len() as u64);
    nwq_telemetry::counter_add(
        "expval.sweeps_saved",
        (op.num_terms() - groups.len()) as u64,
    );
    let _span = nwq_telemetry::span!("expval.batched");
    let sums = map_group_chunks(&groups, psi.len(), |chunk| {
        shard_group_sums(psi, |_| psi, 0, chunk)
    });
    let mut total = C_ZERO;
    for s in sums {
        total += s;
    }
    ensure_finite_energy(total.re, "batched direct expectation")
}

/// How many tasks a readout of a `dim`-amplitude register splits into:
/// the pool's thread count from [`PAR_THRESHOLD`] amplitudes up when the
/// pool can run pieces concurrently, one otherwise.
pub fn readout_pieces(dim: usize) -> usize {
    if dim >= PAR_THRESHOLD && crate::kernels::parallel_dispatch_enabled() {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// Cuts `groups` into at most `pieces` contiguous chunks of about equal
/// readout cost, one task each. A group costs its term count (the phase
/// fill) plus one (pair weights and fold), and goes to the chunk whose
/// share of the total cost holds the group's midpoint.
pub fn group_chunks(groups: &[FlipGroup], pieces: usize) -> Vec<Range<usize>> {
    let cost = |g: &FlipGroup| g.terms.len() + 1;
    let total: usize = groups.iter().map(cost).sum();
    let mut chunks: Vec<Range<usize>> = Vec::new();
    let (mut prefix, mut last) = (0, usize::MAX);
    for (i, g) in groups.iter().enumerate() {
        let k = (2 * prefix + cost(g)) * pieces / (2 * total);
        prefix += cost(g);
        match chunks.last_mut() {
            Some(c) if k == last => c.end = i + 1,
            _ => chunks.push(i..i + 1),
        }
        last = k;
    }
    chunks
}

/// Applies `fold` to contiguous chunks of the flip groups and returns the
/// per-group results in group order — one chunk per task of
/// [`readout_pieces`]`(dim)`, cut by [`group_chunks`]. Each group still
/// folds serially in index order inside its chunk, so callers that add
/// the results in group order get the serial bits on any pool size.
/// Shared by [`energy_direct_batched`] and
/// [`crate::walkers::walker_energies`], which keeps the walker readout
/// bitwise the single-state one.
pub(crate) fn map_group_chunks<T: Send>(
    groups: &[FlipGroup],
    dim: usize,
    fold: impl Fn(&[FlipGroup]) -> Vec<T> + Sync + Send,
) -> Vec<T> {
    let pieces = readout_pieces(dim);
    if pieces == 1 {
        return fold(groups);
    }
    let chunks = group_chunks(groups, pieces);
    let per_chunk: Vec<Vec<T>> = chunks
        .par_iter()
        .map(|c| fold(&groups[c.clone()]))
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// One flip-mask group of a Hamiltonian, preprocessed for the batched §4.2
/// reduction: all terms share the X/Y flip-mask `mask`; each term carries
/// its effective coefficient (`c · i^{y_count}`) and Z mask.
///
/// This is the grouping [`energy_direct_batched`] reduces over, exposed
/// so shard-parallel evaluators (the distributed backend) can run the
/// identical reduction without gathering the full state.
#[derive(Clone, Debug)]
pub struct FlipGroup {
    /// X/Y flip-mask shared by every term in the group.
    pub mask: u64,
    /// `(effective coefficient, z_mask)` per term, in Hamiltonian order.
    pub terms: Vec<(C64, u64)>,
}

/// Groups a Hamiltonian's terms by X/Y flip-mask: ascending mask order,
/// Hamiltonian order within a group (a stable sort), which fixes the
/// accumulation order — and so the bits — of every batched readout.
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

/// Amplitudes per tile of [`shard_group_sums`]: 256 KiB of own amplitudes
/// (plus as much of a partner's) stay in L2 while every group folds them.
const READOUT_TILE: usize = 1 << 14;

/// Every flip group's partial sum over one shard of a sharded register,
/// from ONE pass over the shard: the shard is swept tile by tile, and
/// each tile folds every group before the next tile is read. `own` holds
/// global indices `base..base + len`; `partner(g)` is the shard holding
/// group `g`'s `x ⊕ m` side (`own` itself when the mask flips no bit
/// above the shard).
///
/// Group `g` adds `Σ_k w(k) · f(base + k)`: the group phase `f` of the
/// global index times the pair weight `w(k) = conj(partner[k ⊕ flip]) ·
/// own[k]` (`|own[k]|²` for the diagonal group), where `flip` is the
/// mask's bits within the shard. Blocked SIMD shape: fill a block of
/// phases (branch-free sign sweep) and weights, then fold `w·f` serially,
/// so only the fills vectorize and every group folds in plain index
/// order — exactly as one serial sweep of the shard would, so a
/// one-shard register gives bitwise the serial [`energy_direct_batched`]
/// group sums.
pub fn shard_group_sums<'a>(
    own: &'a [C64],
    partner: impl Fn(&FlipGroup) -> &'a [C64],
    base: usize,
    groups: &[FlipGroup],
) -> Vec<C64> {
    let mut sums = vec![C_ZERO; groups.len()];
    let mut fbuf = [C_ZERO; EXPVAL_BLOCK];
    let mut wbuf = [C_ZERO; EXPVAL_BLOCK];
    for tile in (0..own.len()).step_by(READOUT_TILE) {
        let tile_end = own.len().min(tile + READOUT_TILE);
        for (g, sum) in groups.iter().zip(&mut sums) {
            let partner = partner(g);
            debug_assert_eq!(own.len(), partner.len());
            let flip = (g.mask != 0).then(|| g.mask as usize & (own.len() - 1));
            let mut acc = *sum;
            for start in (tile..tile_end).step_by(EXPVAL_BLOCK) {
                let blk = EXPVAL_BLOCK.min(tile_end - start);
                crate::simd::group_phase_block(&mut fbuf[..blk], base + start, &g.terms);
                crate::simd::flip_weights_block(&mut wbuf[..blk], own, partner, start, flip);
                for j in 0..blk {
                    acc += wbuf[j] * fbuf[j];
                }
            }
            *sum = acc;
        }
    }
    sums
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
        let groups = flip_groups(&h);
        let partials: Vec<Vec<C64>> = shards
            .iter()
            .enumerate()
            .map(|(r, own)| {
                let partner = |g: &FlipGroup| shards[r ^ (g.mask >> n_local) as usize];
                shard_group_sums(own, partner, r << n_local, &groups)
            })
            .collect();
        let mut total = C_ZERO;
        for g in 0..groups.len() {
            for p in &partials {
                total += p[g];
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
    fn one_shard_group_sums_are_bitwise_the_batched_direct_energy() {
        // Registers below, at and above the readout tile; a single shard
        // is the whole register, so the one-pass tiled sweep must add up
        // to exactly the energy of the per-group sweeps.
        for n in [3usize, 12, 15] {
            let mut ansatz = Circuit::new(n);
            for q in 0..n {
                ansatz.h(q).ry(q, 0.1 + 0.05 * q as f64);
            }
            ansatz.cx(0, n - 1).rz(1, 0.4).cx(n - 1, 1);
            let h = PauliOp::parse(&format!(
                "0.5 {}X + 0.25 Z{} + 0.125 {} + 0.3 Y{}Y + 0.05 {}",
                "I".repeat(n - 1),
                "I".repeat(n - 1),
                "Z".repeat(n),
                "I".repeat(n - 2),
                "I".repeat(n)
            ))
            .unwrap();
            let s = crate::executor::simulate(&ansatz, &[]).unwrap();
            let groups = flip_groups(&h);
            let own = s.amplitudes();
            let mut total = C_ZERO;
            for p in shard_group_sums(own, |_| own, 0, &groups) {
                total += p;
            }
            let batched = energy_direct_batched(&s, &h).unwrap();
            assert_eq!(total.re.to_bits(), batched.to_bits(), "n={n}");
        }
    }

    #[test]
    fn group_chunks_are_contiguous_and_balanced_by_cost() {
        // 6 diagonal terms (cost 7) then 12 terms on one flip mask (cost
        // 13): two pieces give one group each.
        let h = PauliOp::parse(
            "0.1 ZIII + 0.1 IZII + 0.1 IIZI + 0.1 IIIZ + 0.1 ZZII + 0.1 IIZZ + \
             0.1 XIII + 0.1 XZII + 0.1 XIZI + 0.1 XIIZ + 0.1 XZZI + 0.1 XIZZ + \
             0.1 XZIZ + 0.1 XZZZ + 0.1 YIII + 0.1 YZII + 0.1 YIZI + 0.1 YIIZ",
        )
        .unwrap();
        let groups = flip_groups(&h);
        assert_eq!(groups.len(), 2);
        assert_eq!(group_chunks(&groups, 2), vec![0..1, 1..2]);
        assert_eq!(group_chunks(&groups, 1), vec![0..2]);
        assert_eq!(group_chunks(&groups, 8), vec![0..1, 1..2]);
        // One heavy diagonal group and many light ones: the light ones
        // fill the second chunk instead of trailing the heavy one.
        let mut terms = vec!["0.5 ZZIIII".to_string()];
        for q in 0..6 {
            let mut zz = ['I'; 6];
            zz[q] = 'Z';
            zz[(q + 1) % 6] = 'Z';
            terms.push(format!("0.5 {}", zz.iter().collect::<String>()));
            let mut x = ['I'; 6];
            x[q] = 'X';
            terms.push(format!("0.25 {}", x.iter().collect::<String>()));
        }
        let groups = flip_groups(&PauliOp::parse(&terms.join(" + ")).unwrap());
        for pieces in 1..=8 {
            let chunks = group_chunks(&groups, pieces);
            assert!(chunks.len() <= pieces && !chunks.is_empty());
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks.last().unwrap().end, groups.len());
            assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        }
        assert_eq!(group_chunks(&groups, 2), vec![0..2, 2..7]);
        assert!(group_chunks(&[], 4).is_empty());
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
