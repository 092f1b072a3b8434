//! Gather-free distributed expectation values.
//!
//! The point of sharded execution is registers too large to hold in one
//! allocation — so the energy readout must not [`DistStateVector::gather`]
//! either. This module evaluates `⟨ψ|H|ψ⟩` directly on the shards with the
//! batched §4.2 flip-group reduction from [`nwq_statevec::expval`]:
//!
//! `⟨H⟩ = Σ_m Σ_x conj(ψ[x⊕m]) ψ[x] · Σ_{t: m_t=m} c_t φ_t (−1)^{|x∧z_t|}`
//!
//! For a flip-mask `m`, rank `r`'s partner shard is `r ⊕ (m >> n_local)` —
//! each rank reads exactly one remote shard per group, the distributed
//! analog of one exchanged message per rank.
//!
//! Each rank sweeps its own shard ONCE, tile by tile, folding every flip
//! group's blocks per tile ([`shard_group_sums`]) — not once per group.
//! Ranks run in parallel; when the pool has more threads than ranks, each
//! rank's groups are cut into cost-balanced chunks ([`group_chunks`]), one
//! pass per chunk, so no thread idles. Every (group, rank) partial still
//! folds its shard in index order, and the partials are summed in
//! (group, rank) order, so the result does not depend on the pool size.
//!
//! The expectation-phase traffic is recorded in telemetry
//! (`dist.expval_messages` / `dist.expval_bytes`) but *not* folded into
//! the gate-phase [`crate::comm::CommStats`]: `plan_communication`
//! predicts circuit execution, and the measured-equals-planned invariant
//! is pinned by tests.

use crate::partition::DistStateVector;
use nwq_common::{Error, Result, C64, C_ZERO};
use nwq_pauli::PauliOp;
use nwq_statevec::expval::{
    flip_groups, group_chunks, readout_pieces, shard_group_sums, FlipGroup,
};
use rayon::prelude::*;

/// Evaluates `Re⟨ψ|H|ψ⟩` on a sharded register without gathering.
pub fn distributed_energy(state: &DistStateVector, op: &PauliOp) -> Result<f64> {
    if op.n_qubits() != state.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: 1usize << state.n_qubits(),
            got: 1usize << op.n_qubits(),
        });
    }
    let _span = nwq_telemetry::span!("dist.energy");
    let n_local = state.n_local();
    let n_ranks = state.n_ranks();
    let part_bytes = (state.partition_len() * 16) as u64;
    let groups = flip_groups(op);
    let mut expval_messages = 0u64;
    for g in &groups {
        let global_flip = (g.mask >> n_local) as usize;
        if global_flip >= n_ranks {
            // A flip on a rank-id bit beyond the layout pairs each shard
            // with one that does not exist — every such product is over
            // amplitudes of disjoint support halves, but the mask cannot
            // arise: PauliOp width was checked above, so global_flip < 2^n_global.
            return Err(Error::Invalid(format!(
                "flip mask {:#x} addresses rank {global_flip} of {n_ranks}",
                g.mask
            )));
        }
        if global_flip != 0 {
            // One cross-rank shard read per rank, mirroring an exchange.
            expval_messages += n_ranks as u64;
        }
    }
    // One task per (rank, chunk of groups), each one pass over its shard.
    let chunks = group_chunks(
        &groups,
        readout_pieces(state.partition_len()).div_ceil(n_ranks),
    );
    let tasks: Vec<(usize, &[FlipGroup])> = (0..n_ranks)
        .flat_map(|r| chunks.iter().map(move |c| (r, c.clone())))
        .map(|(r, c)| (r, &groups[c]))
        .collect();
    let chunk_sums: Vec<Vec<C64>> = tasks
        .par_iter()
        .map(|&(r, chunk)| {
            let partner = |g: &FlipGroup| state.partition(r ^ (g.mask >> n_local) as usize);
            shard_group_sums(state.partition(r), partner, r << n_local, chunk)
        })
        .collect();
    let partials: Vec<Vec<C64>> = chunk_sums
        .chunks(chunks.len().max(1))
        .map(|rank_chunks| rank_chunks.concat())
        .collect();
    let mut total = C_ZERO;
    for g in 0..groups.len() {
        for rank_sums in &partials {
            total += rank_sums[g];
        }
    }
    nwq_telemetry::counter_add("dist.expval_messages", expval_messages);
    nwq_telemetry::counter_add("dist.expval_bytes", expval_messages * part_bytes);
    if total.re.is_finite() {
        Ok(total.re)
    } else {
        nwq_telemetry::counter_add("resilience.nonfinite_detected", 1);
        Err(Error::Numerical(
            "non-finite energy from distributed expectation".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sharded, ShardOptions};
    use nwq_circuit::Circuit;

    fn sample_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.rz(n - 1, 0.7).ry(0, -0.4).swap(0, n - 1);
        c
    }

    #[test]
    fn distributed_energy_matches_single_node() {
        let c = sample_circuit(6);
        let h =
            PauliOp::parse("0.5 ZZIIII + 0.25 XIIIIX + 0.125 IYZXII + 0.1 ZIIIII + 0.05 IIIIII")
                .unwrap();
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let expected = nwq_statevec::expval::energy_direct_batched(&single, &h).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let state = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let e = distributed_energy(&state, &h).unwrap();
            assert!(
                (e - expected).abs() < 1e-12,
                "ranks={n_ranks}: {e} vs {expected}"
            );
        }
    }

    #[test]
    fn one_rank_readout_is_bitwise_the_single_node_energy() {
        // One shard is the whole register, and its one-pass readout folds
        // each group in the same order as the single-node readout.
        for n in [6usize, 13, 15] {
            let c = sample_circuit(n);
            let h = PauliOp::parse(&format!(
                "0.5 ZZ{} + 0.25 X{}X + 0.125 IY{}",
                "I".repeat(n - 2),
                "I".repeat(n - 2),
                "Z".repeat(n - 2)
            ))
            .unwrap();
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            let expected = nwq_statevec::expval::energy_direct_batched(&single, &h).unwrap();
            let state = run_sharded(&c, &[], 1, &ShardOptions::default()).unwrap();
            let e = distributed_energy(&state, &h).unwrap();
            assert_eq!(e.to_bits(), expected.to_bits(), "n={n}");
        }
    }

    #[test]
    fn energy_rejects_width_mismatch() {
        let c = sample_circuit(4);
        let d = run_sharded(&c, &[], 2, &ShardOptions::default()).unwrap();
        let h = PauliOp::parse("1.0 ZZZZZ").unwrap();
        assert!(distributed_energy(&d, &h).is_err());
    }

    #[test]
    fn energy_surfaces_non_finite_states() {
        let c = sample_circuit(5);
        let mut d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        d.corrupt_amplitude(1, 0, nwq_common::C64::new(f64::NAN, 0.0))
            .unwrap();
        let h = PauliOp::parse("1.0 ZZZZZ").unwrap();
        let e = distributed_energy(&d, &h).unwrap_err();
        assert!(matches!(e, Error::Numerical(_)), "{e}");
    }
}
