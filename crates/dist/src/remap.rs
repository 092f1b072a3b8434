//! Communication-avoiding qubit layout (the SV-Sim qubit-remapping
//! technique).
//!
//! On a partitioned statevector only gates touching *global* qubits (the
//! bits encoded in the rank id) communicate. Since the initial state
//! `|0…0⟩` is symmetric under qubit relabeling, the executor is free to
//! choose *which logical qubits* occupy the global positions before the
//! run starts — for free. [`plan_layout`] puts the most frequently used
//! logical qubits in local positions; run the circuit with every gate
//! remapped through that layout ([`nwq_circuit::Gate::remapped`]), and
//! [`unpermute`] the gathered state back to logical order — the same
//! amplitudes with (often dramatically) fewer exchanges.

use crate::partition::local_qubits;
use nwq_circuit::Circuit;
use nwq_common::{Error, Result, C64};
use nwq_statevec::StateVector;

/// Number of gates touching each qubit.
pub fn gate_frequency(circuit: &Circuit) -> Vec<usize> {
    let mut freq = vec![0usize; circuit.n_qubits()];
    for g in circuit.gates() {
        for q in g.qubits() {
            freq[q] += 1;
        }
    }
    freq
}

/// Chooses a logical→physical map placing the `n_local` busiest qubits in
/// local positions (`0..n_local`), busiest first; ties break toward the
/// original order so the map is deterministic.
pub fn plan_layout(circuit: &Circuit, n_ranks: usize) -> Result<Vec<usize>> {
    // Same layout rule the executor and planners enforce.
    local_qubits(circuit.n_qubits(), n_ranks)?;
    let freq = gate_frequency(circuit);
    let mut order: Vec<usize> = (0..circuit.n_qubits()).collect();
    order.sort_by_key(|&q| (std::cmp::Reverse(freq[q]), q));
    // order[i] is the i-th busiest logical qubit: give it physical slot i.
    let mut layout = vec![0usize; circuit.n_qubits()];
    for (physical, &logical) in order.iter().enumerate() {
        layout[logical] = physical;
    }
    Ok(layout)
}

/// Permutes a physical-layout statevector back to logical qubit order:
/// `out[logical_index] = amps[physical_index]` where physical bit
/// `layout[q]` carries logical bit `q`.
pub fn unpermute(state: &StateVector, layout: &[usize]) -> Result<StateVector> {
    if layout.len() != state.n_qubits() {
        return Err(Error::DimensionMismatch {
            expected: state.n_qubits(),
            got: layout.len(),
        });
    }
    let n = layout.len();
    let amps = state.amplitudes();
    let mut out = vec![C64::default(); amps.len()];
    for (phys_idx, &a) in amps.iter().enumerate() {
        let mut logical_idx = 0usize;
        for (q, &p) in layout.iter().enumerate().take(n) {
            if (phys_idx >> p) & 1 == 1 {
                logical_idx |= 1 << q;
            }
        }
        out[logical_idx] = a;
    }
    StateVector::from_amplitudes(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sharded, CommStats, ShardOptions};
    use nwq_circuit::Circuit;

    /// Runs `circuit` under its planned layout; returns the logical-order
    /// state and the measured communication.
    fn run_with_layout(circuit: &Circuit, n_ranks: usize) -> (StateVector, CommStats) {
        let layout = plan_layout(circuit, n_ranks).unwrap();
        let mut remapped = Circuit::with_params(circuit.n_qubits(), circuit.n_params());
        for g in circuit.gates() {
            remapped.push(g.remapped(|q| layout[q])).unwrap();
        }
        let dist = run_sharded(&remapped, &[], n_ranks, &ShardOptions::default()).unwrap();
        let logical = unpermute(&dist.gather(), &layout).unwrap();
        (logical, dist.comm_stats())
    }

    fn comm_without_layout(circuit: &Circuit, n_ranks: usize) -> CommStats {
        run_sharded(circuit, &[], n_ranks, &ShardOptions::default())
            .unwrap()
            .comm_stats()
    }

    /// Adversarial circuit: all activity on the *top* qubits, which a
    /// naive layout makes global.
    fn top_heavy(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..4 {
            c.h(n - 1).rz(n - 1, 0.3).cx(n - 1, n - 2).ry(n - 2, 0.4);
        }
        c
    }

    #[test]
    fn frequency_counting() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.1).cx(0, 2);
        assert_eq!(gate_frequency(&c), vec![3, 1, 2]);
    }

    #[test]
    fn layout_places_busy_qubits_local() {
        let c = top_heavy(6);
        let layout = plan_layout(&c, 4).unwrap(); // 4 local, 2 global slots
                                                  // Qubits 4 and 5 are the busiest: both must land in 0..4.
        assert!(layout[5] < 4, "layout {layout:?}");
        assert!(layout[4] < 4, "layout {layout:?}");
        // Layout is a permutation.
        let mut seen = layout.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn remapped_execution_matches_single_node() {
        let c = top_heavy(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4] {
            let (state, _) = run_with_layout(&c, n_ranks);
            assert!(
                (state.fidelity(&single).unwrap() - 1.0).abs() < 1e-10,
                "ranks={n_ranks}"
            );
            // Amplitude-exact, not just up to phase/permutation.
            for (a, b) in state.amplitudes().iter().zip(single.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-10));
            }
        }
    }

    #[test]
    fn remapping_eliminates_comm_on_top_heavy_circuit() {
        let c = top_heavy(6);
        let naive = comm_without_layout(&c, 4);
        let (_, remapped) = run_with_layout(&c, 4);
        assert!(naive.messages > 0, "test circuit must communicate naively");
        assert_eq!(
            remapped.messages, 0,
            "all activity fits in local qubits after remapping"
        );
    }

    #[test]
    fn remapping_never_hurts_on_mixed_circuit() {
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 5).rz(5, 0.4).cx(5, 0).h(5).cx(2, 3).swap(1, 4);
        let naive = comm_without_layout(&c, 4);
        let (state, remapped) = run_with_layout(&c, 4);
        assert!(remapped.messages <= naive.messages);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        assert!((state.fidelity(&single).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unpermute_identity_layout_is_noop() {
        let s = StateVector::basis(3, 5).unwrap();
        let out = unpermute(&s, &[0, 1, 2]).unwrap();
        assert_eq!(out.amplitudes(), s.amplitudes());
        assert!(unpermute(&s, &[0, 1]).is_err());
    }

    #[test]
    fn unpermute_swap_layout() {
        // Layout [1, 0, 2]: logical 0 lives at physical 1. Physical |010⟩
        // (idx 2) means logical qubit 0 set → logical idx 1.
        let s = StateVector::basis(3, 2).unwrap();
        let out = unpermute(&s, &[1, 0, 2]).unwrap();
        assert!((out.probability(1) - 1.0).abs() < 1e-12);
    }
}
