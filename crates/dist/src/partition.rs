//! The container of a sharded statevector.
//!
//! Rank `r` owns amplitudes whose top `log2(R)` index bits equal `r`
//! (PGAS layout, as in SV-Sim): global index = `(rank << n_local) | local`.
//! Gates on local qubits run independently per rank; gates touching
//! global qubits require partner ranks to exchange partitions, which is
//! where all communication cost comes from. [`crate::shard`] executes
//! circuits on this layout; [`DistStateVector`] only holds the result.

use crate::comm::CommStats;
use nwq_common::bits::dim;
use nwq_common::{Error, Result, C64, C_ONE, C_ZERO};
use nwq_statevec::StateVector;

/// Local qubits per rank when `n_qubits` are split over `n_ranks` — the
/// one layout check the executor, both planners and `plan_layout` share:
/// `n_ranks` must be a power of two small enough that every rank keeps
/// at least 2 local qubits (so two-qubit local gates remain possible).
pub(crate) fn local_qubits(n_qubits: usize, n_ranks: usize) -> Result<usize> {
    if !n_ranks.is_power_of_two() {
        return Err(Error::Invalid(format!(
            "{n_ranks} ranks: must be a power of two"
        )));
    }
    let n_global = n_ranks.trailing_zeros() as usize;
    if n_global + 2 > n_qubits {
        return Err(Error::Invalid(format!(
            "{n_ranks} ranks leave fewer than 2 local qubits of a {n_qubits}-qubit register"
        )));
    }
    Ok(n_qubits - n_global)
}

/// A statevector distributed over `n_ranks` shards.
#[derive(Clone, Debug)]
pub struct DistStateVector {
    n_qubits: usize,
    n_local: usize,
    partitions: Vec<Vec<C64>>,
    comm: CommStats,
}

impl DistStateVector {
    /// `|0…0⟩` distributed over `n_ranks` (see the layout rule on
    /// [`crate::plan_communication`]).
    pub fn zero(n_qubits: usize, n_ranks: usize) -> Result<Self> {
        let n_local = local_qubits(n_qubits, n_ranks)?;
        let mut partitions = vec![vec![C_ZERO; dim(n_local)]; n_ranks];
        partitions[0][0] = C_ONE;
        Ok(DistStateVector {
            n_qubits,
            n_local,
            partitions,
            comm: CommStats::default(),
        })
    }

    /// Assembles a distributed state from worker-produced shards (the real
    /// sharded executor's reassembly path). Shard shape is the caller's
    /// invariant: `partitions.len()` ranks of `2^n_local` amplitudes each.
    pub(crate) fn from_parts(
        n_qubits: usize,
        n_local: usize,
        partitions: Vec<Vec<C64>>,
        comm: CommStats,
    ) -> Self {
        debug_assert_eq!(partitions.len() << n_local, dim(n_qubits));
        debug_assert!(partitions.iter().all(|p| p.len() == dim(n_local)));
        DistStateVector {
            n_qubits,
            n_local,
            partitions,
            comm,
        }
    }

    /// Read-only view of one rank's shard (global indices
    /// `rank·2^n_local .. (rank+1)·2^n_local`).
    pub fn partition(&self, rank: usize) -> &[C64] {
        &self.partitions[rank]
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Rank count.
    pub fn n_ranks(&self) -> usize {
        self.partitions.len()
    }

    /// Qubits stored within each rank (the rest select the rank).
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Communication counters accumulated so far.
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Gathers the partitions into a single-node [`StateVector`]
    /// (the verification/readout path).
    pub fn gather(&self) -> StateVector {
        let mut amps = Vec::with_capacity(dim(self.n_qubits));
        for p in &self.partitions {
            amps.extend_from_slice(p);
        }
        StateVector::from_amplitudes(amps).expect("partition sizes are powers of two")
    }

    /// Amplitudes per rank partition.
    pub fn partition_len(&self) -> usize {
        self.partitions[0].len()
    }

    /// Overwrites one amplitude of one rank's partition — the
    /// fault-injection hook modelling a corrupted exchange payload. The
    /// simulator itself never calls this.
    pub fn corrupt_amplitude(&mut self, rank: usize, index: usize, value: C64) -> Result<()> {
        let part = self.partitions.get_mut(rank).ok_or(Error::Invalid(format!(
            "rank {rank} out of range for corruption hook"
        )))?;
        let len = part.len();
        let slot = part.get_mut(index).ok_or(Error::Invalid(format!(
            "amplitude {index} out of range {len}"
        )))?;
        *slot = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks() {
        assert!(DistStateVector::zero(4, 3).is_err());
        assert!(DistStateVector::zero(3, 4).is_err()); // < 2 local qubits
        let d = DistStateVector::zero(5, 4).unwrap();
        assert_eq!(d.n_local(), 3);
        assert_eq!(d.n_ranks(), 4);
        assert_eq!(d.gather().probability(0), 1.0);
    }
}
