//! # nwq-dist
//!
//! Multi-rank (PGAS-style) distributed statevector execution — the
//! substrate standing in for NWQ-Sim's multi-node MPI/NVSHMEM backends on
//! Perlmutter/Summit:
//!
//! - [`shard`] — the executor: one OS worker thread per rank, true
//!   partner-exchange messages on global-qubit gates, bitwise identical
//!   to the single-node simulator. Three entry points share one tape
//!   compiler and one exchange protocol: [`run_sharded`],
//!   [`run_sharded_faulty`] and [`run_sharded_resilient`];
//! - [`partition::DistStateVector`] — the sharded amplitude container a
//!   run returns (read it with `gather()` or [`distributed_energy`]);
//! - [`energy`] — gather-free shard-parallel expectation values, so
//!   registers past single-allocation size can still be read out;
//! - [`comm`] — communication counters and the non-executing planners
//!   (the θ-aware plan, pinned to equal the measured exchange counts, and
//!   the naive full-exchange baseline);
//! - [`costmodel`] — α–β latency/bandwidth model with Perlmutter-like
//!   defaults, kept as a predictor checked against measured counters;
//! - [`remap`] — communication-avoiding qubit layout (pure helpers);
//! - [`faults`] — deterministic seeded fault injection (lost ranks,
//!   corrupted exchanges, norm drift, failed evaluations, recoverable
//!   rank deaths / message drops / stragglers) used to exercise the
//!   workspace's recovery paths;
//! - [`snapshot`] — versioned consistent-cut shard snapshots backing
//!   [`run_sharded_resilient`]'s bitwise rank-loss recovery.

#![warn(missing_docs)]

pub mod comm;
pub mod costmodel;
pub mod energy;
pub mod faults;
pub mod partition;
pub mod remap;
pub mod shard;
pub mod snapshot;

pub use comm::{plan_communication, plan_communication_naive, plan_communication_with, CommStats};
pub use costmodel::CostModel;
pub use energy::distributed_energy;
pub use faults::{
    FaultInjector, FaultSchedule, FaultSpec, FaultStats, MessageDrop, RankDeath, RankDelay,
};
pub use partition::DistStateVector;
pub use remap::{plan_layout, unpermute};
pub use shard::{
    run_sharded, run_sharded_faulty, run_sharded_resilient, RecoveryOptions, RecoveryReport,
    ShardOptions,
};
pub use snapshot::SnapshotStore;

#[cfg(test)]
mod proptests {
    use crate::{
        plan_communication, run_sharded, run_sharded_faulty, run_sharded_resilient, FaultInjector,
        FaultSchedule, FaultSpec, RecoveryOptions, ShardOptions,
    };
    use nwq_circuit::Circuit;
    use proptest::prelude::*;

    fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
        let gate = (0..8u8, 0..n, 1..n.max(2), -3.0..3.0f64);
        proptest::collection::vec(gate, 0..max_len).prop_map(move |specs| {
            let mut c = Circuit::new(n);
            for (kind, q, dq, angle) in specs {
                let q2 = (q + dq) % n;
                match kind {
                    0 => c.h(q),
                    1 => c.x(q),
                    2 => c.rz(q, angle),
                    3 => c.ry(q, angle),
                    4 if q2 != q => c.cx(q, q2),
                    5 if q2 != q => c.cz(q, q2),
                    6 if q2 != q => c.rzz(q, q2, angle),
                    7 if q2 != q => c.swap(q, q2),
                    _ => c.rx(q, angle),
                };
            }
            c
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn distributed_bit_exact_vs_single_node(
            c in (5usize..=6).prop_flat_map(|n| arb_circuit(n, 20))
        ) {
            // The real sharded run must be BITWISE identical to the
            // single-node simulator for every shard count — same kernel
            // arithmetic, same diagonal fast paths, exchange and all.
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            let opts = ShardOptions::default();
            let no_snapshots = RecoveryOptions {
                snapshot_every: 0,
                ..RecoveryOptions::default()
            };
            for n_ranks in [1usize, 2, 4, 8] {
                let d = run_sharded(&c, &[], n_ranks, &opts).unwrap();
                for (a, b) in d.gather().amplitudes().iter().zip(single.amplitudes()) {
                    prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                    prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
                // Measured exchange traffic equals the non-executing plan.
                let plan = plan_communication(&c, n_ranks).unwrap();
                prop_assert_eq!(d.comm_stats(), plan);
                // The resilient entry point with nothing to snapshot or
                // recover replays the same tape through the same protocol:
                // bitwise-equal shards and equal counters.
                let (r, report) = run_sharded_resilient(
                    &c, &[], n_ranks, &opts, &no_snapshots, &FaultSchedule::none(),
                ).unwrap();
                prop_assert_eq!(report.generations, 1);
                for rank in 0..n_ranks {
                    for (a, b) in r.partition(rank).iter().zip(d.partition(rank)) {
                        prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "resilient ranks={}", n_ranks);
                        prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "resilient ranks={}", n_ranks);
                    }
                }
                prop_assert_eq!(r.comm_stats(), d.comm_stats(), "resilient ranks={}", n_ranks);
            }
        }

        #[test]
        fn rank_death_replay_stays_bitwise(
            c in (5usize..=6).prop_flat_map(|n| arb_circuit(n, 20)),
            kill_seed in 0usize..1000,
        ) {
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            // A rank death replayed through the exchange protocol (elision
            // decisions and lost fusion mirrors included) stays bitwise.
            if !c.gates().is_empty() {
                let n_ranks = 4usize;
                let schedule = FaultSchedule::kill(
                    kill_seed % c.gates().len(),
                    (kill_seed / 7) % n_ranks,
                );
                let recovery = RecoveryOptions {
                    snapshot_every: 2,
                    max_recoveries: 8,
                    keep_versions: 2,
                    snapshot_dir: None,
                };
                // Short deadlines so the dead rank's partners give up fast.
                let faulty_opts = ShardOptions {
                    exchange_timeout_ms: 100,
                    exchange_retries: 2,
                };
                let (d, report) = run_sharded_resilient(
                    &c, &[], n_ranks, &faulty_opts, &recovery, &schedule,
                ).unwrap();
                prop_assert_eq!(report.recoveries, 1);
                for (a, b) in d.gather().amplitudes().iter().zip(single.amplitudes()) {
                    prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "recovered vs single");
                    prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "recovered vs single");
                }
            }
        }

        #[test]
        fn zero_rate_faulty_run_bit_exact(c in arb_circuit(5, 16)) {
            // A zero-rate FaultInjector consumes its RNG draws but must be
            // bitwise invisible to the executed state.
            let single = nwq_statevec::simulate(&c, &[]).unwrap();
            for n_ranks in [2usize, 4, 8] {
                let mut inj = FaultInjector::new(FaultSpec::default());
                let d = run_sharded_faulty(&c, &[], n_ranks, &mut inj).unwrap();
                prop_assert_eq!(inj.stats().total(), 0);
                for (a, b) in d.gather().amplitudes().iter().zip(single.amplitudes()) {
                    prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                    prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }

        #[test]
        fn comm_plan_matches_execution(c in arb_circuit(6, 24)) {
            for n_ranks in [2usize, 4] {
                let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
                let plan = plan_communication(&c, n_ranks).unwrap();
                prop_assert_eq!(d.comm_stats(), plan);
            }
        }

        #[test]
        fn comm_monotone_in_rank_count(c in arb_circuit(6, 24)) {
            let m2 = plan_communication(&c, 2).unwrap().messages;
            let m4 = plan_communication(&c, 4).unwrap().messages;
            let m8 = plan_communication(&c, 8).unwrap().messages;
            prop_assert!(m2 <= m4 && m4 <= m8);
        }
    }
}
