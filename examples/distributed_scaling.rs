//! Distributed (multi-rank) execution demo — the HPC substrate.
//!
//! ```text
//! cargo run --release -p nwq-core --example distributed_scaling
//! ```
//!
//! Runs a UCCSD energy evaluation on the sharded PGAS statevector at
//! increasing rank counts, verifying bit-exactness against the
//! single-node engine and reporting the communication each configuration
//! generates plus its modeled time on a Perlmutter-like machine.

use nwq_chem::molecules::h2_sto3g;
use nwq_chem::uccsd::uccsd_ansatz;
use nwq_core::backend::{Backend, DirectBackend, DistributedBackend};
use nwq_dist::{plan_communication, CostModel};

fn main() {
    println!("=== Distributed statevector execution: H2 UCCSD ===\n");
    let mol = h2_sto3g();
    let h = mol.to_qubit_hamiltonian().expect("hamiltonian builds");
    let ansatz = uccsd_ansatz(4, 2).expect("ansatz builds");
    let theta = vec![0.05, -0.03, 0.11];

    // Reference energy from the single-node engine.
    let mut single = DirectBackend::new();
    let e_ref = single
        .energy(&ansatz, &theta, &h)
        .expect("single-node energy");
    println!("single-node energy: {e_ref:+.8} Ha\n");

    println!(
        "{:>6} {:>14} {:>10} {:>12} {:>12}",
        "ranks", "E [Ha]", "messages", "bytes", "|dE|"
    );
    for n_ranks in [1usize, 2, 4] {
        let mut dist = DistributedBackend::new(n_ranks);
        let e = dist
            .energy(&ansatz, &theta, &h)
            .expect("distributed energy");
        let comm = dist.comm_stats();
        println!(
            "{:>6} {:>14.8} {:>10} {:>12} {:>12.2e}",
            n_ranks,
            e,
            comm.messages,
            comm.bytes,
            (e - e_ref).abs()
        );
        assert!((e - e_ref).abs() < 1e-12, "distributed result diverged");
    }

    println!("\n=== Modeled strong scaling of a 24-qubit UCCSD ansatz ===\n");
    let big = uccsd_ansatz(24, 10).expect("24-qubit ansatz builds");
    let model = CostModel::perlmutter_like();
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "ranks", "messages", "glob.frac", "comm [s]", "comp [s]", "total [s]"
    );
    let t1 = model.compute_time_s(big.len() as u64, 24, 1);
    for exp in 0..=7 {
        let n_ranks = 1usize << exp;
        let plan = plan_communication(&big, n_ranks).expect("power-of-two ranks");
        let comm = model.comm_time_s(&plan, n_ranks);
        let comp = model.compute_time_s(big.len() as u64, 24, n_ranks);
        let total = comm + comp;
        let efficiency = t1 / (n_ranks as f64 * total);
        println!(
            "{:>6} {:>12} {:>10.3} {:>12.4} {:>12.4} {:>12.4}   eff {:>5.1}%",
            n_ranks,
            plan.messages,
            plan.global_fraction(),
            comm,
            comp,
            total,
            efficiency * 100.0
        );
    }
    println!(
        "\ncommunication erodes parallel efficiency as ranks grow — the \
         classic distributed-statevector tax the paper's PGAS design manages"
    );
}
