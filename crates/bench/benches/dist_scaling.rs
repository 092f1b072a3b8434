//! Distributed-engine overhead: the same circuit executed at increasing
//! shard counts (the strong-scaling communication tax), plus the
//! static planner's cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nwq_circuit::Circuit;
use nwq_dist::{plan_communication, run_sharded, ShardOptions};
use nwq_statevec::simulate;

fn ghz_plus_rotations(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    for q in 0..n {
        c.rz(q, 0.1 * q as f64);
        c.ry(q, -0.05 * q as f64);
    }
    c.swap(0, n - 1);
    c
}

fn bench_rank_scaling(c: &mut Criterion) {
    let circuit = ghz_plus_rotations(14);
    let mut group = c.benchmark_group("dist_execution_14q");
    group.sample_size(10);
    group.bench_function("single_node", |b| {
        b.iter(|| simulate(&circuit, &[]).unwrap())
    });
    for n_ranks in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("ranks", n_ranks),
            &n_ranks,
            |b, &n_ranks| {
                b.iter(|| {
                    run_sharded(&circuit, &[], n_ranks, &ShardOptions::default())
                        .unwrap()
                        .gather()
                })
            },
        );
    }
    group.finish();
}

fn bench_comm_planner(c: &mut Criterion) {
    let circuit = ghz_plus_rotations(24);
    let mut group = c.benchmark_group("comm_planner_24q");
    for n_ranks in [16usize, 256] {
        group.bench_with_input(
            BenchmarkId::from_parameter(n_ranks),
            &n_ranks,
            |b, &n_ranks| b.iter(|| plan_communication(&circuit, n_ranks)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_rank_scaling, bench_comm_planner
}
criterion_main!(benches);
