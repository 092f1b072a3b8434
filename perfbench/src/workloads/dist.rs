//! `dist_24q`: a layered RY / CX-ring / RZZ circuit run three ways — the
//! 2-rank sharded executor with a gather-free energy readout, the
//! single-node compiled-plan baseline, and a resilient 2-rank run on a
//! smaller register with snapshots and one seeded rank death. The large
//! register is several times the L3 cache, so kernels are bandwidth-bound
//! and the pair exchanges move real data.

use super::{run_for, state_size, timed, SETUP_REPS};
use crate::gen::{stratified, Rng};
use crate::report::{repeat_setup, Outcome};
use crate::stats::median;
use crate::trace::Trace;
use crate::Args;
use nwq_circuit::Circuit;
use nwq_common::Result;
use nwq_dist::{
    distributed_energy, plan_communication, run_sharded, run_sharded_resilient, CostModel,
    DistStateVector, FaultSchedule, RecoveryOptions, ShardOptions,
};
use nwq_pauli::PauliOp;
use nwq_statevec::executor::Executor;
use nwq_statevec::{expval, plan_cache};

/// Register of the sharded and single-node runs.
pub const QUBITS: usize = 24;
/// Register of the resilient runs: at 128 MiB past the L3 like the large
/// one. Registers that fit in the shared L3 (20 and 22 qubits) ran up to
/// 25 % slower while other tenants were busy, spreading the medians of runs
/// twice as wide.
pub const RECOVER_QUBITS: usize = 23;
/// The resilient runs' phase lasts this many times `--seconds`: a run takes
/// about 2 s, and host load drifts over tens of seconds, so a longer phase
/// gives `recover_s` more samples over a wider window.
const RECOVER_PHASE: f64 = 2.0;
const RANKS: usize = 2;
const LAYERS: usize = 1;
const SNAPSHOT_EVERY: usize = 16;
/// Seeded rank deaths the resilient runs cycle through.
const DEATHS: usize = 64;
/// Deaths come in blocks of this many whose distances past the last
/// snapshot, and so the gates each recovery replays, are stratified.
const DEATH_BLOCK: usize = 8;
/// Sharded energies must match the single-node plan to this (not bitwise:
/// the sharded path runs unfused, the single-node plan fused).
const TOLERANCE: f64 = 1e-10;

/// The generated inputs: rotation angles and the rank-death schedule.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub angles: Vec<f64>,
    pub deaths: Vec<(usize, usize)>,
}

fn gates(n: usize) -> usize {
    n + LAYERS * (2 * n + n / 2)
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 5);
    let angles = (0..LAYERS * (QUBITS + QUBITS / 2))
        .map(|_| rng.range(-std::f64::consts::PI, std::f64::consts::PI))
        .collect();
    // A death at `interval * SNAPSHOT_EVERY + offset` replays `offset`
    // gates; each block covers the offsets evenly, so the replayed work in a
    // phase barely depends on the seed.
    let offsets: Vec<f64> = (0..DEATHS / DEATH_BLOCK)
        .flat_map(|_| stratified(&mut rng, DEATH_BLOCK, 0.0, SNAPSHOT_EVERY as f64))
        .collect();
    let intervals = gates(RECOVER_QUBITS) / SNAPSHOT_EVERY;
    let deaths = offsets
        .into_iter()
        .map(|o| {
            let gate = rng.below(intervals) * SNAPSHOT_EVERY + o as usize;
            (gate, rng.below(RANKS))
        })
        .collect();
    Inputs { angles, deaths }
}

/// H on every qubit, then per layer an RY sweep, a CX ring (whose
/// wrap-around link crosses the rank boundary) and an RZZ ladder.
fn circuit(n: usize, angles: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    let mut a = angles.iter().copied();
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..LAYERS {
        for q in 0..n {
            c.ry(q, a.next().unwrap_or(0.3));
        }
        for q in 0..n {
            c.cx(q, (q + 1) % n);
        }
        for q in (0..n - 1).step_by(2) {
            c.rzz(q, q + 1, a.next().unwrap_or(0.2));
        }
    }
    c
}

/// ZZ on the ring plus X fields.
fn observable(n: usize) -> Result<PauliOp> {
    let mut terms = Vec::new();
    for q in 0..n {
        let mut zz = vec!['I'; n];
        zz[q] = 'Z';
        zz[(q + 1) % n] = 'Z';
        terms.push(format!("0.5 {}", zz.iter().collect::<String>()));
        let mut x = vec!['I'; n];
        x[q] = 'X';
        terms.push(format!("0.25 {}", x.iter().collect::<String>()));
    }
    PauliOp::parse(&terms.join(" + "))
}

struct Setup {
    big: Circuit,
    small: Circuit,
    obs: PauliOp,
    plan_s: f64,
    /// The fault-free resilient run every recovered run must equal.
    clean: DistStateVector,
    clean_s: f64,
}

/// Circuits, observable and comm plan, plus the reference the recovery
/// checks need — this workload's counterpart of an exact reference.
fn setup(inputs: &Inputs) -> Result<Setup> {
    let big = circuit(QUBITS, &inputs.angles);
    let small = circuit(RECOVER_QUBITS, &inputs.angles);
    let (plan, plan_s) = timed(|| plan_communication(&big, RANKS));
    plan?;
    let (clean, clean_s) = timed(|| resilient(&small, &FaultSchedule::none()));
    Ok(Setup {
        big,
        small,
        obs: observable(QUBITS)?,
        plan_s,
        clean: clean?.0,
        clean_s,
    })
}

fn shard(s: &Setup) -> Result<(DistStateVector, f64)> {
    let state = run_sharded(&s.big, &[], RANKS, &ShardOptions::default())?;
    let e = distributed_energy(&state, &s.obs)?;
    Ok((state, e))
}

fn resilient(small: &Circuit, schedule: &FaultSchedule) -> Result<(DistStateVector, u32)> {
    let recovery = RecoveryOptions {
        snapshot_every: SNAPSHOT_EVERY,
        ..RecoveryOptions::default()
    };
    let opts = ShardOptions::default();
    let (state, report) = run_sharded_resilient(small, &[], RANKS, &opts, &recovery, schedule)?;
    Ok((state, report.recoveries))
}

fn bitwise_equal(a: &DistStateVector, b: &DistStateVector) -> bool {
    (0..a.n_ranks()).all(|r| {
        let (x, y) = (a.partition(r), b.partition(r));
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits())
    })
}

/// One resilient run with a seeded death, checked bitwise against the
/// fault-free resilient run and for exactly one recovery. Returns its
/// wall time and the recoveries it reported.
fn recover(out: &mut Outcome, s: &Setup, death: (usize, usize)) -> (f64, u32) {
    let (r, t) = timed(|| resilient(&s.small, &FaultSchedule::kill(death.0, death.1)));
    let ok = matches!(&r, Ok((st, n)) if *n == 1 && bitwise_equal(st, &s.clean));
    out.check(ok, || {
        format!("recovery from rank {} dying at gate {}", death.1, death.0)
    });
    (t, r.map_or(0, |(_, n)| n))
}

pub fn run(args: Args) -> Result<Outcome> {
    let inputs = inputs(args.seed);
    let (s, setup_s) = repeat_setup(SETUP_REPS, || setup(&inputs))?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    // Resilient runs get a phase of their own, before and on top of the
    // sharded runs and straight after the set-up that already ran the
    // fault-free one, so none is timed next to a 24-qubit run (their medians
    // spread about twice as wide between runs when interleaved).
    let mut recoveries = Vec::new();
    if !args.trace {
        run_for(args.seconds * RECOVER_PHASE, |k| {
            recoveries.push(recover(&mut out, &s, inputs.deaths[k % DEATHS]).0);
        });
    }

    // Single-node baseline through the public statevec layers; its energy
    // is the reference every sharded energy is checked against.
    let mut t = Trace::default();
    let reference = {
        let template = t.time("plan.template", None, || {
            plan_cache::clear();
            plan_cache::template_for(&s.big)
        })?;
        let plan = t.time("plan.bind", None, || template.bind(&[]))?;
        let state = t.time("evolve", None, || Executor::new().run_plan(&plan))?;
        let e = t.time("expval", None, || {
            expval::energy_direct_batched(&state, &s.obs)
        })?;
        out.set("plan.templates", 1.0);
        out.set("plan.binds", 1.0);
        out.set("plan.ops", plan.len() as f64);
        out.set("plan.gates_in", template.gates_in() as f64);
        out.set("evolve.updates", (plan.len() * state.len()) as f64);
        out.set("expval.terms", s.obs.num_terms() as f64);
        out.set(
            "expval.flip_groups",
            expval::flip_groups(&s.obs).len() as f64,
        );
        e
    };
    let check_energy = |out: &mut Outcome, e: Result<f64>| {
        out.check(
            matches!(e, Ok(e) if (e - reference).abs() <= TOLERANCE),
            || format!("sharded energy {e:?} vs single-node {reference}"),
        );
    };

    if !args.trace {
        let mut runs = Vec::new();
        run_for(args.seconds, |_| {
            let (r, dt) = timed(|| shard(&s).map(|(_, e)| e));
            runs.push(dt);
            check_energy(&mut out, r);
        });
        eprintln!(
            "dist_24q: {} resilient runs, {} sharded runs",
            recoveries.len(),
            runs.len()
        );
        out.set("shard_s", median(&runs));
        out.set("recover_s", median(&recoveries));
        out.alias_missing(median(&runs));
        return Ok(out);
    }

    let (r, untraced_s) = timed(|| shard(&s).map(|(_, e)| e));
    check_energy(&mut out, r);
    let pass = t.open("dist.shard", None);
    let state = t.time("dist.run", Some(pass), || {
        run_sharded(&s.big, &[], RANKS, &ShardOptions::default())
    })?;
    let e = t.time("dist.readout", Some(pass), || {
        distributed_energy(&state, &s.obs)
    });
    t.close(pass);
    check_energy(&mut out, e);
    let (run_s, readout_s) = (t.total("dist.run"), t.total("dist.readout"));
    let single_s: f64 = ["plan.template", "plan.bind", "evolve", "expval"]
        .iter()
        .map(|n| t.total(n))
        .sum();
    let stats = state.comm_stats();
    drop(state);
    let (plain, plain_s) = timed(|| run_sharded(&s.small, &[], RANKS, &ShardOptions::default()));
    plain?;
    let (recovered_s, recoveries) = recover(&mut out, &s, inputs.deaths[0]);
    let modeled =
        CostModel::perlmutter_like().total_time_s(&stats, s.big.len() as u64, QUBITS, RANKS);
    out.set("dist.plan_s", s.plan_s);
    out.set("dist.run_s", run_s);
    out.set("dist.readout_s", readout_s);
    out.set("single_node_s", single_s);
    out.set("dist.speedup_vs_single", single_s / (run_s + readout_s));
    out.set("comm.messages", stats.messages as f64);
    out.set("comm.bytes", stats.bytes as f64);
    out.set("comm.exchanges_elided", stats.exchanges_elided as f64);
    out.set("comm.exchanges_fused", stats.exchanges_fused as f64);
    out.set("comm.bytes_saved", stats.bytes_saved as f64);
    out.set("costmodel.ratio", run_s / modeled);
    out.set("snapshot.overhead", s.clean_s / plain_s);
    out.set("recovery.count", f64::from(recoveries));
    out.set("recovery.replay_s", recovered_s - s.clean_s);
    let evolve_s = t.total("evolve");
    out.set("plan.template_s", t.total("plan.template"));
    out.set("plan.bind_s", t.total("plan.bind"));
    out.set("evolve_s", evolve_s);
    let updates = out.values["evolve.updates"];
    out.set("evolve.updates_per_s", updates / evolve_s);
    out.set("evolve.bytes_computed", updates * 32.0);
    out.set("expval_s", t.total("expval"));
    out.set(
        "trace.coverage",
        (run_s + readout_s) / t.total("dist.shard"),
    );
    out.set("trace.overhead", t.total("dist.shard") / untraced_s);
    out.set("trace.units", 1.0);
    state_size(&mut out, QUBITS);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(5), inputs(5));
        assert_ne!(inputs(5), inputs(6));
        assert!(inputs(5)
            .deaths
            .iter()
            .all(|&(g, r)| g < gates(RECOVER_QUBITS) && r < RANKS));
        assert_eq!(
            circuit(RECOVER_QUBITS, &inputs(5).angles).len(),
            gates(RECOVER_QUBITS)
        );
    }

    #[test]
    fn every_death_block_covers_the_snapshot_interval() {
        let width = SNAPSHOT_EVERY / DEATH_BLOCK;
        for block in inputs(5).deaths.chunks(DEATH_BLOCK) {
            let mut strata: Vec<usize> = block
                .iter()
                .map(|&(g, _)| g % SNAPSHOT_EVERY / width)
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..DEATH_BLOCK).collect::<Vec<_>>());
        }
    }
}
