//! `serve_mixed`: an `nwq_serve::Server` on loopback with two workers,
//! driven open-loop over two client connections — one submits on a
//! seeded schedule, one collects results. Energy jobs on the
//! registry's `water` problem draw θ either from a small hot set (so the
//! shared cache hits and the batcher merges) or fresh; a small share are
//! h2 VQE jobs. Phase 1 offers a fixed rate below capacity (latency);
//! phase 2 offers more than capacity (throughput at saturation).

use super::{state_size, timed, SETUP_REPS};
use crate::gen::{jitter, Rng};
use crate::report::{more_setup, Outcome};
use crate::stats::{median, tail, Timing};
use crate::Args;
use nwq_common::{Error, Result};
use nwq_core::backend::{Backend, DirectBackend};
use nwq_core::run_vqe;
use nwq_opt::NelderMead;
use nwq_serve::problem::{build_problem, ServeProblem};
use nwq_serve::{Client, EngineConfig, JobSpec, Server, ServerConfig, SubmitOutcome};
use nwq_statevec::plan_cache;
use nwq_telemetry::JsonValue;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Phase-1 offered rate (jobs/s), frozen well below the 2-worker capacity
/// (about 650–1100 jobs/s on the reference host), so host CPU steal
/// stretches service times without tipping the workers into queueing.
pub const PHASE1_RATE: f64 = 150.0;
/// Phase-2 offered rate (jobs/s), above capacity.
pub const PHASE2_RATE: f64 = 1500.0;
/// Share of `--seconds` spent in phase 1.
const PHASE1_SHARE: f64 = 0.7;
/// Share of energy jobs whose θ repeats one of `HOT_SET` vectors.
pub const REPEAT_SHARE: f64 = 0.3;
const HOT_SET: usize = 16;
/// Share of jobs that are h2 VQE runs, from `H2_STARTS` seeded starts.
pub const H2_SHARE: f64 = 0.05;
const H2_STARTS: usize = 16;
const H2_MAX_EVALS: usize = 40;
const WORKERS: usize = 2;

/// One generated job.
#[derive(Clone, Debug, PartialEq)]
pub enum Job {
    Energy { theta: Vec<f64>, hot: bool },
    Vqe { start: usize },
}

/// The generated inputs: per phase, arrival offsets (seconds from the
/// phase start) with their jobs; and the h2 starting points.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub phases: [Vec<(f64, Job)>; 2],
    pub lengths: [f64; 2],
    pub h2_starts: Vec<Vec<f64>>,
}

/// Inter-arrival gap: Poisson (bursty) when offering more than capacity;
/// below capacity, paced with ±50 % seeded jitter, so phase-1 latency
/// measures the service rather than rare arrival bursts.
fn gap(rng: &mut Rng, rate: f64) -> f64 {
    if rate == PHASE1_RATE {
        rng.range(0.5, 1.5) / rate
    } else {
        rng.exp(1.0 / rate)
    }
}

pub fn inputs(seed: u64, seconds: f64, water_params: usize, h2_params: usize) -> Inputs {
    let mut rng = Rng::new(seed, 4);
    let hot: Vec<Vec<f64>> = (0..HOT_SET)
        .map(|_| jitter(&mut rng, water_params, 0.1))
        .collect();
    let h2_starts = (0..H2_STARTS)
        .map(|_| jitter(&mut rng, h2_params, 0.05))
        .collect();
    let lengths = [seconds * PHASE1_SHARE, seconds * (1.0 - PHASE1_SHARE)];
    let phases = [(PHASE1_RATE, lengths[0]), (PHASE2_RATE, lengths[1])].map(|(rate, length)| {
        let mut t = gap(&mut rng, rate);
        let mut jobs = Vec::new();
        while t < length {
            let job = if rng.unit() < H2_SHARE {
                Job::Vqe {
                    start: rng.below(H2_STARTS),
                }
            } else if rng.unit() < REPEAT_SHARE {
                Job::Energy {
                    theta: hot[rng.below(HOT_SET)].clone(),
                    hot: true,
                }
            } else {
                Job::Energy {
                    theta: jitter(&mut rng, water_params, 0.1),
                    hot: false,
                }
            };
            jobs.push((t, job));
            t += gap(&mut rng, rate);
        }
        jobs
    });
    Inputs {
        phases,
        lengths,
        h2_starts,
    }
}

fn spec(job: &Job, h2_starts: &[Vec<f64>]) -> JobSpec {
    match job {
        Job::Energy { theta, .. } => JobSpec::energy("water", theta.clone()),
        Job::Vqe { start } => JobSpec::vqe("h2", h2_starts[*start].clone(), H2_MAX_EVALS),
    }
}

fn err(e: impl std::fmt::Display) -> Error {
    Error::Backend(e.to_string())
}

/// A running server and the connection that drains it.
struct Live {
    server: JoinHandle<std::io::Result<()>>,
    submit: Client,
    addr: String,
}

fn start(warm: &[JobSpec]) -> Result<Live> {
    plan_cache::clear();
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: WORKERS,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(err)?;
    let addr = server.local_addr().map_err(err)?.to_string();
    let server = std::thread::spawn(move || server.run());
    let mut submit = Client::connect(&addr)?;
    // Warm-up: the registry builds each problem and compiles its plan
    // template on first use.
    for job in warm {
        if let SubmitOutcome::Accepted(id) = submit.submit(job)? {
            submit.wait_result(id)?;
        }
    }
    Ok(Live {
        server,
        submit,
        addr,
    })
}

impl Live {
    /// Drains the server and waits for it to exit.
    fn shutdown(mut self) -> Result<()> {
        self.submit.drain()?;
        drop(self.submit);
        self.server
            .join()
            .map_err(|_| err("server thread panicked"))?
            .map_err(err)
    }
}

/// What the generator did for one job, in seconds from the origin.
#[derive(Clone, Debug)]
struct Sent {
    phase: usize,
    due: f64,
    sent: f64,
    accepted: bool,
}

/// A collected result: when the collector read it, and the reply.
struct Got {
    index: usize,
    read: f64,
    reply: JsonValue,
}

/// Reads every accepted job's final result, in submission order.
fn collect(addr: String, rx: Receiver<(usize, u64)>, origin: Instant) -> Result<Vec<Got>> {
    let mut client = Client::connect(&addr)?;
    let mut got = Vec::new();
    for (index, id) in rx {
        let reply = client.wait_result(id)?;
        got.push(Got {
            index,
            read: origin.elapsed().as_secs_f64(),
            reply,
        });
    }
    Ok(got)
}

fn completed(client: &mut Client) -> Result<f64> {
    client
        .stats()?
        .get("engine")
        .and_then(|e| e.get("completed"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| err("stats reply without engine.completed"))
}

fn sleep_until(origin: Instant, t: f64) {
    let now = origin.elapsed().as_secs_f64();
    if t > now {
        std::thread::sleep(Duration::from_secs_f64(t - now));
    }
}

/// Runs both phases open-loop: each job is sent at its due time however
/// late the previous reply was. Returns the send records, the collected
/// replies and the phase-2 completion rate (jobs/s).
fn drive(live: &mut Live, inputs: &Inputs) -> Result<(Vec<Sent>, Vec<Got>, f64)> {
    let (tx, rx) = channel();
    let origin = Instant::now();
    let addr = live.addr.clone();
    let collector = std::thread::spawn(move || collect(addr, rx, origin));
    let mut sent = Vec::new();
    let mut phase_start = 0.0;
    let mut rate = 0.0;
    for (phase, jobs) in inputs.phases.iter().enumerate() {
        let done_before = if phase == 1 {
            completed(&mut live.submit)?
        } else {
            0.0
        };
        for (offset, job) in jobs {
            let due = phase_start + offset;
            sleep_until(origin, due);
            let at = origin.elapsed().as_secs_f64();
            let accepted = match live.submit.submit(&spec(job, &inputs.h2_starts))? {
                SubmitOutcome::Accepted(id) => {
                    tx.send((sent.len(), id)).map_err(err)?;
                    true
                }
                SubmitOutcome::Rejected { .. } => false,
            };
            sent.push(Sent {
                phase,
                due,
                sent: at,
                accepted,
            });
        }
        let end = phase_start + inputs.lengths[phase];
        sleep_until(origin, end);
        if phase == 1 {
            let now = origin.elapsed().as_secs_f64();
            rate = (completed(&mut live.submit)? - done_before) / (now - phase_start);
        }
        phase_start = origin.elapsed().as_secs_f64();
    }
    drop(tx);
    let got = collector
        .join()
        .map_err(|_| err("collector thread panicked"))??;
    Ok((sent, got, rate))
}

fn field(reply: &JsonValue, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(args: Args) -> Result<Outcome> {
    let (built, chem_s) = timed(|| -> Result<(ServeProblem, ServeProblem)> {
        Ok((build_problem("water")?, build_problem("h2")?))
    });
    let (water, h2) = built?;
    let inputs = inputs(
        args.seed,
        args.seconds,
        water.problem.ansatz.n_params(),
        h2.problem.ansatz.n_params(),
    );
    let warm = [
        spec(
            &Job::Energy {
                theta: vec![0.0; water.problem.ansatz.n_params()],
                hot: false,
            },
            &[],
        ),
        spec(&Job::Vqe { start: 0 }, &inputs.h2_starts),
    ];
    let mut times = Vec::new();
    let mut live: Option<Live> = None;
    while more_setup(&times, SETUP_REPS) {
        if let Some(previous) = live.take() {
            previous.shutdown()?;
        }
        let (l, t) = timed(|| start(&warm));
        times.push(t);
        live = Some(l?);
    }
    let mut live = live.expect("at least one set-up repetition");
    let mut out = Outcome::default();
    out.set("setup_s", median(&times));

    let (sent, got, rate) = drive(&mut live, &inputs)?;
    live.shutdown()?;

    // Check every served energy bitwise against a fresh DirectBackend.
    let jobs: Vec<&Job> = inputs.phases.iter().flatten().map(|(_, j)| j).collect();
    let verify_start = Instant::now();
    let bits = |theta: &[f64]| theta.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut thetas: Vec<Vec<f64>> = Vec::new();
    let mut seen = HashSet::new();
    for g in &got {
        if let Job::Energy { theta, .. } = jobs[g.index] {
            if seen.insert(bits(theta)) {
                thetas.push(theta.clone());
            }
        }
    }
    // `energy_batch` is bitwise the sequential `energy` path (the Backend
    // contract); batching only amortises the reference work.
    let mut fresh = DirectBackend::new();
    let p = &water.problem;
    let mut energy_refs: HashMap<Vec<u64>, f64> = HashMap::new();
    for chunk in thetas.chunks(16) {
        let es = fresh.energy_batch(&p.ansatz, chunk, &p.hamiltonian)?;
        for (theta, e) in chunk.iter().zip(es) {
            energy_refs.insert(bits(theta), e);
        }
    }
    let mut vqe_refs: Vec<Option<f64>> = vec![None; H2_STARTS];
    for g in &got {
        let served = field(&g.reply, "energy");
        let status = g
            .reply
            .get("status")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let expected = match jobs[g.index] {
            Job::Energy { theta, .. } => Ok(energy_refs[&bits(theta)]),
            Job::Vqe { start } => match vqe_refs[*start] {
                Some(e) => Ok(e),
                None => {
                    let mut opt = NelderMead::for_vqe();
                    let x0 = &inputs.h2_starts[*start];
                    let r = run_vqe(
                        &h2.problem,
                        &mut DirectBackend::new(),
                        &mut opt,
                        x0,
                        H2_MAX_EVALS,
                    );
                    let e = r.map(|r| r.energy);
                    vqe_refs[*start] = e.as_ref().ok().copied();
                    e
                }
            },
        };
        let ok = status == "done" && matches!(expected, Ok(e) if e.to_bits() == served.to_bits());
        out.check(ok, || {
            format!(
                "served job {}: {status} {served} vs fresh {expected:?}",
                g.index
            )
        });
    }
    eprintln!(
        "serve_mixed: verified in {:.2} s",
        verify_start.elapsed().as_secs_f64()
    );
    // A phase-1 refusal is a failed operation: phase 1 runs below capacity.
    for (i, s) in sent.iter().enumerate() {
        if s.phase == 0 && !s.accepted {
            out.check(false, || format!("phase-1 job {i} was refused"));
        }
    }

    // Latency from the due time to the engine's finish: the job's engine
    // wall time (admission to finish) placed on the client clock at its
    // send time. Reading the reply is reported apart, as transport.
    let phase1: Vec<&Got> = got.iter().filter(|g| sent[g.index].phase == 0).collect();
    let latency = |g: &Got| {
        let s = &sent[g.index];
        let done = s.sent + field(&g.reply, "wall_ms") / 1e3;
        Timing {
            due: s.due,
            sent: s.sent,
            done,
        }
        .latency()
            * 1e3
    };
    let ms: Vec<f64> = phase1.iter().map(|g| latency(g)).collect();
    let (p99, level) = tail(&ms);
    eprintln!(
        "serve_mixed: {} phase-1 jobs, tail level {level}; {} phase-2 submissions",
        ms.len(),
        sent.len() - ms.len()
    );
    out.set("p50_ms", median(&ms));
    out.set("p99_ms", p99);
    out.set("jobs_per_s", rate);
    out.alias_missing(median(&ms) / 1e3);

    let wait: Vec<f64> = phase1
        .iter()
        .map(|g| field(&g.reply, "queue_wait_ms"))
        .collect();
    let exec: Vec<f64> = phase1
        .iter()
        .map(|g| field(&g.reply, "wall_ms") - field(&g.reply, "queue_wait_ms"))
        .collect();
    let transport: Vec<f64> = phase1
        .iter()
        .map(|g| (g.read - sent[g.index].sent) * 1e3 - field(&g.reply, "wall_ms"))
        .collect();
    let energy: Vec<&Got> = got
        .iter()
        .filter(|g| matches!(jobs[g.index], Job::Energy { .. }))
        .collect();
    let share = |n: usize, d: usize| if d > 0 { n as f64 / d as f64 } else { 0.0 };
    let hot = jobs
        .iter()
        .filter(|j| matches!(j, Job::Energy { hot: true, .. }))
        .count();
    let n_energy = jobs
        .iter()
        .filter(|j| matches!(j, Job::Energy { .. }))
        .count();
    let late: Vec<f64> = sent
        .iter()
        .map(|s| {
            let t = Timing {
                due: s.due,
                sent: s.sent,
                done: s.sent,
            };
            t.lateness() * 1e3
        })
        .collect();
    out.set("serve.queue_wait_ms.p50", median(&wait));
    out.set("serve.queue_wait_ms.p99", tail(&wait).0);
    out.set("serve.exec_ms.p50", median(&exec));
    out.set("serve.exec_ms.p99", tail(&exec).0);
    out.set("serve.transport_ms.p50", median(&transport));
    out.set(
        "serve.batch_mean",
        energy
            .iter()
            .map(|g| field(&g.reply, "batch_size"))
            .sum::<f64>()
            / energy.len().max(1) as f64,
    );
    out.set(
        "serve.cache_hit_share",
        share(
            energy
                .iter()
                .filter(|g| g.reply.get("cache_hit").and_then(JsonValue::as_u64) == Some(1))
                .count(),
            energy.len(),
        ),
    );
    out.set("serve.repeat_share", share(hot, n_energy));
    out.set(
        "serve.h2_job_share",
        share(jobs.len() - n_energy, jobs.len()),
    );
    out.set(
        "serve.rejected_share",
        share(sent.iter().filter(|s| !s.accepted).count(), sent.len()),
    );
    out.set("gen.lag_ms.p99", tail(&late).0);
    let engine_ms: f64 = phase1.iter().map(|g| field(&g.reply, "wall_ms")).sum();
    let observed_ms: f64 = phase1
        .iter()
        .map(|g| (g.read - sent[g.index].sent) * 1e3)
        .sum();
    out.set("trace.coverage", engine_ms / observed_ms);
    // The serve layers come from fields every result reply carries; the
    // traced run records nothing the untraced run does not.
    out.set("trace.overhead", 1.0);
    out.set("trace.units", got.len() as f64);
    out.set("chem.build_s", chem_s);
    out.set("chem.terms", water.problem.hamiltonian.num_terms() as f64);
    state_size(&mut out, water.problem.ansatz.n_qubits());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(9, 2.0, 26, 3), inputs(9, 2.0, 26, 3));
        assert_ne!(inputs(9, 2.0, 26, 3), inputs(10, 2.0, 26, 3));
        let i = inputs(9, 2.0, 26, 3);
        assert!(i.phases[0].iter().all(|(t, _)| *t < i.lengths[0]));
        assert!(i.phases[1].len() > i.phases[0].len());
    }
}
