//! Sharded execution: one OS worker thread per rank, true message
//! exchange on global-qubit gates.
//!
//! This is the crate's only executor. Each rank's shard is owned by its
//! own thread, and a gate on a global qubit moves the partner's payload
//! through a channel (the in-process analog of an MPI sendrecv — same
//! pairing, payload sizes and message counts an MPI build would use).
//!
//! One compiler, `compile`, turns a circuit into the `Tape` every
//! worker replays: it binds every gate matrix once, classifies it
//! local/global against the PGAS layout, decides each global gate's
//! exchange (elided, half payload, fused, or full), and bakes in optional
//! snapshot barriers and precomputed faults. Workers then run lock-free —
//! the only cross-thread traffic is the amplitude payloads themselves.
//! [`crate::comm::plan_communication`] sums the same tape without running
//! it, so "measured equals planned" is a structural identity.
//!
//! Three entry points share that tape and one exchange protocol:
//! [`run_sharded`] (one worker generation), [`run_sharded_faulty`] (the
//! legacy seeded [`FaultInjector`]) and [`run_sharded_resilient`]
//! (snapshots plus bitwise replay recovery).
//!
//! Bitwise parity with the single-node simulator is a hard invariant
//! (pinned by tests and proptests across 1/2/4/8 shards): the per-shard
//! apply paths in [`nwq_statevec::kernels`] mirror the single-node
//! kernels' arithmetic exactly, including the diagonal fast paths.

use crate::comm::CommStats;
use crate::faults::{FaultInjector, FaultSchedule};
use crate::partition::{local_qubits, DistStateVector};
use crate::snapshot::SnapshotStore;
use nwq_circuit::{Circuit, Gate, GateMatrix};
use nwq_common::{Error, Mat2, Mat4, Result, C64, C_ONE, C_ZERO};
use nwq_statevec::kernels::{self, TileGate};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exchange deadlines for every sharded run.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Per-attempt receive deadline (milliseconds) on every pair-exchange.
    /// A partner that neither delivers nor disconnects within the deadline
    /// is retried with exponential backoff; after the retry budget the
    /// exchange fails instead of blocking forever.
    pub exchange_timeout_ms: u64,
    /// Bounded retry budget per exchange receive. Attempt `k` waits
    /// `exchange_timeout_ms << k`, so the defaults tolerate ~1 min of
    /// stall before declaring the partner lost.
    pub exchange_retries: u32,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            exchange_timeout_ms: 2000,
            exchange_retries: 4,
        }
    }
}

/// log2 of the tile in which a worker replays each run of rank-local gates
/// ([`kernels::apply_tile_run`]); shards of at most one tile run gate by
/// gate. Unit tests shrink it so their 5–6-qubit registers, and the
/// parity and recovery tests over them, cut real tile runs.
#[cfg(not(test))]
pub(crate) const TILE_BITS: usize = kernels::TILE_BITS;
#[cfg(test)]
pub(crate) const TILE_BITS: usize = 2;

/// One entry of the compiled, deterministic step list every worker replays.
#[derive(Clone, Debug)]
enum Step {
    /// Rank-local single-qubit gate.
    Local1(usize, Mat2),
    /// Rank-local two-qubit gate, original argument order (the kernel
    /// normalizes exactly like the single-node path).
    Local2(usize, usize, Mat4),
    /// Single-qubit gate on global (rank-id) bit `gbit`: pair exchange.
    Global1 { gbit: usize, m: Mat2 },
    /// Two-qubit gate, global bit `gbit` is the matrix high bit, `lo` is
    /// rank-local: pair exchange.
    GlobalLocal { gbit: usize, lo: usize, m: Mat4 },
    /// Two-qubit gate on two global bits (`bhi` the matrix high bit):
    /// quad all-to-all exchange.
    GlobalGlobal { bhi: usize, blo: usize, m: Mat4 },
    /// Injected fault: overwrite one amplitude of one rank with NaN.
    Corrupt { rank: usize, index: usize },
    /// Injected fault: scale one rank's shard by the drift factor.
    Drift { rank: usize },
    /// Injected fault: the named rank dies (always the final step — the
    /// legacy injector aborted the run at the point the loss fired).
    Lose { rank: usize },
    /// Snapshot barrier: every rank deposits a bitwise copy of its shard
    /// as `version` of the consistent cut.
    Snapshot { version: usize },
}

impl Step {
    /// Whether this step is a gate touching a global qubit.
    fn is_global(&self) -> bool {
        matches!(
            self,
            Step::Global1 { .. } | Step::GlobalLocal { .. } | Step::GlobalGlobal { .. }
        )
    }
}

/// Communication class of one tape step — a pure, deterministic function
/// of the step's bound matrix and the PGAS layout, shared verbatim by the
/// executing workers and the non-executing planner so "measured equals
/// planned" stays a structural identity (and so recovery replay reproduces
/// every elision decision bitwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CommClass {
    /// Rank-local step (gates, faults, snapshot barriers): no exchange.
    Local,
    /// Global gate with a diagonal matrix: a local phase sweep, zero
    /// messages (each rank's bits select its diagonal entries).
    Phase,
    /// Global-local gate block-split on the *global* bit: each rank
    /// applies its own 2×2 sub-block to the local qubit, zero messages.
    LocalApply,
    /// Dense pair exchange across global bit `gbit`: full-shard payload.
    PairFull { gbit: usize },
    /// Pair exchange across `gbit` where the partner's kernel reads only
    /// the local-qubit-`lo` == `v` half of the shard: half payload.
    PairHalf { gbit: usize, lo: usize, v: usize },
    /// Global-global gate block-split on global bit `sel`: each rank's
    /// `sel` bit picks a 2×2 sub-block acting across global bit `xbit`.
    /// Identity sub-blocks are skipped, diagonal ones scale locally, and
    /// only the `ndense` dense sub-blocks pair-exchange (full payload).
    GlobalBlock {
        sel: usize,
        xbit: usize,
        ndense: u32,
    },
    /// Dense global-global gate: full quad all-to-all.
    Quad,
}

/// Per-step communication record: the class, the bound matrix's shape
/// (for `Two` steps), and the compile-time fusion-window flags.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepComm {
    pub(crate) class: CommClass,
    /// Shape of the step's prenormalized matrix (`Dense` placeholder for
    /// non-two-qubit steps).
    pub(crate) shape: kernels::Mat4Shape,
    /// Sends per rank the naive full-exchange pattern would make for this
    /// step (1 pair / 3 quad / 0 local) — the `bytes_saved` baseline.
    pub(crate) naive_sends: u8,
    /// This step reuses the fusion mirror established by an earlier
    /// exchange in its window instead of exchanging again.
    pub(crate) fused: bool,
    /// A later step in the window still needs the mirror: keep advancing
    /// the partner copy past this step.
    pub(crate) track: bool,
}

/// Classifies one step. The shape lattice comes from
/// [`kernels::mat4_shape`]; the class decides the exchange *pattern* only
/// — the executor picks arithmetic from the step + shape.
fn classify_step(step: &Step) -> StepComm {
    use kernels::{mat4_shape, Mat4Shape, SubKind};
    let comm = |class, shape, naive_sends| StepComm {
        class,
        shape,
        naive_sends,
        fused: false,
        track: false,
    };
    match step {
        Step::Local1(..)
        | Step::Local2(..)
        | Step::Corrupt { .. }
        | Step::Drift { .. }
        | Step::Lose { .. }
        | Step::Snapshot { .. } => comm(CommClass::Local, Mat4Shape::Dense, 0),
        Step::Global1 { gbit, m } => {
            if kernels::mat2_is_diagonal(m) {
                comm(CommClass::Phase, Mat4Shape::Dense, 1)
            } else {
                comm(CommClass::PairFull { gbit: *gbit }, Mat4Shape::Dense, 1)
            }
        }
        Step::GlobalLocal { gbit, lo, m } => {
            let shape = mat4_shape(m);
            let class = match shape {
                Mat4Shape::Diagonal => CommClass::Phase,
                Mat4Shape::BlockHi { .. } => CommClass::LocalApply,
                Mat4Shape::BlockLo { ka, kb, .. } => {
                    match (ka == SubKind::Dense, kb == SubKind::Dense) {
                        (true, false) => CommClass::PairHalf {
                            gbit: *gbit,
                            lo: *lo,
                            v: 0,
                        },
                        (false, true) => CommClass::PairHalf {
                            gbit: *gbit,
                            lo: *lo,
                            v: 1,
                        },
                        // Both dense needs the partner's both halves; both
                        // non-dense cannot occur (that matrix is diagonal,
                        // caught above) but the full exchange stays correct.
                        _ => CommClass::PairFull { gbit: *gbit },
                    }
                }
                Mat4Shape::Dense => CommClass::PairFull { gbit: *gbit },
            };
            comm(class, shape, 1)
        }
        Step::GlobalGlobal { bhi, blo, m } => {
            let shape = mat4_shape(m);
            let class = match shape {
                Mat4Shape::Diagonal => CommClass::Phase,
                Mat4Shape::BlockHi { ka, kb, .. } => CommClass::GlobalBlock {
                    sel: *bhi,
                    xbit: *blo,
                    ndense: (ka == SubKind::Dense) as u32 + (kb == SubKind::Dense) as u32,
                },
                Mat4Shape::BlockLo { ka, kb, .. } => CommClass::GlobalBlock {
                    sel: *blo,
                    xbit: *bhi,
                    ndense: (ka == SubKind::Dense) as u32 + (kb == SubKind::Dense) as u32,
                },
                Mat4Shape::Dense => CommClass::Quad,
            };
            comm(class, shape, 3)
        }
    }
}

/// Marks the exchange-fusion windows on a classified tape.
///
/// Legality rule: consecutive pair exchanges with the *identical* class
/// (`PairFull` on the same global bit; `PairHalf` on the same
/// `(gbit, lo, v)`) fuse iff every intervening step is a global phase
/// (`Phase`, which both partners mirror deterministically) or a snapshot
/// barrier (reads shards, never writes). Any other step — local gates,
/// `LocalApply`, other exchanges, injected faults — invalidates the
/// partner mirror, so it closes every window. At most one window is open
/// at a time, which is why the executor carries a single mirror slot.
fn compute_fusion(steps: &[Step], comm: &mut [StepComm]) {
    let mut open: Option<(usize, CommClass)> = None;
    for j in 0..comm.len() {
        match comm[j].class {
            CommClass::Phase => {}
            CommClass::Local if matches!(steps[j], Step::Snapshot { .. }) => {}
            CommClass::PairFull { .. } | CommClass::PairHalf { .. } => {
                if let Some((prev, class)) = open {
                    if class == comm[j].class {
                        comm[prev].track = true;
                        comm[j].fused = true;
                        open = Some((j, class));
                        continue;
                    }
                }
                open = Some((j, comm[j].class));
            }
            _ => open = None,
        }
    }
}

/// The compiled run every worker replays: the step list, its per-step
/// communication plan (tape-aligned with `steps`), the armed fault plan,
/// and the gate accounting the planner reports.
pub(crate) struct Tape {
    steps: Vec<Step>,
    pub(crate) comm: Vec<StepComm>,
    faults: FaultPlan,
    n_qubits: usize,
    pub(crate) n_local: usize,
    n_ranks: usize,
    pub(crate) local_gates: u64,
    pub(crate) global_gates: u64,
    /// Snapshot barriers compiled into `steps`.
    snapshots: usize,
}

/// Classifies and resolves one gate against the PGAS layout.
fn gate_step(gate: &Gate, params: &[f64], n_local: usize) -> Result<Step> {
    Ok(match gate.matrix(params)? {
        GateMatrix::One(q, m) => {
            if q < n_local {
                Step::Local1(q, m)
            } else {
                Step::Global1 {
                    gbit: q - n_local,
                    m,
                }
            }
        }
        GateMatrix::Two(a, b, m) => match (a < n_local, b < n_local) {
            (true, true) => Step::Local2(a, b, m),
            (false, true) => Step::GlobalLocal {
                gbit: a - n_local,
                lo: b,
                m,
            },
            (true, false) => Step::GlobalLocal {
                gbit: b - n_local,
                lo: a,
                m: m.swap_qubits(),
            },
            (false, false) => {
                // Normalize like the single-node kernel: numerically
                // higher qubit becomes the matrix high bit.
                let (hi, lo, m) = if a > b {
                    (a, b, m)
                } else {
                    (b, a, m.swap_qubits())
                };
                Step::GlobalGlobal {
                    bhi: hi - n_local,
                    blo: lo - n_local,
                    m,
                }
            }
        },
    })
}

/// Compiles `circuit` (bound with `params`) into the per-gate tape for
/// `n_ranks` shards.
///
/// - `snapshot_every > 0` inserts a snapshot barrier before every
///   `snapshot_every`-th gate (0 compiles none).
/// - `schedule`'s faults are translated from gate to tape coordinates
///   and armed fire-once.
/// - `injector` draws its faults *here*, in a fixed per-gate order
///   (loss check before the gate; corruption, then drift, after a
///   global gate), so seeded runs reproduce: a rank loss freezes the
///   tape at that point, and corruption and drift become explicit steps.
pub(crate) fn compile(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    snapshot_every: usize,
    schedule: &FaultSchedule,
    mut injector: Option<&mut FaultInjector>,
) -> Result<Tape> {
    let n_qubits = circuit.n_qubits();
    let n_local = local_qubits(n_qubits, n_ranks)?;
    let mut steps = Vec::with_capacity(circuit.len() + 1);
    let mut faults = FaultPlan::default();
    let (mut local_gates, mut global_gates, mut snapshots) = (0u64, 0u64, 0usize);
    for (gate_idx, gate) in circuit.gates().iter().enumerate() {
        if snapshot_every > 0 && gate_idx > 0 && gate_idx % snapshot_every == 0 {
            steps.push(Step::Snapshot { version: snapshots });
            snapshots += 1;
        }
        faults.arm(schedule, gate_idx, steps.len());
        if let Some(inj) = injector.as_deref_mut() {
            if let Some(rank) = inj.should_lose_rank(n_ranks) {
                steps.push(Step::Lose { rank });
                break;
            }
        }
        let step = gate_step(gate, params, n_local)?;
        let global = step.is_global();
        steps.push(step);
        if !global {
            local_gates += 1;
            continue;
        }
        global_gates += 1;
        if let Some(inj) = injector.as_deref_mut() {
            if inj.should_corrupt_message() {
                let rank = inj.pick_index(n_ranks);
                let index = inj.pick_index(1 << n_local);
                steps.push(Step::Corrupt { rank, index });
            }
            if inj.should_drift_norm() {
                let rank = inj.pick_index(n_ranks);
                steps.push(Step::Drift { rank });
            }
        }
    }
    let mut comm: Vec<StepComm> = steps.iter().map(classify_step).collect();
    compute_fusion(&steps, &mut comm);
    Ok(Tape {
        steps,
        comm,
        faults,
        n_qubits,
        n_local,
        n_ranks,
        local_gates,
        global_gates,
        snapshots,
    })
}

/// Accumulates one classified step into planner totals — the single
/// source of truth both [`crate::comm::plan_communication`] and the
/// summed per-rank worker counters reduce to. `n` is the rank count and
/// `pb` the full-shard payload size in bytes.
pub(crate) fn accumulate_step(stats: &mut CommStats, sc: &StepComm, n: u64, pb: u64) {
    match sc.class {
        CommClass::Local => {}
        CommClass::Phase => {
            let msgs = sc.naive_sends as u64 * n;
            stats.exchanges_elided += msgs;
            stats.bytes_saved += msgs * pb;
        }
        CommClass::LocalApply => {
            stats.exchanges_elided += n;
            stats.bytes_saved += n * pb;
        }
        CommClass::PairFull { .. } => {
            if sc.fused {
                stats.exchanges_fused += n;
                stats.bytes_saved += n * pb;
            } else {
                stats.messages += n;
                stats.bytes += n * pb;
            }
        }
        CommClass::PairHalf { .. } => {
            if sc.fused {
                stats.exchanges_fused += n;
                stats.bytes_saved += n * pb;
            } else {
                stats.messages += n;
                stats.bytes += n * pb / 2;
                stats.bytes_saved += n * pb / 2;
            }
        }
        CommClass::GlobalBlock { ndense, .. } => {
            let msgs = ndense as u64 * n / 2;
            stats.messages += msgs;
            stats.bytes += msgs * pb;
            stats.exchanges_elided += 3 * n - msgs;
            stats.bytes_saved += (3 * n - msgs) * pb;
        }
        CommClass::Quad => {
            stats.messages += 3 * n;
            stats.bytes += 3 * n * pb;
        }
    }
}

/// Exchange payload: the sending rank's shard (or packed half-shard),
/// tagged with the step index so a desynchronized mesh is detected
/// instead of silently mixing states.
type Msg = (usize, Vec<C64>);

/// What one worker thread reports back.
struct WorkerReport {
    shard: Vec<C64>,
    messages: u64,
    bytes: u64,
    /// Messages the naive pattern would have sent but the lean structure
    /// (diagonal elision, block-local application) did not.
    elided: u64,
    /// Lean-pattern messages avoided by exchange fusion.
    fused: u64,
    /// Naive payload bytes minus actually-sent bytes.
    saved: u64,
    seconds: f64,
}

fn lost(rank: usize, partner: usize) -> Error {
    Error::Backend(format!(
        "rank {rank}: exchange with rank {partner} failed (shard lost)"
    ))
}

struct Mesh {
    /// `senders[to]` — `None` at the worker's own rank.
    senders: Vec<Option<Sender<Msg>>>,
    /// `receivers[from]` — `None` at the worker's own rank.
    receivers: Vec<Option<Receiver<Msg>>>,
}

impl Mesh {
    fn send(&self, rank: usize, to: usize, step: usize, payload: Vec<C64>) -> Result<()> {
        self.senders[to]
            .as_ref()
            .ok_or_else(|| lost(rank, to))?
            .send((step, payload))
            .map_err(|_| lost(rank, to))
    }

    /// Receives the step-`step` payload from `from` under the exchange
    /// deadline: each missed wait doubles the next one (bounded backoff),
    /// and an exhausted budget reports the partner as missing its deadline
    /// instead of blocking the worker forever. `expect_len` is the payload
    /// length this step's exchange class calls for — the full shard for a
    /// dense exchange, half of it for a [`CommClass::PairHalf`] step — so
    /// a desynchronized or mis-packed mesh is caught at the boundary.
    fn recv(
        &self,
        rank: usize,
        from: usize,
        step: usize,
        expect_len: usize,
        opts: &ShardOptions,
    ) -> Result<Vec<C64>> {
        let rx = self.receivers[from]
            .as_ref()
            .ok_or_else(|| lost(rank, from))?;
        let mut wait = Duration::from_millis(opts.exchange_timeout_ms.max(1));
        let mut waits = 0u32;
        let (tag, payload) = loop {
            match rx.recv_timeout(wait) {
                Ok(msg) => break msg,
                Err(RecvTimeoutError::Disconnected) => return Err(lost(rank, from)),
                Err(RecvTimeoutError::Timeout) => {
                    nwq_telemetry::counter_add("resilience.shard_exchange_timeouts", 1);
                    waits += 1;
                    if waits > opts.exchange_retries {
                        return Err(Error::Backend(format!(
                            "rank {rank}: exchange with rank {from} missed its deadline \
                             at step {step} ({waits} waits, last {wait:?})"
                        )));
                    }
                    wait = wait.saturating_mul(2);
                }
            }
        };
        if tag != step || payload.len() != expect_len {
            return Err(Error::Backend(format!(
                "rank {rank}: desynchronized exchange with rank {from} \
                 (expected step {step} / {expect_len} amps, got step {tag} / {} amps)",
                payload.len()
            )));
        }
        Ok(payload)
    }
}

/// Reusable exchange-payload buffers. Sends draw their backing storage
/// here and receives return theirs, so a steady-state exchange loop
/// allocates nothing after warm-up. Two slots cover the worst case (a
/// quad step returns three payloads but the pool only needs enough for
/// the next step's sends; pair steps cycle one buffer).
#[derive(Default)]
struct BufPool(Vec<Vec<C64>>);

impl BufPool {
    fn take(&mut self) -> Vec<C64> {
        self.0.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<C64>) {
        if self.0.len() < 2 {
            buf.clear();
            self.0.push(buf);
        }
    }
}

/// A live fusion window: the partner's payload from the window's anchor
/// exchange, advanced step by step to the partner's current values.
/// `class` is the window's exchange class (a fused step must match it;
/// a mismatch means the compile-time window pass and the executor
/// disagree, which would be a bug).
struct Mirror {
    class: CommClass,
    buf: Vec<C64>,
}

/// One planned, fire-once fault in *tape* coordinates. The armed flag is
/// shared across recovery generations, so a fault fires in the generation
/// that first reaches its step and never re-fires during replay.
struct PlannedFault {
    step: usize,
    rank: usize,
    armed: AtomicBool,
}

impl PlannedFault {
    fn new(step: usize, rank: usize) -> Self {
        PlannedFault {
            step,
            rank,
            armed: AtomicBool::new(true),
        }
    }

    /// Disarms and fires iff this entry targets (`step`, `rank`) and is
    /// still armed.
    fn fire(&self, step: usize, rank: usize) -> bool {
        self.step == step && self.rank == rank && self.armed.swap(false, Ordering::SeqCst)
    }
}

/// A [`FaultSchedule`] translated from gate to tape coordinates, shared
/// (inside the [`Tape`]) by every generation's workers.
#[derive(Default)]
struct FaultPlan {
    /// `(fault, mid_exchange)` — mid-exchange deaths complete the step's
    /// sends and die before its receives.
    deaths: Vec<(PlannedFault, bool)>,
    drops: Vec<PlannedFault>,
    /// `(fault, delay_ms)`.
    delays: Vec<(PlannedFault, u64)>,
}

impl FaultPlan {
    /// Arms `schedule`'s faults for gate `gate_idx`, which the tape
    /// places at index `tape_idx`.
    fn arm(&mut self, schedule: &FaultSchedule, gate_idx: usize, tape_idx: usize) {
        for d in schedule.deaths.iter().filter(|d| d.gate_step == gate_idx) {
            self.deaths
                .push((PlannedFault::new(tape_idx, d.rank), d.mid_exchange));
        }
        for d in schedule.drops.iter().filter(|d| d.gate_step == gate_idx) {
            self.drops.push(PlannedFault::new(tape_idx, d.rank));
        }
        for d in schedule.delays.iter().filter(|d| d.gate_step == gate_idx) {
            self.delays
                .push((PlannedFault::new(tape_idx, d.rank), d.delay_ms));
        }
    }

    fn death_at(&self, step: usize, rank: usize) -> Option<bool> {
        self.deaths
            .iter()
            .find(|(f, _)| f.fire(step, rank))
            .map(|&(_, mid)| mid)
    }

    fn drop_at(&self, step: usize, rank: usize) -> bool {
        self.drops.iter().any(|f| f.fire(step, rank))
    }

    fn delay_at(&self, step: usize, rank: usize) -> Option<u64> {
        self.delays
            .iter()
            .find(|(f, _)| f.fire(step, rank))
            .map(|&(_, ms)| ms)
    }

    /// Whether any fault is still armed for (`step`, `rank`), without
    /// firing it.
    fn armed_at(&self, step: usize, rank: usize) -> bool {
        let armed =
            |f: &PlannedFault| f.step == step && f.rank == rank && f.armed.load(Ordering::SeqCst);
        self.deaths.iter().any(|(f, _)| armed(f))
            || self.drops.iter().any(armed)
            || self.delays.iter().any(|(f, _)| armed(f))
    }
}

fn killed(rank: usize, step: usize, mid_exchange: bool) -> Error {
    let phase = if mid_exchange { " mid-exchange" } else { "" };
    Error::Backend(format!(
        "rank {rank} killed by fault injection{phase} at step {step}"
    ))
}

/// Everything one worker thread needs beyond the tape and the mesh.
/// Recovery generations differ only in `start_step` + the initial shard.
struct WorkerCtx {
    rank: usize,
    /// Absolute tape index this generation starts from (0 for a fresh run,
    /// the restored cut's resume step after a recovery).
    start_step: usize,
    opts: ShardOptions,
    snapshots: Option<Arc<SnapshotStore>>,
}

/// Per-worker exchange I/O: the mesh, the reusable payload-buffer pool,
/// and the measured/avoided traffic counters. Sends copy into a pooled
/// buffer (never `shard.clone()`); receives validate the class's expected
/// payload length.
struct ExchangeIo<'a> {
    mesh: &'a Mesh,
    rank: usize,
    opts: ShardOptions,
    pool: BufPool,
    messages: u64,
    bytes: u64,
    elided: u64,
    fused: u64,
    saved: u64,
}

impl ExchangeIo<'_> {
    /// Sends the full shard to `to` (dropped silently under a message-drop
    /// fault).
    fn send_full(&mut self, to: usize, step: usize, shard: &[C64], skip: bool) -> Result<()> {
        if skip {
            return Ok(());
        }
        let mut buf = self.pool.take();
        debug_assert!(buf.is_empty());
        buf.extend_from_slice(shard);
        self.mesh.send(self.rank, to, step, buf)?;
        self.messages += 1;
        self.bytes += (shard.len() * 16) as u64;
        Ok(())
    }

    /// Packs and sends the `lo`-bit == `v` half of the shard.
    fn send_half(
        &mut self,
        to: usize,
        step: usize,
        shard: &[C64],
        lo: usize,
        v: usize,
        skip: bool,
    ) -> Result<()> {
        if skip {
            return Ok(());
        }
        let mut buf = self.pool.take();
        kernels::pack_lo_half(shard, lo, v, &mut buf);
        let len = buf.len();
        self.mesh.send(self.rank, to, step, buf)?;
        self.messages += 1;
        self.bytes += (len * 16) as u64;
        Ok(())
    }

    fn recv(&mut self, from: usize, step: usize, expect: usize) -> Result<Vec<C64>> {
        self.mesh.recv(self.rank, from, step, expect, &self.opts)
    }

    /// Obtains the partner payload for a pair-class step. A fused step
    /// consumes the live fusion mirror — zero messages; a recovery
    /// generation resuming mid-window finds no mirror and falls back to a
    /// fresh exchange, which stays symmetric because every rank restarted
    /// from the same cut and misses the same mirror. Fresh exchanges send
    /// the full shard, or the packed `lo == v` half for a
    /// [`CommClass::PairHalf`] step. Fault hooks keep the legacy order:
    /// sends complete, then a mid-exchange death fires before receives.
    #[allow(clippy::too_many_arguments)]
    fn pair_payload(
        &mut self,
        mirror: &mut Option<Mirror>,
        sc: &StepComm,
        shard: &[C64],
        partner: usize,
        step: usize,
        skip_sends: bool,
        die_mid_exchange: bool,
    ) -> Result<Vec<C64>> {
        let part_bytes = (shard.len() * 16) as u64;
        if sc.fused {
            if let Some(mir) = mirror.take() {
                debug_assert_eq!(mir.class, sc.class);
                self.fused += 1;
                self.saved += part_bytes;
                if die_mid_exchange {
                    return Err(killed(self.rank, step, true));
                }
                return Ok(mir.buf);
            }
            // Mirror lost across a recovery boundary: fresh exchange.
        }
        debug_assert!(mirror.is_none());
        if let CommClass::PairHalf { lo, v, .. } = sc.class {
            self.send_half(partner, step, shard, lo, v, skip_sends)?;
            self.saved += part_bytes / 2;
            if die_mid_exchange {
                return Err(killed(self.rank, step, true));
            }
            self.recv(partner, step, shard.len() / 2)
        } else {
            self.send_full(partner, step, shard, skip_sends)?;
            if die_mid_exchange {
                return Err(killed(self.rank, step, true));
            }
            self.recv(partner, step, shard.len())
        }
    }
}

/// Advances a live fusion mirror past an elided diagonal (`Phase`) step.
/// The mirror holds the *partner's* amplitudes, so the diagonal entries
/// are selected by the partner's rank bits — the partner differs from
/// this rank only in the window's exchange bit, and runs exactly these
/// expressions on its own shard, which keeps the mirror bitwise true.
fn phase_on_mirror(mirror: &mut Mirror, rank: usize, step: &Step) {
    let wgbit = match mirror.class {
        CommClass::PairFull { gbit } | CommClass::PairHalf { gbit, .. } => gbit,
        _ => unreachable!("fusion windows are anchored by pair exchanges"),
    };
    let partner = rank ^ (1 << wgbit);
    match step {
        Step::Global1 { gbit, m } => {
            let d = if (partner >> gbit) & 1 == 1 {
                m.0[1][1]
            } else {
                m.0[0][0]
            };
            kernels::scale_amps(&mut mirror.buf, d);
        }
        Step::GlobalLocal { gbit, lo, m } => {
            let ph = (partner >> gbit) & 1;
            if let CommClass::PairHalf { lo: wlo, v, .. } = mirror.class {
                let d0 = m.0[ph << 1][ph << 1];
                let d1 = m.0[(ph << 1) | 1][(ph << 1) | 1];
                kernels::phase_on_lo_half(&mut mirror.buf, wlo, v, *lo, d0, d1);
            } else {
                kernels::apply_global_local_phase(&mut mirror.buf, ph, *lo, m);
            }
        }
        Step::GlobalGlobal { bhi, blo, m } => {
            // Both bits are global, so the phase is one scalar per rank —
            // valid on a packed-half mirror too.
            let pos = (((partner >> bhi) & 1) << 1) | ((partner >> blo) & 1);
            kernels::scale_amps(&mut mirror.buf, m.0[pos][pos]);
        }
        _ => unreachable!("only global diagonal steps are Phase-classified"),
    }
}

/// Fills `run` with the tile run that starts at step `s`: the maximal
/// stretch of rank-local gates whose qubits all lie below [`TILE_BITS`],
/// cut before any later step that still has a fault armed for `rank` (so
/// every fault fires at its own step, as gate-by-gate replay fires it).
/// Snapshot barriers, fault steps and global gates end a run too. Leaves
/// `run` empty when step `s` does not qualify or the shard is at most
/// one tile.
fn collect_tile_run(tape: &Tape, s: usize, rank: usize, run: &mut Vec<TileGate>) {
    run.clear();
    if tape.n_local <= TILE_BITS {
        return;
    }
    for (i, step) in tape.steps.iter().enumerate().skip(s) {
        let gate = match step {
            Step::Local1(q, m) if *q < TILE_BITS => TileGate::one(*q, m),
            Step::Local2(a, b, m) if *a.max(b) < TILE_BITS => TileGate::two(*a, *b, m),
            _ => break,
        };
        if i > s && tape.faults.armed_at(i, rank) {
            break;
        }
        run.push(gate);
    }
}

/// The body of one rank's worker thread: replay the tape against the
/// owned shard, exchanging through the channel mesh on global steps per
/// the compiled per-step communication plan. Every channel failure and
/// every exhausted exchange deadline maps to [`Error::Backend`] — a dead
/// or wedged partner aborts this rank cleanly instead of deadlocking or
/// panicking.
fn worker(ctx: WorkerCtx, tape: &Tape, mesh: Mesh, init: Option<Vec<C64>>) -> Result<WorkerReport> {
    use kernels::{Mat4Shape, SubKind};
    let started = Instant::now();
    let rank = ctx.rank;
    let part_len = 1usize << tape.n_local;
    let part_bytes = (part_len * 16) as u64;
    let mut shard = match init {
        Some(restored) => {
            debug_assert_eq!(restored.len(), part_len);
            restored
        }
        None => {
            let mut zero = vec![C_ZERO; part_len];
            if rank == 0 {
                zero[0] = C_ONE;
            }
            zero
        }
    };
    let mut io = ExchangeIo {
        mesh: &mesh,
        rank,
        opts: ctx.opts,
        pool: BufPool::default(),
        messages: 0,
        bytes: 0,
        elided: 0,
        fused: 0,
        saved: 0,
    };
    // At most one fusion window is open at any tape point (compile-time
    // invariant of `compute_fusion`), so a single mirror slot suffices.
    let mut mirror: Option<Mirror> = None;
    let mut run = Vec::new();
    // Steps below this were applied by the last tile run.
    let mut run_end = 0;
    for (s, (step, sc)) in tape
        .steps
        .iter()
        .zip(&tape.comm)
        .enumerate()
        .skip(ctx.start_step)
    {
        if s < run_end {
            continue;
        }
        // Planned faults fire exactly once across all generations; the
        // step tag `s` is absolute, so replay walks the same schedule.
        if let Some(ms) = tape.faults.delay_at(s, rank) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let mut die_mid_exchange = false;
        if let Some(mid) = tape.faults.death_at(s, rank) {
            if mid && step.is_global() {
                die_mid_exchange = true;
            } else {
                return Err(killed(rank, s, false));
            }
        }
        let skip_sends = tape.faults.drop_at(s, rank);
        // Runs of rank-local gates take one pass over the shard, tile by
        // tile, instead of one per gate — bitwise the same updates.
        collect_tile_run(tape, s, rank, &mut run);
        if !run.is_empty() {
            debug_assert!(mirror.is_none(), "local step inside a fusion window");
            kernels::apply_tile_run(&mut shard, &run, TILE_BITS);
            run_end = s + run.len();
            continue;
        }
        // Zero-message classes first: diagonal elision and block-local
        // application replace the exchange entirely. Both use the exact
        // per-amplitude expressions the single-node fast paths use, so
        // elision is invisible bitwise.
        if sc.class == CommClass::Phase {
            match step {
                Step::Global1 { gbit, m } => {
                    kernels::apply_global_phase1(&mut shard, (rank >> gbit) & 1, m);
                }
                Step::GlobalLocal { gbit, lo, m } => {
                    kernels::apply_global_local_phase(&mut shard, (rank >> gbit) & 1, *lo, m);
                }
                Step::GlobalGlobal { bhi, blo, m } => {
                    let pos = (((rank >> bhi) & 1) << 1) | ((rank >> blo) & 1);
                    kernels::apply_global_global_phase(&mut shard, pos, m);
                }
                _ => unreachable!("Phase classifies global steps only"),
            }
            if let Some(mir) = mirror.as_mut() {
                phase_on_mirror(mir, rank, step);
            }
            io.elided += sc.naive_sends as u64;
            io.saved += sc.naive_sends as u64 * part_bytes;
            if die_mid_exchange {
                return Err(killed(rank, s, true));
            }
            continue;
        }
        if sc.class == CommClass::LocalApply {
            let Step::GlobalLocal { gbit, lo, .. } = step else {
                unreachable!("LocalApply is a global-local class");
            };
            let Mat4Shape::BlockHi { a, ka, b, kb } = sc.shape else {
                unreachable!("LocalApply comes from a BlockHi shape");
            };
            let (k, km) = if (rank >> gbit) & 1 == 1 {
                (kb, b)
            } else {
                (ka, a)
            };
            if k != SubKind::Identity {
                kernels::apply_mat2(&mut shard, *lo, &km);
            }
            io.elided += 1;
            io.saved += part_bytes;
            if die_mid_exchange {
                return Err(killed(rank, s, true));
            }
            continue;
        }
        match step {
            Step::Local1(q, m) => {
                debug_assert!(mirror.is_none(), "local step inside a fusion window");
                kernels::apply_mat2(&mut shard, *q, m);
            }
            Step::Local2(a, b, m) => {
                debug_assert!(mirror.is_none(), "local step inside a fusion window");
                kernels::apply_mat4(&mut shard, *a, *b, m);
            }
            Step::Global1 { gbit, m } => {
                let partner = rank ^ (1 << gbit);
                let own_bit = (rank >> gbit) & 1;
                let mut payload = io.pair_payload(
                    &mut mirror,
                    sc,
                    &shard,
                    partner,
                    s,
                    skip_sends,
                    die_mid_exchange,
                )?;
                if sc.track {
                    kernels::exchange_mirror_mat2(&mut shard, &mut payload, own_bit, m);
                    mirror = Some(Mirror {
                        class: sc.class,
                        buf: payload,
                    });
                } else {
                    kernels::apply_exchanged_mat2(&mut shard, &payload, own_bit, m);
                    io.pool.put(payload);
                }
            }
            Step::GlobalLocal { gbit, lo, m } => {
                let partner = rank ^ (1 << gbit);
                let own_hi = (rank >> gbit) & 1;
                if let CommClass::PairHalf { v, .. } = sc.class {
                    // The non-exchanged `lo == 1-v` stripe applies its own
                    // identity/diagonal sub-block locally; the stripes are
                    // disjoint, so ordering against the pack is free.
                    let Mat4Shape::BlockLo { a, ka, b, kb } = sc.shape else {
                        unreachable!("PairHalf comes from a BlockLo shape");
                    };
                    let (dense_m, other_k, other_m) = if v == 0 { (a, kb, b) } else { (b, ka, a) };
                    if other_k != SubKind::Identity {
                        let d = if own_hi == 1 {
                            other_m.0[1][1]
                        } else {
                            other_m.0[0][0]
                        };
                        kernels::scale_lo_half(&mut shard, *lo, 1 - v, d);
                    }
                    let mut payload = io.pair_payload(
                        &mut mirror,
                        sc,
                        &shard,
                        partner,
                        s,
                        skip_sends,
                        die_mid_exchange,
                    )?;
                    if sc.track {
                        kernels::exchange_mirror_half(
                            &mut shard,
                            &mut payload,
                            own_hi,
                            *lo,
                            v,
                            &dense_m,
                        );
                        mirror = Some(Mirror {
                            class: sc.class,
                            buf: payload,
                        });
                    } else {
                        kernels::apply_exchanged_half(
                            &mut shard, &payload, own_hi, *lo, v, &dense_m,
                        );
                        io.pool.put(payload);
                    }
                } else {
                    // PairFull: a dense or both-dense-block matrix.
                    let mut payload = io.pair_payload(
                        &mut mirror,
                        sc,
                        &shard,
                        partner,
                        s,
                        skip_sends,
                        die_mid_exchange,
                    )?;
                    let block = matches!(sc.shape, Mat4Shape::BlockLo { .. });
                    if sc.track {
                        if block {
                            kernels::exchange_mirror_blocklo(
                                &mut shard,
                                &mut payload,
                                own_hi,
                                *lo,
                                &sc.shape,
                            );
                        } else {
                            kernels::exchange_mirror_global_local(
                                &mut shard,
                                &mut payload,
                                own_hi,
                                *lo,
                                m,
                            );
                        }
                        mirror = Some(Mirror {
                            class: sc.class,
                            buf: payload,
                        });
                    } else {
                        if block {
                            kernels::apply_exchanged_blocklo(
                                &mut shard, &payload, own_hi, *lo, &sc.shape,
                            );
                        } else {
                            kernels::apply_exchanged_mat4_global_local(
                                &mut shard, &payload, own_hi, *lo, m,
                            );
                        }
                        io.pool.put(payload);
                    }
                }
            }
            Step::GlobalGlobal { bhi, blo, m } => {
                // No global-global class joins a fusion window; compile
                // closed any open window at this step.
                debug_assert!(
                    mirror.is_none(),
                    "global-global step inside a fusion window"
                );
                if let CommClass::GlobalBlock { sel, xbit, .. } = sc.class {
                    let (Mat4Shape::BlockHi { a, ka, b, kb } | Mat4Shape::BlockLo { a, ka, b, kb }) =
                        sc.shape
                    else {
                        unreachable!("GlobalBlock comes from a block shape");
                    };
                    let (k, km) = if (rank >> sel) & 1 == 1 {
                        (kb, b)
                    } else {
                        (ka, a)
                    };
                    match k {
                        SubKind::Identity => {
                            io.elided += 3;
                            io.saved += 3 * part_bytes;
                            if die_mid_exchange {
                                return Err(killed(rank, s, true));
                            }
                        }
                        SubKind::Diag => {
                            let xv = (rank >> xbit) & 1;
                            kernels::scale_amps(
                                &mut shard,
                                if xv == 1 { km.0[1][1] } else { km.0[0][0] },
                            );
                            io.elided += 3;
                            io.saved += 3 * part_bytes;
                            if die_mid_exchange {
                                return Err(killed(rank, s, true));
                            }
                        }
                        SubKind::Dense => {
                            // The partner shares this rank's `sel` bit, so
                            // it takes this same arm: symmetric exchange.
                            let partner = rank ^ (1 << xbit);
                            io.send_full(partner, s, &shard, skip_sends)?;
                            if die_mid_exchange {
                                return Err(killed(rank, s, true));
                            }
                            let payload = io.recv(partner, s, part_len)?;
                            kernels::apply_exchanged_mat2(
                                &mut shard,
                                &payload,
                                (rank >> xbit) & 1,
                                &km,
                            );
                            io.pool.put(payload);
                            io.elided += 2;
                            io.saved += 2 * part_bytes;
                        }
                    }
                } else {
                    // Quad: a dense global-global gate.
                    let pos = (((rank >> bhi) & 1) << 1) | ((rank >> blo) & 1);
                    // Quad mates in ascending bit-position order.
                    let mates: Vec<usize> = (0..4)
                        .filter(|&p| p != pos)
                        .map(|p| {
                            let mut mate = rank & !(1 << bhi) & !(1 << blo);
                            mate |= ((p >> 1) & 1) << bhi;
                            mate |= (p & 1) << blo;
                            mate
                        })
                        .collect();
                    for &mate in &mates {
                        io.send_full(mate, s, &shard, skip_sends)?;
                    }
                    if die_mid_exchange {
                        return Err(killed(rank, s, true));
                    }
                    let mut others = Vec::with_capacity(3);
                    for &mate in &mates {
                        others.push(io.recv(mate, s, part_len)?);
                    }
                    kernels::apply_exchanged_mat4_global_global(
                        &mut shard,
                        [&others[0], &others[1], &others[2]],
                        pos,
                        m,
                    );
                    for o in others {
                        io.pool.put(o);
                    }
                }
            }
            Step::Corrupt { rank: r, index } => {
                if *r == rank {
                    shard[*index] = C64::new(f64::NAN, f64::NAN);
                }
            }
            Step::Drift { rank: r } => {
                if *r == rank {
                    for a in shard.iter_mut() {
                        *a = *a * 1.001;
                    }
                }
            }
            Step::Lose { rank: r } => {
                if *r == rank {
                    return Err(Error::Backend(format!(
                        "rank {r} lost during distributed execution"
                    )));
                }
            }
            Step::Snapshot { version } => {
                if let Some(store) = &ctx.snapshots {
                    store.deposit(*version, s, rank, &shard)?;
                }
            }
        }
    }
    Ok(WorkerReport {
        shard,
        messages: io.messages,
        bytes: io.bytes,
        elided: io.elided,
        fused: io.fused,
        saved: io.saved,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Spawns one generation of worker threads over a fresh channel mesh and
/// joins them. A fresh mesh per generation means no stale message from a
/// torn-down generation can leak into the replay. A deliberate rank loss
/// or death is returned as-is in preference to its partners' exchange
/// failures, which are only its fallout.
fn run_generation(
    tape: &Arc<Tape>,
    opts: &ShardOptions,
    start_step: usize,
    init: Option<Vec<Vec<C64>>>,
    snapshots: Option<&Arc<SnapshotStore>>,
) -> Result<Vec<WorkerReport>> {
    let n_ranks = tape.n_ranks;
    // Build the (from, to) channel mesh and hand each worker its row.
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..n_ranks)
        .map(|_| (0..n_ranks).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..n_ranks)
        .map(|_| (0..n_ranks).map(|_| None).collect())
        .collect();
    for from in 0..n_ranks {
        for to in 0..n_ranks {
            if from != to {
                let (tx, rx) = channel();
                senders[from][to] = Some(tx);
                receivers[to][from] = Some(rx);
            }
        }
    }
    let mut init_shards: Vec<Option<Vec<C64>>> = match init {
        Some(shards) => shards.into_iter().map(Some).collect(),
        None => (0..n_ranks).map(|_| None).collect(),
    };
    let mut handles = Vec::with_capacity(n_ranks);
    for (rank, (sends, recvs)) in senders.drain(..).zip(receivers.drain(..)).enumerate() {
        let tape = Arc::clone(tape);
        let mesh = Mesh {
            senders: sends,
            receivers: recvs,
        };
        let ctx = WorkerCtx {
            rank,
            start_step,
            opts: *opts,
            snapshots: snapshots.map(Arc::clone),
        };
        let init_shard = init_shards[rank].take();
        let handle = std::thread::Builder::new()
            .name(format!("nwq-dist-rank{rank}"))
            .spawn(move || worker(ctx, &tape, mesh, init_shard))
            .map_err(|e| Error::Backend(format!("failed to spawn rank {rank} worker: {e}")))?;
        handles.push(handle);
    }
    let mut reports = Vec::with_capacity(n_ranks);
    let mut first_error: Option<Error> = None;
    let mut root_error: Option<Error> = None;
    for (rank, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => {
                let msg = e.to_string();
                if (msg.contains("lost during distributed") || msg.contains("killed by fault"))
                    && root_error.is_none()
                {
                    root_error = Some(e);
                } else if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(_) => {
                if first_error.is_none() {
                    first_error = Some(Error::Backend(format!(
                        "rank {rank} worker panicked during distributed execution"
                    )));
                }
            }
        }
    }
    if let Some(e) = root_error.or(first_error) {
        return Err(e);
    }
    Ok(reports)
}

/// Folds one generation's worker reports into the assembled distributed
/// state, with the usual `dist.*` telemetry.
fn assemble(tape: &Tape, reports: Vec<WorkerReport>) -> DistStateVector {
    let mut stats = CommStats {
        global_gates: tape.global_gates,
        local_gates: tape.local_gates,
        ..CommStats::default()
    };
    let mut partitions = Vec::with_capacity(reports.len());
    for report in reports {
        stats.messages += report.messages;
        stats.bytes += report.bytes;
        stats.exchanges_elided += report.elided;
        stats.exchanges_fused += report.fused;
        stats.bytes_saved += report.saved;
        nwq_telemetry::histogram_record("dist.rank_seconds", report.seconds);
        nwq_telemetry::histogram_record("dist.rank_messages", report.messages as f64);
        partitions.push(report.shard);
    }
    nwq_telemetry::counter_add("dist.messages", stats.messages);
    nwq_telemetry::counter_add("dist.bytes", stats.bytes);
    nwq_telemetry::counter_add("dist.local_gates", stats.local_gates);
    nwq_telemetry::counter_add("dist.global_gates", stats.global_gates);
    nwq_telemetry::counter_add("dist.exchanges_elided", stats.exchanges_elided);
    nwq_telemetry::counter_add("dist.exchange_fused", stats.exchanges_fused);
    nwq_telemetry::counter_add("dist.bytes_saved", stats.bytes_saved);
    DistStateVector::from_parts(tape.n_qubits, tape.n_local, partitions, stats)
}

/// Runs one worker generation over `tape` from the zero state.
fn run_once(tape: Tape, opts: &ShardOptions) -> Result<DistStateVector> {
    let tape = Arc::new(tape);
    let reports = run_generation(&tape, opts, 0, None, None)?;
    Ok(assemble(&tape, reports))
}

/// Runs `circuit` on `n_ranks` real shards, one OS thread per rank, and
/// reassembles the distributed state — bitwise identical to
/// [`nwq_statevec::simulate`], with [`DistStateVector::comm_stats`] equal
/// to [`crate::comm::plan_communication_with`]. A failing worker's root
/// error is returned unchanged.
pub fn run_sharded(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    opts: &ShardOptions,
) -> Result<DistStateVector> {
    let tape = compile(circuit, params, n_ranks, 0, &FaultSchedule::none(), None)?;
    run_once(tape, opts)
}

/// [`run_sharded`] with faults drawn from `injector`:
///
/// - **rank loss** may strike before any gate (a node can die at any
///   point): the losing worker drops out and the run aborts with
///   `Error::Backend` naming the lost rank;
/// - **message corruption** and **norm drift** strike only after gates on
///   global qubits — they model damage carried by the partition exchange,
///   so rank-local gates cannot trigger them.
///
/// Faults are drawn at compile time in the legacy per-gate order (seeded
/// schedules reproduce), then replayed by the owning worker threads. The
/// injected damage is left in the returned state for downstream health
/// guards ([`nwq_statevec::NormGuard`], the expval finiteness checks) to
/// detect; this function only plants it.
pub fn run_sharded_faulty(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    injector: &mut FaultInjector,
) -> Result<DistStateVector> {
    let tape = compile(
        circuit,
        params,
        n_ranks,
        0,
        &FaultSchedule::none(),
        Some(injector),
    )?;
    run_once(tape, &ShardOptions::default())
}

/// Knobs for [`run_sharded_resilient`].
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Insert a snapshot barrier every this many gates (0 disables
    /// snapshots entirely — recovery then restarts from the zero state).
    pub snapshot_every: usize,
    /// Give up after this many recoveries and surface the last failure.
    pub max_recoveries: u32,
    /// Complete snapshot versions kept in memory (older ones pruned).
    pub keep_versions: usize,
    /// Optional directory for the on-disk snapshot mirror.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            snapshot_every: 16,
            max_recoveries: 8,
            keep_versions: 2,
            snapshot_dir: None,
        }
    }
}

/// What a resilient run went through.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Snapshot barriers compiled into the tape.
    pub snapshots_planned: usize,
    /// Recoveries performed (0 on a fault-free run).
    pub recoveries: u32,
    /// Worker generations spawned (`recoveries + 1`).
    pub generations: u32,
    /// Absolute tape index each recovery resumed from (0 = zero-state
    /// restart because no cut was complete yet).
    pub resume_steps: Vec<usize>,
    /// Coordinator-side latency of each recovery (restore the cut +
    /// bookkeeping), milliseconds.
    pub recovery_ms: Vec<f64>,
}

/// Runs `circuit` on `n_ranks` shards *survivably*: snapshot barriers
/// checkpoint a consistent cut every [`RecoveryOptions::snapshot_every`]
/// gates, and any worker failure — a planned death from `schedule`, a
/// closed channel, or an exhausted exchange deadline — tears the
/// generation down and respawns all ranks from the last complete cut,
/// replaying the tape from that step. Because the tape is deterministic
/// and the cut is bitwise, the recovered run is **bitwise identical** to
/// a fault-free run; ranks that were ahead of the cut simply roll back.
///
/// The returned state's [`CommStats`] carry the compiled gate split and
/// the *final generation's* measured exchange traffic: on a fault-free
/// run (0 recoveries) that equals [`crate::comm::plan_communication`];
/// after a recovery it covers only the replayed suffix.
pub fn run_sharded_resilient(
    circuit: &Circuit,
    params: &[f64],
    n_ranks: usize,
    opts: &ShardOptions,
    recovery: &RecoveryOptions,
    schedule: &FaultSchedule,
) -> Result<(DistStateVector, RecoveryReport)> {
    let tape = Arc::new(compile(
        circuit,
        params,
        n_ranks,
        recovery.snapshot_every,
        schedule,
        None,
    )?);
    let store = Arc::new(SnapshotStore::new(
        n_ranks,
        recovery.keep_versions,
        recovery.snapshot_dir.clone(),
    ));
    let mut report = RecoveryReport {
        snapshots_planned: tape.snapshots,
        ..RecoveryReport::default()
    };
    let mut start_step = 0usize;
    let mut init: Option<Vec<Vec<C64>>> = None;
    loop {
        report.generations += 1;
        match run_generation(&tape, opts, start_step, init.take(), Some(&store)) {
            Ok(reports) => return Ok((assemble(&tape, reports), report)),
            Err(e) => {
                report.recoveries += 1;
                if report.recoveries > recovery.max_recoveries {
                    return Err(Error::Backend(format!(
                        "gave up after {} recoveries; last failure: {e}",
                        recovery.max_recoveries
                    )));
                }
                let restore_started = Instant::now();
                match store.last_complete()? {
                    Some(cut) => {
                        start_step = cut.resume_step;
                        init = Some(cut.shards);
                    }
                    None => {
                        start_step = 0;
                        init = None;
                    }
                }
                let ms = restore_started.elapsed().as_secs_f64() * 1e3;
                report.resume_steps.push(start_step);
                report.recovery_ms.push(ms);
                nwq_telemetry::counter_add("resilience.shard_recoveries", 1);
                nwq_telemetry::counter_add(
                    "resilience.shard_replayed_steps",
                    (tape.steps.len() - start_step) as u64,
                );
                nwq_telemetry::histogram_record("resilience.shard_recovery_ms", ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::plan_communication;
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

    fn assert_bitwise(d: &DistStateVector, single: &nwq_statevec::StateVector, ctx: &str) {
        let gathered = d.gather();
        for (i, (a, b)) in gathered
            .amplitudes()
            .iter()
            .zip(single.amplitudes())
            .enumerate()
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{ctx} amp {i}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{ctx} amp {i}");
        }
    }

    #[test]
    fn sharded_run_bitwise_matches_single_node() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            assert_bitwise(&d, &single, &format!("ranks={n_ranks}"));
        }
    }

    #[test]
    fn sharded_comm_matches_plan() {
        let c = sample_circuit(6);
        for n_ranks in [1usize, 2, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let planned = plan_communication(&c, n_ranks).unwrap();
            assert_eq!(d.comm_stats(), planned, "ranks={n_ranks}");
        }
    }

    /// H sweep, then a half-exchange fusion window on the top qubit with
    /// every transparent phase kind between the anchor and the fused
    /// member: `Global1` (rz), diagonal `GlobalLocal` (cp), and — at ≥ 4
    /// ranks — diagonal `GlobalGlobal` (rzz).
    fn apex_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        let t = n - 1;
        c.cx(0, t)
            .rz(t, 0.37)
            .cp(1, t, 0.21)
            .rzz(n - 2, t, 0.45)
            .cx(0, t)
            .h(0);
        c
    }

    #[test]
    fn fusion_window_is_bitwise_and_matches_plan() {
        let c = apex_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("fused ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
            // The second cx rides the first one's mirror on every rank.
            assert_eq!(stats.exchanges_fused, n_ranks as u64, "{ctx}");
            // Everything not moved is accounted as saved vs the naive plan.
            let naive = crate::comm::plan_communication_naive(&c, n_ranks).unwrap();
            assert_eq!(stats.bytes + stats.bytes_saved, naive.bytes, "{ctx}");
            assert!(stats.bytes < naive.bytes, "{ctx}");
        }
    }

    #[test]
    fn diagonal_global_circuit_exchanges_nothing() {
        let mut c = Circuit::new(6);
        c.h(0).h(1).h(2).cx(0, 1).cx(1, 2);
        c.rz(5, 0.3).cz(2, 5).cz(4, 5).rzz(3, 4, 0.7);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("diag ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            assert_eq!(stats.messages, 0, "{ctx}");
            assert_eq!(stats.bytes, 0, "{ctx}");
            assert!(stats.exchanges_elided > 0, "{ctx}");
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
        }
    }

    #[test]
    fn global_control_gates_apply_block_locally() {
        // cx with a *global* control and local target: each rank applies
        // I or X locally — zero messages, still bitwise.
        let mut c = Circuit::new(6);
        c.h(5).h(4).cx(5, 1).cx(4, 0);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [4usize, 8] {
            let d = run_sharded(&c, &[], n_ranks, &ShardOptions::default()).unwrap();
            let ctx = format!("blockhi ranks={n_ranks}");
            assert_bitwise(&d, &single, &ctx);
            let stats = d.comm_stats();
            // Only the two H's on global qubits exchange.
            assert_eq!(stats.messages, 2 * n_ranks as u64, "{ctx}");
            assert_eq!(stats, plan_communication(&c, n_ranks).unwrap(), "{ctx}");
        }
    }

    /// One worker generation surfaces the lost rank's own error — not
    /// its partners' "shard lost" fallout — and does not wrap it.
    #[test]
    fn injected_rank_loss_aborts_with_the_legacy_error() {
        let c = sample_circuit(5);
        for n_ranks in [2usize, 4, 8] {
            let mut inj = FaultInjector::new(crate::faults::FaultSpec {
                rank_loss: 1.0,
                seed: 5,
                ..Default::default()
            });
            // The first draw is the rank-loss check before gate 0.
            let lost = inj.clone().should_lose_rank(n_ranks).unwrap();
            let e = run_sharded_faulty(&c, &[], n_ranks, &mut inj).unwrap_err();
            assert!(matches!(e, Error::Backend(_)), "{e}");
            assert!(e.is_transient());
            assert!(e.to_string().contains("lost during distributed execution"));
            let expected = format!("rank {lost} lost during distributed execution");
            assert!(
                matches!(&e, Error::Backend(msg) if *msg == expected),
                "ranks={n_ranks}: {e}"
            );
            assert_eq!(inj.stats().rank_losses, 1);
        }
    }

    #[test]
    fn zero_rate_injector_is_bitwise_invisible() {
        let c = sample_circuit(6);
        let clean = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        let mut inj = FaultInjector::new(crate::faults::FaultSpec::default());
        let faulty = run_sharded_faulty(&c, &[], 4, &mut inj).unwrap();
        assert_bitwise(&faulty, &clean.gather(), "zero-rate faults");
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn distributed_matches_single_node_all_rank_counts() {
        // BITWISE parity: the real sharded path replicates the single-node
        // kernels' arithmetic exactly, not just to tolerance.
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let gathered = run_sharded(&c, &[], n_ranks, &ShardOptions::default())
                .unwrap()
                .gather();
            for (a, b) in gathered.amplitudes().iter().zip(single.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "ranks={n_ranks}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "ranks={n_ranks}");
            }
        }
    }

    #[test]
    fn executed_comm_matches_plan() {
        let c = sample_circuit(6);
        for n_ranks in [1usize, 2, 4, 8] {
            let stats = run_sharded(&c, &[], n_ranks, &ShardOptions::default())
                .unwrap()
                .comm_stats();
            let planned = plan_communication(&c, n_ranks).unwrap();
            assert_eq!(stats.messages, planned.messages, "ranks={n_ranks}");
            assert_eq!(stats.bytes, planned.bytes, "ranks={n_ranks}");
            assert_eq!(stats.global_gates, planned.global_gates);
            assert_eq!(stats.local_gates, planned.local_gates);
        }
    }

    #[test]
    fn zero_rate_faulty_run_matches_clean_run() {
        let c = sample_circuit(5);
        let clean = run_sharded(&c, &[], 4, &ShardOptions::default())
            .unwrap()
            .gather();
        let mut inj = FaultInjector::new(crate::faults::FaultSpec::default());
        let faulty = run_sharded_faulty(&c, &[], 4, &mut inj).unwrap().gather();
        for (a, b) in faulty.amplitudes().iter().zip(clean.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn rank_loss_aborts_with_backend_error() {
        let c = sample_circuit(5);
        let mut inj = FaultInjector::new(crate::faults::FaultSpec {
            rank_loss: 1.0,
            seed: 5,
            ..Default::default()
        });
        let e = run_sharded_faulty(&c, &[], 4, &mut inj).unwrap_err();
        assert!(matches!(e, Error::Backend(_)), "{e}");
        assert!(e.is_transient());
        assert_eq!(inj.stats().rank_losses, 1);
    }

    #[test]
    fn ghz_across_ranks() {
        let c = {
            let mut c = Circuit::new(5);
            c.h(0);
            for q in 1..5 {
                c.cx(0, q);
            }
            c
        };
        let d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        let (s, stats) = (d.gather(), d.comm_stats());
        assert!((s.probability(0) - 0.5).abs() < 1e-10);
        assert!((s.probability(0b11111) - 0.5).abs() < 1e-10);
        assert!(stats.global_gates >= 2); // CX onto qubits 3 and 4
    }

    #[test]
    fn message_corruption_plants_non_finite_amplitudes() {
        let c = sample_circuit(5);
        let mut inj = FaultInjector::new(crate::faults::FaultSpec {
            message_corruption: 1.0,
            seed: 11,
            ..Default::default()
        });
        let s = run_sharded_faulty(&c, &[], 4, &mut inj).unwrap().gather();
        assert!(inj.stats().message_corruptions > 0);
        assert!(!s.norm_sqr().is_finite());
    }

    #[test]
    fn norm_drift_breaks_normalization_detectably() {
        let c = sample_circuit(5);
        let mut inj = FaultInjector::new(crate::faults::FaultSpec {
            norm_drift: 1.0,
            seed: 2,
            ..Default::default()
        });
        let s = run_sharded_faulty(&c, &[], 4, &mut inj).unwrap().gather();
        assert!(inj.stats().norm_drifts > 0);
        let norm = s.norm_sqr();
        assert!(norm.is_finite());
        assert!((norm - 1.0).abs() > 1e-9, "norm {norm} should have drifted");
    }

    #[test]
    fn parameterized_distributed_run() {
        let mut c = Circuit::new(4);
        c.ry(3, nwq_circuit::ParamExpr::var(0)).cx(3, 0);
        let single = nwq_statevec::simulate(&c, &[1.1]).unwrap();
        let gathered = run_sharded(&c, &[1.1], 2, &ShardOptions::default())
            .unwrap()
            .gather();
        for (a, b) in gathered.amplitudes().iter().zip(single.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn empty_circuit_yields_zero_state() {
        let c = Circuit::new(4);
        let d = run_sharded(&c, &[], 4, &ShardOptions::default()).unwrap();
        assert!((d.gather().probability(0) - 1.0).abs() < 1e-15);
        assert_eq!(d.comm_stats().messages, 0);
    }

    /// Short deadlines so fault tests tear down quickly.
    fn test_opts() -> ShardOptions {
        ShardOptions {
            exchange_timeout_ms: 100,
            exchange_retries: 2,
        }
    }

    fn test_recovery(snapshot_every: usize) -> RecoveryOptions {
        RecoveryOptions {
            snapshot_every,
            max_recoveries: 8,
            keep_versions: 2,
            snapshot_dir: None,
        }
    }

    #[test]
    fn resilient_clean_run_is_bitwise_and_matches_plan() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [1usize, 2, 4, 8] {
            let (d, report) = run_sharded_resilient(
                &c,
                &[],
                n_ranks,
                &ShardOptions::default(),
                &test_recovery(2),
                &FaultSchedule::none(),
            )
            .unwrap();
            assert_bitwise(&d, &single, &format!("resilient ranks={n_ranks}"));
            // Snapshot barriers exchange nothing: a fault-free resilient
            // run still measures exactly the planned traffic.
            assert_eq!(d.comm_stats(), plan_communication(&c, n_ranks).unwrap());
            assert_eq!(report.recoveries, 0);
            assert_eq!(report.generations, 1);
            assert!(report.snapshots_planned > 0);
        }
    }

    #[test]
    fn every_rank_and_step_recovers_bitwise() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let n_gates = c.len();
        for n_ranks in [2usize, 4] {
            for rank in 0..n_ranks {
                for gate_step in [0, 1, n_gates / 2, n_gates - 1] {
                    let (d, report) = run_sharded_resilient(
                        &c,
                        &[],
                        n_ranks,
                        &test_opts(),
                        &test_recovery(2),
                        &FaultSchedule::kill(gate_step, rank),
                    )
                    .unwrap();
                    let ctx = format!("ranks={n_ranks} rank={rank} step={gate_step}");
                    assert_bitwise(&d, &single, &ctx);
                    assert_eq!(report.recoveries, 1, "{ctx}");
                    assert_eq!(report.generations, 2, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn recovery_inside_fusion_window_stays_bitwise() {
        // Kill a rank at every step of a circuit whose tail is a fusion
        // window (anchor cx, transparent phases, fused cx): when the
        // replay resumes past the anchor the mirror is gone on every
        // rank, so the fused member must fall back to a symmetric fresh
        // exchange — and still reproduce the fault-free amplitudes
        // bitwise.
        let c = apex_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        for n_ranks in [2usize, 4] {
            for gate_step in 0..c.len() {
                let rank = gate_step % n_ranks;
                let (d, report) = run_sharded_resilient(
                    &c,
                    &[],
                    n_ranks,
                    &test_opts(),
                    &test_recovery(2),
                    &FaultSchedule::kill(gate_step, rank),
                )
                .unwrap();
                let ctx = format!("apex ranks={n_ranks} rank={rank} step={gate_step}");
                assert_bitwise(&d, &single, &ctx);
                assert_eq!(report.recoveries, 1, "{ctx}");
            }
        }
    }

    #[test]
    fn mid_exchange_death_recovers_bitwise() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        // Gate 2 of the sample circuit (cx(1, 2)) is global at 8 ranks
        // (n_local = 2): the dying rank completes its sends first, so the
        // partner sees the payload arrive and then the channel close.
        let schedule = FaultSchedule {
            deaths: vec![crate::faults::RankDeath {
                gate_step: 3,
                rank: 5,
                mid_exchange: true,
            }],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 8, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "mid-exchange death");
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn dropped_messages_trip_the_deadline_and_recover_bitwise() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let schedule = FaultSchedule {
            drops: vec![crate::faults::MessageDrop {
                gate_step: 4,
                rank: 1,
            }],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "message drop");
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn stragglers_under_the_deadline_cause_no_false_positives() {
        let c = sample_circuit(6);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        // 30 ms stalls against a 100 ms (×2 retries) deadline: slow, not
        // dead. Recovery firing here would be a false positive.
        let schedule = FaultSchedule {
            delays: vec![
                crate::faults::RankDelay {
                    gate_step: 1,
                    rank: 0,
                    delay_ms: 30,
                },
                crate::faults::RankDelay {
                    gate_step: 5,
                    rank: 3,
                    delay_ms: 30,
                },
            ],
            ..FaultSchedule::default()
        };
        let (d, report) =
            run_sharded_resilient(&c, &[], 4, &test_opts(), &test_recovery(2), &schedule).unwrap();
        assert_bitwise(&d, &single, "straggler");
        assert_eq!(report.recoveries, 0);
        assert_eq!(d.comm_stats(), plan_communication(&c, 4).unwrap());
    }

    #[test]
    fn recovery_without_snapshots_restarts_from_zero_state() {
        let c = sample_circuit(5);
        let single = nwq_statevec::simulate(&c, &[]).unwrap();
        let (d, report) = run_sharded_resilient(
            &c,
            &[],
            4,
            &test_opts(),
            &test_recovery(0),
            &FaultSchedule::kill(c.len() - 1, 2),
        )
        .unwrap();
        assert_bitwise(&d, &single, "no-snapshot restart");
        assert_eq!(report.snapshots_planned, 0);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.resume_steps, vec![0]);
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_the_last_failure() {
        let c = sample_circuit(6);
        // More planned deaths than the recovery budget allows.
        let schedule = FaultSchedule {
            deaths: (0..4)
                .map(|k| crate::faults::RankDeath {
                    gate_step: 2 + k,
                    rank: k % 4,
                    mid_exchange: false,
                })
                .collect(),
            ..FaultSchedule::default()
        };
        // Rank 3's death (gate 5) can't fire in generation 1: it is stuck
        // behind rank 2's death at the gate-4 exchange. So at least two
        // generations must fail, and a budget of 1 has to give up.
        let mut recovery = test_recovery(2);
        recovery.max_recoveries = 1;
        let e = run_sharded_resilient(&c, &[], 4, &test_opts(), &recovery, &schedule).unwrap_err();
        assert!(e.to_string().contains("gave up after 1 recoveries"), "{e}");
    }

    #[test]
    fn snapshot_dir_mirrors_cuts_on_disk() {
        let c = sample_circuit(6);
        let dir = std::env::temp_dir().join(format!("nwq-shard-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut recovery = test_recovery(3);
        recovery.snapshot_dir = Some(dir.clone());
        let (d, report) =
            run_sharded_resilient(&c, &[], 2, &test_opts(), &recovery, &FaultSchedule::none())
                .unwrap();
        assert!(report.snapshots_planned > 0);
        // Version 0 was cut at gate 3; both rank mirrors must exist and
        // round-trip bitwise against nothing less than real amplitudes.
        let r0 = crate::snapshot::read_shard_file(&dir, 0, 0).unwrap();
        let r1 = crate::snapshot::read_shard_file(&dir, 0, 1).unwrap();
        assert_eq!(r0.len() + r1.len(), 1 << c.n_qubits());
        let _ = d;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
