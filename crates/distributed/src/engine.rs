//! Multi-core sharded ingest engine: persistent worker pipeline over
//! mergeable sampler shards.
//!
//! Where [`crate::drtbs`] *simulates* a distributed cluster (with a cost
//! model standing in for the network), this module is the real thing at
//! single-machine scale: **N long-lived shard threads**, each serving a
//! monomorphized sampler ([`tbs_core::merge::MergeableSample`]) and a
//! jump-ahead RNG substream, fed through bounded blocking queues
//! ([`crate::queue::BatchQueue`]) by a driver thread. This is the paper's
//! `Dist,CP` insight (§5: distributed decisions over co-partitioned data
//! need no per-item coordination) applied to cores instead of cluster
//! nodes: ingest runs with **zero cross-shard coordination**, and shard
//! states are only merged — exactly, via the weight algebra of
//! [`tbs_core::merge`] — when a sample is requested.
//!
//! ## Pipeline anatomy
//!
//! ```text
//!              ┌────────────┐  work: BatchQueue<ShardMsg>  ┌──────────────┐
//!  ingest() ──▶│  driver:   │ ───────────────────────────▶ │ owner thread │
//!              │ balanced   │ ◀─────────────────────────── │ of cell k:   │
//!              │   split    │  recycle: BatchQueue<Vec<T>> │ sampler, RNG │
//!              └────────────┘            …× G              └──────────────┘
//! ```
//!
//! * Batches are split deterministically by a
//!   [`tbs_core::merge::BalancedSplitter`]: every shard's decayed weight
//!   stays within **one item** of `W/K`, which licenses the `⌈n/K⌉ + 1`
//!   adaptive shard capacity (see the `tbs_core::merge` module docs) and
//!   keeps high-K shards on the saturated fast path.
//! * **One owner per cell**: each logical shard cell has exactly one
//!   worker thread, which holds the cell's sampler, RNG substream and
//!   batch count as plain locals and consumes the cell's queue in FIFO
//!   order. The realized sample is therefore a pure function of the
//!   logical chunk assignment, never of thread timing — and a dead
//!   worker takes nothing but its own cell with it.
//! * Consumed batch buffers flow back to the driver through a recycle
//!   queue, so steady-state ingest performs **zero heap allocations**
//!   beyond the caller-provided batch (verified by the engine's
//!   counting-allocator test).
//! * Workers are spawned **once** at construction — no per-batch thread
//!   spawn anywhere.
//!
//! ## One fork primitive
//!
//! Every cross-shard read is a **fork**: the driver enqueues a
//! `Fork(ticket)` marker behind everything ingested so far, and each cell
//! owner, on reaching it, flushes its counters, clones `(sampler, RNG
//! state)` as its part, and refreshes its recovery fork record — then
//! keeps ingesting. FIFO placement pins every fork to an exact batch
//! boundary. What differs is only who assembles the parts:
//!
//! * **the merger**, under a driver header sent ahead of the markers, for
//!   epoch publication ([`ParallelIngestEngine::request_snapshot`],
//!   [`ParallelIngestEngine::sample`]) and asynchronous checkpoints
//!   ([`ParallelIngestEngine::request_checkpoint`]);
//! * **the driver itself**, waiting with the same supervised poll as
//!   `sample`, for synchronous reads
//!   ([`ParallelIngestEngine::save_parts`],
//!   [`ParallelIngestEngine::snapshot_merged`], and
//!   [`ParallelIngestEngine::quiesce`], whose fork is a pure fence that
//!   clones nothing).
//!
//! ## Serving without stopping: epoch fork + merge tree
//!
//! ```text
//!  request_snapshot() ──▶ Fork(t) ──▶ cell k: clone (sampler, RNG) ──┐
//!        │                (FIFO, so the fork lands exactly at the    │
//!        │                 batch boundary of the request)            ▼
//!        └── Header{t, epoch, driver-RNG state} ───────▶ ┌───────────────┐
//!                                                        │ merger thread │
//!             leaf tasks: BatchQueue<(tree, leaf)> ◀──── │  builds the   │
//!                 │ executed by idle shard workers       │  EpochTree    │
//!                 ▼ (or the merger itself)               └───────────────┘
//!          cooperative log-depth merge tree ──▶ Publish ──▶ EpochCell
//! ```
//!
//! The merger does **not** fold the K forks itself. It precomputes the
//! merge's global scalars, derives every tree node's RNG substream from
//! the recorded driver position (the [`tbs_core::merge::merge_replay`]
//! contract: node randomness is a pure function of `(entry RNG state,
//! node id)`), and enqueues K leaf tasks. Idle shard workers pick the
//! tasks up between ingest drains; whoever finishes the second child of
//! a node immediately merges that pair and climbs, so the `⌈log₂K⌉`-depth
//! tree completes cooperatively with no barrier and no dedicated merge
//! thread doing O(K) serial work. The root finisher realizes the sample
//! and sends it back; the merger publishes epochs strictly in order.
//!
//! [`ParallelIngestEngine::request_snapshot`] consumes **no** driver
//! randomness, and the published [`FrozenSample`] is **bit-identical** to
//! a driver-side [`ParallelIngestEngine::snapshot_merged`] + realization
//! from the same RNG position (the engine-snapshot tests pin this down),
//! while ingest never stops: shards pause only for the `O(n_k)` state
//! fork.
//!
//! ## Choosing a shard count
//!
//! With the balanced split and the `⌈n/K⌉ + 1` adaptive capacity, a shard
//! stays on R-TBS's cheap saturated transition whenever
//! `b/(K(1−e^{−λ})) ≥ n/K + 2` — i.e. per-shard equilibrium weight
//! exceeds per-shard capacity, with only a constant (not
//! decay-geometric) headroom term. The old "8-shard cliff" — per-shard
//! `⌈1/(1−e^{−λ})⌉` headroom growing relative to `⌈n/K⌉` until high-K
//! shards fell off the saturated path — is gone; scale K to the core
//! count while the whole-stream equilibrium `b/(1−e^{−λ})` comfortably
//! exceeds `n + 2K`. The committed `BENCH_scaling.json` quantifies both
//! regimes.

use crate::fault::{FaultPlan, PushAction};
use crate::queue::BatchQueue;
use crate::snapshot::{EpochCell, EpochWait};
use parking_lot::Mutex;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tbs_core::frozen::FrozenSample;
use tbs_core::merge::{BalancedSplitter, MergePlan, MergeScalars, MergeableSample, ShardSpec};
use tbs_stats::rng::Xoshiro256PlusPlus;

/// Poll slice of the driver's supervised waits: how long a wait may
/// block before it checks the pipeline's pulse again.
const SUPERVISE_SLICE: Duration = Duration::from_millis(25);

/// What the engine should do when part of its pipeline dies (a shard
/// worker or the merger panics, or a chunk delivery fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Transition to [`EngineHealth::Failed`]: close every queue (so
    /// nothing blocks forever), surface the cause as an [`EngineError`]
    /// from this and every subsequent call. The default — zero steady-
    /// state overhead.
    #[default]
    Fail,
    /// Supervised recovery: each shard's state is recorded at every
    /// fork (publish, checkpoint, or synchronous read), the driver keeps
    /// a replay log of the chunks it split since then, and on a fault the
    /// engine rebuilds the whole pipeline from the fork records and
    /// replays the log —
    /// restoring **bit-identical** `(seed, K)` state, because splits and
    /// per-shard RNG substreams are deterministic. Costs one state clone
    /// per shard per fork plus one chunk clone per shard per batch; the
    /// replay log is trimmed at each fork, so publish or checkpoint
    /// periodically to bound its memory.
    RespawnFromBarrier,
}

/// Typed pipeline-failure causes, surfaced instead of panics.
///
/// With [`RecoveryPolicy::Fail`] the first of these transitions the
/// engine to [`EngineHealth::Failed`] and is returned (cloned) by every
/// later call. With [`RecoveryPolicy::RespawnFromBarrier`] they are
/// handled internally unless recovery itself is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A shard worker thread is gone (its panic guard closed its
    /// queues), or a push to it failed.
    ShardDead {
        /// The shard whose queue failed.
        shard: usize,
    },
    /// The merger thread is gone; snapshots can no longer publish.
    MergerDead,
    /// A chunk delivery to a shard queue was dropped (fault-injected
    /// lost push): the shard's state no longer matches the stream.
    ChunkDropped {
        /// Destination shard of the lost chunk.
        shard: usize,
        /// 1-based global batch number of the lost chunk.
        batch: u64,
    },
    /// A requested epoch can no longer publish (the publisher closed the
    /// cell before reaching it).
    SnapshotLost {
        /// The epoch that was abandoned.
        epoch: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardDead { shard } => {
                write!(f, "shard worker {shard} terminated")
            }
            EngineError::MergerDead => write!(f, "merger thread terminated"),
            EngineError::ChunkDropped { shard, batch } => {
                write!(f, "chunk delivery to shard {shard} lost at batch {batch}")
            }
            EngineError::SnapshotLost { epoch } => {
                write!(f, "snapshot epoch {epoch} abandoned by a dying pipeline")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Supervision state of the engine, read with
/// [`ParallelIngestEngine::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineHealth {
    /// No fault has ever been observed.
    Healthy,
    /// The engine recovered from at least one fault. Sampler state is
    /// exact (recovery is bit-identical), but epochs that were in flight
    /// at a fault may have been re-issued under the same numbers.
    Degraded {
        /// Number of supervised recoveries performed.
        recoveries: u64,
    },
    /// The engine is terminally failed: every queue is closed, every
    /// call returns the recorded cause.
    Failed(EngineError),
}

/// Configuration of a [`ParallelIngestEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The single-node sampler the merged output must be equivalent to,
    /// plus the shard count.
    pub spec: ShardSpec,
    /// Bounded depth of each shard's work queue, in batches. Deeper queues
    /// smooth bursty producers; shallower ones bound in-flight memory.
    pub queue_depth: usize,
    /// Master seed; the driver and every shard derive non-overlapping
    /// jump-ahead substreams from it.
    pub seed: u64,
    /// What to do when a worker/merger dies mid-stream.
    pub recovery: RecoveryPolicy,
}

impl EngineConfig {
    /// An engine config with the default queue depth (64 batches) and
    /// [`RecoveryPolicy::Fail`].
    pub fn new(spec: ShardSpec, seed: u64) -> Self {
        Self {
            spec,
            queue_depth: 64,
            seed,
            recovery: RecoveryPolicy::Fail,
        }
    }

    /// This config with `recovery` set.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Steady-state ingest counters for one shard, read with
/// [`ParallelIngestEngine::shard_stats`].
///
/// Counters are charged to the **logical shard cell** whose sub-stream
/// was processed; each cell has exactly one owner thread, so they also
/// describe that thread's ingest work. Each fork flushes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Items ingested by this shard.
    pub items: u64,
    /// Sub-batches processed by this shard.
    pub batches: u64,
    /// Nanoseconds spent inside `observe` calls (excludes queue waits —
    /// this is the shard's *busy* time, the basis of the scaling bench's
    /// aggregate-capacity metric).
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
struct ShardCounters {
    items: AtomicU64,
    batches: AtomicU64,
    busy_ns: AtomicU64,
}

enum ShardMsg<T> {
    /// One sub-batch to ingest (possibly empty — empty batches still
    /// advance the shard's decay clock).
    Batch(Vec<T>),
    /// Fork the shard at this batch boundary: flush the counters, send
    /// `ticket`'s assembler a part — a clone of `(sampler, RNG state)`,
    /// unless the ticket is a pure fence — and refresh the recovery fork
    /// record. FIFO placement pins the fork to the exact batch boundary
    /// of the request, and the shard keeps ingesting.
    Fork(Ticket),
}

/// Where a fork's parts go, and whether they carry shard state.
#[derive(Debug, Clone, Copy)]
enum Ticket {
    /// An epoch or checkpoint fork, assembled on the merger thread under
    /// this ticket number.
    Merger(u64),
    /// A synchronous driver read, assembled by the waiting driver itself.
    /// `state: false` is a pure FIFO fence (`quiesce`): it clones nothing,
    /// so it stays allocation-free.
    Driver { state: bool },
}

/// One cell's contribution to a fork.
struct Part<S> {
    cell: usize,
    state: Option<Box<(S, [u64; 4])>>,
}

/// What the merger does with a fully assembled fork.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// Merge, realize, and publish as this epoch.
    Publish(u64),
    /// Hand the parts out as this asynchronous checkpoint generation.
    Checkpoint(u64),
}

/// Messages flowing into the background merger thread. FIFO causality
/// makes the fork protocol race-free: the driver enqueues the `Header`
/// *before* any shard can see the matching [`ShardMsg::Fork`], so the
/// merger always holds a fork's header before its parts arrive.
enum MergerMsg<S: MergeableSample> {
    /// Driver-side fork header: the ticket, what to do with the result,
    /// and the driver state the parts complete into an
    /// [`EngineCheckpoint`].
    Header {
        ticket: u64,
        purpose: Purpose,
        assembly: Assembly<S>,
    },
    /// One cell's forked state.
    Part { ticket: u64, part: Part<S> },
    /// A completed epoch realized by whichever worker finished the merge
    /// tree's root; the merger re-orders these into in-order publication.
    Publish {
        frozen: Box<FrozenSample<<S as MergeableSample>::Item>>,
    },
}

/// One fork being assembled — by the merger for epoch and checkpoint
/// forks, by the driver for synchronous reads. Starts as the driver-side
/// header and completes into an [`EngineCheckpoint`] once every cell's
/// part has arrived.
struct Assembly<S> {
    /// The driver RNG position (for an epoch: the merge replay position).
    driver_rng: [u64; 4],
    /// Split deviations (empty for forks that do not need them).
    deviations: Vec<f64>,
    /// Batches ingested at the fork.
    batches: u64,
    /// `(cell, state)` in arrival order; [`Assembly::finish`] sorts.
    states: Vec<(usize, (S, [u64; 4]))>,
    received: usize,
}

impl<S> Assembly<S> {
    fn add(&mut self, part: Part<S>) {
        self.received += 1;
        if let Some(state) = part.state {
            self.states.push((part.cell, *state));
        }
    }

    fn finish(mut self) -> EngineCheckpoint<S> {
        self.states.sort_unstable_by_key(|&(cell, _)| cell);
        EngineCheckpoint {
            shard_states: self.states.into_iter().map(|(_, state)| state).collect(),
            driver_rng: self.driver_rng,
            split_deviations: self.deviations,
            batches: self.batches,
        }
    }
}

/// One epoch's merge tree, shared (via `Arc`) between the merger and the
/// shard workers that cooperatively execute it.
///
/// Every node's RNG substream state is precomputed from the driver RNG
/// position recorded at request time, following the exact
/// [`tbs_core::merge::merge_replay`] substream contract — so the
/// cooperative execution is bit-identical to the sequential reference no
/// matter which threads run which nodes in which order.
struct EpochTree<S: MergeableSample> {
    epoch: u64,
    /// Batches-ingested staleness stamp for the published metadata.
    batches: u64,
    plan: MergePlan,
    scalars: MergeScalars,
    /// Per-node RNG substream states (`node_rngs[n]` = substream `n+1` of
    /// the recorded driver position, matching `merge_replay`).
    node_rngs: Vec<[u64; 4]>,
    /// The post-`long_jump` trajectory realization draws ride.
    realize_rng: [u64; 4],
    /// One slot per tree node; leaves are pre-loaded with the shard forks.
    slots: Vec<Mutex<Option<S>>>,
    /// Arrival counters for internal nodes (index = node − K): the second
    /// child to arrive merges the pair and climbs.
    pending: Vec<AtomicUsize>,
}

/// A leaf-execution task: run `tree` starting from leaf `usize`.
type TreeTask<S> = (Arc<EpochTree<S>>, usize);

/// One logical shard cell's queues and counters. The cell's sampler, RNG
/// and batch count live on its one owner thread (see `shard_worker`).
struct ShardCell<S: MergeableSample> {
    work: BatchQueue<ShardMsg<S::Item>>,
    recycle: BatchQueue<Vec<S::Item>>,
    counters: ShardCounters,
}

/// One shard's resumable state, recorded at every fork (and once at
/// spawn). Under [`RecoveryPolicy::RespawnFromBarrier`] the
/// driver rebuilds a dead pipeline from these plus its replay log.
struct ForkRecord<S> {
    /// The shard's `seen` batch count at the fork.
    batches: u64,
    sampler: S,
    rng: [u64; 4],
}

/// Everything the worker and merger threads share.
struct EngineShared<S: MergeableSample> {
    cells: Vec<ShardCell<S>>,
    /// Merge-tree leaf tasks, executed by idle workers (or the merger).
    tasks: BatchQueue<TreeTask<S>>,
    /// The merger thread's inbox.
    merger: BatchQueue<MergerMsg<S>>,
    /// Parts of the one outstanding driver-read fork (capacity: cells).
    replies: BatchQueue<Part<S>>,
    spec: ShardSpec,
    /// Per-worker queue depth (drained groups are bounded by this).
    depth: usize,
    /// Per-shard recovery fork records; `Some` iff the policy is
    /// [`RecoveryPolicy::RespawnFromBarrier`].
    recovery: Option<Vec<Mutex<Option<ForkRecord<S>>>>>,
    /// Completed checkpoint generations, oldest evicted on overflow.
    /// Shared by `Arc` so completed generations survive a pipeline
    /// rebuild (the queue outlives any one `EngineShared`).
    ckpts_done: Arc<BatchQueue<(u64, EngineCheckpoint<S>)>>,
    /// Injected-fault schedule; `None` (a single predictable branch per
    /// drained batch group — nothing per item) everywhere outside the
    /// fault-matrix tests.
    faults: Option<Arc<FaultPlan>>,
}

/// The complete durable state of a quiesced [`ParallelIngestEngine`]:
/// every shard's sampler and RNG position, the driver's RNG position, and
/// the balanced splitter's deviation state. Feeding it back through
/// [`ParallelIngestEngine::from_parts`] (same spec, shard count, and
/// queue depth) resumes the stream **bit-identically** to an
/// uninterrupted run — the engine-determinism tests pin this down.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint<S> {
    /// Per-cell `(sampler, RNG state)`, in cell-id order — one entry per
    /// logical shard cell (`ShardSpec::cells()`, == the shard count
    /// unless grouping is active).
    pub shard_states: Vec<(S, [u64; 4])>,
    /// The driver's merge/realization RNG position.
    pub driver_rng: [u64; 4],
    /// The balanced splitter's per-cell deviation state `D_k`, in
    /// cell-id order (all zeros for a fresh engine).
    pub split_deviations: Vec<f64>,
    /// Batches ingested so far — the staleness stamp future snapshot
    /// publications continue from.
    pub batches: u64,
}

/// A sharded, multi-threaded ingest front-end over any
/// [`MergeableSample`] sampler (R-TBS, T-TBS).
///
/// See the [module docs](self) for the pipeline anatomy. The engine is
/// deterministic: the realized sample is a pure function of
/// `(seed, shard count, batch sequence)` — merge-tree scheduling changes
/// which threads do the work, never the result.
pub struct ParallelIngestEngine<S: MergeableSample + Clone + Send + 'static>
where
    S::Item: Send + Sync + 'static,
{
    shared: Arc<EngineShared<S>>,
    worker_joins: Vec<Option<JoinHandle<()>>>,
    merger_join: Option<JoinHandle<()>>,
    /// Epoch-publication cell shared with every reader handle.
    cell: Arc<EpochCell<S::Item>>,
    /// Epoch assigned to the next snapshot request (first epoch is 1).
    next_epoch: u64,
    /// Batches fed through [`ParallelIngestEngine::ingest`] — the
    /// staleness stamp carried by published snapshots.
    batches_ingested: u64,
    /// The deviation-balanced deterministic batch splitter.
    splitter: BalancedSplitter,
    /// Largest per-shard chunk seen so far. Recycled split buffers are
    /// reserved up to this before filling, so every circulating buffer
    /// converges to the high-water capacity after one population cycle —
    /// making steady-state ingest deterministically allocation-free
    /// instead of "once every buffer has happened to carry a big chunk".
    chunk_high_water: usize,
    /// Driver-side substream: merge randomization + sample realization.
    driver_rng: Xoshiro256PlusPlus,
    /// Per-shard split buffers, refilled from the recycle queues.
    split: Vec<Vec<S::Item>>,
    /// The config the pipeline was built from (recovery respawns reuse it).
    cfg: EngineConfig,
    /// Terminal failure, recorded once; every later call returns a clone.
    failure: Option<EngineError>,
    /// Supervised recoveries performed so far.
    recoveries: u64,
    /// Generation assigned to the next checkpoint request (first is 1).
    next_ckpt_gen: u64,
    /// Ticket of the next merger-assembled fork.
    next_ticket: u64,
    /// Per-shard replay log `(global batch_no, chunk)` since the last
    /// fork record; only filled under `RespawnFromBarrier`.
    replay: Vec<VecDeque<(u64, Vec<S::Item>)>>,
}

impl<S: MergeableSample + Clone + Send + 'static> ParallelIngestEngine<S>
where
    S::Item: Clone + Send + Sync + 'static,
{
    /// Spawn the shard worker threads and return the ready engine.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::build(cfg, None)
    }

    /// An engine with an injected-fault schedule installed — the entry
    /// point of the fault-matrix suite. Production code never installs a
    /// plan; see [`crate::fault`].
    pub fn with_fault_plan(cfg: EngineConfig, plan: Arc<FaultPlan>) -> Self {
        Self::build(cfg, Some(plan))
    }

    fn build(cfg: EngineConfig, faults: Option<Arc<FaultPlan>>) -> Self {
        // Everything stream-visible — RNG substreams, the balanced split,
        // the samplers — is sized by the logical *cell* count, which is
        // the shard count unless shard grouping (`ShardSpec::cells`)
        // collapses small reservoirs. Worker threads stay at `shards`.
        let mut substreams =
            Xoshiro256PlusPlus::seed_from_u64(cfg.seed).split_streams(cfg.spec.cells() + 1);
        let driver_rng = substreams.remove(0);
        let shard_samplers = S::make_shards(&cfg.spec);
        let splitter = BalancedSplitter::new(cfg.spec.lambda, cfg.spec.cells());
        Self::spawn(
            cfg,
            shard_samplers,
            substreams,
            driver_rng,
            splitter,
            0,
            faults,
        )
    }

    /// Rebuild an engine from a quiesced checkpoint (see
    /// [`ParallelIngestEngine::save_parts`]). The config must describe the
    /// same sharding the checkpoint was taken under; `cfg.seed` is ignored
    /// — every RNG resumes from its checkpointed position.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shard count disagrees with `cfg.spec`.
    pub fn from_parts(cfg: EngineConfig, parts: EngineCheckpoint<S>) -> Self {
        assert_eq!(
            parts.shard_states.len(),
            cfg.spec.cells(),
            "checkpoint has {} shard cells, config wants {}",
            parts.shard_states.len(),
            cfg.spec.cells()
        );
        assert_eq!(
            parts.split_deviations.len(),
            cfg.spec.cells(),
            "checkpoint carries {} split deviations for {} shard cells",
            parts.split_deviations.len(),
            cfg.spec.cells()
        );
        let mut samplers = Vec::with_capacity(parts.shard_states.len());
        let mut rngs = Vec::with_capacity(parts.shard_states.len());
        for (sampler, state) in parts.shard_states {
            samplers.push(sampler);
            rngs.push(Xoshiro256PlusPlus::from_state(state));
        }
        let driver_rng = Xoshiro256PlusPlus::from_state(parts.driver_rng);
        let splitter = BalancedSplitter::from_deviations(cfg.spec.lambda, parts.split_deviations);
        Self::spawn(
            cfg,
            samplers,
            rngs,
            driver_rng,
            splitter,
            parts.batches,
            None,
        )
    }

    fn spawn(
        cfg: EngineConfig,
        shard_samplers: Vec<S>,
        substreams: Vec<Xoshiro256PlusPlus>,
        driver_rng: Xoshiro256PlusPlus,
        splitter: BalancedSplitter,
        batches0: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let cell = Arc::new(EpochCell::new());
        // Completed checkpoints outlive any one pipeline incarnation (a
        // recovery respawn hands the same queue to the new merger), so
        // generations assembled before a fault stay claimable after it.
        let ckpts_done = Arc::new(BatchQueue::with_capacity(4));
        let (shared, worker_joins, merger_join) = spawn_pipeline(
            &cfg,
            shard_samplers,
            substreams,
            batches0,
            faults,
            ckpts_done,
            &cell,
        );
        Self {
            split: (0..cfg.spec.cells()).map(|_| Vec::new()).collect(),
            replay: (0..cfg.spec.cells()).map(|_| VecDeque::new()).collect(),
            shared,
            worker_joins,
            merger_join,
            cell,
            next_epoch: 1,
            batches_ingested: batches0,
            splitter,
            chunk_high_water: 0,
            driver_rng,
            cfg,
            failure: None,
            recoveries: 0,
            next_ckpt_gen: 1,
            next_ticket: 0,
        }
    }

    /// The configured shard count K (the spec's declared parallelism;
    /// the engine spawns `min(K, G)` = [`Self::cells`] worker threads,
    /// one owner per cell).
    pub fn shards(&self) -> usize {
        self.cfg.spec.shards
    }

    /// The logical shard cell count G ≤ K — equal to `shards()` unless
    /// shard grouping ([`ShardSpec::cells`]) collapsed small reservoirs,
    /// in which case the declared K shards share the G cells, one owner
    /// thread each.
    pub fn cells(&self) -> usize {
        self.shared.cells.len()
    }

    /// The single-node-equivalent spec this engine maintains.
    pub fn spec(&self) -> &ShardSpec {
        &self.shared.spec
    }

    /// Feed one arriving batch. The batch is split deterministically
    /// across the shard queues by the balanced splitter (blocking only
    /// when a queue is full — backpressure, not data loss); empty batches
    /// are delivered too, since every shard's decay clock must advance.
    ///
    /// If the pipeline died, returns the typed cause under
    /// [`RecoveryPolicy::Fail`]; under
    /// [`RecoveryPolicy::RespawnFromBarrier`] the engine rebuilds itself
    /// (absorbing this batch via the replay log) and returns `Ok`.
    pub fn ingest(&mut self, mut batch: Vec<S::Item>) -> Result<(), EngineError> {
        self.check_alive()?;
        self.batches_ingested += 1;
        let batch_no = self.batches_ingested;
        if self.shared.cells.len() == 1 {
            // Single shard: hand the caller's buffer over untouched (the
            // splitter state stays identically zero for K = 1).
            if self.shared.recovery.is_some() {
                self.replay[0].push_back((batch_no, batch.clone()));
            }
            return self.deliver(0, batch_no, batch).map(|_| ());
        }
        let cells = &self.shared.cells;
        self.chunk_high_water = self.chunk_high_water.max(batch.len().div_ceil(cells.len()));
        for (slot, cell) in self.split.iter_mut().zip(cells) {
            *slot = cell.recycle.try_pop().unwrap_or_default();
            slot.reserve(self.chunk_high_water);
        }
        self.splitter.split(&mut batch, &mut self.split);
        if self.shared.recovery.is_some() {
            for (k, slot) in self.split.iter().enumerate() {
                self.replay[k].push_back((batch_no, slot.clone()));
            }
        }
        for k in 0..self.shared.cells.len() {
            let chunk = std::mem::take(&mut self.split[k]);
            if self.deliver(k, batch_no, chunk)? {
                // A recovery replayed the whole batch from the log; the
                // chunks not yet pushed are already absorbed.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Push one chunk to one shard, applying any injected fault. Returns
    /// whether a supervised recovery ran (meaning the caller's remaining
    /// chunks of this batch were absorbed via the replay log).
    fn deliver(
        &mut self,
        shard: usize,
        batch_no: u64,
        chunk: Vec<S::Item>,
    ) -> Result<bool, EngineError> {
        let action = match &self.shared.faults {
            Some(plan) => plan.push_action(shard, batch_no),
            None => PushAction::Deliver,
        };
        match action {
            PushAction::Drop => {
                // The enqueue was "lost": the shard's state no longer
                // matches its stream. Surfaced exactly like a dead shard —
                // fail typed, or restore from fork + replay (the log holds
                // the lost chunk).
                drop(chunk);
                self.incident(EngineError::ChunkDropped {
                    shard,
                    batch: batch_no,
                })?;
                Ok(true)
            }
            PushAction::Delay(stall) => {
                std::thread::sleep(stall);
                self.push_chunk(shard, chunk)
            }
            PushAction::Deliver => self.push_chunk(shard, chunk),
        }
    }

    fn push_chunk(&mut self, shard: usize, chunk: Vec<S::Item>) -> Result<bool, EngineError> {
        if self.shared.cells[shard]
            .work
            .push(ShardMsg::Batch(chunk))
            .is_err()
        {
            self.incident(EngineError::ShardDead { shard })?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Block until every shard has absorbed everything queued so far.
    pub fn quiesce(&mut self) -> Result<(), EngineError> {
        self.fork_and_wait(false).map(drop)
    }

    /// Quiesce, snapshot every shard, and merge the snapshots into a
    /// single-node-equivalent sampler (shards keep running; their live
    /// state is untouched). The merge runs the canonical
    /// [`tbs_core::merge::merge_replay`] tree on the driver thread.
    pub fn snapshot_merged(&mut self) -> Result<S, EngineError> {
        let shards = self
            .fork_and_wait(true)?
            .shard_states
            .into_iter()
            .map(|(sampler, _)| sampler)
            .collect();
        Ok(S::merge_shards(
            shards,
            &self.shared.spec,
            &mut self.driver_rng,
        ))
    }

    /// Quiesce and capture the engine's complete durable state: every
    /// shard's sampler and RNG position, the driver RNG position, and the
    /// balanced splitter's deviations. Unlike
    /// [`ParallelIngestEngine::sample`], this consumes **no** randomness,
    /// so checkpointing mid-stream leaves the trajectory untouched;
    /// [`ParallelIngestEngine::from_parts`] resumes bit-identically.
    pub fn save_parts(&mut self) -> Result<EngineCheckpoint<S>, EngineError> {
        self.fork_and_wait(true)
    }

    /// A synchronous driver read: fork every cell at the current batch
    /// boundary and assemble the parts on this thread (`state: false` is
    /// a pure fence). The wait is supervised like
    /// [`ParallelIngestEngine::sample`]'s: it polls in short slices and
    /// checks the pipeline's pulse on each timeout, so a death surfaces
    /// typed (or recovers, and the fork is re-issued) in bounded time.
    fn fork_and_wait(&mut self, state: bool) -> Result<EngineCheckpoint<S>, EngineError> {
        self.check_alive()?;
        'fork: loop {
            let mut assembly = self.header(self.driver_rng.state(), state);
            if let Err(cause) = self.send_forks(Ticket::Driver { state }) {
                self.incident(cause)?;
                continue;
            }
            while assembly.received < self.shared.cells.len() {
                if let Some(part) = self.shared.replies.try_pop() {
                    assembly.add(part);
                } else if let Some(cause) = self.detect_dead() {
                    self.incident(cause)?;
                    continue 'fork;
                } else {
                    self.shared.replies.wait_nonempty(SUPERVISE_SLICE);
                }
            }
            self.trim_replay();
            return Ok(assembly.finish());
        }
    }

    /// The driver-side header of a fork at the current batch boundary.
    fn header(&self, driver_rng: [u64; 4], deviations: bool) -> Assembly<S> {
        Assembly {
            driver_rng,
            deviations: if deviations {
                self.splitter.deviations().to_vec()
            } else {
                Vec::new()
            },
            batches: self.batches_ingested,
            states: Vec::new(),
            received: 0,
        }
    }

    /// Enqueue a fork marker behind everything ingested so far, on every
    /// cell.
    fn send_forks(&self, ticket: Ticket) -> Result<(), EngineError> {
        for (shard, cell) in self.shared.cells.iter().enumerate() {
            if cell.work.push(ShardMsg::Fork(ticket)).is_err() {
                return Err(EngineError::ShardDead { shard });
            }
        }
        Ok(())
    }

    /// Issue one merger-assembled fork: the header first, then the
    /// markers, so FIFO causality hands the merger every header before
    /// any of its parts.
    fn try_fork_to_merger(
        &mut self,
        purpose: Purpose,
        driver_rng: [u64; 4],
    ) -> Result<(), EngineError> {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let assembly = self.header(driver_rng, matches!(purpose, Purpose::Checkpoint(_)));
        self.shared
            .merger
            .push(MergerMsg::Header {
                ticket,
                purpose,
                assembly,
            })
            .map_err(|_| EngineError::MergerDead)?;
        self.send_forks(Ticket::Merger(ticket))?;
        self.trim_replay();
        Ok(())
    }

    /// Request an asynchronous checkpoint at the current batch boundary
    /// and return its generation number, **without stopping ingest**.
    ///
    /// Like [`ParallelIngestEngine::request_snapshot`], this is a fork:
    /// each shard clones its `(sampler, RNG)` exactly at this boundary
    /// and keeps ingesting; the merger assembles the parts into an
    /// [`EngineCheckpoint`] claimable via
    /// [`ParallelIngestEngine::try_take_checkpoint`]. Consumes **no**
    /// driver randomness, and the assembled checkpoint is byte-identical
    /// to what a synchronous [`ParallelIngestEngine::save_parts`] at the
    /// same boundary would return (the same fork, assembled by the
    /// driver). At most 4 completed generations are
    /// retained; the oldest unclaimed one is evicted.
    pub fn request_checkpoint(&mut self) -> Result<u64, EngineError> {
        self.check_alive()?;
        let gen = self.next_ckpt_gen;
        loop {
            match self.try_fork_to_merger(Purpose::Checkpoint(gen), self.driver_rng.state()) {
                Ok(()) => {
                    self.next_ckpt_gen += 1;
                    return Ok(gen);
                }
                // After a recovery the generation is re-requested on the
                // fresh pipeline — shard state is restored bit-identical,
                // so the checkpoint is too.
                Err(cause) => self.incident(cause)?,
            }
        }
    }

    /// Claim a completed asynchronous checkpoint, oldest first, without
    /// blocking. Returns `(generation, checkpoint)`.
    pub fn try_take_checkpoint(&mut self) -> Option<(u64, EngineCheckpoint<S>)> {
        self.shared.ckpts_done.try_pop()
    }

    /// Claim a completed asynchronous checkpoint, waiting up to `timeout`
    /// for one to assemble. `Ok(None)` means none completed within the
    /// deadline — including when a fault was detected and recovered
    /// mid-wait, in which case any in-flight generation died with the old
    /// pipeline and must be re-requested.
    pub fn wait_checkpoint(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, EngineCheckpoint<S>)>, EngineError> {
        self.check_alive()?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(got) = self.shared.ckpts_done.try_pop() {
                return Ok(Some(got));
            }
            if let Some(cause) = self.detect_dead() {
                self.incident(cause)?;
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).min(Duration::from_millis(5));
            self.shared.ckpts_done.wait_nonempty(wait);
        }
    }

    /// Request publication of an epoch snapshot and return its epoch
    /// number, **without stopping ingest or blocking on the result**.
    ///
    /// A fork marker is enqueued after everything ingested so far, so
    /// the snapshot reflects exactly the batches fed before this call.
    /// Each shard forks its state at the marker (an `O(n_k)` copy) and
    /// keeps ingesting; the merger derives the epoch's merge tree from
    /// the recorded driver RNG position and idle shard workers execute it
    /// cooperatively (see the module docs), publishing an
    /// `Arc<FrozenSample>` into the engine's [`EpochCell`].
    ///
    /// Consumes **no** driver randomness: the tree replays the merge +
    /// realization from the driver RNG's current *position*, so the
    /// published sample is bit-identical to what a driver-side
    /// [`ParallelIngestEngine::snapshot_merged`] + realization would have
    /// produced here, and the engine's own trajectory is untouched (like
    /// [`ParallelIngestEngine::save_parts`]).
    ///
    /// The only blocking is backpressure: if a queue is full the push
    /// waits, exactly as `ingest` does.
    ///
    /// If part of the pipeline has died (a panic guard closes its
    /// queues), the fork cannot reach every shard and the epoch could
    /// never complete: under [`RecoveryPolicy::Fail`] the engine fails
    /// typed (the dead pipeline's closers have already closed the cell,
    /// so `wait_for_epoch` callers observe publisher death instead of
    /// blocking forever; published epochs stay readable); under
    /// [`RecoveryPolicy::RespawnFromBarrier`] the pipeline is rebuilt and
    /// the request re-issued on it.
    pub fn request_snapshot(&mut self) -> Result<u64, EngineError> {
        self.check_alive()?;
        let pos = self.driver_rng.state();
        self.request_snapshot_at(pos)
    }

    /// Issue a snapshot request replaying merge randomness from driver
    /// position `pos`, retrying on a fresh pipeline after any recovered
    /// fault. Factored out so [`ParallelIngestEngine::sample`] can re-
    /// request a faulted epoch from its original pre-`long_jump` position
    /// — keeping the retried merge bit-identical to a fault-free run.
    fn request_snapshot_at(&mut self, pos: [u64; 4]) -> Result<u64, EngineError> {
        loop {
            let epoch = self.next_epoch;
            match self.try_fork_to_merger(Purpose::Publish(epoch), pos) {
                Ok(()) => {
                    self.next_epoch += 1;
                    return Ok(epoch);
                }
                Err(cause) => self.incident(cause)?,
            }
        }
    }

    /// The epoch-publication cell snapshots are served through. Clone the
    /// `Arc` into as many reader threads as you like; readers never touch
    /// the ingest path's queues or locks.
    pub fn snapshot_cell(&self) -> Arc<EpochCell<S::Item>> {
        Arc::clone(&self.cell)
    }

    /// Highest epoch published so far (0 until the first
    /// [`ParallelIngestEngine::request_snapshot`] completes).
    pub fn published_epoch(&self) -> u64 {
        self.cell.published_epoch()
    }

    /// Highest epoch requested so far (0 if none). The gap to
    /// [`ParallelIngestEngine::published_epoch`] is the number of
    /// snapshots still in flight.
    pub fn requested_epoch(&self) -> u64 {
        self.next_epoch - 1
    }

    /// Batches fed through [`ParallelIngestEngine::ingest`] so far.
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested
    }

    /// Merge and realize the unified sample **on the shard threads**:
    /// request an epoch snapshot, advance the driver past the merge's
    /// RNG-substream block (one `long_jump`, the `merge_replay`
    /// contract), and wait for the cooperative merge tree to publish.
    ///
    /// The driver thread does O(1) work here — the `⌈log₂K⌉`-depth merge
    /// and the realization run on the shard workers, overlapping any
    /// still-queued ingest.
    ///
    /// The wait is supervised: it polls in short slices and checks the
    /// pipeline's pulse on each timeout, so a death anywhere surfaces as
    /// a typed error (or a supervised recovery + bit-identical re-merge
    /// from the *same* RNG position) in bounded time — never a hang.
    pub fn sample(&mut self) -> Result<Vec<S::Item>, EngineError> {
        self.check_alive()?;
        let pos = self.driver_rng.state();
        let mut epoch = self.request_snapshot_at(pos)?;
        self.driver_rng.long_jump();
        loop {
            match self.cell.wait_for_epoch_timeout(epoch, SUPERVISE_SLICE) {
                EpochWait::Published(frozen) => return Ok(frozen.items().to_vec()),
                EpochWait::PublisherGone => {
                    self.incident(EngineError::SnapshotLost { epoch })?;
                    epoch = self.request_snapshot_at(pos)?;
                }
                EpochWait::TimedOut => {
                    if let Some(cause) = self.detect_dead() {
                        self.incident(cause)?;
                        epoch = self.request_snapshot_at(pos)?;
                    }
                    // Otherwise the pipeline is alive and merging — a
                    // slow epoch is legitimate; keep waiting.
                }
            }
        }
    }

    /// Per-shard ingest counters (items, batches, busy nanoseconds).
    /// Exact after a [`ParallelIngestEngine::quiesce`]; otherwise a
    /// point-in-time reading.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared
            .cells
            .iter()
            .map(|c| ShardStats {
                items: c.counters.items.load(Ordering::Relaxed),
                batches: c.counters.batches.load(Ordering::Relaxed),
                busy_ns: c.counters.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Current supervision state (see [`EngineHealth`]).
    pub fn health(&self) -> EngineHealth {
        match &self.failure {
            Some(cause) => EngineHealth::Failed(cause.clone()),
            None if self.recoveries > 0 => EngineHealth::Degraded {
                recoveries: self.recoveries,
            },
            None => EngineHealth::Healthy,
        }
    }

    /// Number of supervised recoveries performed so far. Consumers with
    /// work in flight across the pipeline (asynchronous checkpoints) can
    /// compare readings to learn that the pipeline was rebuilt under
    /// them.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    fn check_alive(&self) -> Result<(), EngineError> {
        match &self.failure {
            Some(cause) => Err(cause.clone()),
            None => Ok(()),
        }
    }

    /// Pulse check: a closed queue means its owner's panic guard ran.
    fn detect_dead(&self) -> Option<EngineError> {
        if self.shared.merger.is_closed() {
            return Some(EngineError::MergerDead);
        }
        for (i, cell) in self.shared.cells.iter().enumerate() {
            if cell.work.is_closed() {
                return Some(EngineError::ShardDead { shard: i });
            }
        }
        None
    }

    /// Funnel for every detected fault: recover under
    /// [`RecoveryPolicy::RespawnFromBarrier`] (returning `Ok` so the
    /// caller retries on the fresh pipeline), otherwise record the cause,
    /// tear the pipeline down, and return it.
    fn incident(&mut self, cause: EngineError) -> Result<(), EngineError> {
        if self.shared.recovery.is_some() {
            self.recover_from();
            Ok(())
        } else {
            self.fail_now(cause.clone());
            Err(cause)
        }
    }

    /// Transition to [`EngineHealth::Failed`]: close everything so no
    /// thread (ours or a reader's) can block on the dead pipeline, join
    /// what remains, record the cause.
    fn fail_now(&mut self, cause: EngineError) {
        self.failure = Some(cause);
        self.shutdown_pipeline();
        // The merger's closer already closed the cell on its way out;
        // repeat for the case where the merger was long gone.
        self.cell.close();
    }

    /// Stop-the-world: close every work queue, join the workers, close
    /// and join the merger. Join panics are swallowed — by the time we
    /// are here the death has already been converted to a typed cause.
    fn shutdown_pipeline(&mut self) {
        for cell in &self.shared.cells {
            cell.work.close();
        }
        for join in &mut self.worker_joins {
            if let Some(join) = join.take() {
                let _ = join.join();
            }
        }
        self.shared.merger.close();
        self.shared.tasks.close();
        if let Some(join) = self.merger_join.take() {
            let _ = join.join();
        }
    }

    /// Supervised recovery: tear the pipeline down, restore every shard
    /// from its last fork record plus the driver's replay log (splits and
    /// RNG substreams are deterministic, so the restored state is
    /// **bit-identical** to the pre-fault stream), and respawn fresh
    /// threads over the same epoch cell.
    fn recover_from(&mut self) {
        self.shutdown_pipeline();
        let mut samplers = Vec::with_capacity(self.shared.cells.len());
        let mut rngs = Vec::with_capacity(self.shared.cells.len());
        {
            // INVARIANT: `incident` only routes here when recovery slots
            // exist, and a record is installed in every slot before the
            // workers spawn — workers replace records, never remove them.
            let slots = self
                .shared
                .recovery
                .as_ref()
                .expect("recovery slots exist under RespawnFromBarrier");
            for (i, slot) in slots.iter().enumerate() {
                let record = slot
                    .lock()
                    .take()
                    .expect("fork record installed before spawn");
                let mut sampler = record.sampler;
                let mut rng = Xoshiro256PlusPlus::from_state(record.rng);
                for (batch_no, chunk) in &self.replay[i] {
                    if *batch_no > record.batches {
                        let mut buf = chunk.clone();
                        sampler.observe_shard(&mut buf, &mut rng);
                    }
                }
                samplers.push(sampler);
                rngs.push(rng);
            }
        }
        // Same cell: reader handles cloned before the fault stay valid.
        // The dead merger's closer closed it (waking stranded waiters
        // with `PublisherGone`); re-arm it for the new incarnation.
        self.cell.reopen();
        let (shared, worker_joins, merger_join) = spawn_pipeline(
            &self.cfg,
            samplers,
            rngs,
            self.batches_ingested,
            self.shared.faults.clone(),
            Arc::clone(&self.shared.ckpts_done),
            &self.cell,
        );
        self.shared = shared;
        self.worker_joins = worker_joins;
        self.merger_join = merger_join;
        // Epoch numbers that were in flight at the fault are re-issued:
        // the merger publishes from published+1, and `wait_for_epoch`'s
        // `>= epoch` contract hands a re-issued publication to anyone
        // still waiting on a lost number.
        self.next_epoch = self.cell.published_epoch() + 1;
        for log in &mut self.replay {
            log.clear();
        }
        self.recoveries += 1;
    }

    /// Drop replay-log entries already covered by the shards' latest fork
    /// records. Called after each fork issuance; `try_lock`
    /// only — a stale record just means trimming less now and more later.
    fn trim_replay(&mut self) {
        let Some(slots) = &self.shared.recovery else {
            return;
        };
        for (log, slot) in self.replay.iter_mut().zip(slots) {
            if let Some(guard) = slot.try_lock() {
                if let Some(record) = guard.as_ref() {
                    while log.front().is_some_and(|(no, _)| *no <= record.batches) {
                        log.pop_front();
                    }
                }
            }
        }
    }
}

impl<S: MergeableSample + Clone + Send + 'static> Drop for ParallelIngestEngine<S>
where
    S::Item: Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Closing the work queues lets each worker drain the backlog and
        // exit; join re-raises genuine worker panics.
        for cell in &self.shared.cells {
            cell.work.close();
        }
        let failure_recorded = self.failure.is_some();
        for join in &mut self.worker_joins {
            if let Some(join) = join.take() {
                if let Err(payload) = join.join() {
                    reraise(failure_recorded, payload);
                }
            }
        }
        // Shards first, merger second: a draining shard backlog may still
        // push fork parts or tree completions, which the merger must
        // be alive to absorb. After the close the merger self-executes
        // any leaf tasks the (now joined) workers left behind, publishes
        // whatever epochs completed, closes the cell (waking any
        // wait_for_epoch blockers), and exits.
        self.shared.merger.close();
        if let Some(join) = self.merger_join.take() {
            if let Err(payload) = join.join() {
                reraise(failure_recorded, payload);
            }
        }
    }
}

/// Decide what to do with a panic payload collected while joining a
/// pipeline thread at drop. A death the supervisor already converted to a
/// typed error — or one the fault harness injected on purpose — is not a
/// bug to re-report; anything else propagates (unless we are already
/// unwinding, where a second panic would abort the process).
fn reraise(failure_recorded: bool, payload: Box<dyn std::any::Any + Send>) {
    if failure_recorded || crate::fault::is_injected_panic(payload.as_ref()) {
        return;
    }
    if !std::thread::panicking() {
        std::panic::resume_unwind(payload);
    }
}

/// Build the shared state and spawn the merger + G shard worker threads
/// over an existing epoch cell. Used both at construction and by
/// supervised recovery respawns — which reuse the cell, so reader handles
/// cloned before a fault stay valid across it.
#[allow(clippy::type_complexity)]
fn spawn_pipeline<S: MergeableSample + Clone + Send + 'static>(
    cfg: &EngineConfig,
    shard_samplers: Vec<S>,
    substreams: Vec<Xoshiro256PlusPlus>,
    batches0: u64,
    faults: Option<Arc<FaultPlan>>,
    ckpts_done: Arc<BatchQueue<(u64, EngineCheckpoint<S>)>>,
    cell: &Arc<EpochCell<S::Item>>,
) -> (
    Arc<EngineShared<S>>,
    Vec<Option<JoinHandle<()>>>,
    Option<JoinHandle<()>>,
)
where
    S::Item: Send + Sync + 'static,
{
    let spec = cfg.spec;
    let depth = cfg.queue_depth.max(1);
    let recovery = match cfg.recovery {
        RecoveryPolicy::RespawnFromBarrier => Some(
            shard_samplers
                .iter()
                .zip(&substreams)
                .map(|(sampler, rng)| {
                    Mutex::new(Some(ForkRecord {
                        batches: batches0,
                        sampler: sampler.clone(),
                        rng: rng.state(),
                    }))
                })
                .collect(),
        ),
        RecoveryPolicy::Fail => None,
    };
    // One cell per incoming sampler: `make_shards`/`from_parts` sized the
    // vector by `spec.cells()`, the logical shard count the stream is
    // split across (== `spec.shards` unless grouping is active).
    let cell_count = shard_samplers.len();
    debug_assert_eq!(cell_count, spec.cells(), "sampler count must match cells");
    // Room for a few epochs in flight (each is 1 header + G parts +
    // 1 publish); beyond that the snapshot path exerts backpressure on
    // whoever requests faster than the pipeline can merge.
    let merger: BatchQueue<MergerMsg<S>> = BatchQueue::with_capacity(4 * (cell_count + 2));
    // Leaf tasks for a few epochs; dispatch never blocks on this
    // queue (overflow executes inline on the merger).
    let tasks: BatchQueue<TreeTask<S>> = BatchQueue::with_capacity(4 * cell_count + 4);
    let cells: Vec<ShardCell<S>> = (0..cell_count)
        .map(|_| {
            // The recycle queue is created at its full buffer
            // population, 2·depth + 2: at most depth buffers sit in
            // the work queue, at most depth in the owner's drained
            // group, and one in the driver — so at least one is always
            // available, the driver's try_pop never misses, the owner's
            // try_push never drops a warm buffer, and steady-state
            // ingest never calls the allocator for a buffer (the
            // counting-allocator test pins this down).
            let population = 2 * depth + 2;
            let recycle = BatchQueue::with_capacity(population);
            for _ in 0..population {
                let _ = recycle.try_push(Vec::new());
            }
            ShardCell {
                work: BatchQueue::with_capacity(depth),
                recycle,
                counters: ShardCounters::default(),
            }
        })
        .collect();
    let shared = Arc::new(EngineShared {
        cells,
        tasks,
        merger,
        // One driver read is outstanding at a time, so G parts never
        // block a worker.
        replies: BatchQueue::with_capacity(cell_count),
        spec,
        depth,
        recovery,
        ckpts_done,
        faults,
    });
    // In-order publication continues wherever the cell left off — a
    // recovery respawn must not restart the epoch sequence at 1.
    let start_pub = cell.published_epoch() + 1;
    // INVARIANT: thread spawn fails only on OS resource exhaustion
    // (thread limit, out of memory) — an environment failure at
    // construction/recovery time, not a runtime fault the supervisor
    // could meaningfully absorb. Aborting construction is the contract.
    let merger_join = std::thread::Builder::new()
        .name("tbs-merger".into())
        .spawn({
            let shared = Arc::clone(&shared);
            let cell = Arc::clone(cell);
            move || merger_worker(&shared, &cell, start_pub)
        })
        .expect("spawn merger worker");
    // One owner thread per reservoir cell, `min(K, G)` in total: with
    // grouping active the declared K shards collapse onto G cells, and
    // a thread beyond the cell count would have nothing to own.
    let worker_joins = shard_samplers
        .into_iter()
        .zip(substreams)
        .enumerate()
        .map(|(i, (sampler, rng))| {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name(format!("tbs-shard-{i}"))
                    .spawn(move || shard_worker(i, &shared, sampler, rng, batches0))
                    .expect("spawn shard worker"),
            )
        })
        .collect();
    (shared, worker_joins, Some(merger_join))
}

/// Ingest counters accumulated by a shard owner between flushes.
#[derive(Default)]
struct Tally {
    items: u64,
    batches: u64,
    busy_ns: u64,
    /// Open busy span. One span covers a contiguous run of batches: with
    /// a fast producer the drain delivers work in large groups, so the
    /// two clock reads amortize to nothing per batch.
    span: Option<Instant>,
}

impl Tally {
    fn open_span(&mut self) {
        self.span.get_or_insert_with(Instant::now);
    }

    /// Close the span and publish everything to `counters`. A fork
    /// flushes *before* sending its part: the driver reads the counters
    /// right after a `quiesce`, and "exact after quiesce" holds only if
    /// everything processed ahead of the fork is already visible.
    fn flush(&mut self, counters: &ShardCounters) {
        if let Some(t) = self.span.take() {
            self.busy_ns += t.elapsed().as_nanos() as u64;
        }
        counters.items.fetch_add(self.items, Ordering::Relaxed);
        counters.batches.fetch_add(self.batches, Ordering::Relaxed);
        counters.busy_ns.fetch_add(self.busy_ns, Ordering::Relaxed);
        *self = Self::default();
    }
}

/// The long-lived owner of shard cell `id`: the only thread that ever
/// touches the cell's sampler, RNG and batch count, which it holds as
/// plain locals. It drains the cell's queue in FIFO order, helps execute
/// merge-tree leaf tasks, and otherwise briefly waits for work.
fn shard_worker<S: MergeableSample + Clone>(
    id: usize,
    shared: &EngineShared<S>,
    mut sampler: S,
    mut rng: Xoshiro256PlusPlus,
    // Data batches this cell has processed (== the driver's
    // `batches_ingested` once the cell catches up, since every ingest
    // sends one chunk to every cell). Positions fault-injection sites
    // and stamps recovery fork records.
    mut seen: u64,
) {
    let cell = &shared.cells[id];
    // If the worker unwinds (a sampler panic), close its work queue: the
    // driver's pulse check sees the death, and a driver blocked on the
    // full queue in ingest() wakes with a push error instead of waiting
    // forever on a consumer that no longer exists. On normal exit the
    // engine is being dropped and the close is harmless.
    struct PanicCloser<'a, T>(&'a BatchQueue<ShardMsg<T>>);
    impl<T> Drop for PanicCloser<'_, T> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let _closer = PanicCloser(&cell.work);

    // A drained group holds at most `depth` messages (the work queue's
    // bound), so sizing the buffer up front makes the loop
    // allocation-free from the first batch on.
    let mut msgs: Vec<ShardMsg<S::Item>> = Vec::with_capacity(shared.depth);
    let mut tally = Tally::default();
    loop {
        // Read closure *before* draining: once closed no push can land,
        // so the drain that follows sees the whole remaining backlog.
        let closed = cell.work.is_closed();
        let mut progressed = cell.work.try_drain_into(&mut msgs) > 0;
        if !progressed && closed {
            return;
        }
        for msg in msgs.drain(..) {
            match msg {
                ShardMsg::Batch(mut buf) => {
                    if let Some(plan) = &shared.faults {
                        // Injection site: "logical shard `id`'s `seen`-th
                        // batch" — a deterministic stream position.
                        plan.fire_kill_worker(id, seen);
                    }
                    seen += 1;
                    tally.open_span();
                    tally.items += buf.len() as u64;
                    tally.batches += 1;
                    sampler.observe_shard(&mut buf, &mut rng);
                    buf.clear();
                    let _ = cell.recycle.try_push(buf);
                }
                ShardMsg::Fork(ticket) => {
                    // The fork is charged to the busy span: it is real
                    // per-shard pipeline work, and the serving
                    // benchmark's ingest-capacity gate must see the
                    // snapshot overhead.
                    tally.open_span();
                    let state = match ticket {
                        Ticket::Driver { state: false } => None,
                        _ => Some(Box::new((sampler.clone(), rng.state()))),
                    };
                    // Every fork doubles as a recovery point, bounding
                    // the driver's replay log at the fork cadence.
                    if let Some(slots) = &shared.recovery {
                        *slots[id].lock() = Some(ForkRecord {
                            batches: seen,
                            sampler: sampler.clone(),
                            rng: rng.state(),
                        });
                    }
                    tally.flush(&cell.counters);
                    let part = Part { cell: id, state };
                    match ticket {
                        Ticket::Merger(ticket) => {
                            let _ = shared.merger.push(MergerMsg::Part { ticket, part });
                        }
                        Ticket::Driver { .. } => {
                            let _ = shared.replies.push(part);
                        }
                    }
                }
            }
        }
        if progressed {
            tally.flush(&cell.counters);
        }
        // Help execute a merge-tree leaf task.
        if let Some((tree, leaf)) = shared.tasks.try_pop() {
            if let Some(frozen) = run_tree_task(&tree, leaf, &shared.spec) {
                let _ = shared.merger.push(MergerMsg::Publish {
                    frozen: Box::new(frozen),
                });
            }
            progressed = true;
        }
        // Idle: briefly wait for own work (woken early by push or close),
        // then recheck the task queue.
        if !progressed {
            cell.work.wait_nonempty(Duration::from_millis(1));
        }
    }
}

/// Execute one leaf of an epoch's merge tree and climb as far as
/// completed pairs allow. Returns the realized [`FrozenSample`] iff this
/// call finished the **root** (exactly one call per tree does).
///
/// Every node draws from its own precomputed RNG substream, so the
/// result is a pure function of the tree — not of which thread runs
/// this, or in what order siblings complete.
fn run_tree_task<S: MergeableSample>(
    tree: &EpochTree<S>,
    leaf: usize,
    spec: &ShardSpec,
) -> Option<FrozenSample<S::Item>> {
    let k = tree.plan.leaves();
    // INVARIANT: every leaf slot is filled at tree construction and each
    // leaf task is dispatched exactly once (queued, or executed inline by
    // the merger when the task queue is full — never both), so the first
    // and only execution finds its shard state present.
    let shard = tree.slots[leaf]
        .lock()
        .take()
        .expect("merge-tree leaf executed twice");
    let target = tree.scalars.leaf_targets.get(leaf).copied().unwrap_or(0.0);
    let mut rng = Xoshiro256PlusPlus::from_state(tree.node_rngs[leaf]);
    let mut node = leaf;
    let mut value = S::merge_leaf(shard, target, &mut rng);
    loop {
        let Some(parent) = tree.plan.parent(node) else {
            // Root complete: stamp the global scalars and realize on the
            // post-long_jump trajectory, exactly as the sequential
            // merge_replay + realize_into path would.
            let root = S::merge_finalize(value, &tree.scalars, spec);
            let mut rng = Xoshiro256PlusPlus::from_state(tree.realize_rng);
            let mut items = Vec::new();
            root.realize_into(&mut rng, &mut items);
            return Some(FrozenSample::new(
                tree.epoch,
                tree.batches,
                root.total_stream_weight(),
                root.expected_size(),
                items,
            ));
        };
        *tree.slots[node].lock() = Some(value);
        if tree.pending[parent - k].fetch_add(1, Ordering::AcqRel) == 0 {
            // First child to arrive: the sibling's finisher will merge.
            return None;
        }
        let (l, r) = tree.plan.pairs()[parent - k];
        // INVARIANT: the second child to bump `pending` merges the pair,
        // and each child stored its value *before* bumping — so by the
        // time this branch runs, both slots are filled.
        let left = tree.slots[l].lock().take().expect("left child ready");
        let right = tree.slots[r].lock().take().expect("right child ready");
        let mut rng = Xoshiro256PlusPlus::from_state(tree.node_rngs[parent]);
        value = S::merge_pair(left, right, spec, &mut rng);
        node = parent;
    }
}

/// Build one epoch's merge tree from its header and forks, deriving
/// every node's RNG substream from the recorded driver position with the
/// exact [`tbs_core::merge::merge_replay`] sequence (split into `2K`
/// streams without advancing, node `n` ← stream `n+1`, then one
/// `long_jump` for the realization trajectory).
fn build_tree<S: MergeableSample>(
    epoch: u64,
    batches: u64,
    rng_state: [u64; 4],
    forks: Vec<S>,
    spec: &ShardSpec,
) -> EpochTree<S> {
    let k = forks.len();
    let plan = MergePlan::new(k);
    let scalars = S::merge_targets(&forks, spec);
    let mut rng = Xoshiro256PlusPlus::from_state(rng_state);
    let streams = rng.split_streams(2 * k);
    rng.long_jump();
    let node_rngs = (0..plan.node_count())
        .map(|n| streams[n + 1].state())
        .collect();
    let realize_rng = rng.state();
    let mut slots: Vec<Mutex<Option<S>>> = forks.into_iter().map(|s| Mutex::new(Some(s))).collect();
    slots.resize_with(plan.node_count(), || Mutex::new(None));
    let pending = (0..k.saturating_sub(1))
        .map(|_| AtomicUsize::new(0))
        .collect();
    EpochTree {
        epoch,
        batches,
        plan,
        scalars,
        node_rngs,
        realize_rng,
        slots,
        pending,
    }
}

/// The background merge coordinator: assemble each fork from its header
/// and G cell parts; hand a completed checkpoint to the ring, or build a
/// completed epoch's merge tree and hand its leaf tasks to the idle shard
/// workers (executing inline whatever does not
/// fit — dispatch never blocks, which is what makes shutdown
/// deadlock-free), and publish completed epochs **strictly in order**.
fn merger_worker<S: MergeableSample + Clone>(
    shared: &EngineShared<S>,
    cell: &EpochCell<S::Item>,
    start_pub: u64,
) {
    // However this thread exits — queue closed on engine drop, or a
    // panic inside merge — close every merger-facing endpoint:
    //
    // * the cell, so readers blocked in wait_for_epoch wake instead of
    //   waiting on a publisher that no longer exists (published samples
    //   stay readable);
    // * the work queue, so shard workers pushing fork parts (and the
    //   driver pushing fork headers) fail fast instead of blocking
    //   forever on a bounded queue no one drains — a merger panic must
    //   not deadlock ingest, mirroring the shard workers' PanicCloser;
    // * the task queue, so no new tree work is admitted after the
    //   coordinator is gone.
    struct PanicCloser<'a, S: MergeableSample> {
        shared: &'a EngineShared<S>,
        cell: &'a EpochCell<S::Item>,
    }
    impl<S: MergeableSample> Drop for PanicCloser<'_, S> {
        fn drop(&mut self) {
            self.shared.merger.close();
            self.shared.tasks.close();
            self.cell.close();
        }
    }
    let _closer = PanicCloser { shared, cell };

    let spec = shared.spec;
    let cell_count = shared.cells.len();
    // Forks awaiting parts, by ticket.
    let mut pending: BTreeMap<u64, (Purpose, Assembly<S>)> = BTreeMap::new();
    // Completed-but-unpublished epochs, re-ordered for in-order
    // publication (trees of different epochs may finish out of order).
    let mut ready: BTreeMap<u64, FrozenSample<S::Item>> = BTreeMap::new();
    // Publication continues wherever the cell left off — 1 for a fresh
    // engine, published+1 for a recovery respawn.
    let mut next_pub: u64 = start_pub;
    // Messages processed by this merger incarnation (fault-site ordinal).
    let mut msg_seen: u64 = 0;
    // Trees dispatched but not yet completed. While nonzero the merger
    // must keep making progress itself (workers may all be busy with — or
    // already drained of — ingest), so it polls with a timeout and helps
    // execute leaf tasks instead of blocking.
    let mut inflight: usize = 0;
    let mut msgs: Vec<MergerMsg<S>> = Vec::new();
    loop {
        msgs.clear();
        if shared.merger.try_drain_into(&mut msgs) == 0 {
            if inflight == 0 {
                // Nothing running: block until something arrives. A 0
                // return means closed and fully drained — and with no
                // tree in flight there is nothing left to publish.
                if shared.merger.drain_into(&mut msgs) == 0 {
                    return;
                }
            } else if let Some((tree, leaf)) = shared.tasks.try_pop() {
                // Help execute the in-flight trees; after the workers
                // have exited (engine drop) this is what completes them.
                if let Some(frozen) = run_tree_task(&tree, leaf, &spec) {
                    inflight -= 1;
                    ready.insert(frozen.epoch(), frozen);
                }
            } else {
                let _ = shared
                    .merger
                    .drain_into_timeout(&mut msgs, Duration::from_millis(1));
            }
        }
        for msg in msgs.drain(..) {
            if let Some(plan) = &shared.faults {
                plan.fire_kill_merger(msg_seen);
            }
            msg_seen += 1;
            match msg {
                MergerMsg::Header {
                    ticket,
                    purpose,
                    assembly,
                } => {
                    pending.insert(ticket, (purpose, assembly));
                }
                MergerMsg::Part { ticket, part } => {
                    // INVARIANT: the driver enqueues a fork's header before
                    // any cell can see its marker, so the header is here.
                    let (_, assembly) = pending
                        .get_mut(&ticket)
                        .expect("fork header precedes its parts");
                    assembly.add(part);
                    if assembly.received < cell_count {
                        continue;
                    }
                    let (purpose, assembly) = pending.remove(&ticket).expect("assembly just found");
                    let parts = assembly.finish();
                    match purpose {
                        Purpose::Checkpoint(gen) => {
                            if let Err(fresh) = shared.ckpts_done.try_push((gen, parts)) {
                                // Ring full: evict the oldest unclaimed
                                // generation to keep the newest — never
                                // block the merge pipeline on a slow
                                // checkpoint consumer.
                                let _ = shared.ckpts_done.try_pop();
                                let _ = shared.ckpts_done.try_push(fresh);
                            }
                        }
                        Purpose::Publish(epoch) => {
                            let forks = parts.shard_states.into_iter().map(|(s, _)| s).collect();
                            let tree = Arc::new(build_tree(
                                epoch,
                                parts.batches,
                                parts.driver_rng,
                                forks,
                                &spec,
                            ));
                            inflight += 1;
                            for leaf in 0..cell_count {
                                if let Err((tree, leaf)) =
                                    shared.tasks.try_push((Arc::clone(&tree), leaf))
                                {
                                    // Task queue full (or closed): execute
                                    // inline rather than ever blocking —
                                    // the workers draining the queue may be
                                    // waiting on *this* thread at shutdown.
                                    if let Some(frozen) = run_tree_task(&tree, leaf, &spec) {
                                        inflight -= 1;
                                        ready.insert(frozen.epoch(), frozen);
                                    }
                                }
                            }
                        }
                    }
                }
                MergerMsg::Publish { frozen } => {
                    inflight -= 1;
                    ready.insert(frozen.epoch(), *frozen);
                }
            }
        }
        // Publish strictly in epoch order; later-finished older epochs
        // are never overtaken.
        while let Some(entry) = ready.first_entry() {
            if *entry.key() != next_pub {
                break;
            }
            cell.publish(Arc::new(entry.remove()));
            next_pub += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbs_core::{RTbs, TTbs};

    fn rtbs_engine(lambda: f64, n: usize, k: usize, seed: u64) -> ParallelIngestEngine<RTbs<u64>> {
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(lambda, n, k), seed))
    }

    #[test]
    fn capacity_is_respected() {
        let mut engine = rtbs_engine(0.1, 100, 4, 1);
        for t in 0..50u64 {
            let b = [50u64, 0, 200, 10][t as usize % 4];
            engine.ingest((0..b).collect()).unwrap();
        }
        let sample = engine.sample().unwrap();
        assert!(sample.len() <= 100, "sample overflow: {}", sample.len());
    }

    #[test]
    fn weight_recursion_is_exact() {
        let schedule = [30u64, 0, 80, 5, 5, 0, 0, 120, 10];
        for k in [1usize, 2, 4, 8, 16] {
            let mut engine = rtbs_engine(0.1, 50, k, 7);
            let mut w = 0.0f64;
            for &b in &schedule {
                w = w * (-0.1f64).exp() + b as f64;
                engine.ingest((0..b).collect()).unwrap();
            }
            let merged = engine.snapshot_merged().unwrap();
            assert!(
                (merged.total_weight() - w).abs() < 1e-9,
                "k={k}: W {} vs {w}",
                merged.total_weight()
            );
            assert!((merged.sample_weight() - w.min(50.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_count_all_items() {
        let mut engine = rtbs_engine(0.1, 64, 4, 3);
        let mut total = 0u64;
        for t in 0..40u64 {
            let b = [17u64, 0, 93, 5][t as usize % 4];
            total += b;
            engine.ingest((0..b).collect()).unwrap();
        }
        engine.quiesce().unwrap();
        let stats = engine.shard_stats();
        assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), total);
        assert_eq!(stats.iter().map(|s| s.batches).sum::<u64>(), 40 * 4);
    }

    #[test]
    fn snapshot_leaves_shards_running() {
        let mut engine = rtbs_engine(0.1, 32, 2, 5);
        engine.ingest((0..100u64).collect()).unwrap();
        let first = engine.snapshot_merged().unwrap();
        engine.ingest((0..100u64).collect()).unwrap();
        let second = engine.snapshot_merged().unwrap();
        assert_eq!(first.batches_observed() + 1, second.batches_observed());
        assert!(second.total_weight() > first.total_weight());
    }

    #[test]
    fn ttbs_engine_tracks_target() {
        let spec = ShardSpec::ttbs(0.1, 200, 100.0, 4);
        let mut engine: ParallelIngestEngine<TTbs<u64>> =
            ParallelIngestEngine::new(EngineConfig::new(spec, 11));
        for t in 0..400u64 {
            engine
                .ingest((0..100).map(|i| t * 100 + i).collect())
                .unwrap();
        }
        let merged = engine.snapshot_merged().unwrap();
        let size = merged.len() as f64;
        assert!(
            (size / 200.0 - 1.0).abs() < 0.25,
            "merged T-TBS size {size} far from target 200"
        );
    }

    #[test]
    fn drop_is_clean_with_backlog() {
        let mut engine = rtbs_engine(0.5, 16, 2, 9);
        for _ in 0..100 {
            engine.ingest((0..50u64).collect()).unwrap();
        }
        drop(engine); // must not hang or panic
    }

    #[test]
    fn drop_is_clean_with_unclaimed_snapshots() {
        // Requests whose trees are still in flight at drop must be
        // completed (or abandoned) without deadlock, and the cell must
        // end up closed.
        let mut engine = rtbs_engine(0.2, 64, 4, 13);
        for t in 0..50u64 {
            engine
                .ingest((0..80).map(|i| t * 100 + i).collect())
                .unwrap();
            if t % 10 == 0 {
                engine.request_snapshot().unwrap();
            }
        }
        let cell = engine.snapshot_cell();
        drop(engine);
        assert!(cell.is_closed());
        assert_eq!(cell.published_epoch(), 5, "all requested epochs publish");
    }

    #[test]
    fn save_parts_resume_is_bit_identical() {
        // Run A: 60 batches straight through. Run B: 30 batches, checkpoint,
        // rebuild a fresh engine from the parts, 30 more. Samples must match
        // exactly — same items, same order.
        for k in [1usize, 2, 4, 8, 16] {
            let batch = |t: u64| -> Vec<u64> {
                let b = [40u64, 0, 150, 7][t as usize % 4];
                (0..b).map(|i| t * 1000 + i).collect()
            };
            let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 64, k), 42);
            let mut uninterrupted = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..60 {
                uninterrupted.ingest(batch(t)).unwrap();
            }
            let expect = uninterrupted.sample().unwrap();

            let mut first_half = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..30 {
                first_half.ingest(batch(t)).unwrap();
            }
            let parts = first_half.save_parts().unwrap();
            assert_eq!(parts.split_deviations.len(), k);
            drop(first_half);
            let mut resumed = ParallelIngestEngine::<RTbs<u64>>::from_parts(cfg, parts);
            for t in 30..60 {
                resumed.ingest(batch(t)).unwrap();
            }
            assert_eq!(resumed.sample().unwrap(), expect, "k={k}: resume diverged");
        }
    }

    #[test]
    fn save_parts_does_not_disturb_the_trajectory() {
        // Checkpointing mid-stream must consume no randomness: a run with a
        // checkpoint taken halfway equals a run without one.
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 32, 2), 5);
        let mut plain = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        let mut observed = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        for t in 0..40u64 {
            plain
                .ingest((0..50).map(|i| t * 100 + i).collect())
                .unwrap();
            observed
                .ingest((0..50).map(|i| t * 100 + i).collect())
                .unwrap();
            if t == 20 {
                let _ = observed.save_parts().unwrap();
            }
        }
        assert_eq!(plain.sample().unwrap(), observed.sample().unwrap());
    }

    #[test]
    fn queue_depth_never_changes_the_sample() {
        // Slam a 16-shard engine with a shallow queue (maximizing
        // backpressure stalls and small drained groups) and compare
        // against a second run with a deep queue: same seed ⇒
        // bit-identical samples, whatever the thread interleaving did.
        let spec = ShardSpec::rtbs(0.1, 200, 16);
        let shallow = EngineConfig {
            spec,
            queue_depth: 2,
            seed: 77,
            recovery: RecoveryPolicy::Fail,
        };
        let deep = EngineConfig {
            spec,
            queue_depth: 256,
            seed: 77,
            recovery: RecoveryPolicy::Fail,
        };
        let drive = |cfg: EngineConfig| -> Vec<u64> {
            let mut engine = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..300u64 {
                let b = [331u64, 0, 97, 1200, 16][t as usize % 5];
                engine
                    .ingest((0..b).map(|i| t * 10_000 + i).collect())
                    .unwrap();
            }
            engine.sample().unwrap()
        };
        assert_eq!(drive(shallow), drive(deep));
    }

    fn drive_schedule(cfg: EngineConfig) -> Vec<u64> {
        let mut engine = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        for t in 0..120u64 {
            let b = [45u64, 0, 130, 7, 330][t as usize % 5];
            engine
                .ingest((0..b).map(|i| t * 1000 + i).collect())
                .unwrap();
        }
        engine.sample().unwrap()
    }

    #[test]
    fn grouped_engine_matches_equivalent_cell_count_engine() {
        // 64 declared shards grouped down to 4 cells must equal a
        // 4-shard engine bit-for-bit: every stream-visible structure
        // (RNG substreams, split, samplers, merge tree) is cell-indexed,
        // and the engine spawns one worker per cell.
        let spec = ShardSpec::rtbs(0.1, 100, 64).with_group_threshold(24);
        assert_eq!(spec.cells(), 4);
        let grouped = EngineConfig::new(spec, 21);
        let plain = EngineConfig::new(ShardSpec::rtbs(0.1, 100, 4), 21);
        assert_eq!(drive_schedule(grouped), drive_schedule(plain));
    }

    #[test]
    fn grouped_engine_checkpoint_resumes_bit_identically() {
        let spec = ShardSpec::rtbs(0.1, 100, 32).with_group_threshold(24);
        assert_eq!(spec.cells(), 4);
        let cfg = EngineConfig::new(spec, 33);
        let batch = |t: u64| -> Vec<u64> {
            let b = [40u64, 0, 150, 7][t as usize % 4];
            (0..b).map(|i| t * 1000 + i).collect()
        };
        let mut uninterrupted = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        for t in 0..60 {
            uninterrupted.ingest(batch(t)).unwrap();
        }
        let expect = uninterrupted.sample().unwrap();

        let mut first_half = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        for t in 0..30 {
            first_half.ingest(batch(t)).unwrap();
        }
        let parts = first_half.save_parts().unwrap();
        assert_eq!(parts.shard_states.len(), 4, "checkpoint is cell-indexed");
        assert_eq!(parts.split_deviations.len(), 4);
        drop(first_half);
        let mut resumed = ParallelIngestEngine::<RTbs<u64>>::from_parts(cfg, parts);
        for t in 30..60 {
            resumed.ingest(batch(t)).unwrap();
        }
        assert_eq!(resumed.sample().unwrap(), expect, "grouped resume diverged");
    }

    #[test]
    fn deferred_downsampling_engine_is_deterministic() {
        // Batch-granular downsampling in the shards must keep the engine
        // a pure function of (seed, cells, batches): two runs with the
        // same θ agree, and θ > e^{-λ} degenerates to the eager result.
        let lazy = ShardSpec::rtbs(0.1, 400, 4).with_defer_threshold(1e-6);
        let a = drive_schedule(EngineConfig::new(lazy, 55));
        let b = drive_schedule(EngineConfig::new(lazy, 55));
        assert_eq!(a, b, "lazy engine not deterministic");
        let near_eager = ShardSpec::rtbs(0.1, 400, 4).with_defer_threshold(0.99);
        let eager = ShardSpec::rtbs(0.1, 400, 4);
        assert_eq!(
            drive_schedule(EngineConfig::new(near_eager, 55)),
            drive_schedule(EngineConfig::new(eager, 55)),
            "θ > e^{{-λ}} must match the eager path bit-for-bit"
        );
    }
}
