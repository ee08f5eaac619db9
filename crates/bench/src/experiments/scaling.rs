//! Multi-core scaling baseline for the sharded parallel ingest engine —
//! the committed `BENCH_scaling.json` every PR is judged against.
//!
//! PR 2 established the single-core baseline (`BENCH_throughput.json`);
//! this experiment establishes the *parallel* one: aggregate ingest
//! capacity of [`tbs_distributed::engine::ParallelIngestEngine`] at
//! 1–64 shards over the saturated and bursty stream regimes,
//! for R-TBS and T-TBS, plus a same-run single-threaded fast-path
//! reference row (the PR 2 measurement repeated, so the pipeline overhead
//! is read off one document). R-TBS rows run with the tail-flattening
//! knobs on: batch-granular downsampling (`rtbs_defer_threshold`) and
//! shard groups (per-regime `rtbs_group_threshold_*`), so each row
//! reports both its worker count K and its cell count G ≤ K.
//!
//! Each engine row also records the merge-tree depth (`⌈log₂G⌉`) and the
//! per-cell busy-time fractions, so load imbalance — the thing the
//! balanced splitter exists to kill — is visible in the committed
//! artifact. The acceptance gate
//! ([`GATE_K8_FLOOR_ITEMS_PER_SEC`]) pins the 8-shard-cliff fix and the
//! flattened K = 32 tail: the saturated R-TBS aggregate at K = 8 must
//! clear twice the committed pre-fix row, K = 16 must not regress below
//! K = 8, and K = 32 must not regress below K = 16.
//!
//! ## The two throughput metrics
//!
//! * **`items_per_sec_wall`** — items fed divided by wall-clock time of
//!   the driver loop (feed + quiesce). On a host with ≥ K free cores this
//!   is the end-to-end parallel throughput.
//! * **`items_per_sec_aggregate`** — `Σ_k items_k / busy_k` over the
//!   shards, where `busy_k` is shard *k*'s time inside `observe` calls
//!   (queue waits excluded). This measures the engine's ingest
//!   *capacity* — what the shards sustain while scheduled — and is the
//!   hardware-independent scaling signal: on a single-core host (like the
//!   container that produced the committed baseline, see `host` in the
//!   JSON) wall-clock parallel speedup is physically impossible, while
//!   per-shard busy time still exposes whether the pipeline adds overhead
//!   per shard. On a multi-core host the two metrics converge.
//!
//! The sweep also times `WorkerPool` job dispatch — persistent pool vs
//! the pre-PR-3 per-batch `thread::spawn` — quantifying the D-R-TBS
//! per-batch overhead drop (`pool_dispatch` rows).

use crate::experiments::throughput::{measure_one, ApiPath, Regime, SamplerKind, ThroughputConfig};
use crate::json::Json;
use crate::output::{f, print_table, write_csv};
use std::time::Instant;
use tbs_core::merge::{MergePlan, MergeableSample, ShardSpec};
use tbs_core::{RTbs, TTbs};
use tbs_distributed::cluster::WorkerPool;
use tbs_distributed::engine::{EngineConfig, ParallelIngestEngine, ShardStats};

/// Acceptance floor for the saturated R-TBS aggregate rate at K = 8:
/// twice the committed pre-fix 267.7M items/s row, i.e. the 8-shard
/// cliff must be at least halved-back. The rest of the gate is
/// relative: the K = 16 aggregate must not fall below K = 8, and K = 32
/// — where every shard's reservoir share sits just above its
/// equilibrium weight, pinning the pre-fix engine in the eager per-step
/// downsample — must not fall below K = 16 (the flattened-tail gate:
/// batch-granular downsampling plus shard groups).
pub const GATE_K8_FLOOR_ITEMS_PER_SEC: f64 = 535.4e6;

/// Tuning knobs for one scaling run.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Batches fed inside each timed repeat.
    pub measured_batches: usize,
    /// Untimed batches fed first so every shard reaches steady state
    /// (reservoirs saturate, queues and recycled buffers hit high water).
    pub warmup_batches: usize,
    /// Timed repeats; the best (highest-aggregate) is reported.
    pub repeats: usize,
    /// Base RNG seed; each combination derives its own engine seed.
    pub seed: u64,
    /// Shard counts to sweep.
    pub shard_counts: Vec<usize>,
    /// Iterations for the pool-dispatch comparison (persistent pool).
    pub dispatch_iters: usize,
    /// Iterations for the pool-dispatch comparison (spawn-per-batch —
    /// fewer, because each iteration pays k thread spawns).
    pub spawn_iters: usize,
    /// Deferred-downsampling drift threshold θ applied to every R-TBS
    /// engine row (1.0 = eager). At high K the per-shard reservoir sits
    /// below saturation, and without deferral every batch pays the full
    /// `O(n_k)` downsample sweep — the K = 32 tail.
    pub rtbs_defer_threshold: f64,
    /// Shard-group threshold for the saturated R-TBS rows (0 =
    /// ungrouped): once `⌈n/G⌉` drops below it, worker threads share
    /// fewer reservoir cells so per-batch fixed costs scale with G, not
    /// K. The right threshold is workload-dependent — group when the
    /// per-cell share of a *batch* is too small to amortize the per-cell
    /// fixed costs. The saturated stream delivers 100 items/batch
    /// against n = 1000, so cells below a ~48-item share (K ≥ 32) see
    /// ~3 items/batch each and are better shared.
    pub rtbs_group_threshold_saturated: usize,
    /// Shard-group threshold for the bursty R-TBS rows. Bursty batches
    /// run up to ~1000 items, so even a 32-item cell share still
    /// receives enough arrivals per batch to amortize its fixed costs —
    /// grouping at K = 32 would *forfeit* real scaling there (ungrouped
    /// K = 32 clears K = 16 by ~30% aggregate). Only K = 64's 16-item
    /// share drops below this threshold.
    pub rtbs_group_threshold_bursty: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            measured_batches: 20_000,
            warmup_batches: 2_000,
            repeats: 3,
            seed: 0x5CA1_2018,
            shard_counts: vec![1, 2, 4, 8, 16, 32, 64],
            dispatch_iters: 2_000,
            spawn_iters: 300,
            rtbs_defer_threshold: 0.01,
            rtbs_group_threshold_saturated: 48,
            rtbs_group_threshold_bursty: 24,
        }
    }
}

impl ScalingConfig {
    /// Tiny iteration counts for CI smoke runs: verifies the harness end
    /// to end in milliseconds without producing meaningful numbers.
    pub fn smoke() -> Self {
        Self {
            measured_batches: 40,
            warmup_batches: 20,
            repeats: 1,
            seed: 7,
            shard_counts: vec![1, 2],
            dispatch_iters: 20,
            spawn_iters: 5,
            rtbs_defer_threshold: 0.01,
            rtbs_group_threshold_saturated: 48,
            rtbs_group_threshold_bursty: 24,
        }
    }

    /// The shard-group threshold for an R-TBS row in `regime` (see the
    /// two per-regime fields for why this is workload-dependent).
    pub fn rtbs_group_threshold(&self, regime: Regime) -> usize {
        match regime {
            Regime::Bursty => self.rtbs_group_threshold_bursty,
            _ => self.rtbs_group_threshold_saturated,
        }
    }
}

/// One measured (sampler, mode, shards, regime) combination.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Sampler label (`R-TBS`, `T-TBS`).
    pub sampler: &'static str,
    /// `engine` (sharded pipeline) or `single_fast` (PR 2's
    /// single-threaded monomorphized reference, measured in this run).
    pub mode: &'static str,
    /// Shard count K — configured worker threads (1 for `single_fast`).
    pub shards: usize,
    /// Logical reservoir cells G ≤ K the workers drive (== K unless
    /// shard groups are active; 1 for `single_fast`). Busy fractions,
    /// the merge tree, and the per-cell stats are all sized by this.
    pub cells: usize,
    /// Regime label (`saturated`, `bursty`).
    pub regime: &'static str,
    /// Batches fed inside the timed repeat.
    pub batches: usize,
    /// Items fed inside the timed repeat.
    pub items: u64,
    /// Wall-clock nanoseconds of the reported repeat (feed + quiesce).
    pub wall_ns: u64,
    /// Total shard busy nanoseconds (Σ_k busy_k) of the reported repeat.
    pub busy_ns: u64,
    /// Items per second by wall clock.
    pub items_per_sec_wall: f64,
    /// Aggregate capacity: Σ_k items_k/busy_k (items per second).
    pub items_per_sec_aggregate: f64,
    /// Mean busy nanoseconds per item across shards.
    pub ns_per_item_busy: f64,
    /// Depth of the pairwise merge tree the engine runs for this K
    /// (`⌈log₂K⌉`; 0 for K = 1 and for the `single_fast` reference).
    pub merge_tree_depth: usize,
    /// Each cell's share of the total busy time (`busy_g / Σ busy`,
    /// sums to 1, one entry per cell). Balanced splits should keep
    /// these near `1/G`; a hot cell shows up here directly.
    pub shard_busy_fracs: Vec<f64>,
}

/// One pool-dispatch comparison row: per-batch cost of running `workers`
/// jobs through the given execution mode.
#[derive(Debug, Clone)]
pub struct PoolDispatchRow {
    /// Jobs per batch (= simulated worker count).
    pub workers: usize,
    /// `spawn_per_batch` (pre-PR-3: one `thread::spawn` per job per
    /// batch) or `persistent_pool` (cached threads, condvar dispatch).
    pub mode: &'static str,
    /// Timed iterations.
    pub iters: usize,
    /// Mean nanoseconds per batch of `workers` jobs.
    pub per_batch_ns: f64,
}

/// Generate `count` batches of the regime's schedule starting at step
/// `t0`; returns the batches and the total item count.
fn gen_batches(regime: Regime, count: usize, t0: usize) -> (Vec<Vec<u64>>, u64) {
    let mut items = 0u64;
    let mut out = Vec::with_capacity(count);
    for t in t0..t0 + count {
        let b = regime.batch_size(t);
        let base = t as u64 * 1_000_000;
        out.push((0..b as u64).map(|i| base + i).collect());
        items += b as u64;
    }
    (out, items)
}

fn stats_delta(before: &[ShardStats], after: &[ShardStats]) -> Vec<ShardStats> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| ShardStats {
            items: a.items - b.items,
            batches: a.batches - b.batches,
            busy_ns: a.busy_ns - b.busy_ns,
        })
        .collect()
}

/// Aggregate capacity Σ_k items_k/busy_k, in items per second.
fn aggregate_rate(deltas: &[ShardStats]) -> f64 {
    deltas
        .iter()
        .filter(|d| d.busy_ns > 0)
        .map(|d| d.items as f64 * 1e9 / d.busy_ns as f64)
        .sum()
}

/// Drive one engine through warmup plus `repeats` timed windows; report
/// the repeat with the highest aggregate rate (minimum-interference
/// estimator, mirroring the throughput bench's fastest-repeat rule).
///
/// One engine is built per row and **reused across every repeat**: the
/// warmup's steady state (saturated reservoirs, high-water queues,
/// recycled buffers) carries into each timed window instead of being
/// re-paid per repeat, and the per-cell stats are windowed by delta.
/// The CI smoke schema check pins the resulting row count.
fn measure_engine<S>(
    cfg: &ScalingConfig,
    sampler: &'static str,
    spec: ShardSpec,
    regime: Regime,
    seed: u64,
) -> ScalingRow
where
    S: MergeableSample<Item = u64> + Clone + Send + 'static,
{
    let mut engine: ParallelIngestEngine<S> =
        ParallelIngestEngine::new(EngineConfig::new(spec, seed));
    let (warm, _) = gen_batches(regime, cfg.warmup_batches, 0);
    for batch in warm {
        engine.ingest(batch).unwrap();
    }
    engine.quiesce().unwrap();

    let mut best: Option<ScalingRow> = None;
    let mut t0 = cfg.warmup_batches;
    for _ in 0..cfg.repeats.max(1) {
        let (batches, items) = gen_batches(regime, cfg.measured_batches, t0);
        t0 += cfg.measured_batches;
        let before = engine.shard_stats();
        let wall = Instant::now();
        for batch in batches {
            engine.ingest(batch).unwrap();
        }
        engine.quiesce().unwrap();
        let wall_ns = (wall.elapsed().as_nanos() as u64).max(1);
        let deltas = stats_delta(&before, &engine.shard_stats());
        let busy_ns: u64 = deltas.iter().map(|d| d.busy_ns).sum();
        let aggregate = aggregate_rate(&deltas);
        let shard_busy_fracs = deltas
            .iter()
            .map(|d| d.busy_ns as f64 / (busy_ns.max(1)) as f64)
            .collect();
        let row = ScalingRow {
            sampler,
            mode: "engine",
            shards: spec.shards,
            cells: spec.cells(),
            regime: regime.label(),
            batches: cfg.measured_batches,
            items,
            wall_ns,
            busy_ns,
            items_per_sec_wall: items as f64 * 1e9 / wall_ns as f64,
            items_per_sec_aggregate: aggregate,
            ns_per_item_busy: busy_ns as f64 / (items.max(1)) as f64,
            merge_tree_depth: MergePlan::new(spec.cells()).depth(),
            shard_busy_fracs,
        };
        if best
            .as_ref()
            .is_none_or(|b| row.items_per_sec_aggregate > b.items_per_sec_aggregate)
        {
            best = Some(row);
        }
    }
    best.expect("at least one repeat")
}

/// Single-threaded fast-path reference (the PR 2 measurement, repeated in
/// this run so engine overhead is judged against the same machine state).
fn measure_single_fast(cfg: &ScalingConfig, kind: SamplerKind, regime: Regime) -> ScalingRow {
    let tcfg = ThroughputConfig {
        measured_batches: cfg.measured_batches,
        warmup_batches: cfg.warmup_batches,
        repeats: cfg.repeats,
        seed: cfg.seed,
    };
    let row = measure_one(&tcfg, kind, ApiPath::Fast, regime);
    ScalingRow {
        sampler: row.sampler,
        mode: "single_fast",
        shards: 1,
        cells: 1,
        regime: row.regime,
        batches: row.batches,
        items: row.items,
        wall_ns: row.elapsed_ns,
        busy_ns: row.elapsed_ns,
        items_per_sec_wall: row.items_per_sec,
        items_per_sec_aggregate: row.items_per_sec,
        ns_per_item_busy: row.ns_per_item,
        merge_tree_depth: 0,
        shard_busy_fracs: vec![1.0],
    }
}

/// Time `iters` batches of `workers` jobs through `run`, returning mean
/// nanoseconds per batch. Each job does a token amount of work (a short
/// checksum) so dispatch is measured against a realistic non-empty job.
fn time_dispatch(workers: usize, iters: usize, mut run: impl FnMut(usize) -> u64) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..iters.max(1) {
        sink = sink.wrapping_add(run(workers));
    }
    let total = start.elapsed().as_nanos() as f64;
    // Keep the checksum observable so the work is not optimized away.
    assert!(sink != u64::MAX, "checksum sentinel");
    total / iters.max(1) as f64
}

fn dispatch_job(j: usize) -> u64 {
    (0..64u64).fold(j as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
}

/// Compare per-batch job dispatch: pre-PR-3 spawn-per-batch vs the
/// persistent `WorkerPool`.
pub fn run_pool_dispatch(cfg: &ScalingConfig) -> Vec<PoolDispatchRow> {
    let mut rows = Vec::new();
    for &workers in &[2usize, 4, 8] {
        let spawn_ns = time_dispatch(workers, cfg.spawn_iters, |k| {
            // The pre-PR-3 WorkerPool::run body: one scoped OS thread per
            // job, joined before the batch completes.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..k)
                    .map(|j| scope.spawn(move || dispatch_job(j)))
                    .collect();
                handles
                    .into_iter()
                    .fold(0u64, |acc, h| acc.wrapping_add(h.join().unwrap()))
            })
        });
        rows.push(PoolDispatchRow {
            workers,
            mode: "spawn_per_batch",
            iters: cfg.spawn_iters,
            per_batch_ns: spawn_ns,
        });
        let pool = WorkerPool::threaded();
        // Warm the thread cache so the measurement sees steady state.
        pool.run(
            (0..workers)
                .map(|j| move || dispatch_job(j))
                .collect::<Vec<_>>(),
        );
        let pool_ns = time_dispatch(workers, cfg.dispatch_iters, |k| {
            pool.run((0..k).map(|j| move || dispatch_job(j)).collect::<Vec<_>>())
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        });
        rows.push(PoolDispatchRow {
            workers,
            mode: "persistent_pool",
            iters: cfg.dispatch_iters,
            per_batch_ns: pool_ns,
        });
    }
    rows
}

/// Run the full scaling sweep: engine rows for every
/// (sampler, shard count, regime) plus single-threaded reference rows.
pub fn run_scaling(cfg: &ScalingConfig) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for regime in [Regime::Saturated, Regime::Bursty] {
        rows.push(measure_single_fast(cfg, SamplerKind::RTbs, regime));
        for &k in &cfg.shard_counts {
            // R-TBS rows carry the tail-flattening knobs: lazy θ makes
            // the unsaturated per-shard regime at high K O(1)-amortized
            // per batch, and the group threshold collapses K workers
            // onto G < K cells once the per-cell share gets small
            // relative to the regime's per-batch arrivals (per-regime
            // thresholds — see the `ScalingConfig` field docs).
            let spec = ShardSpec::rtbs(regime.lambda(), regime.capacity(), k)
                .with_defer_threshold(cfg.rtbs_defer_threshold)
                .with_group_threshold(cfg.rtbs_group_threshold(regime));
            let seed = cfg.seed.wrapping_add((k as u64) << 8 | regime as u64);
            rows.push(measure_engine::<RTbs<u64>>(
                cfg, "R-TBS", spec, regime, seed,
            ));
        }
        rows.push(measure_single_fast(cfg, SamplerKind::TTbs, regime));
        for &k in &cfg.shard_counts {
            let spec = ShardSpec::ttbs(
                regime.lambda(),
                regime.ttbs_target(),
                regime.mean_batch(),
                k,
            );
            let seed = cfg.seed.wrapping_add((k as u64) << 16 | regime as u64);
            rows.push(measure_engine::<TTbs<u64>>(
                cfg, "T-TBS", spec, regime, seed,
            ));
        }
    }
    rows
}

/// The acceptance-relevant summary figures, if the sweep contains them.
fn summary(rows: &[ScalingRow]) -> Json {
    let find = |mode: &str, shards: usize| {
        rows.iter().find(|r| {
            r.sampler == "R-TBS" && r.regime == "saturated" && r.mode == mode && r.shards == shards
        })
    };
    let one = find("engine", 1);
    let four = find("engine", 4);
    let single = find("single_fast", 1);
    let ratio = |a: Option<&ScalingRow>, b: Option<&ScalingRow>| match (a, b) {
        (Some(a), Some(b)) if b.items_per_sec_aggregate > 0.0 => {
            Json::Num(a.items_per_sec_aggregate / b.items_per_sec_aggregate)
        }
        _ => Json::Null,
    };
    // The scaling gate: the saturated R-TBS aggregate at K = 8 must
    // clear twice the committed pre-fix row (the 8-shard-cliff fix),
    // K = 16 must not regress below K = 8, and K = 32 must not regress
    // below K = 16 (the flattened-tail fix: batch-granular downsampling
    // plus shard groups). Sweeps without all three rows (smoke) carry
    // no verdict.
    let eight = find("engine", 8);
    let sixteen = find("engine", 16);
    let thirty_two = find("engine", 32);
    let gate = match (eight, sixteen, thirty_two) {
        (Some(e8), Some(e16), Some(e32)) => {
            let pass = e8.items_per_sec_aggregate >= GATE_K8_FLOOR_ITEMS_PER_SEC
                && e16.items_per_sec_aggregate >= e8.items_per_sec_aggregate
                && e32.items_per_sec_aggregate >= e16.items_per_sec_aggregate;
            Json::obj([
                ("sampler", Json::str("R-TBS")),
                ("regime", Json::str("saturated")),
                (
                    "k8_items_per_sec_aggregate",
                    Json::Num(e8.items_per_sec_aggregate),
                ),
                (
                    "k16_items_per_sec_aggregate",
                    Json::Num(e16.items_per_sec_aggregate),
                ),
                (
                    "k32_items_per_sec_aggregate",
                    Json::Num(e32.items_per_sec_aggregate),
                ),
                (
                    "k8_floor_items_per_sec",
                    Json::Num(GATE_K8_FLOOR_ITEMS_PER_SEC),
                ),
                ("pass", Json::Bool(pass)),
            ])
        }
        _ => Json::Null,
    };
    Json::obj([
        // Aggregate saturated R-TBS capacity at 4 shards over the 1-shard
        // engine, same run.
        ("saturated_rtbs_speedup_4x_vs_1x", ratio(four, one)),
        // 1-shard engine over the single-threaded fast path: the
        // pipeline's own overhead (1.0 = none).
        ("one_shard_engine_vs_single_fast", ratio(one, single)),
        ("gate", gate),
    ])
}

/// Print the aligned console tables and write the CSVs under `results/`.
pub fn report(rows: &[ScalingRow], pool: &[PoolDispatchRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sampler.to_string(),
                r.mode.to_string(),
                r.shards.to_string(),
                r.cells.to_string(),
                r.regime.to_string(),
                r.items.to_string(),
                f(r.items_per_sec_aggregate / 1e6, 2),
                f(r.items_per_sec_wall / 1e6, 2),
                f(r.ns_per_item_busy, 2),
                r.merge_tree_depth.to_string(),
                f(r.shard_busy_fracs.iter().copied().fold(0.0, f64::max), 3),
            ]
        })
        .collect();
    write_csv(
        "bench_scaling.csv",
        &[
            "sampler",
            "mode",
            "shards",
            "cells",
            "regime",
            "items",
            "aggregate_M_items_per_sec",
            "wall_M_items_per_sec",
            "busy_ns_per_item",
            "merge_tree_depth",
            "max_shard_busy_frac",
        ],
        &table,
    );
    print_table(
        "Sharded ingest scaling (best of repeats; aggregate = Σ shard items/busy)",
        &[
            "sampler",
            "mode",
            "shards",
            "cells",
            "regime",
            "items",
            "agg M it/s",
            "wall M it/s",
            "busy ns/it",
            "depth",
            "max busy frac",
        ],
        &table,
    );

    let pool_table: Vec<Vec<String>> = pool
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.mode.to_string(),
                r.iters.to_string(),
                f(r.per_batch_ns / 1e3, 2),
            ]
        })
        .collect();
    write_csv(
        "bench_pool_dispatch.csv",
        &["workers", "mode", "iters", "per_batch_us"],
        &pool_table,
    );
    print_table(
        "WorkerPool dispatch: per-batch cost of k jobs (µs)",
        &["workers", "mode", "iters", "per-batch µs"],
        &pool_table,
    );
}

/// Assemble the `BENCH_scaling.json` document.
pub fn rows_to_json(cfg: &ScalingConfig, rows: &[ScalingRow], pool: &[PoolDispatchRow]) -> Json {
    let regimes = [Regime::Saturated, Regime::Bursty]
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.label())),
                ("capacity", Json::Int(r.capacity() as i64)),
                ("lambda", Json::Num(r.lambda())),
                ("mean_batch", Json::Num(r.mean_batch())),
            ])
        })
        .collect();
    let row_values = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("sampler", Json::str(r.sampler)),
                ("mode", Json::str(r.mode)),
                ("shards", Json::Int(r.shards as i64)),
                ("cells", Json::Int(r.cells as i64)),
                ("regime", Json::str(r.regime)),
                ("batches", Json::Int(r.batches as i64)),
                ("items", Json::UInt(r.items)),
                ("wall_ns", Json::UInt(r.wall_ns)),
                ("busy_ns", Json::UInt(r.busy_ns)),
                ("items_per_sec_wall", Json::Num(r.items_per_sec_wall)),
                (
                    "items_per_sec_aggregate",
                    Json::Num(r.items_per_sec_aggregate),
                ),
                ("ns_per_item_busy", Json::Num(r.ns_per_item_busy)),
                ("merge_tree_depth", Json::Int(r.merge_tree_depth as i64)),
                (
                    "shard_busy_fracs",
                    Json::Arr(r.shard_busy_fracs.iter().map(|&x| Json::Num(x)).collect()),
                ),
            ])
        })
        .collect();
    let pool_values = pool
        .iter()
        .map(|r| {
            Json::obj([
                ("workers", Json::Int(r.workers as i64)),
                ("mode", Json::str(r.mode)),
                ("iters", Json::Int(r.iters as i64)),
                ("per_batch_ns", Json::Num(r.per_batch_ns)),
            ])
        })
        .collect();
    Json::obj([
        ("bench", Json::str("scaling")),
        ("schema_version", Json::Int(1)),
        (
            "config",
            Json::obj([
                ("measured_batches", Json::Int(cfg.measured_batches as i64)),
                ("warmup_batches", Json::Int(cfg.warmup_batches as i64)),
                ("repeats", Json::Int(cfg.repeats as i64)),
                ("seed", Json::UInt(cfg.seed)),
                (
                    "shard_counts",
                    Json::Arr(
                        cfg.shard_counts
                            .iter()
                            .map(|&k| Json::Int(k as i64))
                            .collect(),
                    ),
                ),
                ("item_type", Json::str("u64")),
                ("rtbs_defer_threshold", Json::Num(cfg.rtbs_defer_threshold)),
                (
                    "rtbs_group_threshold_saturated",
                    Json::Int(cfg.rtbs_group_threshold_saturated as i64),
                ),
                (
                    "rtbs_group_threshold_bursty",
                    Json::Int(cfg.rtbs_group_threshold_bursty as i64),
                ),
                ("regimes", Json::Arr(regimes)),
            ]),
        ),
        (
            "host",
            Json::obj([(
                "available_parallelism",
                Json::Int(
                    std::thread::available_parallelism()
                        .map(|n| n.get() as i64)
                        .unwrap_or(0),
                ),
            )]),
        ),
        (
            "metrics",
            Json::obj([
                (
                    "items_per_sec_wall",
                    Json::str("items / wall-clock ns of the driver feed+quiesce loop"),
                ),
                (
                    "items_per_sec_aggregate",
                    Json::str(
                        "Σ_k items_k/busy_k over shards; busy = time inside observe \
                         (hardware-independent engine capacity — equals wall rate on a \
                         host with ≥ K free cores)",
                    ),
                ),
            ]),
        ),
        ("rows", Json::Arr(row_values)),
        ("pool_dispatch", Json::Arr(pool_values)),
        ("summary", summary(rows)),
    ])
}

/// Row keys (beyond the shared core) every scaling row must carry; CI
/// validates the emitted JSON against this list.
pub const SCALING_ROW_KEYS: &[&str] = &[
    "mode",
    "shards",
    "cells",
    "wall_ns",
    "busy_ns",
    "items_per_sec_wall",
    "items_per_sec_aggregate",
    "ns_per_item_busy",
    "merge_tree_depth",
    "shard_busy_fracs",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_bench_doc;

    #[test]
    fn smoke_sweep_produces_valid_rows() {
        let cfg = ScalingConfig::smoke();
        let rows = run_scaling(&cfg);
        // Per regime: 2 reference rows + |shard_counts| rows per sampler.
        assert_eq!(rows.len(), 2 * (2 + 2 * cfg.shard_counts.len()));
        for r in &rows {
            assert!(
                r.items > 0,
                "{}/{}/{} fed no items",
                r.sampler,
                r.mode,
                r.regime
            );
            assert!(r.items_per_sec_wall > 0.0);
            assert!(r.items_per_sec_aggregate > 0.0);
            if r.mode == "engine" {
                assert!(r.cells <= r.shards && r.cells >= 1);
                assert_eq!(
                    r.merge_tree_depth,
                    (r.cells as f64).log2().ceil() as usize,
                    "depth must be ⌈log₂G⌉ for G={}",
                    r.cells
                );
                assert_eq!(r.shard_busy_fracs.len(), r.cells);
                let sum: f64 = r.shard_busy_fracs.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "busy fractions must sum to 1, got {sum}"
                );
            }
        }
        let pool = run_pool_dispatch(&cfg);
        assert_eq!(pool.len(), 6);
        let doc = rows_to_json(&cfg, &rows, &pool);
        validate_bench_doc(&doc, "scaling", SCALING_ROW_KEYS).unwrap();
    }

    #[test]
    fn engine_stats_cover_all_items() {
        // The aggregate metric is only meaningful if the shard counters
        // account for every item fed during the window.
        let cfg = ScalingConfig::smoke();
        let spec = ShardSpec::rtbs(0.1, 1000, 2);
        let row = measure_engine::<RTbs<u64>>(&cfg, "R-TBS", spec, Regime::Saturated, 1);
        assert_eq!(row.items, (cfg.measured_batches * 100) as u64);
        assert!(row.busy_ns > 0);
    }

    #[test]
    fn summary_reports_ratios_when_rows_present() {
        let cfg = ScalingConfig {
            shard_counts: vec![1, 4],
            ..ScalingConfig::smoke()
        };
        let rows = run_scaling(&cfg);
        let doc = rows_to_json(&cfg, &rows, &[]);
        let s = doc.get("summary").unwrap();
        assert!(matches!(
            s.get("saturated_rtbs_speedup_4x_vs_1x"),
            Some(Json::Num(_))
        ));
        assert!(matches!(
            s.get("one_shard_engine_vs_single_fast"),
            Some(Json::Num(_))
        ));
        // No K=8/K=16/K=32 rows in this sweep ⇒ no gate verdict.
        assert_eq!(s.get("gate"), Some(&Json::Null));
    }

    #[test]
    fn gate_requires_k8_floor_and_monotone_high_k() {
        let row = |shards: usize, agg: f64| ScalingRow {
            sampler: "R-TBS",
            mode: "engine",
            shards,
            cells: shards,
            regime: "saturated",
            batches: 1,
            items: 1,
            wall_ns: 1,
            busy_ns: 1,
            items_per_sec_wall: agg,
            items_per_sec_aggregate: agg,
            ns_per_item_busy: 1.0,
            merge_tree_depth: (shards as f64).log2().ceil() as usize,
            shard_busy_fracs: vec![1.0 / shards as f64; shards],
        };
        let verdict = |k8: f64, k16: f64, k32: f64| {
            summary(&[row(8, k8), row(16, k16), row(32, k32)])
                .get("gate")
                .and_then(|g| g.get("pass"))
                .cloned()
        };
        let floor = GATE_K8_FLOOR_ITEMS_PER_SEC;
        assert_eq!(verdict(floor, floor, floor), Some(Json::Bool(true)));
        assert_eq!(
            verdict(floor - 1.0, floor, floor),
            Some(Json::Bool(false)),
            "K=8 below the floor must fail"
        );
        assert_eq!(
            verdict(floor + 2.0, floor + 1.0, floor + 1.0),
            Some(Json::Bool(false)),
            "K=16 regressing below K=8 must fail"
        );
        assert_eq!(
            verdict(floor, floor + 2.0, floor + 1.0),
            Some(Json::Bool(false)),
            "K=32 regressing below K=16 must fail"
        );
        // A K=8/K=16-only sweep (the pre-K-32 artifact shape) carries no
        // verdict rather than a stale pass.
        assert_eq!(
            summary(&[row(8, floor), row(16, floor)])
                .get("gate")
                .cloned(),
            Some(Json::Null)
        );
    }
}
