//! Fault-injection matrix over the supervised engine: every injected
//! failure × {R-TBS, T-TBS} × K ∈ {1, 4, 8} must (a) never hang, (b)
//! never abort the process, and (c) either recover **bit-identically**
//! (under [`RecoveryPolicy::RespawnFromBarrier`]) or surface a named
//! [`EngineError`] (under [`RecoveryPolicy::Fail`]).
//!
//! The faults come from the seeded [`FaultPlan`]: worker kills keyed to
//! a shard's deterministic stream position, merger kills keyed to the
//! merger's message index, and dropped/delayed queue pushes keyed to
//! (shard, global batch number) — so every scenario here is exactly
//! reproducible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tbs_core::merge::ShardSpec;
use tbs_core::{RTbs, TTbs};
use tbs_distributed::engine::{
    EngineConfig, EngineError, EngineHealth, ParallelIngestEngine, RecoveryPolicy,
};
use tbs_distributed::fault::{silence_injected_panics, FaultPlan};
use tbs_distributed::snapshot::EpochWait;

/// An erratic schedule exercising all R-TBS transitions, including
/// empty batches (the decay clock must advance through a fault too).
fn schedule(t: u64) -> u64 {
    [40u64, 0, 7, 90, 3, 0, 250, 11, 0, 0, 64, 1][t as usize % 12]
}

fn batch_at(t: u64) -> Vec<u64> {
    (0..schedule(t)).map(|i| t * 1000 + i).collect()
}

const BATCHES: u64 = 60;

/// Drive `batches` batches through a fresh R-TBS engine under `plan`,
/// returning the final realized sample (`Err` if the pipeline failed).
fn run_rtbs(
    shards: usize,
    recovery: RecoveryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> (Result<Vec<u64>, EngineError>, EngineHealth) {
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, shards), 42).recovery(recovery);
    let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
        Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
        None => ParallelIngestEngine::new(cfg),
    };
    let sample = drive(&mut engine);
    let health = engine.health();
    (sample, health)
}

fn run_ttbs(
    shards: usize,
    recovery: RecoveryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> (Result<Vec<u64>, EngineError>, EngineHealth) {
    let cfg = EngineConfig::new(ShardSpec::ttbs(0.1, 50, 47.0, shards), 42).recovery(recovery);
    let mut engine: ParallelIngestEngine<TTbs<u64>> = match plan {
        Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
        None => ParallelIngestEngine::new(cfg),
    };
    let sample = drive(&mut engine);
    let health = engine.health();
    (sample, health)
}

fn drive<S>(engine: &mut ParallelIngestEngine<S>) -> Result<Vec<S::Item>, EngineError>
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for t in 0..BATCHES {
        engine.ingest(batch_at(t))?;
        // Periodic publishes keep the merger's message stream moving (so
        // merger-keyed faults actually fire) and refresh the recovery
        // fork records mid-stream, like a serving deployment would.
        if t % 12 == 11 {
            engine.request_snapshot()?;
        }
    }
    // The final sample quiesces every shard, so any injected death that
    // ingest outran is detected here at the latest.
    engine.sample()
}

/// The full injected-failure matrix: for each sampler and shard count,
/// each fault either fails typed (Fail) or recovers to the bit-identical
/// fault-free sample (RespawnFromBarrier). `delay_push` is a pure
/// slowdown and must be invisible under both policies.
#[test]
fn fault_matrix_is_typed_or_bit_identical() {
    silence_injected_panics();
    // (label, plan builder) — positions chosen mid-stream so state
    // exists to lose. Worker kills are keyed to the shard's own batch
    // index; pushes to the global batch number.
    type PlanBuilder = fn(usize) -> FaultPlan;
    let plans: &[(&str, PlanBuilder)] = &[
        ("kill_worker", |shards| {
            FaultPlan::new().kill_worker(shards - 1, 20)
        }),
        ("kill_merger", |_| FaultPlan::new().kill_merger(3)),
        ("drop_push", |shards| {
            FaultPlan::new().drop_push(shards / 2, 30)
        }),
        ("delay_push", |shards| {
            FaultPlan::new().delay_push(shards / 2, 30, 5)
        }),
    ];
    for &shards in &[1usize, 4, 8] {
        let (baseline_r, _) = run_rtbs(shards, RecoveryPolicy::Fail, None);
        let baseline_r = baseline_r.expect("fault-free run succeeds");
        let (baseline_t, _) = run_ttbs(shards, RecoveryPolicy::Fail, None);
        let baseline_t = baseline_t.expect("fault-free run succeeds");
        for (label, build) in plans {
            // kill_merger: a 1-shard engine still has a merger thread,
            // so every scenario applies at every K.
            let harmless = *label == "delay_push";

            let (got, health) =
                run_rtbs(shards, RecoveryPolicy::Fail, Some(Arc::new(build(shards))));
            check_fail_policy(label, harmless, shards, &baseline_r, got, health);

            let (got, health) = run_rtbs(
                shards,
                RecoveryPolicy::RespawnFromBarrier,
                Some(Arc::new(build(shards))),
            );
            check_respawn_policy(label, harmless, shards, &baseline_r, got, health);

            let (got, health) =
                run_ttbs(shards, RecoveryPolicy::Fail, Some(Arc::new(build(shards))));
            check_fail_policy(label, harmless, shards, &baseline_t, got, health);

            let (got, health) = run_ttbs(
                shards,
                RecoveryPolicy::RespawnFromBarrier,
                Some(Arc::new(build(shards))),
            );
            check_respawn_policy(label, harmless, shards, &baseline_t, got, health);
        }
    }
}

fn check_fail_policy<I: PartialEq + std::fmt::Debug>(
    label: &str,
    harmless: bool,
    shards: usize,
    baseline: &[I],
    got: Result<Vec<I>, EngineError>,
    health: EngineHealth,
) {
    if harmless {
        assert_eq!(
            got.as_deref().expect("delay is not a fault"),
            baseline,
            "{label}/K={shards}: a delayed push changed the sample"
        );
        assert_eq!(health, EngineHealth::Healthy);
        return;
    }
    let cause = got.expect_err(&format!(
        "{label}/K={shards}: fault must surface under Fail"
    ));
    assert_eq!(
        health,
        EngineHealth::Failed(cause.clone()),
        "{label}/K={shards}: health must record the typed cause"
    );
    match (label, &cause) {
        ("kill_worker", EngineError::ShardDead { .. })
        // A dying merger is seen either through its closed queue
        // (MergerDead), through the epoch cell it closes on the way out
        // (SnapshotLost), or — when its death interleaves with a barrier
        // protocol — as the shard-side push failure it provoked.
        | (
            "kill_merger",
            EngineError::MergerDead
            | EngineError::ShardDead { .. }
            | EngineError::SnapshotLost { .. },
        )
        | ("drop_push", EngineError::ChunkDropped { .. }) => {}
        other => panic!("{label}/K={shards}: unexpected cause {other:?}"),
    }
}

fn check_respawn_policy<I: PartialEq + std::fmt::Debug>(
    label: &str,
    harmless: bool,
    shards: usize,
    baseline: &[I],
    got: Result<Vec<I>, EngineError>,
    health: EngineHealth,
) {
    let got = got.unwrap_or_else(|e| {
        panic!("{label}/K={shards}: supervised engine must absorb the fault, got {e}")
    });
    assert_eq!(
        got, baseline,
        "{label}/K={shards}: recovery must be bit-identical to the fault-free stream"
    );
    if harmless {
        assert_eq!(health, EngineHealth::Healthy);
    } else {
        assert!(
            matches!(health, EngineHealth::Degraded { recoveries } if recoveries >= 1),
            "{label}/K={shards}: health must count the recovery, got {health:?}"
        );
    }
}

/// Threads that busy-loop until dropped, so the engine's threads compete
/// for the CPU and get preempted at arbitrary points.
struct SpinHogs {
    stop: Arc<AtomicBool>,
    joins: Vec<JoinHandle<()>>,
}

impl SpinHogs {
    fn start(threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let joins = (0..threads)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, joins }
    }
}

impl Drop for SpinHogs {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

/// The facade fault matrix's stream (`tests/fault_matrix.rs`): 48
/// bursty batches with a publication after batches 11, 27 and 43, then
/// the final sample.
fn drive_facade_stream<S>(engine: &mut ParallelIngestEngine<S>) -> Result<Vec<u64>, EngineError>
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    for t in 0..48 {
        engine.ingest(batch_at(t))?;
        if t % 16 == 11 {
            engine.request_snapshot()?;
        }
    }
    engine.sample()
}

/// Run the facade matrix's `kill_worker` respawn plan `RUNS` times and
/// require the fault-free sample every time.
fn respawn_repeatedly<S>(label: &str, cfg: EngineConfig)
where
    S: tbs_core::merge::MergeableSample<Item = u64> + Clone + Send + 'static,
{
    const RUNS: usize = 20;
    let clean = drive_facade_stream(&mut ParallelIngestEngine::<S>::new(cfg))
        .expect("fault-free run succeeds");
    for run in 0..RUNS {
        let plan = Arc::new(FaultPlan::new().kill_worker(1, 8));
        let mut engine = ParallelIngestEngine::<S>::with_fault_plan(cfg, Arc::clone(&plan));
        let got = drive_facade_stream(&mut engine)
            .unwrap_or_else(|e| panic!("{label}/run={run}: respawn must absorb the kill, got {e}"));
        assert_eq!(
            got, clean,
            "{label}/run={run}: recovered sample diverged from the fault-free run"
        );
        assert_eq!(
            plan.fired_count(),
            1,
            "{label}/run={run}: the kill never fired"
        );
    }
}

/// Worker-death recovery must be bit-identical under any thread
/// schedule, not only on a quiet host. Two spinning threads keep the
/// CPUs contended while the `kill_worker` respawn plan runs over and over
/// on the facade fault matrix's stream, for both samplers at K = 4.
#[test]
fn kill_worker_respawn_is_bit_identical_under_cpu_contention() {
    silence_injected_panics();
    let _hogs = SpinHogs::start(2);
    for seed in [11u64, 42] {
        let respawn = RecoveryPolicy::RespawnFromBarrier;
        respawn_repeatedly::<RTbs<u64>>(
            &format!("R-TBS/seed={seed}"),
            EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), seed).recovery(respawn),
        );
        respawn_repeatedly::<TTbs<u64>>(
            &format!("T-TBS/seed={seed}"),
            EngineConfig::new(ShardSpec::ttbs(0.1, 50, 47.0, 4), seed).recovery(respawn),
        );
    }
}

/// Recovery must also work *after* barriers have trimmed the replay log:
/// the shard restores from its newest fork record, not from stream start.
#[test]
fn recovery_after_barriers_uses_the_latest_fork() {
    silence_injected_panics();
    let spec = ShardSpec::rtbs(0.2, 64, 4);
    let cfg = EngineConfig::new(spec, 7).recovery(RecoveryPolicy::RespawnFromBarrier);

    let mut clean: ParallelIngestEngine<RTbs<u64>> = ParallelIngestEngine::new(cfg);
    let plan = FaultPlan::new().kill_worker(2, 40);
    let mut faulty: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));

    for engine in [&mut clean, &mut faulty] {
        for t in 0..30 {
            engine.ingest(batch_at(t)).unwrap();
        }
        // A published barrier refreshes every shard's fork record and
        // trims the replay log behind it.
        let epoch = engine.request_snapshot().unwrap();
        assert!(engine
            .snapshot_cell()
            .wait_for_epoch_timeout(epoch, Duration::from_secs(30))
            .published()
            .is_some());
        for t in 30..70 {
            engine.ingest(batch_at(t)).unwrap();
        }
        // Force detection before reading the recovery counter: ingest can
        // outrun the injected death (queues are deep), but a quiesce
        // cannot — it must hear back from the killed shard.
        engine.quiesce().unwrap();
    }
    assert_eq!(faulty.recoveries(), 1);
    assert_eq!(
        clean.sample().unwrap(),
        faulty.sample().unwrap(),
        "post-barrier recovery diverged from the fault-free stream"
    );
}

/// Back-to-back faults: the supervisor must survive further kills after
/// already having recovered once, still bit-identically. Quiesce points
/// sit between the fault sites so every death is detected (and its
/// rebuild finished) *before* the stream advances past the next site —
/// a recovery's replay bypasses the injection hooks, so without the
/// fences a single rebuild could silently absorb a later fault.
#[test]
fn repeated_faults_accumulate_recoveries() {
    silence_injected_panics();
    let plan = Arc::new(
        FaultPlan::new()
            .kill_worker(0, 10)
            .kill_worker(3, 25)
            .kill_merger(5),
    );
    let run = |plan: Option<Arc<FaultPlan>>| {
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 42)
            .recovery(RecoveryPolicy::RespawnFromBarrier);
        let mut engine: ParallelIngestEngine<RTbs<u64>> = match plan {
            Some(p) => ParallelIngestEngine::with_fault_plan(cfg, p),
            None => ParallelIngestEngine::new(cfg),
        };
        // Segment 1 covers worker kill #1 (shard 0, batch 10)…
        for t in 0..15 {
            engine.ingest(batch_at(t)).unwrap();
        }
        engine.quiesce().unwrap();
        // …segment 2 covers worker kill #2 (shard 3, batch 25)…
        for t in 15..30 {
            engine.ingest(batch_at(t)).unwrap();
        }
        engine.quiesce().unwrap();
        // …and two barriers feed the post-recovery merger incarnation a
        // request + K forks each (plus tree publications), carrying its
        // message ordinal past the kill at index 5.
        engine.request_snapshot().unwrap();
        engine.quiesce().unwrap();
        engine.request_snapshot().unwrap();
        for t in 30..BATCHES {
            engine.ingest(batch_at(t)).unwrap();
        }
        // The final sample quiesces and rebuilds the merge pipeline, so
        // the merger kill is detected here at the latest.
        let sample = engine.sample().unwrap();
        (sample, engine.health())
    };
    let (clean, _) = run(None);
    let (got, health) = run(Some(Arc::clone(&plan)));
    assert_eq!(
        got, clean,
        "multi-fault recovery diverged from the fault-free stream"
    );
    assert_eq!(plan.fired_count(), 3, "every planned fault must fire");
    assert!(
        matches!(health, EngineHealth::Degraded { recoveries } if recoveries >= 3),
        "three fenced faults must mean three distinct recoveries, got {health:?}"
    );
}

/// A failed engine must answer every subsequent call with the recorded
/// cause immediately — no call may hang on the dead pipeline.
#[test]
fn failed_engine_answers_every_call_typed() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_worker(1, 5);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 11);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    let cause = drive(&mut engine)
        .map(|_| ())
        .expect_err("the kill must surface by the quiescing sample at the latest");
    assert_eq!(engine.health(), EngineHealth::Failed(cause.clone()));
    assert_eq!(engine.ingest(vec![1, 2, 3]).unwrap_err(), cause);
    assert_eq!(engine.quiesce().unwrap_err(), cause);
    assert_eq!(engine.sample().unwrap_err(), cause);
    assert_eq!(engine.save_parts().unwrap_err(), cause);
    assert_eq!(engine.request_snapshot().unwrap_err(), cause);
    assert_eq!(engine.request_checkpoint().unwrap_err(), cause);
}

/// Readers blocked on an epoch that will never publish must be woken by
/// the dying pipeline, not left hanging.
#[test]
fn reader_waiting_on_dead_publisher_returns_promptly() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_merger(1);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 2), 5);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    let cell = engine.snapshot_cell();
    let waiter =
        std::thread::spawn(move || cell.wait_for_epoch_timeout(1, Duration::from_secs(30)));
    // Request epochs until the merger has died and the driver noticed.
    let mut saw_error = false;
    for t in 0..BATCHES {
        engine.ingest(batch_at(t)).unwrap_or(());
        if engine.request_snapshot().is_err() {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "the merger kill must surface to the driver");
    match waiter.join().unwrap() {
        EpochWait::Published(_) | EpochWait::PublisherGone => {}
        EpochWait::TimedOut => panic!("waiter hung until its deadline on a dead publisher"),
    }
}

/// Dropping an engine whose merger is already dead while a barrier is
/// still in flight must not deadlock (the drop path must not wait on the
/// merger to drain the task queue).
#[test]
fn drop_with_dead_merger_and_inflight_barrier_does_not_deadlock() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_merger(0);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 13);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    // The first merger message kills it; the barrier below may be
    // enqueued before the driver ever notices.
    for t in 0..4 {
        engine.ingest(batch_at(t)).unwrap();
    }
    let _ = engine.request_snapshot();
    drop(engine);
}

/// Same drop-order edge under the supervisor: a recovery triggered by a
/// late fault must not leave joins or queues behind when the engine is
/// dropped immediately afterwards.
#[test]
fn drop_right_after_recovery_is_clean() {
    silence_injected_panics();
    let plan = FaultPlan::new().kill_worker(0, 8);
    let cfg = EngineConfig::new(ShardSpec::rtbs(0.2, 64, 4), 17)
        .recovery(RecoveryPolicy::RespawnFromBarrier);
    let mut engine: ParallelIngestEngine<RTbs<u64>> =
        ParallelIngestEngine::with_fault_plan(cfg, Arc::new(plan));
    for t in 0..40 {
        engine.ingest(batch_at(t)).unwrap();
    }
    // Force detection: the quiesce's fork never hears back from the
    // killed shard, whose closed queue triggers the supervised respawn.
    engine.quiesce().unwrap();
    assert!(engine.recoveries() >= 1);
    drop(engine);
}
