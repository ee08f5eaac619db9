//! Fault-matrix suite at the **public API surface**.
//!
//! The engine-level companion (`crates/distributed/tests/fault_recovery.rs`)
//! drives `ParallelIngestEngine` directly; this suite injects the same
//! deterministic fault schedules through `api::SamplerConfig::
//! build_with_fault_plan` and asserts the facade contract: under
//! `RecoveryPolicy::RespawnFromBarrier` every injected failure is absorbed
//! **bit-identically** (the faulted run's sample equals the fault-free
//! run's), under `RecoveryPolicy::Fail` every failure surfaces as a typed
//! `TbsError::Engine` — and in neither case does any call hang or abort
//! the process. The checkpoint side is covered too: `Sampler::recover`
//! must walk the generation ring past torn/corrupted generations instead
//! of dying on the newest one.
//!
//! Seeds are pinned for reproducibility but overridable: set
//! `TBS_FAULT_SEEDS=17,99,12345` (comma-separated u64s) to sweep others —
//! the CI `fault-matrix` job pins its own list so failures name the seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tbs_distributed::fault::{bit_flip, silence_injected_panics, FaultPlan};
use temporal_sampling::api::{
    EngineHealth, EpochWait, RecoveryPolicy, Sampler, SamplerConfig, TbsError,
};

/// Bursty reference stream: empty, tiny, and huge batches, sizes never
/// multiples of the shard count, so the balanced splitter's deviation
/// ledger stays busy across recoveries.
fn batch_at(t: u64) -> Vec<u64> {
    let size = [40u64, 0, 7, 90, 3, 0, 250, 11, 0, 0, 64, 1][t as usize % 12];
    (0..size).map(|i| t * 1_000 + i).collect()
}

const BATCHES: u64 = 48;

/// The seed sweep: `TBS_FAULT_SEEDS` (comma-separated) when set — CI pins
/// its list there — else a fixed default triple.
fn seeds() -> Vec<u64> {
    match std::env::var("TBS_FAULT_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("TBS_FAULT_SEEDS entry {s:?} is not a u64"))
            })
            .collect(),
        Err(_) => vec![11, 42, 9001],
    }
}

/// One fault schedule per injected failure mode, each firing well inside
/// the 48-batch stream.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("kill_worker", FaultPlan::new().kill_worker(1, 8)),
        ("kill_merger", FaultPlan::new().kill_merger(2)),
        ("drop_push", FaultPlan::new().drop_push(2, 14)),
    ]
}

/// The two mergeable algorithms, sharded four ways.
fn configs(seed: u64) -> Vec<SamplerConfig> {
    vec![
        SamplerConfig::rtbs(0.2, 64).shards(4).seed(seed),
        SamplerConfig::ttbs(0.1, 50, 47.0).shards(4).seed(seed),
    ]
}

/// Feed the reference stream with mid-stream publications (each one a
/// barrier through the merge tree — the merger's busiest moments), then
/// draw the final sample.
fn drive(sampler: &mut Sampler<u64>) -> Result<Vec<u64>, TbsError> {
    for t in 0..BATCHES {
        sampler.observe(batch_at(t))?;
        if t % 16 == 11 {
            sampler.publish()?;
        }
    }
    sampler.sample()
}

#[test]
fn respawn_matrix_is_bit_identical_through_the_facade() {
    silence_injected_panics();
    for seed in seeds() {
        for config in configs(seed) {
            let config = config.recovery_policy(RecoveryPolicy::RespawnFromBarrier);
            let clean = drive(&mut config.build::<u64>().expect("valid config"))
                .expect("fault-free run must succeed");
            for (label, plan) in plans() {
                let plan = Arc::new(plan);
                let mut sampler = config
                    .build_with_fault_plan::<u64>(Arc::clone(&plan))
                    .expect("valid faulted config");
                let got = drive(&mut sampler).unwrap_or_else(|e| {
                    panic!("{label}/seed={seed}: respawn policy must absorb the fault, got {e}")
                });
                assert_eq!(
                    got,
                    clean,
                    "{label}/seed={seed}/{}: recovered sample diverged from the fault-free run",
                    sampler.name(),
                );
                assert_eq!(
                    plan.fired_count(),
                    1,
                    "{label}: the planned fault never fired"
                );
                assert!(
                    matches!(sampler.health(), EngineHealth::Degraded { recoveries } if recoveries >= 1),
                    "{label}: a recovery must be recorded, got {:?}",
                    sampler.health(),
                );
                assert!(sampler.recoveries() >= 1);
            }
        }
    }
}

#[test]
fn fail_policy_surfaces_typed_errors_through_the_facade() {
    silence_injected_panics();
    for config in configs(42) {
        for (label, plan) in plans() {
            let plan = Arc::new(plan);
            let mut sampler = config
                .build_with_fault_plan::<u64>(Arc::clone(&plan))
                .expect("valid faulted config");
            let err = drive(&mut sampler)
                .expect_err(&format!("{label}: Fail policy must report the fault"));
            assert!(
                matches!(err, TbsError::Engine(_)),
                "{label}: expected a typed pipeline error, got {err:?}"
            );
            assert!(matches!(sampler.health(), EngineHealth::Failed(_)));
            // A failed engine answers *every* subsequent verb with the
            // recorded cause — typed, prompt, never a hang or abort.
            assert!(matches!(
                sampler.observe(batch_at(0)),
                Err(TbsError::Engine(_))
            ));
            assert!(matches!(sampler.sample(), Err(TbsError::Engine(_))));
            assert!(matches!(sampler.publish(), Err(TbsError::Engine(_))));
            assert!(matches!(sampler.quiesce(), Err(TbsError::Engine(_))));
            assert!(matches!(sampler.expected_size(), Err(TbsError::Engine(_))));
        }
    }
}

#[test]
fn single_node_configs_reject_fault_plans() {
    let err = SamplerConfig::rtbs(0.1, 64)
        .build_with_fault_plan::<u64>(Arc::new(FaultPlan::new().kill_worker(0, 1)))
        .expect_err("no pipeline to injure");
    assert!(
        matches!(err, TbsError::InvalidShardCount { shards: 1, .. }),
        "{err:?}"
    );
}

#[test]
fn reader_blocked_on_a_killed_publisher_returns_promptly() {
    silence_injected_panics();
    // Fail policy: the merger dies on its very first message (the epoch-1
    // publication request) and nothing respawns it, so the epoch cell is
    // closed on the way out. A consumer already parked in
    // `wait_for_epoch_timeout` must observe `PublisherGone` promptly —
    // not burn its whole 30s deadline, and certainly not hang.
    let plan = Arc::new(FaultPlan::new().kill_merger(0));
    let mut sampler = SamplerConfig::rtbs(0.2, 64)
        .shards(4)
        .seed(7)
        .build_with_fault_plan::<u64>(plan)
        .expect("valid faulted config");
    let mut reader = sampler.reader();
    let waiter =
        std::thread::spawn(move || reader.wait_for_epoch_timeout(1, Duration::from_secs(30)));
    for t in 0..6 {
        sampler
            .observe(batch_at(t))
            .expect("pre-fault ingest is healthy");
    }
    // The publication request is the merger's first message — the kill
    // site. The request itself may already observe the death; either way
    // the engine must end up Failed with the cell closed.
    let _ = sampler.publish();
    let verdict = waiter.join().expect("waiter must not panic");
    assert!(
        matches!(verdict, EpochWait::PublisherGone),
        "expected PublisherGone, got {verdict:?}"
    );
    // And the handle itself reports the failure typed on the next call.
    let mut failed = sampler;
    assert!(matches!(failed.sample(), Err(TbsError::Engine(_))));
}

#[test]
fn wire_fault_matrix_leaves_engine_state_intact() {
    // The PR-8 matrix proves the engine absorbs worker/merger death;
    // this row proves the serving tier absorbs *wire* death. For every
    // pinned seed: connection 1 loses its 3rd reply frame mid-session
    // and connection 2 goes half-open on its 1st — yet the engine's
    // state after the carnage is bit-identical to a fault-free server
    // fed the same stream.
    use std::net::TcpListener;
    use tbs_server::client::{BlockingClient, ClientError};
    use tbs_server::server::serve_on;
    use tbs_server::service::{NoModel, SamplerService};
    use temporal_sampling::api::RetrainPolicy;

    for seed in seeds() {
        let start = |plan: Option<Arc<FaultPlan>>| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let svc: SamplerService<u64, NoModel> = SamplerService::new(
                SamplerConfig::rtbs(0.2, 64).seed(seed),
                NoModel,
                RetrainPolicy::EveryBatch,
            )
            .expect("valid config");
            serve_on(listener, svc, plan).expect("serve")
        };

        // Fault-free reference run: three batches, final sample.
        let clean_server = start(None);
        let mut clean: BlockingClient<u64> =
            BlockingClient::connect(clean_server.addr()).expect("connect");
        for t in 0..3 {
            clean.ingest(batch_at(t)).expect("clean ingest");
        }
        let clean_sample = clean.get_sample().expect("clean sample");

        // Faulted run: same stream, wire faults on connections 1 and 2.
        let plan = Arc::new(
            FaultPlan::new()
                .drop_connection(1, 3)
                .half_open_socket(2, 1),
        );
        let server = start(Some(Arc::clone(&plan)));

        let mut victim: BlockingClient<u64> =
            BlockingClient::connect(server.addr()).expect("connect victim");
        victim.ingest(batch_at(0)).expect("reply frame 1 delivered");
        victim.ingest(batch_at(1)).expect("reply frame 2 delivered");
        // The 3rd request reaches the engine, but its ack frame is the
        // fault site: the socket dies under the client.
        let lost = victim.ingest(batch_at(2));
        assert!(
            matches!(lost, Err(ClientError::Io(_))),
            "seed={seed}: expected a dead socket, got {lost:?}"
        );

        // Connection 2 goes half-open: request swallowed, no reply.
        let mut stuck: BlockingClient<u64> =
            BlockingClient::connect_timeout(server.addr(), Duration::from_millis(300))
                .expect("connect stuck");
        assert!(
            matches!(stuck.ping(), Err(ClientError::Io(_))),
            "seed={seed}: half-open socket must hit the read timeout"
        );

        // Connection 3 sees the engine unharmed and bit-identical to
        // the fault-free run (the lost ack's batch WAS ingested — the
        // fault ate the reply, not the request).
        let mut survivor: BlockingClient<u64> =
            BlockingClient::connect(server.addr()).expect("connect survivor");
        let got = survivor.get_sample().expect("engine still serves");
        assert_eq!(
            got, clean_sample,
            "seed={seed}: wire faults must not perturb engine state"
        );
        assert_eq!(
            plan.fired_count(),
            2,
            "seed={seed}: both wire faults must fire exactly once"
        );
    }
}

/// A unique scratch directory per test (no tempfile dependency).
fn scratch(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tbs-faultmatrix-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flip one bit in a stored generation file on disk — a torn or
/// bit-rotted checkpoint as the recovery path will find it.
fn corrupt_generation(store: &temporal_sampling::api::CheckpointStore, seq: u64) {
    let path = store.generation_path(seq);
    let raw = std::fs::read(&path).expect("generation file exists");
    std::fs::write(&path, bit_flip(&raw, (raw.len() / 2) * 8 + 3)).expect("rewrite");
}

#[test]
fn recover_walks_the_ring_past_a_corrupted_generation() {
    use temporal_sampling::api::CheckpointStore;

    let dir = scratch("ring");
    let config = SamplerConfig::rtbs(0.1, 64).seed(7);
    let mut sampler = config.build::<u64>().expect("valid config");
    sampler.set_checkpoint_store(CheckpointStore::open(&dir, 4).expect("open store"));
    let mut seqs = Vec::new();
    for cut in [10u64, 20, 30] {
        while sampler.batches_observed() < cut {
            sampler
                .observe(batch_at(sampler.batches_observed()))
                .unwrap();
        }
        seqs.push(sampler.checkpoint_now().expect("checkpoint writes"));
    }
    let store = sampler.take_checkpoint_store().expect("store attached");
    drop(sampler);

    // Pristine ring: recovery restores the newest generation.
    let (recovered, seq) = Sampler::<u64>::recover(&config, &store).expect("newest restores");
    assert_eq!(seq, seqs[2]);
    assert_eq!(recovered.batches_observed(), 30);

    // Newest generation corrupted on disk: the CRC frame catches the bit
    // flip and recovery *falls back* to the generation before it.
    corrupt_generation(&store, seqs[2]);
    let (recovered, seq) = Sampler::<u64>::recover(&config, &store).expect("fallback restores");
    assert_eq!(seq, seqs[1]);
    assert_eq!(recovered.batches_observed(), 20);

    // Every generation corrupted: a typed verdict naming how many were
    // tried — never a restore of garbage, never a panic.
    corrupt_generation(&store, seqs[1]);
    corrupt_generation(&store, seqs[0]);
    assert_eq!(
        Sampler::<u64>::recover(&config, &store).expect_err("nothing valid remains"),
        TbsError::NoValidCheckpoint { attempted: 3 }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_sampler_continues_bit_identically() {
    use temporal_sampling::api::CheckpointStore;

    // The ring-recovery path must hand back a sampler that continues the
    // stream exactly like an uninterrupted run — same contract as
    // snapshot/restore, now through the durable store. Sharded, so the
    // engine checkpoint framing rides along too.
    let dir = scratch("resume");
    let config = SamplerConfig::rtbs(0.2, 64).shards(4).seed(13);
    let mut uninterrupted = config.build::<u64>().expect("valid config");
    for t in 0..BATCHES {
        uninterrupted.observe(batch_at(t)).unwrap();
    }

    let mut first = config.build::<u64>().expect("valid config");
    first.set_checkpoint_store(CheckpointStore::open(&dir, 2).expect("open store"));
    for t in 0..17 {
        first.observe(batch_at(t)).unwrap();
    }
    first.checkpoint_now().expect("checkpoint writes");
    let store = first.take_checkpoint_store().expect("store attached");
    drop(first);

    let (mut resumed, _) = Sampler::<u64>::recover(&config, &store).expect("restores");
    assert_eq!(resumed.batches_observed(), 17);
    for t in 17..BATCHES {
        resumed.observe(batch_at(t)).unwrap();
    }
    assert_eq!(
        resumed.sample().unwrap(),
        uninterrupted.sample().unwrap(),
        "recovered run diverged from the uninterrupted stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
