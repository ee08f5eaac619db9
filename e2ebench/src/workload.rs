//! The three traffic mixes and the seeded batch pool they replay.

use rand::SeedableRng;
use tbs_datagen::modes::{Mode, ModeSchedule};
use tbs_datagen::regression::RegressionGenerator;
use tbs_server::proto::{encode_frame, Request};
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::{RetrainPolicy, SamplerConfig};

/// Wire item: `[x₁, y]`, the pair `tbs_server`'s line fit is trained on.
pub type Item = [f64; 2];

/// Items per `INGEST` frame.
pub const BATCH_ITEMS: usize = 1000;
/// Sample capacity n, as `tbs_server` ships it.
pub const CAPACITY: usize = 1000;
/// Decay rate λ, as `tbs_server` ships it.
pub const LAMBDA: f64 = 0.1;
/// Distinct pre-encoded batches; the producer cycles through them.
pub const POOL_BATCHES: usize = 256;
/// Length of each normal and each abnormal stretch of the drift schedule,
/// in batches. Four switches per pass over the pool.
pub const MODE_RUN: u64 = 64;

/// How a client paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Next request as soon as the previous reply is in.
    Closed,
    /// Requests due on a seeded Poisson schedule, whatever the replies
    /// do.
    Open {
        /// Requests per second.
        per_s: f64,
    },
}

/// What the second connection does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReaderMode {
    /// Nothing.
    Idle,
    /// Poisson arrivals at `per_s`: nine `PREDICT`s, then one `GET_SAMPLE`.
    Mixed {
        /// Requests per second.
        per_s: f64,
    },
    /// Long-polls `SUBSCRIBE_EPOCH` for the epoch after the newest one it
    /// has seen.
    Follow,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop ingest on the `tbs_server` configuration.
    IngestMax,
    /// Open-loop ingest at ~5% of capacity beside 1000 reads/s.
    ServeMixed,
    /// Closed-loop ingest into two shards under periodic retraining,
    /// with a second connection following every published epoch.
    ShardedPublish,
}

/// Configuration of a workload's server and clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Declared shards (1 = single-node sampler, no engine threads).
    pub shards: usize,
    /// Model retraining policy.
    pub policy: RetrainPolicy,
    /// Producer pacing.
    pub producer: Pace,
    /// Reader behaviour.
    pub reader: ReaderMode,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::IngestMax,
        Workload::ServeMixed,
        Workload::ShardedPublish,
    ];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMax => "ingest_max",
            Workload::ServeMixed => "serve_mixed",
            Workload::ShardedPublish => "sharded_publish",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Server and client configuration.
    pub fn spec(self) -> Spec {
        match self {
            Workload::IngestMax => Spec {
                shards: 1,
                policy: RetrainPolicy::EveryBatch,
                producer: Pace::Closed,
                reader: ReaderMode::Idle,
            },
            Workload::ServeMixed => Spec {
                shards: 1,
                policy: RetrainPolicy::EveryBatch,
                producer: Pace::Open { per_s: 200.0 },
                reader: ReaderMode::Mixed { per_s: 1000.0 },
            },
            // `EveryBatch` would force a synchronous merge per batch;
            // `Periodic(20)` lets the barrier pipeline run ahead.
            Workload::ShardedPublish => Spec {
                shards: 2,
                policy: RetrainPolicy::Periodic(20),
                producer: Pace::Closed,
                reader: ReaderMode::Follow,
            },
        }
    }
}

impl Spec {
    /// The sampler configuration the server is built from.
    pub fn config(&self, seed: u64) -> SamplerConfig {
        SamplerConfig::rtbs(LAMBDA, CAPACITY)
            .shards(self.shards)
            .seed(seed)
    }

    /// Batches between model refits.
    pub fn retrain_period(&self) -> u64 {
        match self.policy {
            RetrainPolicy::Periodic(k) => k.max(1),
            _ => 1,
        }
    }

    /// Ordinal of the ingest whose retrain first covers batch `b`
    /// (1-based ordinals).
    pub fn covering_batch(&self, b: u64) -> u64 {
        let k = self.retrain_period();
        b.div_ceil(k) * k
    }
}

/// Pre-generated, pre-encoded `INGEST` frames.
pub struct Pool {
    /// Items of each batch (for the direct replay).
    pub batches: Vec<Vec<Item>>,
    /// The framed `INGEST` request for each batch.
    pub frames: Vec<Vec<u8>>,
}

/// The drift schedule over batch ordinals.
pub fn schedule() -> ModeSchedule {
    ModeSchedule::periodic(MODE_RUN, MODE_RUN)
}

/// Drift mode of the batch sent with 1-based ordinal `ordinal`.
pub fn mode_of(ordinal: u64) -> Mode {
    schedule().mode_at(pool_index(ordinal) as u64)
}

/// Pool slot the batch with 1-based ordinal `ordinal` is taken from.
pub fn pool_index(ordinal: u64) -> usize {
    ((ordinal - 1) % POOL_BATCHES as u64) as usize
}

/// True x₁ coefficient under `mode`.
pub fn x1_coefficient(mode: Mode) -> f64 {
    RegressionGenerator::paper().coefficients(mode)[0]
}

impl Pool {
    /// Generate the pool from the workload seed.
    pub fn generate(seed: u64) -> Self {
        let gen = RegressionGenerator::paper();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let batches: Vec<Vec<Item>> = (0..POOL_BATCHES)
            .map(|i| {
                gen.sample_batch(schedule().mode_at(i as u64), BATCH_ITEMS, &mut rng)
                    .into_iter()
                    .map(|p| [p.x[0], p.y])
                    .collect()
            })
            .collect();
        let frames = batches
            .iter()
            .map(|b| encode_frame(&Request::Ingest(b.clone()).encode()))
            .collect();
        Self { batches, frames }
    }

    /// The framed batch for 1-based ordinal `ordinal`.
    pub fn frame(&self, ordinal: u64) -> &[u8] {
        &self.frames[pool_index(ordinal)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_batch_follows_the_retrain_period() {
        let every = Workload::ServeMixed.spec();
        assert_eq!(every.covering_batch(7), 7);
        let periodic = Workload::ShardedPublish.spec();
        assert_eq!(periodic.covering_batch(1), 20);
        assert_eq!(periodic.covering_batch(20), 20);
        assert_eq!(periodic.covering_batch(21), 40);
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let a = Pool::generate(3);
        let b = Pool::generate(3);
        let c = Pool::generate(4);
        assert_eq!(a.frames, b.frames);
        assert_ne!(a.frames, c.frames);
        assert_eq!(mode_of(1), Mode::Normal);
        assert_eq!(mode_of(MODE_RUN + 1), Mode::Abnormal);
    }
}
