//! The model-management loop as a reusable component.
//!
//! The paper's whole point (§1, §6) is that a temporally-biased sample
//! *feeds periodic retraining* so deployed models track evolving streams
//! — the serving-loop role Velox carves out for model management systems.
//! [`ModelManager`] packages that loop: it owns a [`Sampler`] and an
//! [`OnlineModel`], applies the §6 test-then-train discipline per batch
//! (score the arriving batch out-of-sample, update the sample, maybe
//! refit), and decides *when* to refit through a
//! [`RetrainPolicy`] — every batch, every N batches, or
//! drift-triggered via `tbs_ml::drift`'s error-jump detector with a
//! periodic fallback.
//!
//! ## Retraining off snapshots
//!
//! Refits consume **epoch-published snapshots**
//! ([`Sampler::publish`] + [`SampleReader`]), not a quiesced read of live
//! sampler state. For sharded samplers this is what keeps the pipeline
//! flowing: publication only injects a barrier, shards fork their state
//! and keep ingesting, and the manager blocks only until the background
//! merger lands the epoch — never on a stop-the-world quiesce. The same
//! `Arc<FrozenSample>` the manager trains on is simultaneously visible to
//! every other [`ModelManager::reader`] handle (a serving tier can watch
//! exactly what the model was fit on), and
//! [`ManagerMetrics::last_sample_epoch`] records which publication that
//! was.
//!
//! ## Comparing samplers
//!
//! The paper's experiments run several managers side by side over one
//! stream — R-TBS against a sliding window and a uniform reservoir, say.
//! [`run_contenders`] is that loop: each batch goes to every manager's
//! [`ModelManager::ingest`] in turn, and the measured-phase errors and
//! expected sample sizes come back as one [`RunSeries`] per contender.

use std::sync::Arc;
use tbs_core::frozen::FrozenSample;
use tbs_ml::drift::{DriftDetector, RetrainPolicy, RetrainScheduler};
use tbs_ml::pipeline::OnlineModel;
use tbs_stats::summary::OnlineMoments;

use crate::api::error::TbsError;
use crate::api::reader::SampleReader;
use crate::api::sampler::Sampler;

/// Cumulative counters and error statistics of a manager's run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ManagerMetrics {
    /// Batches ingested.
    pub batches: u64,
    /// Items ingested.
    pub items: u64,
    /// Model refits performed.
    pub retrains: u64,
    /// Error of the most recent scored batch.
    pub last_error: f64,
    /// Training-sample size at the most recent refit.
    pub last_sample_size: usize,
    /// Publication epoch of the snapshot the most recent refit trained
    /// on (0 before the first refit).
    pub last_sample_epoch: u64,
    /// Streaming mean/variance of the per-batch error series
    /// (test-then-train, so every score is out-of-sample).
    pub error_moments: OnlineMoments,
}

/// What one [`ModelManager::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Out-of-sample error of the model on the arriving batch, scored
    /// *before* the batch entered the sample.
    pub batch_error: f64,
    /// Whether the model was refit after this batch.
    pub retrained: bool,
    /// Training-set size used for the refit (0 when `retrained` is
    /// false).
    pub sample_size: usize,
}

/// Owns a sampler, a model, and a retraining policy; see the
/// [`crate::api`] module docs.
///
/// ```
/// use temporal_sampling::api::{ModelManager, RetrainPolicy, SamplerConfig};
/// use temporal_sampling::datagen::gmm::LabeledPoint;
/// use temporal_sampling::ml::knn::KnnClassifier;
///
/// let sampler = SamplerConfig::rtbs(0.1, 300)
///     .seed(7)
///     .build::<LabeledPoint>()
///     .expect("valid config");
/// let mut mgr = ModelManager::new(sampler, KnnClassifier::new(7), RetrainPolicy::EveryBatch);
/// assert_eq!(mgr.metrics().batches, 0);
/// ```
pub struct ModelManager<T: Clone + Send + Sync + 'static, M: OnlineModel<T>> {
    sampler: Sampler<T>,
    model: M,
    scheduler: RetrainScheduler,
    metrics: ManagerMetrics,
    /// The manager's own view of the publication stream it retrains from.
    reader: SampleReader<T>,
}

impl<T: Clone + Send + Sync + 'static, M: OnlineModel<T>> ModelManager<T, M> {
    /// Bundle a sampler, a model, and a policy, using the default drift
    /// detector (window 10, 3σ, 5-point minimum jump — calibrated for
    /// errors expressed in percent). The detector only matters for
    /// [`RetrainPolicy::OnDrift`].
    pub fn new(sampler: Sampler<T>, model: M, policy: RetrainPolicy) -> Self {
        Self::with_detector(
            sampler,
            model,
            policy,
            DriftDetector::default_for_percent_errors(),
        )
    }

    /// [`ModelManager::new`] with an explicitly tuned drift detector.
    pub fn with_detector(
        sampler: Sampler<T>,
        model: M,
        policy: RetrainPolicy,
        detector: DriftDetector,
    ) -> Self {
        let reader = sampler.reader();
        Self {
            sampler,
            model,
            scheduler: RetrainScheduler::new(policy, detector),
            metrics: ManagerMetrics::default(),
            reader,
        }
    }

    /// One turn of the §6 loop: **predict** (score the arriving batch
    /// with the current model — out-of-sample by construction),
    /// **update** (feed the batch to the sampler), and **retrain** when
    /// the policy fires — by publishing an epoch snapshot and fitting on
    /// it, so a sharded ingest pipeline never stops for the refit.
    pub fn ingest(&mut self, batch: Vec<T>) -> Result<IngestReport, TbsError> {
        let batch_error = self.model.batch_error(&batch);
        let items = batch.len() as u64;
        // A batch the sampler rejected was not ingested: count it only
        // once `observe` succeeds.
        self.sampler.observe(batch)?;
        self.metrics.batches += 1;
        self.metrics.items += items;
        self.metrics.last_error = batch_error;
        self.metrics.error_moments.push(batch_error);

        // `retrained` reports what actually happened, not what the policy
        // asked for: if the publication pipeline is gone (a shard/merger
        // died), retrain_now returns None and the refit did not occur.
        let mut retrained = false;
        let mut sample_size = 0;
        if self.scheduler.should_retrain(batch_error) {
            if let Some(frozen) = self.retrain_now() {
                retrained = true;
                sample_size = frozen.len();
            }
        }
        Ok(IngestReport {
            batch_error,
            retrained,
            sample_size,
        })
    }

    /// Publish a snapshot of the current sample, refit the model on it,
    /// and return it. The snapshot stays available to every reader handle
    /// — consumers can see exactly what the model was trained on.
    ///
    /// Returns `None` only if the publication could not complete — the
    /// sampler's publisher shut down, or a sharded pipeline died and was
    /// not configured to recover (inspect
    /// [`crate::api::Sampler::health`] via [`ModelManager::sampler`] to
    /// distinguish).
    pub fn retrain_now(&mut self) -> Option<Arc<FrozenSample<T>>> {
        let epoch = self.sampler.publish().ok()?;
        let frozen = self.reader.wait_for_epoch(epoch)?;
        self.model.retrain(frozen.items());
        self.metrics.retrains += 1;
        self.metrics.last_sample_size = frozen.len();
        self.metrics.last_sample_epoch = frozen.epoch();
        Some(frozen)
    }

    /// A fresh read handle onto the publication stream the manager
    /// retrains from — hand these to serving threads that want to follow
    /// the training snapshots concurrently.
    pub fn reader(&self) -> SampleReader<T> {
        self.sampler.reader()
    }

    /// The model as trained by the most recent refit.
    pub fn current_model(&self) -> &M {
        &self.model
    }

    /// The managed sampler (e.g. to snapshot it alongside the stream
    /// position).
    pub fn sampler(&self) -> &Sampler<T> {
        &self.sampler
    }

    /// Mutable access to the managed sampler — checkpointing
    /// ([`Sampler::snapshot`]) needs `&mut`.
    pub fn sampler_mut(&mut self) -> &mut Sampler<T> {
        &mut self.sampler
    }

    /// Cumulative run metrics.
    pub fn metrics(&self) -> &ManagerMetrics {
        &self.metrics
    }

    /// Refits triggered so far (shorthand for `metrics().retrains`).
    pub fn retrain_count(&self) -> u64 {
        self.metrics.retrains
    }

    /// Tear the manager apart into its sampler and model (e.g. to move
    /// the model to a serving tier while the sampler keeps ingesting
    /// elsewhere).
    pub fn into_parts(self) -> (Sampler<T>, M) {
        (self.sampler, self.model)
    }
}

/// One contender's measured-phase record from [`run_contenders`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSeries {
    /// Name the manager ran under ("R-TBS", "SW", "Unif", …).
    pub name: String,
    /// Out-of-sample error per measured batch (index = batches after
    /// warm-up).
    pub errors: Vec<f64>,
    /// Expected training-sample size after each measured batch.
    pub sample_sizes: Vec<f64>,
}

/// Feed one stream to several named managers — the paper's §6 comparison
/// protocol. `batches` yields each batch with a flag saying whether it is
/// in the measured phase; every manager ingests every batch (warm-up
/// batches train but are not recorded), so all contenders see the
/// identical stream and their series line up index for index.
pub fn run_contenders<T, M>(
    managers: &mut [(impl AsRef<str>, ModelManager<T, M>)],
    batches: impl IntoIterator<Item = (Vec<T>, bool)>,
) -> Result<Vec<RunSeries>, TbsError>
where
    T: Clone + Send + Sync + 'static,
    M: OnlineModel<T>,
{
    let mut series: Vec<RunSeries> = managers
        .iter()
        .map(|(name, _)| RunSeries {
            name: name.as_ref().to_string(),
            errors: Vec::new(),
            sample_sizes: Vec::new(),
        })
        .collect();
    for (batch, measured) in batches {
        for ((_, mgr), out) in managers.iter_mut().zip(&mut series) {
            let report = mgr.ingest(batch.clone())?;
            if measured {
                out.errors.push(report.batch_error);
                out.sample_sizes.push(mgr.sampler.expected_size()?);
            }
        }
    }
    Ok(series)
}

/// Element-wise mean of several runs' series (for plotting stable figure
/// curves). All runs must have equal length and contender order.
pub fn mean_error_series(runs: &[Vec<RunSeries>]) -> Vec<RunSeries> {
    assert!(!runs.is_empty(), "need at least one run");
    (0..runs[0].len())
        .map(|ci| RunSeries {
            name: runs[0][ci].name.clone(),
            errors: column_mean(runs, ci, |r| &r.errors),
            sample_sizes: column_mean(runs, ci, |r| &r.sample_sizes),
        })
        .collect()
}

/// Mean over `runs` of contender `ci`'s `pick`ed series.
fn column_mean(
    runs: &[Vec<RunSeries>],
    ci: usize,
    pick: impl Fn(&RunSeries) -> &[f64],
) -> Vec<f64> {
    let len = pick(&runs[0][ci]).len();
    let mut acc = vec![0.0; len];
    for run in runs {
        let series = pick(&run[ci]);
        assert_eq!(series.len(), len, "ragged runs");
        acc.iter_mut().zip(series).for_each(|(a, v)| *a += v);
    }
    let scale = 1.0 / runs.len() as f64;
    acc.iter().map(|a| a * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{RetrainPolicy, SamplerConfig};
    use rand::{RngCore, SeedableRng};
    use tbs_datagen::gmm::GmmGenerator;
    use tbs_datagen::modes::ModeSchedule;
    use tbs_datagen::stream::StreamPlan;
    use tbs_datagen::BatchSizeProcess;
    use tbs_ml::KnnClassifier;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    fn small_plan(measured: u64, schedule: ModeSchedule) -> StreamPlan {
        StreamPlan {
            warmup_batches: 20,
            measured_batches: measured,
            batch_sizes: BatchSizeProcess::Deterministic(60),
            schedule,
        }
    }

    /// One seeded run of `plan` through [`run_contenders`]: R-TBS (λ =
    /// 0.1), SW and Unif, each with capacity `n` and a 7-NN model.
    fn knn_run(seed: u64, plan: &StreamPlan, n: usize) -> Vec<RunSeries> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let gmm = GmmGenerator::paper(&mut rng);
        let mut managers: Vec<_> = [
            ("R-TBS", SamplerConfig::rtbs(0.1, n)),
            ("SW", SamplerConfig::sliding_count(n)),
            ("Unif", SamplerConfig::uniform(n)),
        ]
        .into_iter()
        .map(|(name, config)| {
            let sampler = config.seed(rng.next_u64()).build().expect("valid config");
            let mgr = ModelManager::new(sampler, KnnClassifier::new(7), RetrainPolicy::EveryBatch);
            (name, mgr)
        })
        .collect();
        let batches = plan.layout(&mut rng).into_iter().map(|p| {
            let batch = gmm.sample_batch(p.mode, p.size as usize, &mut rng);
            (batch, p.measured_time.is_some())
        });
        run_contenders(&mut managers, batches).expect("single-node ingest never fails")
    }

    #[test]
    fn run_produces_aligned_series() {
        let outputs = knn_run(1, &small_plan(15, ModeSchedule::single_event()), 300);
        assert_eq!(outputs.len(), 3);
        for o in &outputs {
            assert_eq!(o.errors.len(), 15);
            assert_eq!(o.sample_sizes.len(), 15);
            assert!(o.errors.iter().all(|&e| (0.0..=100.0).contains(&e)));
        }
    }

    #[test]
    fn warmed_up_models_beat_chance() {
        // With 100 classes, chance accuracy is ~1%; trained kNN on the
        // normal mode must be far better (error well below 90%).
        let outputs = knn_run(2, &small_plan(10, ModeSchedule::AlwaysNormal), 300);
        for o in &outputs {
            let avg: f64 = o.errors.iter().sum::<f64>() / o.errors.len() as f64;
            assert!(avg < 60.0, "{} error {avg}% — not learning", o.name);
        }
    }

    #[test]
    fn mode_change_spikes_error_then_adaptive_schemes_recover() {
        let outputs = knn_run(3, &small_plan(30, ModeSchedule::single_event()), 300);
        let rtbs = &outputs[0];
        // Error right after the change (t=10) exceeds error before (t=9)...
        assert!(rtbs.errors[10] > rtbs.errors[9]);
        // ...and R-TBS recovers by the end of the abnormal stretch.
        assert!(rtbs.errors[19] < rtbs.errors[10]);
    }

    #[test]
    fn sample_sizes_respect_bounds() {
        let outputs = knn_run(4, &small_plan(10, ModeSchedule::AlwaysNormal), 150);
        for o in &outputs {
            assert!(o.sample_sizes.iter().all(|&s| s <= 150.0 + 1e-9));
        }
    }

    #[test]
    fn same_seed_reproduces_every_series() {
        let plan = small_plan(15, ModeSchedule::periodic(5, 5));
        let first = knn_run(5, &plan, 300);
        assert_eq!(first, knn_run(5, &plan, 300));
        assert_ne!(first, knn_run(6, &plan, 300), "the seed must matter");
    }

    #[test]
    fn mean_series_averages_runs() {
        let run1 = vec![RunSeries {
            name: "X".into(),
            errors: vec![10.0, 20.0],
            sample_sizes: vec![5.0, 5.0],
        }];
        let run2 = vec![RunSeries {
            name: "X".into(),
            errors: vec![30.0, 40.0],
            sample_sizes: vec![7.0, 7.0],
        }];
        let mean = mean_error_series(&[run1, run2]);
        assert_eq!(mean[0].errors, vec![20.0, 30.0]);
        assert_eq!(mean[0].sample_sizes, vec![6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn mean_series_rejects_empty() {
        mean_error_series(&[]);
    }
}
