// IoT sensor-drift scenario (§1's motivating setting).
//
// ```sh
// cargo run --release --example iot_sensor_drift
// ```
//
// A fleet of sensors emits readings whose class distribution is disrupted
// by a singular event (say, a plant-wide maintenance window) and then
// reverts. A kNN fault classifier is retrained every batch on the
// maintained sample — each contender is one `api::ModelManager`, and
// `api::run_contenders` feeds all three the identical stream. Sliding windows adapt fast but
// *forget* the normal regime — when it returns, their error spikes; the
// uniform reservoir never adapts; R-TBS does both.

use rand::{RngCore, SeedableRng};
use temporal_sampling::api::run_contenders;
use temporal_sampling::datagen::gmm::GmmGenerator;
use temporal_sampling::datagen::modes::ModeSchedule;
use temporal_sampling::datagen::stream::StreamPlan;
use temporal_sampling::datagen::BatchSizeProcess;
use temporal_sampling::ml::KnnClassifier;
use temporal_sampling::prelude::*;

fn main() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2024);
    let sensors = GmmGenerator::paper(&mut rng);

    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: 30,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: ModeSchedule::single_event(), // abnormal on [10, 20)
    };

    // One `api::ModelManager` per contender, each sampler seeded from the
    // stream's RNG; `run_contenders` feeds them the same stream and records
    // measured-phase errors (test-then-train, so all scores are
    // out-of-sample).
    let n = 1000;
    let mut contenders: Vec<_> = [
        ("R-TBS", SamplerConfig::rtbs(0.07, n)),
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
        let batch = sensors.sample_batch(p.mode, p.size as usize, &mut rng);
        (batch, p.measured_time.is_some())
    });
    let series = run_contenders(&mut contenders, batches).expect("ingest pipeline healthy");
    let errors: Vec<&Vec<f64>> = series.iter().map(|s| &s.errors).collect();

    println!("misclassification % per batch (event on t in [10,20)):");
    println!("{:>4} {:>8} {:>8} {:>8}", "t", "R-TBS", "SW", "Unif");
    for (t, ((e0, e1), e2)) in errors[0].iter().zip(errors[1]).zip(errors[2]).enumerate() {
        let marker = if (10..20).contains(&t) { "*" } else { " " };
        println!("{t:>3}{marker} {e0:>8.1} {e1:>8.1} {e2:>8.1}");
    }
    for ((name, mgr), errs) in contenders.iter().zip(&errors) {
        let recovery_spike = errs[20..].iter().cloned().fold(0.0, f64::max);
        println!(
            "{name:>6}: worst error after the event ends = {recovery_spike:.1}% \
             ({} refits)",
            mgr.retrain_count()
        );
    }
    println!(
        "note the SW spike at t=20 when the normal regime returns — the \
              all-or-nothing forgetting the paper warns about."
    );
}
