// Online regression monitoring with an *unsaturated* reservoir (§6.3).
//
// ```sh
// cargo run --release --example regression_monitoring
// ```
//
// A pricing model `y = b1·x1 + b2·x2 + ε` drifts periodically between two
// regimes. With capacity n = 1600 above the equilibrium stream weight,
// R-TBS's sample floats at b/(1 − e^{−λ}) ≈ 1479 items — *smaller* than
// the sliding window's 1600 — yet predicts better: a balanced mix of old
// and new beats sheer volume.

use rand::{RngCore, SeedableRng};
use temporal_sampling::api::run_contenders;
use temporal_sampling::core::theory::equilibrium_weight;
use temporal_sampling::datagen::modes::ModeSchedule;
use temporal_sampling::datagen::regression::RegressionGenerator;
use temporal_sampling::datagen::stream::StreamPlan;
use temporal_sampling::datagen::BatchSizeProcess;
use temporal_sampling::ml::LinearRegression;
use temporal_sampling::prelude::*;

fn main() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let generator = RegressionGenerator::paper();
    let n = 1600;
    let lambda = 0.07;

    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: 50,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: ModeSchedule::periodic(10, 10),
    };

    // One `api::ModelManager` per contender, each sampler seeded from the
    // stream's RNG; `run_contenders` feeds them the same stream and
    // records measured-phase errors and expected sample sizes.
    let mut contenders: Vec<_> = [
        ("R-TBS", SamplerConfig::rtbs(lambda, n)),
        ("SW", SamplerConfig::sliding_count(n)),
        ("Unif", SamplerConfig::uniform(n)),
    ]
    .into_iter()
    .map(|(name, config)| {
        let sampler = config.seed(rng.next_u64()).build().expect("valid config");
        let model = LinearRegression::new(true);
        let mgr = ModelManager::new(sampler, model, RetrainPolicy::EveryBatch);
        (name, mgr)
    })
    .collect();
    let batches = plan.layout(&mut rng).into_iter().map(|p| {
        let batch = generator.sample_batch(p.mode, p.size as usize, &mut rng);
        (batch, p.measured_time.is_some())
    });
    let series = run_contenders(&mut contenders, batches).expect("ingest pipeline healthy");
    let errors: Vec<&Vec<f64>> = series.iter().map(|s| &s.errors).collect();

    println!("per-batch MSE (mode flips every 10 batches):");
    println!("{:>4} {:>8} {:>8} {:>8}", "t", "R-TBS", "SW", "Unif");
    for t in (0..errors[0].len()).step_by(5) {
        println!(
            "{t:>4} {:>8.2} {:>8.2} {:>8.2}",
            errors[0][t], errors[1][t], errors[2][t]
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\naggregate MSE: R-TBS {:.2}, SW {:.2}, Unif {:.2}",
        mean(errors[0]),
        mean(errors[1]),
        mean(errors[2])
    );
    println!(
        "R-TBS mean sample size {:.0} (predicted unsaturated equilibrium {:.0}) vs SW/Unif at {n}",
        mean(&series[0].sample_sizes),
        equilibrium_weight(100.0, lambda),
    );
    println!(
        "smaller, time-balanced sample → better predictions: 'more data is not always better'."
    );
}
