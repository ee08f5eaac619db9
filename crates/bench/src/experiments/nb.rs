//! Figure 13 — naive Bayes on the synthetic Usenet2 stream (§6.4).
//!
//! 1500 messages in batches of 50, user interest flipping every 300
//! messages (recurring contexts). Paper parameters: sample bound n = 300,
//! λ = 0.3, no warm-up (the stream is too short), 20% ES over all 30
//! batches.

use crate::output::{f, print_table, write_csv};
use rand::{RngCore, SeedableRng};
use tbs_datagen::text::UsenetGenerator;
use tbs_ml::metrics::SeriesSummary;
use tbs_ml::NaiveBayes;
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::{
    mean_error_series, run_contenders, ModelManager, RetrainPolicy, RunSeries, SamplerConfig,
};

/// Result of the NB experiment.
pub struct NbResult {
    /// Mean error series per contender (R-TBS, SW, Unif).
    pub mean_series: Vec<RunSeries>,
    /// Averaged summaries (misclassification %, 20% ES over all batches).
    pub summaries: Vec<(String, SeriesSummary)>,
}

/// Run the experiment over `runs` independently generated streams.
pub fn run_nb(runs: usize, lambda: f64, seed: u64) -> NbResult {
    let generator = UsenetGenerator::paper();
    let vocab = generator.vocab_size() as usize;
    let mut all_runs: Vec<Vec<RunSeries>> = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed.wrapping_add(run as u64));
        let stream = generator.stream(1500, 50, &mut rng);
        let mut managers: Vec<_> = [
            ("R-TBS", SamplerConfig::rtbs(lambda, 300)),
            ("SW", SamplerConfig::sliding_count(300)),
            ("Unif", SamplerConfig::uniform(300)),
        ]
        .into_iter()
        .map(|(name, config)| {
            let sampler = config.seed(rng.next_u64()).build().expect("valid config");
            let model = NaiveBayes::new(vocab);
            let mgr = ModelManager::new(sampler, model, RetrainPolicy::EveryBatch);
            (name, mgr)
        })
        .collect();
        // No warm-up: every batch is measured.
        let batches = stream.into_iter().map(|batch| (batch, true));
        all_runs
            .push(run_contenders(&mut managers, batches).expect("single-node ingest never fails"));
    }
    // 20% ES over ALL batches (es_start = 0) — the stream is short.
    let summaries = super::averaged_summaries(&all_runs, 0, 0.20);
    NbResult {
        mean_series: mean_error_series(&all_runs),
        summaries,
    }
}

/// Run, write the CSV, print the summary table.
pub fn run_fig13(runs: usize) -> NbResult {
    let result = run_nb(runs, 0.3, 130_000);
    let mut header = vec!["t".to_string()];
    header.extend(result.mean_series.iter().map(|o| o.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let len = result.mean_series[0].errors.len();
    let rows: Vec<Vec<String>> = (0..len)
        .map(|t| {
            let mut row = vec![t.to_string()];
            row.extend(result.mean_series.iter().map(|o| f(o.errors[t], 2)));
            row
        })
        .collect();
    write_csv("fig13_naive_bayes_usenet.csv", &header_refs, &rows);
    let srows: Vec<Vec<String>> = result
        .summaries
        .iter()
        .map(|(name, s)| vec![name.clone(), f(s.mean_error, 1), f(s.expected_shortfall, 1)])
        .collect();
    print_table(
        &format!(
            "Figure 13 — naive Bayes on synthetic Usenet2 (n=300, b=50, lambda=0.3, {runs} runs)"
        ),
        &["scheme", "Miss%", "20% ES"],
        &srows,
    );
    result
}

/// λ-sensitivity sweep backing the §6.4 claim that R-TBS beats SW for all
/// λ ∈ [0.1, 0.5].
pub fn run_lambda_sweep(runs: usize) {
    let lambdas = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut rows = Vec::new();
    for &lambda in &lambdas {
        let r = run_nb(runs, lambda, 131_000);
        let rtbs = &r.summaries[0].1;
        let sw = &r.summaries[1].1;
        rows.push(vec![
            f(lambda, 2),
            f(rtbs.mean_error, 1),
            f(sw.mean_error, 1),
        ]);
    }
    write_csv(
        "fig13_lambda_sweep.csv",
        &["lambda", "rtbs_miss_pct", "sw_miss_pct"],
        &rows,
    );
    print_table(
        "Figure 13 sensitivity — NB misclassification vs lambda",
        &["lambda", "R-TBS Miss%", "SW Miss%"],
        &rows,
    );
}
