//! Figure 12 — linear-regression MSE under saturated and unsaturated
//! sample regimes (§6.3).
//!
//! Panel (a): n = 1000, Periodic(10,10) — R-TBS saturated.
//! Panel (b): n = 1600, Periodic(10,10) — R-TBS *unsaturated*, stabilizing
//!            at ≈1479 items while SW/Unif hold 1600: the "more data is not
//!            always better" result.
//! Panel (c): n = 1600, Periodic(16,16) — SW's window is now too short to
//!            retain the previous context, and its error fluctuates wildly.

use crate::output::{f, print_table, write_csv};
use rand::{RngCore, SeedableRng};
use tbs_datagen::modes::ModeSchedule;
use tbs_datagen::regression::RegressionGenerator;
use tbs_datagen::stream::StreamPlan;
use tbs_datagen::BatchSizeProcess;
use tbs_ml::metrics::SeriesSummary;
use tbs_ml::LinearRegression;
use tbs_stats::rng::Xoshiro256PlusPlus;
use temporal_sampling::api::{
    mean_error_series, run_contenders, ModelManager, RetrainPolicy, RunSeries, SamplerConfig,
};

/// One panel configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinregPanel {
    /// Panel tag ("a", "b", "c").
    pub tag: &'static str,
    /// Sample-size bound for every scheme.
    pub n: usize,
    /// Mode schedule.
    pub schedule: ModeSchedule,
    /// Measured batches.
    pub measured: u64,
}

/// The three §6.3 panels.
pub fn panels() -> [LinregPanel; 3] {
    [
        LinregPanel {
            tag: "a",
            n: 1000,
            schedule: ModeSchedule::periodic(10, 10),
            measured: 50,
        },
        LinregPanel {
            tag: "b",
            n: 1600,
            schedule: ModeSchedule::periodic(10, 10),
            measured: 50,
        },
        LinregPanel {
            tag: "c",
            n: 1600,
            schedule: ModeSchedule::periodic(16, 16),
            measured: 80,
        },
    ]
}

/// Multi-run result for one panel.
pub struct LinregResult {
    /// Mean error series per contender.
    pub mean_series: Vec<RunSeries>,
    /// Averaged summaries (MSE over all points, 10% ES from t = 20).
    pub summaries: Vec<(String, SeriesSummary)>,
    /// Mean R-TBS sample size over the measured phase (to witness the
    /// unsaturated 1479-item equilibrium).
    pub rtbs_mean_sample_size: f64,
}

/// Run one panel with the paper's λ = 0.07, b = 100.
pub fn run_panel(panel: &LinregPanel, runs: usize, seed: u64) -> LinregResult {
    let plan = StreamPlan {
        warmup_batches: 100,
        measured_batches: panel.measured,
        batch_sizes: BatchSizeProcess::Deterministic(100),
        schedule: panel.schedule,
    };
    let generator = RegressionGenerator::paper();
    let mut all_runs = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed.wrapping_add(run as u64));
        let mut managers: Vec<_> = [
            ("R-TBS", SamplerConfig::rtbs(0.07, panel.n)),
            ("SW", SamplerConfig::sliding_count(panel.n)),
            ("Unif", SamplerConfig::uniform(panel.n)),
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
        all_runs
            .push(run_contenders(&mut managers, batches).expect("single-node ingest never fails"));
    }
    let mean_series = mean_error_series(&all_runs);
    let summaries = super::averaged_summaries(&all_runs, 20, 0.10);
    let rtbs_sizes = &mean_series[0].sample_sizes;
    let rtbs_mean_sample_size = rtbs_sizes.iter().sum::<f64>() / rtbs_sizes.len().max(1) as f64;
    LinregResult {
        mean_series,
        summaries,
        rtbs_mean_sample_size,
    }
}

/// Run all three panels, write CSVs, print summaries.
pub fn run_fig12(runs: usize) -> Vec<LinregResult> {
    let mut results = Vec::new();
    for panel in panels() {
        let res = run_panel(&panel, runs, 120_000 + panel.n as u64);
        let names: Vec<&str> = res.mean_series.iter().map(|o| o.name.as_str()).collect();
        let mut header = vec!["t"];
        header.extend(names.iter().copied());
        let len = res.mean_series[0].errors.len();
        let rows: Vec<Vec<String>> = (0..len)
            .map(|t| {
                let mut row = vec![t.to_string()];
                row.extend(res.mean_series.iter().map(|o| f(o.errors[t], 3)));
                row
            })
            .collect();
        write_csv(
            &format!("fig12{}_linreg_mse.csv", panel.tag),
            &header,
            &rows,
        );
        let srows: Vec<Vec<String>> = res
            .summaries
            .iter()
            .map(|(name, s)| vec![name.clone(), f(s.mean_error, 2), f(s.expected_shortfall, 2)])
            .collect();
        print_table(
            &format!(
                "Figure 12({}) — linreg n={}, {} ({} runs)",
                panel.tag,
                panel.n,
                panel.schedule.label(),
                runs
            ),
            &["scheme", "MSE", "10% ES"],
            &srows,
        );
        println!(
            "R-TBS mean sample size: {:.0} (bound n={}; unsaturated equilibrium = {:.0})",
            res.rtbs_mean_sample_size,
            panel.n,
            tbs_core::theory::equilibrium_weight(100.0, 0.07)
        );
        results.push(res);
    }
    results
}
