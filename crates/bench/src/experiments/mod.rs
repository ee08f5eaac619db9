//! One module per paper table/figure; each exposes `run_*` entry points
//! used by both the `src/bin` regeneration binaries and the integration
//! tests.

pub mod fig1;
pub mod forward;
pub mod inclusion;
pub mod knn;
pub mod linreg;
pub mod nb;
pub mod runtime;
pub mod scaling;
pub mod serving;
pub mod theory;
pub mod throughput;
pub mod wire;

use tbs_ml::metrics::{average_summaries, summarize_series, SeriesSummary};
use temporal_sampling::api::RunSeries;

/// Each contender's error series summarized per run (tail ES from batch
/// `es_start` at level `es_level`), averaged over the runs.
fn averaged_summaries(
    runs: &[Vec<RunSeries>],
    es_start: usize,
    es_level: f64,
) -> Vec<(String, SeriesSummary)> {
    (0..runs[0].len())
        .map(|ci| {
            let per_run: Vec<SeriesSummary> = runs
                .iter()
                .map(|run| summarize_series(&run[ci].errors, es_start, es_level))
                .collect();
            (runs[0][ci].name.clone(), average_summaries(&per_run))
        })
        .collect()
}
