//! Smoke tests over the benchmark harness: every experiment module runs at
//! reduced scale and produces sane output (guarding the regeneration
//! binaries against bit-rot).

use tbs_bench::experiments;

#[test]
fn fig1_panels_produce_bounded_rtbs_and_drifting_ttbs() {
    let results = experiments::fig1::run(400, 99);
    assert_eq!(results.len(), 4);
    for res in &results {
        assert_eq!(res.ttbs.len(), 400);
        // R-TBS never exceeds its n = 1000 bound in any panel.
        assert!(res.rtbs.iter().all(|&c| c <= 1000.0 + 1e-9));
    }
    // Panel (a) grows past 200: T-TBS must exceed the target.
    let growing = &results[0];
    assert!(growing.ttbs[399] > 1200.0, "T-TBS failed to overflow");
    assert!(growing.rtbs[399] <= 1000.0 + 1e-9);
}

#[test]
fn fig7_ordering_holds_at_reduced_scale() {
    let cfg = experiments::runtime::RuntimeConfig {
        batch: 20_000,
        capacity: 40_000,
        rounds: 3,
        ..Default::default()
    };
    let results = experiments::runtime::run_fig7(&cfg, 5);
    assert_eq!(results.len(), 5);
    for pair in results.windows(2) {
        assert!(
            pair[0].1.elapsed > pair[1].1.elapsed,
            "{} not slower than {}",
            pair[0].0,
            pair[1].0
        );
    }
}

#[test]
fn fig8_and_fig9_sweeps_run() {
    let out8 = experiments::runtime::run_fig8(&[1, 4, 8], 100_000, 5);
    assert_eq!(out8.len(), 3);
    assert!(out8[0].1 > out8[2].1, "scale-out must help");
    let out9 = experiments::runtime::run_fig9(&[1_000, 100_000], 4, 5);
    assert_eq!(out9.len(), 2);
    assert!(out9[1].1 > out9[0].1, "bigger batches must cost more");
}

#[test]
fn knn_smoke_run_learns_and_recovers() {
    let result = experiments::knn::smoke_run();
    assert_eq!(result.mean_series.len(), 3);
    for (name, summary) in &result.summaries {
        assert!(
            summary.mean_error < 65.0,
            "{name} never learned: {:.1}%",
            summary.mean_error
        );
    }
}

#[test]
fn nb_experiment_beats_chance_for_rtbs() {
    let result = experiments::nb::run_nb(3, 0.3, 4242);
    // Base rate is 1/3 interesting; predicting all-boring gives ~33%.
    let (name, rtbs) = &result.summaries[0];
    assert_eq!(name, "R-TBS");
    assert!(
        rtbs.mean_error < 40.0,
        "R-TBS NB error {:.1}% too high",
        rtbs.mean_error
    );
    assert_eq!(result.mean_series[0].errors.len(), 30, "30 batches of 50");
}

#[test]
fn inclusion_report_flags_only_chao() {
    let reports = experiments::inclusion::run(0.3, 8_000, 31);
    for r in &reports {
        if r.name.starts_with("B-Chao") {
            assert!(r.violation > 0.15, "Chao fill-up violation missing");
        } else {
            assert!(
                r.violation < 0.08,
                "{} unexpectedly violates (1): {}",
                r.name,
                r.violation
            );
        }
    }
}

#[test]
fn theory_checks_are_close() {
    let rows = experiments::theory::transient_mean(0.1, 300, 60, 400, 17);
    for row in &rows {
        let rel_err: f64 = row[3].parse().unwrap();
        assert!(
            rel_err < 8.0,
            "transient mean off by {rel_err}% at t={}",
            row[0]
        );
    }
    let (sim, pred) = experiments::theory::rtbs_equilibrium(0.07, 1600, 100, 18);
    assert!((sim - pred).abs() < 20.0, "equilibrium {sim} vs {pred}");
}
