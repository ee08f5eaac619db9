//! Seconds-long smoke run of every workload, traced and untraced.
//!
//! Checks that each run is correct, that it reports exactly the metrics
//! `BENCHMARK.json` names with the units it gives them, and that the
//! correctness checker rejects a forged ack.

use e2ebench::check::Checker;
use e2ebench::metrics::{unit_of, Def, END_TO_END, PER_LAYER, PRINTED};
use e2ebench::run::{run, Options};
use e2ebench::workload::Workload;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry
                    .find(&format!("\"{key}\":"))
                    .unwrap_or_else(|| panic!("{key} missing in {entry}"));
                let rest = &entry[at + key.len() + 3..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("closing quote");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_pairs(defs: &[Def]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    assert_eq!(declared("end_to_end"), as_pairs(END_TO_END));
    assert_eq!(declared("per_layer"), as_pairs(PER_LAYER));
}

#[test]
fn checker_rejects_a_forged_out_of_order_ack() {
    let mut checker = Checker::new();
    checker.ingest_ack(1, 1, 2);
    checker.ingest_ack(2, 2, 4);
    assert_eq!(checker.count(), 0);
    // Batch 3's ack claims the server saw batch 4 first.
    checker.ingest_ack(3, 4, 6);
    assert_eq!(checker.count(), 1, "{:?}", checker.messages());
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let mut opts = Options::new(workload, 7, 1.0, trace);
            opts.setups = 2;
            opts.warmup_s = 0.3;
            opts.replay_s = 0.2;
            opts.spans_dir = None;
            let out = run(&opts).expect("the run sets up");
            let what = format!("{} trace={trace}", workload.name());
            assert!(out.correct, "{what}: {:#?}", out.report);
            assert!(out.attempted > 0, "{what}");
            assert_eq!(out.failed, 0, "{what}: {:#?}", out.report);
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(String, String)> = out
                .values
                .iter()
                .map(|v| (v.name.clone(), v.unit.to_string()))
                .collect();
            assert_eq!(got, as_pairs(expected), "{what}");
            let printed_only = if trace { &[][..] } else { PRINTED };
            for v in &out.values {
                assert!(v.value.is_finite(), "{what}: {v:?}");
                assert_eq!(unit_of(&v.name), Some(v.unit));
            }
            for d in expected.iter().chain(printed_only) {
                assert!(
                    out.report
                        .iter()
                        .any(|l| l.starts_with(&format!("metric {} = ", d.name))
                            && l.contains(&format!(" {} (n=", d.unit))),
                    "{what}: {} not printed with its unit and count",
                    d.name
                );
            }
            // The read and freshness metrics are measured where the
            // workload has a reader.
            let measured: &[&str] = match (workload, trace) {
                (Workload::ServeMixed, false) => {
                    &["predict_p50_us", "get_sample_p50_us", "model_lag_p50_ms"]
                }
                (Workload::ShardedPublish, false) => &["publish_lag_p50_ms"],
                (Workload::ShardedPublish, true) => &["service.poll_epoch_calls_per_epoch"],
                _ => &[],
            };
            for name in measured {
                assert!(
                    out.report.iter().any(|l| l
                        .strip_prefix(&format!("metric {name} = "))
                        .is_some_and(|v| !v.starts_with("n/a"))),
                    "{what}: {name} not measured"
                );
            }
            if trace {
                assert!(
                    out.report
                        .iter()
                        .any(|l| l.starts_with("ledger ingest") && l.contains("unattributed")),
                    "{what}: no ingest ledger"
                );
            }
        }
    }
}
