//! Metric names and units, percentiles, and the result line.

/// A reported metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Reported with tracing off, and bounded in `BENCHMARK.json`: the
/// metrics every workload has. A run reports every bounded metric, and
/// `ingest_max` sends nothing but `INGEST`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("ingest_items_per_s", "1/s"),
    def("ingest_p50_us", "us"),
];

/// Printed with [`END_TO_END`] but left out of the result line: the read
/// and freshness metrics, which only the workloads with a reader have
/// (`n/a` on the others); the tail latencies, which a run during heavy
/// CPU steal on a shared host moves several-fold while the medians move
/// by a few percent; the error rate, 0 on a correct run; and the peak
/// resident set, mostly the load generator's request log, which grows
/// with the number of requests.
pub const PRINTED: &[Def] = &[
    def("ingest_p99_us", "us"),
    def("predict_p50_us", "us"),
    def("predict_p99_us", "us"),
    def("get_sample_p50_us", "us"),
    def("get_sample_p99_us", "us"),
    def("model_lag_p50_ms", "ms"),
    def("model_lag_p99_ms", "ms"),
    def("publish_lag_p50_ms", "ms"),
    def("publish_lag_p99_ms", "ms"),
    def("error_rate", "frac"),
    def("rss_peak_mb", "MiB"),
];

/// Reported by the traced run.
pub const PER_LAYER: &[Def] = &[
    def("proto.ingest_decode_ns_per_item", "ns"),
    def("proto.sample_reply_encode_us", "us"),
    def("proto.bytes_in", "bytes"),
    def("proto.bytes_out", "bytes"),
    def("server.poll_wait_us_p50", "us"),
    def("server.poll_wait_us_p99", "us"),
    def("server.hol_wait_us_p50", "us"),
    def("server.hol_wait_us_p99", "us"),
    def("server.reply_us_p50", "us"),
    def("cpu.server_busy_frac", "frac"),
    def("cpu.server_runq_frac", "frac"),
    def("service.ingest_us_p50", "us"),
    def("service.latest_us_p50", "us"),
    def("service.predict_us_p50", "us"),
    def("service.poll_epoch_calls_per_epoch", "ratio"),
    def("model.batch_error_us", "us"),
    def("model.retrain_us", "us"),
    def("model.retrains", "count"),
    def("sampler.observe_ns_per_item", "ns"),
    def("sampler.publish_us", "us"),
    def("sampler.direct_items_per_s", "1/s"),
    def("engine.observe_call_us", "us"),
    def("engine.epoch_visible_us_p50", "us"),
    def("engine.epoch_visible_us_p99", "us"),
    def("engine.snapshots_in_flight_max", "count"),
    def("engine.recoveries", "count"),
    def("cpu.shard_busy_frac", "frac"),
    def("cpu.shard_runq_frac", "frac"),
    def("cpu.merger_busy_frac", "frac"),
    def("loadgen.late_frac", "frac"),
    def("loadgen.max_late_us", "us"),
    def("loadgen.cpu_busy_frac", "frac"),
    def("cpu.host_steal_frac", "frac"),
    def("ledger.ingest_unattributed_us", "us"),
    def("ledger.predict_unattributed_us", "us"),
    def("trace.traced_items_per_s", "1/s"),
    def("trace.untraced_items_per_s", "1/s"),
    def("trace.overhead_frac", "frac"),
];

/// Unit of a known metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PRINTED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// As measured.
    pub value: f64,
    /// Observations behind it.
    pub samples: u64,
}

/// A sample of observations, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `values`.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Observation count.
    pub fn n(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Nearest-rank percentile, `q` in (0, 1]; NaN when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Observations per slice of a sliced tail percentile: a p99 over 1000
/// has ten observations beyond it.
pub const SLICE: usize = 1000;

/// Tail percentile `q` of observations in arrival order, robust to a
/// single stall: the median, over consecutive slices of [`SLICE`]
/// observations, of each slice's `q`-percentile (one slice when there
/// are fewer than two slices' worth; a short remainder joins the last).
pub fn sliced_pct(in_order: &[f64], q: f64) -> f64 {
    let slices = (in_order.len() / SLICE).max(1);
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                in_order.len()
            } else {
                (i + 1) * SLICE
            };
            Dist::new(in_order[i * SLICE..end].to_vec()).pct(q)
        })
        .collect();
    median(&per_slice)
}

/// Median of a small set (the set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).pct(0.5)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name, v.value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.pct(0.5), 50.0);
        assert_eq!(d.pct(0.99), 99.0);
        assert_eq!(d.pct(1.0), 100.0);
        assert_eq!(d.mean(), 50.5);
        assert!(Dist::default().pct(0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sliced_percentile_ignores_one_bad_slice() {
        let mut v: Vec<f64> = (0..3 * SLICE).map(|i| (i % 100) as f64).collect();
        for x in &mut v[..SLICE] {
            *x += 1e6;
        }
        assert_eq!(sliced_pct(&v, 0.99), 98.0);
        assert_eq!(sliced_pct(&v[SLICE..SLICE + 10], 0.5), 4.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PRINTED).chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{d:?}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let v = Value {
            name: "setup_s".into(),
            unit: "s",
            value: 0.25,
            samples: 5,
        };
        assert_eq!(
            result_line(true, 3, 0, &[v]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
