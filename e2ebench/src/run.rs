//! One workload run: repeated set-up, warm-up, the measured window, the
//! final checks, then the metrics (and, traced, the ledger).

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write as _};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbs_server::server::{serve_on, ServerHandle};
use tbs_server::service::{LineFit, SamplerService};

use crate::check::Checker;
use crate::client::{self, ClientOut, Clock, Conn, Rec, Verb};
use crate::host::{self, Host};
use crate::metrics::{self, Dist, Value, END_TO_END, PER_LAYER, PRINTED};
use crate::replay::{self, ProtoCosts};
use crate::trace::{ServerSpan, ServerTrace, SpanKind, TracedModel, TracedService};
use crate::workload::{
    mode_of, x1_coefficient, Pace, Pool, ReaderMode, Spec, Workload, BATCH_ITEMS,
};

/// Length of each traced and each untraced slice of a traced run.
const TRACE_SLICE_NS: u64 = 500_000_000;
/// Length of the slices an untraced run's bounded metrics are medians
/// over. Hypervisor steal comes in bursts; slices this short still find
/// unstolen stretches in a run whose steal averages 10–20%.
const SLICE_NS: u64 = 100_000_000;
/// A slice in which the hypervisor stole more than this share of the
/// host's CPU time measures the neighbours, not the program; the bounded
/// metrics leave it out, down to the least-stolen quarter of the window.
/// On a two-CPU host, bursts of 10–20% steal cut closed-loop ingest by up
/// to half while they last.
const STEAL_MAX: f64 = 0.02;
/// An open-loop send this far behind its due time counts as late.
const LATE_NS: u64 = 1_000_000;
/// Batches of one mode the served model must have seen before the slope
/// check: the older mode's share of the sample is then about e^{-λ·40}.
const SETTLE: u64 = 40;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Unmeasured load before the window.
    pub warmup_s: f64,
    /// Budget of each direct-replay phase (traced runs).
    pub replay_s: f64,
    /// Where a traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
}

impl Options {
    /// The settings the benchmark command uses.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            setups: 61,
            warmup_s: 1.0,
            replay_s: 1.0,
            spans_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Of those, error replies, wrong-kind replies, I/O errors and timeouts.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced); the
    /// untraced run's [`PRINTED`] metrics are only in `report`.
    pub values: Vec<Value>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

struct Live {
    server: ServerHandle,
    trace: Arc<ServerTrace>,
    producer: Conn,
    reader: Conn,
}

/// From `SamplerConfig::build` through bind and connect to the first
/// `IngestAck` (batch 1). A traced run times the model's calls; an
/// untraced one serves the shipped `LineFit`.
fn start(spec: &Spec, seed: u64, pool: &Pool, base: Instant, traced: bool) -> io::Result<Live> {
    let trace = ServerTrace::new(base);
    let config = spec.config(seed);
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let server = if traced {
        let model = TracedModel::new(Arc::clone(&trace));
        let service = SamplerService::new(config, model, spec.policy).map_err(io::Error::other)?;
        serve_on(
            listener,
            TracedService::new(service, Arc::clone(&trace)),
            None,
        )?
    } else {
        let service =
            SamplerService::new(config, LineFit::new(), spec.policy).map_err(io::Error::other)?;
        serve_on(
            listener,
            TracedService::new(service, Arc::clone(&trace)),
            None,
        )?
    };
    let mut producer = Conn::connect(server.addr())?;
    let reader = Conn::connect(server.addr())?;
    let (batches, _) = client::ingest(&mut producer, pool, 1)?;
    if batches != 1 {
        return Err(io::Error::other(format!(
            "first ingest acked {batches} batches"
        )));
    }
    Ok(Live {
        server,
        trace,
        producer,
        reader,
    })
}

/// Keep ingesting (at least once, so that the engine's health is read)
/// until the last `SETTLE` batches share one mode and the model was refit
/// on the last one, then check the served slope.
fn settle(
    conn: &mut Conn,
    pool: &Pool,
    spec: &Spec,
    mut next: u64,
    checker: &mut Checker,
) -> io::Result<()> {
    loop {
        let (batches, epoch) = client::ingest(conn, pool, next)?;
        checker.ingest_ack(next, batches, epoch);
        let last = next;
        next += 1;
        let settled = last >= SETTLE
            && (last + 1 - SETTLE..=last).all(|o| mode_of(o) == mode_of(last))
            && last.is_multiple_of(spec.retrain_period());
        if settled {
            break;
        }
    }
    let slope = client::predict(conn, 1.0)? - client::predict(conn, 0.0)?;
    checker.served_slope(slope, x1_coefficient(mode_of(next - 1)));
    Ok(())
}

/// Everything the measured phase hands to the analysis.
struct Measured {
    producer: Vec<Rec>,
    reader: Vec<Rec>,
    w0: u64,
    w1: u64,
    traced: Vec<(u64, u64)>,
    untraced: Vec<(u64, u64)>,
    cpu0: BTreeMap<u64, host::ThreadCpu>,
    cpu1: BTreeMap<u64, host::ThreadCpu>,
    /// Share of host CPU time the hypervisor stole during the window.
    steal: f64,
    /// Untraced runs: [`SLICE_NS`] slices of the window and the share of
    /// host CPU time stolen in each.
    slices: Vec<(u64, u64, f64)>,
    retrains: u64,
}

/// Run one workload.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let host = Host::stamp();
    let spec = opts.workload.spec();
    let pool = Pool::generate(opts.seed);
    let clock = Clock {
        base: Instant::now(),
    };

    // Set-up runs on its own thread pinned to the client CPU, so every
    // thread it spawns (serve loop, engine) starts there too; once set-up
    // is over the serve thread moves to its own CPU and the engine's
    // threads to theirs. The calling thread keeps its CPUs, so the next
    // run places its threads alike.
    let placement = host::placement();
    let (setup_s, live) = std::thread::scope(|s| {
        s.spawn(|| -> io::Result<(Vec<f64>, Live)> {
            if let Some(p) = &placement {
                host::pin_self(p.client)?;
            }
            let mut setup_s = Vec::new();
            let mut live: Option<Live> = None;
            for _ in 0..opts.setups.max(1) {
                if let Some(old) = live.take() {
                    drop((old.producer, old.reader));
                    old.server.join()?;
                }
                let t = Instant::now();
                live = Some(start(&spec, opts.seed, &pool, clock.base, opts.trace)?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            Ok((setup_s, live.expect("at least one set-up")))
        })
        .join()
        .expect("set-up thread panicked")
    })?;
    let Live {
        server,
        trace,
        producer,
        reader,
    } = live;

    let pinning = match &placement {
        Some(p) => [
            host::pin_named("tbs-server", &[p.server]),
            host::pin_named("tbs-shard-", &p.engine),
            host::pin_named("tbs-merger", &p.engine),
            format!("load generator on cpu {}", p.client),
        ]
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join(", "),
        None => "threads not pinned: fewer than two CPUs".into(),
    };
    let client_cpu = placement.as_ref().map(|p| p.client);
    let stop_reader = AtomicBool::new(false);
    let stop_producer = AtomicBool::new(false);
    let (pool_ref, stop_r, stop_p) = (&pool, &stop_reader, &stop_producer);
    let (prod_out, read_out, mut m) = std::thread::scope(|s| -> io::Result<_> {
        let p = std::thread::Builder::new()
            .name("lg-producer".into())
            .spawn_scoped(s, move || {
                pin_client(client_cpu);
                client::producer(
                    producer,
                    pool_ref,
                    &spec,
                    2,
                    opts.seed ^ 0x7072_6f64,
                    clock,
                    stop_p,
                )
            })?;
        let r = std::thread::Builder::new()
            .name("lg-reader".into())
            .spawn_scoped(s, move || {
                pin_client(client_cpu);
                client::reader(reader, spec.reader, opts.seed ^ 0x7265_6164, clock, stop_r)
            })?;
        std::thread::sleep(Duration::from_secs_f64(opts.warmup_s));
        let cpu0 = host::threads();
        let ticks0 = host::cpu_ticks();
        let rt0 = trace.retrains();
        let w0 = clock.now_ns();
        let end = w0 + (opts.seconds * 1e9) as u64;
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        let mut slices = Vec::new();
        if opts.trace {
            let mut on = true;
            loop {
                let now = clock.now_ns();
                if now >= end {
                    break;
                }
                trace.set_tracing(on);
                let until = (now + TRACE_SLICE_NS).min(end);
                clock.sleep_until(until);
                if on { &mut traced } else { &mut untraced }.push((now, until));
                on = !on;
            }
            trace.set_tracing(false);
        } else {
            let (mut at, mut ticks) = (w0, ticks0);
            while at < end {
                let until = (at + SLICE_NS).min(end);
                clock.sleep_until(until);
                let (now, now_ticks) = (clock.now_ns(), host::cpu_ticks());
                slices.push((at, now, host::steal_frac(ticks, now_ticks)));
                (at, ticks) = (now, now_ticks);
            }
        }
        let w1 = clock.now_ns();
        let cpu1 = host::threads();
        let steal = host::steal_frac(ticks0, host::cpu_ticks());
        let retrains = trace.retrains() - rt0;
        // The reader stops first, so that every read it sends has the
        // producer's load beside it.
        stop_r.store(true, Ordering::Relaxed);
        let read_out = r.join().expect("reader thread panicked");
        stop_p.store(true, Ordering::Relaxed);
        let prod_out = p.join().expect("producer thread panicked");
        Ok((
            prod_out,
            read_out,
            Measured {
                producer: Vec::new(),
                reader: Vec::new(),
                w0,
                w1,
                traced,
                untraced,
                cpu0,
                cpu1,
                steal,
                slices,
                retrains,
            },
        ))
    })?;
    let ClientOut {
        recs,
        mut checker,
        conn: prod_conn,
        next_ordinal,
        broken: prod_broken,
    } = prod_out;
    m.producer = recs;
    m.reader = read_out.recs;
    checker.absorb(read_out.checker);
    let mut report = vec![
        format!("# {}", host.line()),
        format!(
            "# workload={} seed={} seconds={} trace={} shards={} policy={:?} producer={:?} reader={:?}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            spec.shards,
            spec.policy,
            spec.producer,
            spec.reader
        ),
        format!("# {pinning}"),
    ];
    report.push(format!(
        "host steal during the window: {:.4} of CPU time",
        m.steal
    ));
    for (who, recs) in [("producer", &m.producer), ("reader", &m.reader)] {
        report.push(format!(
            "{who}: {} requests, {} ok, {} sent in the window",
            recs.len(),
            recs.iter().filter(|r| r.ok).count(),
            recs.iter()
                .filter(|r| r.send_ns >= m.w0 && r.send_ns < m.w1)
                .count()
        ));
    }
    for broken in [&prod_broken, &read_out.broken].into_iter().flatten() {
        report.push(format!("connection lost: {broken}"));
    }
    trace.probe_health();
    match prod_conn {
        Some(mut conn) => {
            if let Err(e) = settle(&mut conn, &pool, &spec, next_ordinal, &mut checker) {
                checker.other(format!("final slope check: {e}"));
            }
        }
        None => checker.other("final slope check skipped: the producer's connection broke".into()),
    }
    drop(read_out.conn);
    server.join()?;
    let (health, recoveries, in_flight_max, spans) = {
        let mut log = trace.log();
        (
            log.health.clone(),
            log.recoveries,
            log.in_flight_max,
            std::mem::take(&mut log.spans),
        )
    };
    match &health {
        Some(h) => checker.health(h),
        None => checker.other("engine health was never read".into()),
    }

    let in_window = |t: u64| t >= m.w0 && t < m.w1;
    let window: Vec<&Rec> = m
        .producer
        .iter()
        .chain(&m.reader)
        .filter(|r| in_window(r.send_ns))
        .collect();
    let attempted = window.len() as u64;
    let failed = window.iter().filter(|r| !r.ok).count() as u64;
    let outside = m
        .producer
        .iter()
        .chain(&m.reader)
        .filter(|r| !r.ok && !in_window(r.send_ns))
        .count();
    report.push(format!(
        "{failed} failed / {attempted} attempted; {outside} failed outside the window"
    ));

    let mut found: HashMap<&'static str, (f64, u64)> = HashMap::new();
    found.insert(
        "error_rate",
        (failed as f64 / attempted.max(1) as f64, attempted),
    );
    let wall_s = (m.w1 - m.w0) as f64 / 1e9;
    let acked = |windows: &[(u64, u64)]| {
        m.producer
            .iter()
            .filter(|r| r.ok && r.verb == Verb::Ingest)
            .filter(|r| {
                windows
                    .iter()
                    .any(|&(a, b)| r.recv_ns >= a && r.recv_ns < b)
            })
            .count() as u64
    };
    let acks = acked(&[(m.w0, m.w1)]);
    let open_loop = open_loop_recs(&spec, &m);
    if let Pace::Open { per_s } = spec.producer {
        // A growing backlog shows as an acked rate short of the offered
        // one, or as the last send of the window running behind its slot.
        let rate = acks as f64 / wall_s;
        let behind_ms = m
            .producer
            .iter()
            .rfind(|r| r.verb == Verb::Ingest && r.due_ns < m.w1)
            .map_or(0.0, |r| r.send_ns.saturating_sub(r.due_ns) as f64 / 1e6);
        report.push(format!(
            "backlog: offered {per_s} batches/s, acked {rate:.1} batches/s, last send {behind_ms:.3} ms behind its slot{}",
            if rate < 0.9 * per_s || behind_ms > 100.0 {
                " -- FALLING BEHIND"
            } else {
                ""
            }
        ));
    }
    let late_ns: Vec<u64> = open_loop
        .iter()
        .map(|r| r.send_ns.saturating_sub(r.due_ns))
        .collect();
    let late_frac =
        late_ns.iter().filter(|&&ns| ns > LATE_NS).count() as f64 / late_ns.len().max(1) as f64;
    let max_late_us = late_ns.iter().max().map_or(0.0, |&ns| ns as f64 / 1e3);
    report.push(format!(
        "loadgen: {} open-loop sends, late_frac {late_frac} (late = over {} us behind), max lateness {max_late_us} us",
        late_ns.len(),
        LATE_NS / 1000,
    ));

    if !opts.trace {
        end_to_end(
            &spec,
            &m,
            acks,
            &setup_s,
            &mut found,
            &mut checker,
            &mut report,
        );
    } else {
        let costs = replay::proto_costs(&pool, Duration::from_millis(50));
        let direct = replay::direct(
            &spec,
            opts.seed,
            &pool,
            Duration::from_secs_f64(opts.replay_s),
        )?;
        let mut put = |name: &'static str, value: f64, samples: u64| {
            found.insert(name, (value, samples));
        };
        put(
            "proto.ingest_decode_ns_per_item",
            costs.ingest_decode_ns_per_item,
            1,
        );
        put(
            "proto.sample_reply_encode_us",
            costs.sample_reply_encode_us,
            1,
        );
        put(
            "proto.bytes_in",
            window.iter().map(|r| r.req_bytes).sum::<u64>() as f64,
            attempted,
        );
        put(
            "proto.bytes_out",
            window.iter().map(|r| r.reply_bytes).sum::<u64>() as f64,
            attempted,
        );
        let wall_ns = m.w1 - m.w0;
        let server = host::group(&m.cpu0, &m.cpu1, "tbs-server", wall_ns);
        let shards = host::group(&m.cpu0, &m.cpu1, "tbs-shard-", wall_ns);
        let merger = host::group(&m.cpu0, &m.cpu1, "tbs-merger", wall_ns);
        let loadgen = host::group(&m.cpu0, &m.cpu1, "lg-", wall_ns);
        put("cpu.server_busy_frac", server.busy_frac, 1);
        put("cpu.server_runq_frac", server.runq_frac, 1);
        put(
            "cpu.shard_busy_frac",
            shards.busy_frac,
            shards.threads as u64,
        );
        put(
            "cpu.shard_runq_frac",
            shards.runq_frac,
            shards.threads as u64,
        );
        put(
            "cpu.merger_busy_frac",
            merger.busy_frac,
            merger.threads as u64,
        );
        put(
            "loadgen.cpu_busy_frac",
            loadgen.busy_frac,
            loadgen.threads as u64,
        );
        put("cpu.host_steal_frac", m.steal, 1);
        put("loadgen.late_frac", late_frac, late_ns.len() as u64);
        put("loadgen.max_late_us", max_late_us, late_ns.len() as u64);
        put("model.retrains", m.retrains as f64, 1);
        put("engine.snapshots_in_flight_max", in_flight_max as f64, 1);
        put("engine.recoveries", recoveries as f64, 1);
        put("sampler.direct_items_per_s", direct.items_per_s, 1);
        put("sampler.observe_ns_per_item", direct.observe_ns_per_item, 1);
        put("sampler.publish_us", direct.publish_us, 1);
        put("engine.observe_call_us", direct.observe_call_us, 1);
        put(
            "engine.epoch_visible_us_p50",
            direct.epoch_visible_us.pct(0.5),
            direct.epoch_visible_us.n(),
        );
        put(
            "engine.epoch_visible_us_p99",
            direct.epoch_visible_us.pct(0.99),
            direct.epoch_visible_us.n(),
        );
        let traced_s = m.traced.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e9;
        let untraced_s = m.untraced.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e9;
        let traced_rate = (acked(&m.traced) * BATCH_ITEMS as u64) as f64 / traced_s;
        let untraced_rate = (acked(&m.untraced) * BATCH_ITEMS as u64) as f64 / untraced_s;
        put("trace.traced_items_per_s", traced_rate, acked(&m.traced));
        put(
            "trace.untraced_items_per_s",
            untraced_rate,
            acked(&m.untraced),
        );
        put("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, 1);

        let ledger = layers(&m, &spans, &costs, &mut found);
        report.extend(ledger);
        if let Some(dir) = &opts.spans_dir {
            // One file per workload, replaced by its next traced run, so
            // repeated runs do not pile up traces.
            let path = dir.join(format!("{}.spans.tsv", opts.workload.name()));
            let header = format!("{} seed={}", host.line(), opts.seed);
            match write_spans(&path, &header, &m, &spans) {
                Ok(()) => report.push(format!("spans written to {}", path.display())),
                Err(e) => report.push(format!("spans not written to {}: {e}", path.display())),
            }
        }
    }

    let (reported, printed_only) = if opts.trace {
        (PER_LAYER, &[][..])
    } else {
        (END_TO_END, PRINTED)
    };
    let mut values = Vec::with_capacity(reported.len());
    for d in reported.iter().chain(printed_only) {
        let measured = found
            .get(d.name)
            .copied()
            .filter(|(v, n)| v.is_finite() && *n > 0);
        let (value, samples) = match measured {
            Some(m) => m,
            // Every workload has what the bounded metrics measure.
            None if !opts.trace && !printed_only.contains(d) => {
                checker.other(format!("{}: no measurement", d.name));
                continue;
            }
            None => {
                report.push(format!(
                    "metric {} = n/a {} (n=0: no such requests on this workload)",
                    d.name, d.unit
                ));
                if opts.trace {
                    values.push(Value {
                        name: d.name.to_string(),
                        unit: d.unit,
                        value: 0.0,
                        samples: 0,
                    });
                }
                continue;
            }
        };
        report.push(format!(
            "metric {} = {value} {} (n={samples})",
            d.name, d.unit
        ));
        if !printed_only.contains(d) {
            values.push(Value {
                name: d.name.to_string(),
                unit: d.unit,
                value,
                samples,
            });
        }
    }
    for v in checker.messages() {
        report.push(format!("VIOLATION {v}"));
    }
    if checker.count() > checker.messages().len() {
        report.push(format!(
            "... {} more violations",
            checker.count() - checker.messages().len()
        ));
    }
    Ok(Outcome {
        correct: checker.count() == 0,
        attempted,
        failed,
        values,
        report,
    })
}

/// Pin a load-generator thread; a failure only costs steadiness, and the
/// report names the placement that was asked for.
fn pin_client(cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        let _ = host::pin_self(cpu);
    }
}

/// Requests sent on an open-loop schedule inside the window.
fn open_loop_recs<'a>(spec: &Spec, m: &'a Measured) -> Vec<&'a Rec> {
    let in_window = |r: &&Rec| r.due_ns >= m.w0 && r.due_ns < m.w1;
    let mut out: Vec<&Rec> = Vec::new();
    if matches!(spec.producer, Pace::Open { .. }) {
        out.extend(
            m.producer
                .iter()
                .filter(|r| r.verb == Verb::Ingest)
                .filter(in_window),
        );
    }
    if matches!(spec.reader, ReaderMode::Mixed { .. }) {
        out.extend(m.reader.iter().filter(in_window));
    }
    out
}

fn end_to_end(
    spec: &Spec,
    m: &Measured,
    acks: u64,
    setup_s: &[f64],
    found: &mut HashMap<&'static str, (f64, u64)>,
    checker: &mut Checker,
    report: &mut Vec<String>,
) {
    let mut all: Vec<&Rec> = m.producer.iter().chain(&m.reader).collect();
    all.sort_by_key(|r| r.send_ns);
    let due_in = |r: &&Rec| r.ok && r.due_ns >= m.w0 && r.due_ns < m.w1;
    found.insert("setup_s", (metrics::median(setup_s), setup_s.len() as u64));
    // The bounded metrics are medians over short slices, so that a
    // passing stall on the host moves them less. They leave out slices
    // with heavy CPU steal, but keep at least the quarter of the window
    // with the least.
    let whole: Vec<(u64, u64, f64)> = m
        .slices
        .iter()
        .filter(|&&(a, b, _)| b - a >= SLICE_NS / 2)
        .copied()
        .collect();
    let mut by_steal: Vec<usize> = (0..whole.len()).collect();
    by_steal.sort_by(|&i, &j| whole[i].2.total_cmp(&whole[j].2));
    let clean = whole.iter().filter(|s| s.2 <= STEAL_MAX).count();
    let mut used = vec![false; whole.len()];
    for &i in &by_steal[..clean.max(whole.len().div_ceil(4))] {
        used[i] = true;
    }
    let slice_of = |t: u64| {
        let i = whole.partition_point(|s| s.1 <= t);
        (i < whole.len() && t >= whole[i].0).then_some(i)
    };
    let secs = |&(a, b, _): &(u64, u64, f64)| (b - a) as f64 / 1e9;
    let ingests = m.producer.iter().filter(|r| r.ok && r.verb == Verb::Ingest);
    let mut items = vec![0u64; whole.len()];
    let mut slice_us = vec![Vec::new(); whole.len()];
    for r in ingests {
        if let Some(i) = slice_of(r.recv_ns) {
            items[i] += BATCH_ITEMS as u64;
        }
        if let Some(i) = slice_of(r.due_ns).filter(|_| due_in(&r)) {
            slice_us[i].push((r.recv_ns - r.due_ns) as f64 / 1e3);
        }
    }
    let rates: Vec<f64> = items
        .iter()
        .zip(&whole)
        .map(|(&n, s)| n as f64 / secs(s))
        .collect();
    let pick = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .zip(&used)
            .filter(|(_, &u)| u)
            .map(|(&x, _)| x)
            .collect()
    };
    report.push(format!(
        "bounded metrics over {} of {} slices of {} ms, host steal at most {:.3} (left out: the most stolen while over {STEAL_MAX}); median items/s over every slice {:.0}, over those used {:.0}",
        used.iter().filter(|&&u| u).count(),
        whole.len(),
        SLICE_NS / 1_000_000,
        pick(&whole.iter().map(|s| s.2).collect::<Vec<_>>())
            .into_iter()
            .fold(0.0, f64::max),
        metrics::median(&rates),
        metrics::median(&pick(&rates)),
    ));
    // An open loop acks its offered rate unless it falls behind; its
    // slices would only show the arrival noise, so it reports the rate
    // over all the slices used.
    let rate = match spec.producer {
        Pace::Closed => metrics::median(&pick(&rates)),
        Pace::Open { .. } => {
            let n: u64 = items
                .iter()
                .zip(&used)
                .filter(|(_, &u)| u)
                .map(|(&n, _)| n)
                .sum();
            let t: f64 = whole
                .iter()
                .zip(&used)
                .filter(|(_, &u)| u)
                .map(|(s, _)| secs(s))
                .sum();
            n as f64 / t
        }
    };
    found.insert("ingest_items_per_s", (rate, acks));
    let p50s: Vec<f64> = pick(
        &slice_us
            .into_iter()
            .map(|us| {
                if us.is_empty() {
                    f64::NAN
                } else {
                    Dist::new(us).pct(0.5)
                }
            })
            .collect::<Vec<_>>(),
    )
    .into_iter()
    .filter(|p| !p.is_nan())
    .collect();
    let n = m
        .producer
        .iter()
        .filter(|r| r.verb == Verb::Ingest && due_in(r))
        .count() as u64;
    found.insert("ingest_p50_us", (metrics::median(&p50s), n));
    for (verb, p50, p99) in [
        (Verb::Ingest, None, "ingest_p99_us"),
        (Verb::Predict, Some("predict_p50_us"), "predict_p99_us"),
        (
            Verb::GetSample,
            Some("get_sample_p50_us"),
            "get_sample_p99_us",
        ),
    ] {
        let us: Vec<f64> = all
            .iter()
            .filter(|r| r.verb == verb && due_in(r))
            .map(|r| (r.recv_ns - r.due_ns) as f64 / 1e3)
            .collect();
        // Medians of per-slice percentiles, so that a passing stall on
        // the host moves them less.
        let n = us.len() as u64;
        found.insert(p99, (metrics::sliced_pct(&us, 0.99), n));
        if let Some(p50) = p50 {
            found.insert(p50, (metrics::sliced_pct(&us, 0.5), n));
        }
    }

    // Model lag: batch b is served once a PREDICT is sent after the ack of
    // the ingest whose refit covers b. Only `serve_mixed` reads the model.
    let ack_ns: HashMap<u64, u64> = m
        .producer
        .iter()
        .filter(|r| r.ok && r.verb == Verb::Ingest)
        .map(|r| (r.ordinal, r.recv_ns))
        .collect();
    let predicts: Vec<&Rec> = all
        .iter()
        .copied()
        .filter(|r| r.ok && r.verb == Verb::Predict)
        .collect();
    let model_lag: Vec<f64> = m
        .producer
        .iter()
        .filter(|r| r.verb == Verb::Ingest)
        .filter(due_in)
        .filter_map(|b| {
            let covered = *ack_ns.get(&spec.covering_batch(b.ordinal))?;
            let i = predicts.partition_point(|p| p.send_ns <= covered);
            predicts.get(i).map(|p| (p.recv_ns - b.due_ns) as f64 / 1e6)
        })
        .collect();
    let n = model_lag.len() as u64;
    found.insert(
        "model_lag_p99_ms",
        (metrics::sliced_pct(&model_lag, 0.99), n),
    );
    found.insert("model_lag_p50_ms", (Dist::new(model_lag).pct(0.5), n));

    // No stamped reply may reflect a batch sent after it arrived. Publish
    // lag: batch b is visible at the first subscription reply stamped
    // with batches ≥ b. Only the reader's connection sends stamped verbs,
    // and only `sharded_publish` subscribes.
    let mut stamps: Vec<&Rec> = all
        .iter()
        .copied()
        .filter(|r| r.ok && matches!(r.verb, Verb::GetSample | Verb::Subscribe))
        .collect();
    stamps.sort_by_key(|r| r.recv_ns);
    let mut lags = Vec::new();
    for b in m
        .producer
        .iter()
        .filter(|r| r.ok && r.verb == Verb::Ingest && r.send_ns >= m.w0 && r.send_ns < m.w1)
    {
        let i = stamps.partition_point(|s| s.batches < b.ordinal);
        if let Some(s) = stamps.get(i) {
            checker.causality(b.ordinal, b.send_ns, s.recv_ns);
            if s.verb == Verb::Subscribe {
                lags.push(s.recv_ns.saturating_sub(b.send_ns) as f64 / 1e6);
            }
        }
    }
    let n = lags.len() as u64;
    found.insert("publish_lag_p99_ms", (metrics::sliced_pct(&lags, 0.99), n));
    found.insert("publish_lag_p50_ms", (Dist::new(lags).pct(0.5), n));
    found.insert("rss_peak_mb", (host::peak_rss_mb(), 1));
}

/// µs in `[a, b)` covered by the disjoint, start-sorted `busy` intervals.
fn covered_us(busy: &[(u64, u64)], a: u64, b: u64) -> f64 {
    let mut i = busy.partition_point(|iv| iv.1 <= a);
    let mut sum = 0u64;
    while i < busy.len() && busy[i].0 < b {
        sum += busy[i].1.min(b) - busy[i].0.max(a);
        i += 1;
    }
    sum as f64 / 1e3
}

/// Ordinal of the ingest span (start, end, ordinal; sorted by start)
/// that encloses `span`: model calls run inside an ingest.
fn enclosing_ingest(ingests: &[(u64, u64, u64)], span: &ServerSpan) -> Option<u64> {
    let i = ingests.partition_point(|iv| iv.0 <= span.start_ns);
    let (_, end, ordinal) = ingests[..i].last()?;
    (span.end_ns <= *end).then_some(*ordinal)
}

/// The server-side view of one request.
#[derive(Debug, Clone, Copy, Default)]
struct Served {
    start: u64,
    end: u64,
    /// µs inside service calls, nested model calls excluded.
    self_us: f64,
    batch_error_us: f64,
    retrain_us: f64,
    /// µs a subscription sat parked between its first and last poll.
    parked_us: f64,
    polls: u64,
}

/// Mean ledger lines of one verb.
#[derive(Debug, Default)]
struct Ledger {
    n: u64,
    rtt: f64,
    lines: Vec<(&'static str, f64)>,
    /// Send to service start, and service end to reply: the gaps the
    /// unattributed line lies in.
    before: f64,
    after: f64,
}

impl Ledger {
    fn add(&mut self, line: &'static str, us: f64) {
        match self.lines.iter_mut().find(|(l, _)| *l == line) {
            Some((_, sum)) => *sum += us,
            None => self.lines.push((line, us)),
        }
    }
}

/// Join client requests to server spans; fill the per-layer metrics and
/// return the ledger lines.
fn layers(
    m: &Measured,
    spans: &[ServerSpan],
    costs: &ProtoCosts,
    found: &mut HashMap<&'static str, (f64, u64)>,
) -> Vec<String> {
    let mut served: HashMap<(Verb, u64), Served> = HashMap::new();
    // Top-level service spans: the serve thread is busy with one request
    // at a time, and no request overlaps another on its own connection.
    let mut busy = Vec::new();
    let mut ingests: Vec<(u64, u64, u64)> = Vec::new();
    let (mut batch_error, mut retrain) = (Vec::new(), Vec::new());
    let (mut polls, mut ready) = (0u64, 0u64);
    let mut svc: HashMap<SpanKind, Vec<f64>> = HashMap::new();
    for s in spans {
        let us = (s.end_ns - s.start_ns) as f64 / 1e3;
        let verb = match s.kind {
            SpanKind::Ingest => Verb::Ingest,
            SpanKind::Latest => Verb::GetSample,
            SpanKind::Predict => Verb::Predict,
            SpanKind::PollEpoch => Verb::Subscribe,
            SpanKind::BatchError => {
                batch_error.push(*s);
                continue;
            }
            SpanKind::Retrain => {
                retrain.push(*s);
                continue;
            }
        };
        svc.entry(s.kind).or_default().push(us);
        busy.push((s.start_ns, s.end_ns));
        if verb == Verb::Ingest {
            ingests.push((s.start_ns, s.end_ns, s.ordinal));
        }
        if verb == Verb::Subscribe {
            polls += 1;
            ready += u64::from(s.ready);
        }
        let e = served.entry((verb, s.ordinal)).or_insert(Served {
            start: s.start_ns,
            ..Served::default()
        });
        if e.polls > 0 {
            e.parked_us += (s.start_ns - e.end) as f64 / 1e3;
        }
        e.end = s.end_ns;
        e.self_us += us;
        e.polls += 1;
    }
    for (list, is_retrain) in [(&batch_error, false), (&retrain, true)] {
        for s in list.iter() {
            let Some(e) = enclosing_ingest(&ingests, s)
                .and_then(|ordinal| served.get_mut(&(Verb::Ingest, ordinal)))
            else {
                continue;
            };
            let us = (s.end_ns - s.start_ns) as f64 / 1e3;
            e.self_us -= us;
            if is_retrain {
                e.retrain_us += us;
            } else {
                e.batch_error_us += us;
            }
        }
    }

    let p50 = |v: Option<&Vec<f64>>| Dist::new(v.cloned().unwrap_or_default());
    for (kind, name) in [
        (SpanKind::Ingest, "service.ingest_us_p50"),
        (SpanKind::Latest, "service.latest_us_p50"),
        (SpanKind::Predict, "service.predict_us_p50"),
    ] {
        let d = p50(svc.get(&kind));
        found.insert(name, (d.pct(0.5), d.n()));
    }
    found.insert(
        "service.poll_epoch_calls_per_epoch",
        (
            if ready > 0 {
                polls as f64 / ready as f64
            } else {
                0.0
            },
            ready,
        ),
    );
    let mean_us = |v: &[ServerSpan]| {
        Dist::new(
            v.iter()
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    };
    let be = mean_us(&batch_error);
    let rt = mean_us(&retrain);
    found.insert("model.batch_error_us", (be.mean(), be.n()));
    found.insert("model.retrain_us", (rt.mean(), rt.n()));

    // Per request: poll wait, head-of-line wait, reply, and the ledger.
    let traced_window = |r: &Rec| {
        m.traced
            .iter()
            .any(|&(a, b)| r.send_ns >= a && r.recv_ns < b)
    };
    let (mut poll_wait, mut hol_wait, mut reply) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledgers: BTreeMap<Verb, Ledger> = BTreeMap::new();
    for r in m.producer.iter().chain(&m.reader) {
        if !r.ok || !traced_window(r) {
            continue;
        }
        let Some(s) = served.get(&(r.verb, r.ordinal)) else {
            continue;
        };
        let hol = covered_us(&busy, r.send_ns, s.start.max(r.send_ns));
        let rtt = (r.recv_ns - r.send_ns) as f64 / 1e3;
        poll_wait.push(s.start.saturating_sub(r.send_ns) as f64 / 1e3 - hol);
        hol_wait.push(hol);
        reply.push(r.recv_ns.saturating_sub(s.end) as f64 / 1e3);

        let l = ledgers.entry(r.verb).or_default();
        l.n += 1;
        l.rtt += rtt;
        l.before += s.start.saturating_sub(r.send_ns) as f64 / 1e3;
        l.after += r.recv_ns.saturating_sub(s.end) as f64 / 1e3;
        let mut attributed = 0.0;
        let mut line = |l: &mut Ledger, name: &'static str, us: f64| {
            attributed += us;
            l.add(name, us);
        };
        line(l, "loadgen.write", (r.written_ns - r.send_ns) as f64 / 1e3);
        line(l, "server.hol_wait", hol);
        line(l, "proto.decode (replayed)", costs.decode_us(r.verb));
        line(l, "service self", s.self_us);
        if r.verb == Verb::Ingest {
            line(l, "model.batch_error", s.batch_error_us);
            line(l, "model.retrain", s.retrain_us);
        }
        if r.verb == Verb::Subscribe {
            line(l, "server.epoch_parked", s.parked_us);
        }
        line(l, "proto.encode (replayed)", costs.encode_us(r.verb));
        // The serve loop noticing the request, socket reads and writes,
        // and what the replayed codec costs miss.
        l.add("unattributed", rtt - attributed);
    }
    let poll_wait = Dist::new(poll_wait);
    found.insert(
        "server.poll_wait_us_p50",
        (poll_wait.pct(0.5), poll_wait.n()),
    );
    found.insert(
        "server.poll_wait_us_p99",
        (poll_wait.pct(0.99), poll_wait.n()),
    );
    let hol_wait = Dist::new(hol_wait);
    found.insert("server.hol_wait_us_p50", (hol_wait.pct(0.5), hol_wait.n()));
    found.insert("server.hol_wait_us_p99", (hol_wait.pct(0.99), hol_wait.n()));
    let d = Dist::new(reply);
    found.insert("server.reply_us_p50", (d.pct(0.5), d.n()));

    let mut out = Vec::new();
    for (verb, l) in &ledgers {
        let n = l.n as f64;
        let mut text = format!(
            "ledger {} (n={}, mean us): round_trip={:.3} =",
            verb.name(),
            l.n,
            l.rtt / n
        );
        let mut sum = 0.0;
        for (i, (line, total)) in l.lines.iter().enumerate() {
            sum += total / n;
            text.push_str(&format!(
                "{} {line} {:.3}",
                if i == 0 { "" } else { " +" },
                total / n
            ));
        }
        text.push_str(&format!(
            " (lines sum to {sum:.3}; send to service start {:.3}, service end to reply {:.3})",
            l.before / n,
            l.after / n
        ));
        out.push(text);
        let unattributed = l
            .lines
            .iter()
            .find(|(line, _)| *line == "unattributed")
            .map_or(0.0, |(_, t)| t / n);
        match verb {
            Verb::Ingest => {
                found.insert("ledger.ingest_unattributed_us", (unattributed, l.n));
            }
            Verb::Predict => {
                found.insert("ledger.predict_unattributed_us", (unattributed, l.n));
            }
            _ => {}
        }
    }
    out
}

/// Spans as TSV: name, start, end, parent, request id. A request's root
/// is the client's span; its service span is the child, and model calls
/// are children of the ingest's service span.
fn write_spans(
    path: &std::path::Path,
    header: &str,
    m: &Measured,
    spans: &[ServerSpan],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
    for r in m.producer.iter().chain(&m.reader) {
        let verb = r.verb.name();
        writeln!(
            out,
            "client.{verb}\t{}\t{}\t-\t{verb}:{}",
            r.send_ns, r.recv_ns, r.ordinal
        )?;
    }
    let mut ingests: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Ingest)
        .map(|s| (s.start_ns, s.end_ns, s.ordinal))
        .collect();
    ingests.sort_unstable();
    for s in spans {
        let (parent, verb, ordinal) = match s.kind {
            SpanKind::Ingest => ("client.ingest", "ingest", Some(s.ordinal)),
            SpanKind::Latest => ("client.get_sample", "get_sample", Some(s.ordinal)),
            SpanKind::Predict => ("client.predict", "predict", Some(s.ordinal)),
            SpanKind::PollEpoch => ("client.subscribe", "subscribe", Some(s.ordinal)),
            SpanKind::BatchError | SpanKind::Retrain => {
                ("service.ingest", "ingest", enclosing_ingest(&ingests, s))
            }
        };
        let request = ordinal.map_or("-".to_string(), |o| format!("{verb}:{o}"));
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{request}",
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
