//! Server-side spans, recorded from the benchmark's own files around
//! calls into public functions: a [`WireService`] wrapper around
//! [`SamplerService`] and an [`OnlineModel`] + [`Predictor`] wrapper
//! around [`LineFit`].
//!
//! Tracing switches on and off at run time ([`ServerTrace::set_tracing`])
//! so one run can interleave traced and untraced windows and measure the
//! tracing overhead. Off, a call costs two relaxed loads and a counter
//! increment, and takes no lock. The engine's health is recorded by each
//! ingest while tracing or after [`ServerTrace::probe_health`], which the
//! benchmark calls before the ingests that end a run.
//!
//! An untraced run wraps the shipped [`LineFit`] directly; a traced run
//! wraps it in [`TracedModel`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll};
use std::time::Instant;

use bytes::Bytes;
use tbs_server::proto::EpochOutcome;
use tbs_server::service::{
    LineFit, Predictor, SampleView, SamplerService, ServiceError, WireService,
};
use temporal_sampling::api::EngineHealth;
use temporal_sampling::ml::pipeline::OnlineModel;

use crate::workload::Item;

/// Which call a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `WireService::ingest`.
    Ingest,
    /// `WireService::latest` (`GET_SAMPLE`).
    Latest,
    /// `WireService::predict`.
    Predict,
    /// One `WireService::poll_epoch` call (`SUBSCRIBE_EPOCH`).
    PollEpoch,
    /// `OnlineModel::batch_error`, nested in an ingest.
    BatchError,
    /// `OnlineModel::retrain`, nested in an ingest.
    Retrain,
}

impl SpanKind {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Ingest => "service.ingest",
            SpanKind::Latest => "service.latest",
            SpanKind::Predict => "service.predict",
            SpanKind::PollEpoch => "service.poll_epoch",
            SpanKind::BatchError => "model.batch_error",
            SpanKind::Retrain => "model.retrain",
        }
    }
}

/// One timed server-side call. Times are ns since the run's base instant.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpan {
    /// What was timed.
    pub kind: SpanKind,
    /// 1-based ordinal of the request among requests of its verb (0 for
    /// model spans, which belong to the ingest that encloses them).
    pub ordinal: u64,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
    /// For `PollEpoch`: the call resolved the subscription.
    pub ready: bool,
}

/// What the wrappers collected.
#[derive(Debug)]
pub struct ServerLog {
    /// Spans recorded while tracing was on.
    pub spans: Vec<ServerSpan>,
    /// Engine health after the latest ingest that recorded it.
    pub health: Option<EngineHealth>,
    /// Engine recoveries after the latest ingest.
    pub recoveries: u64,
    /// Largest `requested_epoch − published_epoch` seen after a traced
    /// ingest.
    pub in_flight_max: u64,
}

/// Shared between the wrappers (on the serve thread) and the benchmark.
pub struct ServerTrace {
    base: Instant,
    on: AtomicBool,
    probe: AtomicBool,
    retrains: AtomicU64,
    log: Mutex<ServerLog>,
}

impl ServerTrace {
    /// A log whose span times count from `base`, tracing off.
    pub fn new(base: Instant) -> Arc<Self> {
        Arc::new(Self {
            base,
            on: AtomicBool::new(false),
            probe: AtomicBool::new(false),
            retrains: AtomicU64::new(0),
            log: Mutex::new(ServerLog {
                spans: Vec::new(),
                health: None,
                recoveries: 0,
                in_flight_max: 0,
            }),
        })
    }

    /// Turn span recording on or off.
    pub fn set_tracing(&self, on: bool) {
        // Relaxed: the flag guards no other data; a call that straddles
        // the switch is dropped from the ledger by its time window.
        self.on.store(on, Ordering::Relaxed);
    }

    fn tracing(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Have every later ingest record the engine's health.
    pub fn probe_health(&self) {
        self.probe.store(true, Ordering::Relaxed);
    }

    /// ns since the base instant.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Model refits so far, traced or not.
    pub fn retrains(&self) -> u64 {
        self.retrains.load(Ordering::Relaxed)
    }

    /// Lock the log.
    pub fn log(&self) -> MutexGuard<'_, ServerLog> {
        self.log
            .lock()
            .expect("a wrapper panicked while holding the trace log")
    }

    fn record(&self, kind: SpanKind, ordinal: u64, start: Instant, ready: bool) {
        let end = Instant::now();
        let span = ServerSpan {
            kind,
            ordinal,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            ready,
        };
        self.log().spans.push(span);
    }

    fn start(&self) -> Option<Instant> {
        self.tracing().then(Instant::now)
    }
}

/// [`LineFit`] with its two training-path calls timed.
pub struct TracedModel {
    fit: LineFit,
    trace: Arc<ServerTrace>,
}

impl TracedModel {
    /// An unfit line reporting into `trace`.
    pub fn new(trace: Arc<ServerTrace>) -> Self {
        Self {
            fit: LineFit::new(),
            trace,
        }
    }
}

impl OnlineModel<Item> for TracedModel {
    fn retrain(&mut self, sample: &[Item]) {
        self.trace.retrains.fetch_add(1, Ordering::Relaxed);
        let start = self.trace.start();
        self.fit.retrain(sample);
        if let Some(start) = start {
            self.trace.record(SpanKind::Retrain, 0, start, false);
        }
    }

    fn batch_error(&self, batch: &[Item]) -> f64 {
        let start = self.trace.start();
        let err = self.fit.batch_error(batch);
        if let Some(start) = start {
            self.trace.record(SpanKind::BatchError, 0, start, false);
        }
        err
    }
}

impl Predictor for TracedModel {
    fn predict(&self, x: f64) -> Option<f64> {
        self.fit.predict(x)
    }
}

/// [`SamplerService`] with every data-path verb timed and numbered.
pub struct TracedService<M>
where
    M: OnlineModel<Item> + Predictor + Send + 'static,
{
    inner: SamplerService<Item, M>,
    trace: Arc<ServerTrace>,
    ingests: u64,
    latests: u64,
    predicts: u64,
    subscribes: u64,
}

impl<M> TracedService<M>
where
    M: OnlineModel<Item> + Predictor + Send + 'static,
{
    /// Wrap `inner`, reporting into `trace`.
    pub fn new(inner: SamplerService<Item, M>, trace: Arc<ServerTrace>) -> Self {
        Self {
            inner,
            trace,
            ingests: 0,
            latests: 0,
            predicts: 0,
            subscribes: 0,
        }
    }
}

impl<M> WireService<Item> for TracedService<M>
where
    M: OnlineModel<Item> + Predictor + Send + 'static,
{
    fn latest(&mut self) -> Result<SampleView<Item>, ServiceError> {
        self.latests += 1;
        let start = self.trace.start();
        let out = self.inner.latest();
        if let Some(start) = start {
            self.trace
                .record(SpanKind::Latest, self.latests, start, false);
        }
        out
    }

    fn poll_epoch(&mut self, epoch: u64, cx: &mut Context<'_>) -> Poll<(EpochOutcome, u64, u64)> {
        // A subscription is a run of calls ending in the one that
        // resolves; they all carry the subscription's ordinal.
        let ordinal = self.subscribes + 1;
        let start = self.trace.start();
        let out = self.inner.poll_epoch(epoch, cx);
        let ready = out.is_ready();
        if ready {
            self.subscribes += 1;
        }
        if let Some(start) = start {
            self.trace
                .record(SpanKind::PollEpoch, ordinal, start, ready);
        }
        out
    }

    fn published_epoch(&self) -> u64 {
        self.inner.published_epoch()
    }

    fn ingest(&mut self, items: Vec<Item>) -> Result<(u64, u64), ServiceError> {
        self.ingests += 1;
        let start = self.trace.start();
        let out = self.inner.ingest(items);
        if start.is_none() && !self.trace.probe.load(Ordering::Relaxed) {
            return out;
        }
        let end = Instant::now();
        let sampler = self.inner.sampler();
        let mut log = self.trace.log();
        log.health = Some(sampler.health());
        log.recoveries = sampler.recoveries();
        if let Some(start) = start {
            let in_flight = sampler
                .requested_epoch()
                .saturating_sub(sampler.published_epoch());
            log.in_flight_max = log.in_flight_max.max(in_flight);
            log.spans.push(ServerSpan {
                kind: SpanKind::Ingest,
                ordinal: self.ingests,
                start_ns: self.trace.ns(start),
                end_ns: self.trace.ns(end),
                ready: false,
            });
        }
        out
    }

    fn checkpoint(&mut self) -> Result<Bytes, ServiceError> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, blob: Bytes) -> Result<(), ServiceError> {
        self.inner.restore(blob)
    }

    fn predict(&mut self, x: f64) -> Result<f64, ServiceError> {
        self.predicts += 1;
        let start = self.trace.start();
        let out = self.inner.predict(x);
        if let Some(start) = start {
            self.trace
                .record(SpanKind::Predict, self.predicts, start, false);
        }
        out
    }

    fn retrain(&mut self) -> Result<Option<u64>, ServiceError> {
        self.inner.retrain()
    }
}
