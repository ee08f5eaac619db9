//! Replays without the wire: the frame codec on the frames the clients
//! sent, and the same batches straight through `ModelManager` and
//! `Sampler`/`SampleReader` on one thread.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use tbs_server::proto::{encode_frame, EpochOutcome, FrameDecoder, Reply, Request};
use tbs_server::service::LineFit;
use temporal_sampling::api::ModelManager;

use crate::client::Verb;
use crate::metrics::Dist;
use crate::workload::{pool_index, Item, Pool, Spec, BATCH_ITEMS, CAPACITY};

/// Mean cost of decoding one request and encoding one reply, per verb.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoCosts {
    /// `FrameDecoder` + `Request::decode` of one 1000-item `INGEST`, per item.
    pub ingest_decode_ns_per_item: f64,
    /// `Reply::Sample` of n items, encoded and framed.
    pub sample_reply_encode_us: f64,
    decode_us: [f64; 4],
    encode_us: [f64; 4],
}

fn slot(verb: Verb) -> usize {
    match verb {
        Verb::Ingest => 0,
        Verb::Predict => 1,
        Verb::GetSample => 2,
        Verb::Subscribe => 3,
    }
}

impl ProtoCosts {
    /// Mean request decode, µs.
    pub fn decode_us(&self, verb: Verb) -> f64 {
        self.decode_us[slot(verb)]
    }

    /// Mean reply encode, µs.
    pub fn encode_us(&self, verb: Verb) -> f64 {
        self.encode_us[slot(verb)]
    }
}

/// Mean µs per call of `f`, run for about `budget`.
fn time_us(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 16 || start.elapsed() < budget {
        for _ in 0..16 {
            f(calls);
            calls += 1;
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn decode_us(frames: &[Vec<u8>], budget: Duration) -> f64 {
    let mut decoder = FrameDecoder::new();
    time_us(budget, |i| {
        decoder.push(&frames[i as usize % frames.len()]);
        let payload = decoder
            .next_frame()
            .expect("a frame the benchmark encoded")
            .expect("a whole frame");
        black_box(Request::<Item>::decode(payload).expect("a request the benchmark encoded"));
    })
}

fn encode_us(reply: &Reply<Item>, budget: Duration) -> f64 {
    time_us(budget, |_| {
        black_box(encode_frame(&black_box(reply).encode()));
    })
}

/// Time the codec on the workload's frames, `budget` per measurement.
pub fn proto_costs(pool: &Pool, budget: Duration) -> ProtoCosts {
    let small = |req: Request<Item>| vec![encode_frame(&req.encode())];
    let ingest_us = decode_us(&pool.frames, budget);
    let sample = Reply::Sample {
        epoch: 2,
        batches: 1,
        items: pool.batches[0][..CAPACITY.min(BATCH_ITEMS)].to_vec(),
    };
    let sample_us = encode_us(&sample, budget);
    ProtoCosts {
        ingest_decode_ns_per_item: ingest_us * 1e3 / BATCH_ITEMS as f64,
        sample_reply_encode_us: sample_us,
        decode_us: [
            ingest_us,
            decode_us(&small(Request::Predict(0.5)), budget),
            decode_us(&small(Request::GetSample), budget),
            decode_us(
                &small(Request::SubscribeEpoch {
                    epoch: 7,
                    timeout_ms: 5000,
                }),
                budget,
            ),
        ],
        encode_us: [
            encode_us(
                &Reply::IngestAck {
                    batches: 7,
                    published_epoch: 14,
                },
                budget,
            ),
            encode_us(&Reply::Prediction(1.5), budget),
            sample_us,
            encode_us(
                &Reply::Epoch {
                    outcome: EpochOutcome::Published,
                    epoch: 7,
                    batches: 7,
                },
                budget,
            ),
        ],
    }
}

/// The pool's batches through the API with no wire.
#[derive(Debug, Clone, Default)]
pub struct Direct {
    /// Items per second of `ModelManager::ingest` + `Sampler::publish`
    /// (time inside those calls; one thread).
    pub items_per_s: f64,
    /// `Sampler::observe`, ns per item.
    pub observe_ns_per_item: f64,
    /// `Sampler::observe`, µs per call.
    pub observe_call_us: f64,
    /// `Sampler::publish`, µs per call.
    pub publish_us: f64,
    /// From `publish` to `SampleReader::wait_for_epoch` returning, µs.
    pub epoch_visible_us: Dist,
}

/// Replay for about `budget` per phase.
pub fn direct(spec: &Spec, seed: u64, pool: &Pool, budget: Duration) -> io::Result<Direct> {
    let config = spec.config(seed);
    let batch = |ordinal: u64| pool.batches[pool_index(ordinal)].clone();
    let mut out = Direct::default();

    let sampler = config.build::<Item>().map_err(io::Error::other)?;
    let mut mgr = ModelManager::new(sampler, LineFit::new(), spec.policy);
    let (mut busy, mut ordinal) = (Duration::ZERO, 1u64);
    let start = Instant::now();
    while ordinal <= 8 || start.elapsed() < budget {
        let items = batch(ordinal);
        let t = Instant::now();
        mgr.ingest(items).map_err(io::Error::other)?;
        mgr.sampler_mut().publish().map_err(io::Error::other)?;
        busy += t.elapsed();
        ordinal += 1;
    }
    out.items_per_s = ((ordinal - 1) * BATCH_ITEMS as u64) as f64 / busy.as_secs_f64();
    drop(mgr);

    let mut sampler = config.build::<Item>().map_err(io::Error::other)?;
    let mut reader = sampler.reader();
    let (mut observe, mut publish) = (Duration::ZERO, Duration::ZERO);
    let mut visible = Vec::new();
    let (start, mut ordinal) = (Instant::now(), 1u64);
    while ordinal <= 8 || start.elapsed() < budget {
        let items = batch(ordinal);
        let t0 = Instant::now();
        sampler.observe(items).map_err(io::Error::other)?;
        let t1 = Instant::now();
        let epoch = sampler.publish().map_err(io::Error::other)?;
        let t2 = Instant::now();
        reader
            .wait_for_epoch(epoch)
            .ok_or_else(|| io::Error::other("publisher gone during the replay"))?;
        let t3 = Instant::now();
        observe += t1 - t0;
        publish += t2 - t1;
        visible.push((t3 - t1).as_secs_f64() * 1e6);
        ordinal += 1;
    }
    let calls = (ordinal - 1) as f64;
    out.observe_ns_per_item = observe.as_secs_f64() * 1e9 / (calls * BATCH_ITEMS as f64);
    out.observe_call_us = observe.as_secs_f64() * 1e6 / calls;
    out.publish_us = publish.as_secs_f64() * 1e6 / calls;
    out.epoch_visible_us = Dist::new(visible);
    Ok(out)
}
