//! End-to-end wire benchmark of the serving tier.
//!
//! Starts the real serve loop (`tbs_server::server::serve_on` over a
//! `SamplerService` built from a `SamplerConfig`) on a loopback port and
//! drives it from two client threads, one connection each: a producer
//! sending `INGEST` frames, and a reader that is idle, sends `PREDICT` and
//! `GET_SAMPLE` on a Poisson schedule, or follows every published epoch
//! with `SUBSCRIBE_EPOCH` (see [`workload`]). An untraced run reports the end-to-end metrics
//! ([`metrics::END_TO_END`]); a traced run reports per-layer metrics
//! ([`metrics::PER_LAYER`]) and a ledger whose lines sum to the mean
//! round trip of each verb.

#![deny(unsafe_code)]

pub mod check;
pub mod client;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;
