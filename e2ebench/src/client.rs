//! The load generator: one producer and one reader thread, each on its
//! own connection, sending pre-encoded frames (the subscription request,
//! whose epoch changes, is encoded on the fly; it is a few bytes).
//! The producer sends only `INGEST`; the reader is idle, sends a Poisson
//! mix of `PREDICT` and `GET_SAMPLE`, or follows the published epochs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use tbs_server::proto::{encode_frame, FrameDecoder, Reply, Request};
use tbs_stats::rng::Xoshiro256PlusPlus;

use crate::check::Checker;
use crate::workload::{Item, Pace, Pool, ReaderMode, Spec, CAPACITY};

/// Socket timeout: a reply slower than this is a failed request.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Server-side deadline of a subscription, in ms.
const SUBSCRIBE_TIMEOUT_MS: u64 = 5_000;
/// `PREDICT` arguments, cycled.
const PREDICT_X: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    /// `INGEST`.
    Ingest,
    /// `PREDICT`.
    Predict,
    /// `GET_SAMPLE`.
    GetSample,
    /// `SUBSCRIBE_EPOCH`.
    Subscribe,
}

impl Verb {
    /// Lower-case name used in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Ingest => "ingest",
            Verb::Predict => "predict",
            Verb::GetSample => "get_sample",
            Verb::Subscribe => "subscribe",
        }
    }
}

/// One request as the client saw it. Times are ns since the run's base.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Verb.
    pub verb: Verb,
    /// 1-based ordinal among this service's requests of the verb.
    pub ordinal: u64,
    /// When the request was due: the schedule slot in an open loop, the
    /// send in a closed one.
    pub due_ns: u64,
    /// Write started.
    pub send_ns: u64,
    /// `write_all` returned.
    pub written_ns: u64,
    /// Reply frame complete (before it was decoded).
    pub recv_ns: u64,
    /// A reply of the right kind with no error.
    pub ok: bool,
    /// Batches the reply reflects (`IngestAck`, `Sample`, `Epoch`), else 0.
    pub batches: u64,
    /// Request frame bytes.
    pub req_bytes: u64,
    /// Reply frame bytes.
    pub reply_bytes: u64,
}

/// One framed-TCP connection.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
        })
    }

    /// Send one framed request.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Read one reply: the reply, when its frame was complete, and its
    /// framed size.
    pub fn recv(&mut self) -> io::Result<(Reply<Item>, Instant, u64)> {
        loop {
            let frame = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(payload) = frame {
                let at = Instant::now();
                let bytes = payload.len() as u64 + 4;
                let reply = Reply::decode(payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                return Ok((reply, at, bytes));
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.push(&self.buf[..n]);
        }
    }

    /// Send, receive and stamp one request.
    fn call(&mut self, clock: &Clock, verb: Verb, ordinal: u64, due_ns: u64, frame: &[u8]) -> Call {
        let send = Instant::now();
        let result = self
            .send(frame)
            .map(|()| Instant::now())
            .and_then(|written| {
                let (reply, at, bytes) = self.recv()?;
                Ok((written, reply, at, bytes))
            });
        let mut rec = Rec {
            verb,
            ordinal,
            due_ns,
            send_ns: clock.ns(send),
            written_ns: 0,
            recv_ns: 0,
            ok: false,
            batches: 0,
            req_bytes: frame.len() as u64,
            reply_bytes: 0,
        };
        match result {
            Ok((written, reply, at, bytes)) => {
                rec.written_ns = clock.ns(written);
                rec.recv_ns = clock.ns(at);
                rec.reply_bytes = bytes;
                Call::Reply(rec, reply)
            }
            Err(e) => {
                rec.recv_ns = clock.ns(Instant::now());
                Call::Broken(rec, e)
            }
        }
    }
}

enum Call {
    Reply(Rec, Reply<Item>),
    Broken(Rec, io::Error),
}

/// The run's time base.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Instant that ns offsets count from.
    pub base: Instant,
}

impl Clock {
    /// ns since the base.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// ns since the base, now.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Sleep until `due_ns`.
    pub fn sleep_until(&self, due_ns: u64) {
        let now = self.now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

/// What a client thread hands back.
pub struct ClientOut {
    /// Every request it made.
    pub recs: Vec<Rec>,
    /// Its correctness findings.
    pub checker: Checker,
    /// The connection, unless it broke.
    pub conn: Option<Conn>,
    /// Next ingest ordinal (producer only).
    pub next_ordinal: u64,
    /// Why the connection broke, if it did.
    pub broken: Option<String>,
}

/// One connection's read verbs: pre-encoded frames, per-verb ordinals
/// and the newest epoch its replies showed.
struct Reads {
    get_sample: Vec<u8>,
    predicts: Vec<Vec<u8>>,
    predicts_sent: u64,
    samples_sent: u64,
    subscribes_sent: u64,
    last_epoch: u64,
}

impl Reads {
    fn new() -> Self {
        Self {
            get_sample: encode_frame(&Request::<Item>::GetSample.encode()),
            predicts: PREDICT_X
                .iter()
                .map(|&x| encode_frame(&Request::<Item>::Predict(x).encode()))
                .collect(),
            predicts_sent: 0,
            samples_sent: 0,
            subscribes_sent: 0,
            last_epoch: 0,
        }
    }
}

impl ClientOut {
    fn new(first: u64) -> Self {
        Self {
            // Reserved up front: growing the log mid-run would copy it and
            // leave the old buffer in the peak resident set.
            recs: Vec::with_capacity(1 << 21),
            checker: Checker::new(),
            conn: None,
            next_ordinal: first,
            broken: None,
        }
    }

    /// Record a request that got a reply; false if the connection broke.
    fn settle(&mut self, call: Call) -> Option<(Rec, Reply<Item>)> {
        match call {
            Call::Reply(rec, reply) => Some((rec, reply)),
            Call::Broken(rec, e) => {
                self.recs.push(rec);
                self.broken = Some(format!("{:?} #{}: {e}", rec.verb, rec.ordinal));
                None
            }
        }
    }

    /// Send one read verb and check its reply. Error and wrong-kind
    /// replies are failed requests (`ok` stays false), not violations.
    fn read(
        &mut self,
        conn: &mut Conn,
        clock: &Clock,
        r: &mut Reads,
        verb: Verb,
        due_ns: u64,
    ) -> bool {
        // A subscription waits for the epoch after the newest one seen.
        let wanted = r.last_epoch + 1;
        let subscribe;
        let (ordinal, frame, x): (u64, &[u8], f64) = match verb {
            Verb::Predict => {
                r.predicts_sent += 1;
                let i = (r.predicts_sent - 1) as usize % PREDICT_X.len();
                (r.predicts_sent, &r.predicts[i], PREDICT_X[i])
            }
            Verb::GetSample => {
                r.samples_sent += 1;
                (r.samples_sent, &r.get_sample, 0.0)
            }
            Verb::Subscribe => {
                r.subscribes_sent += 1;
                let req = Request::<Item>::SubscribeEpoch {
                    epoch: wanted,
                    timeout_ms: SUBSCRIBE_TIMEOUT_MS,
                };
                subscribe = encode_frame(&req.encode());
                (r.subscribes_sent, &subscribe, 0.0)
            }
            Verb::Ingest => unreachable!("ingest is not a read verb"),
        };
        let Some((mut rec, reply)) = self.settle(conn.call(clock, verb, ordinal, due_ns, frame))
        else {
            return false;
        };
        match (verb, reply) {
            (Verb::Predict, Reply::Prediction(y)) => {
                self.checker.prediction(x, y);
                rec.ok = true;
            }
            (
                Verb::GetSample,
                Reply::Sample {
                    epoch,
                    batches,
                    items,
                },
            ) => {
                self.checker.sample(epoch, batches, items.len(), CAPACITY);
                r.last_epoch = r.last_epoch.max(epoch);
                rec.ok = true;
                rec.batches = batches;
            }
            (
                Verb::Subscribe,
                Reply::Epoch {
                    outcome,
                    epoch,
                    batches,
                },
            ) => {
                self.checker.epoch_reply(wanted, outcome, epoch, batches);
                r.last_epoch = r.last_epoch.max(epoch);
                rec.ok = true;
                rec.batches = batches;
            }
            _ => {}
        }
        self.recs.push(rec);
        true
    }
}

/// Due times of one client's requests. Open-loop arrivals are a seeded
/// Poisson process, so that over a run they take every phase relative to
/// the other connection and to the serve loop's polling.
struct Schedule {
    pace: Pace,
    next_ns: u64,
    rng: Xoshiro256PlusPlus,
}

impl Schedule {
    fn new(pace: Pace, clock: &Clock, seed: u64) -> Self {
        Self {
            pace,
            next_ns: clock.now_ns(),
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }

    /// When the next request is due; sleeps until then.
    fn wait_next(&mut self, clock: &Clock) -> u64 {
        match self.pace {
            Pace::Closed => clock.now_ns(),
            Pace::Open { per_s } => {
                let due_ns = self.next_ns;
                let u: f64 = self.rng.gen();
                self.next_ns += (-(1.0 - u).ln() / per_s * 1e9) as u64;
                clock.sleep_until(due_ns);
                due_ns
            }
        }
    }
}

/// Send `INGEST` frames from the pool until `stop`, starting at batch
/// ordinal `first`, paced as `spec.producer` says.
pub fn producer(
    mut conn: Conn,
    pool: &Pool,
    spec: &Spec,
    first: u64,
    seed: u64,
    clock: Clock,
    stop: &AtomicBool,
) -> ClientOut {
    let mut out = ClientOut::new(first);
    let mut schedule = Schedule::new(spec.producer, &clock, seed);
    while !stop.load(Ordering::Relaxed) {
        let due_ns = schedule.wait_next(&clock);
        let ordinal = out.next_ordinal;
        let call = conn.call(&clock, Verb::Ingest, ordinal, due_ns, pool.frame(ordinal));
        let Some((mut rec, reply)) = out.settle(call) else {
            return out;
        };
        // Anything but an ack is a failed request; the server did not
        // count the batch.
        if let Reply::IngestAck {
            batches,
            published_epoch,
        } = reply
        {
            out.checker.ingest_ack(ordinal, batches, published_epoch);
            rec.ok = true;
            rec.batches = batches;
            out.next_ordinal += 1;
        }
        out.recs.push(rec);
    }
    out.conn = Some(conn);
    out
}

/// Run the reader until `stop`.
pub fn reader(
    mut conn: Conn,
    mode: ReaderMode,
    seed: u64,
    clock: Clock,
    stop: &AtomicBool,
) -> ClientOut {
    let mut out = ClientOut::new(0);
    match mode {
        ReaderMode::Idle => {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        ReaderMode::Mixed { per_s } => {
            let mut r = Reads::new();
            let mut schedule = Schedule::new(Pace::Open { per_s }, &clock, seed);
            let mut slot = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let due_ns = schedule.wait_next(&clock);
                // Nine PREDICTs, then one GET_SAMPLE.
                let verb = if slot % 10 == 9 {
                    Verb::GetSample
                } else {
                    Verb::Predict
                };
                slot += 1;
                if !out.read(&mut conn, &clock, &mut r, verb, due_ns) {
                    return out;
                }
            }
        }
        ReaderMode::Follow => {
            let mut r = Reads::new();
            while !stop.load(Ordering::Relaxed) {
                if !out.read(&mut conn, &clock, &mut r, Verb::Subscribe, clock.now_ns()) {
                    return out;
                }
            }
        }
    }
    out.conn = Some(conn);
    out
}

/// `PREDICT x` on an idle connection, for the final slope check.
pub fn predict(conn: &mut Conn, x: f64) -> io::Result<f64> {
    conn.send(&encode_frame(&Request::<Item>::Predict(x).encode()))?;
    match conn.recv()?.0 {
        Reply::Prediction(y) => Ok(y),
        other => Err(io::Error::other(format!("predict({x}): {other:?}"))),
    }
}

/// `INGEST` of batch `ordinal` on an idle connection; returns the ack's
/// `(batches, published_epoch)`.
pub fn ingest(conn: &mut Conn, pool: &Pool, ordinal: u64) -> io::Result<(u64, u64)> {
    conn.send(pool.frame(ordinal))?;
    match conn.recv()?.0 {
        Reply::IngestAck {
            batches,
            published_epoch,
        } => Ok((batches, published_epoch)),
        other => Err(io::Error::other(format!("ingest #{ordinal}: {other:?}"))),
    }
}
