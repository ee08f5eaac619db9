//! End-to-end wire smoke: a real server on loopback, a real client
//! through every message type, injected wire faults, clean shutdown.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tbs_distributed::snapshot::EpochCell;
use tbs_distributed::FaultPlan;
use tbs_server::client::{BlockingClient, ClientError};
use tbs_server::proto::{encode_frame, EpochOutcome, ErrorCode, FrameDecoder, Reply, Request};
use tbs_server::server::{serve_on, ServerHandle};
use tbs_server::service::{
    CellService, LineFit, NoModel, SampleView, SamplerService, ServiceError, WireService,
};
use temporal_sampling::api::{RetrainPolicy, SamplerConfig};
use temporal_sampling::core::frozen::FrozenSample;

fn start_line_server(fault_plan: Option<Arc<FaultPlan>>) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let config = SamplerConfig::rtbs(0.05, 500).seed(7);
    let svc: SamplerService<[f64; 2], LineFit> =
        SamplerService::new(config, LineFit::new(), RetrainPolicy::EveryBatch).unwrap();
    serve_on(listener, svc, fault_plan).unwrap()
}

fn line_batch(range: std::ops::Range<i32>) -> Vec<[f64; 2]> {
    range.map(|i| [i as f64, 2.0 * i as f64 + 1.0]).collect()
}

#[test]
fn every_verb_roundtrips_on_loopback() {
    let server = start_line_server(None);
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();

    // PING before anything exists.
    client.ping().unwrap();

    // GET_SAMPLE before a publish is a typed Unavailable, not a hang.
    match client.get_sample() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // PREDICT before any fit is likewise Unavailable.
    match client.predict(1.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // INGEST publishes an epoch per batch.
    let (batches, epoch1) = client.ingest(line_batch(0..400)).unwrap();
    assert_eq!(batches, 1);
    assert!(epoch1 >= 1);
    let (batches, epoch2) = client.ingest(line_batch(400..800)).unwrap();
    assert_eq!(batches, 2);
    assert!(epoch2 > epoch1);

    // GET_SAMPLE returns the latest publication.
    let (epoch, got_batches, items) = client.get_sample().unwrap();
    assert_eq!(epoch, epoch2);
    assert_eq!(got_batches, 2);
    assert!(!items.is_empty() && items.len() <= 500);
    assert!(items
        .iter()
        .all(|[x, y]| (y - (2.0 * x + 1.0)).abs() < 1e-9));

    // SUBSCRIBE_EPOCH for an already-published epoch resolves at once.
    let (outcome, sub_epoch, sub_batches) = client
        .subscribe_epoch(epoch1, Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert!(sub_epoch >= epoch1);
    assert!(sub_batches >= 1);

    // RETRAIN then PREDICT: the model saw y = 2x + 1. The retrain
    // freezes a fresh publication, so its epoch is at least epoch2.
    let trained_on = client.retrain().unwrap();
    assert!(trained_on.unwrap() >= epoch2, "trained on {trained_on:?}");
    let y = client.predict(10.0).unwrap();
    assert!((y - 21.0).abs() < 1e-6, "prediction {y}");

    // CHECKPOINT_PULL / PUSH round-trip, then state continues.
    let blob = client.checkpoint_pull().unwrap();
    assert!(!blob.is_empty());
    client.checkpoint_push(blob).unwrap();
    let (batches, _) = client.ingest(line_batch(800..1200)).unwrap();
    assert_eq!(batches, 3, "restored engine kept its batch count");

    // A garbage CHECKPOINT_PUSH is a typed Corrupt error...
    match client.checkpoint_push(Bytes::from_static(b"junk")) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Corrupt),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // ...and the live engine is untouched.
    let (_, got_batches, _) = client.get_sample().unwrap();
    assert_eq!(got_batches, 3);

    // Pipelined GET_SAMPLE: many requests, one write, all answered.
    assert_eq!(client.get_sample_pipelined(64).unwrap(), 64);

    // SHUTDOWN stops the serve loop.
    client.shutdown_server().unwrap();
    server.wait().unwrap();
}

#[test]
fn subscribe_epoch_long_polls_until_another_connection_publishes() {
    let server = start_line_server(None);
    let addr = server.addr();

    let waiter = std::thread::spawn(move || {
        let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
        client.subscribe_epoch(1, Some(Duration::from_secs(10)))
    });
    // A timeout too large for any deadline waits like `timeout_ms = 0`.
    let mut unbounded = TcpStream::connect(addr).unwrap();
    let subscribe = Request::<[f64; 2]>::SubscribeEpoch {
        epoch: 1,
        timeout_ms: u64::MAX,
    };
    unbounded
        .write_all(&encode_frame(&subscribe.encode()))
        .unwrap();

    // Give the subscribers time to park, then publish over a third
    // connection.
    std::thread::sleep(Duration::from_millis(100));
    let mut publisher: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
    let (_, epoch) = publisher.ingest(line_batch(0..100)).unwrap();

    let (outcome, got_epoch, _) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert_eq!(got_epoch, epoch);
    drop(server);
    match read_replies(unbounded).as_slice() {
        [Reply::Epoch {
            outcome: EpochOutcome::Published,
            epoch: got_epoch,
            ..
        }] => assert_eq!(*got_epoch, epoch),
        other => panic!("expected one Published epoch reply, got {other:?}"),
    }
}

#[test]
fn subscribe_epoch_times_out_when_nothing_publishes() {
    let server = start_line_server(None);
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    let start = std::time::Instant::now();
    let (outcome, epoch, batches) = client
        .subscribe_epoch(5, Some(Duration::from_millis(150)))
        .unwrap();
    assert_eq!(outcome, EpochOutcome::TimedOut);
    assert_eq!((epoch, batches), (0, 0));
    assert!(start.elapsed() >= Duration::from_millis(140));
    // The connection is still usable after a timed-out poll.
    client.ping().unwrap();
}

#[test]
fn injected_connection_drop_severs_at_the_exact_frame() {
    // Fault: connection 1 loses its 2nd reply frame.
    let plan = Arc::new(FaultPlan::new().drop_connection(1, 2));
    let server = start_line_server(Some(Arc::clone(&plan)));
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();

    // Frame 1 is delivered intact.
    client.ping().unwrap();

    // Frame 2 never arrives: the socket dies under the client.
    match client.ping() {
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            ),
            "unexpected kind {:?}",
            e.kind()
        ),
        other => panic!("expected dropped connection, got {other:?}"),
    }
    assert_eq!(plan.fired_count(), 1, "fault fired exactly once");

    // The server itself survives: a fresh connection works.
    let mut client2: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    client2.ping().unwrap();
}

#[test]
fn half_open_socket_surfaces_as_a_client_read_timeout() {
    let plan = Arc::new(FaultPlan::new().half_open_socket(1, 1));
    let server = start_line_server(Some(plan));
    let mut client: BlockingClient<[f64; 2]> =
        BlockingClient::connect_timeout(server.addr(), Duration::from_millis(300)).unwrap();

    // The socket stays open but the reply never comes; the client's
    // read timeout must fire rather than hanging forever.
    match client.ping() {
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected kind {:?}",
            e.kind()
        ),
        other => panic!("expected read timeout, got {other:?}"),
    }

    // Other connections are unaffected.
    let mut client2: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    client2.ping().unwrap();
}

#[test]
fn cell_service_replica_serves_a_publisher_owned_elsewhere() {
    let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = serve_on(listener, CellService::new(Arc::clone(&cell)), None).unwrap();
    let mut client: BlockingClient<u64> = BlockingClient::connect(server.addr()).unwrap();

    // Mutating verbs are rejected on a replica.
    match client.ingest(vec![1, 2, 3]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // Publish in-process; the wire sees it.
    cell.publish(Arc::new(FrozenSample::new(1, 4, None, 3.0, vec![7, 8, 9])));
    let (epoch, batches, items) = client.get_sample().unwrap();
    assert_eq!((epoch, batches), (1, 4));
    assert_eq!(items, vec![7, 8, 9]);

    // A subscriber parked on the wire wakes when the in-process
    // publisher advances the cell.
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(2, Some(Duration::from_secs(10)))
    });
    std::thread::sleep(Duration::from_millis(100));
    cell.publish(Arc::new(FrozenSample::new(2, 8, None, 3.0, vec![10])));
    let (outcome, epoch, _) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert_eq!(epoch, 2);

    // Publisher death resolves parked subscribers with PublisherGone.
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(99, Some(Duration::from_secs(10)))
    });
    std::thread::sleep(Duration::from_millis(100));
    cell.close();
    let (outcome, ..) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::PublisherGone);
}

#[test]
fn second_sampler_restores_from_a_pulled_checkpoint() {
    // Pull a checkpoint over the wire from one server, push it into a
    // fresh one: the replica continues the primary's stream position.
    let primary = start_line_server(None);
    let mut c1: BlockingClient<[f64; 2]> = BlockingClient::connect(primary.addr()).unwrap();
    c1.ingest(line_batch(0..500)).unwrap();
    c1.ingest(line_batch(500..900)).unwrap();
    let blob = c1.checkpoint_pull().unwrap();

    let replica = start_line_server(None);
    let mut c2: BlockingClient<[f64; 2]> = BlockingClient::connect(replica.addr()).unwrap();
    c2.checkpoint_push(blob).unwrap();
    let (batches, _) = c2.ingest(line_batch(900..1000)).unwrap();
    assert_eq!(batches, 3, "replica continued the primary's batch count");

    // A NoModel service reports Unavailable for PREDICT, proving the
    // model verbs are service-level, not protocol-level.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let svc: SamplerService<u64, NoModel> = SamplerService::new(
        SamplerConfig::rtbs(0.05, 100).seed(3),
        NoModel,
        RetrainPolicy::EveryBatch,
    )
    .unwrap();
    let plain = serve_on(listener, svc, None).unwrap();
    let mut c3: BlockingClient<u64> = BlockingClient::connect(plain.addr()).unwrap();
    match c3.predict(0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

/// A service whose `RETRAIN` holds the service lock until the test
/// releases it; every other verb is idle.
struct GatedRetrain {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl WireService<u64> for GatedRetrain {
    fn latest(&mut self) -> Result<SampleView<u64>, ServiceError> {
        Err(ServiceError::Unavailable("nothing published"))
    }

    fn poll_epoch(&mut self, _epoch: u64, _cx: &mut Context<'_>) -> Poll<(EpochOutcome, u64, u64)> {
        Poll::Ready((EpochOutcome::PublisherGone, 0, 0))
    }

    fn published_epoch(&self) -> u64 {
        0
    }

    fn ingest(&mut self, _items: Vec<u64>) -> Result<(u64, u64), ServiceError> {
        Err(ServiceError::Unsupported("INGEST"))
    }

    fn checkpoint(&mut self) -> Result<Bytes, ServiceError> {
        Err(ServiceError::Unsupported("CHECKPOINT_PULL"))
    }

    fn restore(&mut self, _blob: Bytes) -> Result<(), ServiceError> {
        Err(ServiceError::Unsupported("CHECKPOINT_PUSH"))
    }

    fn predict(&mut self, _x: f64) -> Result<f64, ServiceError> {
        Err(ServiceError::Unsupported("PREDICT"))
    }

    fn retrain(&mut self) -> Result<Option<u64>, ServiceError> {
        self.entered.send(()).unwrap();
        let _ = self.release.recv();
        Ok(None)
    }
}

#[test]
fn ping_answers_while_another_connection_retrains() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let svc = GatedRetrain {
        entered: entered_tx,
        release: release_rx,
    };
    let server = serve_on(listener, svc, None).unwrap();
    let addr = server.addr();

    let retrainer = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.retrain()
    });
    entered_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("RETRAIN reached the service");

    // RETRAIN now holds the service lock on connection 1.
    let mut pinger: BlockingClient<u64> =
        BlockingClient::connect_timeout(addr, Duration::from_secs(2)).unwrap();
    let start = Instant::now();
    let pong = pinger.ping();
    let waited = start.elapsed();
    release_tx.send(()).unwrap();
    pong.expect("PING answered while RETRAIN runs");
    assert!(waited < Duration::from_secs(1), "PING waited {waited:?}");
    assert_eq!(retrainer.join().unwrap().unwrap(), None);
}

/// Read every frame the server sends until it closes the socket.
fn read_replies(mut stream: TcpStream) -> Vec<Reply<[f64; 2]>> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let mut dec = FrameDecoder::new();
    dec.push(&bytes);
    let mut replies = Vec::new();
    while let Some(frame) = dec.next_frame().unwrap() {
        replies.push(Reply::decode(frame).unwrap());
    }
    assert_eq!(dec.pending(), 0, "a torn frame");
    replies
}

#[test]
fn connections_past_the_cap_get_unavailable_until_one_closes() {
    const CAP: usize = 64;
    let server = start_line_server(None);
    let addr = server.addr();
    let mut open: Vec<BlockingClient<[f64; 2]>> = (0..CAP)
        .map(|_| {
            let mut c = BlockingClient::connect(addr).unwrap();
            c.ping().unwrap();
            c
        })
        .collect();

    // The next connection is answered with one typed error and closed.
    match read_replies(TcpStream::connect(addr).unwrap()).as_slice() {
        [Reply::Error { code, .. }] => assert_eq!(*code, ErrorCode::Unavailable),
        other => panic!("expected one Unavailable frame, got {other:?}"),
    }

    // Once a connection closes, its slot is served again.
    drop(open.pop());
    let start = Instant::now();
    loop {
        let served = BlockingClient::<[f64; 2]>::connect(addr).and_then(|mut c| c.ping());
        match served {
            Ok(()) => break,
            Err(_) if start.elapsed() < Duration::from_secs(1) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("freed slot not served within 1 s: {e:?}"),
        }
    }
    for c in &mut open {
        c.ping().unwrap();
    }
}

#[test]
fn join_returns_promptly_with_idle_parked_and_half_open_connections() {
    // Connection 1's first reply is never written: a half-open socket.
    let plan = Arc::new(FaultPlan::new().half_open_socket(1, 1));
    let server = start_line_server(Some(plan));
    let addr = server.addr();

    let mut half_open: BlockingClient<[f64; 2]> =
        BlockingClient::connect_timeout(addr, Duration::from_millis(200)).unwrap();
    assert!(matches!(half_open.ping(), Err(ClientError::Io(_))));

    let mut idle: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
    idle.ping().unwrap();

    // `timeout_ms = 0`: waits for an epoch nothing will publish.
    let mut parked = TcpStream::connect(addr).unwrap();
    let subscribe = Request::<[f64; 2]>::SubscribeEpoch {
        epoch: 1_000,
        timeout_ms: 0,
    };
    parked
        .write_all(&encode_frame(&subscribe.encode()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Join on a helper thread so a hang fails the test instead of
    // wedging it.
    let (joined_tx, joined_rx) = mpsc::channel();
    std::thread::spawn(move || joined_tx.send(server.join()));
    joined_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("join returned within 2 s")
        .unwrap();

    // Every connection was closed under its client.
    assert!(read_replies(parked).is_empty());
    assert!(idle.ping().is_err());
}
