//! The serve loop: accept connections, decode request frames, dispatch
//! into a [`WireService`], and write back framed replies.
//!
//! The server uses blocking std I/O with one thread per connection. The
//! `tbs-server` thread blocks in `accept` and hands each connection to a
//! thread of its own, `tbs-server-c<N>` (N is the 1-based accept
//! ordinal). That thread blocks in `read`, so the kernel wakes it as soon
//! as request bytes arrive. At most 64 connections are served at once;
//! past that, the acceptor writes one `Unavailable` error frame and
//! closes the socket.
//!
//! Verbs run on the connection's own thread under one service lock.
//! `PING` is the exception: it is answered without the lock, so a
//! liveness probe never waits behind a `RETRAIN` or `CHECKPOINT_PUSH`
//! running on another connection. `SUBSCRIBE_EPOCH` polls
//! [`WireService::poll_epoch`] with a waker that unparks the connection
//! thread, which then parks until the publish or the deadline without
//! holding the lock.
//!
//! Connections are fully pipelined: every complete request frame in a
//! read burst is dispatched and the replies are coalesced into one
//! write, so a client that sends N requests back-to-back pays one
//! syscall round-trip, not N.
//!
//! Shutdown comes from [`ServerHandle`] or the `SHUTDOWN` verb. It wakes
//! the acceptor by connecting to the listening address; the acceptor
//! then shuts down every connection's socket, unparks its thread and
//! joins it. An idle connection, a parked subscription and a half-open
//! socket all end promptly.
//!
//! Fault injection reuses the engine's [`FaultPlan`]: before each reply
//! frame is appended, the plan is consulted with this connection's
//! accept ordinal and the 1-based reply frame number. `DropConnection`
//! flushes the replies already batched, shuts the socket, and ends the
//! connection; `HalfOpen` flushes and then parks the connection thread
//! until shutdown — the socket stays open but never speaks again,
//! exactly the half-open peer a client's read timeout must survive.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tbs_core::checkpoint::Wire;
use tbs_distributed::{FaultPlan, WireAction};

use crate::proto::{
    encode_frame, EpochOutcome, ErrorCode, FrameDecoder, ProtoError, Reply, Request,
};
use crate::service::WireService;

/// Most connections served at once; each one costs a thread.
const MAX_CONNECTIONS: usize = 64;
/// Read buffer per connection.
const READ_BUF: usize = 64 * 1024;
/// Bound on the connect that wakes the acceptor at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running server; dropping it requests shutdown and joins the serve
/// thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<Stop>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop (idempotent, non-blocking): the acceptor
    /// wakes at once and closes every connection.
    pub fn request_shutdown(&self) {
        self.stop.request();
    }

    /// Request shutdown and wait for the serve thread to exit.
    pub fn join(mut self) -> io::Result<()> {
        self.request_shutdown();
        self.join_inner()
    }

    /// Wait for the serve loop to exit on its own (a client `SHUTDOWN`
    /// verb) without requesting shutdown first.
    pub fn wait(mut self) -> io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("serve thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve `service` on a dedicated thread.
///
/// `fault_plan` (usually `None`) injects wire faults at exact reply
/// frame boundaries — see the module docs.
pub fn serve<T, S>(
    addr: SocketAddr,
    service: S,
    fault_plan: Option<Arc<FaultPlan>>,
) -> io::Result<ServerHandle>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let listener = TcpListener::bind(addr)?;
    serve_on(listener, service, fault_plan)
}

/// Serve on an already-bound listener (lets tests bind port 0 first).
pub fn serve_on<T, S>(
    listener: TcpListener,
    service: S,
    fault_plan: Option<Arc<FaultPlan>>,
) -> io::Result<ServerHandle>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let addr = listener.local_addr()?;
    let stop = Arc::new(Stop::new(addr));
    let shared = Arc::new(Shared {
        service: Mutex::new(service),
        fault_plan,
        stop: Arc::clone(&stop),
    });

    let thread = thread::Builder::new()
        .name("tbs-server".into())
        .spawn(move || accept_loop::<T, S>(listener, shared))?;

    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Shutdown state shared by the handle, the acceptor and every
/// connection thread.
struct Stop {
    requested: AtomicBool,
    /// Where a connect reaches the acceptor's `accept`.
    wake_addr: SocketAddr,
}

impl Stop {
    fn new(addr: SocketAddr) -> Self {
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Self {
            requested: AtomicBool::new(false),
            wake_addr,
        }
    }

    /// Set the flag and wake the acceptor out of `accept`; a refused
    /// connect means the acceptor is already gone.
    fn request(&self) {
        if !self.requested.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }
}

/// What the acceptor hands every connection thread.
struct Shared<S> {
    service: Mutex<S>,
    fault_plan: Option<Arc<FaultPlan>>,
    stop: Arc<Stop>,
}

/// A live connection as the acceptor tracks it.
struct Conn {
    /// A second handle on the socket, to shut it down from outside.
    socket: TcpStream,
    thread: JoinHandle<()>,
}

fn accept_loop<T, S>(listener: TcpListener, shared: Arc<Shared<S>>) -> io::Result<()>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let mut conns: Vec<Conn> = Vec::new();
    // Accept ordinals are 1-based so fault plans can say "connection 1".
    let mut next_conn: u64 = 0;
    let result = loop {
        let accepted = listener.accept();
        if shared.stop.requested() {
            break Ok(());
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            // Transient accept errors (peer reset mid-handshake) should
            // not kill the server.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(e) => break Err(e),
        };
        // Dropping the handle of a finished thread releases it.
        conns.retain(|c| !c.thread.is_finished());
        if conns.len() >= MAX_CONNECTIONS {
            refuse::<T>(stream, "connection limit reached");
            continue;
        }
        next_conn += 1;
        match spawn_connection::<T, S>(stream, &shared, next_conn) {
            Ok(conn) => conns.push(conn),
            Err(stream) => refuse::<T>(stream, "cannot start a connection thread"),
        }
    };

    // Connection threads check the flag whenever they wake, so a fatal
    // accept error ends them too.
    shared.stop.requested.store(true, Ordering::Release);
    for conn in &conns {
        let _ = conn.socket.shutdown(Shutdown::Both);
        conn.thread.thread().unpark();
    }
    for conn in conns {
        let _ = conn.thread.join();
    }
    result
}

/// Start `tbs-server-c<conn>`; on failure, give the socket back so the
/// caller can refuse it.
fn spawn_connection<T, S>(
    stream: TcpStream,
    shared: &Arc<Shared<S>>,
    conn: u64,
) -> Result<Conn, TcpStream>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let socket = match stream.try_clone() {
        Ok(socket) => socket,
        Err(_) => return Err(stream),
    };
    let shared = Arc::clone(shared);
    match thread::Builder::new()
        .name(format!("tbs-server-c{conn}"))
        .spawn(move || serve_connection::<T, S>(stream, &shared, conn))
    {
        Ok(thread) => Ok(Conn { socket, thread }),
        Err(_) => Err(socket),
    }
}

/// Answer a connection the server will not serve with one
/// `Unavailable` frame, then close it.
fn refuse<T: Wire>(mut stream: TcpStream, why: &str) {
    let reply: Reply<T> = Reply::Error {
        code: ErrorCode::Unavailable,
        detail: why.into(),
    };
    let _ = stream.write_all(&encode_frame(&reply.encode()));
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection<T, S>(mut stream: TcpStream, shared: &Shared<S>, conn: u64)
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    // Replies are whole coalesced writes; Nagle would only delay them.
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut read_buf = vec![0u8; READ_BUF];
    let mut out: Vec<u8> = Vec::new();
    // 1-based ordinal of the next reply frame, the unit fault plans
    // target.
    let mut reply_frame: u64 = 0;

    loop {
        let n = match stream.read(&mut read_buf) {
            Ok(n) if n > 0 && !shared.stop.requested() => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // EOF, a broken socket or shutdown: done.
            _ => return,
        };
        decoder.push(&read_buf[..n]);

        out.clear();
        let mut stop_after_flush = false;
        loop {
            let payload = match decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    // Unrecoverable framing (oversized prefix): the
                    // stream offset is lost, drop the connection.
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            };
            let reply: Reply<T> = match Request::<T>::decode(payload) {
                // Never behind the service lock.
                Ok(Request::Ping) => Reply::Pong,
                Ok(Request::Shutdown) => {
                    stop_after_flush = true;
                    Reply::ShuttingDown
                }
                Ok(Request::SubscribeEpoch { epoch, timeout_ms }) => {
                    // Long poll: flush what we already owe, then wait.
                    if !out.is_empty() {
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                        out.clear();
                    }
                    match wait_for_epoch(shared, epoch, timeout_ms) {
                        Some(reply) => reply,
                        None => return,
                    }
                }
                Ok(req) => dispatch(&shared.service, req),
                Err(e) => proto_error_reply(&e),
            };

            reply_frame += 1;
            let action = shared
                .fault_plan
                .as_ref()
                .map(|p| p.wire_action(conn, reply_frame))
                .unwrap_or(WireAction::Deliver);
            match action {
                WireAction::Deliver => out.extend_from_slice(&encode_frame(&reply.encode())),
                WireAction::DropConnection => {
                    // Deliver everything before the fault boundary,
                    // then cut the socket under the client.
                    if !out.is_empty() {
                        let _ = stream.write_all(&out);
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                WireAction::HalfOpen => {
                    if !out.is_empty() {
                        let _ = stream.write_all(&out);
                    }
                    // Keep the socket open but never answer again.
                    while !shared.stop.requested() {
                        thread::park();
                    }
                    return;
                }
            }
        }

        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        if stop_after_flush {
            shared.stop.request();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Handle every verb that resolves immediately under one service lock.
fn dispatch<T, S>(service: &Mutex<S>, req: Request<T>) -> Reply<T>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    let mut svc = service.lock();
    let result = match req {
        Request::GetSample => svc.latest().map(|(epoch, batches, items)| Reply::Sample {
            epoch,
            batches,
            items,
        }),
        Request::Ingest(items) => {
            svc.ingest(items)
                .map(|(batches, published_epoch)| Reply::IngestAck {
                    batches,
                    published_epoch,
                })
        }
        Request::CheckpointPull => svc.checkpoint().map(Reply::Checkpoint),
        Request::CheckpointPush(blob) => svc.restore(blob).map(|()| Reply::Pushed),
        Request::Predict(x) => svc.predict(x).map(Reply::Prediction),
        Request::Retrain => svc.retrain().map(Reply::Retrained),
        Request::Ping | Request::SubscribeEpoch { .. } | Request::Shutdown => {
            unreachable!("handled in serve_connection")
        }
    };
    result.unwrap_or_else(|e| {
        let (code, detail) = e.to_wire();
        Reply::Error { code, detail }
    })
}

fn proto_error_reply<T: Wire>(e: &ProtoError) -> Reply<T> {
    Reply::Error {
        code: ErrorCode::Corrupt,
        detail: format!("bad request frame: {e}"),
    }
}

/// Wakes a parked connection thread.
struct Unparker(Thread);

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Long-poll for `epoch` until it is published, the publisher is gone
/// or the deadline (`timeout_ms > 0`) passes; `None` if the server
/// shuts down first. The service lock is never held while parked.
fn wait_for_epoch<T, S>(shared: &Shared<S>, epoch: u64, timeout_ms: u64) -> Option<Reply<T>>
where
    T: Wire + Clone + Send + Sync + 'static,
    S: WireService<T>,
{
    // A deadline past the end of `Instant` is no deadline.
    let deadline = (timeout_ms > 0)
        .then(|| Instant::now().checked_add(Duration::from_millis(timeout_ms)))
        .flatten();
    let waker = Waker::from(Arc::new(Unparker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        {
            let mut svc = shared.service.lock();
            if let Poll::Ready((outcome, epoch, batches)) = svc.poll_epoch(epoch, &mut cx) {
                return Some(Reply::Epoch {
                    outcome,
                    epoch,
                    batches,
                });
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Some(Reply::Epoch {
                    outcome: EpochOutcome::TimedOut,
                    epoch: svc.published_epoch(),
                    batches: 0,
                });
            }
        }
        if shared.stop.requested() {
            return None;
        }
        match deadline {
            Some(d) => thread::park_timeout(d.saturating_duration_since(Instant::now())),
            None => thread::park(),
        }
    }
}
