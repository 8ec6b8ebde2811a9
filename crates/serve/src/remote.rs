//! Cross-process sharding: the [`WorkerTransport`] layer.
//!
//! The [`crate::ServingRuntime`] routes every admitted request to a
//! shard of its target endpoint. Through PR 4 a shard was always an
//! in-process worker queue; this module makes the shard → execution
//! hop **pluggable**, so one endpoint can mix in-process shards with
//! shards served by *other runtimes* — in the same process or across
//! a TCP boundary in another process — behind the same admission
//! path, key-hash routing, version pinning, and
//! [`crate::EndpointStats`] accounting.
//!
//! Three pieces:
//!
//! - [`WorkerTransport`]: the trait a shard's execution backend
//!   implements — take one request, return the response.
//!   Implementations report [`TransportStats`] (forwards, failures,
//!   reconnects, cumulative latency, bytes on the wire, peak
//!   in-flight depth, decode errors), which the runtime surfaces per
//!   shard.
//! - [`RemoteWorker`]: the TCP implementation. It speaks the
//!   [`crate::wire2`] binary protocol — the only protocol on a socket
//!   — and **multiplexes** every in-flight forward onto one
//!   connection: each forward is tagged with a mux request id and
//!   written without waiting, so concurrent forwards overlap on one
//!   socket. No thread of its own reads the socket: a forward reads
//!   it itself while no other forward does, routing every frame to
//!   the forward waiting under its mux id, so a lone caller reads its
//!   own answer. A peer that does not answer the preamble with a
//!   `HelloAck` is a failed forward, not a fallback. Failures get one
//!   transparent retry when they are *connection-level* (the response
//!   can no longer arrive), but **never** after a read timeout — the
//!   node may still be executing the request, and resending would
//!   double-execute it exactly when the node is most loaded — plus a
//!   consecutive-failure circuit breaker that fails fast while a
//!   shard stays dead.
//! - [`RemoteRuntimeNode`]: the host side. Binds a listener and
//!   exposes a whole [`crate::ServingRuntime`] — all of its endpoints
//!   — to parent routers. The hosted runtime's threads, and one more,
//!   take turns holding one `poll(2)` set over nonblocking sockets
//!   (leader/followers; no thread-per-connection): the holder checks
//!   that each connection opens with the wire2 preamble (anything
//!   else is counted in `decode_errors` and closed), reassembles
//!   frames with a bounded read (an oversized or corrupt length prefix
//!   is counted and refused, never trusted), decodes requests in place
//!   and admits them into the runtime itself. A request that may run
//!   at once it runs on its own thread, after handing the poll set
//!   back; the rest are queued for the runtime's threads. Whichever
//!   thread serves a request encodes the response and writes it
//!   straight through to the connection.
//!
//! The **local queue** implementation of the trait is
//! [`InProcessWorker`]: it forwards requests to another runtime in
//! the same process through its client handle — the same code path as
//! [`RemoteWorker`] minus the socket, which makes transport behavior
//! testable without networking and documents that the native
//! in-process shard path is just the degenerate transport whose
//! "wire" is a channel send.
//!
//! Forwarded frames set [`crate::Request::forwarded`], which pins
//! them to the receiving node's *local* shards — a node can itself
//! have remote shards without ever creating a forwarding loop.
//!
//! # Examples
//!
//! Serve an endpoint from a child runtime over TCP:
//!
//! ```
//! use std::sync::Arc;
//! use willump_serve::{
//!     RemoteRuntimeNode, Servable, ServingRuntime, WireRow,
//! };
//! use willump_data::{Table, Value};
//!
//! struct Doubler;
//! impl Servable for Doubler {
//!     fn predict_table(&self, t: &Table) -> Result<Vec<f64>, String> {
//!         let xs = t.column("x").ok_or("missing x")?;
//!         Ok(xs.to_f64_vec().map_err(|e| e.to_string())?
//!             .into_iter().map(|x| 2.0 * x).collect())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Child: a runtime exposed on a TCP port.
//! let mut child = ServingRuntime::builder();
//! child.endpoint("double", Arc::new(Doubler));
//! let node = RemoteRuntimeNode::bind("127.0.0.1:0", child.build()?)?;
//!
//! // Parent: one local shard plus one shard served by the child.
//! let mut parent = ServingRuntime::builder();
//! parent
//!     .endpoint("double", Arc::new(Doubler))
//!     .shard_remote(&node.local_addr().to_string());
//! let runtime = parent.build()?;
//! let client = runtime.client();
//! let rows: Vec<WireRow> = vec![vec![("x".to_string(), Value::Float(3.0))]];
//! assert_eq!(client.predict_endpoint("double", rows)?, vec![6.0]);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use willump::PlanCountersSnapshot;

use crate::protocol::{Request, Response, ERROR_RESPONSE_ID};
use crate::readiness::{self, Interest, PollSet, WakeListener, Waker};
use crate::runtime::{Runnable, RuntimeClient, ServingRuntime, Shared};
use crate::wire2::{
    decode_header, decode_request_payload, decode_response_payload, encode_frame,
    encode_request_payload, encode_response_frame, FrameHeader, FrameType, WIRE2_HEADER_LEN,
    WIRE2_MAGIC, WIRE2_MIN_VERSION, WIRE2_PREAMBLE, WIRE2_VERSION,
};
use crate::ServeError;

/// Where a shard's work is executed: the boundary between the
/// runtime's routing layer and a worker that may live in another
/// process.
///
/// A transport takes one request and returns the response — exactly a
/// client's view of a serving runtime. The runtime measures each
/// forward and folds the latency into the endpoint's per-shard
/// counters; implementations additionally keep their own
/// [`TransportStats`].
pub trait WorkerTransport: Send + Sync {
    /// Forward one [`Request`]; return the [`Response`] plus the
    /// bytes that crossed the wire. [`RemoteWorker`] ships it as a
    /// [`crate::wire2`] binary frame over its multiplexed connection;
    /// [`InProcessWorker`] hands the struct over unserialized.
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] (or
    /// [`ServeError::Disconnected`]) when the backing worker cannot
    /// be reached or its reply cannot be decoded; the runtime then
    /// fails the request over to a surviving shard.
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError>;

    /// Human-readable backend description (`"tcp://127.0.0.1:9001"`,
    /// `"in-process"`), used in stats dumps and error messages.
    fn describe(&self) -> String;

    /// Cumulative transport counters.
    fn stats(&self) -> TransportStats;

    /// Forward a control/probe request. Defaults to
    /// [`forward_request`] (probes then count as ordinary forwards);
    /// implementations whose stats feed latency dashboards should
    /// override this to keep probe round trips out of
    /// [`TransportStats`], as [`RemoteWorker`] does.
    ///
    /// [`forward_request`]: WorkerTransport::forward_request
    ///
    /// # Errors
    /// Same conditions as [`forward_request`].
    fn forward_probe(&self, req: &Request) -> Result<Response, ServeError> {
        self.forward_request(req).map(|reply| reply.response)
    }

    /// Where this transport's circuit breaker stands right now.
    /// Transports without a breaker are always
    /// [`BreakerState::Closed`]; [`RemoteWorker`] overrides this with
    /// its real state so health probers can target open shards.
    fn breaker_state(&self) -> BreakerState {
        BreakerState::Closed
    }

    /// Ask the backing runtime for one endpoint's
    /// [`PlanCountersSnapshot`] via a
    /// [`crate::ControlRequest::Counters`] probe.
    ///
    /// This is how a parent reads plan statistics that accumulated in
    /// another process (see
    /// [`ServingRuntime::refresh_remote_counters`]).
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] when the probe cannot be
    /// delivered or the reply names no such endpoint.
    fn probe_counters(
        &self,
        endpoint: &str,
        version: u32,
    ) -> Result<PlanCountersSnapshot, ServeError> {
        let resp = self.forward_probe(&Request::counters_probe(1))?;
        extract_counters(resp, endpoint, version, &self.describe())
    }
}

/// The result of one [`WorkerTransport::forward_request`] round trip:
/// the decoded response plus how many bytes crossed the transport in
/// each direction (0/0 for in-process transports, whose "wire" is a
/// channel send).
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardReply {
    /// The decoded response.
    pub response: Response,
    /// Bytes written to the transport for this request.
    pub bytes_sent: u64,
    /// Bytes read from the transport for this response.
    pub bytes_received: u64,
}

/// Pull one endpoint's snapshot out of a counters control response.
fn extract_counters(
    resp: Response,
    endpoint: &str,
    version: u32,
    who: &str,
) -> Result<PlanCountersSnapshot, ServeError> {
    if let Some(err) = resp.error {
        return Err(ServeError::Transport(format!(
            "counters probe failed: {err}"
        )));
    }
    resp.counters
        .unwrap_or_default()
        .into_iter()
        .find(|c| c.endpoint == endpoint && c.version == version)
        .map(|c| c.counters)
        .ok_or_else(|| {
            ServeError::Transport(format!(
                "node {who} reports no endpoint `{endpoint}` v{version}"
            ))
        })
}

willump::counter_set! {
    /// Shared atomic counters behind a [`TransportStats`] snapshot.
    #[derive(Debug)]
    struct TransportCounters;

    /// Point-in-time counters of one [`WorkerTransport`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TransportStats {
        /// Frames forwarded successfully.
        sum forwards,
        /// Forwards that ultimately failed (after any reconnect attempt).
        sum failures,
        /// Connections re-established after a drop (the first-ever
        /// connection does not count).
        sum reconnects,
        /// Cumulative round-trip nanoseconds of successful forwards.
        sum total_nanos,
        /// Bytes written to the transport (frame headers included).
        sum bytes_sent,
        /// Bytes read from the transport.
        sum bytes_received,
        /// Peak number of requests simultaneously in flight.
        peak max_in_flight,
        /// Frames rejected as oversized or corrupt (bad magic/version,
        /// unknown frame type, length prefix past the bound, undecodable
        /// payload).
        sum decode_errors,
        /// Health/counters probes attempted (never counted as forwards).
        sum probes_sent,
        /// Probes that completed successfully. A success against an
        /// open-breaker node closes the breaker (re-admission).
        sum probes_ok,
    }
}

impl TransportStats {
    /// Mean round-trip seconds per successful forward (0 before the
    /// first success).
    pub fn mean_latency(&self) -> f64 {
        if self.forwards == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.forwards as f64 / 1e9
        }
    }
}

/// Where a transport's circuit breaker currently stands. Only
/// breaker-carrying transports ([`RemoteWorker`]) ever leave
/// [`Closed`](BreakerState::Closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Forwards flow normally (consecutive failures below threshold).
    Closed,
    /// Enough consecutive failures accumulated: counted forwards fail
    /// fast without touching the wire. Probes still go through.
    Open,
    /// The breaker is letting trial traffic through: either a health
    /// probe is in flight right now, or the cool-down elapsed and the
    /// next forward rides half-open. The first success closes it.
    Probing,
}

impl TransportCounters {
    fn record_success(&self, elapsed: Duration) {
        self.forwards.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Decrements an in-flight gauge when the tracked forward completes
/// (on any exit path).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bump an in-flight gauge, fold the new depth into
/// `max_in_flight`, and return the guard that undoes the bump.
fn enter_in_flight<'a>(gauge: &'a AtomicUsize, counters: &TransportCounters) -> InFlightGuard<'a> {
    let depth = gauge.fetch_add(1, Ordering::Relaxed) + 1;
    counters
        .max_in_flight
        .fetch_max(depth as u64, Ordering::Relaxed);
    InFlightGuard(gauge)
}

// ---- the local-queue transport -------------------------------------

/// The local implementation of [`WorkerTransport`]: forwards requests
/// to another [`ServingRuntime`] *in the same process* through a
/// regular client handle (whose sends land on the target runtime's
/// worker queues).
///
/// Functionally identical to [`RemoteWorker`] minus the socket:
/// useful for testing transport routing without networking, and for
/// composing runtimes inside one process (e.g. giving a tenant's
/// endpoint its own isolated worker pool).
pub struct InProcessWorker {
    client: RuntimeClient,
    in_flight: AtomicUsize,
    counters: TransportCounters,
}

impl std::fmt::Debug for InProcessWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessWorker")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl InProcessWorker {
    /// A transport forwarding to `runtime`'s worker queues.
    #[must_use]
    pub fn new(runtime: &ServingRuntime) -> InProcessWorker {
        InProcessWorker {
            client: runtime.client(),
            in_flight: AtomicUsize::new(0),
            counters: TransportCounters::default(),
        }
    }
}

impl WorkerTransport for InProcessWorker {
    /// The request reaches the target runtime's admission path as a
    /// struct (nothing is serialized, so both byte counts are 0).
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        let start = Instant::now();
        let _guard = enter_in_flight(&self.in_flight, &self.counters);
        match self.client.call(req.clone()) {
            Ok(response) => {
                self.counters.record_success(start.elapsed());
                Ok(ForwardReply {
                    response,
                    bytes_sent: 0,
                    bytes_received: 0,
                })
            }
            Err(e) => {
                self.counters.failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn describe(&self) -> String {
        // The runtime id distinguishes two in-process backends, so
        // per-backend deduplication (counter merging) stays correct.
        format!("in-process:{:x}", self.client.runtime_id())
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }
}

// ---- the TCP transport ---------------------------------------------

/// One message to a forward waiting for its answer.
enum MuxEvent {
    /// A response payload arrived for this waiter's mux id.
    Frame(Vec<u8>),
    /// The connection died before the response arrived; the response
    /// can no longer arrive here, so a fresh-connection retry is safe.
    Dropped,
    /// The forward that was reading the socket ended its turn: take
    /// the turn over.
    Turn,
}

/// Why a turn at the socket produced no frame.
enum ReadStop {
    /// The reading forward's deadline passed.
    TimedOut,
    /// End of stream or an I/O error: the connection is gone.
    Closed,
    /// The buffered bytes are not a frame, or not one a node sends: the
    /// stream cannot be resynchronized.
    Corrupt,
}

/// The read half of a mux connection. The forward holding it reads
/// the socket for every forward in flight. The bytes of a frame that
/// has not arrived whole stay in `buf` from one turn to the next, so a
/// turn that ends at its deadline never tears the stream.
struct MuxReader {
    stream: TcpStream,
    buf: ReadBuf,
}

impl MuxReader {
    /// The next whole frame: one already buffered, or one read from
    /// the socket by `deadline`.
    fn next_frame(&mut self, deadline: Instant) -> Result<(FrameHeader, Vec<u8>), ReadStop> {
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(frame);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ReadStop::TimedOut);
            }
            // The socket blocks; its read timeout is the turn's deadline.
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|_| ReadStop::Closed)?;
            self.buf.compact();
            match (&self.stream).read(self.buf.spare()) {
                Ok(0) => return Err(ReadStop::Closed),
                Ok(n) => self.buf.filled(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return Err(ReadStop::Closed),
            }
        }
    }

    /// Take a whole frame off the front of the buffer, if one is there.
    fn buffered(&mut self) -> Result<Option<(FrameHeader, Vec<u8>)>, ReadStop> {
        let unread = self.buf.unread();
        let Some(header) = unread.first_chunk::<WIRE2_HEADER_LEN>() else {
            return Ok(None);
        };
        let hdr = decode_header(header).map_err(|_| ReadStop::Corrupt)?;
        let total = WIRE2_HEADER_LEN + hdr.payload_len as usize;
        if unread.len() < total {
            return Ok(None);
        }
        let payload = unread[WIRE2_HEADER_LEN..total].to_vec();
        self.buf.consume(total);
        Ok(Some((hdr, payload)))
    }
}

/// One multiplexed v2 connection: many in-flight forwards share the
/// socket, each tagged with a mux request id. No thread of its own
/// reads it: a forward that has written its frame reads the socket
/// itself when no other forward is reading, and routes every frame it
/// reads to the forward waiting under that frame's mux id; otherwise
/// it waits for its answer, or for the reading turn.
///
/// The turn is never lost while forwards wait: the reader passes it to
/// one waiter when its own turn ends, and a waiter handed the turn
/// that gives up without reading passes it on.
struct MuxConn {
    /// Write half. Locked per frame write only — never across a round
    /// trip — so concurrent forwards interleave their frames.
    writer: Mutex<TcpStream>,
    /// Read half: held by the forward that is reading, across its
    /// blocking reads. Only ever taken with `try_lock` — a forward
    /// that finds it taken waits for its answer instead.
    reader: Mutex<MuxReader>,
    /// Extra handle used to `shutdown()` the socket, which ends the
    /// reading forward's read at once.
    wake: TcpStream,
    /// Forwards waiting for their answer, by mux id. A waiter's
    /// channel holds at most one `Turn` and then its answer.
    waiters: Mutex<HashMap<u32, Sender<MuxEvent>>>,
    /// Next mux correlation id (wraps; ids are transient).
    next_id: AtomicU32,
    /// Set once the connection is torn down (end of stream, I/O error,
    /// corrupt frame) or killed; no new forwards board after this.
    dead: AtomicBool,
}

impl MuxConn {
    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.wake.shutdown(Shutdown::Both);
    }

    /// Tell every waiter that its answer can no longer arrive. Order
    /// matters: `dead` is set before the drain (both sides touch the
    /// waiters map under its lock), so a forward either boards in time
    /// to be drained or observes `dead` after boarding.
    fn tear_down(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let waiters: Vec<(u32, Sender<MuxEvent>)> = self.waiters.lock().drain().collect();
        for (_, tx) in waiters {
            let _ = tx.try_send(MuxEvent::Dropped);
        }
    }

    /// Hand the reading turn to one waiting forward, if any. One whose
    /// channel is empty is picked: a waiter holding a `Turn` already
    /// acts on it.
    fn pass_turn(&self) {
        let waiters = self.waiters.lock();
        if let Some(tx) = waiters.values().find(|tx| tx.is_empty()) {
            let _ = tx.try_send(MuxEvent::Turn);
        }
    }

    /// Take a forward that gives up without its answer off the waiters
    /// map. Nobody can hand it the turn after that; if somebody did
    /// before, the turn is passed on.
    fn leave(&self, id: u32, rx: &Receiver<MuxEvent>) {
        self.waiters.lock().remove(&id);
        let mut turn = false;
        while let Ok(event) = rx.try_recv() {
            turn |= matches!(event, MuxEvent::Turn);
        }
        if turn {
            self.pass_turn();
        }
    }

    /// One turn at the socket for the forward waiting under `id`: read
    /// frames and route each to its waiter — an id with none is a
    /// response whose forward timed out, dropped by design, because
    /// that forward was never resent — until this forward's own answer
    /// arrives. Stops early at the forward's deadline
    /// ([`ReadStop::TimedOut`]) or when the connection is gone
    /// ([`ReadStop::Closed`], after every waiter was told).
    fn read_turn(
        &self,
        reader: &mut MuxReader,
        id: u32,
        rx: &Receiver<MuxEvent>,
        deadline: Instant,
        counters: &TransportCounters,
    ) -> Result<Vec<u8>, ReadStop> {
        // The forward that read before this one may have routed this
        // one's answer already: it did so before it gave up the turn.
        while let Ok(event) = rx.try_recv() {
            match event {
                MuxEvent::Frame(body) => return Ok(body),
                MuxEvent::Dropped => return Err(ReadStop::Closed),
                MuxEvent::Turn => {}
            }
        }
        loop {
            let stop = match reader.next_frame(deadline) {
                Ok((hdr, body)) => {
                    counters
                        .bytes_received
                        .fetch_add((WIRE2_HEADER_LEN + body.len()) as u64, Ordering::Relaxed);
                    match hdr.frame_type {
                        FrameType::BinResponse => {
                            let waiter = self.waiters.lock().remove(&hdr.request_id);
                            if hdr.request_id == id {
                                return Ok(body);
                            }
                            if let Some(tx) = waiter {
                                let _ = tx.try_send(MuxEvent::Frame(body));
                            }
                            continue;
                        }
                        FrameType::HelloAck => continue,
                        // A node must answer with response frames;
                        // request frames here mean the stream is torn.
                        FrameType::BinRequest => ReadStop::Corrupt,
                    }
                }
                Err(ReadStop::TimedOut) => {
                    self.waiters.lock().remove(&id);
                    return Err(ReadStop::TimedOut);
                }
                Err(stop) => stop,
            };
            if matches!(stop, ReadStop::Corrupt) {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
            self.tear_down();
            return Err(ReadStop::Closed);
        }
    }
}

/// How one mux round trip failed.
struct MuxFailure {
    /// Connection-level: the response can no longer arrive on this
    /// connection, so one fresh-connection retry is safe. Never set
    /// for a timeout (the node may still be executing the request).
    retryable: bool,
    timed_out: bool,
    error: ServeError,
}

/// A TCP [`WorkerTransport`]: forwards requests to a
/// [`RemoteRuntimeNode`] (typically in another process) over the
/// [`crate::wire2`] binary protocol.
///
/// The connection is **multiplexed**: every concurrent forward shares
/// one socket, tagged with a mux request id, so parallel requests to
/// one shard overlap their round trips without per-request sockets.
/// There is no reader thread: after writing its frame, a forward reads
/// the socket itself when no other forward is reading, and hands every
/// frame it reads to the forward it answers; otherwise it waits until
/// the reading forward hands it its answer, or the reading turn. A
/// lone caller therefore reads its own answer — the only thread woken
/// in this process is the one that asked. Dialing is **lazy** (nothing
/// until the first forward) and **checked**: the node must answer the
/// preamble with a `HelloAck` frame, and a peer that answers anything
/// else fails the forward like an unreachable one.
///
/// A connect, send, or connection-drop failure retries once on a
/// fresh connection before the error is reported, so a restarted node
/// is picked back up without intervention. A **read timeout** is
/// deliberately *not* retried: the node may be alive and still
/// executing the request, and resending the frame would execute it a
/// second time exactly when the node is at its most loaded — the
/// error surfaces instead, and the runtime's shard fail-over decides
/// what to do. (Unlike a drop, a timeout leaves the multiplexed
/// connection in service: other in-flight forwards are unaffected, the
/// bytes of a frame half read stay buffered for the next reader, and a
/// response arriving after its waiter gave up is discarded by mux id.)
///
/// Dropping the worker shuts its socket down; it owns no thread.
pub struct RemoteWorker {
    addr: String,
    timeout: Duration,
    /// The live multiplexed connection, if any.
    mux: Mutex<Option<Arc<MuxConn>>>,
    /// Current in-flight depth (feeds `TransportStats::max_in_flight`).
    in_flight: AtomicUsize,
    /// A failure happened since the last successful dial (drives
    /// reconnect accounting: a dial that clears this counts as a
    /// reconnect, the first-ever dial does not).
    broken: AtomicBool,
    /// Circuit breaker: consecutive failed forwards, and when the
    /// last one happened. Once `consecutive_failures` reaches
    /// `breaker_threshold`, forwards fail fast (no dial, no timeout
    /// wait) until `breaker_cooldown` has elapsed since the last
    /// failure; then one trial forward is let through (half-open).
    consecutive_failures: AtomicU64,
    last_failure: Mutex<Option<Instant>>,
    breaker_threshold: u64,
    breaker_cooldown: Duration,
    /// Health probes in flight right now (any drives
    /// [`BreakerState::Probing`] independent of the cool-down clock).
    probing: AtomicUsize,
    counters: Arc<TransportCounters>,
}

/// Default consecutive-failure threshold that opens a
/// [`RemoteWorker`]'s circuit breaker (see
/// [`RemoteWorker::with_breaker`]).
pub const REMOTE_WORKER_BREAKER_FAILURES: u64 = 3;

/// Default cool-down an open [`RemoteWorker`] breaker waits before
/// letting a half-open trial forward through.
pub const REMOTE_WORKER_BREAKER_COOLDOWN: Duration = Duration::from_secs(1);

impl std::fmt::Debug for RemoteWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWorker")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default I/O timeout for [`RemoteWorker`] connections: generous
/// enough for a loaded node serving a large batch, short enough that
/// a wedged node triggers fail-over rather than hanging clients.
pub const REMOTE_WORKER_TIMEOUT: Duration = Duration::from_secs(10);

impl RemoteWorker {
    /// A transport to the node at `addr` (`"host:port"`). No
    /// connection is attempted until the first forward.
    #[must_use]
    pub fn new(addr: &str) -> RemoteWorker {
        RemoteWorker {
            addr: addr.to_string(),
            timeout: REMOTE_WORKER_TIMEOUT,
            mux: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
            consecutive_failures: AtomicU64::new(0),
            last_failure: Mutex::new(None),
            breaker_threshold: REMOTE_WORKER_BREAKER_FAILURES,
            breaker_cooldown: REMOTE_WORKER_BREAKER_COOLDOWN,
            probing: AtomicUsize::new(0),
            counters: Arc::new(TransportCounters::default()),
        }
    }

    /// Override the circuit breaker (default
    /// [`REMOTE_WORKER_BREAKER_FAILURES`] consecutive failures, then
    /// fail fast for [`REMOTE_WORKER_BREAKER_COOLDOWN`] per failure).
    /// `threshold` 0 disables the breaker entirely: every forward to
    /// a dead node then pays its full dial/timeout cost before the
    /// runtime fails over.
    #[must_use]
    pub fn with_breaker(mut self, threshold: u64, cooldown: Duration) -> RemoteWorker {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Override the connect/read/write timeout (default
    /// [`REMOTE_WORKER_TIMEOUT`]).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteWorker {
        self.timeout = timeout;
        self
    }

    /// The target address this transport forwards to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dial, send the wire2 preamble and check the node's answer: a
    /// `HelloAck` frame puts the connection in service; anything else —
    /// a peer that speaks some other protocol, or another wire2
    /// version — is a transport error.
    fn dial(&self) -> Result<Arc<MuxConn>, ServeError> {
        let io = |e: std::io::Error| ServeError::Transport(format!("{}: {e}", self.addr));
        let sockaddr = self
            .addr
            .to_socket_addrs()
            .map_err(io)?
            .next()
            .ok_or_else(|| {
                ServeError::Transport(format!("{}: address resolves to nothing", self.addr))
            })?;
        let mut writer = TcpStream::connect_timeout(&sockaddr, self.timeout).map_err(io)?;
        writer.set_write_timeout(Some(self.timeout)).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        let mut reader = MuxReader {
            stream: writer.try_clone().map_err(io)?,
            buf: ReadBuf::default(),
        };
        writer.write_all(WIRE2_PREAMBLE).map_err(io)?;
        let refused = |why: &str| {
            Err(ServeError::Transport(format!(
                "{}: no wire2 handshake: {why}",
                self.addr
            )))
        };
        match reader.next_frame(Instant::now() + self.timeout) {
            Ok((hdr, _)) if hdr.frame_type == FrameType::HelloAck => {}
            Ok(_) => return refused("the node answered with a frame that is not a HelloAck"),
            Err(ReadStop::Closed) => return refused("the node closed the connection"),
            Err(ReadStop::TimedOut) => return refused("no answer in time"),
            Err(ReadStop::Corrupt) => return refused("the answer is not a wire2 frame"),
        }
        let wake = writer.try_clone().map_err(io)?;
        Ok(Arc::new(MuxConn {
            writer: Mutex::new(writer),
            reader: Mutex::new(reader),
            wake,
            waiters: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            dead: AtomicBool::new(false),
        }))
    }

    /// Fail this forward: remember the transport is broken (the next
    /// successful dial counts as a reconnect) and, for counted
    /// (non-probe) forwards, feed the stats and the circuit breaker.
    fn fail(&self, error: ServeError, record: bool) -> ServeError {
        self.broken.store(true, Ordering::Relaxed);
        self.fail_keep(error, record)
    }

    /// Fail this forward *without* marking the transport broken —
    /// used for mux timeouts, where the connection stays in service
    /// for the other in-flight forwards.
    fn fail_keep(&self, error: ServeError, record: bool) -> ServeError {
        if record {
            self.counters.failures.fetch_add(1, Ordering::Relaxed);
            self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            *self.last_failure.lock() = Some(Instant::now());
        }
        error
    }

    /// Record a counted forward's success and close the breaker.
    fn succeed(&self, start: Instant) {
        self.counters.record_success(start.elapsed());
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Whether the circuit breaker currently rejects forwards. Open
    /// fails fast; [`BreakerState::Probing`] (half-open or probe in
    /// flight) lets forwards proceed — the first success closes it.
    fn breaker_open(&self) -> bool {
        self.state() == BreakerState::Open
    }

    /// This worker's explicit breaker state: below the failure
    /// threshold the breaker is [`Closed`](BreakerState::Closed); at
    /// or past it, the breaker is [`Probing`](BreakerState::Probing)
    /// while a health probe is in flight or once the cool-down since
    /// the last failure elapsed (half-open), and
    /// [`Open`](BreakerState::Open) otherwise.
    pub fn state(&self) -> BreakerState {
        if self.breaker_threshold == 0
            || self.consecutive_failures.load(Ordering::Relaxed) < self.breaker_threshold
        {
            return BreakerState::Closed;
        }
        if self.probing.load(Ordering::Relaxed) > 0 {
            return BreakerState::Probing;
        }
        let cooling = self
            .last_failure
            .lock()
            .is_some_and(|t| t.elapsed() < self.breaker_cooldown);
        if cooling {
            BreakerState::Open
        } else {
            BreakerState::Probing
        }
    }

    /// Get the live mux connection or dial one.
    fn mux_establish(&self) -> Result<Arc<MuxConn>, ServeError> {
        let mut slot = self.mux.lock();
        if let Some(conn) = slot.as_ref() {
            if !conn.dead.load(Ordering::Relaxed) {
                return Ok(Arc::clone(conn));
            }
            // The connection died since the last successful dial
            // (node restart, reader error): the fresh dial below must
            // count as a reconnect even when no forward failed in
            // between.
            self.broken.store(true, Ordering::Relaxed);
        }
        let conn = self.dial()?;
        if self.broken.swap(false, Ordering::Relaxed) {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// One tagged round trip on an established mux connection: board
    /// a waiter, write the request frame (the writer lock covers the
    /// write only, never the wait), then read the socket while no
    /// other forward does, or wait for the reading forward to hand over
    /// the answer or the turn, until the answer arrives or the
    /// per-forward timeout passes. Returns the response payload and
    /// the bytes sent and received.
    fn mux_round(
        &self,
        conn: &Arc<MuxConn>,
        payload: &[u8],
    ) -> Result<(Vec<u8>, u64, u64), MuxFailure> {
        let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_frame(FrameType::BinRequest, id, payload).map_err(|e| MuxFailure {
            retryable: false,
            timed_out: false,
            error: e,
        })?;
        // Room for one `Turn` and the answer.
        let (tx, rx) = bounded(2);
        conn.waiters.lock().insert(id, tx);
        // The connection is torn down with `dead` set before the
        // waiters are drained (both under the waiters lock), so either
        // this waiter will be told, or this check observes `dead` —
        // never neither.
        if conn.dead.load(Ordering::Relaxed) {
            conn.leave(id, &rx);
            return Err(MuxFailure {
                retryable: true,
                timed_out: false,
                error: ServeError::Transport(format!("{}: connection dropped", self.addr)),
            });
        }
        let write_result = { conn.writer.lock().write_all(&frame) };
        if let Err(e) = write_result {
            conn.leave(id, &rx);
            conn.kill();
            let timed_out = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
            return Err(MuxFailure {
                // A write timeout may have torn a partial frame onto
                // the wire; like a read timeout it is never retried.
                retryable: !timed_out,
                timed_out,
                error: ServeError::Transport(format!("{}: {e}", self.addr)),
            });
        }
        let sent = frame.len() as u64;
        self.counters.bytes_sent.fetch_add(sent, Ordering::Relaxed);
        let deadline = Instant::now() + self.timeout;
        let answer = loop {
            if let Some(mut reader) = conn.reader.try_lock() {
                let answer = conn.read_turn(&mut reader, id, &rx, deadline, &self.counters);
                drop(reader);
                conn.pass_turn();
                break answer;
            }
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(MuxEvent::Frame(body)) => break Ok(body),
                Ok(MuxEvent::Dropped) => break Err(ReadStop::Closed),
                // The reader's turn ended: try to take it.
                Ok(MuxEvent::Turn) => {}
                Err(_) => {
                    conn.leave(id, &rx);
                    break Err(ReadStop::TimedOut);
                }
            }
        };
        match answer {
            Ok(body) => {
                let received = (WIRE2_HEADER_LEN + body.len()) as u64;
                Ok((body, sent, received))
            }
            // The node may still be executing this request: do NOT
            // resend it. The connection stays in service; a late
            // response is discarded by mux id.
            Err(ReadStop::TimedOut) => Err(MuxFailure {
                retryable: false,
                timed_out: true,
                error: ServeError::Transport(format!(
                    "{}: read timed out after {:?}",
                    self.addr, self.timeout
                )),
            }),
            Err(_) => Err(MuxFailure {
                retryable: true,
                timed_out: false,
                error: ServeError::Transport(format!(
                    "{}: connection dropped before the response arrived",
                    self.addr
                )),
            }),
        }
    }

    /// The shared mux forward path: breaker check, one round on the
    /// live connection, and — only for connection-level failures —
    /// one retry on a fresh dial. `record: false` (probes) skips the
    /// stats counters and breaker accounting, so periodic probes
    /// cannot dilute the mean forward latency or flap the breaker.
    /// Returns the response payload and the bytes sent and received.
    fn mux_forward(&self, payload: &[u8], record: bool) -> Result<(Vec<u8>, u64, u64), ServeError> {
        // Circuit breaker: a shard that keeps failing fails fast — no
        // dial, no timeout wait — so keyed traffic sticky to a dead
        // node degrades by one cheap error instead of a full connect
        // timeout per request. Probes (`record: false`) bypass it:
        // they are exactly how an open shard is discovered to have
        // recovered.
        if record && self.breaker_open() {
            self.counters.failures.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Transport(format!(
                "{}: circuit open after {} consecutive failures",
                self.addr,
                self.consecutive_failures.load(Ordering::Relaxed)
            )));
        }
        let start = Instant::now();
        // Attempt 1: the live multiplexed connection, if any.
        let existing = { self.mux.lock().clone() };
        if let Some(conn) = existing.filter(|c| !c.dead.load(Ordering::Relaxed)) {
            match self.mux_round(&conn, payload) {
                Ok(reply) => {
                    if record {
                        self.succeed(start);
                    }
                    return Ok(reply);
                }
                Err(f) if !f.retryable => return Err(self.fail_keep(f.error, record)),
                // The connection dropped mid-flight: the response
                // cannot arrive on it, so a single fresh-connection
                // retry is safe. Mark the transport broken — the
                // fresh dial below counts as a reconnect.
                Err(_) => self.broken.store(true, Ordering::Relaxed),
            }
        }
        // Attempt 2: a fresh connection.
        let conn = self.mux_establish().map_err(|e| self.fail(e, record))?;
        match self.mux_round(&conn, payload) {
            Ok(reply) => {
                if record {
                    self.succeed(start);
                }
                Ok(reply)
            }
            Err(f) if f.timed_out => Err(self.fail_keep(f.error, record)),
            Err(f) => Err(self.fail(f.error, record)),
        }
    }

    /// Forward one request as a binary frame and decode the reply.
    fn forward_request_impl(
        &self,
        req: &Request,
        record: bool,
    ) -> Result<ForwardReply, ServeError> {
        let _guard = enter_in_flight(&self.in_flight, &self.counters);
        let payload = encode_request_payload(req);
        let (body, bytes_sent, bytes_received) = self.mux_forward(&payload, record)?;
        match decode_response_payload(&body) {
            Ok(response) => Ok(ForwardReply {
                response,
                bytes_sent,
                bytes_received,
            }),
            Err(e) => {
                self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                Err(self.fail_keep(ServeError::Transport(format!("{}: {e}", self.addr)), record))
            }
        }
    }
}

impl Drop for RemoteWorker {
    fn drop(&mut self) {
        // A forward still reading sees the hang-up at once.
        if let Some(conn) = self.mux.lock().take() {
            conn.kill();
        }
    }
}

impl WorkerTransport for RemoteWorker {
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        self.forward_request_impl(req, true)
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Probes ride the same mux/retry path but are *not* counted as
    /// forwards, so periodic [`ServingRuntime::refresh_remote_counters`]
    /// polling cannot dilute the mean forward latency or desync
    /// `TransportStats::forwards` from the runtime's own
    /// `remote_forwards`. They bypass an open breaker (the breaker
    /// reads [`BreakerState::Probing`] while any is in flight — the
    /// cluster prober and a counters refresh may probe at once), and a
    /// successful probe closes it — this is how a health prober
    /// re-admits a recovered node.
    fn forward_probe(&self, req: &Request) -> Result<Response, ServeError> {
        self.counters.probes_sent.fetch_add(1, Ordering::Relaxed);
        self.probing.fetch_add(1, Ordering::Relaxed);
        let result = self.forward_request_impl(req, false);
        self.probing.fetch_sub(1, Ordering::Relaxed);
        if result.is_ok() {
            self.counters.probes_ok.fetch_add(1, Ordering::Relaxed);
            // The node answered: close the breaker so counted
            // forwards flow again (automatic re-admission).
            self.consecutive_failures.store(0, Ordering::Relaxed);
        }
        result.map(|reply| reply.response)
    }

    fn breaker_state(&self) -> BreakerState {
        self.state()
    }
}

// ---- the host side -------------------------------------------------

/// Least free room a connection's read buffer offers one `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Where a node-side connection stands in the protocol.
enum ConnMode {
    /// The [`WIRE2_PREAMBLE`] has not been read whole yet.
    AwaitingPreamble,
    /// Multiplexed wire2 frames.
    Wire2,
}

/// A connection's inbound bytes — a node connection's, or a
/// [`MuxReader`]'s: one allocation that sockets are read
/// into in place and frames are consumed from with a cursor. `buf` is
/// initialised over its whole length — zero-filled when it grows, not
/// once per read — and `buf[start..end]` is the unparsed part.
#[derive(Default)]
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.end);
    }

    /// The free tail, at least [`READ_CHUNK`] long; follow a read
    /// of `n` bytes into it with [`filled(n)`](Self::filled).
    fn spare(&mut self) -> &mut [u8] {
        if self.buf.len() - self.end < READ_CHUNK {
            let grown = (self.buf.len() * 2).max(self.end + READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        &mut self.buf[self.end..]
    }

    fn filled(&mut self, n: usize) {
        self.end = (self.end + n).min(self.buf.len());
    }

    /// Move the unparsed tail to the front: on a node once per sweep,
    /// however many frames the sweep consumed; on a mux connection
    /// before each read.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

/// A connection's outbound side: the bytes its socket has not taken
/// yet.
#[derive(Default)]
struct Outbox {
    /// Unwritten bytes are `pending[pos..]`; empty once flushed.
    pending: Vec<u8>,
    pos: usize,
    /// A write failed, or the leader closed the connection: nothing
    /// more goes out.
    dead: bool,
}

/// The half of a connection that the node's leader shares with
/// whichever thread completes one of its requests. The leader alone
/// reads the socket; anyone may write it, under `out`, which is held
/// across a nonblocking `write` and nothing else.
struct ConnShared {
    stream: TcpStream,
    out: Mutex<Outbox>,
    /// The outbox has business for the leader: unsent bytes, or a dead
    /// socket. Written under `out`; the leader reads it *instead of*
    /// taking `out`, so a sweep never waits behind a completion that
    /// is inside its `write` — one worker's system call must not hold
    /// up the admission of every other connection's requests.
    backlog: AtomicBool,
    /// Requests admitted and not yet answered.
    in_flight: AtomicUsize,
    /// Stop reading; close once in-flight work and writes drain.
    draining: AtomicBool,
}

/// Write as much of `bytes` as the socket takes right now; returns
/// what it did not take.
fn write_some<'a>(
    mut stream: &TcpStream,
    mut bytes: &'a [u8],
    dead: &mut bool,
    counters: &TransportCounters,
) -> &'a [u8] {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) if n > 0 => {
                counters.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                bytes = &bytes[n..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Ok(_) | Err(_) => {
                *dead = true;
                break;
            }
        }
    }
    bytes
}

impl ConnShared {
    /// Send `bytes` to the peer from any thread: straight into the
    /// socket when nothing is queued ahead of them, and whatever the
    /// socket does not take — or all of them, behind bytes already
    /// waiting — into the outbox for the leader to flush on write
    /// readiness. Returns true when the leader has to look at this
    /// connection because of it: bytes were left over, or the socket
    /// failed.
    fn send(&self, bytes: &[u8], counters: &TransportCounters) -> bool {
        let mut out = self.out.lock();
        if out.dead {
            return false;
        }
        let rest = if out.pending.is_empty() {
            write_some(&self.stream, bytes, &mut out.dead, counters)
        } else {
            bytes
        };
        out.pending.extend_from_slice(rest);
        let backlog = out.dead || !rest.is_empty();
        if backlog {
            self.backlog.store(true, Ordering::SeqCst);
        }
        backlog
    }

    /// Flush as much of the outbox as the socket accepts right now.
    /// Returns `None` once the connection is dead, else whether bytes
    /// are still waiting.
    fn flush(&self, counters: &TransportCounters) -> Option<bool> {
        let mut out = self.out.lock();
        let Outbox { pending, pos, dead } = &mut *out;
        if !*dead && !pending.is_empty() {
            let left = write_some(&self.stream, &pending[*pos..], dead, counters).len();
            *pos = pending.len() - left;
            if left == 0 {
                pending.clear();
                *pos = 0;
            }
        }
        self.backlog
            .store(*dead || !pending.is_empty(), Ordering::SeqCst);
        (!*dead).then_some(!pending.is_empty())
    }

    /// Hang up. A completion that still holds this half finds it dead
    /// and drops its bytes, so nothing of an old connection can reach
    /// a later one whatever slot or descriptor that one reuses.
    fn close(&self) {
        let mut out = self.out.lock();
        out.dead = true;
        out.pending = Vec::new();
        self.backlog.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Per-connection state that moves with the poll set.
struct NodeConn {
    shared: Arc<ConnShared>,
    mode: ConnMode,
    /// Unparsed inbound bytes.
    rbuf: ReadBuf,
    /// Drop the connection now (protocol violation or I/O error).
    fatal: bool,
    /// The socket may hold bytes not read yet: set when the connection
    /// is accepted and when a park reports it ready, cleared once a
    /// read drains it. A sweep reads only sockets that may hold bytes,
    /// so a new leader's first sweep does not contend for the socket
    /// with the thread writing the answer to the request it just read.
    readable: bool,
    /// Where the last park registered this connection in the poll set.
    polled: Option<usize>,
}

impl NodeConn {
    fn new(stream: TcpStream) -> NodeConn {
        NodeConn {
            shared: Arc::new(ConnShared {
                stream,
                out: Mutex::new(Outbox::default()),
                backlog: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
            }),
            mode: ConnMode::AwaitingPreamble,
            rbuf: ReadBuf::default(),
            fatal: false,
            readable: true,
            polled: None,
        }
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// What a parked leader waits for on this connection. `None` — a
    /// draining connection whose only business is work still in
    /// flight — keeps it out of the poll set: `poll` reports a peer's
    /// hang-up whatever the interest, and nothing the leader could do
    /// about it would clear it.
    fn interest(&self) -> Option<Interest> {
        // Asked right after `finished` flushed, so a backlog here is
        // unsent bytes — or a socket that died since, which `poll`
        // reports at once and the next sweep closes.
        let unsent = self.shared.backlog.load(Ordering::SeqCst);
        match (!self.draining(), unsent) {
            (true, true) => Some(Interest::ReadWrite),
            (true, false) => Some(Interest::Read),
            (false, true) => Some(Interest::Write),
            (false, false) => None,
        }
    }

    /// Flush, then decide whether the connection is finished: dead,
    /// or draining with nothing left in flight or unsent.
    fn finished(&self, counters: &TransportCounters) -> bool {
        // Read before the outbox is looked at: a completion queues
        // its bytes first and gives up its in-flight count second, so
        // an idle connection's outbox already holds all of them.
        let idle = self.shared.in_flight.load(Ordering::SeqCst) == 0;
        // The common case — every answer went straight into the
        // socket — is decided on atomics alone; the outbox lock is
        // taken only when there is a backlog to flush.
        let unsent = if self.shared.backlog.load(Ordering::SeqCst) {
            match self.shared.flush(counters) {
                None => return true,
                Some(unsent) => unsent,
            }
        } else {
            false
        };
        !unsent && idle && self.draining()
    }
}

/// What the node's threads, every completion and the node handle
/// share.
///
/// The leader blocks in `poll`, with no timeout, and a completion that
/// leaves it something to do —
/// bytes the socket did not take, a draining connection's last answer
/// — changes state `poll` cannot see, so `attention`, `parked` and
/// `waker` close the gap. The leader stores `parked = true`, looks at
/// `attention` once more, then polls; a completion publishes its
/// state, stores `attention = true`, loads `parked`, and rings the
/// waker if it reads true. Both sides write first and read second,
/// with `SeqCst` throughout, so one of them always sees the other:
/// either the leader's last look finds `attention`, or the completion
/// finds `parked` set and its ring — a byte that stays in the socket
/// until drained — ends the `poll`, even one that starts later. Only
/// one thread leads at a time, and the next leader's first sweep
/// looks at everything, so a hand-over loses nothing. A completion
/// whose bytes the socket took whole wakes nobody.
struct NodeShared {
    shutdown: AtomicBool,
    parked: AtomicBool,
    attention: AtomicBool,
    waker: Waker,
    counters: TransportCounters,
    /// Requests in flight across all connections.
    in_flight: AtomicUsize,
    /// Sweeps the node's leaders have made; a parked leader makes none.
    sweeps: AtomicU64,
}

impl NodeShared {
    fn wake_loop(&self) {
        self.attention.store(true, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            self.waker.ring();
        }
    }
}

/// One request in flight on a connection, held by whoever will answer
/// it: the completion sink inside the runtime's job or the leader's
/// [`Runnable`]. It carries an `Arc` to *its* connection, so an answer
/// can only ever reach the peer that asked. Dropped unanswered (the
/// runtime shut down under the request, or its servable panicked), it
/// drains the connection.
struct InFlight {
    conn: Arc<ConnShared>,
    node: Arc<NodeShared>,
    start: Instant,
    answered: Cell<bool>,
}

impl InFlight {
    fn begin(conn: &Arc<ConnShared>, node: &Arc<NodeShared>) -> InFlight {
        conn.in_flight.fetch_add(1, Ordering::SeqCst);
        let depth = node.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        node.counters
            .max_in_flight
            .fetch_max(depth as u64, Ordering::Relaxed);
        InFlight {
            conn: Arc::clone(conn),
            node: Arc::clone(node),
            start: Instant::now(),
            answered: Cell::new(false),
        }
    }

    /// The request was served: count it, then write its response
    /// frame through to the connection.
    fn complete(&self, mux_id: u32, resp: &Response) {
        if self.answered.replace(true) {
            return;
        }
        self.node.counters.record_success(self.start.elapsed());
        let wake = self
            .conn
            .send(&response_frame(mux_id, resp), &self.node.counters);
        self.release(wake);
    }

    /// Give up the in-flight count — after the bytes are out, so the
    /// leader never sees an idle connection with an answer missing —
    /// and wake the leader if this leaves it something to do.
    fn release(&self, wake: bool) {
        self.node.in_flight.fetch_sub(1, Ordering::Relaxed);
        let last = self.conn.in_flight.fetch_sub(1, Ordering::SeqCst) == 1;
        // The leader stores `draining` and then loads `in_flight`; this
        // is the mirror image, so one side sees the connection is
        // ready to close.
        if wake || (last && self.conn.draining.load(Ordering::SeqCst)) {
            self.node.wake_loop();
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if !self.answered.get() {
            self.conn.draining.store(true, Ordering::SeqCst);
            self.release(true);
        }
    }
}

/// Encode a response into a `BinResponse` frame; a response so large
/// it exceeds the frame bound degrades to an in-band error frame.
fn response_frame(mux_id: u32, resp: &Response) -> Vec<u8> {
    encode_response_frame(mux_id, resp).unwrap_or_else(|e| {
        let fallback = Response::failure(resp.id, format!("response dropped: {e}"));
        encode_response_frame(mux_id, &fallback).unwrap_or_default()
    })
}

/// Read whatever is ready on a nonblocking connection, straight into
/// its read buffer, unless the socket is known to be drained. Returns
/// true when any bytes arrived.
fn node_read(conn: &mut NodeConn, counters: &TransportCounters) -> bool {
    let mut any = false;
    while conn.readable {
        let spare = conn.rbuf.spare();
        let room = spare.len();
        match (&conn.shared.stream).read(spare) {
            Ok(0) => {
                conn.shared.draining.store(true, Ordering::SeqCst);
                break;
            }
            Ok(n) => {
                counters
                    .bytes_received
                    .fetch_add(n as u64, Ordering::Relaxed);
                conn.rbuf.filled(n);
                any = true;
                // A read that did not fill the buffer took everything.
                conn.readable = n == room;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => conn.readable = false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.fatal = true;
                break;
            }
        }
    }
    any
}

/// Where the leader sends what it parses: the hosted runtime, which
/// answers or queues whatever it does not hand back to run.
struct NodeLanes<'l, 'a> {
    shared: &'l Arc<NodeShared>,
    runtime: &'a Shared,
    /// A request to run once the poll set is handed back; parsing
    /// stops as soon as there is one.
    runnable: Option<Runnable<'a>>,
}

impl NodeLanes<'_, '_> {
    /// Admit one decoded request from the leader. The runtime routes
    /// it here; its sink encodes the response and writes it through to
    /// the connection on whichever thread serves it, so the leader
    /// hears of the request again only when it may run right now — the
    /// leader then ends its turn, and its thread runs it. A frame
    /// routed onward to a remote shard, or to a worker whose queue is
    /// not empty, is queued for the runtime's threads.
    ///
    /// Only a request that is `alone` — nothing else buffered behind
    /// it on its connection — may run on the leader's thread: the
    /// frames of a pipelined burst queue for their workers, where they
    /// coalesce, and a leader that holds a slot takes no more requests.
    fn admit(&mut self, conn: &Arc<ConnShared>, mux_id: u32, req: Request, alone: bool) {
        let ticket = InFlight::begin(conn, self.shared);
        let sink = Box::new(move |resp: Response| ticket.complete(mux_id, &resp));
        // A runtime that has shut down drops the sink, which drains
        // the connection.
        if let Ok(Some(runnable)) = self.runtime.submit(req, sink, alone) {
            self.runnable = Some(runnable);
        }
    }
}

/// Parse buffered bytes into admitted requests — up to the first one
/// that may run now — then compact the read buffer.
fn node_parse(conn: &mut NodeConn, lanes: &mut NodeLanes<'_, '_>) {
    while !conn.fatal && lanes.runnable.is_none() && node_parse_one(conn, lanes) {}
    conn.rbuf.compact();
}

/// Consume the preamble or one frame from the front of the read
/// buffer. Returns false when the buffered bytes hold no complete
/// one, or the connection stopped parsing.
fn node_parse_one(conn: &mut NodeConn, lanes: &mut NodeLanes<'_, '_>) -> bool {
    let counters = &lanes.shared.counters;
    let unread = conn.rbuf.unread();
    match conn.mode {
        ConnMode::AwaitingPreamble => {
            // Compared as far as it has arrived, so a peer speaking
            // anything else is refused on its first bytes rather than
            // left waiting for a preamble that never completes.
            let n = unread.len().min(WIRE2_PREAMBLE.len());
            if unread[..n] != WIRE2_PREAMBLE[..n] {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                conn.fatal = true;
                return false;
            }
            if n < WIRE2_PREAMBLE.len() {
                return false;
            }
            conn.rbuf.consume(n);
            conn.mode = ConnMode::Wire2;
            if let Ok(ack) = encode_frame(FrameType::HelloAck, 0, &[]) {
                conn.shared.send(&ack, counters);
            }
            true
        }
        ConnMode::Wire2 => {
            let Some(header) = unread.first_chunk::<WIRE2_HEADER_LEN>() else {
                return false;
            };
            let hdr = match decode_header(header) {
                Ok(hdr) => hdr,
                Err(_) => {
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    // When the magic/version/type bytes are intact
                    // (any version this build decodes) only the
                    // length prefix is hostile and the mux id is
                    // still trustworthy: the client gets an in-band
                    // error before the connection drains. Anything
                    // else means the stream is desynchronized — drop
                    // it.
                    if header[0] == WIRE2_MAGIC
                        && (WIRE2_MIN_VERSION..=WIRE2_VERSION).contains(&header[1])
                        && FrameType::from_byte(header[2]).is_some()
                    {
                        let mux_id =
                            u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
                        let resp = Response::failure(
                            ERROR_RESPONSE_ID,
                            "frame rejected: payload length exceeds the frame bound",
                        );
                        conn.shared.send(&response_frame(mux_id, &resp), counters);
                        conn.shared.draining.store(true, Ordering::SeqCst);
                        // Nothing behind a rejected header can be
                        // framed: discard it, so a later sweep does
                        // not answer the same header again.
                        let rest = unread.len();
                        conn.rbuf.consume(rest);
                    } else {
                        conn.fatal = true;
                    }
                    return false;
                }
            };
            let total = WIRE2_HEADER_LEN + hdr.payload_len as usize;
            if unread.len() < total {
                return false;
            }
            let payload = &unread[WIRE2_HEADER_LEN..total];
            let mux_id = hdr.request_id;
            match hdr.frame_type {
                // Decoded where it lies in the read buffer: the
                // request's own strings are the only copy made.
                FrameType::BinRequest => match decode_request_payload(payload) {
                    Ok(req) => lanes.admit(&conn.shared, mux_id, req, unread.len() == total),
                    Err(e) => {
                        // The framing was intact — only this payload
                        // is bad — so answer in band and keep the
                        // connection in service.
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        lanes.runtime.count_decode_error();
                        let resp = Response::failure(
                            ERROR_RESPONSE_ID,
                            format!("binary request decode failed: {e}"),
                        );
                        conn.shared.send(&response_frame(mux_id, &resp), counters);
                    }
                },
                FrameType::BinResponse | FrameType::HelloAck => {
                    // Clients send request frames; anything else
                    // means the stream is desynchronized.
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    conn.fatal = true;
                    return false;
                }
            }
            conn.rbuf.consume(total);
            true
        }
    }
}

/// Accept every pending connection. Returns false when `accept`
/// failed for a reason that outlasts this call (descriptor
/// exhaustion): the backlog stays readable, so the listener has to
/// sit out the next park or the leader would spin on it. Accepting is
/// retried on the next sweep — closing a connection is what frees a
/// descriptor, and that is itself a sweep with progress.
fn node_accept(
    listener: &TcpListener,
    conns: &mut Vec<Option<NodeConn>>,
    progress: &mut bool,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let conn = NodeConn::new(stream);
                match conns.iter_mut().position(|slot| slot.is_none()) {
                    Some(slot) => conns[slot] = Some(conn),
                    None => conns.push(Some(conn)),
                }
                *progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            // The pending connection failed, not the listener; it is
            // gone from the backlog, so try the next one.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => return false,
        }
    }
}

/// The poll set and everything only the thread holding it touches. It
/// is lent to the hosted runtime, whose threads take turns holding it:
/// whoever holds it is the leader.
pub(crate) struct EventLoop {
    shared: Arc<NodeShared>,
    listener: TcpListener,
    /// The listener may hold connections not accepted yet: set at
    /// first and when a park reports it ready, cleared once `accept`
    /// drains it — as [`NodeConn::readable`] is for a connection.
    acceptable: bool,
    wake: WakeListener,
    conns: Vec<Option<NodeConn>>,
    poll: PollSet,
    /// Where the next sweep starts: after the connection whose request
    /// ended the last turn, so that one connection's frames do not
    /// keep overtaking every other connection's.
    next: usize,
}

impl EventLoop {
    /// Hang up every connection. A completion may outlive the poll set
    /// holding its connection's half; the peer must see the hang-up
    /// now, not when it finishes.
    fn close(&self) {
        for conn in self.conns.iter().flatten() {
            conn.shared.close();
        }
    }

    /// One thread's turn holding the poll set: accept connections, read
    /// and parse ready sockets, admit the requests they carry into the
    /// hosted runtime, and flush what a completion's write-through left
    /// behind.
    ///
    /// Readiness-driven: the leader sweeps until a sweep makes no
    /// progress, then parks in `poll` — with no timeout — on the
    /// listener, the waker and every connection it has business with,
    /// following the `parked` protocol described on [`NodeShared`]. An
    /// idle node makes no iterations at all.
    ///
    /// The turn ends at the first request that may run right now, which
    /// the runtime runs on this thread once it has put the poll set
    /// back for another. The thread holding the poll set never runs a
    /// servable and never blocks on anything but `poll`. `None`: the
    /// node shut down, and every connection is hung up.
    pub(crate) fn lead<'a>(&mut self, runtime: &'a Shared) -> Option<Runnable<'a>> {
        let shared = &self.shared;
        let counters = &shared.counters;
        while !shared.shutdown.load(Ordering::SeqCst) {
            shared.sweeps.fetch_add(1, Ordering::Relaxed);
            // Cleared before the sweep looks at anything: whatever a
            // completion publishes from here on either is seen by this
            // sweep or sets the flag again.
            shared.attention.store(false, Ordering::SeqCst);
            let mut progress = false;
            let mut accepting = true;
            if self.acceptable {
                accepting = node_accept(&self.listener, &mut self.conns, &mut progress);
                // Drained, the listener waits for a park to report it
                // ready; failing, it is tried again next sweep.
                self.acceptable = !accepting;
            }
            let mut lanes = NodeLanes {
                shared,
                runtime,
                runnable: None,
            };
            let n = self.conns.len();
            for i in 0..n {
                let index = (self.next + i) % n;
                let entry = &mut self.conns[index];
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                if !conn.fatal && !conn.draining() && node_read(conn, counters) {
                    progress = true;
                }
                if !conn.fatal {
                    node_parse(conn, &mut lanes);
                }
                if conn.fatal || conn.finished(counters) {
                    conn.shared.close();
                    *entry = None;
                    progress = true;
                }
                if lanes.runnable.is_some() {
                    self.next = index + 1;
                    break;
                }
            }
            if lanes.runnable.is_some() {
                return lanes.runnable;
            }
            if progress {
                continue;
            }

            shared.parked.store(true, Ordering::SeqCst);
            if shared.attention.load(Ordering::SeqCst) {
                shared.parked.store(false, Ordering::SeqCst);
                continue;
            }
            let EventLoop {
                listener,
                acceptable,
                wake,
                conns,
                poll,
                ..
            } = self;
            poll.clear();
            let wake_entry = poll.push(wake, Interest::Read);
            let listener_entry = accepting.then(|| poll.push(listener, Interest::Read));
            for conn in conns.iter_mut().flatten() {
                conn.polled = conn
                    .interest()
                    .map(|interest| poll.push(&conn.shared.stream, interest));
            }
            let waited = poll.wait(None);
            shared.parked.store(false, Ordering::SeqCst);
            *acceptable |= waited.is_err() || listener_entry.is_some_and(|i| poll.is_ready(i));
            for conn in conns.iter_mut().flatten() {
                // `poll` itself failing (out of kernel memory) leaves the
                // node serving by sweeping instead of parking.
                conn.readable |= waited.is_err() || conn.polled.is_some_and(|i| poll.is_ready(i));
            }
            if waited.is_err() {
                std::thread::yield_now();
            } else if poll.is_ready(wake_entry) {
                wake.drain();
            }
        }
        self.close();
        None
    }
}

/// Hosts a whole [`ServingRuntime`] behind a TCP listener for
/// [`RemoteWorker`] peers — the other process in the cross-process
/// sharding story.
///
/// The node has no threads of its own but one: it lends one `poll(2)`
/// set over nonblocking sockets to the runtime it hosts, whose threads
/// — the `workers` plus `willump-node-0`, so that the poll set has a
/// holder while every execution slot runs — take turns holding it
/// (leader/followers) between draining worker queues. The leader
/// refuses a connection that does not open with the wire2 preamble,
/// reassembles frames with a bounded read, decodes each request where
/// it lies and admits it into the runtime without blocking. A request
/// that may run at once — its worker has nothing queued and an
/// execution slot is free, the rule a blocking in-process caller runs
/// by — the leader's thread runs itself, after putting the poll set
/// back and waking a sleeping thread, if one sleeps, to take it; any
/// other request is queued for the runtime's threads, which coalesce
/// what waits in one worker's queue. Either way the thread that
/// produced the response encodes the frame and writes it through the
/// connection's shared write half, so a back-to-back request wakes one
/// thread on its path — the leader, on the bytes — and the poll set's
/// next holder beside it. The thread holding the poll set never runs a
/// servable and never blocks, so a probe is answered while every slot
/// is held. A frame this node routes onward to a remote shard of its
/// own is queued for a runtime thread to forward. There is no
/// thread-per-connection: hundreds of idle multiplexed clients cost
/// nothing, and an idle node sleeps in the kernel until a socket has
/// something for it.
///
/// Frames the node serves run through the runtime's **full admission
/// path** — shedding, version check, key routing — exactly like local
/// frames; the `forwarded` marker pins them to local shards so a node
/// that itself has remote shards never creates a forwarding loop.
pub struct RemoteRuntimeNode {
    runtime: ServingRuntime,
    addr: SocketAddr,
    shared: Arc<NodeShared>,
}

impl std::fmt::Debug for RemoteRuntimeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteRuntimeNode")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl RemoteRuntimeNode {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `runtime`: its poll set goes to the runtime's threads,
    /// and one more thread, `willump-node-0`, joins them.
    ///
    /// # Errors
    /// Returns [`ServeError::Transport`] when the listener cannot be
    /// bound or the thread cannot be spawned.
    pub fn bind(addr: &str, runtime: ServingRuntime) -> Result<RemoteRuntimeNode, ServeError> {
        let io = |e: std::io::Error| ServeError::Transport(format!("bind {addr}: {e}"));
        let listener = TcpListener::bind(addr).map_err(io)?;
        let local = listener.local_addr().map_err(io)?;
        listener.set_nonblocking(true).map_err(io)?;
        let (waker, wake) = readiness::waker().map_err(io)?;
        let shared = Arc::new(NodeShared {
            shutdown: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            attention: AtomicBool::new(false),
            waker,
            counters: TransportCounters::default(),
            in_flight: AtomicUsize::new(0),
            sweeps: AtomicU64::new(0),
        });
        let events = EventLoop {
            shared: Arc::clone(&shared),
            listener,
            acceptable: true,
            wake,
            conns: Vec::new(),
            poll: PollSet::default(),
            next: 0,
        };
        // Should the spawn fail, dropping the node takes the lent poll
        // set down with the runtime.
        let mut node = RemoteRuntimeNode {
            runtime,
            addr: local,
            shared,
        };
        node.runtime.lend_poll_set(events)?;
        Ok(node)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted runtime (for stats inspection).
    pub fn runtime(&self) -> &ServingRuntime {
        &self.runtime
    }

    /// Node-side transport counters: frames served (`forwards`),
    /// cumulative service nanoseconds, bytes in both directions,
    /// frames rejected as oversized/corrupt (`decode_errors`), and
    /// the peak number of requests simultaneously in flight across
    /// all connections. `failures` and `reconnects` are client-side
    /// concepts and stay 0 here.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    /// Stop accepting, hang up every connection, and shut the hosted
    /// runtime down: its threads finish the requests they run and the
    /// frames they forward and are joined. Idempotent; also runs on
    /// drop. Parked client connections are dropped, not waited for.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The ring outlives a leader that is not parked yet: the byte
        // stays in the waker until its next `poll` finds it.
        self.shared.waker.ring();
        self.runtime.shutdown();
    }
}

impl Drop for RemoteRuntimeNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Consume (and discard) the rest of a reader — used by tests to hold
/// a connection open without reading.
#[cfg(test)]
fn drain<R: std::io::Read>(mut r: R) {
    let mut buf = [0u8; 256];
    while matches!(r.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Servable, ServerConfig};
    use crate::wire2::{encode_header, read_frame, MAX_FRAME_PAYLOAD};
    use crossbeam::channel::unbounded;
    use std::io::{BufRead, BufReader};
    use std::thread::JoinHandle;
    use willump_data::{Table, Value};

    struct Scaler(f64);
    impl Servable for Scaler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let col = table
                .column("x")
                .ok_or_else(|| "missing x".to_string())?
                .to_f64_vec()
                .map_err(|e| e.to_string())?;
            Ok(col.into_iter().map(|v| v * self.0).collect())
        }
    }

    fn runtime(factor: f64) -> ServingRuntime {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(1).build());
        b.endpoint("scale", Arc::new(Scaler(factor)));
        b.build().expect("runtime builds")
    }

    fn request(id: u64, x: f64) -> Request {
        Request {
            endpoint: Some("scale".to_string()),
            ..Request::new(id, vec![vec![("x".to_string(), Value::Float(x))]])
        }
    }

    /// The scores of one forward, which must succeed.
    fn scores(worker: &impl WorkerTransport, id: u64, x: f64) -> Vec<f64> {
        worker
            .forward_request(&request(id, x))
            .expect("forwarded")
            .response
            .scores
    }

    #[test]
    fn remote_worker_round_trips_through_node() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        let resp = worker.forward_request(&request(7, 3.0)).unwrap().response;
        assert_eq!(resp.id, 7);
        assert_eq!(resp.scores, vec![6.0]);
        let stats = worker.stats();
        assert_eq!(stats.forwards, 1);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.reconnects, 0);
        assert!(stats.mean_latency() > 0.0);
        assert!(stats.bytes_sent > 0);
        assert!(stats.bytes_received > 0);
    }

    #[test]
    fn binary_forward_request_round_trips() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        let reply = worker.forward_request(&request(7, 3.0)).unwrap();
        assert_eq!(reply.response.id, 7);
        assert_eq!(reply.response.scores, vec![6.0]);
        assert!(reply.bytes_sent > 0);
        assert!(reply.bytes_received > 0);
        let stats = worker.stats();
        assert_eq!(stats.forwards, 1);
        assert_eq!(stats.max_in_flight, 1);
        assert_eq!(stats.decode_errors, 0);
        // The node's own counters see the same single frame.
        let node_stats = node.transport_stats();
        assert_eq!(node_stats.forwards, 1);
        assert_eq!(node_stats.decode_errors, 0);
        assert!(node_stats.bytes_sent > 0 && node_stats.bytes_received > 0);
    }

    #[test]
    fn remote_worker_reconnects_after_node_restart() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let addr = node.local_addr().to_string();
        let worker = RemoteWorker::new(&addr).with_timeout(Duration::from_secs(2));
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        node.shutdown();

        // Node down: the forward fails (counted), connection dropped.
        assert!(matches!(
            worker.forward_request(&request(2, 1.0)),
            Err(ServeError::Transport(_))
        ));
        assert_eq!(worker.stats().failures, 1);

        // Node back (same port): the next forward reconnects.
        let mut node2 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds");
        assert_eq!(scores(&worker, 3, 5.0), vec![10.0]);
        assert_eq!(worker.stats().reconnects, 1);

        // Restart again while the worker holds a live-looking mux
        // connection: the dead connection falls through to a fresh
        // dial, which must ALSO count as a reconnect — and not as a
        // failure, since the forward succeeds.
        node2.shutdown();
        let _node3 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds again");
        assert_eq!(scores(&worker, 4, 7.0), vec![14.0]);
        assert_eq!(worker.stats().reconnects, 2);
        assert_eq!(worker.stats().failures, 1);
    }

    #[test]
    fn circuit_breaker_fails_fast_then_recovers() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let addr = node.local_addr().to_string();
        let worker = RemoteWorker::new(&addr)
            .with_timeout(Duration::from_secs(2))
            .with_breaker(2, Duration::from_millis(100));
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        node.shutdown();

        // Two real failures open the breaker…
        assert!(worker.forward_request(&request(2, 1.0)).is_err());
        assert!(worker.forward_request(&request(3, 1.0)).is_err());
        // …after which forwards fail fast without dialing.
        match worker.forward_request(&request(4, 1.0)) {
            Err(ServeError::Transport(msg)) => {
                assert!(msg.contains("circuit open"), "got: {msg}");
            }
            other => panic!("expected open-circuit error, got {other:?}"),
        }
        assert_eq!(worker.stats().failures, 3);

        // The node comes back; once the cool-down elapses, the
        // half-open trial succeeds and closes the breaker.
        let _node2 = RemoteRuntimeNode::bind(&addr, runtime(2.0)).expect("rebinds");
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(scores(&worker, 5, 3.0), vec![6.0]);
        assert!(
            worker.forward_request(&request(6, 1.0)).is_ok(),
            "breaker closed"
        );
    }

    #[test]
    fn counter_probes_do_not_count_as_forwards() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        assert!(worker.forward_request(&request(1, 1.0)).is_ok());
        let before = worker.stats();
        // Probes must not inflate forwards or dilute mean latency.
        assert!(worker.probe_counters("scale", 1).is_ok());
        assert!(worker.probe_counters("nonesuch", 1).is_err());
        let after = worker.stats();
        assert_eq!(after.forwards, before.forwards);
        assert_eq!(after.total_nanos, before.total_nanos);
        assert_eq!(after.failures, before.failures);
        assert_eq!((after.probes_sent, after.probes_ok), (2, 2));
    }

    #[test]
    fn concurrent_forwards_overlap_via_the_mux() {
        /// Holds every prediction until a second one has entered
        /// `predict_table` too, so no forward can finish unless
        /// another was in flight beside it.
        struct Rendezvous {
            entered: std::sync::Mutex<usize>,
            arrived: std::sync::Condvar,
        }
        impl Servable for Rendezvous {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                let mut entered = self.entered.lock().expect("not poisoned");
                *entered += 1;
                self.arrived.notify_all();
                while *entered < 2 {
                    entered = self.arrived.wait(entered).expect("not poisoned");
                }
                drop(entered);
                Scaler(2.0).predict_table(table)
            }
        }
        let stats = under_watchdog(|| {
            let mut b = ServingRuntime::builder();
            b.config(ServerConfig::builder().workers(4).build());
            b.endpoint(
                "scale",
                Arc::new(Rendezvous {
                    entered: std::sync::Mutex::new(0),
                    arrived: std::sync::Condvar::new(),
                }),
            )
            .shards(4);
            let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");
            let worker = RemoteWorker::new(&node.local_addr().to_string());

            // 4 concurrent forwards through ONE transport: a
            // connection that serialized its round trips would wait
            // at the rendezvous forever; the mux tags each forward
            // and overlaps them on a single socket.
            std::thread::scope(|s| {
                for i in 0..4u64 {
                    let worker = &worker;
                    s.spawn(move || {
                        assert_eq!(scores(worker, i + 1, i as f64), vec![2.0 * i as f64]);
                    });
                }
            });
            worker.stats()
        });
        assert_eq!(stats.forwards, 4);
        assert_eq!(stats.failures, 0);
        assert!(stats.max_in_flight >= 2, "forwards overlapped");
    }

    #[test]
    fn in_process_worker_forwards_and_counts() {
        let target = runtime(3.0);
        let worker = InProcessWorker::new(&target);
        // Descriptions identify the backend runtime, so two workers
        // for one runtime dedupe while distinct runtimes do not.
        assert!(worker.describe().starts_with("in-process:"));
        assert_eq!(worker.describe(), InProcessWorker::new(&target).describe());
        // Nothing is serialized: the request crosses as a struct.
        let reply = worker.forward_request(&request(6, 2.0)).unwrap();
        assert_eq!(reply.response.scores, vec![6.0]);
        assert_eq!((reply.bytes_sent, reply.bytes_received), (0, 0));
        assert_eq!(worker.stats().forwards, 1);
        // Its probes take the same path and count as forwards.
        assert!(worker.probe_counters("scale", 1).is_ok());
        assert_eq!(worker.stats().forwards, 2);
        drop(target);
        assert!(worker.forward_request(&request(5, 1.0)).is_err());
        assert_eq!(worker.stats().failures, 1);
    }

    /// How long anything below may take before it counts as hung. The
    /// node parks with no timeout, so a lost wake-up is a hang, never
    /// a slow pass.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within [`WATCHDOG`].
    fn under_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(out) => {
                thread.join().expect("joins");
                out
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("hung: the node lost a wake-up")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(thread.join().expect_err("the thread panicked"))
            }
        }
    }

    fn sweeps(node: &RemoteRuntimeNode) -> u64 {
        node.shared.sweeps.load(Ordering::SeqCst)
    }

    /// Spin until the node's loop has published that it is parked.
    fn wait_until_parked(node: &RemoteRuntimeNode) {
        let deadline = Instant::now() + WATCHDOG;
        while !node.shared.parked.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "the loop never parked");
            std::thread::yield_now();
        }
    }

    /// Let real time pass without sleeping: a few hundred round trips
    /// through a node of its own take tens of milliseconds, in which
    /// a loop that spins instead of parking makes thousands of sweeps.
    fn pass_time() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        for i in 0..500 {
            worker.forward_request(&request(i, 1.0)).expect("served");
        }
    }

    #[test]
    fn shutdown_wakes_a_parked_node_and_joins_every_thread() {
        let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        // An idle client connection that never sends anything must
        // not pin shutdown, and shutdown must close it.
        let idle = TcpStream::connect(node.local_addr()).expect("connects");
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            drain(&idle);
            let _ = closed_tx.send(());
        });
        wait_until_parked(&node);
        let node = under_watchdog(move || {
            node.shutdown();
            node.shutdown(); // idempotent
            node
        });
        assert!(node.runtime().client().call(request(1, 1.0)).is_err());
        closed_rx
            .recv_timeout(WATCHDOG)
            .expect("node shutdown must close idle connections");
        reader.join().expect("joins");
    }

    #[test]
    fn sequential_forwards_never_lose_a_wake_up_and_cost_bounded_sweeps() {
        // A second node with a live but silent connection: it must
        // not iterate at all while the first one is busy.
        let idle = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let idle_worker = RemoteWorker::new(&idle.local_addr().to_string());
        idle_worker
            .forward_request(&request(1, 1.0))
            .expect("served");
        wait_until_parked(&idle);
        let idle_before = sweeps(&idle);

        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        worker.forward_request(&request(0, 0.0)).expect("dials");
        wait_until_parked(&node);
        let before = sweeps(&node);
        // Each forward is issued after the previous reply, so the
        // node parks in between — once per request, waiting for its
        // bytes: the sweep that reads and admits them, and the next
        // leader's idle sweep before the park. The completion is
        // written through by the thread that ran it and never comes
        // back to the poll set.
        const N: u64 = 4000;
        let worker = under_watchdog(move || {
            for i in 1..=N {
                let reply = worker
                    .forward_request(&request(i, i as f64))
                    .expect("served");
                assert_eq!(reply.response.scores, vec![2.0 * i as f64]);
            }
            worker
        });
        assert_eq!(worker.stats().failures, 0);
        assert_eq!(worker.stats().reconnects, 0);
        let spent = sweeps(&node) - before;
        assert!(spent <= 2 * N + 8, "{spent} sweeps for {N} requests");

        assert_eq!(sweeps(&idle), idle_before, "an idle node must not iterate");
        assert!(idle.shared.parked.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_forwards_never_lose_a_wake_up() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let worker = Arc::new(RemoteWorker::new(&node.local_addr().to_string()));
        const THREADS: u64 = 4;
        const N: u64 = 1000;
        let stats = under_watchdog(move || {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let worker = Arc::clone(&worker);
                    s.spawn(move || {
                        for i in 0..N {
                            let x = (t * N + i) as f64;
                            let reply = worker
                                .forward_request(&request(t * N + i, x))
                                .expect("served");
                            assert_eq!(reply.response.scores, vec![2.0 * x]);
                        }
                    });
                }
            });
            worker.stats()
        });
        assert_eq!(stats.forwards, THREADS * N);
        assert_eq!(stats.failures, 0);
        assert_eq!(node.transport_stats().forwards, THREADS * N);
    }

    /// The sum of the largest send and receive buffers TCP may grow a
    /// socket to: more unread bytes than this cannot be in flight.
    fn tcp_buffer_ceiling() -> usize {
        ["tcp_wmem", "tcp_rmem"]
            .iter()
            .map(|name| {
                std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
                    .expect("readable")
                    .split_whitespace()
                    .nth(2)
                    .and_then(|max| max.parse::<usize>().ok())
                    .expect("min default max")
            })
            .sum()
    }

    #[test]
    fn a_slow_reader_gets_every_byte_through_write_interest() {
        /// Fails every request with a long message made of its `x`:
        /// the cheapest way to a large response that names its
        /// request.
        struct Verbose(usize);
        fn message(x: f64, len: usize) -> String {
            let unit = format!("<{x}>");
            let mut message = unit.repeat(len / unit.len() + 1);
            message.truncate(len);
            message
        }
        impl Servable for Verbose {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                let xs = table.column("x").expect("x").to_f64_vec().expect("floats");
                Err(message(xs[0], self.0))
            }
        }
        const MESSAGE: usize = 1 << 18;
        // Four runtime workers complete requests of one connection
        // side by side, so its write half is contended.
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(4).build());
        b.endpoint("verbose", Arc::new(Verbose(MESSAGE))).shards(4);
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");

        // At least 64 requests in flight at once, and more response
        // bytes than the socket pair can buffer, to a client that
        // reads nothing until all of them are produced.
        let frames = (tcp_buffer_ceiling() / MESSAGE + 2).max(64) as u32;
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        for mux_id in 1..=frames {
            let req = Request {
                endpoint: Some("verbose".to_string()),
                ..request(1, f64::from(mux_id))
            };
            let payload = encode_request_payload(&req);
            let frame = encode_frame(FrameType::BinRequest, mux_id, &payload).expect("encodes");
            writer.write_all(&frame).expect("writes");
        }
        let deadline = Instant::now() + WATCHDOG;
        while node.transport_stats().forwards < u64::from(frames) {
            assert!(Instant::now() < deadline, "requests never completed");
            std::thread::yield_now();
        }
        let produced = u64::from(frames) * MESSAGE as u64;
        assert!(
            node.transport_stats().bytes_sent < produced,
            "the responses must not fit the socket buffers"
        );
        assert!(node.transport_stats().max_in_flight >= 64);

        // Blocked on a full socket, the loop waits for writability:
        // at most a few sweeps per completion, then none.
        let before = sweeps(&node);
        pass_time();
        let spent = sweeps(&node) - before;
        assert!(
            spent <= 4 * u64::from(frames) + 8,
            "{spent} sweeps while blocked on a full socket"
        );

        // Every frame arrives whole — a frame torn by another would
        // break the framing or the message — and once per mux id.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..frames {
            let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
            assert_eq!(hdr.frame_type, FrameType::BinResponse);
            assert!(seen.insert(hdr.request_id), "mux id answered twice");
            let resp = decode_response_payload(&payload).expect("decodes");
            let expected = message(f64::from(hdr.request_id), MESSAGE);
            assert!(resp.error.is_some_and(|e| e == expected), "torn message");
        }
        assert!(node.transport_stats().bytes_sent > produced);
    }

    /// Blocks inside `predict_table` until released; once the release
    /// sender is dropped every call passes straight through. On entry
    /// it sends the name of the thread running it.
    struct Gated {
        entered: Sender<String>,
        release: Receiver<()>,
    }
    impl Servable for Gated {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let thread = std::thread::current();
            let _ = self
                .entered
                .send(thread.name().unwrap_or_default().to_string());
            let _ = self.release.recv();
            Scaler(2.0).predict_table(table)
        }
    }

    /// A node serving `scale` through a [`Gated`] doubler, the receiver
    /// of its `entered` signals, and the release sender. Bind them in
    /// this order: the sender is then dropped before the node, so a
    /// failing assertion cannot leave the node's drop joining a thread
    /// that still waits at the gate.
    fn gated_node(config: ServerConfig) -> (RemoteRuntimeNode, Receiver<String>, Sender<()>) {
        let (entered_tx, entered_rx) = unbounded();
        let (release_tx, release_rx) = unbounded();
        let mut b = ServingRuntime::builder();
        b.config(config);
        b.endpoint(
            "scale",
            Arc::new(Gated {
                entered: entered_tx,
                release: release_rx,
            }),
        );
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");
        (node, entered_rx, release_tx)
    }

    fn bin_frame(mux_id: u32, req: &Request) -> Vec<u8> {
        encode_frame(FrameType::BinRequest, mux_id, &encode_request_payload(req)).expect("encodes")
    }

    /// Read one response frame: its mux id and the decoded response.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u32, Response) {
        let (hdr, payload) = read_frame(reader).expect("frame").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::BinResponse);
        (
            hdr.request_id,
            decode_response_payload(&payload).expect("decodes"),
        )
    }

    #[test]
    fn a_closed_peer_with_work_in_flight_does_not_spin_the_loop() {
        let (node, entered_rx, release_tx) = gated_node(ServerConfig::builder().workers(1).build());

        // Send one request, wait until a worker holds it, hang up.
        let (mut writer, reader) = raw_wire2_client(node.local_addr());
        writer
            .write_all(&bin_frame(1, &request(1, 1.0)))
            .expect("writes");
        entered_rx.recv_timeout(WATCHDOG).expect("dispatched");
        drop((writer, reader));

        // The connection now drains with nothing to read or write and
        // one request in flight: the loop has no business with it,
        // and its hang-up must not keep ending the park.
        let before = sweeps(&node);
        pass_time();
        let spent = sweeps(&node) - before;
        assert!(spent <= 8, "{spent} sweeps over a hung-up connection");

        // The completion still finds the loop, and the node serves on
        // (one release for the abandoned request, one for the next).
        release_tx.send(()).expect("releases");
        release_tx.send(()).expect("releases");
        let worker = RemoteWorker::new(&node.local_addr().to_string());
        let reply = under_watchdog(move || worker.forward_request(&request(2, 4.0)));
        assert_eq!(reply.expect("served").response.scores, vec![8.0]);
    }

    #[test]
    fn a_sweep_never_waits_for_a_completion_inside_its_write() {
        under_watchdog(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
            let peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
            let (stream, _) = listener.accept().expect("accepts");
            stream.set_nonblocking(true).expect("nonblocking");
            let conn = NodeConn::new(stream);
            let counters = TransportCounters::default();

            // A completion in the middle of its `write` holds the
            // outbox. What the loop asks of the connection on every
            // sweep must be answered without it: taking the lock here
            // would hang this thread on itself.
            let writing = conn.shared.out.lock();
            assert!(!conn.finished(&counters));
            assert!(matches!(conn.interest(), Some(Interest::Read)));
            drop(writing);

            // An answer the socket takes whole leaves no backlog...
            assert!(!conn.shared.send(b"whole", &counters));
            assert!(!conn.shared.backlog.load(Ordering::SeqCst));
            // ...one it cannot take does, until the loop has flushed it.
            let big = vec![7u8; tcp_buffer_ceiling() + 1024];
            assert!(conn.shared.send(&big, &counters));
            assert!(matches!(conn.interest(), Some(Interest::ReadWrite)));
            let reader = std::thread::spawn(move || {
                let mut got = Vec::new();
                (&peer)
                    .take((5 + big.len()) as u64)
                    .read_to_end(&mut got)
                    .expect("reads");
                got.len()
            });
            while conn.shared.backlog.load(Ordering::SeqCst) {
                assert!(!conn.finished(&counters));
                std::thread::yield_now();
            }
            assert_eq!(
                reader.join().expect("joins"),
                5 + tcp_buffer_ceiling() + 1024
            );
            assert!(matches!(conn.interest(), Some(Interest::Read)));

            // A dead socket is a backlog too: the sweep that sees it
            // closes the connection.
            conn.shared.close();
            assert!(conn.finished(&counters));
        });
    }

    #[test]
    fn a_dropped_connections_answer_never_reaches_its_successor() {
        under_watchdog(|| {
            let (node, entered_rx, release_tx) =
                gated_node(ServerConfig::builder().workers(1).build());
            // One request, held at the gate; then garbage, which gets
            // the connection dropped on the spot — work in flight and
            // all. The hang-up is how the old peer knows it happened.
            let (mut old_writer, mut old_reader) = raw_wire2_client(node.local_addr());
            old_writer
                .write_all(&bin_frame(1, &request(1, 1.0)))
                .expect("writes");
            entered_rx.recv_timeout(WATCHDOG).expect("admitted");
            old_writer
                .write_all(&[0xFFu8; WIRE2_HEADER_LEN])
                .expect("writes");
            assert!(matches!(read_frame(&mut old_reader), Ok(None)));

            // A new connection takes over the freed slot — and, with
            // the old peer gone, its descriptor — and reuses the very
            // mux id still in flight.
            drop((old_writer, old_reader));
            let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
            writer
                .write_all(&bin_frame(1, &request(10, 5.0)))
                .expect("writes");
            writer
                .write_all(&bin_frame(2, &request(11, 6.0)))
                .expect("writes");
            drop(release_tx);

            // The abandoned request completes first (one worker, FIFO);
            // were its answer routed by slot or descriptor, the new
            // peer would read `[2.0]` under mux id 1.
            let mut answers = HashMap::new();
            for _ in 0..2 {
                let (mux_id, resp) = read_response(&mut reader);
                assert!(answers.insert(mux_id, (resp.id, resp.scores)).is_none());
            }
            assert_eq!(answers[&1], (10, vec![10.0]));
            assert_eq!(answers[&2], (11, vec![12.0]));
            assert_eq!(node.transport_stats().forwards, 3);
        });
    }

    #[test]
    fn a_saturated_queue_never_blocks_the_loop() {
        for workers in [1, 2] {
            under_watchdog(move || saturate(workers));
        }
    }

    /// [`a_saturated_queue_never_blocks_the_loop`] on `workers` workers.
    fn saturate(workers: usize) {
        // One request fits each slot, and the queue takes one more;
        // every other one has to wait its turn somewhere that is not
        // the thread holding the poll set.
        let (node, entered_rx, release_tx) = gated_node(
            ServerConfig::builder()
                .workers(workers)
                .queue_capacity(1)
                .max_batch_requests(1)
                .build(),
        );
        const REQUESTS: u32 = 32;
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        let mut sent = node.transport_stats().bytes_received;
        for mux_id in 1..=REQUESTS {
            let frame = bin_frame(mux_id, &request(u64::from(mux_id), f64::from(mux_id)));
            sent += frame.len() as u64;
            writer.write_all(&frame).expect("writes");
        }
        for _ in 0..workers {
            let runs_on = entered_rx.recv_timeout(WATCHDOG).expect("admitted");
            assert!(runs_on.starts_with("willump-"), "ran on {runs_on:?}");
        }
        while node.transport_stats().bytes_received < sent {
            std::thread::yield_now();
        }

        // The leader has taken in all of them, and every slot holds
        // one the servable has not let go of: a control frame on a
        // second connection is answered all the same, by the leader
        // itself.
        let (mut control, mut control_reader) = raw_wire2_client(node.local_addr());
        control
            .write_all(&bin_frame(7, &Request::counters_probe(99)))
            .expect("writes");
        let (mux_id, resp) = read_response(&mut control_reader);
        assert_eq!((mux_id, resp.id), (7, 99));
        assert!(resp.counters.is_some() && resp.error.is_none());
        assert_eq!(node.transport_stats().forwards, 1, "only the probe is done");
        // All of them — and, for a moment, the probe — in flight.
        assert_eq!(
            node.transport_stats().max_in_flight,
            u64::from(REQUESTS) + 1
        );

        // Released, every queued request is answered exactly once.
        drop(release_tx);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..REQUESTS {
            let (mux_id, resp) = read_response(&mut reader);
            assert!(seen.insert(mux_id), "mux id answered twice");
            assert_eq!(resp.scores, vec![2.0 * f64::from(mux_id)]);
        }
        assert_eq!(node.transport_stats().forwards, u64::from(REQUESTS) + 1);
    }

    #[test]
    fn a_frame_forwarded_onward_does_not_delay_one_served_here() {
        /// A downstream that accepts a forward and never answers it:
        /// the forward fails once the test lets go.
        struct Stuck {
            entered: Sender<()>,
            release: Receiver<()>,
        }
        impl WorkerTransport for Stuck {
            fn forward_request(&self, _: &Request) -> Result<ForwardReply, ServeError> {
                let _ = self.entered.send(());
                let _ = self.release.recv();
                Err(ServeError::Transport("downstream is dead".to_string()))
            }
            fn describe(&self) -> String {
                "stuck".to_string()
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
        }
        under_watchdog(|| {
            let (entered_tx, entered_rx) = unbounded();
            let (release_tx, release_rx) = unbounded::<()>();
            let mut b = ServingRuntime::builder();
            b.config(ServerConfig::builder().workers(1).build());
            b.endpoint("scale", Arc::new(Scaler(2.0)))
                .shards(1)
                .shard_transport(Arc::new(Stuck {
                    entered: entered_tx,
                    release: release_rx,
                }));
            let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");
            // Shard 1 of the endpoint's two is the remote one.
            let key = (0..)
                .map(|i| format!("k{i}"))
                .find(|k| crate::shard_for_key(k, 2) == 1)
                .expect("some key routes to the remote shard");

            // A plain frame routed to the remote shard: its forward
            // blocks on the downstream, on a runtime thread.
            let (mut plain, mut plain_reader) = raw_wire2_client(node.local_addr());
            let onward = Request {
                key: Some(key),
                ..request(1, 3.0)
            };
            plain.write_all(&bin_frame(1, &onward)).expect("writes");
            entered_rx.recv_timeout(WATCHDOG).expect("forwarded onward");

            // A forwarded frame can only be served here, and is —
            // while the other still hangs.
            let (mut pinned, mut pinned_reader) = raw_wire2_client(node.local_addr());
            let here = Request {
                forwarded: true,
                ..request(2, 4.0)
            };
            pinned.write_all(&bin_frame(1, &here)).expect("writes");
            let (_, resp) = read_response(&mut pinned_reader);
            assert_eq!((resp.id, resp.scores), (2, vec![8.0]));
            assert_eq!(node.transport_stats().forwards, 1);

            // The downstream gives up; the plain frame fails over to
            // the local shard and is answered after all.
            drop(release_tx);
            let (_, resp) = read_response(&mut plain_reader);
            assert_eq!((resp.id, resp.scores), (1, vec![6.0]));
            assert_eq!(node.runtime().stats().failovers(), 1);
        });
    }

    #[test]
    fn pipelined_frames_split_across_reads_are_reassembled_in_place() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // Many frames in one write, then one frame dribbled a few
        // bytes at a time: the cursor and the once-per-sweep
        // compaction must keep every frame boundary.
        const FRAMES: u32 = 300;
        let mut wire = Vec::new();
        for mux_id in 1..=FRAMES {
            let payload = encode_request_payload(&request(u64::from(mux_id), f64::from(mux_id)));
            wire.extend(encode_frame(FrameType::BinRequest, mux_id, &payload).expect("encodes"));
        }
        let split = wire.len() - 7;
        writer.write_all(&wire[..split]).expect("writes");
        let mut scores = HashMap::new();
        let mut collect = |n: u32| {
            for _ in 0..n {
                let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
                let resp = decode_response_payload(&payload).expect("decodes");
                scores.insert(hdr.request_id, resp.scores);
            }
        };
        collect(FRAMES - 1);
        for byte in &wire[split..] {
            writer.write_all(&[*byte]).expect("writes");
        }
        collect(1);
        for mux_id in 1..=FRAMES {
            assert_eq!(scores[&mux_id], vec![2.0 * f64::from(mux_id)]);
        }
        assert_eq!(node.transport_stats().decode_errors, 0);
    }

    /// A stand-in for a node that predates wire2, serving
    /// `connections` connections one after another. It reads
    /// newline-delimited JSON, so the only line it ever gets — the
    /// preamble — is answered with a JSON decode-error line.
    fn spawn_legacy_node(connections: usize) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let node = std::thread::spawn(move || {
            for stream in listener.incoming().take(connections) {
                let stream = stream.expect("accepts");
                let mut writer = stream.try_clone().expect("clones");
                for line in BufReader::new(stream).lines() {
                    if line.is_err()
                        || writer
                            .write_all(b"{\"id\":0,\"scores\":[],\"error\":\"expected value\"}\n")
                            .is_err()
                    {
                        break;
                    }
                }
            }
        });
        (addr, node)
    }

    /// A peer that answers the preamble with anything but a `HelloAck`
    /// is not fallen back to: the forward fails, is counted, and feeds
    /// the circuit breaker like an unreachable node.
    #[test]
    fn v2_client_falls_back_to_a_legacy_node() {
        under_watchdog(|| {
            let (addr, legacy) = spawn_legacy_node(2);
            let worker = RemoteWorker::new(&addr.to_string())
                .with_timeout(Duration::from_secs(5))
                .with_breaker(2, Duration::from_secs(600));
            match worker.forward_request(&request(3, 4.0)) {
                Err(ServeError::Transport(msg)) => assert!(msg.contains("handshake"), "got: {msg}"),
                other => panic!("expected a transport error, got {other:?}"),
            }
            let stats = worker.stats();
            assert_eq!((stats.forwards, stats.failures), (0, 1));
            assert_eq!(worker.state(), BreakerState::Closed);
            // The second refusal opens the breaker; the third forward
            // fails fast without dialing.
            assert!(worker.forward_request(&request(4, 1.0)).is_err());
            assert_eq!(worker.state(), BreakerState::Open);
            match worker.forward_request(&request(5, 1.0)) {
                Err(ServeError::Transport(msg)) => {
                    assert!(msg.contains("circuit open"), "got: {msg}");
                }
                other => panic!("expected an open-circuit error, got {other:?}"),
            }
            assert_eq!(worker.stats().failures, 3);
            legacy.join().expect("the stand-in served both dials");
        });
    }

    #[test]
    fn a_node_refuses_a_connection_that_does_not_open_with_the_preamble() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        // A newline-JSON request line where the preamble belongs: the
        // node hangs up without serving it.
        let legacy = TcpStream::connect(node.local_addr()).expect("connects");
        legacy.set_read_timeout(Some(WATCHDOG)).expect("timeout");
        (&legacy)
            .write_all(b"{\"id\":1,\"rows\":[[[\"x\",{\"Float\":1.0}]]]}\n")
            .expect("writes");
        let mut reply = Vec::new();
        if let Err(e) = (&legacy).read_to_end(&mut reply) {
            assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
        }
        assert!(reply.is_empty(), "a refused connection gets no answer");
        assert_eq!(node.transport_stats().decode_errors, 1);
        assert_eq!(node.runtime().stats().requests(), 0);

        // After the handshake, frame types 3 and 4 are unassigned: a
        // header carrying one drops the connection like any corrupt
        // header.
        for unassigned in [3u8, 4] {
            let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
            let mut frame = encode_frame(FrameType::BinRequest, 1, b"{}").expect("encodes");
            frame[2] = unassigned;
            writer.write_all(&frame).expect("writes");
            assert!(matches!(read_frame(&mut reader), Ok(None)));
        }
        assert_eq!(node.transport_stats().decode_errors, 3);
        assert_eq!(node.runtime().stats().requests(), 0);
    }

    /// Connect a raw wire2 client: send the preamble, consume the
    /// HelloAck, and return the negotiated stream halves.
    fn raw_wire2_client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        writer.write_all(WIRE2_PREAMBLE).expect("preamble");
        let (hdr, _) = read_frame(&mut reader).expect("ack").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::HelloAck);
        (writer, reader)
    }

    #[test]
    fn oversized_frames_get_an_in_band_error_then_the_connection_drains() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // A header whose magic/version/type are intact but whose
        // length prefix exceeds the bound: the node must refuse to
        // allocate, answer in band on the frame's mux id, and drain.
        let header = encode_header(FrameType::BinRequest, 9, MAX_FRAME_PAYLOAD + 1);
        writer.write_all(&header).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::BinResponse);
        assert_eq!(hdr.request_id, 9);
        let resp = decode_response_payload(&payload).expect("decodes");
        let err = resp.error.expect("is an error");
        assert!(err.contains("exceeds"), "got: {err}");
        // The connection drains after the error.
        assert!(matches!(read_frame(&mut reader), Ok(None)));
        assert_eq!(node.transport_stats().decode_errors, 1);
    }

    #[test]
    fn corrupt_frames_drop_the_connection() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(1.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // Garbage where a header should be: the stream cannot be
        // resynchronized, so the node hangs up.
        writer
            .write_all(&[0xFFu8; WIRE2_HEADER_LEN])
            .expect("writes");
        assert!(matches!(read_frame(&mut reader), Ok(None)));
        assert_eq!(node.transport_stats().decode_errors, 1);
    }

    #[test]
    fn undecodable_binary_payloads_fail_in_band_without_dropping() {
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime(2.0)).expect("binds");
        let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
        // Framing intact, payload garbage: only this request fails.
        let bad = encode_frame(FrameType::BinRequest, 5, &[0xAB; 16]).expect("encodes");
        writer.write_all(&bad).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(
            (hdr.frame_type, hdr.request_id),
            (FrameType::BinResponse, 5)
        );
        let resp = decode_response_payload(&payload).expect("decodes");
        assert!(resp.error.expect("is an error").contains("decode failed"));
        // The connection is still in service for well-formed frames.
        let good = encode_frame(
            FrameType::BinRequest,
            6,
            &encode_request_payload(&request(6, 3.0)),
        )
        .expect("encodes");
        writer.write_all(&good).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(hdr.request_id, 6);
        let resp = decode_response_payload(&payload).expect("decodes");
        assert_eq!(resp.scores, vec![6.0]);
        assert_eq!(node.transport_stats().decode_errors, 1);
        // The runtime behind the node counts the undecodable frame as
        // a request that failed to decode.
        let stats = node.runtime().stats();
        assert_eq!((stats.requests(), stats.decode_errors()), (2, 1));
    }

    /// A scored response to request `id`.
    fn scored(id: u64, scores: Vec<f64>) -> Response {
        Response {
            scores,
            error: None,
            ..Response::failure(id, "")
        }
    }

    /// A stand-in node that serves connections one after another:
    /// `serve` gets each one after the wire2 handshake and returns
    /// whether to wait for another. Returns what `serve` returned last.
    fn fake_node(
        mut serve: impl FnMut(TcpStream) -> Option<u32> + Send + 'static,
    ) -> (String, JoinHandle<u32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr").to_string();
        let node = std::thread::spawn(move || loop {
            let (mut stream, _) = listener.accept().expect("accepts");
            let mut preamble = vec![0u8; WIRE2_PREAMBLE.len()];
            stream.read_exact(&mut preamble).expect("preamble");
            assert_eq!(preamble, WIRE2_PREAMBLE);
            let ack = encode_frame(FrameType::HelloAck, 0, &[]).expect("encodes");
            stream.write_all(&ack).expect("acks");
            if let Some(out) = serve(stream) {
                return out;
            }
        });
        (addr, node)
    }

    /// Read one request frame: its header.
    fn read_request(stream: &mut TcpStream) -> crate::wire2::FrameHeader {
        let (hdr, _) = read_frame(stream).expect("frame").expect("not eof");
        assert_eq!(hdr.frame_type, FrameType::BinRequest);
        hdr
    }

    #[test]
    fn a_forward_that_times_out_mid_frame_leaves_the_stream_whole() {
        under_watchdog(|| {
            let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel::<()>();
            let (addr, node) = fake_node(move |mut stream| {
                // Half of the answer to forward 1, then nothing until
                // it has given up.
                let first = read_request(&mut stream);
                let late = encode_response_frame(first.request_id, &scored(1, vec![2.0]))
                    .expect("encodes");
                let half = late.len() / 2;
                stream.write_all(&late[..half]).expect("writes");
                timed_out_rx.recv().expect("forward 1 gave up");
                // The rest of it, then forward 2's answer.
                let second = read_request(&mut stream);
                stream.write_all(&late[half..]).expect("writes");
                let answer = encode_response_frame(second.request_id, &scored(2, vec![6.0]))
                    .expect("encodes");
                stream.write_all(&answer).expect("writes");
                // Until the worker hangs up: a frame resent would show.
                let mut frames = 2;
                while let Ok(Some(_)) = read_frame(&mut stream) {
                    frames += 1;
                }
                Some(frames)
            });
            let worker = RemoteWorker::new(&addr).with_timeout(Duration::from_millis(300));
            match worker.forward_request(&request(1, 1.0)) {
                Err(ServeError::Transport(msg)) => assert!(msg.contains("timed out"), "{msg}"),
                other => panic!("expected a timeout, got {other:?}"),
            }
            timed_out_tx.send(()).expect("sends");
            // The bytes of answer 1 read so far stay buffered: answer 2
            // is framed behind the rest of it, which is discarded by mux
            // id.
            let reply = worker.forward_request(&request(2, 3.0)).expect("served");
            assert_eq!((reply.response.id, reply.response.scores), (2, vec![6.0]));
            let stats = worker.stats();
            assert_eq!((stats.forwards, stats.failures), (1, 1));
            assert_eq!((stats.reconnects, stats.decode_errors), (0, 0));
            drop(worker);
            assert_eq!(node.join().expect("joins"), 2, "a request was resent");
        });
    }

    #[test]
    fn the_reading_turn_survives_answers_out_of_order() {
        /// Every other prediction takes a millisecond, so answers
        /// overtake each other on the connection.
        struct EveryOtherSlow(AtomicUsize);
        impl Servable for EveryOtherSlow {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                if self.0.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Scaler(2.0).predict_table(table)
            }
        }
        const THREADS: u64 = 4;
        const N: u64 = 250;
        let stats = under_watchdog(|| {
            let mut b = ServingRuntime::builder();
            b.config(ServerConfig::builder().workers(4).build());
            b.endpoint("scale", Arc::new(EveryOtherSlow(AtomicUsize::new(0))))
                .shards(4);
            let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().unwrap()).expect("binds");
            let worker = RemoteWorker::new(&node.local_addr().to_string());
            // Were the turn ever lost, the forwards waiting when it was
            // would hang until the watchdog.
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let worker = &worker;
                    s.spawn(move || {
                        for i in 0..N {
                            let x = (t * N + i) as f64;
                            assert_eq!(scores(worker, t * N + i, x), vec![2.0 * x]);
                        }
                    });
                }
            });
            worker.stats()
        });
        assert_eq!((stats.forwards, stats.failures), (THREADS * N, 0));
        assert!(stats.max_in_flight >= 2, "forwards overlapped");
    }

    #[test]
    fn a_probe_that_returns_first_leaves_the_breaker_probing() {
        under_watchdog(|| {
            let (answer_tx, answer_rx) = std::sync::mpsc::channel::<()>();
            let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
            let mut dials = 0;
            let (addr, node) = fake_node(move |mut stream| {
                dials += 1;
                let first = read_request(&mut stream);
                if dials == 1 {
                    // The forward: hung up on, which opens the breaker.
                    return None;
                }
                // Two probes, held; the first gets an undecodable
                // answer (a failed probe), the second a good one.
                let second = read_request(&mut stream);
                held_tx.send(()).expect("both probes are held");
                answer_rx.recv().expect("answer the first");
                let bad = encode_frame(FrameType::BinResponse, first.request_id, &[0xAB; 8])
                    .expect("encodes");
                stream.write_all(&bad).expect("writes");
                answer_rx.recv().expect("answer the second");
                let good = encode_response_frame(second.request_id, &scored(7, Vec::new()))
                    .expect("encodes");
                stream.write_all(&good).expect("writes");
                drain(&stream);
                Some(dials)
            });
            let worker = RemoteWorker::new(&addr)
                .with_timeout(Duration::from_secs(30))
                .with_breaker(1, Duration::from_secs(600));
            assert!(worker.forward_request(&request(1, 1.0)).is_err());
            assert_eq!(worker.breaker_state(), BreakerState::Open);
            std::thread::scope(|s| {
                let probe = || worker.forward_probe(&Request::counters_probe(7));
                let probes = [s.spawn(probe), s.spawn(probe)];
                held_rx
                    .recv_timeout(WATCHDOG)
                    .expect("both probes went out");
                let deadline = Instant::now() + WATCHDOG;
                assert_eq!(worker.breaker_state(), BreakerState::Probing);
                answer_tx.send(()).expect("sends");
                while !probes.iter().any(|p| p.is_finished()) {
                    assert!(Instant::now() < deadline, "no probe returned");
                    std::thread::yield_now();
                }
                // One probe failed and returned; the other is still in
                // flight, so the breaker lets trial traffic through.
                assert_eq!(worker.breaker_state(), BreakerState::Probing);
                answer_tx.send(()).expect("sends");
                let results: Vec<bool> = probes
                    .into_iter()
                    .map(|p| p.join().expect("joins").is_ok())
                    .collect();
                assert_eq!(results.iter().filter(|ok| **ok).count(), 1);
            });
            // The successful probe closed the breaker.
            assert_eq!(worker.breaker_state(), BreakerState::Closed);
            drop(worker);
            assert_eq!(node.join().expect("joins"), 2);
        });
    }

    #[test]
    fn with_every_slot_held_by_the_thread_that_read_its_request_a_probe_is_answered() {
        for workers in [1, 2] {
            under_watchdog(move || {
                let (node, entered_rx, release_tx) =
                    gated_node(ServerConfig::builder().workers(workers).build());
                // One request per slot, each alone on its connection and
                // sent once the one before holds its slot: each runs on
                // the thread that read it.
                let mut clients = Vec::new();
                for mux_id in 1..=workers as u32 {
                    let (mut writer, reader) = raw_wire2_client(node.local_addr());
                    writer
                        .write_all(&bin_frame(mux_id, &request(1, f64::from(mux_id))))
                        .expect("writes");
                    let runs_on = entered_rx.recv_timeout(WATCHDOG).expect("admitted");
                    assert!(runs_on.starts_with("willump-"), "ran on {runs_on:?}");
                    clients.push((writer, reader, mux_id));
                }
                assert_eq!(
                    node.runtime().stats().worker_batches().iter().sum::<u64>(),
                    workers as u64
                );
                // The thread beyond the workers holds the poll set.
                let (mut control, mut control_reader) = raw_wire2_client(node.local_addr());
                control
                    .write_all(&bin_frame(7, &Request::counters_probe(99)))
                    .expect("writes");
                let (mux_id, resp) = read_response(&mut control_reader);
                assert_eq!((mux_id, resp.id), (7, 99));
                drop(release_tx);
                for (_writer, mut reader, sent) in clients {
                    let (mux_id, resp) = read_response(&mut reader);
                    assert_eq!((mux_id, resp.scores), (sent, vec![2.0 * f64::from(sent)]));
                }
            });
        }
    }

    #[test]
    fn a_request_runs_on_the_thread_that_read_it_while_another_leads() {
        under_watchdog(|| {
            let (node, entered_rx, release_tx) =
                gated_node(ServerConfig::builder().workers(1).build());
            let (mut writer, mut reader) = raw_wire2_client(node.local_addr());
            writer
                .write_all(&bin_frame(1, &request(1, 1.0)))
                .expect("writes");
            // The worker had nothing queued and the slot was free: the
            // thread that read the request runs it...
            let runs_on = entered_rx.recv_timeout(WATCHDOG).expect("admitted");
            assert!(runs_on.starts_with("willump-"), "ran on {runs_on:?}");
            // ...having handed the poll set to another, which answers a
            // probe while the servable is held.
            let (mut control, mut control_reader) = raw_wire2_client(node.local_addr());
            control
                .write_all(&bin_frame(7, &Request::counters_probe(99)))
                .expect("writes");
            let (mux_id, resp) = read_response(&mut control_reader);
            assert_eq!((mux_id, resp.id), (7, 99));
            drop(release_tx);
            let (mux_id, resp) = read_response(&mut reader);
            assert_eq!((mux_id, resp.scores), (1, vec![2.0]));
            assert_eq!(node.runtime().stats().worker_batches(), vec![1]);
        });
    }
}
