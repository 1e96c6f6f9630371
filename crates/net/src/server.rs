//! The threaded TCP server wrapping one [`AllocationService`].
//!
//! # Architecture
//!
//! Three thread roles, all on `std::net` (the build environment has no
//! async runtime):
//!
//! * one **acceptor** polls the listener and spawns a reader per
//!   connection;
//! * one **reader per connection** reassembles JSONL frames
//!   ([`FrameBuffer`]), parses each line with the shared
//!   [`parse_request_line`], answers parse errors, backpressure sheds
//!   and most introspection requests directly, and enqueues everything
//!   else;
//! * one **service thread** owns the [`AllocationService`] and the
//!   [`CommitLog`] and executes queued requests strictly in arrival
//!   order.
//!
//! Every internal lock is taken through a poison-recovering helper: a
//! reader thread that panics mid-request degrades its own connection,
//! never the server (pinned by a regression test below).
//!
//! # Request tracing
//!
//! Every request line carries a [`TraceId`] — the client's top-level
//! `"trace"` field when present and valid hex, a deterministic
//! server-derived id otherwise — echoed back as a `"trace"` field on
//! *every* response kind. A [`RequestTrace`] follows the request
//! through parse → queue → execute, collecting the allocator's flow
//! events plus queue-wait / deadline-remaining / escalation-depth /
//! warm-cache-hit annotations, and is recorded into the shared
//! [`FlightRecorder`] when the response is written. Anomalous requests
//! (shed, deadline, rejection, parse error, or latency above
//! [`ServerOptions::slow_threshold`]) are pinned so they survive ring
//! eviction.
//!
//! # Introspection dialect
//!
//! A line of the form `{"kind":"introspect","what":...}` is answered
//! on the same connection without touching the commit log:
//!
//! | `what` | answer |
//! |---|---|
//! | `"metrics"` | full [`MetricsSnapshot`](sdfrs_core::MetricsSnapshot) JSON under `"metrics"` |
//! | `"health"` | queue depth, watermark, live connections, drain state, recorder counters, commit-log write failures |
//! | `"sessions"` | live-session summary (routed through the service thread for a consistent view) |
//! | `"traces"` | recent + pinned flight-recorder entries |
//!
//! Introspection requests count toward `net_requests_received` (so
//! `serve --max-requests` sees them) and `net_introspects`, but never
//! the latency or queue-depth histograms.
//!
//! # Determinism contract
//!
//! Concurrency never changes what a committed state *is* — only which
//! requests commit. Every committed mutation (and nothing else) is
//! appended to the commit log by [`AllocationService::execute_logged`];
//! shed, expired, malformed and rejected requests never reach it, and
//! trace ids, timestamps and introspection never influence what a
//! request computes. Because session ids are assigned in commit order
//! on both sides, replaying the log through a fresh sequential service
//! ([`sdfrs_core::service::replay_commit_log`]) reproduces the live
//! server's residual [`PlatformState`](sdfrs_platform::PlatformState)
//! byte-for-byte — conform oracle 8 pins this over a real loopback
//! socket.
//!
//! # Typed failure responses
//!
//! | condition | response |
//! |---|---|
//! | queue at watermark | `{"id":K,"ok":false,"kind":"overloaded","queue_depth":D,...}` |
//! | waited past deadline | `{"id":K,"ok":false,"kind":"deadline",...}` |
//! | slow-loris partial line | `{"id":K,"ok":false,"kind":"deadline","detail":"..."}`, then close |
//! | malformed line | `{"id":K,"ok":false,"kind":"parse",...}` (connection stays open) |
//! | oversize / non-UTF-8 frame | `kind":"parse"` response, then close |

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdfrs_core::metrics::{Histogram, HistogramSnapshot, Metrics};
use sdfrs_core::service::{
    parse_request_line, peek_request_meta, AllocationService, CommitLog, ServiceRequest,
    ServiceStatus,
};
use sdfrs_core::trace::{FlightRecorder, RequestTrace, TraceId, TraceOutcome};

use crate::wire::{FrameBuffer, FrameError, DEFAULT_MAX_LINE_BYTES};

/// Queue-depth-at-enqueue histogram bounds (requests already waiting
/// when one more arrives).
pub const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// How often blocked reads and queue waits wake up to poll the
/// shutdown flag and the slow-loris deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Locks a mutex, recovering from poisoning: the protected data
/// (queue, write half, recorder slot) stays structurally valid under
/// every panic point we have, so a panicked holder must degrade only
/// itself — never cascade a crash through every other connection.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tunables of one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Per-request deadline, measured from frame arrival: requests
    /// still queued past it are answered `"kind":"deadline"` without
    /// touching the service, and a connection that leaves a request
    /// line unfinished this long is expired and closed.
    pub deadline: Duration,
    /// Backpressure watermark: a request arriving while this many are
    /// already queued is shed with `"kind":"overloaded"` instead of
    /// enqueued. `0` sheds everything (useful in tests).
    pub queue_watermark: usize,
    /// Per-line byte ceiling (see [`FrameBuffer`]).
    pub max_line_bytes: usize,
    /// A collecting [`Metrics`] handle to share with the service (so a
    /// caller's exporter sees the `net_*` instruments too). `None` — or
    /// a null handle — makes the server create its own.
    pub metrics: Option<Metrics>,
    /// Flight-recorder ring capacity: how many recent request span
    /// trees are retained (anomalous ones are additionally pinned).
    pub flight_recorder: usize,
    /// Latency at or above which a completed request is pinned as
    /// `"slow"` in the flight recorder. `None` disables the class.
    pub slow_threshold: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            deadline: Duration::from_secs(10),
            queue_watermark: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            metrics: None,
            flight_recorder: 64,
            slow_threshold: None,
        }
    }
}

/// The write half of one connection, shared between its reader (parse
/// and shed responses) and the service thread (execution responses).
struct ConnWriter {
    stream: Mutex<Option<TcpStream>>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream: Mutex::new(Some(stream)),
        }
    }

    /// Writes one response line; a failed or already-closed peer is
    /// ignored — a client that disconnected before its response simply
    /// never learns the outcome (any committed mutation stands and is
    /// in the commit log).
    fn write_line(&self, line: &str) {
        let mut guard = lock_recover(&self.stream);
        if let Some(stream) = guard.as_mut() {
            let ok = stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_ok();
            if !ok {
                *guard = None;
            }
        }
    }
}

/// Appends the trace echo to one of our own generated response lines
/// (they all end in `}`).
fn with_trace(mut line: String, id: TraceId) -> String {
    debug_assert!(line.ends_with('}'));
    line.pop();
    let _ = write!(line, ",\"trace\":\"{id}\"}}");
    line
}

/// What the service thread is asked to do for one queued job.
enum Work {
    /// Execute a parsed service request (traced, possibly committing).
    Request(ServiceRequest),
    /// Answer an `introspect what=sessions` probe — routed through the
    /// service thread so the summary is a consistent point-in-time
    /// view, but never traced, logged, or counted as request latency.
    Sessions,
}

/// One parsed request waiting for the service thread.
struct Job {
    conn: Arc<ConnWriter>,
    id: u64,
    work: Work,
    arrival: Instant,
    trace: RequestTrace,
}

/// State shared by every thread of one server.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Stops the acceptor and the readers (drain begins).
    shutdown: AtomicBool,
    /// Set once every reader has exited; the service thread drains the
    /// queue and stops only after this (in-flight requests flush).
    readers_done: AtomicBool,
    metrics: Metrics,
    options: ServerOptions,
    live_connections: AtomicU64,
    /// Monotonic connection counter — the per-connection half of the
    /// server-derived [`TraceId`].
    next_conn: AtomicU64,
    queue_depth: Histogram,
    recorder: Arc<FlightRecorder>,
}

impl Shared {
    fn connection_opened(&self) {
        let live = self.live_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.record(|m| {
            m.net_connections_opened.inc();
            m.net_connections_live.set(live);
        });
    }

    fn connection_closed(&self) {
        let live = self.live_connections.fetch_sub(1, Ordering::Relaxed) - 1;
        self.metrics.record(|m| {
            m.net_connections_closed.inc();
            m.net_connections_live.set(live);
        });
    }

    /// Seals `trace` with `outcome` and records it into the flight
    /// recorder, bumping the trace counters.
    fn record_trace(&self, trace: RequestTrace, outcome: TraceOutcome) {
        let pinned = self.recorder.record(trace.finish(outcome)).is_some();
        self.metrics.record(|m| {
            m.traces_recorded.inc();
            if pinned {
                m.traces_pinned.inc();
            }
        });
    }
}

/// Final counters of one server run, harvested at
/// [`NetServer::shutdown`].
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections closed (every accepted connection closes by drain).
    pub connections_closed: u64,
    /// Request lines received (including malformed, shed, and
    /// introspection ones).
    pub requests_received: u64,
    /// Requests shed with `"kind":"overloaded"`.
    pub requests_shed: u64,
    /// Requests answered `"kind":"deadline"` (queued past the deadline
    /// or slow-loris expiry).
    pub deadlines_expired: u64,
    /// Lines answered with a typed parse error.
    pub parse_errors: u64,
    /// Committed mutations appended to the commit log.
    pub commits_logged: u64,
    /// Commit-log records whose write to the log stream failed (they
    /// are still in the in-memory log).
    pub log_write_failures: u64,
    /// Introspection requests answered.
    pub introspects: u64,
    /// Request traces recorded by the flight recorder.
    pub traces_recorded: u64,
    /// Anomalous traces pinned by the flight recorder.
    pub traces_pinned: u64,
    /// Wall-clock request latency in microseconds (arrival → response
    /// write). Load-dependent, never compared for determinism.
    pub latency_us: HistogramSnapshot,
    /// Queue depth observed at each enqueue.
    pub queue_depth: HistogramSnapshot,
}

impl NetStats {
    /// Estimated latency percentile (`0.0..=1.0`) from the histogram:
    /// the upper bound of the bucket containing the quantile (the
    /// overflow bucket reports the last bound).
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        histogram_percentile(&self.latency_us, q)
    }

    /// One machine-readable final stats line, printed by the CLI when
    /// a `serve --listen` run drains.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"stats\":\"net\",\"connections\":{},\"requests\":{},\"shed\":{},\"deadlines\":{},\"parse_errors\":{},\"commits\":{},\"log_write_failures\":{},\"introspects\":{},\"traces_recorded\":{},\"traces_pinned\":{},\"p50_us\":{},\"p99_us\":{}}}",
            self.connections_opened,
            self.requests_received,
            self.requests_shed,
            self.deadlines_expired,
            self.parse_errors,
            self.commits_logged,
            self.log_write_failures,
            self.introspects,
            self.traces_recorded,
            self.traces_pinned,
            self.latency_percentile_us(0.50),
            self.latency_percentile_us(0.99),
        )
    }
}

/// Upper-bound percentile estimate over a bucketed histogram.
pub fn histogram_percentile(snapshot: &HistogramSnapshot, q: f64) -> u64 {
    if snapshot.count == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * snapshot.count as f64).ceil() as u64;
    let mut seen = 0u64;
    for (i, &count) in snapshot.counts.iter().enumerate() {
        seen += count;
        if seen >= rank.max(1) {
            return snapshot
                .bounds
                .get(i)
                .copied()
                .unwrap_or_else(|| snapshot.bounds.last().copied().unwrap_or(0));
        }
    }
    snapshot.bounds.last().copied().unwrap_or(0)
}

/// Everything a drained server hands back: the service (with its live
/// sessions and residual state), the commit log, the counters, and the
/// flight recorder.
#[derive(Debug)]
pub struct ServerReport {
    /// The service as it stood when the drain finished.
    pub service: AllocationService,
    /// Every committed mutation, commit order.
    pub commit_log: CommitLog,
    /// Final counters and latency/queue histograms.
    pub stats: NetStats,
    /// The run's flight recorder (recent + pinned request traces) —
    /// what `serve --trace-dump` writes out.
    pub flight_recorder: Arc<FlightRecorder>,
}

impl ServerReport {
    /// The residual-state digest — compare against a
    /// [`replay_commit_log`](sdfrs_core::service::replay_commit_log)
    /// of [`Self::commit_log`] to witness replay equality.
    pub fn residual_digest(&self) -> String {
        self.service.residual_digest()
    }
}

/// A running network front-end. Dropping the handle leaks the threads;
/// call [`NetServer::shutdown`] for a graceful drain.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: JoinHandle<Vec<JoinHandle<()>>>,
    service_handle: JoinHandle<(AllocationService, CommitLog)>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and
    /// spawns the acceptor and service threads.
    ///
    /// The server attaches its own collecting [`Metrics`] handle to
    /// `service` so net counters and service counters share one
    /// registry (readable live via [`NetServer::metrics`]); `log`
    /// usually [`CommitLog::new`], or
    /// [`CommitLog::with_writer`] to stream records to disk as they
    /// commit.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn spawn(
        service: AllocationService,
        log: CommitLog,
        options: ServerOptions,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<NetServer> {
        let metrics = match &options.metrics {
            Some(handle) if handle.enabled() => handle.clone(),
            _ => Metrics::collecting(),
        };
        let service = service.with_metrics(metrics.clone());
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let recorder = Arc::new(FlightRecorder::new(
            options.flight_recorder,
            options.slow_threshold,
        ));
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            readers_done: AtomicBool::new(false),
            metrics,
            options,
            live_connections: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            queue_depth: Histogram::new(QUEUE_DEPTH_BOUNDS),
            recorder,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(listener, accept_shared));
        let service_shared = Arc::clone(&shared);
        let service_handle = std::thread::spawn(move || service_loop(service, log, service_shared));

        Ok(NetServer {
            addr,
            shared,
            accept_handle,
            service_handle,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics handle (service counters + `net_*`
    /// instruments), readable while the server runs.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The shared flight recorder, readable while the server runs.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Graceful drain: stop accepting, let readers finish their
    /// buffered frames, flush every queued request through the
    /// service, and return the final [`ServerReport`].
    pub fn shutdown(self) -> ServerReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let readers = self.accept_handle.join().expect("acceptor panicked");
        for reader in readers {
            let _ = reader.join();
        }
        // Readers are gone: nothing enqueues any more, so the service
        // thread may stop once the queue is empty.
        self.shared.readers_done.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let (service, commit_log) = self.service_handle.join().expect("service panicked");
        let stats = harvest_stats(&self.shared);
        ServerReport {
            service,
            commit_log,
            stats,
            flight_recorder: Arc::clone(&self.shared.recorder),
        }
    }
}

fn harvest_stats(shared: &Shared) -> NetStats {
    let snapshot = shared
        .metrics
        .snapshot()
        .expect("server metrics are always collecting");
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let latency_us = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "net_request_latency_us")
        .cloned()
        .expect("net latency histogram is registered");
    NetStats {
        connections_opened: counter("net_connections_opened"),
        connections_closed: counter("net_connections_closed"),
        requests_received: counter("net_requests_received"),
        requests_shed: counter("net_requests_shed"),
        deadlines_expired: counter("net_deadlines_expired"),
        parse_errors: counter("net_parse_errors"),
        commits_logged: counter("net_commits_logged"),
        log_write_failures: counter("net_log_write_failures"),
        introspects: counter("net_introspects"),
        traces_recorded: counter("traces_recorded"),
        traces_pinned: counter("traces_pinned"),
        latency_us,
        queue_depth: shared
            .queue_depth
            .snapshot("net_queue_depth", "Queue depth observed at each enqueue."),
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut readers = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                reap_finished(&mut readers);
                let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
                let conn_shared = Arc::clone(&shared);
                readers.push(std::thread::spawn(move || {
                    conn_shared.connection_opened();
                    read_connection(stream, conn, &conn_shared);
                    conn_shared.connection_closed();
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    readers
}

/// Joins the readers whose connections have closed, so a long-lived
/// acceptor holds one handle per live connection rather than one per
/// connection it ever served.
fn reap_finished(readers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < readers.len() {
        if readers[i].is_finished() {
            let _ = readers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn read_connection(mut stream: TcpStream, conn: u64, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return,
    };
    let mut frames = FrameBuffer::new(shared.options.max_line_bytes);
    let mut read_buf = [0u8; 4096];
    let mut next_id: u64 = 0;
    let mut partial_since: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut read_buf) {
            Ok(0) => return, // clean disconnect (possibly mid-line)
            Ok(n) => {
                frames.push_bytes(&read_buf[..n]);
                loop {
                    match frames.next_line() {
                        Ok(Some(line)) => {
                            partial_since = None;
                            next_id += 1;
                            handle_line(&line, next_id, conn, &writer, shared);
                        }
                        Ok(None) => {
                            partial_since = if frames.has_partial() {
                                partial_since.or_else(|| Some(Instant::now()))
                            } else {
                                None
                            };
                            break;
                        }
                        Err(frame_error) => {
                            next_id += 1;
                            let trace_id = TraceId::derive(conn, next_id);
                            let mut trace = RequestTrace::begin(trace_id, "line");
                            shared.metrics.record(|m| {
                                m.net_requests_received.inc();
                                m.net_parse_errors.inc();
                            });
                            writer.write_line(&with_trace(
                                format!(
                                    "{{\"id\":{next_id},\"ok\":false,\"kind\":\"parse\",\"detail\":\"{frame_error}\"}}"
                                ),
                                trace_id,
                            ));
                            trace.mark_parsed();
                            shared.record_trace(trace, TraceOutcome::ParseError);
                            match frame_error {
                                // Oversize leaves the stream
                                // unsynchronizable; a non-UTF-8 line
                                // consumed only itself but the peer is
                                // clearly not speaking the protocol.
                                FrameError::Oversize { .. } | FrameError::Utf8 => return,
                            }
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(since) = partial_since {
                    if since.elapsed() > shared.options.deadline {
                        // Slow loris: a line has been incomplete for a
                        // whole deadline. Expire it and drop the peer.
                        next_id += 1;
                        let trace_id = TraceId::derive(conn, next_id);
                        let trace = RequestTrace::begin(trace_id, "line");
                        shared.metrics.record(|m| m.net_deadlines_expired.inc());
                        writer.write_line(&with_trace(
                            format!(
                                "{{\"id\":{next_id},\"ok\":false,\"kind\":\"deadline\",\"detail\":\"request line not completed within deadline\"}}"
                            ),
                            trace_id,
                        ));
                        shared.record_trace(trace, TraceOutcome::DeadlineExpired);
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, id: u64, conn: u64, writer: &Arc<ConnWriter>, shared: &Shared) {
    shared.metrics.record(|m| m.net_requests_received.inc());
    if line.trim().is_empty() {
        return; // blank keep-alive lines are free
    }
    let meta = peek_request_meta(line);
    let trace_id = meta
        .trace
        .as_deref()
        .and_then(TraceId::from_hex)
        .unwrap_or_else(|| TraceId::derive(conn, id));
    let mut trace = RequestTrace::begin(trace_id, "line");
    if meta.kind.as_deref() == Some("introspect") {
        answer_introspect(meta.what.as_deref(), id, trace, writer, shared);
        return;
    }
    let request = match parse_request_line(line) {
        Ok(request) => request,
        Err(error) => {
            shared.metrics.record(|m| m.net_parse_errors.inc());
            writer.write_line(&with_trace(error.to_json_line(id), trace_id));
            trace.mark_parsed();
            shared.record_trace(trace, TraceOutcome::ParseError);
            return;
        }
    };
    trace.set_op(request.op());
    trace.mark_parsed();
    let mut queue = lock_recover(&shared.queue);
    let depth = queue.len();
    if depth >= shared.options.queue_watermark {
        drop(queue);
        shared.metrics.record(|m| m.net_requests_shed.inc());
        writer.write_line(&with_trace(
            format!("{{\"id\":{id},\"ok\":false,\"kind\":\"overloaded\",\"queue_depth\":{depth}}}"),
            trace_id,
        ));
        shared.record_trace(
            trace,
            TraceOutcome::Shed {
                queue_depth: depth as u64,
            },
        );
        return;
    }
    shared.queue_depth.observe(depth as u64);
    queue.push_back(Job {
        conn: Arc::clone(writer),
        id,
        work: Work::Request(request),
        arrival: Instant::now(),
        trace,
    });
    drop(queue);
    shared.available.notify_one();
}

/// Answers one introspection request. `metrics`, `health` and `traces`
/// are answered directly by the reader (they read shared state);
/// `sessions` is routed through the service thread for a consistent
/// view of the session registry.
fn answer_introspect(
    what: Option<&str>,
    id: u64,
    trace: RequestTrace,
    writer: &Arc<ConnWriter>,
    shared: &Shared,
) {
    shared.metrics.record(|m| m.net_introspects.inc());
    let trace_id = trace.id();
    match what {
        Some("metrics") => {
            let snapshot = shared
                .metrics
                .snapshot()
                .expect("server metrics are always collecting");
            writer.write_line(&with_trace(
                format!(
                    "{{\"id\":{id},\"ok\":true,\"kind\":\"introspect\",\"what\":\"metrics\",\"metrics\":{}}}",
                    snapshot.to_json()
                ),
                trace_id,
            ));
        }
        Some("health") => {
            let queue_depth = lock_recover(&shared.queue).len();
            let mut log_write_failures = 0;
            shared
                .metrics
                .record(|m| log_write_failures = m.net_log_write_failures.get());
            let line = format!(
                "{{\"id\":{id},\"ok\":true,\"kind\":\"introspect\",\"what\":\"health\",\"queue_depth\":{},\"queue_watermark\":{},\"live_connections\":{},\"draining\":{},\"deadline_ms\":{},\"flight_recorded\":{},\"flight_pinned\":{},\"log_write_failures\":{}}}",
                queue_depth,
                shared.options.queue_watermark,
                shared.live_connections.load(Ordering::Relaxed),
                shared.shutdown.load(Ordering::SeqCst),
                shared.options.deadline.as_millis(),
                shared.recorder.recorded(),
                shared.recorder.pinned_total(),
                log_write_failures,
            );
            writer.write_line(&with_trace(line, trace_id));
        }
        Some("sessions") => {
            let mut queue = lock_recover(&shared.queue);
            queue.push_back(Job {
                conn: Arc::clone(writer),
                id,
                work: Work::Sessions,
                arrival: Instant::now(),
                trace,
            });
            drop(queue);
            shared.available.notify_one();
        }
        Some("traces") => {
            let entries = shared.recorder.entries();
            let mut line = format!(
                "{{\"id\":{id},\"ok\":true,\"kind\":\"introspect\",\"what\":\"traces\",\"recorded\":{},\"pinned\":{},\"entries\":[",
                shared.recorder.recorded(),
                shared.recorder.pinned_total(),
            );
            for (i, entry) in entries.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&entry.to_json());
            }
            line.push_str("]}");
            writer.write_line(&with_trace(line, trace_id));
        }
        other => {
            let what = other.unwrap_or("");
            writer.write_line(&with_trace(
                format!(
                    "{{\"id\":{id},\"ok\":false,\"kind\":\"introspect\",\"detail\":\"unknown introspection target {what:?} (metrics|health|sessions|traces)\"}}"
                ),
                trace_id,
            ));
        }
    }
}

/// Renders the `introspect what=sessions` answer from a service status.
fn sessions_json(id: u64, status: &ServiceStatus) -> String {
    let mut s = format!(
        "{{\"id\":{id},\"ok\":true,\"kind\":\"introspect\",\"what\":\"sessions\",\"live\":{},\"queue_depth\":{},\"claimed_wheel\":{},\"sessions\":[",
        status.sessions.len(),
        status.queue_depth,
        status.claimed.wheel,
    );
    for (i, info) in status.sessions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"session\":{},\"app\":\"{}\",\"throughput\":\"{}\",\"wheel\":{}}}",
            info.session.raw(),
            sdfrs_core::events::json_escape(&info.app),
            info.throughput,
            info.wheel
        );
    }
    s.push_str("]}");
    s
}

fn service_loop(
    mut service: AllocationService,
    mut log: CommitLog,
    shared: Arc<Shared>,
) -> (AllocationService, CommitLog) {
    loop {
        let job = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.readers_done.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match shared.available.wait_timeout(queue, POLL_INTERVAL) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(mut job) = job else {
            return (service, log);
        };
        let waited = job.arrival.elapsed();
        let deadline_remaining_us = shared.options.deadline.as_micros() as i64
            - waited.as_micros().min(i64::MAX as u128) as i64;
        job.trace.mark_dequeued(deadline_remaining_us);
        if waited > shared.options.deadline {
            shared.metrics.record(|m| m.net_deadlines_expired.inc());
            job.conn.write_line(&with_trace(
                format!("{{\"id\":{},\"ok\":false,\"kind\":\"deadline\"}}", job.id),
                job.trace.id(),
            ));
            shared.record_trace(job.trace, TraceOutcome::DeadlineExpired);
            continue;
        }
        match job.work {
            Work::Request(request) => {
                let response = service.execute_traced(request, &mut log, &mut job.trace);
                let line = with_trace(response.to_json_line(job.id), job.trace.id());
                let latency_us = job.arrival.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                shared
                    .metrics
                    .record(|m| m.net_request_latency_us.observe(latency_us));
                job.conn.write_line(&line);
                shared.record_trace(job.trace, TraceOutcome::from_response(&response));
            }
            Work::Sessions => {
                let status = service.status();
                job.conn
                    .write_line(&with_trace(sessions_json(job.id, &status), job.trace.id()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readers of closed connections are joined as new ones arrive; a
    /// reader still serving its connection is kept.
    #[test]
    fn finished_readers_are_reaped() {
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let mut readers = vec![std::thread::spawn(move || {
            let _ = blocked.recv();
        })];
        // Sequential connect/close cycles: each reader ends at once.
        for _ in 0..3 {
            let reader = std::thread::spawn(|| {});
            while !reader.is_finished() {
                std::thread::yield_now();
            }
            readers.push(reader);
            reap_finished(&mut readers);
            assert_eq!(readers.len(), 1, "only the live reader is held");
        }
        release.send(()).unwrap();
        while !readers[0].is_finished() {
            std::thread::yield_now();
        }
        reap_finished(&mut readers);
        assert!(readers.is_empty());
    }

    /// A panicked lock holder must not take the queue down with it:
    /// the poison-recovering lock hands later threads the (still
    /// structurally valid) data. Regression test for the reader-panic
    /// cascade this replaces — with plain `.lock().unwrap()` the
    /// second access would panic too, crashing the whole server.
    #[test]
    fn poisoned_queue_lock_recovers() {
        let queue: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(VecDeque::new()));
        let poisoner = Arc::clone(&queue);
        let _ = std::thread::spawn(move || {
            let mut guard = lock_recover(&poisoner);
            guard.push_back(1);
            panic!("simulated reader panic while holding the queue lock");
        })
        .join();
        assert!(queue.is_poisoned(), "the panic must have poisoned the lock");
        let mut guard = lock_recover(&queue);
        assert_eq!(guard.pop_front(), Some(1), "data survives the poison");
        guard.push_back(2);
        assert_eq!(guard.len(), 1);
    }

    /// Same recovery contract for the condvar wait the service thread
    /// parks on.
    #[test]
    fn poisoned_condvar_wait_recovers() {
        let shared = Arc::new((Mutex::new(0u64), Condvar::new()));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = lock_recover(&poisoner.0);
            panic!("simulated panic while holding the wait mutex");
        })
        .join();
        let guard = lock_recover(&shared.0);
        let guard = match shared.1.wait_timeout(guard, Duration::from_millis(1)) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
        assert_eq!(*guard, 0);
    }

    #[test]
    fn trace_echo_appends_to_generated_lines() {
        let line = with_trace(
            "{\"id\":3,\"ok\":true}".to_string(),
            TraceId::from_raw(0xFEED),
        );
        assert_eq!(
            line,
            "{\"id\":3,\"ok\":true,\"trace\":\"000000000000feed\"}"
        );
    }
}
