//! The daemon: accept loop, bounded worker pool, session-per-connection
//! protocol handling, admin commands, graceful shutdown.
//!
//! Threading shape (pg_doorman-style pooler, hand-rolled on std):
//!
//! ```text
//! accept thread ──► bounded channel ──► worker 0..N
//!                                        └─ one connection at a time,
//!                                           one EVQL Session each,
//!                                           all over one SharedCache
//! ```
//!
//! Shutdown contract: once the flag is set the accept loop stops handing
//! out connections, and every worker finishes the frames it has already
//! decoded — a query whose request frame was fully received ("accepted")
//! is always executed and answered before its connection closes. Bytes
//! still in flight (partial frames) get `DRAIN_GRACE` (500 ms) to
//! complete, then the connection is dropped. The final [`ShutdownReport`]
//! carries the accepted/answered totals so harnesses can assert nothing
//! was lost.

use crate::config::{ServeConfig, BACKLOG, DRAIN_GRACE, READ_POLL, WRITE_TIMEOUT};
use crate::metrics::Metrics;
use crate::registry::SessionRegistry;
use everest_core::prelude::CancelToken;
use everest_evql::wire::{self, FrameDecoder, Request, Response, WireError};
use everest_evql::{ExecStats, Session, SharedCache};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// State shared by the accept loop, every worker, and every handle.
struct Shared {
    cfg: ServeConfig,
    cache: SharedCache,
    metrics: Arc<Metrics>,
    registry: Arc<SessionRegistry>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Queries currently executing across all workers; the admission
    /// gate compares this against `cfg.max_inflight_queries`.
    inflight: AtomicUsize,
}

/// What [`Server::run`] returns after a graceful shutdown.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Query frames fully decoded over the daemon's lifetime.
    pub queries_accepted: u64,
    /// Query responses produced (answer or query-level error). The
    /// graceful-shutdown guarantee is `queries_answered + queries_shed
    /// == queries_accepted`: no accepted query is ever silently dropped.
    pub queries_answered: u64,
    /// Queries refused at admission with a typed `Overloaded` response
    /// (the daemon was at `max_inflight_queries`).
    pub queries_shed: u64,
    /// Connections served end to end.
    pub connections: u64,
    /// Sessions still registered when the last worker exited (always 0
    /// after a clean drain).
    pub sessions_left: usize,
}

impl ShutdownReport {
    /// True when every accepted query was answered or explicitly shed,
    /// and every session drained.
    pub fn clean(&self) -> bool {
        self.queries_accepted == self.queries_answered + self.queries_shed
            && self.sessions_left == 0
    }
}

/// A cloneable remote control for a running [`Server`]: request
/// shutdown, read metrics, inspect the registry and cache.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The daemon's bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The daemon-wide counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The live-session table.
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// The shared prepared-video cache.
    pub fn cache(&self) -> SharedCache {
        self.shared.cache.clone()
    }

    /// Requests a graceful shutdown: stops accepting, drains in-flight
    /// queries, then [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }
}

fn request_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        // The accept loop may be parked in `accept()`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
    }
}

/// The EVQL daemon. [`Server::bind`] prepares it (including catalog
/// warmup), [`Server::run`] serves until a `SHUTDOWN` admin command or
/// [`ServerHandle::shutdown`] drains it.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
}

impl Server {
    /// Binds the listener and runs the warmup statements (each one
    /// populates the shared prepared-video cache before the first client
    /// connects). Fails if a warmup statement is invalid EVQL.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = SharedCache::with_capacity(cfg.cache_capacity.max(1));
        if !cfg.warmup.is_empty() {
            let mut warm = Session::with_shared_cache(cfg.settings.clone(), cache.clone());
            for stmt in &cfg.warmup {
                warm.execute(stmt).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("warmup statement failed: {}", e.message()),
                    )
                })?;
            }
        }
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                cache,
                metrics: Arc::new(Metrics::new()),
                registry: Arc::new(SessionRegistry::new()),
                shutdown: AtomicBool::new(false),
                addr,
                inflight: AtomicUsize::new(0),
            }),
            listener,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Binds and serves on a background thread; returns the handle and
    /// the join handle that yields the [`ShutdownReport`].
    pub fn spawn(cfg: ServeConfig) -> io::Result<(ServerHandle, JoinHandle<ShutdownReport>)> {
        let server = Server::bind(cfg)?;
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        Ok((handle, join))
    }

    /// Serves until shutdown, then drains and reports.
    pub fn run(self) -> ShutdownReport {
        let shared = self.shared;
        let (tx, rx) = sync_channel::<TcpStream>(BACKLOG);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                thread::spawn(move || worker_loop(shared, rx))
            })
            .collect();

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        // Either the wake-up connection or a client that
                        // raced shutdown; both are turned away.
                        drop(stream);
                        break;
                    }
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // Transient accept failure; keep serving.
                }
            }
        }

        drop(tx); // Workers drain the queue, then their recv() errors out.
        for w in workers {
            let _ = w.join();
        }

        let ld = Ordering::Relaxed;
        ShutdownReport {
            queries_accepted: shared.metrics.queries_accepted.load(ld),
            queries_answered: shared.metrics.queries_answered.load(ld),
            queries_shed: shared.metrics.shed_queries.load(ld),
            connections: shared.metrics.connections_closed.load(ld),
            sessions_left: shared.registry.len(),
        }
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Holding the lock across the blocking recv is the classic
        // shared-receiver handoff: exactly one idle worker waits on the
        // channel, the rest queue on the mutex.
        let stream = {
            let guard = rx.lock().unwrap();
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(&shared, stream),
            Err(_) => return, // Accept loop gone and queue drained.
        }
    }
}

/// How the per-connection loop ended: the one distinction close-time
/// accounting reads is whether the peer vanished.
enum Close {
    /// Peer vanished (EOF mid-frame, reset, write failure).
    Disconnect,
    /// Anything else: EOF with no partial frame, a clean drain, a
    /// keep-alive limit, a framing violation, an expired drain grace, or a
    /// write timeout (counted as such where it happens).
    Other,
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared
        .metrics
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    let peer = stream
        .peer_addr()
        .unwrap_or_else(|_| "0.0.0.0:0".parse().unwrap());
    let session_id = shared.registry.register(peer);

    if let Close::Disconnect = serve_connection(shared, stream, session_id) {
        shared
            .metrics
            .client_disconnects
            .fetch_add(1, Ordering::Relaxed);
    }
    shared.registry.drop_session(session_id);
    shared
        .metrics
        .connections_closed
        .fetch_add(1, Ordering::Relaxed);
}

#[expect(
    clippy::disallowed_methods,
    reason = "the keep-alive stamp and the drain-deadline check (an assignment and an `if`, which \
              cannot carry an attribute): connection lifecycle only, never answer content"
)]
fn serve_connection(shared: &Shared, mut stream: TcpStream, session_id: u64) -> Close {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return Close::Disconnect;
    }

    let mut session = Session::with_shared_cache(cfg.settings.clone(), shared.cache.clone());
    let mut decoder = FrameDecoder::new(wire::MAX_FRAME);
    let mut buf = [0u8; 16 * 1024];
    let mut drain_deadline: Option<Instant> = None;
    let mut queries_served = 0u64;
    #[expect(
        clippy::disallowed_methods,
        reason = "keep-alive idle clock; connection lifecycle only, never answer content"
    )]
    let mut last_frame = Instant::now();

    loop {
        // Serve every complete frame before reading more: under shutdown
        // these are the "accepted" requests that must still be answered.
        loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => {
                    last_frame = Instant::now();
                    if let Err(reason) = serve_frame(
                        shared,
                        &mut stream,
                        &mut session,
                        session_id,
                        &payload,
                        &mut queries_served,
                    ) {
                        return reason;
                    }
                    // Keep-alive recycling: the limit-hitting query is
                    // fully answered, then the connection closes.
                    if let Some(max) = cfg.max_queries_per_connection {
                        if queries_served >= max {
                            return Close::Other;
                        }
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Framing is unrecoverable (the decoder pins the
                    // stream dead); tell the peer why, then close. The
                    // daemon itself stays up.
                    shared
                        .metrics
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    if matches!(err, WireError::FrameTooLarge { .. }) {
                        shared
                            .metrics
                            .frames_rejected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = write_response(
                        shared,
                        &mut stream,
                        &Response::Error {
                            id: 0,
                            text: err.to_string(),
                        },
                    );
                    return Close::Other;
                }
            }
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            if !decoder.has_partial() {
                return Close::Other;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown drain-grace timer; a peer holding half a frame may finish it, \
                          but not forever"
            )]
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            if Instant::now() >= deadline {
                return Close::Other;
            }
        }

        // Keep-alive idle limit: a connection that has not completed a
        // frame for this long is closed (a partial frame still counts as
        // activity in progress, so it is exempt until it completes or the
        // peer stalls past the limit anyway).
        if let Some(idle) = cfg.idle_timeout {
            if !decoder.has_partial() && last_frame.elapsed() >= idle {
                return Close::Other;
            }
        }

        match stream.read(&mut buf) {
            Ok(0) => {
                return if decoder.has_partial() {
                    Close::Disconnect
                } else {
                    Close::Other
                };
            }
            Ok(n) => decoder.push(&buf[..n]),
            Err(e) => match e.kind() {
                // Poll tick: no data within READ_POLL; loop re-checks the
                // shutdown flag.
                io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted => {}
                _ => return Close::Disconnect,
            },
        }
    }
}

/// Serves one decoded frame. `Err` means the connection must close.
/// `queries_served` counts query frames for the keep-alive limit.
fn serve_frame(
    shared: &Shared,
    stream: &mut TcpStream,
    session: &mut Session,
    session_id: u64,
    payload: &[u8],
    queries_served: &mut u64,
) -> Result<(), Close> {
    shared
        .metrics
        .bytes_in
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    let request = match Request::decode(payload) {
        Ok(req) => req,
        Err(err) => {
            // The frame itself was well-formed, so the stream is still in
            // sync: report the bad payload and keep the connection.
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return write_response(
                shared,
                stream,
                &Response::Error {
                    id: 0,
                    text: err.to_string(),
                },
            );
        }
    };

    match request {
        Request::Query { id, text } => {
            *queries_served += 1;
            serve_query(shared, stream, session, session_id, id, &text)
        }
        Request::Admin { id, command } => serve_admin(shared, stream, id, &command),
        Request::Ping { id, nonce } => {
            shared.metrics.pings.fetch_add(1, Ordering::Relaxed);
            write_response(shared, stream, &Response::Pong { id, nonce })
        }
    }
}

fn serve_query(
    shared: &Shared,
    stream: &mut TcpStream,
    session: &mut Session,
    session_id: u64,
    id: u64,
    text: &str,
) -> Result<(), Close> {
    shared
        .metrics
        .queries_accepted
        .fetch_add(1, Ordering::Relaxed);

    // Admission gate: shed rather than queue once `max_inflight_queries`
    // queries are already executing. The shed query is answered with a
    // typed Overloaded frame and counts toward neither `answered` nor
    // `failed` — the drain invariant is accepted == answered + shed.
    let cur = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if let Some(max) = shared.cfg.max_inflight_queries {
        if cur >= max {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.metrics.shed_queries.fetch_add(1, Ordering::Relaxed);
            return write_response(
                shared,
                stream,
                &Response::Overloaded {
                    id,
                    inflight: cur as u64,
                    text: format!(
                        "query shed: {cur} queries already in flight \
                         (max_inflight_queries = {max}); retry with backoff"
                    ),
                },
            );
        }
    }

    shared.registry.begin(session_id);
    #[expect(
        clippy::disallowed_methods,
        reason = "per-query latency sample for the histogram; rendered only below WALL_CLOCK_MARKER"
    )]
    let started = Instant::now();

    // Disconnect cancellation: while the query executes, a watcher peeks
    // the socket (without consuming pipelined bytes). EOF means the
    // client is gone — the cleaning loop observes the token at its next
    // batch boundary and returns a degraded `cancelled` answer instead
    // of burning oracle budget for nobody.
    let token = CancelToken::new();
    session.set_cancel_token(Some(token.clone()));
    let done = Arc::new(AtomicBool::new(false));
    if let Ok(peer) = stream.try_clone() {
        let token = token.clone();
        let done = Arc::clone(&done);
        // Detached on purpose: joining would add up to one poll tick of
        // latency per query. The thread exits within a tick of `done`.
        thread::spawn(move || {
            let mut probe = [0u8; 1];
            while !done.load(Ordering::SeqCst) {
                match peer.peek(&mut probe) {
                    Ok(0) => {
                        token.cancel();
                        break;
                    }
                    // Pipelined bytes waiting: the peer is alive.
                    Ok(_) => thread::sleep(READ_POLL),
                    Err(e) => match e.kind() {
                        // The shared SO_RCVTIMEO makes peek a poll tick.
                        io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted => {}
                        _ => {
                            token.cancel();
                            break;
                        }
                    },
                }
            }
        });
    }

    let response = match session.execute(text) {
        Ok(output) => {
            if let Some(stats) = output.stats() {
                record_query_stats(&shared.metrics, stats);
            }
            Response::Answer {
                id,
                canonical: wire::canonical_output(&output),
                rendered: output.render(),
            }
        }
        Err(err) => {
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            Response::Error {
                id,
                text: err.render(text),
            }
        }
    };
    done.store(true, Ordering::SeqCst);
    session.set_cancel_token(None);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);

    // An answer over the frame cap goes back as a typed error instead,
    // and the query counts as failed; the connection stays in sync.
    let (payload, oversized) = encode_within_cap(&response);
    if oversized {
        shared
            .metrics
            .queries_failed
            .fetch_add(1, Ordering::Relaxed);
    }
    // The query is answered the moment a response exists — delivery
    // failure (peer gone, write timeout) is accounted separately and
    // does not break the accepted == answered drain invariant.
    let write_result = write_payload(shared, stream, &payload);
    shared
        .metrics
        .queries_answered
        .fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .latency
        .record_us(started.elapsed().as_micros() as u64);
    shared
        .registry
        .finish(session_id, shared.shutdown.load(Ordering::SeqCst));
    write_result
}

fn serve_admin(
    shared: &Shared,
    stream: &mut TcpStream,
    id: u64,
    command: &str,
) -> Result<(), Close> {
    shared
        .metrics
        .admin_commands
        .fetch_add(1, Ordering::Relaxed);
    let normalized = command.trim().trim_end_matches(';').trim().to_uppercase();
    let response = match normalized.as_str() {
        "SHOW SESSIONS" => {
            let cfg = &shared.cfg;
            let mut text = shared.registry.render();
            text.push_str(&format!(
                "keep-alive: max_queries_per_connection={}, idle_timeout={}\n",
                cfg.max_queries_per_connection
                    .map_or("unlimited".into(), |n| n.to_string()),
                cfg.idle_timeout
                    .map_or("unlimited".into(), |d| format!("{}ms", d.as_millis())),
            ));
            text.push_str(&format!(
                "admission: max_inflight_queries={}, inflight={}\n",
                cfg.max_inflight_queries
                    .map_or("unlimited".into(), |n| n.to_string()),
                shared.inflight.load(Ordering::SeqCst),
            ));
            Response::Message { id, text }
        }
        "SHOW CACHES" => Response::Message {
            id,
            text: shared.cache.render(),
        },
        "SHOW METRICS" => Response::Message {
            id,
            text: shared.metrics.render(),
        },
        "RELOAD" => {
            shared.cache.clear();
            shared.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            Response::Message {
                id,
                text: "reloaded: prepared-video cache dropped; active sessions keep \
                       their in-flight preparations until they finish"
                    .into(),
            }
        }
        "SHUTDOWN" => {
            request_shutdown(shared);
            Response::Message {
                id,
                text: "shutting down: draining in-flight queries".into(),
            }
        }
        _ => Response::Error {
            id,
            text: format!(
                "unknown admin command {command:?} (try SHOW SESSIONS, SHOW CACHES, \
                 SHOW METRICS, RELOAD, SHUTDOWN)"
            ),
        },
    };
    write_response(shared, stream, &response)
}

/// Encodes `response`, or, when that would exceed [`wire::MAX_FRAME`],
/// a [`Response::Error`] with the same id that names the size and the
/// limit. The flag says whether the response was replaced.
fn encode_within_cap(response: &Response) -> (Vec<u8>, bool) {
    let payload = response.encode();
    if payload.len() <= wire::MAX_FRAME as usize {
        return (payload, false);
    }
    let too_large = WireError::FrameTooLarge {
        len: payload.len().min(u32::MAX as usize) as u32,
        max: wire::MAX_FRAME,
    };
    let error = Response::Error {
        id: response.id(),
        text: format!("response not sent: {too_large}"),
    };
    (error.encode(), true)
}

/// Writes one response frame (see [`encode_within_cap`]).
fn write_response(
    shared: &Shared,
    stream: &mut TcpStream,
    response: &Response,
) -> Result<(), Close> {
    write_payload(shared, stream, &encode_within_cap(response).0)
}

/// Writes one encoded response, classifying failures: a peer that will
/// not read within the write timeout counts as a write timeout, anything
/// else as a disconnect.
fn write_payload(shared: &Shared, stream: &mut TcpStream, payload: &[u8]) -> Result<(), Close> {
    match wire::write_frame(stream, payload, wire::MAX_FRAME).and_then(|()| stream.flush()) {
        Ok(()) => {
            shared
                .metrics
                .bytes_out
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                shared
                    .metrics
                    .write_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                // Already accounted as a write timeout; close without
                // also counting a disconnect.
                Err(Close::Other)
            }
            _ => Err(Close::Disconnect),
        },
    }
}

/// Folds one answered query's execution stats into the daemon counters.
fn record_query_stats(metrics: &Metrics, stats: &ExecStats) {
    if let Some(cleaned) = stats.cleaned {
        metrics
            .cleaned_frames
            .fetch_add(cleaned as u64, Ordering::Relaxed);
    }
    if stats.termination.is_some_and(|t| t.is_degraded()) {
        metrics.degraded_answers.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(retries) = stats.oracle_retries {
        metrics.oracle_retries.fetch_add(retries, Ordering::Relaxed);
    }
    if let Some(trips) = stats.breaker_trips {
        metrics.breaker_trips.fetch_add(trips, Ordering::Relaxed);
    }
}
