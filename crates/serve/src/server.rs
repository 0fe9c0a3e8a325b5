//! The daemon: event-loop core, routing, sessions, and graceful drain.
//!
//! Connections are served by a fixed set of event-loop shards (see
//! [`crate::event`]): the accept thread only accepts, sheds past
//! `max_connections`, and hands sockets to shards. Routing runs on the
//! shard; analysis endpoints park the connection and compute on the
//! bounded [`JobQueue`], so neither a slow client nor a heavy analysis
//! can stall unrelated connections. `/v1/analyze` reports are cached in
//! one in-memory LRU keyed by the body bytes (see [`crate::cache`]): the
//! shard answers a hit itself without parsing or queueing, and identical
//! in-flight bodies that miss are coalesced into one job (single-flight).
//!
//! ## Endpoints
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | `POST` | `/v1/analyze` | Full trace → rendered report (cached) |
//! | `POST` | `/v1/fingerprints?build=B[&trace=T]` | Store a phase fingerprint (body: PRV trace or `.pffp` frame) |
//! | `POST` | `/v1/compare?baseline=B[&candidate=C][&threshold=R]` | Regression verdict between two builds (JSON) |
//! | `POST` | `/v1/streams/{id}/records` | Stream PRV record lines into a session |
//! | `POST` | `/v1/streams/{id}/checkpoint` | Persist a session to the state dir now |
//! | `GET`  | `/v1/streams/{id}/phases` | Incremental snapshot of a session |
//! | `DELETE` | `/v1/streams/{id}` | Drop a session (and its on-disk state) |
//! | `GET`  | `/healthz` | Liveness + session/queue gauges |
//! | `GET`  | `/metrics` | Server counters + phasefold-obs metrics (`?format=prom` for Prometheus) |
//! | `GET`  | `/debug/requests` | Flight recorder: recent + slowest request summaries |
//! | `GET`  | `/debug/trace/{id}` | Replay a retained slow request as Chrome-trace JSON |
//! | `POST` | `/admin/shutdown` | Ask the daemon to drain and exit |
//!
//! Analysis requests are scheduled on a bounded [`JobQueue`]; a full queue
//! answers `503` with `Retry-After` so load sheds instead of piling up.
//! Shutdown — via [`ServerHandle::shutdown`], `/admin/shutdown`, or
//! SIGTERM/SIGINT — stops accepting, lets in-flight connections and jobs
//! finish, and reports whether the drain was clean.
//!
//! ## Request telemetry
//!
//! Every request is minted a [`phasefold_obs::trace::TraceCtx`] whose
//! trace id doubles as the `x-request-id` response header. The context is
//! adopted for the routing call and propagated into queue jobs, so spans
//! from every thread that touched the request reassemble into one tree.
//! Requests selected by `trace_sample_rate` additionally capture their
//! span tree; completed requests land in the [`FlightRecorder`] and, per
//! endpoint, in always-on lock-free latency histograms (`serve.latency.*`,
//! `serve.queue_wait`, `serve.analyze_time`, `serve.cache_lookup`).

use crate::cache::{BodyKey, Cached, ResultCache};
use crate::event::{EventCore, ReplySlot};
use crate::http::{self, Request};
use crate::queue::{lock_recover, JobQueue, SubmitError};
use crate::recorder::{FlightRecorder, RequestSummary};
use crate::shutdown;
use crate::store::{self, Durability, RecoveredSession, SessionStore};
use crate::wal::Wal;
use phasefold::report::render_report;
use phasefold::{try_analyze_trace, AnalysisConfig, FaultPolicy, OnlineAnalyzer};
use phasefold_fleet::{compare_fingerprints, verdict_json, Fingerprint, FingerprintStore, MatchConfig};
use phasefold_model::prv;
use phasefold_model::{Fault, FaultKind, Severity};
use phasefold_obs::export::json_escape;
use phasefold_obs::trace::TraceCtx;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Everything tunable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, scripts).
    pub addr: String,
    /// Worker threads executing analysis jobs: the daemon's one level of
    /// parallelism (each job analyses on its worker thread alone).
    pub workers: usize,
    /// Jobs the queue holds beyond the ones executing; the backpressure
    /// bound.
    pub queue_depth: usize,
    /// Reports kept in the in-memory `/v1/analyze` cache.
    pub cache_entries: usize,
    /// Analysis settings applied to submitted traces (per-request
    /// `?fault-policy=` overrides just the policy).
    pub analysis: AnalysisConfig,
    /// Streaming sessions freeze their clustering after this many bursts.
    pub warmup_bursts: usize,
    /// Per-read socket timeout; a slower writer gets `408` and is cut off.
    pub read_timeout: Duration,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Simultaneously open connections; the accept loop answers `503` past
    /// this, bounding the event-loop shards' connection tables and
    /// per-connection buffers.
    pub max_connections: usize,
    /// Largest rank id (+1) a streaming session accepts. Sessions allocate
    /// per-rank buffers up to the highest rank seen, so this bounds what a
    /// hostile record line can make a session allocate.
    pub max_stream_ranks: usize,
    /// How long a drain waits for connections and jobs before giving up.
    pub drain_deadline: Duration,
    /// Structured JSON access log destination (`None` = no access log).
    /// Only sampled requests (see `trace_sample_rate`) are logged.
    pub access_log: Option<PathBuf>,
    /// Fraction of requests whose span tree is captured for the flight
    /// recorder and access log, `0.0..=1.0`. Selection is deterministic in
    /// the request id, so replays sample identically.
    pub trace_sample_rate: f64,
    /// Completed-request summaries the flight recorder retains.
    pub recorder_capacity: usize,
    /// Slowest requests whose full span capture is retained for
    /// `GET /debug/trace/{id}`.
    pub recorder_slowest: usize,
    /// Directory holding per-session checkpoints and write-ahead logs
    /// (`None` = in-memory sessions only; required for any durability
    /// beyond [`Durability::None`]). Sessions checkpointed here are
    /// restored on daemon start.
    pub state_dir: Option<PathBuf>,
    /// What the daemon promises about acknowledged streamed records.
    pub durability: Durability,
    /// Accepted records between automatic checkpoints (`checkpoint` and
    /// `wal` modes).
    pub checkpoint_every: u64,
    /// Live streaming sessions the daemon holds at once; creation past the
    /// cap is answered `429`.
    pub max_sessions: usize,
    /// Idle sessions untouched for this long are evicted (checkpointed
    /// first when a state dir is configured, so they resume transparently
    /// on next touch). `Duration::ZERO` disables the sweep.
    pub session_ttl: Duration,
    /// Directory of the versioned fingerprint store backing
    /// `POST /v1/fingerprints` and `POST /v1/compare` (`None` = fleet
    /// endpoints answer `503`).
    pub fleet_dir: Option<PathBuf>,
    /// Retention bound of the fingerprint store (oldest evicted past it).
    pub fleet_max_fingerprints: usize,
    /// Default relative duration growth `POST /v1/compare` flags as a
    /// regression (per-request `?threshold=` overrides it).
    pub regress_threshold: f64,
    /// Event-loop shards serving connections (`0` = one per core, capped
    /// at 8). Each shard is one thread owning a poller and the
    /// connections hashed to it.
    pub event_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            cache_entries: 64,
            analysis: AnalysisConfig::default(),
            warmup_bursts: 64,
            read_timeout: Duration::from_secs(5),
            max_body: http::MAX_BODY_BYTES,
            max_connections: 256,
            max_stream_ranks: 1 << 16,
            drain_deadline: Duration::from_secs(10),
            access_log: None,
            trace_sample_rate: 1.0,
            recorder_capacity: 256,
            recorder_slowest: 16,
            state_dir: None,
            durability: Durability::None,
            checkpoint_every: 4096,
            max_sessions: 1024,
            session_ttl: Duration::ZERO,
            fleet_dir: None,
            fleet_max_fingerprints: 256,
            regress_threshold: MatchConfig::default().regression_threshold,
            event_shards: 0,
        }
    }
}

/// How the daemon went down.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainStats {
    /// Requests answered over the daemon's lifetime.
    pub requests: u64,
    /// Requests rejected with `503` (queue full / shutting down).
    pub rejected: u64,
    /// Analysis jobs that ran to completion.
    pub jobs_completed: usize,
    /// Analysis jobs isolated after a panic.
    pub jobs_panicked: usize,
    /// True when every connection closed and every job finished before the
    /// drain deadline.
    pub clean: bool,
    /// Connections still open when the drain gave up (0 when clean).
    pub connections_at_exit: usize,
    /// Jobs still in flight when the drain gave up (0 when clean).
    pub jobs_at_exit: usize,
}

/// Everything about one session that must change under a single lock: the
/// analyzer, its write-ahead log, and the checkpoint bookkeeping that ties
/// them together (`applied_seq` must always describe `analyzer`).
struct SessionInner {
    analyzer: OnlineAnalyzer,
    wal: Option<Wal>,
    /// Highest WAL sequence number reflected in `analyzer`.
    applied_seq: u64,
    /// Accepted records since the last checkpoint (drives the periodic
    /// checkpoint in `checkpoint` / `wal` modes).
    records_since_checkpoint: u64,
}

/// One streaming session: the fault policy is fixed at creation and kept
/// beside the analyzer so every later request is handled under the same
/// policy it was created with (parse strictness included).
struct StreamSession {
    policy: FaultPolicy,
    inner: Mutex<SessionInner>,
    /// Milliseconds since daemon start when the session was last addressed;
    /// the idle-TTL sweep evicts sessions whose touch is stale.
    last_touch_ms: AtomicU64,
}

impl StreamSession {
    fn from_recovered(rec: RecoveredSession, now_ms: u64) -> StreamSession {
        StreamSession {
            policy: rec.policy,
            inner: Mutex::new(SessionInner {
                analyzer: rec.analyzer,
                wal: rec.wal,
                applied_seq: rec.applied_seq,
                records_since_checkpoint: 0,
            }),
            last_touch_ms: AtomicU64::new(now_ms),
        }
    }
}

pub(crate) struct State {
    config: ServeConfig,
    cache: ResultCache,
    queue: JobQueue,
    sessions: Mutex<HashMap<String, Arc<StreamSession>>>,
    store: Option<SessionStore>,
    fleet: Option<FingerprintStore>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    rejected: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_rejected: AtomicU64,
    active_connections: AtomicUsize,
    started: Instant,
    recorder: FlightRecorder,
    access_log: Option<Mutex<std::fs::File>>,
    /// The event-loop core; set once right after the shards spawn.
    core: OnceLock<Arc<EventCore>>,
    /// Set when the drain begins; shards force-close connections past it.
    drain_deadline: Mutex<Option<Instant>>,
    /// In-flight `/v1/analyze` bodies → parked connections waiting on
    /// them (single-flight coalescing; index 0 is the job's submitter).
    flights: Mutex<HashMap<BodyKey, Vec<ReplySlot>>>,
}

impl State {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(core) = self.core.get() {
            core.wake_all();
        }
    }

    /// Socket-inactivity budget (also the write-stall budget).
    pub(crate) fn read_timeout(&self) -> Duration {
        self.config.read_timeout
    }

    /// Largest accepted request body (parser construction).
    pub(crate) fn max_body(&self) -> usize {
        self.config.max_body
    }

    /// When the in-progress drain force-closes connections; `None` until
    /// the drain starts.
    pub(crate) fn drain_deadline_at(&self) -> Option<Instant> {
        *lock_recover(&self.drain_deadline)
    }

    /// A shard closed a connection: drop it from the live gauge.
    pub(crate) fn conn_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Routes a finished reply back to the shard owning `slot`.
    fn deliver(&self, slot: ReplySlot, reply: Reply) {
        if let Some(core) = self.core.get() {
            core.deliver(slot, reply);
        }
    }

    fn session_count(&self) -> usize {
        lock_recover(&self.sessions).len()
    }

    /// Milliseconds since the daemon started (the session-touch clock).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn touch(&self, session: &StreamSession) {
        session.last_touch_ms.store(self.now_ms(), Ordering::SeqCst);
    }
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    thread: Option<JoinHandle<DrainStats>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a drain and waits for it; returns the drain outcome.
    pub fn shutdown(mut self) -> DrainStats {
        self.state.request_shutdown();
        self.join_inner()
    }

    /// Blocks until the daemon exits on its own (signal or
    /// `/admin/shutdown`).
    pub fn join(mut self) -> DrainStats {
        self.join_inner()
    }

    fn join_inner(&mut self) -> DrainStats {
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_default(),
            None => DrainStats::default(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds and starts a daemon; returns once the listener is accepting.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    phasefold_obs::set_enabled(true);
    let access_log = match &config.access_log {
        Some(path) => Some(Mutex::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        )),
        None => None,
    };
    let session_store = match (&config.state_dir, config.durability) {
        (None, Durability::None) => None,
        (None, mode) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("--durability {} requires --state-dir", mode.name()),
            ))
        }
        (Some(dir), mode) => {
            Some(SessionStore::open(dir.clone(), mode, config.checkpoint_every)?)
        }
    };
    // Resume every session checkpointed in the state dir before the first
    // request can land: `GET /v1/streams/{id}/phases` must answer from
    // resumed state immediately after a restart.
    let mut initial_sessions = HashMap::new();
    if let Some(s) = &session_store {
        for rec in s.recover(&config.analysis, config.warmup_bursts, config.max_stream_ranks) {
            phasefold_obs::counter!("serve.sessions_resumed", 1);
            initial_sessions.insert(rec.id.clone(), Arc::new(StreamSession::from_recovered(rec, 0)));
        }
    }
    let fleet = match &config.fleet_dir {
        Some(dir) => Some(FingerprintStore::open(dir.clone(), config.fleet_max_fingerprints)?),
        None => None,
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let event_shards = match config.event_shards {
        0 => cores.min(8),
        n => n,
    };
    let state = Arc::new(State {
        cache: ResultCache::new(config.cache_entries),
        queue: JobQueue::new(config.workers, config.queue_depth),
        sessions: Mutex::new(initial_sessions),
        store: session_store,
        fleet,
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        sessions_evicted: AtomicU64::new(0),
        sessions_rejected: AtomicU64::new(0),
        active_connections: AtomicUsize::new(0),
        started: Instant::now(),
        recorder: FlightRecorder::new(config.recorder_capacity, config.recorder_slowest),
        access_log,
        config,
        core: OnceLock::new(),
        drain_deadline: Mutex::new(None),
        flights: Mutex::new(HashMap::new()),
    });
    let core = EventCore::start(&state, event_shards)?;
    let _ = state.core.set(core);
    let run_state = Arc::clone(&state);
    let thread = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || run(&run_state, &listener))?;
    Ok(ServerHandle { addr, state, thread: Some(thread) })
}

fn run(state: &Arc<State>, listener: &TcpListener) -> DrainStats {
    let mut last_sweep = Instant::now();
    while !state.shutting_down() {
        if shutdown::signalled() {
            state.request_shutdown();
            break;
        }
        // The non-blocking accept loop iterates at least every 5ms, so a
        // ~1s sweep cadence costs nothing and keeps idle-session eviction
        // off the request path.
        if last_sweep.elapsed() >= Duration::from_secs(1) {
            last_sweep = Instant::now();
            sweep_idle_sessions(state);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // Past the connection cap, shed immediately instead of
                // queueing a connection that could sit on request buffers.
                if state.active_connections.load(Ordering::SeqCst) >= state.config.max_connections
                {
                    state.rejected.fetch_add(1, Ordering::SeqCst);
                    phasefold_obs::counter!("serve.connections_shed", 1);
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(false);
                    let _ = http::write_response(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        &[("retry-after", "1")],
                        b"too many connections, retry shortly\n",
                        false,
                    );
                    continue;
                }
                // The event loop needs the socket non-blocking (accepted
                // sockets do not inherit the listener's mode everywhere).
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                state.active_connections.fetch_add(1, Ordering::SeqCst);
                match state.core.get() {
                    Some(core) => core.dispatch(stream),
                    None => state.conn_closed(),
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }

    // Drain: no new connections are accepted. Publish the drain deadline,
    // wake every shard, and join the shard threads — they close idle
    // keep-alive connections immediately, let mid-request and parked
    // connections finish, and force-close whatever remains at the
    // deadline. Only then drain the job queue against the same deadline,
    // so a hung analysis cannot wedge shutdown past `drain_deadline`.
    state.request_shutdown();
    let deadline = Instant::now() + state.config.drain_deadline;
    *lock_recover(&state.drain_deadline) = Some(deadline);
    let forced_closed = match state.core.get() {
        Some(core) => {
            core.wake_all();
            core.join().forced_closed
        }
        None => 0,
    };
    let jobs_at_exit = state.queue.drain_until(deadline);
    // Final checkpoint on the way out: a graceful restart under
    // `checkpoint` durability should lose nothing, and under `wal` it
    // shrinks the next start to a restore with no replay.
    if let Some(session_store) = &state.store {
        if session_store.durability.auto_checkpoint() {
            let sessions: Vec<(String, Arc<StreamSession>)> = lock_recover(&state.sessions)
                .iter()
                .map(|(id, s)| (id.clone(), Arc::clone(s)))
                .collect();
            for (id, session) in sessions {
                let mut inner = lock_recover(&session.inner);
                if checkpoint_now(session_store, &id, session.policy, &mut inner).is_err() {
                    phasefold_obs::counter!("serve.checkpoint_failures", 1);
                }
            }
        }
    }
    // Every shard thread has been joined, so the gauge is final: any
    // residual count means a connection was dropped without a clean
    // close (force-closed connections are already back out of it).
    let connections_at_exit = forced_closed + state.active_connections.load(Ordering::SeqCst);
    DrainStats {
        requests: state.requests.load(Ordering::SeqCst),
        rejected: state.rejected.load(Ordering::SeqCst),
        jobs_completed: state.queue.completed(),
        jobs_panicked: state.queue.panicked(),
        clean: connections_at_exit == 0 && jobs_at_exit == 0,
        connections_at_exit,
        jobs_at_exit,
    }
}

/// Deterministic per-request sampling: hash the request id and compare
/// against `rate`. No RNG, so a replayed request id samples identically.
fn sampled(id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    (h as f64 / (1u64 << 53) as f64) < rate
}

/// The latency histogram a request records into, by endpoint label.
/// Names are `&'static str` because they are obs registry keys.
fn latency_hist(endpoint: &'static str) -> &'static str {
    match endpoint {
        "analyze" => "serve.latency.analyze",
        "fingerprints" => "serve.latency.fingerprints",
        "compare" => "serve.latency.compare",
        "healthz" => "serve.latency.healthz",
        "metrics" => "serve.latency.metrics",
        "stream_records" => "serve.latency.stream_records",
        "stream_phases" => "serve.latency.stream_phases",
        "stream_checkpoint" => "serve.latency.stream_checkpoint",
        "stream_delete" => "serve.latency.stream_delete",
        "debug" => "serve.latency.debug",
        "shutdown" => "serve.latency.shutdown",
        _ => "serve.latency.other",
    }
}

/// What one request's telemetry wrapper needs when the reply is ready,
/// whether that happens inline on the shard or later when a queue job
/// delivers the parked reply.
#[derive(Debug)]
pub(crate) struct RequestTicket {
    id: u64,
    capture: bool,
    t0: Instant,
    read_ns: u64,
    method: String,
    path: String,
    endpoint: &'static str,
    keep_alive: bool,
}

/// How routing resolved: an answer now, or a parked connection whose
/// reply a queue job will deliver through [`EventCore::deliver`].
pub(crate) enum Dispatch {
    /// Serialize and send this reply.
    Ready(RequestTicket, Reply),
    /// The connection waits; keep the ticket to finalize the delivery.
    Pending(RequestTicket),
}

/// A handler's answer: immediate, or parked on the job queue.
enum Routed {
    Ready(Reply),
    Pending,
}

impl From<Reply> for Routed {
    fn from(reply: Reply) -> Routed {
        Routed::Ready(reply)
    }
}

/// Front half of the per-request telemetry lifecycle, run on the shard
/// thread when the parser completes a request: mint a [`TraceCtx`],
/// adopt it for the routing call under a root span, and begin a span
/// capture when sampled. The back half is [`finalize_reply`].
pub(crate) fn handle_parsed(state: &Arc<State>, mut req: Request, slot: ReplySlot) -> Dispatch {
    state.requests.fetch_add(1, Ordering::SeqCst);
    // Decided before routing: a request that arrives mid-drain is the
    // connection's last even if the flag flips back (it cannot).
    let keep_alive = req.keep_alive() && !state.shutting_down();
    let ctx = TraceCtx::mint();
    let request_id = ctx.trace_id();
    let capture = sampled(request_id, state.config.trace_sample_rate);
    if capture {
        phasefold_obs::trace::begin_capture(request_id);
    }
    let t0 = Instant::now();
    let (endpoint, routed) = {
        let _adopt = ctx.adopt();
        let _root = phasefold_obs::span!("serve.request {} {}", req.method, req.path);
        route(state, &mut req, slot)
    };
    let ticket = RequestTicket {
        id: request_id,
        capture,
        t0,
        read_ns: req.read_ns,
        method: req.method,
        path: req.path,
        endpoint,
        keep_alive,
    };
    match routed {
        Routed::Ready(reply) => Dispatch::Ready(ticket, reply),
        Routed::Pending => Dispatch::Pending(ticket),
    }
}

/// Back half of the telemetry lifecycle: capture, histograms, flight
/// recorder, access log, `x-request-id`, and response serialization.
/// Returns the wire bytes and whether the connection stays open.
pub(crate) fn finalize_reply(state: &Arc<State>, ticket: RequestTicket, mut reply: Reply) -> (Vec<u8>, bool) {
    // Fold in the socket-read time: the client's stopwatch starts before
    // the body crosses the wire, so an honest daemon-side total has to
    // charge itself for receiving it too.
    let total_ns = ticket.read_ns + ticket.t0.elapsed().as_nanos() as u64;
    let spans = ticket.capture.then(|| phasefold_obs::trace::end_capture(ticket.id));

    phasefold_obs::histogram!(latency_hist(ticket.endpoint), total_ns);
    let summary = RequestSummary {
        id: ticket.id,
        endpoint: ticket.endpoint,
        path: ticket.path.clone(),
        status: reply.status,
        queue_ns: reply.meta.queue_ns,
        analyze_ns: reply.meta.analyze_ns,
        total_ns,
        cache_hit: reply.meta.cache_hit,
        faults: reply.meta.faults,
    };
    if ticket.capture {
        access_log(state, &summary, &ticket.method);
    }
    state.recorder.record(summary, spans);
    reply.headers.push(("x-request-id".to_string(), ticket.id.to_string()));
    let keep_alive = ticket.keep_alive && !state.shutting_down();
    let bytes = http::render_response(
        reply.status,
        reply.reason,
        reply.content_type,
        &reply.headers,
        &reply.body,
        keep_alive,
    );
    (bytes, keep_alive)
}

/// Appends one JSON line per sampled request to the configured access log.
fn access_log(state: &Arc<State>, s: &RequestSummary, method: &str) {
    let Some(log) = &state.access_log else { return };
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let line = format!(
        "{{\"ts_ms\":{ts_ms},\"request_id\":{},\"method\":\"{}\",\"path\":\"{}\",\
         \"endpoint\":\"{}\",\"status\":{},\"total_ms\":{:.3},\"queue_ms\":{:.3},\
         \"analyze_ms\":{:.3},\"cache_hit\":{},\"faults\":{}}}",
        s.id,
        json_escape(method),
        json_escape(&s.path),
        s.endpoint,
        s.status,
        s.total_ns as f64 / 1e6,
        s.queue_ns as f64 / 1e6,
        s.analyze_ns as f64 / 1e6,
        s.cache_hit,
        s.faults,
    );
    let mut file = lock_recover(log);
    let _ = writeln!(file, "{line}");
}

/// Per-request measurements a handler reports back to the telemetry
/// wrapper (attached to [`Reply`], never serialized).
#[derive(Debug, Clone, Copy, Default)]
struct ReplyMeta {
    queue_ns: u64,
    analyze_ns: u64,
    cache_hit: bool,
    faults: u64,
}

/// One routed answer, ready to serialize. `Clone` so one coalesced
/// analysis can answer every connection that waited on it.
#[derive(Debug, Clone)]
pub(crate) struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    meta: ReplyMeta,
}

impl Reply {
    fn new(status: u16, reason: &'static str, content_type: &'static str, body: Vec<u8>) -> Reply {
        Reply { status, reason, content_type, headers: Vec::new(), body, meta: ReplyMeta::default() }
    }

    fn json(status: u16, reason: &'static str, body: String) -> Reply {
        Reply::new(status, reason, "application/json", body.into_bytes())
    }

    fn text(status: u16, reason: &'static str, body: String) -> Reply {
        Reply::new(status, reason, "text/plain", body.into_bytes())
    }

    fn bad_request(msg: String) -> Reply {
        Reply::text(400, "Bad Request", msg)
    }

    fn not_found() -> Reply {
        Reply::text(404, "Not Found", "no such resource\n".to_string())
    }

    fn header(mut self, name: &str, value: String) -> Reply {
        self.headers.push((name.to_string(), value));
        self
    }
}

fn route(state: &Arc<State>, req: &mut Request, slot: ReplySlot) -> (&'static str, Routed) {
    let path = req.path.clone();
    let path = path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => ("healthz", healthz(state).into()),
        ("GET", "/metrics") => ("metrics", metrics(state, req).into()),
        ("POST", "/v1/analyze") => ("analyze", analyze(state, req, slot)),
        ("POST", "/v1/fingerprints") => ("fingerprints", fingerprints(state, req, slot)),
        ("POST", "/v1/compare") => ("compare", compare_builds(state, req, slot)),
        ("GET", "/debug/requests") => ("debug", debug_requests(state).into()),
        ("POST", "/admin/shutdown") => {
            state.request_shutdown();
            ("shutdown", Reply::json(200, "OK", "{\"draining\": true}\n".to_string()).into())
        }
        _ => {
            if let Some(id) = path.strip_prefix("/debug/trace/") {
                if req.method == "GET" {
                    ("debug", debug_trace(state, id).into())
                } else {
                    ("other", Reply::not_found().into())
                }
            } else if let Some(rest) = path.strip_prefix("/v1/streams/") {
                match (req.method.as_str(), rest.split_once('/')) {
                    ("POST", Some((id, "records"))) => {
                        ("stream_records", stream_records(state, req, id).into())
                    }
                    ("POST", Some((id, "checkpoint"))) => {
                        ("stream_checkpoint", stream_checkpoint(state, id).into())
                    }
                    ("GET", Some((id, "phases"))) => {
                        ("stream_phases", stream_phases(state, id).into())
                    }
                    ("DELETE", None) => ("stream_delete", stream_delete(state, rest).into()),
                    _ => ("other", Reply::not_found().into()),
                }
            } else {
                ("other", Reply::not_found().into())
            }
        }
    }
}

fn healthz(state: &Arc<State>) -> Reply {
    let body = format!(
        "{{\n\"status\": \"ok\",\n\"uptime_ms\": {},\n\"uptime_seconds\": {},\n\"sessions\": {},\n\"jobs_in_flight\": {},\n\"active_connections\": {},\n\"requests\": {},\n\"requests_total\": {}\n}}\n",
        state.started.elapsed().as_millis(),
        state.started.elapsed().as_secs(),
        state.session_count(),
        state.queue.in_flight(),
        state.active_connections.load(Ordering::SeqCst),
        state.requests.load(Ordering::SeqCst),
        state.requests.load(Ordering::SeqCst),
    );
    Reply::json(200, "OK", body)
}

fn metrics(state: &Arc<State>, req: &Request) -> Reply {
    match req.query_param("format") {
        Some("prom") => metrics_prom(state),
        Some(other) => {
            Reply::bad_request(format!("unknown metrics format {other:?} (want prom)\n"))
        }
        None => metrics_json(state),
    }
}

fn metrics_json(state: &Arc<State>) -> Reply {
    let cache_stats = state.cache.stats();
    let cache_len = state.cache.len();
    // Server-level gauges first (authoritative, monotone across scrapes),
    // then the obs export (spans drain per scrape, by design; counters and
    // histograms are cumulative).
    let mut body = format!(
        "{{\n\"schema\": \"phasefold-serve-metrics/1\",\n\"uptime_ms\": {},\n\"requests\": {},\n\"rejected\": {},\n\"sessions\": {},\n\"sessions_evicted\": {},\n\"sessions_rejected\": {},\n\"jobs_in_flight\": {},\n\"jobs_completed\": {},\n\"jobs_panicked\": {},\n\"cache_hits\": {},\n\"cache_misses\": {},\n\"cache_evictions\": {},\n\"cache_entries\": {}\n}}\n",
        state.started.elapsed().as_millis(),
        state.requests.load(Ordering::SeqCst),
        state.rejected.load(Ordering::SeqCst),
        state.session_count(),
        state.sessions_evicted.load(Ordering::SeqCst),
        state.sessions_rejected.load(Ordering::SeqCst),
        state.queue.in_flight(),
        state.queue.completed(),
        state.queue.panicked(),
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.evictions,
        cache_len,
    );
    body.push_str(&phasefold_obs::export::metrics_json(&phasefold_obs::snapshot()));
    Reply::json(200, "OK", body)
}

/// Prometheus text exposition: server-level series first, then every obs
/// counter, gauge, and histogram (`_bucket`/`_sum`/`_count`), including
/// the kernel roofline counters recorded by the analysis pipeline.
fn metrics_prom(state: &Arc<State>) -> Reply {
    use std::fmt::Write as _;
    let cache_stats = state.cache.stats();
    let mut body = String::with_capacity(4096);
    let counters: [(&str, u64); 9] = [
        ("serve_requests", state.requests.load(Ordering::SeqCst)),
        ("serve_rejected", state.rejected.load(Ordering::SeqCst)),
        ("serve_sessions_evicted", state.sessions_evicted.load(Ordering::SeqCst)),
        ("serve_sessions_rejected", state.sessions_rejected.load(Ordering::SeqCst)),
        ("serve_jobs_completed", state.queue.completed() as u64),
        ("serve_jobs_panicked", state.queue.panicked() as u64),
        ("serve_cache_hits", cache_stats.hits),
        ("serve_cache_misses", cache_stats.misses),
        ("serve_cache_evictions", cache_stats.evictions),
    ];
    for (name, v) in counters {
        let _ = writeln!(body, "# TYPE {name} counter");
        let _ = writeln!(body, "{name} {v}");
    }
    let gauges: [(&str, u64); 4] = [
        ("serve_uptime_seconds", state.started.elapsed().as_secs()),
        ("serve_sessions", state.session_count() as u64),
        ("serve_jobs_in_flight", state.queue.in_flight() as u64),
        (
            "serve_active_connections",
            state.active_connections.load(Ordering::SeqCst) as u64,
        ),
    ];
    for (name, v) in gauges {
        let _ = writeln!(body, "# TYPE {name} gauge");
        let _ = writeln!(body, "{name} {v}");
    }
    body.push_str(&phasefold_obs::export::prometheus_text(&phasefold_obs::snapshot()));
    Reply::new(200, "OK", "text/plain; version=0.0.4", body.into_bytes())
}

/// Flight-recorder summary: recent requests (newest first) and the
/// retained slowest set, one single-line JSON object per request.
fn debug_requests(state: &Arc<State>) -> Reply {
    use std::fmt::Write as _;
    let recent = state.recorder.recent();
    let slowest = state.recorder.slowest();
    let mut body = String::with_capacity(256 + 160 * (recent.len() + slowest.len()));
    body.push_str("{\n\"schema\": \"phasefold-serve-debug/1\",\n\"recent\": [\n");
    for (i, s) in recent.iter().enumerate() {
        let comma = if i + 1 < recent.len() { "," } else { "" };
        let _ = writeln!(body, "{}{comma}", s.to_json(None));
    }
    body.push_str("],\n\"slowest\": [\n");
    for (i, (s, span_count)) in slowest.iter().enumerate() {
        let comma = if i + 1 < slowest.len() { "," } else { "" };
        let _ = writeln!(body, "{}{comma}", s.to_json(Some(*span_count)));
    }
    body.push_str("]\n}\n");
    Reply::json(200, "OK", body)
}

/// Replays a retained slow request's captured span tree as Chrome-trace
/// JSON (same exporter as `phasefold --profile`), with lane names for
/// every thread the request touched.
fn debug_trace(state: &Arc<State>, id: &str) -> Reply {
    let Ok(id) = id.parse::<u64>() else {
        return Reply::bad_request("trace id must be a decimal request id\n".to_string());
    };
    let Some(slow) = state.recorder.trace(id) else {
        return Reply::text(
            404,
            "Not Found",
            "no span capture retained for that request id (only sampled slow \
             requests are kept)\n"
                .to_string(),
        );
    };
    let snap = phasefold_obs::Snapshot {
        spans: slow.spans,
        lanes: phasefold_obs::span::lane_names(),
        ..phasefold_obs::Snapshot::default()
    };
    Reply::json(200, "OK", phasefold_obs::export::chrome_trace_json(&snap))
}

/// Applies a `?fault-policy=` override to the configured analysis.
fn effective_config(state: &Arc<State>, req: &Request) -> Result<AnalysisConfig, Reply> {
    let mut config = state.config.analysis.clone();
    match req.query_param("fault-policy") {
        None => {}
        Some("strict") => config.fault_policy = FaultPolicy::Strict,
        Some("lenient") => config.fault_policy = FaultPolicy::Lenient,
        Some(other) => {
            return Err(Reply::bad_request(format!(
                "unknown fault-policy {other:?} (want strict|lenient)\n"
            )))
        }
    }
    Ok(config)
}

/// The reply a cache hit answers with.
fn hit_reply(cached: Cached) -> Reply {
    let mut reply = Reply::text(200, "OK", cached.report.to_string())
        .header("x-cache", "hit".to_string())
        .header("x-parse-quarantined", cached.parse_quarantined.to_string());
    reply.meta.cache_hit = true;
    reply.meta.faults = cached.parse_quarantined as u64;
    reply
}

fn analyze(state: &Arc<State>, req: &mut Request, slot: ReplySlot) -> Routed {
    let config = match effective_config(state, req) {
        Ok(c) => c,
        Err(reply) => return reply.into(),
    };
    let key = BodyKey::derive(&req.body, config.fault_policy);
    let lookup_t0 = Instant::now();
    let cached = state.cache.get(&key);
    phasefold_obs::histogram!("serve.cache_lookup", lookup_t0.elapsed().as_nanos() as u64);
    if let Some(cached) = cached {
        return hit_reply(cached).into();
    }

    // Single-flight: identical bodies already being analyzed get their
    // connection parked on the existing flight instead of burning a
    // second queue slot on the same computation. The flights lock is
    // held across the submission so a completing job cannot deliver
    // between registration and submission.
    let body = std::mem::take(&mut req.body);
    let mut flights = lock_recover(&state.flights);
    if let Some(waiters) = flights.get_mut(&key) {
        waiters.push(slot);
        phasefold_obs::counter!("serve.analyze_coalesced", 1);
        return Routed::Pending;
    }
    flights.insert(key, vec![slot]);
    let waiters = Waiters::Flight(key);
    let routed = submit_job(state, waiters, "analysis", "serve.analyze_job", move |state| {
        compute_analyze_reply(state, key, &body, &config)
    });
    if let Routed::Ready(_) = routed {
        flights.remove(&key);
    }
    routed
}

/// The analysis job body: re-check the cache (a flight for the same body
/// may have finished since the shard's lookup), parse per policy, analyze,
/// render and insert. Runs on a queue worker; the returned reply is the
/// template every waiter receives.
fn compute_analyze_reply(
    state: &Arc<State>,
    key: BodyKey,
    body: &[u8],
    config: &AnalysisConfig,
) -> Reply {
    if let Some(cached) = state.cache.recheck(&key) {
        return hit_reply(cached);
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return Reply::bad_request("trace body is not UTF-8\n".to_string());
    };
    // Parse according to policy; lenient quarantines defective lines.
    let (trace, parse_quarantined) = match prv::parse_trace_with(text, config.fault_policy) {
        Ok((t, report)) => (t, report.len()),
        Err(e) => return Reply::text(422, "Unprocessable Entity", format!("{e}\n")),
    };

    let t0 = Instant::now();
    let outcome = try_analyze_trace(&trace, config);
    let analyze_ns = t0.elapsed().as_nanos() as u64;
    phasefold_obs::histogram!("serve.analyze_time", analyze_ns);
    match outcome {
        Ok(analysis) => {
            let analysis_faults = analysis.faults.faults.len() as u64;
            let report = render_report(&analysis, &trace.registry);
            state.cache.insert(key, Cached { report: report.as_str().into(), parse_quarantined });
            let mut reply = Reply::text(200, "OK", report)
                .header("x-cache", "miss".to_string())
                .header("x-parse-quarantined", parse_quarantined.to_string());
            reply.meta.analyze_ns = analyze_ns;
            reply.meta.faults = parse_quarantined as u64 + analysis_faults;
            reply
        }
        Err(fault) => {
            let mut reply = Reply::text(422, "Unprocessable Entity", format!("{fault}\n"));
            reply.meta.analyze_ns = analyze_ns;
            reply.meta.faults = parse_quarantined as u64 + 1;
            reply
        }
    }
}

/// Validates a fleet identity string (build id / trace id): the same
/// conservative charset as stream ids, since both end up in filenames.
fn fleet_id(what: &str, id: &str) -> Result<String, Reply> {
    if id.is_empty()
        || id.len() > 128
        || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    {
        return Err(Reply::bad_request(format!(
            "{what} {id:?} must be 1-128 chars of [A-Za-z0-9._-]\n"
        )));
    }
    Ok(id.to_string())
}

/// The connections one queued job answers.
#[derive(Debug, Clone, Copy)]
enum Waiters {
    /// One parked connection (fleet endpoints).
    One(ReplySlot),
    /// Every connection coalesced under an in-flight `/v1/analyze` body;
    /// index 0 of its `flights` entry is the submitter.
    Flight(BodyKey),
}

/// Delivers a job's reply to its waiters on `Drop`, so a panicking job
/// still answers every parked connection (with a 500) instead of
/// stranding them until the drain deadline.
struct DeliverGuard {
    state: Arc<State>,
    waiters: Waiters,
    reply: Option<Reply>,
    what: &'static str,
}

impl Drop for DeliverGuard {
    fn drop(&mut self) {
        let slots = match self.waiters {
            Waiters::One(slot) => vec![slot],
            Waiters::Flight(key) => {
                lock_recover(&self.state.flights).remove(&key).unwrap_or_default()
            }
        };
        let replies = fan_out(self.reply.take(), self.what, slots.len());
        for (slot, reply) in slots.into_iter().zip(replies) {
            self.state.deliver(slot, reply);
        }
    }
}

/// The replies `waiters` connections receive from one job outcome, in
/// waiter order. A job that produced nothing (it panicked or was dropped
/// at the drain) answers everyone with a 500. Only the submitter (index
/// 0) truly missed the cache; coalesced waiters got its computation,
/// which is neither a hit nor a miss of their own — the header must say
/// so, because clients treat an exact `hit` as proof the cache served
/// them.
fn fan_out(reply: Option<Reply>, what: &str, waiters: usize) -> Vec<Reply> {
    let template = reply.unwrap_or_else(|| {
        Reply::text(500, "Internal Server Error", format!("{what} job died or timed out\n"))
    });
    let mut coalesced = template.clone();
    for (n, v) in coalesced.headers.iter_mut() {
        if n == "x-cache" && v == "miss" {
            *v = "coalesced".to_string();
        }
    }
    let mut replies = Vec::with_capacity(waiters);
    if waiters > 0 {
        replies.push(template);
    }
    replies.resize(waiters, coalesced);
    replies
}

/// Queues `work` on the bounded job queue to answer `waiters`: the job
/// adopts the request's [`TraceCtx`], records `serve.queue_wait`, runs
/// `work` under the `span` span, stamps the queue wait into the reply and
/// delivers it through [`DeliverGuard`]. A rejected submission answers
/// `503` now (with `Retry-After` when the queue is merely full).
fn submit_job(
    state: &Arc<State>,
    waiters: Waiters,
    what: &'static str,
    span: &'static str,
    work: impl FnOnce(&Arc<State>) -> Reply + Send + 'static,
) -> Routed {
    let trace_ctx = TraceCtx::current();
    let submitted = Instant::now();
    let job_state = Arc::clone(state);
    let job = Box::new(move || {
        let mut guard = DeliverGuard { state: job_state, waiters, reply: None, what };
        let queue_ns = submitted.elapsed().as_nanos() as u64;
        phasefold_obs::histogram!("serve.queue_wait", queue_ns);
        // The span must close (and be captured) before the reply is
        // delivered: the shard ends the capture as soon as it lands.
        let mut reply = {
            let _adopt = trace_ctx.map(TraceCtx::adopt);
            let _sp = phasefold_obs::span!("{span}");
            work(&guard.state)
        };
        reply.meta.queue_ns = queue_ns;
        guard.reply = Some(reply);
    });
    match state.queue.try_submit(job) {
        Ok(()) => Routed::Pending,
        Err(SubmitError::Full) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            Reply::text(503, "Service Unavailable", "queue full, retry shortly\n".into())
                .header("retry-after", "1".to_string())
                .into()
        }
        Err(SubmitError::ShuttingDown) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            Reply::text(503, "Service Unavailable", "daemon is draining\n".into()).into()
        }
    }
}

/// Parses and analyzes a PRV body into a [`Fingerprint`]. Runs on a
/// queue worker under the `serve.fingerprint_job` span.
fn fingerprint_from_prv(
    body: &[u8],
    config: &AnalysisConfig,
    build: &str,
    trace_id: &str,
) -> Result<Fingerprint, Reply> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Reply::bad_request("body is neither a .pffp frame nor UTF-8 PRV\n".into()));
    };
    let (trace, _) = prv::parse_trace_with(text, config.fault_policy)
        .map_err(|e| Reply::text(422, "Unprocessable Entity", format!("{e}\n")))?;
    match try_analyze_trace(&trace, config) {
        Ok(analysis) => Ok(Fingerprint::from_analysis(&analysis, &trace.registry, build, trace_id)),
        Err(fault) => Err(Reply::text(422, "Unprocessable Entity", format!("{fault}\n"))),
    }
}

/// The fingerprint store, or the `503` every fleet endpoint answers when
/// the daemon runs without one.
fn fleet_store(state: &State) -> Result<&FingerprintStore, Reply> {
    state.fleet.as_ref().ok_or_else(|| {
        Reply::text(
            503,
            "Service Unavailable",
            "fleet store not configured (start with --fleet-dir)\n".to_string(),
        )
    })
}

/// Stores `fp` in the fleet store and renders the confirmation JSON.
fn store_fingerprint(state: &State, fp: &Fingerprint, kind: &'static str) -> Reply {
    let store = match fleet_store(state) {
        Ok(store) => store,
        Err(reply) => return reply,
    };
    let key = match store.put(fp) {
        Ok(key) => key,
        Err(e) => {
            return Reply::text(500, "Internal Server Error", format!("storing fingerprint: {e}\n"))
        }
    };
    phasefold_obs::counter!("fleet.fingerprints_stored", 1);
    Reply::json(
        200,
        "OK",
        format!(
            "{{\"stored\":\"{key}\",\"build\":\"{}\",\"trace\":\"{}\",\"body\":\"{kind}\",\"clusters\":{},\"phases\":{}}}\n",
            json_escape(&fp.build_id),
            json_escape(&fp.trace_id),
            fp.clusters.len(),
            fp.num_phases(),
        ),
    )
}

/// `POST /v1/fingerprints?build=B[&trace=T]` — fingerprint the posted
/// trace (or store the posted `.pffp` frame) under the build identity.
/// A `.pffp` frame is decoded inline (identity fields rewritten to the
/// query parameters — the caller's naming wins); a PRV trace is parsed
/// and analyzed on the bounded job queue, so fleet ingestion sheds load
/// with `503` + `Retry-After` exactly like `/v1/analyze`.
fn fingerprints(state: &Arc<State>, req: &mut Request, slot: ReplySlot) -> Routed {
    if let Err(reply) = fleet_store(state) {
        return reply.into();
    }
    let build = match req.query_param("build") {
        Some(b) => match fleet_id("build id", b) {
            Ok(b) => b,
            Err(reply) => return reply.into(),
        },
        None => return Reply::bad_request("?build=<id> is required\n".to_string()).into(),
    };
    let trace_id = match fleet_id("trace id", req.query_param("trace").unwrap_or("default")) {
        Ok(t) => t,
        Err(reply) => return reply.into(),
    };
    if Fingerprint::sniff(&req.body) {
        // Decoding a frame is cheap (no analysis): answer inline.
        return match Fingerprint::decode(&req.body) {
            Ok(mut fp) => {
                fp.build_id = build;
                fp.trace_id = trace_id;
                store_fingerprint(state, &fp, "pffp").into()
            }
            Err(e) => {
                Reply::text(422, "Unprocessable Entity", format!("bad fingerprint: {e}\n")).into()
            }
        };
    }
    let config = match effective_config(state, req) {
        Ok(c) => c,
        Err(reply) => return reply.into(),
    };
    let body = std::mem::take(&mut req.body);
    submit_job(state, Waiters::One(slot), "fingerprint", "serve.fingerprint_job", move |state| {
        match fingerprint_from_prv(&body, &config, &build, &trace_id) {
            Ok(fp) => store_fingerprint(state, &fp, "prv"),
            Err(reply) => reply,
        }
    })
}

/// Compares two fingerprints and renders the verdict JSON.
fn render_verdict(baseline: &Fingerprint, candidate: &Fingerprint, config: &MatchConfig) -> Reply {
    let verdict = compare_fingerprints(baseline, candidate, config);
    phasefold_obs::counter!("fleet.compares", 1);
    if verdict.regressed {
        phasefold_obs::counter!("fleet.regressions_detected", 1);
    }
    let mut body = verdict_json(&verdict);
    body.push('\n');
    Reply::json(200, "OK", body)
}

/// `POST /v1/compare?baseline=B[&candidate=C][&threshold=R]` — regression
/// verdict between the stored baseline and either a stored candidate
/// (answered inline: two store reads and a match, no analysis) or the
/// posted body (PRV trace or `.pffp` frame, fingerprinted on the queue).
fn compare_builds(state: &Arc<State>, req: &mut Request, slot: ReplySlot) -> Routed {
    let store = match fleet_store(state) {
        Ok(store) => store,
        Err(reply) => return reply.into(),
    };
    let baseline_id = match req.query_param("baseline") {
        Some(b) => match fleet_id("build id", b) {
            Ok(b) => b,
            Err(reply) => return reply.into(),
        },
        None => return Reply::bad_request("?baseline=<build id> is required\n".to_string()).into(),
    };
    let mut config = MatchConfig {
        regression_threshold: state.config.regress_threshold,
        ..MatchConfig::default()
    };
    if let Some(t) = req.query_param("threshold") {
        match t.parse::<f64>() {
            Ok(t) if t > 0.0 && t.is_finite() => config.regression_threshold = t,
            _ => {
                return Reply::bad_request(format!(
                    "?threshold={t:?} must be a positive number (relative growth)\n"
                ))
                .into()
            }
        }
    }
    let baseline = match store.find_build(&baseline_id) {
        Ok(Some(fp)) => fp,
        Ok(None) => {
            return Reply::text(
                404,
                "Not Found",
                format!("no stored fingerprint for build {baseline_id:?}\n"),
            )
            .into()
        }
        Err(e) => {
            return Reply::text(500, "Internal Server Error", format!("reading baseline: {e}\n"))
                .into()
        }
    };
    match req.query_param("candidate") {
        Some(c) => {
            let c = match fleet_id("build id", c) {
                Ok(c) => c,
                Err(reply) => return reply.into(),
            };
            match store.find_build(&c) {
                Ok(Some(fp)) => render_verdict(&baseline, &fp, &config).into(),
                Ok(None) => Reply::text(
                    404,
                    "Not Found",
                    format!("no stored fingerprint for build {c:?}\n"),
                )
                .into(),
                Err(e) => Reply::text(
                    500,
                    "Internal Server Error",
                    format!("reading candidate: {e}\n"),
                )
                .into(),
            }
        }
        None if req.body.is_empty() => Reply::bad_request(
            "?candidate=<build id> or a request body (PRV trace or .pffp) is required\n"
                .to_string(),
        )
        .into(),
        None => {
            // Body candidate: decode a `.pffp` frame inline, or analyze
            // a PRV trace on the queue with the baseline moved into the
            // job.
            if Fingerprint::sniff(&req.body) {
                return match Fingerprint::decode(&req.body) {
                    Ok(mut fp) => {
                        fp.build_id = "inline".to_string();
                        fp.trace_id = baseline.trace_id.clone();
                        render_verdict(&baseline, &fp, &config).into()
                    }
                    Err(e) => Reply::text(
                        422,
                        "Unprocessable Entity",
                        format!("bad fingerprint: {e}\n"),
                    )
                    .into(),
                };
            }
            let analysis_config = match effective_config(state, req) {
                Ok(c) => c,
                Err(reply) => return reply.into(),
            };
            let body = std::mem::take(&mut req.body);
            submit_job(state, Waiters::One(slot), "compare", "serve.fingerprint_job", move |_| {
                match fingerprint_from_prv(&body, &analysis_config, "inline", &baseline.trace_id) {
                    Ok(fp) => render_verdict(&baseline, &fp, &config),
                    Err(reply) => reply,
                }
            })
        }
    }
}

/// Writes `id`'s checkpoint and, on success, resets its WAL (every entry
/// is now covered by the checkpoint) and its records-since counter.
fn checkpoint_now(
    session_store: &SessionStore,
    id: &str,
    policy: FaultPolicy,
    inner: &mut SessionInner,
) -> std::io::Result<()> {
    session_store.write_checkpoint(id, policy, inner.applied_seq, &inner.analyzer)?;
    if let Some(wal) = &mut inner.wal {
        wal.reset()?;
    }
    inner.records_since_checkpoint = 0;
    phasefold_obs::counter!("serve.checkpoints_written", 1);
    Ok(())
}

/// Evicts sessions idle past `session_ttl`. With a state dir configured
/// the evicted session is checkpointed first, so the eviction is a spill:
/// the next request to the same id resumes it from disk transparently.
fn sweep_idle_sessions(state: &Arc<State>) {
    let ttl_ms = state.config.session_ttl.as_millis() as u64;
    if ttl_ms == 0 {
        return;
    }
    let now_ms = state.now_ms();
    let expired: Vec<(String, Arc<StreamSession>)> = {
        let mut sessions = lock_recover(&state.sessions);
        let ids: Vec<String> = sessions
            .iter()
            .filter(|(_, s)| {
                now_ms.saturating_sub(s.last_touch_ms.load(Ordering::SeqCst)) >= ttl_ms
            })
            .map(|(id, _)| id.clone())
            .collect();
        ids.into_iter().filter_map(|id| sessions.remove(&id).map(|s| (id, s))).collect()
    };
    for (id, session) in expired {
        if let Some(session_store) = &state.store {
            let mut inner = lock_recover(&session.inner);
            if checkpoint_now(session_store, &id, session.policy, &mut inner).is_err() {
                // Losing the spill would lose acknowledged records in
                // checkpoint mode: keep the session resident instead.
                phasefold_obs::counter!("serve.checkpoint_failures", 1);
                drop(inner);
                lock_recover(&state.sessions).insert(id, session);
                continue;
            }
        }
        state.sessions_evicted.fetch_add(1, Ordering::SeqCst);
    }
}

/// Gets (or lazily creates) the streaming session `id`. A session's fault
/// policy is fixed when it is created; a later request whose explicit
/// `?fault-policy=` differs is answered `409` instead of being silently
/// handled under the session's policy. With a state dir, a session evicted
/// to disk is resumed here rather than recreated; brand-new sessions write
/// an initial checkpoint (persisting their policy) and, under `wal`
/// durability, open their log before the first record is accepted.
fn session(state: &Arc<State>, req: &Request, id: &str) -> Result<Arc<StreamSession>, Reply> {
    if id.is_empty() || id.len() > 128 || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        return Err(Reply::bad_request(format!(
            "stream id {id:?} must be 1-128 chars of [A-Za-z0-9_-]\n"
        )));
    }
    let config = effective_config(state, req)?;
    let overridden = req.query_param("fault-policy").is_some();
    let mut sessions = lock_recover(&state.sessions);
    if let Some(entry) = resident_or_resumed(state, &mut sessions, id) {
        if overridden && entry.policy != config.fault_policy {
            let created_as = match entry.policy {
                FaultPolicy::Strict => "strict",
                FaultPolicy::Lenient => "lenient",
            };
            return Err(Reply::text(
                409,
                "Conflict",
                format!(
                    "session {id:?} was created with fault-policy {created_as}; \
                     delete it to change the policy\n"
                ),
            ));
        }
        return Ok(entry);
    }
    // Admission control before any allocation or disk work: the map is the
    // resident-memory bound, so creation (and resumption, which
    // `resident_or_resumed` declines at the cap) is shed with 429 rather
    // than grown past it.
    if sessions.len() >= state.config.max_sessions {
        state.sessions_rejected.fetch_add(1, Ordering::SeqCst);
        return Err(Reply::text(
            429,
            "Too Many Requests",
            format!(
                "session cap {} reached; delete or wait out idle sessions\n",
                state.config.max_sessions
            ),
        )
        .header("retry-after", "1".to_string()));
    }
    let analyzer = OnlineAnalyzer::new(config.clone(), state.config.warmup_bursts)
        .with_max_ranks(state.config.max_stream_ranks)
        .with_seed(store::session_seed(id));
    let mut inner = SessionInner {
        analyzer,
        wal: None,
        applied_seq: 0,
        records_since_checkpoint: 0,
    };
    if let Some(session_store) = &state.store {
        // The initial checkpoint persists the session's policy, so recovery
        // handles it under the rules it was created with; failing to set up
        // durability must fail the request, not silently degrade it.
        let ready = session_store
            .write_checkpoint(id, config.fault_policy, 0, &inner.analyzer)
            .and_then(|()| {
                if session_store.durability.wal() {
                    inner.wal = Some(Wal::open(&session_store.wal_path(id), 1)?);
                }
                Ok(())
            });
        if let Err(e) = ready {
            return Err(Reply::text(
                500,
                "Internal Server Error",
                format!("could not persist new session {id:?}: {e}\n"),
            ));
        }
    }
    phasefold_obs::counter!("serve.sessions_created", 1);
    let entry = Arc::new(StreamSession {
        policy: config.fault_policy,
        inner: Mutex::new(inner),
        last_touch_ms: AtomicU64::new(state.now_ms()),
    });
    sessions.insert(id.to_string(), Arc::clone(&entry));
    Ok(entry)
}

fn stream_records(state: &Arc<State>, req: &Request, id: &str) -> Reply {
    let session = match session(state, req, id) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Reply::bad_request("record body is not UTF-8\n".to_string());
    };
    state.touch(&session);
    let strict = session.policy == FaultPolicy::Strict;
    let max_ranks = state.config.max_stream_ranks;
    let mut inner = lock_recover(&session.inner);

    // Durability contract: the body reaches the write-ahead log — fsync'd —
    // before any record is applied or acknowledged. The entry is appended
    // even when the apply below answers 422: replay re-runs the identical
    // apply, so a rejected batch deterministically re-keeps the same
    // accepted prefix it kept live.
    if let Some(appended) = inner.wal.as_mut().map(|wal| wal.append(&req.body)) {
        match appended {
            Ok(seq) => inner.applied_seq = seq,
            Err(e) => {
                phasefold_obs::counter!("serve.wal_append_failures", 1);
                return Reply::text(
                    500,
                    "Internal Server Error",
                    format!("write-ahead log append failed, records not accepted: {e}\n"),
                );
            }
        }
    }

    let outcome = store::apply_record_lines(&mut inner.analyzer, strict, max_ranks, text);
    inner.records_since_checkpoint += outcome.accepted as u64;
    if let Some(session_store) = &state.store {
        if session_store.durability.auto_checkpoint()
            && inner.records_since_checkpoint >= session_store.checkpoint_every
            && checkpoint_now(session_store, id, session.policy, &mut inner).is_err()
        {
            // The periodic checkpoint is an optimization of recovery time,
            // not the acknowledgment barrier — keep serving, surface it.
            phasefold_obs::counter!("serve.checkpoint_failures", 1);
            inner.analyzer.quarantine(
                Fault::new(
                    FaultKind::Io,
                    "periodic checkpoint failed; recovery will replay more of the log",
                )
                .severity(Severity::Warning),
            );
        }
    }
    if let Some(reject) = outcome.rejected {
        return Reply::text(422, "Unprocessable Entity", reject);
    }
    Reply::json(
        200,
        "OK",
        format!(
            "{{\n\"session\": \"{id}\",\n\"accepted\": {},\n\"quarantined\": {},\n\"malformed\": {},\n\"stream_faults\": {}\n}}\n",
            outcome.accepted, outcome.quarantined, outcome.malformed, outcome.stream_faults_total,
        ),
    )
}

/// Looks `id` up in the (locked) resident map, falling back to a disk
/// resume for a session the idle-TTL sweep spilled or a restart left
/// behind, so an evicted session stays addressable; `None` means the
/// session genuinely does not exist (or the resident cap blocks resuming
/// it right now).
fn resident_or_resumed(
    state: &Arc<State>,
    sessions: &mut HashMap<String, Arc<StreamSession>>,
    id: &str,
) -> Option<Arc<StreamSession>> {
    if let Some(s) = sessions.get(id) {
        return Some(Arc::clone(s));
    }
    let session_store = state.store.as_ref()?;
    if sessions.len() >= state.config.max_sessions {
        return None;
    }
    let rec = session_store.recover_session(
        id,
        &state.config.analysis,
        state.config.warmup_bursts,
        state.config.max_stream_ranks,
    )?;
    phasefold_obs::counter!("serve.sessions_resumed", 1);
    let entry = Arc::new(StreamSession::from_recovered(rec, state.now_ms()));
    sessions.insert(id.to_string(), Arc::clone(&entry));
    Some(entry)
}

/// `POST /v1/streams/{id}/checkpoint`: persist the session now. `404` for
/// an unknown session, `409` when the daemon runs without a state dir.
fn stream_checkpoint(state: &Arc<State>, id: &str) -> Reply {
    let Some(session) = resident_or_resumed(state, &mut lock_recover(&state.sessions), id) else {
        return Reply::not_found();
    };
    let Some(session_store) = &state.store else {
        return Reply::text(
            409,
            "Conflict",
            "daemon runs without --state-dir; checkpointing is disabled\n".to_string(),
        );
    };
    state.touch(&session);
    let mut inner = lock_recover(&session.inner);
    match checkpoint_now(session_store, id, session.policy, &mut inner) {
        Ok(()) => Reply::json(
            200,
            "OK",
            format!(
                "{{\n\"session\": \"{id}\",\n\"checkpointed\": true,\n\"applied_seq\": {},\n\"resident_bytes\": {}\n}}\n",
                inner.applied_seq,
                inner.analyzer.resident_bytes(),
            ),
        ),
        Err(e) => {
            phasefold_obs::counter!("serve.checkpoint_failures", 1);
            Reply::text(500, "Internal Server Error", format!("checkpoint failed: {e}\n"))
        }
    }
}

fn stream_phases(state: &Arc<State>, id: &str) -> Reply {
    let Some(session) = resident_or_resumed(state, &mut lock_recover(&state.sessions), id) else {
        return Reply::not_found();
    };
    state.touch(&session);
    let inner = lock_recover(&session.inner);
    let resident_bytes = inner.analyzer.resident_bytes();
    phasefold_obs::gauge!("serve.session_resident_bytes", resident_bytes as u64);
    let analysis = inner.analyzer.snapshot();
    let num_phases: usize = analysis.models.iter().map(|m| m.phases.len()).sum();
    let body = format!(
        "{{\n\"session\": \"{id}\",\n\"warm\": {},\n\"bursts_seen\": {},\n\"noise_bursts\": {},\n\"records_quarantined\": {},\n\"resident_bytes\": {resident_bytes},\n\"num_clusters\": {},\n\"num_models\": {},\n\"num_phases\": {num_phases},\n\"faults\": {}\n}}\n",
        inner.analyzer.is_warm(),
        inner.analyzer.bursts_seen(),
        inner.analyzer.noise_bursts(),
        inner.analyzer.records_quarantined(),
        analysis.clustering.num_clusters,
        analysis.models.len(),
        analysis.faults.faults.len(),
    );
    Reply::json(200, "OK", body)
}

fn stream_delete(state: &Arc<State>, id: &str) -> Reply {
    let in_map = lock_recover(&state.sessions).remove(id).is_some();
    // A session evicted to disk (or left by a previous run) has no map
    // entry but still owns files; DELETE must reclaim those too.
    let on_disk = state
        .store
        .as_ref()
        .is_some_and(|s| s.ckpt_path(id).exists());
    if let Some(session_store) = &state.store {
        session_store.remove(id);
    }
    if in_map || on_disk {
        Reply::json(200, "OK", format!("{{\"deleted\": \"{id}\"}}\n"))
    } else {
        Reply::not_found()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_cache(reply: &Reply) -> Option<&str> {
        reply.headers.iter().find(|(n, _)| n == "x-cache").map(|(_, v)| v.as_str())
    }

    #[test]
    fn a_job_that_died_answers_every_waiter_with_a_500() {
        let replies = fan_out(None, "analysis", 3);
        assert_eq!(replies.len(), 3);
        for reply in &replies {
            assert_eq!(reply.status, 500);
            assert_eq!(reply.reason, "Internal Server Error");
            assert_eq!(reply.body, b"analysis job died or timed out\n");
        }
        let fleet = fan_out(None, "fingerprint", 1);
        assert_eq!(fleet[0].body, b"fingerprint job died or timed out\n");
    }

    #[test]
    fn a_miss_is_the_submitters_alone_coalesced_waiters_say_so() {
        let miss = Reply::text(200, "OK", "report\n".to_string())
            .header("x-cache", "miss".to_string())
            .header("x-parse-quarantined", "1".to_string());
        let replies = fan_out(Some(miss), "analysis", 3);
        let labels: Vec<_> = replies.iter().map(x_cache).collect();
        assert_eq!(labels, [Some("miss"), Some("coalesced"), Some("coalesced")]);
        for reply in &replies {
            assert_eq!((reply.status, reply.body.as_slice()), (200, b"report\n".as_slice()));
            assert!(reply.headers.contains(&("x-parse-quarantined".to_string(), "1".to_string())));
        }
        // A hit (or a reply without a cache header) is the same for all.
        let hit = Reply::text(200, "OK", "report\n".to_string())
            .header("x-cache", "hit".to_string());
        let replies = fan_out(Some(hit), "analysis", 2);
        let labels: Vec<_> = replies.iter().map(x_cache).collect();
        assert_eq!(labels, [Some("hit"), Some("hit")]);
        assert!(fan_out(Some(Reply::not_found()), "compare", 0).is_empty());
    }
}
