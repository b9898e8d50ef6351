//! The daemon: accept loop, bounded job queue, worker pool, routing, and
//! graceful drain.
//!
//! Architecture (all `std::net` + threads — the container is offline):
//!
//! ```text
//!  accept loop ──► connection threads ──try_send──► bounded job queue
//!   (poll(2) ≤ 25 ms, (HTTP/1.1 parse,   │ Full → 503 + Retry-After
//!    re-checks drain   keep-alive,       ▼
//!    flag + SIGTERM)   WS upgrade)    N sim workers (decode cache shared)
//! ```
//!
//! The accept loop waits in `poll(2)` on the listener, so a connection
//! is accepted as soon as it arrives, and spawns one thread per
//! connection.
//!
//! Draining (`POST /shutdown` or SIGTERM) stops the accept loop, lets
//! every in-flight job finish, closes keep-alive connections after their
//! current request, then joins all threads — `Server::run` returns `Ok`.

use crate::cache::SessionCache;
use crate::flight::FlightRecorder;
use crate::http::{HttpError, Request, RequestParser, Response};
use crate::job::{self, EventSink, JobError, JobRequest};
use crate::ws;
use crate::ServeConfig;
use iwc_telemetry::span::{self, SpanContext};
use iwc_telemetry::{expo, Registry};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocking loops (the accept wait included) re-check the
/// drain flag.
const POLL: Duration = Duration::from_millis(25);

/// SIGTERM flag set by the signal handler (`cfg(unix)`).
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that requests a graceful drain. Safe to call
/// more than once. No-op on non-unix targets.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigterm(_sig: i32) {
            SIGTERM.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NO: i32 = 15;
        // SAFETY: installing a handler that only stores to an atomic is
        // async-signal-safe; std links libc so `signal` is available.
        unsafe {
            signal(SIGTERM_NO, on_sigterm as *const () as usize);
        }
    }
}

/// State shared by the accept loop, connections, and workers.
struct Shared {
    registry: Registry,
    cache: SessionCache,
    draining: AtomicBool,
    flight: FlightRecorder,
    /// Jobs currently sitting in (or being handed through) the queue.
    queue_used: AtomicUsize,
    /// Workers currently executing a job.
    busy_workers: AtomicUsize,
    workers: usize,
    queue_depth: usize,
    slow_ms: u64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || SIGTERM.load(Ordering::SeqCst)
    }

    /// Back-pressure signal for `/readyz`: every queue slot is taken.
    fn saturated(&self) -> bool {
        self.queue_used.load(Ordering::SeqCst) >= self.queue_depth
    }

    /// Publishes the live queue-depth gauge (and its peak) after a
    /// queue-occupancy change.
    fn publish_queue_gauges(&self, used: usize) {
        let depth = used as f64;
        self.registry.gauge("serve/queue/depth").set(depth);
        self.registry.gauge("serve/queue/peak").set_max(depth);
    }

    /// Publishes the busy-worker gauges (count, peak, utilization) after
    /// a worker picks up or finishes a job.
    fn publish_worker_gauges(&self, busy: usize) {
        let b = busy as f64;
        self.registry.gauge("serve/workers/busy").set(b);
        self.registry.gauge("serve/workers/peak").set_max(b);
        self.registry
            .gauge("serve/workers/utilization")
            .set(b / self.workers.max(1) as f64);
    }
}

/// One queued job: the parsed request, its span context (request id +
/// phase timings), a one-shot response channel, and an optional live-event
/// channel (WebSocket connections).
struct QueuedJob {
    req: JobRequest,
    span: Arc<SpanContext>,
    queued_at: Instant,
    resp: SyncSender<Result<String, JobError>>,
    events: Option<mpsc::Sender<String>>,
}

/// A handle for controlling a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, finish in-flight jobs,
    /// then `Server::run` returns.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// A snapshot of the server's metric registry (`serve/…` counters,
    /// live queue/worker gauges, phase histograms).
    pub fn stats(&self) -> iwc_telemetry::TelemetrySnapshot {
        self.shared.registry.snapshot()
    }

    /// The Prometheus text exposition of [`stats`](Self::stats) — exactly
    /// what `GET /metrics` serves.
    pub fn metrics_text(&self) -> String {
        expo::render(&self.shared.registry.snapshot())
    }

    /// The flight-recorder dump — exactly what `GET /v1/flightrecorder`
    /// serves.
    pub fn flight_json(&self) -> String {
        self.shared.flight.to_json()
    }
}

/// The serve daemon. Bind with [`Server::bind`], then block in
/// [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    queue_depth: usize,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let registry = Registry::new();
        let mut cache = SessionCache::new(&registry);
        if let Some(dir) = &cfg.results_cache {
            cache = cache.with_results(iwc_trace::ResultsCache::new(dir));
        }
        let workers = cfg.workers.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                registry,
                cache,
                draining: AtomicBool::new(false),
                flight: FlightRecorder::new(),
                queue_used: AtomicUsize::new(0),
                busy_workers: AtomicUsize::new(0),
                workers,
                queue_depth,
                slow_ms: cfg.slow_ms,
            }),
            workers,
            queue_depth,
        })
    }

    /// The bound address (port resolved when binding to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon until drained. Accepts connections, dispatches jobs
    /// through the bounded queue to the worker pool, and on drain joins
    /// every thread before returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors are
    /// handled and counted, not fatal).
    pub fn run(self) -> std::io::Result<()> {
        let (job_tx, job_rx) = mpsc::sync_channel::<QueuedJob>(self.queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut worker_handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&job_rx);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("iwc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker"),
            );
        }

        let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.registry.counter("serve/connections").add(1);
                    let shared = Arc::clone(&self.shared);
                    let tx = job_tx.clone();
                    conn_handles.push(
                        std::thread::Builder::new()
                            .name("iwc-serve-conn".into())
                            .spawn(move || handle_connection(stream, &shared, &tx))
                            .expect("spawn connection thread"),
                    );
                    conn_handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait_for_connection(&self.listener),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: connections finish their current request and exit (they
        // poll the drain flag), which drops their queue senders; workers
        // then run the queue dry and exit when the last sender goes away.
        drop(job_tx);
        for h in conn_handles {
            let _ = h.join();
        }
        for h in worker_handles {
            let _ = h.join();
        }
        // The post-mortem record survives the drain: one line on stderr
        // with the full event ring, greppable next to the access log.
        self.shared.flight.record("drain", "", "graceful");
        eprintln!("iwc-serve flightrecorder {}", self.shared.flight.to_json());
        Ok(())
    }
}

/// Blocks until the listener has a connection waiting, or for at most
/// [`POLL`], so the accept loop still sees a drain within that time.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is one valid pollfd that outlives the call; std links
    // libc so `poll` is available. Readiness, a timeout, an error and
    // EINTR (SIGTERM) all just return to the loop, which accepts or
    // re-checks the drain flag.
    unsafe {
        poll(&mut fd, 1, POLL.as_millis() as i32);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener) {
    std::thread::sleep(POLL);
}

/// Runs one job, turning a panic into a 500 that names the request so
/// the worker thread survives it. The outer `Err` is that 500.
fn catch_job_panic(
    rid: &str,
    job: impl FnOnce() -> Result<String, JobError>,
) -> Result<Result<String, JobError>, JobError> {
    // Unwind safety: the caller holds no lock across the call, the
    // session cache runs decodes outside its own lock, and the trace
    // analyzer's per-thread histogram drops any counts left behind at the
    // start of its next fold, so a panic leaves no poisoned mutex or
    // stale state for the next job on this worker.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        JobError::Failed(format!("job {rid} panicked: {what}"))
    })
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<QueuedJob>>) {
    loop {
        // Hold the lock only for the dequeue, not the job.
        let job = {
            let rx = rx.lock().expect("job queue lock poisoned");
            rx.recv()
        };
        let Ok(job) = job else { return };
        let used = shared.queue_used.fetch_sub(1, Ordering::SeqCst).max(1) - 1;
        shared.publish_queue_gauges(used);
        let busy = shared.busy_workers.fetch_add(1, Ordering::SeqCst) + 1;
        shared.publish_worker_gauges(busy);

        let rid = job.span.request_id();
        job.span.record_phase(
            "queue",
            job.queued_at
                .elapsed()
                .as_micros()
                .min(u128::from(u64::MAX)) as u64,
        );
        shared.flight.record("dispatch", &rid, "");
        for engine in &job.req.engines {
            shared
                .registry
                .counter(&format!("serve/engine/{}", engine.label()))
                .add(1);
        }

        let started = Instant::now();
        let sink_fn;
        let sink: EventSink<'_> = match &job.events {
            None => None,
            Some(tx) => {
                let tx = tx.clone();
                let rid = rid.clone();
                sink_fn = move |e: String| {
                    let _ = tx.send(with_request_id(&e, &rid));
                };
                Some(&sink_fn)
            }
        };
        // The span rides a thread-local, so the sim crate's decode and
        // launch paths charge their phases here without an API change;
        // the guard uninstalls it before the next job.
        let guarded = catch_job_panic(&rid, || {
            let _guard = span::set_current(Arc::clone(&job.span));
            job::run_job(&job.req, &shared.cache, sink)
        });
        let result = guarded.unwrap_or_else(|e| {
            shared.registry.counter("serve/jobs_panicked").add(1);
            Err(e)
        });
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        shared.registry.histogram("serve/job_us").record(us);
        shared
            .registry
            .counter(if result.is_ok() {
                "serve/jobs_ok"
            } else {
                "serve/jobs_failed"
            })
            .add(1);

        // Phase accounting: parse/queue arrive on the span from the
        // connection thread, decode/simulate from the sim hooks; render
        // is everything else in the job wall time (response assembly,
        // cache lookups, base64).
        let mut parse_us = 0u64;
        let mut queue_us = 0u64;
        let mut decode_us = 0u64;
        let mut simulate_us = 0u64;
        for (name, phase_us) in job.span.phases() {
            match name.as_str() {
                "parse" => parse_us += phase_us,
                "queue" => queue_us += phase_us,
                "decode" => decode_us += phase_us,
                "simulate" => simulate_us += phase_us,
                _ => {}
            }
        }
        let render_us = us.saturating_sub(decode_us + simulate_us);
        for (phase, phase_us) in [
            ("parse", parse_us),
            ("queue", queue_us),
            ("decode", decode_us),
            ("simulate", simulate_us),
            ("render", render_us),
        ] {
            shared
                .registry
                .histogram(&format!("serve/phase_us/{phase}"))
                .record(phase_us);
        }
        let breakdown = format!(
            "parse_us={parse_us} queue_us={queue_us} decode_us={decode_us} \
             simulate_us={simulate_us} render_us={render_us} total_us={us}"
        );
        if shared.slow_ms > 0 && us >= shared.slow_ms.saturating_mul(1000) {
            eprintln!("iwc-serve slow-request {rid} {breakdown}");
        }
        match &result {
            Ok(_) => shared.flight.record("complete", &rid, breakdown),
            Err(e) => shared
                .flight
                .record("error", &rid, format!("{} ({breakdown})", e.message())),
        }

        if let (Some(tx), Err(e)) = (&job.events, &result) {
            let _ = tx.send(with_request_id(
                &format!(
                    "{{\"event\":\"error\",\"status\":{},\"message\":\"{}\"}}",
                    e.status(),
                    iwc_telemetry::json::escape(e.message())
                ),
                &rid,
            ));
        }
        let _ = job.resp.send(result);
        let busy = shared.busy_workers.fetch_sub(1, Ordering::SeqCst) - 1;
        shared.publish_worker_gauges(busy);
    }
}

/// Injects `"request_id"` as the first field of a pre-rendered JSON event
/// object. Events that are not objects pass through unchanged.
fn with_request_id(event: &str, rid: &str) -> String {
    match event.strip_prefix('{') {
        Some("}") => format!("{{\"request_id\":\"{rid}\"}}"),
        Some(rest) => format!("{{\"request_id\":\"{rid}\",{rest}"),
        None => event.to_string(),
    }
}

/// Submits a job to the bounded queue; `Err` means the queue is full (the
/// daemon is saturated) and the caller should answer 503.
fn submit(
    shared: &Shared,
    tx: &SyncSender<QueuedJob>,
    req: JobRequest,
    span: Arc<SpanContext>,
    events: Option<mpsc::Sender<String>>,
) -> Result<Receiver<Result<String, JobError>>, ()> {
    let (resp_tx, resp_rx) = mpsc::sync_channel(1);
    shared.registry.counter("serve/jobs_submitted").add(1);
    let rid = span.request_id();
    shared.flight.record("accept", &rid, job_detail(&req));
    // Count the slot *before* the send: the moment a worker can see the
    // job, the occupancy it will decrement is already there.
    let used = shared.queue_used.fetch_add(1, Ordering::SeqCst) + 1;
    shared.publish_queue_gauges(used);
    match tx.try_send(QueuedJob {
        req,
        span,
        queued_at: Instant::now(),
        resp: resp_tx,
        events,
    }) {
        Ok(()) => Ok(resp_rx),
        Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
            let used = shared.queue_used.fetch_sub(1, Ordering::SeqCst).max(1) - 1;
            shared.publish_queue_gauges(used);
            shared.registry.counter("serve/rejected").add(1);
            shared
                .flight
                .record("error", &rid, "rejected: job queue full");
            Err(())
        }
    }
}

/// One-line description of a job for flight-recorder events.
fn job_detail(req: &JobRequest) -> String {
    if let Some(w) = &req.workload {
        format!("workload={w}")
    } else if let Some(p) = &req.pack {
        format!("pack={p}")
    } else {
        "trace".to_string()
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, jobs: &SyncSender<QueuedJob>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut parser =
        RequestParser::new(crate::http::DEFAULT_MAX_HEAD, crate::http::DEFAULT_MAX_BODY);
    let mut buf = [0u8; 16 * 1024];
    loop {
        loop {
            match parser.next_request() {
                Ok(Some(mut req)) => {
                    shared.registry.counter("serve/requests").add(1);
                    if req.wants_ws_upgrade() {
                        // The connection leaves HTTP; the WS session owns it.
                        handle_ws(stream, &req, shared, jobs);
                        return;
                    }
                    let close = req.wants_close() || shared.draining();
                    let resp = route(&mut req, shared, jobs);
                    if resp.write_to(&mut stream, close).is_err() {
                        return;
                    }
                    if close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    shared.registry.counter("serve/http_errors").add(1);
                    let _ = write_http_error(&mut stream, &e);
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle keep-alive connection: close once draining.
                if shared.draining() && parser.buffered() == 0 {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn write_http_error(stream: &mut TcpStream, e: &HttpError) -> std::io::Result<()> {
    Response::error(e.status(), &e.to_string()).write_to(stream, true)
}

/// Routes one HTTP request to a response.
fn route(req: &mut Request, shared: &Shared, jobs: &SyncSender<QueuedJob>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(format!(
            "{{\"ok\":true,\"draining\":{}}}",
            shared.draining()
        )),
        ("GET", "/readyz") => {
            // Readiness is stricter than liveness: a draining or
            // saturated daemon is alive but should not receive traffic.
            if shared.draining() {
                Response::error(503, "draining").with_header("Retry-After", "1")
            } else if shared.saturated() {
                Response::error(503, "job queue saturated").with_header("Retry-After", "1")
            } else {
                Response::json("{\"ready\":true}")
            }
        }
        ("GET", "/metrics") => Response::new(200).with_body(
            "text/plain; version=0.0.4; charset=utf-8",
            expo::render(&shared.registry.snapshot()).into_bytes(),
        ),
        ("GET", "/v1/flightrecorder") => Response::json(shared.flight.to_json()),
        ("GET", "/v1/catalog") => Response::json(job::catalog_json()),
        ("GET", "/v1/stats") => Response::json(shared.registry.snapshot().to_json()),
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            Response::json("{\"draining\":true}")
        }
        ("POST", "/v1/jobs") => {
            if shared.draining() {
                return Response::error(503, "draining").with_header("Retry-After", "1");
            }
            let body = std::mem::take(&mut req.body);
            let Ok(text) = std::str::from_utf8(&body) else {
                return Response::error(400, "body is not UTF-8");
            };
            let parse_started = Instant::now();
            let parsed = match JobRequest::from_json(text) {
                Ok(p) => p,
                Err(e) => return Response::error(e.status(), e.message()),
            };
            // Free the body now rather than while the job runs: a trace
            // upload is about 400 KB.
            drop(body);
            let span = SpanContext::new();
            span.record_phase(
                "parse",
                parse_started
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64,
            );
            let rid = span.request_id();
            let Ok(resp_rx) = submit(shared, jobs, parsed, span, None) else {
                return Response::error(503, "job queue full")
                    .with_header("Retry-After", "1")
                    .with_header("X-IWC-Request-Id", rid);
            };
            let resp = match resp_rx.recv() {
                Ok(Ok(body)) => Response::json(body),
                Ok(Err(e)) => Response::error(e.status(), e.message()),
                Err(_) => Response::error(500, "worker dropped the job"),
            };
            resp.with_header("X-IWC-Request-Id", rid)
        }
        ("GET", "/v1/ws") => {
            // Reaching route() means the upgrade headers were missing.
            Response::error(426, "this endpoint requires a WebSocket upgrade")
                .with_header("Upgrade", "websocket")
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/flightrecorder" | "/v1/catalog"
            | "/v1/stats" | "/shutdown" | "/v1/jobs",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Serves one WebSocket session: upgrade, one job request per text
/// message, live events streamed back as text frames.
fn handle_ws(mut stream: TcpStream, req: &Request, shared: &Shared, jobs: &SyncSender<QueuedJob>) {
    let Some(key) = req.header("sec-websocket-key") else {
        let _ = Response::error(400, "missing Sec-WebSocket-Key").write_to(&mut stream, true);
        return;
    };
    if req.path != "/v1/ws" {
        let _ = Response::error(404, "no such endpoint").write_to(&mut stream, true);
        return;
    }
    if shared.draining() {
        let _ = Response::error(503, "draining")
            .with_header("Retry-After", "1")
            .write_to(&mut stream, true);
        return;
    }
    let accept = ws::accept_key(key);
    let upgrade = format!(
        "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: {accept}\r\n\r\n"
    );
    if stream.write_all(upgrade.as_bytes()).is_err() {
        return;
    }
    shared.registry.counter("serve/ws/connections").add(1);

    let mut buf = [0u8; 16 * 1024];
    let mut wire: Vec<u8> = Vec::new();
    let mut asm = ws::MessageAssembler::new();
    'session: loop {
        // Decode any complete frames already buffered.
        loop {
            match ws::decode_frame(&wire, true, ws::MAX_CLIENT_PAYLOAD) {
                Ok(Some((frame, used))) => {
                    wire.drain(..used);
                    match asm.push(frame) {
                        Ok(Some(ws::WsEvent::Text(text))) => {
                            if !ws_run_job(&mut stream, &text, shared, jobs) {
                                break 'session;
                            }
                        }
                        Ok(Some(ws::WsEvent::Ping(payload))) => {
                            if send_frame(&mut stream, &ws::Frame::pong(payload)).is_err() {
                                break 'session;
                            }
                        }
                        Ok(Some(ws::WsEvent::Close(_))) => {
                            let _ = send_frame(&mut stream, &ws::Frame::close(1000, "bye"));
                            break 'session;
                        }
                        Ok(Some(ws::WsEvent::Binary(_))) => {
                            let _ = send_frame(
                                &mut stream,
                                &ws::Frame::close(1003, "text messages only"),
                            );
                            break 'session;
                        }
                        Ok(Some(ws::WsEvent::Pong) | None) => {}
                        Err(e) => {
                            let code = match e {
                                ws::WsError::TooLarge { .. } => 1009,
                                _ => 1002,
                            };
                            let _ =
                                send_frame(&mut stream, &ws::Frame::close(code, &e.to_string()));
                            break 'session;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let code = match e {
                        ws::WsError::TooLarge { .. } => 1009,
                        _ => 1002,
                    };
                    let _ = send_frame(&mut stream, &ws::Frame::close(code, &e.to_string()));
                    break 'session;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => wire.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.draining() {
                    let _ = send_frame(&mut stream, &ws::Frame::close(1001, "server draining"));
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Runs one job for a WS session, streaming events as they arrive.
/// Returns `false` when the socket died and the session should end.
fn ws_run_job(
    stream: &mut TcpStream,
    text: &str,
    shared: &Shared,
    jobs: &SyncSender<QueuedJob>,
) -> bool {
    let parse_started = Instant::now();
    let parsed = match JobRequest::from_json(text) {
        Ok(p) => p,
        Err(e) => {
            return send_event(
                stream,
                &format!(
                    "{{\"event\":\"error\",\"status\":{},\"message\":\"{}\"}}",
                    e.status(),
                    iwc_telemetry::json::escape(e.message())
                ),
            )
            .is_ok()
        }
    };
    let span = SpanContext::new();
    span.record_phase(
        "parse",
        parse_started
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64,
    );
    let rid = span.request_id();
    let (ev_tx, ev_rx) = mpsc::channel::<String>();
    let Ok(resp_rx) = submit(shared, jobs, parsed, span, Some(ev_tx)) else {
        return send_event(
            stream,
            &with_request_id(
                "{\"event\":\"error\",\"status\":503,\"message\":\"job queue full\"}",
                &rid,
            ),
        )
        .is_ok();
    };
    // Forward live events until the worker reports the final result; the
    // event channel closes when the worker drops its sender.
    loop {
        match ev_rx.recv_timeout(POLL) {
            Ok(event) => {
                if send_event(stream, &event).is_err() {
                    // Client went away mid-stream; let the job finish (it
                    // is already running) and drop the rest.
                    let _ = resp_rx.recv();
                    return false;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    match resp_rx.recv() {
        Ok(Ok(body)) => send_event(
            stream,
            &format!("{{\"request_id\":\"{rid}\",\"event\":\"result\",\"data\":{body}}}"),
        )
        .is_ok(),
        // The error event was already streamed by the worker.
        Ok(Err(_)) => true,
        Err(_) => send_event(
            stream,
            "{\"event\":\"error\",\"status\":500,\"message\":\"worker dropped the job\"}",
        )
        .is_ok(),
    }
}

fn send_frame(stream: &mut TcpStream, frame: &ws::Frame) -> std::io::Result<()> {
    stream.write_all(&ws::encode_frame(frame, None))
}

fn send_event(stream: &mut TcpStream, event: &str) -> std::io::Result<()> {
    send_frame(stream, &ws::Frame::text(event))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_becomes_a_500_naming_the_request() {
        let r = catch_job_panic("req-7", || panic!("lane {} out of range", 99));
        let e = r.expect_err("the panic is caught");
        assert_eq!(e.status(), 500);
        assert!(e.message().contains("req-7"), "{}", e.message());
        assert!(
            e.message().contains("lane 99 out of range"),
            "{}",
            e.message()
        );

        let r = catch_job_panic("req-8", || panic!("static message"));
        assert!(r.expect_err("caught").message().contains("static message"));
    }

    #[test]
    fn a_job_that_returns_passes_through() {
        let ok = catch_job_panic("r", || Ok("body".to_string()));
        assert_eq!(ok, Ok(Ok("body".to_string())));
        let failed = catch_job_panic("r", || Err(JobError::NotFound("x".into())));
        assert_eq!(failed, Ok(Err(JobError::NotFound("x".into()))));
    }
}
