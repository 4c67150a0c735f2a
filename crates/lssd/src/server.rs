//! The daemon proper: listener, admission control, worker sessions, and
//! the per-request robustness machinery.
//!
//! One OS thread per connection runs a session loop: read a frame, parse
//! the request, pass the admission gate, execute behind a panic
//! boundary, respond. The expensive verbs share two caches: the
//! content-addressed disk cache from `lss-driver` (exactly-once publish,
//! safe under concurrent sessions) and an in-process *hot* map from
//! cache key to the elaborated artifact, so a warm compile never touches
//! disk at all.
//!
//! Robustness invariants, each pinned by the chaos suite:
//!
//! * a hostile frame (truncated, oversized, slow-loris, non-JSON) costs
//!   at most its own connection — never the daemon;
//! * a request that exceeds its quota is shed with a typed `budget`
//!   response carrying the `LSS4xx` code, not killed;
//! * a panicking request produces an `ice` response (and a crash report
//!   via the installed hook) while the daemon keeps serving;
//! * when every worker is busy and the queue is full, new work is shed
//!   with a typed `busy` response and a `retry_after_ms` hint;
//! * SIGTERM (or a `shutdown` request) drains gracefully: stop
//!   accepting, finish in-flight requests, then exit.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lss_driver::{Driver, DriverError, Elaborated};

use crate::proto::{
    read_frame, response, write_frame, FrameError, ObjBuilder, Quota, Request, Verb,
};
use crate::session::{Spec, Status};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    Tcp(String),
}

/// Server configuration; every knob has a safe default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub endpoint: Endpoint,
    /// Concurrent request permits (the worker pool size).
    pub workers: usize,
    /// How many admitted-but-waiting requests may queue beyond the
    /// worker permits before new work is shed with `busy`.
    pub queue: usize,
    /// How long a queued request waits for a permit before it is shed.
    pub admit_wait: Duration,
    /// Per-frame completion deadline (slow-loris shed).
    pub io_timeout: Duration,
    /// Disk cache directory shared by every session (`None` disables).
    pub cache_dir: Option<PathBuf>,
    /// Server-wide quota caps, merged (tighter wins) into every
    /// request's own quota.
    pub quota: Quota,
    /// Honor `chaos` fault-injection requests. Never enable outside
    /// tests and CI canaries.
    pub chaos: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            workers: 4,
            queue: 8,
            admit_wait: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            cache_dir: None,
            quota: Quota::default(),
            chaos: false,
        }
    }
}

/// Daemon-lifetime counters, all monotonic; reported by `stats`.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests answered with any status.
    pub served: AtomicU64,
    /// Requests shed with `busy` by admission control.
    pub shed: AtomicU64,
    /// Requests that exhausted a quota (`budget` responses).
    pub budget_stops: AtomicU64,
    /// Requests that panicked behind the isolation boundary.
    pub panics: AtomicU64,
    /// Compiles served from the in-process hot map.
    pub hot_hits: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

/// The admission gate: `workers` concurrent permits plus a bounded wait
/// queue. Anything beyond both is shed immediately — the daemon's
/// defining load-shedding behavior. A [`Permit`] returns its slot on
/// drop, panic or not.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    workers: usize,
    queue: usize,
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

enum Admission {
    Granted,
    /// Shed: all permits busy and the queue is full (or the queued wait
    /// timed out). Carries the suggested client backoff.
    Busy {
        retry_after_ms: u64,
    },
}

impl Gate {
    fn new(workers: usize, queue: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            workers: workers.max(1),
            queue,
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn admit(&self, wait: Duration) -> Admission {
        let mut state = self.lock();
        if state.active < self.workers {
            state.active += 1;
            return Admission::Granted;
        }
        if state.queued >= self.queue {
            return Admission::Busy {
                retry_after_ms: self.retry_hint(&state),
            };
        }
        state.queued += 1;
        let deadline = Instant::now() + wait;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                state.queued -= 1;
                return Admission::Busy {
                    retry_after_ms: self.retry_hint(&state),
                };
            }
            let (next, _timeout) = self
                .freed
                .wait_timeout(state, remaining)
                .unwrap_or_else(|p| p.into_inner());
            state = next;
            if state.active < self.workers {
                state.queued -= 1;
                state.active += 1;
                return Admission::Granted;
            }
        }
    }

    /// A backoff hint scaled to the backlog: deeper queue, longer wait.
    fn retry_hint(&self, state: &GateState) -> u64 {
        25 * (state.queued as u64 + 1)
    }

    fn release(&self) {
        let mut state = self.lock();
        state.active = state.active.saturating_sub(1);
        drop(state);
        self.freed.notify_one();
    }
}

/// RAII permit from the [`Gate`]; releasing on drop is what makes the
/// slot survive worker panics.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    cfg: ServerConfig,
    gate: Gate,
    counters: Counters,
    /// Cache key → elaborated artifact. Poison-tolerant: a panic while
    /// holding the lock (chaos-injected or real) must not take the map
    /// down with it.
    hot: Mutex<HashMap<u64, Arc<Elaborated>>>,
    drain: AtomicBool,
    started: Instant,
}

impl Shared {
    fn hot_lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<Elaborated>>> {
        self.hot.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }
}

/// One bound daemon, ready to [`Server::run`].
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
    /// The Unix socket path to unlink on exit.
    cleanup: Option<PathBuf>,
}

/// Requests graceful drain: stop accepting, finish in-flight requests,
/// flush, exit. Cloneable and safe to trigger from a signal handler's
/// watcher thread.
#[derive(Clone)]
pub struct DrainHandle(Arc<Shared>);

impl DrainHandle {
    /// Sets the drain flag; [`Server::run`] returns once in-flight work
    /// completes.
    pub fn drain(&self) {
        self.0.drain.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.0.draining()
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Server {
    /// Binds the configured endpoint. A stale Unix socket file from a
    /// crashed daemon is removed first.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let (listener, cleanup) = match &cfg.endpoint {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Some(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => (Listener::Tcp(TcpListener::bind(addr.as_str())?), None),
        };
        Ok(Server {
            shared: Arc::new(Shared {
                gate: Gate::new(cfg.workers, cfg.queue),
                counters: Counters::default(),
                hot: Mutex::new(HashMap::new()),
                drain: AtomicBool::new(false),
                started: Instant::now(),
                cfg,
            }),
            listener,
            cleanup,
        })
    }

    /// The bound TCP address (for `:0` ephemeral ports); `None` on Unix
    /// sockets.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// A handle for requesting graceful drain from another thread (the
    /// signal watcher, or a test).
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared))
    }

    /// Serves until drained. Accepts connections without blocking so the
    /// drain flag is observed within one poll interval; each connection
    /// gets its own session thread; on drain the listener closes first,
    /// then every session is joined (sessions finish their in-flight
    /// request and exit), then the socket file is unlinked.
    pub fn run(self) -> std::io::Result<()> {
        match &self.listener {
            Listener::Unix(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            let accepted = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
            };
            match accepted {
                Ok(stream) => {
                    self.shared
                        .counters
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || session(stream, &shared)));
                    sessions.retain(|h| !h.is_finished());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: the listener drops (no new connections), sessions see
        // the flag and finish their in-flight request.
        drop(self.listener);
        for handle in sessions {
            let _ = handle.join();
        }
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One connection's lifetime: frames in, responses out, until EOF,
/// error, or drain. Any outcome other than a response is deliberately
/// quiet — a hostile client does not get to make the daemon loud.
fn session(mut stream: Stream, shared: &Shared) {
    // Short poll so mid-frame progress and the drain flag are both
    // observed; the real deadline is enforced by `read_frame`.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    loop {
        let cancelled = || shared.draining();
        let frame = match read_frame(&mut stream, shared.cfg.io_timeout, &cancelled) {
            Ok(frame) => frame,
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Cancelled) => return,
            Err(e @ (FrameError::Oversized(_) | FrameError::TimedOut)) => {
                // Typed shed, then close: the framing is now unsynced.
                let body = response(Status::BadRequest)
                    .str("error", &e.to_string())
                    .finish();
                let _ = write_frame(&mut stream, body.as_bytes());
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let body = match Request::parse(&frame) {
            Ok(request) => handle(request, shared),
            // A malformed request costs one response, not the
            // connection: framing is still synced.
            Err(e) => response(Status::BadRequest).str("error", &e).finish(),
        };
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        if write_frame(&mut stream, body.as_bytes()).is_err() {
            // Mid-response disconnect; nothing to salvage.
            return;
        }
        if shared.draining() {
            return;
        }
    }
}

/// Routes one request. Control verbs bypass the gate (they are O(1) and
/// must work under full load — `stats` during saturation is the whole
/// point); work verbs pass admission and run behind the panic boundary.
fn handle(request: Request, shared: &Shared) -> String {
    match request.verb {
        Verb::Ping => response(Status::Ok).bool("pong", true).finish(),
        Verb::Stats => stats_response(shared),
        Verb::Shutdown => {
            shared.drain.store(true, Ordering::SeqCst);
            response(Status::Ok).bool("draining", true).finish()
        }
        Verb::Compile | Verb::Check | Verb::Simulate | Verb::Difftest | Verb::Chaos => {
            match shared.gate.admit(shared.cfg.admit_wait) {
                Admission::Busy { retry_after_ms } => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    response(Status::Busy)
                        .num("retry_after_ms", retry_after_ms)
                        .str("error", "all workers busy and the queue is full")
                        .finish()
                }
                Admission::Granted => {
                    let permit = Permit(&shared.gate);
                    let verb = request.verb;
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute(request, shared)
                    }));
                    drop(permit);
                    match outcome {
                        Ok(body) => body,
                        Err(payload) => {
                            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                            response(Status::Ice)
                                .str(
                                    "error",
                                    &format!(
                                        "internal error while serving `{}`: {}",
                                        verb.name(),
                                        crate::payload_str(payload.as_ref())
                                    ),
                                )
                                .finish()
                        }
                    }
                }
            }
        }
    }
}

fn stats_response(shared: &Shared) -> String {
    let gate = shared.gate.lock();
    let (active, queued) = (gate.active, gate.queued);
    drop(gate);
    let c = &shared.counters;
    response(Status::Ok)
        .num("uptime_ms", shared.started.elapsed().as_millis() as u64)
        .num("workers", shared.cfg.workers as u64)
        .num("queue_cap", shared.cfg.queue as u64)
        .num("active", active as u64)
        .num("queued", queued as u64)
        .num("served", c.served.load(Ordering::Relaxed))
        .num("shed", c.shed.load(Ordering::Relaxed))
        .num("budget_stops", c.budget_stops.load(Ordering::Relaxed))
        .num("panics", c.panics.load(Ordering::Relaxed))
        .num("hot_hits", c.hot_hits.load(Ordering::Relaxed))
        .num("hot_entries", shared.hot_lock().len() as u64)
        .num("connections", c.connections.load(Ordering::Relaxed))
        .bool("chaos", shared.cfg.chaos)
        .finish()
}

/// Compiles through the hot map: probe by cache key, else elaborate and
/// publish. Returns the artifact and the cache tier it came from
/// (`hot` beats the disk cache's `hit`/`miss`).
fn compile(
    driver: &mut Driver,
    shared: &Shared,
) -> Result<(Arc<Elaborated>, &'static str), DriverError> {
    let key = driver.cache_key();
    if let Some(hot) = shared.hot_lock().get(&key).cloned() {
        shared.counters.hot_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((hot, "hot"));
    }
    let elaborated = driver.elaborate()?;
    let tier = elaborated.cache.name();
    shared
        .hot_lock()
        .entry(key)
        .or_insert_with(|| Arc::clone(&elaborated));
    Ok((elaborated, tier))
}

/// A failed stage's response head: `budget` responses carry the
/// `LSS4xx` code and count as budget stops.
fn failure(
    shared: &Shared,
    status: Status,
    code: Option<&str>,
    stage: &str,
    error: &str,
) -> ObjBuilder {
    let mut body = response(status);
    if status == Status::Budget {
        shared.counters.budget_stops.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(code) = code {
        body.str("code", code);
    }
    body.str("stage", stage).str("error", error);
    body
}

fn stage_failure(e: &DriverError, shared: &Shared) -> String {
    failure(
        shared,
        Status::of(e),
        e.budget_code(),
        e.stage.name(),
        e.rendered(),
    )
    .finish()
}

/// Executes a work verb. Runs inside the panic boundary with a gate
/// permit held.
fn execute(request: Request, shared: &Shared) -> String {
    // Chaos faults are daemon-level, not compilations: route them before
    // any driver setup (they need no sources and obey no quota).
    if request.verb == Verb::Chaos {
        return execute_chaos(&request, shared);
    }
    let (verb, cycles) = (request.verb, request.cycles);
    let spec = Spec {
        model: request.model,
        libs: request.libs,
        sources: request.sources,
        quota: request.quota.clamp(shared.cfg.quota),
        cache_dir: shared.cfg.cache_dir.clone(),
        ..Spec::default()
    };
    let mut driver = match spec.driver() {
        Ok(driver) => driver,
        Err((status, e)) => return response(status).str("error", &e).finish(),
    };
    match verb {
        Verb::Compile => {
            let (elaborated, tier) = match compile(&mut driver, shared) {
                Ok(done) => done,
                Err(e) => return stage_failure(&e, shared),
            };
            response(Status::Ok)
                .str("cache", tier)
                .num("instances", elaborated.netlist.instances.len() as u64)
                .num("connections", elaborated.netlist.connections.len() as u64)
                .str_array("prints", &elaborated.prints)
                .str("netlist", &lss_netlist::to_json(&elaborated.netlist))
                .finish()
        }
        Verb::Check => {
            let analyzed = match driver.analyze(&lss_analyze::AnalysisConfig::default()) {
                Ok(a) => a,
                Err(e) => return stage_failure(&e, shared),
            };
            let (errors, warnings, infos) = analyzed.analysis.counts();
            response(Status::Ok)
                .num("findings", analyzed.analysis.findings.len() as u64)
                .num("errors", errors as u64)
                .num("warnings", warnings as u64)
                .num("infos", infos as u64)
                .num("denied", analyzed.analysis.denied as u64)
                .str(
                    "report",
                    &lss_analyze::to_jsonl(&analyzed.analysis.findings),
                )
                .finish()
        }
        Verb::Simulate => {
            let (elaborated, tier) = match compile(&mut driver, shared) {
                Ok(done) => done,
                Err(e) => return stage_failure(&e, shared),
            };
            let mut sim = match driver.simulator(&elaborated.netlist) {
                Ok(s) => s,
                Err(e) => return stage_failure(&e, shared),
            };
            match sim.run(cycles) {
                Ok(()) => {
                    let stats = sim.stats();
                    response(Status::Ok)
                        .str("cache", tier)
                        .num("cycles", stats.cycles)
                        .num("comp_evals", stats.comp_evals)
                        .num("port_firings", stats.port_firings)
                        .finish()
                }
                // The simulator's in-loop budget check: a runaway
                // simulate is shed mid-run with its LSS4xx code.
                Err(e) => {
                    let status = Status::of_sim(&e);
                    let mut body =
                        failure(shared, status, e.budget_code(), "simulate", &e.to_string());
                    if status == Status::Budget {
                        body.num("cycles", sim.stats().cycles);
                    }
                    body.finish()
                }
            }
        }
        Verb::Difftest => {
            let Some((name, text)) = spec.sources.first() else {
                return response(Status::BadRequest)
                    .str("error", "difftest needs at least one source")
                    .finish();
            };
            let opts = lss_verify::DiffOptions {
                cycles,
                ..lss_verify::DiffOptions::default()
            };
            match lss_verify::difftest_source(name, text, &opts) {
                Ok(None) => response(Status::Ok)
                    .bool("agree", true)
                    .num("cycles", cycles)
                    .finish(),
                Ok(Some(discrepancy)) => response(Status::Ok)
                    .bool("agree", false)
                    .str("discrepancy", &discrepancy.to_string())
                    .finish(),
                Err(e) => response(Status::Error).str("error", &e).finish(),
            }
        }
        Verb::Chaos | Verb::Ping | Verb::Stats | Verb::Shutdown => {
            unreachable!("control and chaos verbs are routed before execute")
        }
    }
}

/// Injectable daemon faults, honored only under `--chaos`. Each one
/// exercises a robustness boundary the chaos suite then asserts on.
fn execute_chaos(request: &Request, shared: &Shared) -> String {
    if !shared.cfg.chaos {
        return response(Status::BadRequest)
            .str(
                "error",
                "chaos faults are disabled (start lssd with --chaos)",
            )
            .finish();
    }
    match request.fault.as_deref() {
        Some("worker-panic") => panic!("injected worker panic (chaos request)"),
        // Holds a worker permit for 250 ms: lets tests and the service
        // bench saturate admission control deterministically.
        Some("worker-sleep") => {
            std::thread::sleep(Duration::from_millis(250));
            response(Status::Ok).bool("slept", true).finish()
        }
        Some("cache-corrupt") => {
            let corrupted = corrupt_cache(shared);
            response(Status::Ok).num("corrupted", corrupted).finish()
        }
        Some("hot-poison") => {
            // Panic *while holding the hot-map lock*: proves the
            // poison-tolerant locking keeps the map usable.
            let guard = shared.hot_lock();
            let _ = guard.len();
            panic!("injected panic while holding the hot-map lock");
        }
        other => response(Status::BadRequest)
            .str(
                "error",
                &format!(
                    "unknown fault {:?} (expected worker-panic, worker-sleep, \
                     cache-corrupt, hot-poison)",
                    other.unwrap_or("<missing>")
                ),
            )
            .finish(),
    }
}

/// Truncates every cache entry on disk to half its size — the
/// mid-request corruption fault. The next cold compile must detect the
/// damage (integrity gate), self-heal the slots, and republish.
fn corrupt_cache(shared: &Shared) -> u64 {
    let Some(dir) = &shared.cfg.cache_dir else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut corrupted = 0u64;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "bin") {
            continue;
        }
        if let Ok(bytes) = std::fs::read(&path) {
            if std::fs::write(&path, &bytes[..bytes.len() / 2]).is_ok() {
                corrupted += 1;
            }
        }
    }
    // Drop the hot map too, so the next compile actually re-reads disk.
    shared.hot_lock().clear();
    corrupted
}

/// Writes one line to stderr ignoring failures (the daemon must never
/// die to EPIPE on its log stream).
pub fn log_line(line: &str) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "lssd: {line}");
}
