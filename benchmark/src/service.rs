//! `service_mix`: an in-process `lssd` serving a closed loop of two
//! connections, each sending a seeded mix of requests and waiting for
//! every reply, as the build tools that call the daemon do.

use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lss_netlist::jsonval::{parse_json, JsonValue};
use lss_types::SplitMix64;
use lss_verify::GenConfig;
use lssd::{
    read_frame, write_frame, Client, DrainHandle, Endpoint, Request, Server, ServerConfig, Verb,
};

use crate::compile::expected;
use crate::harness::{dir_entries, remove_new_entries, work_dir, Config, Metric, OpLog, Workload};
use crate::trace::{Tracer, OP};

const CONNECTIONS: usize = 2;
/// Requests per connection and pass; a ping follows them.
const REQUESTS: usize = 50;
const SMOKE_REQUESTS: usize = 10;
const SIM_CYCLES: u64 = 500;
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
const MODELS: [char; 6] = ['A', 'B', 'C', 'D', 'E', 'F'];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A Table 3 model, served from the daemon's hot map.
    CompileHot,
    /// A program no request sent before: a miss that grows the hot map.
    CompileCold,
    Simulate,
    Check,
    Ping,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CompileHot => "compile_hot",
            Kind::CompileCold => "compile_cold",
            Kind::Simulate => "simulate",
            Kind::Check => "check",
            Kind::Ping => "ping",
        }
    }

    /// The span covering the wait for the daemon's reply.
    fn span(self) -> &'static str {
        match self {
            Kind::CompileHot => "lssd.server.compile_hot",
            Kind::CompileCold => "lssd.server.compile_cold",
            Kind::Simulate => "lssd.server.simulate",
            Kind::Check => "lssd.server.check",
            Kind::Ping => "lssd.server.ping",
        }
    }
}

/// A connection: the `lssd` client untraced, the raw socket with the
/// public framing calls when traced.
enum Conn {
    Client(Client),
    Raw(TcpStream),
}

pub struct Service {
    addr: String,
    drain: DrainHandle,
    server: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<Conn>,
    dir: PathBuf,
    seed: u64,
    requests: usize,
}

fn model_request(verb: Verb, model: char) -> Request {
    let mut request = Request::new(verb);
    request.model = Some(model);
    request.cycles = SIM_CYCLES;
    request
}

/// The requests connection `conn` sends in pass `index`.
fn plan(seed: u64, index: usize, conn: usize, requests: usize) -> Vec<(Kind, Request)> {
    let mut rng = SplitMix64::new(seed ^ (index as u64).rotate_left(32) ^ (conn as u64) << 20);
    let mut plan = Vec::with_capacity(requests + 1);
    for i in 0..requests {
        let roll = rng.next_u64() % 100;
        let model = MODELS[(rng.next_u64() % MODELS.len() as u64) as usize];
        plan.push(match roll {
            0..50 => (Kind::CompileHot, model_request(Verb::Compile, model)),
            50..70 => (Kind::Simulate, model_request(Verb::Simulate, model)),
            70..80 => (Kind::Check, model_request(Verb::Check, model)),
            _ => {
                let text = lss_verify::generate(rng.next_u64(), &GenConfig::default()).render();
                let mut request = Request::new(Verb::Compile);
                // A name never sent before gives a cache key never seen.
                request.sources = vec![(format!("gen_{seed}_{index}_{conn}_{i}.lss"), text)];
                (Kind::CompileCold, request)
            }
        });
    }
    plan.push((Kind::Ping, Request::new(Verb::Ping)));
    plan
}

fn check(kind: Kind, request: &Request, reply: &JsonValue) -> Result<(), String> {
    let str_field = |k: &str| reply.get(k).and_then(JsonValue::as_str);
    let int_field = |k: &str| reply.get(k).and_then(JsonValue::as_i64);
    if str_field("status") != Some("ok") {
        let error = str_field("error").unwrap_or("");
        return Err(format!("status {:?}: {error}", str_field("status")));
    }
    let counts = (int_field("instances"), int_field("connections"));
    let want_cache = |tier: &str| match str_field("cache") {
        Some(t) if t == tier => Ok(()),
        other => Err(format!("cache tier {other:?}, expected {tier}")),
    };
    match kind {
        Kind::CompileHot => {
            want_cache("hot")?;
            let model = request.model.expect("model request");
            let (i, c) = expected(&format!("model_{model}"));
            if counts != (Some(i as i64), Some(c as i64)) {
                return Err(format!(
                    "instances/connections {counts:?}, expected {:?}",
                    (i, c)
                ));
            }
        }
        Kind::CompileCold => {
            want_cache("miss")?;
            if !matches!(counts, (Some(i), Some(_)) if i > 0) {
                return Err(format!("instances/connections {counts:?}"));
            }
        }
        Kind::Simulate => {
            want_cache("hot")?;
            if int_field("cycles") != Some(SIM_CYCLES as i64) {
                return Err(format!("simulated {:?} cycles", int_field("cycles")));
            }
        }
        Kind::Check if int_field("denied") != Some(0) => {
            return Err(format!("{:?} denied findings", int_field("denied")));
        }
        Kind::Ping if reply.get("pong").and_then(JsonValue::as_bool) != Some(true) => {
            return Err("ping without pong".into());
        }
        Kind::Check | Kind::Ping => {}
    }
    Ok(())
}

/// One round trip through `lssd`'s public framing calls: the client's
/// encode and send, the wait for the daemon (`span`), and the decode.
fn traced_request(
    tr: &mut Tracer,
    stream: &mut TcpStream,
    span: &'static str,
    request: &Request,
) -> Result<JsonValue, String> {
    tr.time("lssd.encode", || {
        write_frame(stream, request.render().as_bytes())
    })
    .map_err(|e| format!("send failed: {e}"))?;
    let frame = tr
        .time(span, || read_frame(stream, RESPONSE_TIMEOUT, &|| false))
        .map_err(|e| format!("receive failed: {e}"))?;
    tr.count("lssd.response_bytes", frame.len() as f64);
    tr.time("lssd.decode", || {
        let text = std::str::from_utf8(&frame).map_err(|_| "response is not UTF-8".to_string())?;
        parse_json(text)
    })
}

/// Sends `plan` over `conn`, one request after the other.
fn run_plan(
    conn: &mut Conn,
    plan: &[(Kind, Request)],
    log: &mut OpLog,
    mut tracer: Option<&mut Tracer>,
) {
    for (kind, request) in plan {
        let start = Instant::now();
        let reply = match (&mut *conn, tracer.as_deref_mut()) {
            (Conn::Raw(stream), Some(tr)) => {
                tr.begin(OP);
                let reply = traced_request(tr, stream, kind.span(), request);
                tr.end();
                if let Some(netlist) = reply.as_ref().ok().and_then(|v| v.get("netlist")) {
                    tr.count(
                        "netlist.json_bytes",
                        netlist.as_str().map_or(0, str::len) as f64,
                    );
                    tr.count("netlist.json_bodies", 1.0);
                }
                reply
            }
            (Conn::Client(client), None) => client.request(request),
            _ => Err("connection does not match the pass".to_string()),
        };
        let end = Instant::now();
        log.record(
            kind.name(),
            start,
            end,
            reply.and_then(|v| check(*kind, request, &v)),
        );
    }
}

impl Service {
    /// An untimed round trip on the first connection, of either kind.
    fn untimed(&mut self, request: &Request) -> Result<JsonValue, String> {
        match &mut self.conns[0] {
            Conn::Client(client) => client.request(request),
            Conn::Raw(stream) => {
                let mut scratch = Tracer::new(Instant::now());
                traced_request(&mut scratch, stream, "lssd.server.untimed", request)
            }
        }
    }

    /// Compiles every model once, so later compiles of them are hot.
    fn prime(&mut self) -> Result<(), String> {
        for model in MODELS {
            let reply = self.untimed(&model_request(Verb::Compile, model))?;
            let status = reply.get("status").and_then(JsonValue::as_str);
            if status != Some("ok") {
                return Err(format!("priming model {model}: status {status:?}"));
            }
        }
        Ok(())
    }

    /// Traced passes drive the socket with the public framing calls, so
    /// each client gives way to a raw connection to the daemon.
    fn use_raw_sockets(&mut self) -> Result<(), String> {
        for conn in &mut self.conns {
            if let Conn::Client(_) = conn {
                let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream
                    .set_read_timeout(Some(Duration::from_millis(50)))
                    .map_err(|e| e.to_string())?;
                *conn = Conn::Raw(stream);
            }
        }
        Ok(())
    }
}

impl Workload for Service {
    const PASSES_PER_S: f64 = 8.0;

    fn setup(cfg: &Config) -> Result<Service, String> {
        let dir = work_dir().join(format!("service_mix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServerConfig {
            cache_dir: Some(dir.join("cache")),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot start lssd: {e}"))?;
        let addr = server.tcp_addr().ok_or("lssd has no TCP address")?;
        let endpoint = Endpoint::Tcp(addr.to_string());
        // Connections made before the daemon serves wait in the listener's
        // backlog, so its first accepts take them at once rather than after
        // a poll interval.
        let conns = (0..CONNECTIONS)
            .map(|_| Client::connect(&endpoint).map(Conn::Client))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect to lssd: {e}"))?;
        let drain = server.drain_handle();
        let mut service = Service {
            addr: addr.to_string(),
            drain,
            server: Some(std::thread::spawn(move || server.run())),
            conns,
            dir,
            seed: cfg.seed,
            requests: if cfg.smoke { SMOKE_REQUESTS } else { REQUESTS },
        };
        match service.prime() {
            Ok(()) => Ok(service),
            Err(e) => {
                let _ = service.teardown();
                Err(e)
            }
        }
    }

    fn ops_per_pass(&self) -> usize {
        CONNECTIONS * (self.requests + 1)
    }

    fn pass(&mut self, index: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        if tracer.is_some() {
            if let Err(e) = self.use_raw_sockets() {
                return log.failures.push(format!("connect: {e}"));
            }
        }
        let stats = Request::new(Verb::Stats);
        let before = tracer.is_some().then(|| self.untimed(&stats));
        let cache = self.dir.join("cache");
        let cached = dir_entries(&cache);
        let plans: Vec<Vec<(Kind, Request)>> = (0..CONNECTIONS)
            .map(|conn| plan(self.seed, index, conn, self.requests))
            .collect();
        let epoch = log.epoch();
        let traced = tracer.is_some();
        let results: Vec<(OpLog, Option<Tracer>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&plans)
                .map(|(conn, plan)| {
                    s.spawn(move || {
                        let mut log = OpLog::new(epoch);
                        let mut tr = traced.then(|| Tracer::new(epoch));
                        run_plan(conn, plan, &mut log, tr.as_mut());
                        (log, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        // The entries of this pass's never-repeated programs are not read
        // again; the daemon is idle between passes, so they can go.
        remove_new_entries(&cache, &cached);
        for (conn_log, conn_tracer) in results {
            log.absorb(conn_log);
            if let (Some(tr), Some(conn_tracer)) = (tracer.as_deref_mut(), conn_tracer) {
                tr.absorb(conn_tracer);
            }
        }
        if let (Some(tr), Some(before)) = (tracer, before) {
            let after = self.untimed(&stats);
            match (before, after) {
                (Ok(before), Ok(after)) => {
                    let stat = |v: &JsonValue, k: &str| {
                        v.get(k).and_then(JsonValue::as_i64).unwrap_or(0) as f64
                    };
                    let lookups = plans
                        .iter()
                        .flatten()
                        .filter(|(k, _)| {
                            matches!(k, Kind::CompileHot | Kind::CompileCold | Kind::Simulate)
                        })
                        .count();
                    tr.count(
                        "lssd.hot_hits",
                        stat(&after, "hot_hits") - stat(&before, "hot_hits"),
                    );
                    tr.count("lssd.hot_lookups", lookups as f64);
                    tr.count("lssd.shed", stat(&after, "shed") - stat(&before, "shed"));
                    tr.gauge("lssd.hot_entries", stat(&after, "hot_entries"));
                }
                (Err(e), _) | (_, Err(e)) => log.failures.push(format!("stats: {e}")),
            }
        }
    }

    fn details(&self, log: &OpLog) -> Vec<Metric> {
        vec![
            Metric::new("svc_hot_compile_ms", log.median_ms("compile_hot"), "ms"),
            Metric::new("svc_cold_compile_ms", log.median_ms("compile_cold"), "ms"),
            Metric::new("svc_simulate_ms", log.median_ms("simulate"), "ms"),
            Metric::new("svc_latency_ms_p99", log.pooled_ms(0.99), "ms"),
            Metric::new("svc_requests", log.ops.len() as f64, "count"),
        ]
    }

    fn teardown(mut self) -> Result<(), String> {
        self.conns.clear();
        self.drain.drain();
        let served = match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("lssd stopped with an error: {e}")),
            Some(Err(_)) => Err("lssd panicked".to_string()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        served
    }
}
