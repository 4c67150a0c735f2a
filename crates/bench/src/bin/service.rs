//! Service-layer benchmark: what the `lssd` daemon sustains, written to
//! `crates/bench/BENCH_service.json`.
//!
//! Three questions:
//!
//! 1. **Warm-compile service rate.** Requests per second and p50/p99
//!    latency for a hot-tier compile of a Table 3 model at 1, 4, and 16
//!    concurrent clients.
//! 2. **Simulate service rate.** The same ladder for a 1000-cycle
//!    simulate (compile is hot; the cycles are the work).
//! 3. **Saturation behavior.** With 2 workers and a 2-deep queue under
//!    16 clients, the daemon must shed load with typed `busy` responses
//!    — this binary *asserts* that shedding (not timeout pileup) is
//!    what happens: every response is `ok` or `busy`, the shed counter
//!    moves, and no client sees a transport error.
//!
//! Run with `cargo run --release -p bench --bin service`.

use std::io::Write as _;
use std::time::{Duration, Instant};

use lss_netlist::jsonval::JsonValue;
use lssd::{Client, Endpoint, Request, Server, ServerConfig, Verb};

/// One measured service scenario.
struct ServiceSample {
    name: String,
    clients: usize,
    requests: u64,
    req_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    shed: u64,
}

struct Daemon {
    endpoint: Endpoint,
    drain: lssd::DrainHandle,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> Daemon {
    let mut cfg = ServerConfig {
        cache_dir: None, // hot tier only: the disk is not what we measure
        chaos: true,
        ..ServerConfig::default()
    };
    configure(&mut cfg);
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp").to_string());
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run());
    Daemon {
        endpoint,
        drain,
        handle: Some(handle),
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drain.drain();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn status(value: &JsonValue) -> &str {
    value
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
}

fn stat(daemon: &Daemon, key: &str) -> u64 {
    let mut client = Client::connect(&daemon.endpoint).expect("stats connect");
    let value = client.request(&Request::new(Verb::Stats)).expect("stats");
    value.get(key).and_then(JsonValue::as_i64).unwrap_or(0) as u64
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs `per_client` requests from each of `clients` threads, one
/// connection per thread, and reports throughput and latency
/// percentiles across every request.
fn run_ladder(
    daemon: &Daemon,
    name: &str,
    clients: usize,
    per_client: u64,
    request: &Request,
) -> ServiceSample {
    let shed_before = stat(daemon, "shed");
    let start = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..clients {
        let endpoint = daemon.endpoint.clone();
        let request = request.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("bench connect");
            let mut latencies = Vec::with_capacity(per_client as usize);
            for _ in 0..per_client {
                let t0 = Instant::now();
                let value = client.request_with_retry(&request).expect("bench request");
                assert_eq!(
                    status(&value),
                    "ok",
                    "bench request must succeed: {value:?}"
                );
                latencies.push(t0.elapsed().as_nanos() as u64);
            }
            latencies
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for join in joins {
        latencies.extend(join.join().expect("bench thread"));
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    let requests = clients as u64 * per_client;
    let sample = ServiceSample {
        name: name.to_string(),
        clients,
        requests,
        req_per_sec: requests as f64 / elapsed.as_secs_f64(),
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        shed: stat(daemon, "shed") - shed_before,
    };
    println!(
        "{name}/{clients}: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms ({} shed)",
        sample.req_per_sec,
        sample.p50_ns as f64 / 1e6,
        sample.p99_ns as f64 / 1e6,
        sample.shed
    );
    sample
}

/// The saturation gate: a burst of raw (no-retry) requests against a
/// deliberately under-provisioned daemon. Load-shedding means every
/// response comes back quickly as `ok` or `busy` — never a timeout,
/// never a transport error, and the `busy` path must actually fire.
fn saturation_gate(samples: &mut Vec<ServiceSample>) {
    let daemon = boot(|cfg| {
        cfg.workers = 2;
        cfg.queue = 2;
        cfg.admit_wait = Duration::from_millis(10);
    });
    let mut sleep = Request::new(Verb::Chaos);
    sleep.fault = Some("worker-sleep".into());

    let clients = 16;
    let per_client = 3u64;
    let shed_before = stat(&daemon, "shed");
    let start = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..clients {
        let endpoint = daemon.endpoint.clone();
        let request = sleep.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("saturation connect");
            let mut latencies = Vec::new();
            let mut ok = 0u64;
            let mut busy = 0u64;
            for _ in 0..per_client {
                let t0 = Instant::now();
                let value = client.request(&request).expect("saturation request");
                latencies.push(t0.elapsed().as_nanos() as u64);
                match status(&value) {
                    "ok" => ok += 1,
                    "busy" => busy += 1,
                    other => panic!("saturated daemon must shed typed, got {other}: {value:?}"),
                }
            }
            (latencies, ok, busy)
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let (mut ok, mut busy) = (0u64, 0u64);
    for join in joins {
        let (lat, o, b) = join.join().expect("saturation thread");
        latencies.extend(lat);
        ok += o;
        busy += b;
    }
    let elapsed = start.elapsed();
    let shed = stat(&daemon, "shed") - shed_before;
    assert!(
        busy > 0 && shed > 0,
        "saturation must trigger load-shedding (ok={ok}, busy={busy}, shed={shed})"
    );
    // Shedding, not pileup: a shed response returns in milliseconds, so
    // even the slowest request is bounded by queue-wait + one sleep
    // slot, far under the pileup regime (16 clients x 250 ms serialized
    // through 2 workers would be ~2 s per request).
    latencies.sort_unstable();
    let worst = *latencies.last().expect("latencies");
    assert!(
        worst < Duration::from_millis(1500).as_nanos() as u64,
        "worst-case latency {worst}ns looks like queue pileup, not shedding"
    );
    println!(
        "saturation: {ok} ok, {busy} busy ({shed} shed server-side), worst {:.0} ms",
        worst as f64 / 1e6
    );
    samples.push(ServiceSample {
        name: "service/saturation_burst".into(),
        clients,
        requests: clients as u64 * per_client,
        req_per_sec: (clients as u64 * per_client) as f64 / elapsed.as_secs_f64(),
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        shed,
    });
}

fn write_service_json(path: &str, samples: &[ServiceSample]) {
    let mut out = String::from("[\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"clients\": {}, \"requests\": {}, \
             \"req_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"shed\": {}}}{comma}\n",
            lss_netlist::json::escape(&s.name),
            s.clients,
            s.requests,
            s.req_per_sec,
            s.p50_ns,
            s.p99_ns,
            s.shed
        ));
    }
    out.push_str("]\n");
    let mut file = std::fs::File::create(path).expect("create BENCH_service.json");
    file.write_all(out.as_bytes())
        .expect("write BENCH_service.json");
    println!("wrote {path}");
}

fn main() {
    let mut samples = Vec::new();

    // Service ladders against a normally-provisioned daemon. Model A
    // compiles once cold; every measured request is a warm repeat.
    let daemon = boot(|_| {});
    let mut compile = Request::new(Verb::Compile);
    compile.model = Some('A');
    let mut simulate = Request::new(Verb::Simulate);
    simulate.model = Some('A');
    simulate.cycles = 1000;

    // Prime the hot tier so the ladders measure the steady state.
    let mut primer = Client::connect(&daemon.endpoint).expect("primer connect");
    let primed = primer.request(&compile).expect("prime compile");
    assert_eq!(status(&primed), "ok", "{primed:?}");

    for clients in [1usize, 4, 16] {
        samples.push(run_ladder(
            &daemon,
            "service/warm_compile",
            clients,
            30,
            &compile,
        ));
    }
    for clients in [1usize, 4, 16] {
        samples.push(run_ladder(
            &daemon,
            "service/simulate_1k_cycles",
            clients,
            10,
            &simulate,
        ));
    }
    drop(daemon);

    saturation_gate(&mut samples);

    write_service_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_service.json"),
        &samples,
    );
}
