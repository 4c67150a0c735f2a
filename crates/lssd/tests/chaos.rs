//! Chaos suite: every fault a hostile client, a racing peer, or the
//! daemon's own workers can produce must leave the daemon alive and the
//! cache consistent.
//!
//! Each test boots a real in-process [`Server`] on an ephemeral TCP
//! port, injects one failure mode — truncated frames, oversized
//! payloads, slow-loris writes, mid-request disconnects, same-key cache
//! races, worker panics, mid-run cache corruption, quota exhaustion —
//! and then proves two things: the daemon still answers, and compiles
//! still produce netlists byte-identical to a one-shot build.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use lss_netlist::jsonval::JsonValue;
use lssd::server::{DrainHandle, HOT_CAP_BYTES};
use lssd::{
    read_frame, write_frame, Client, Endpoint, Quota, Request, Server, ServerConfig, Spec, Verb,
};

const MODEL: &str =
    "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;";

/// The same model is fine for simulate tests: `source` emits a datum
/// every cycle, so the engine does real per-cycle work.
const TICKING: &str = MODEL;

/// The ground truth a daemon compile must match: a direct one-shot
/// build of the same unit, serialized the same way.
fn reference_netlist_json(name: &str, text: &str) -> String {
    let mut driver = lss_driver::Driver::with_corelib();
    driver.add_source(name, text);
    lss_netlist::to_json(&driver.elaborate().expect("reference build").netlist)
}

/// One booted daemon on an ephemeral port, drained and joined on drop
/// so a failing assertion cannot leak threads into the next test.
struct Daemon {
    endpoint: Endpoint,
    drain: DrainHandle,
    cache_dir: PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(tag: &str, configure: impl FnOnce(&mut ServerConfig)) -> Daemon {
        let cache_dir =
            std::env::temp_dir().join(format!("lssd-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut cfg = ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            chaos: true,
            io_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        };
        configure(&mut cfg);
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let addr = server.tcp_addr().expect("tcp endpoint");
        let drain = server.drain_handle();
        let handle = std::thread::spawn(move || server.run());
        Daemon {
            endpoint: Endpoint::Tcp(addr.to_string()),
            drain,
            cache_dir,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.endpoint).expect("connect")
    }

    /// A raw TCP connection for hostile wire-level framing.
    fn raw(&self) -> TcpStream {
        let Endpoint::Tcp(addr) = &self.endpoint else {
            unreachable!()
        };
        let stream = TcpStream::connect(addr.as_str()).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream
    }

    /// The daemon's liveness probe, used after every injected fault.
    fn assert_alive(&self) {
        let value = self
            .client()
            .request(&Request::new(Verb::Ping))
            .expect("ping");
        assert_eq!(status(&value), "ok", "daemon must stay alive: {value:?}");
    }

    /// Whole-build cache entries on disk (`{key}.bin`, not unit/memo).
    fn disk_entries(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(&self.cache_dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = dir
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".bin") && !n.starts_with('u') && !n.starts_with('p'))
            .collect();
        names.sort();
        names
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drain.drain();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn status(value: &JsonValue) -> &str {
    value
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
}

fn str_field<'v>(value: &'v JsonValue, key: &str) -> &'v str {
    value.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn num_field(value: &JsonValue, key: &str) -> i64 {
    value.get(key).and_then(JsonValue::as_i64).unwrap_or(-1)
}

fn compile_request(name: &str, text: &str) -> Request {
    let mut request = Request::new(Verb::Compile);
    request.sources.push((name.to_string(), text.to_string()));
    request
}

fn chaos_request(fault: &str) -> Request {
    let mut request = Request::new(Verb::Chaos);
    request.fault = Some(fault.to_string());
    request
}

// ---------------------------------------------------------------- happy path

#[test]
fn compile_matches_one_shot_build_byte_for_byte() {
    let daemon = Daemon::start("identity", |_| {});
    let mut client = daemon.client();
    let value = client
        .request(&compile_request("m.lss", MODEL))
        .expect("compile");
    assert_eq!(status(&value), "ok", "{value:?}");
    assert_eq!(str_field(&value, "cache"), "miss");
    assert_eq!(
        str_field(&value, "netlist"),
        reference_netlist_json("m.lss", MODEL),
        "daemon compile must be byte-identical to a one-shot build"
    );
    // Warm repeat on the same connection: served from the hot tier.
    let again = client
        .request(&compile_request("m.lss", MODEL))
        .expect("recompile");
    assert_eq!(str_field(&again, "cache"), "hot");
    assert_eq!(str_field(&again, "netlist"), str_field(&value, "netlist"));
}

#[test]
fn simulate_and_check_serve_real_results() {
    let daemon = Daemon::start("simulate", |_| {});
    let mut client = daemon.client();

    let mut simulate = Request::new(Verb::Simulate);
    simulate.sources.push(("t.lss".into(), TICKING.into()));
    simulate.cycles = 40;
    let value = client.request(&simulate).expect("simulate");
    assert_eq!(status(&value), "ok", "{value:?}");
    assert_eq!(num_field(&value, "cycles"), 40);
    assert!(num_field(&value, "comp_evals") > 0);

    let mut check = Request::new(Verb::Check);
    check.sources.push(("m.lss".into(), MODEL.into()));
    let checked = client.request(&check).expect("check");
    assert_eq!(status(&checked), "ok");
    assert_eq!(num_field(&checked, "errors"), 0, "{checked:?}");
}

/// A RAM whose `words` would take 8 TB of simulator state: it compiles,
/// and checking it must not allocate that state.
const HUGE_RAM: &str = "instance a:source; instance r:ram; instance k:sink;\n\
                        r.words = 1000000000000;\n\
                        a.out -> r.addr; a.out -> r.wdata; a.out -> r.wen; r.rdata -> k.in;\n";

#[test]
fn check_of_a_huge_ram_answers_and_the_daemon_keeps_serving() {
    let daemon = Daemon::start("huge-ram", |_| {});
    let mut client = daemon.client();
    let mut check = Request::new(Verb::Check);
    check.sources.push(("huge.lss".into(), HUGE_RAM.into()));
    let checked = client.request(&check).expect("check");
    assert_eq!(status(&checked), "ok", "{checked:?}");
    let pong = client.request(&Request::new(Verb::Ping)).expect("ping");
    assert_eq!(pong.get("pong").and_then(JsonValue::as_bool), Some(true));
}

// ------------------------------------------------------------- hostile frames

#[test]
fn truncated_frame_costs_only_its_connection() {
    let daemon = Daemon::start("truncated", |_| {});
    let mut raw = daemon.raw();
    // Header promises 100 bytes; send 3 and vanish.
    raw.write_all(&100u32.to_be_bytes()).expect("header");
    raw.write_all(b"abc").expect("partial body");
    drop(raw);
    daemon.assert_alive();
}

#[test]
fn oversized_frame_is_rejected_with_a_typed_response() {
    let daemon = Daemon::start("oversized", |_| {});
    let mut raw = daemon.raw();
    raw.write_all(&(64 * 1024 * 1024u32).to_be_bytes())
        .expect("huge header");
    // The daemon must answer without reading 64 MiB it was promised.
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("response header");
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut body).expect("response body");
    let text = String::from_utf8(body).expect("utf-8");
    assert!(text.contains("bad-request"), "typed rejection, got {text}");
    assert!(text.contains("exceeds"), "names the limit, got {text}");
    daemon.assert_alive();
}

#[test]
fn slow_loris_write_is_shed_on_the_frame_deadline() {
    let daemon = Daemon::start("slowloris", |cfg| {
        cfg.io_timeout = Duration::from_millis(150);
    });
    let mut raw = daemon.raw();
    raw.write_all(&1000u32.to_be_bytes()).expect("header");
    // Drip one byte, then stall far past the frame deadline.
    raw.write_all(b"{").expect("drip");
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("shed response header");
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut body).expect("shed response body");
    let text = String::from_utf8(body).expect("utf-8");
    assert!(
        text.contains("bad-request") && text.contains("deadline"),
        "slow-loris must be shed with a typed response, got {text}"
    );
    daemon.assert_alive();
}

#[test]
fn garbage_json_keeps_the_connection_usable() {
    let daemon = Daemon::start("garbage", |_| {});
    let mut raw = daemon.raw();
    let garbage = b"this is not json";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .expect("header");
    raw.write_all(garbage).expect("body");
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("response header");
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut body).expect("response body");
    assert!(String::from_utf8(body)
        .expect("utf-8")
        .contains("bad-request"));
    // Framing is still synced: a real request on the SAME connection works.
    let ping = b"{\"verb\": \"ping\"}";
    raw.write_all(&(ping.len() as u32).to_be_bytes())
        .expect("header 2");
    raw.write_all(ping).expect("body 2");
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("ping header");
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut body).expect("ping body");
    assert!(String::from_utf8(body).expect("utf-8").contains("\"ok\""));
}

#[test]
fn mid_request_disconnects_leave_the_daemon_serving() {
    let daemon = Daemon::start("disconnect", |_| {});
    for _ in 0..5 {
        let mut raw = daemon.raw();
        let body = format!(
            "{{\"verb\": \"compile\", \"sources\": [{{\"name\": \"m.lss\", \"text\": \"{}\"",
            "instance gen:source;"
        );
        raw.write_all(&(body.len() as u32 + 50).to_be_bytes())
            .expect("header");
        raw.write_all(body.as_bytes()).expect("partial");
        drop(raw); // vanish mid-frame
    }
    daemon.assert_alive();
    // And a real compile still works end to end.
    let value = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("compile");
    assert_eq!(status(&value), "ok");
}

// ------------------------------------------------------------ quotas and load

#[test]
fn runaway_simulate_is_shed_with_lss408() {
    let daemon = Daemon::start("cycles", |_| {});
    let mut request = Request::new(Verb::Simulate);
    request.sources.push(("t.lss".into(), TICKING.into()));
    request.cycles = 1_000_000;
    request.quota = Quota {
        max_cycles: Some(25),
        ..Quota::default()
    };
    let value = daemon.client().request(&request).expect("simulate");
    assert_eq!(status(&value), "budget", "{value:?}");
    assert_eq!(str_field(&value, "code"), "LSS408");
    assert_eq!(
        num_field(&value, "cycles"),
        25,
        "stops at the cap, not after"
    );
    daemon.assert_alive();
}

#[test]
fn expired_deadline_is_shed_with_lss401() {
    let daemon = Daemon::start("deadline", |_| {});
    let mut request = Request::new(Verb::Simulate);
    request.sources.push(("t.lss".into(), TICKING.into()));
    request.cycles = 10_000_000;
    request.quota = Quota {
        deadline_ms: Some(0),
        ..Quota::default()
    };
    let value = daemon.client().request(&request).expect("simulate");
    assert_eq!(status(&value), "budget", "{value:?}");
    assert_eq!(str_field(&value, "code"), "LSS401");
    daemon.assert_alive();
}

#[test]
fn server_caps_clamp_every_client_quota() {
    let daemon = Daemon::start("clamp", |cfg| {
        cfg.quota = Quota {
            max_cycles: Some(10),
            ..Quota::default()
        };
    });
    // The client asks for a *looser* cap; the server's must win.
    let mut request = Request::new(Verb::Simulate);
    request.sources.push(("t.lss".into(), TICKING.into()));
    request.cycles = 1_000_000;
    request.quota = Quota {
        max_cycles: Some(1_000_000),
        ..Quota::default()
    };
    let value = daemon.client().request(&request).expect("simulate");
    assert_eq!(status(&value), "budget", "{value:?}");
    assert_eq!(str_field(&value, "code"), "LSS408");
    assert_eq!(num_field(&value, "cycles"), 10);
}

#[test]
fn saturation_sheds_busy_with_retry_hint_instead_of_queueing_forever() {
    let daemon = Daemon::start("busy", |cfg| {
        cfg.workers = 1;
        cfg.queue = 0;
        cfg.admit_wait = Duration::from_millis(1);
    });
    // Occupy the single worker with a 250 ms chaos sleep...
    let endpoint = daemon.endpoint.clone();
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint).expect("connect");
        client
            .request(&chaos_request("worker-sleep"))
            .expect("sleep request")
    });
    std::thread::sleep(Duration::from_millis(60));
    // ...so a second request must be shed, typed, with a backoff hint.
    let value = daemon
        .client()
        .request(&chaos_request("worker-sleep"))
        .expect("second request");
    assert_eq!(status(&value), "busy", "{value:?}");
    assert!(num_field(&value, "retry_after_ms") > 0);
    // Control verbs still answer under full load.
    daemon.assert_alive();
    // The occupied worker finishes normally — shedding hurt nobody.
    let held = holder.join().expect("holder thread");
    assert_eq!(status(&held), "ok");
    // And the client-side retry loop rides out the contention.
    let retried = daemon
        .client()
        .request_with_retry(&chaos_request("worker-sleep"))
        .expect("retried request");
    assert_eq!(
        status(&retried),
        "ok",
        "backoff must eventually win: {retried:?}"
    );
}

// ------------------------------------------------------- injected daemon faults

#[test]
fn worker_panic_is_isolated_and_counted() {
    let daemon = Daemon::start("panic", |_| {});
    let value = daemon
        .client()
        .request(&chaos_request("worker-panic"))
        .expect("chaos");
    assert_eq!(status(&value), "ice", "{value:?}");
    daemon.assert_alive();
    // Work still compiles after the panic, and the counter recorded it.
    let compiled = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("compile after panic");
    assert_eq!(status(&compiled), "ok");
    let stats = daemon
        .client()
        .request(&Request::new(Verb::Stats))
        .expect("stats");
    assert!(num_field(&stats, "panics") >= 1, "{stats:?}");
}

#[test]
fn panic_while_holding_the_hot_map_lock_does_not_wedge_it() {
    let daemon = Daemon::start("poison", |_| {});
    let warm = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("warm the hot tier");
    assert_eq!(status(&warm), "ok");
    let value = daemon
        .client()
        .request(&chaos_request("hot-poison"))
        .expect("chaos");
    assert_eq!(status(&value), "ice", "{value:?}");
    // The poisoned lock must still serve hot hits.
    let again = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("compile after poison");
    assert_eq!(status(&again), "ok", "{again:?}");
    assert_eq!(str_field(&again, "cache"), "hot");
}

#[test]
fn cache_corruption_mid_request_self_heals() {
    let daemon = Daemon::start("corrupt", |_| {});
    let reference = reference_netlist_json("m.lss", MODEL);
    let first = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("first compile");
    assert_eq!(status(&first), "ok");
    assert_eq!(str_field(&first, "netlist"), reference);
    assert_eq!(daemon.disk_entries().len(), 1, "one published entry");

    // Truncate every disk entry and drop the hot tier mid-flight.
    let chaos = daemon
        .client()
        .request(&chaos_request("cache-corrupt"))
        .expect("chaos");
    assert_eq!(status(&chaos), "ok");
    assert!(num_field(&chaos, "corrupted") >= 1, "{chaos:?}");
    let stats = daemon
        .client()
        .request(&Request::new(Verb::Stats))
        .expect("stats");
    assert_eq!(
        (
            num_field(&stats, "hot_entries"),
            num_field(&stats, "hot_bytes")
        ),
        (0, 0),
        "the fault clears the hot tier: {stats:?}"
    );

    // The next compile must detect the damage, heal the slot, and
    // still produce the byte-identical netlist.
    let healed = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("compile after corruption");
    assert_eq!(status(&healed), "ok", "{healed:?}");
    assert_eq!(
        str_field(&healed, "cache"),
        "miss",
        "corrupt entry cannot hit"
    );
    assert_eq!(str_field(&healed, "netlist"), reference);
    assert_eq!(daemon.disk_entries().len(), 1, "healed slot is republished");

    // And the republished entry is a genuine cache hit afterwards.
    let warm = daemon
        .client()
        .request(&chaos_request("cache-corrupt"))
        .expect("reset hot");
    assert_eq!(status(&warm), "ok");
    // (corrupting again only cleared the hot tier if no .bin survived;
    // recompile must now hit disk or heal again — either way, identical.)
    let last = daemon
        .client()
        .request(&compile_request("m.lss", MODEL))
        .expect("final compile");
    assert_eq!(status(&last), "ok");
    assert_eq!(str_field(&last, "netlist"), reference);
}

#[test]
fn concurrent_same_key_compiles_all_succeed_with_one_cache_write() {
    let daemon = Daemon::start("race", |cfg| {
        cfg.workers = 8;
    });
    let reference = reference_netlist_json("m.lss", MODEL);
    let mut joins = Vec::new();
    for _ in 0..6 {
        let endpoint = daemon.endpoint.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            client
                .request_with_retry(&compile_request("m.lss", MODEL))
                .expect("concurrent compile")
        }));
    }
    for join in joins {
        let value = join.join().expect("thread");
        assert_eq!(status(&value), "ok", "{value:?}");
        assert_eq!(str_field(&value, "netlist"), reference);
    }
    assert_eq!(
        daemon.disk_entries().len(),
        1,
        "exactly one published whole-build entry: {:?}",
        daemon.disk_entries()
    );
    // No torn temp files left behind by the losing publishers.
    let leftovers: Vec<String> = std::fs::read_dir(&daemon.cache_dir)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.contains(".tmp"))
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "no torn temp files: {leftovers:?}");
}

#[test]
fn a_hot_reply_differs_from_the_miss_reply_only_in_its_cache_tier() {
    let daemon = Daemon::start("hot-bytes", |_| {});
    let mut raw = daemon.raw();
    let mut model_e = Request::new(Verb::Compile);
    model_e.model = Some('E');
    let mut round_trip = || {
        write_frame(&mut raw, model_e.render().as_bytes()).expect("send");
        let frame = read_frame(&mut raw, Duration::from_secs(60), &|| false).expect("reply");
        String::from_utf8(frame).expect("UTF-8 reply")
    };
    let miss = round_trip();
    let hot = round_trip();
    let head = |tier: &str| format!("{{\"status\": \"ok\", \"cache\": \"{tier}\", ");
    assert!(miss.starts_with(&head("miss")), "{miss:.120}");
    assert!(hot.starts_with(&head("hot")), "{hot:.120}");
    assert_eq!(hot[head("hot").len()..], miss[head("miss").len()..]);
}

#[test]
fn distinct_programs_stay_within_the_hot_cap_and_a_busy_model_stays_hot() {
    let daemon = Daemon::start("bounded", |_| {});
    let mut client = daemon.client();
    let mut model_a = Request::new(Verb::Compile);
    model_a.model = Some('A');
    let reference = {
        let spec = Spec {
            model: Some('A'),
            ..Spec::default()
        };
        let mut driver = spec.driver().expect("model A driver");
        lss_netlist::to_json(&driver.elaborate().expect("model A").netlist)
    };
    let first = client.request(&model_a).expect("compile model A");
    assert_eq!(str_field(&first, "cache"), "miss", "{first:?}");
    // Generated programs render to ≈12 KB each: 600 of them are ≈1.7× the
    // cap.
    const PROGRAMS: u64 = 600;
    for seed in 0..PROGRAMS {
        let text = lss_verify::generate(seed, &lss_verify::GenConfig::default()).render();
        let reply = client
            .request(&compile_request(&format!("gen_{seed}.lss"), &text))
            .expect("compile a generated program");
        assert_eq!(status(&reply), "ok", "seed {seed}: {reply:?}");
        assert_eq!(str_field(&reply, "cache"), "miss", "seed {seed}");
        if seed % 10 == 0 {
            let hot = client.request(&model_a).expect("compile model A");
            assert_eq!(str_field(&hot, "cache"), "hot", "after seed {seed}");
        }
    }
    let stats = client.request(&Request::new(Verb::Stats)).expect("stats");
    let hot_bytes = num_field(&stats, "hot_bytes");
    assert!(
        (0..=HOT_CAP_BYTES as i64).contains(&hot_bytes),
        "hot_bytes within the cap: {stats:?}"
    );
    assert!(num_field(&stats, "hot_evictions") > 0, "{stats:?}");
    assert!(
        num_field(&stats, "hot_entries") < PROGRAMS as i64,
        "{stats:?}"
    );
    let last = client.request(&model_a).expect("compile model A");
    assert_eq!(str_field(&last, "cache"), "hot");
    assert_eq!(
        str_field(&last, "netlist"),
        reference,
        "a hot reply must be byte-identical to a one-shot build"
    );
}

// ------------------------------------------------------------------ drain

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let daemon = Daemon::start("drain", |_| {});
    // A request that is mid-flight when the drain lands...
    let endpoint = daemon.endpoint.clone();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint).expect("connect");
        client
            .request(&chaos_request("worker-sleep"))
            .expect("in-flight request")
    });
    std::thread::sleep(Duration::from_millis(60));
    let ack = daemon
        .client()
        .request(&Request::new(Verb::Shutdown))
        .expect("shutdown request");
    assert_eq!(status(&ack), "ok");
    // ...must still complete with its real answer, not be dropped.
    let value = in_flight.join().expect("in-flight thread");
    assert_eq!(
        status(&value),
        "ok",
        "drain must finish in-flight work: {value:?}"
    );
    // The listener is gone: new connections are refused (or reset).
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        Client::connect(&daemon.endpoint).is_err(),
        "drained daemon must not accept new connections"
    );
}
