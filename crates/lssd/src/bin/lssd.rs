//! The `lssd` daemon binary: argument parsing, signal handling, and the
//! serve loop. All the interesting machinery lives in the `lssd`
//! library crate; this file wires it to a process.
//!
//! Exit codes: `0` after a graceful drain (SIGTERM, SIGINT, or a
//! `shutdown` request), `2` on a usage error, `1` if the listener
//! cannot be bound or fails fatally.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use lssd::server::log_line;
use lssd::session::{flag_value, resolve_cache_dir};
use lssd::{Endpoint, Server, ServerConfig};

/// Set from the signal handler; the watcher thread bridges it to the
/// server's drain flag. Signal handlers may only do async-signal-safe
/// work, which a relaxed atomic store is.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

/// Installs `on_term` for SIGTERM and SIGINT via the libc `signal`
/// symbol directly — the workspace builds with zero external crates.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(num: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

const USAGE: &str = "\
usage: lssd [options]

listen on exactly one of:
  --socket PATH          Unix-domain socket (stale file is replaced)
  --tcp ADDR             TCP address, e.g. 127.0.0.1:0 (0 picks a port)

capacity:
  --workers N            concurrent request permits (default 4)
  --queue N              waiting requests beyond the permits before
                         shedding with `busy` (default 8)
  --admit-wait-ms MS     how long a queued request waits for a permit
                         (default 500)
  --io-timeout-ms MS     per-frame completion deadline; slow-loris
                         writers are shed past it (default 10000)

cache:
  --cache-dir DIR        shared netlist cache (default $LSS_CACHE_DIR
                         or target/lss-cache)
  --no-cache             disable the disk cache (hot map still works)

server-wide request quotas (merged tighter-wins with each request's own):
  --deadline-ms MS       wall-clock budget per request [LSS401]
  --max-steps N          elaboration machine steps [LSS402]
  --max-instances N      instantiation cap [LSS403]
  --max-depth N          recursion depth cap [LSS404]
  --solver-steps N       inference step budget [LSS405]
  --expansion-cap N      disjunct expansion cap [LSS406]
  --max-netlist N        netlist size cap [LSS407]
  --max-cycles N         simulation cycle cap [LSS408]

other:
  --chaos                honor fault-injection requests (tests/CI only)
  --print-addr           print the bound TCP address on stdout
  --help                 this text
";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_num(flag: &str, value: Option<String>) -> u64 {
    flag_value(flag, value).unwrap_or_else(|e| usage_error(&e))
}

fn main() {
    install_ice_hook();
    install_signal_handlers();

    let mut cfg = ServerConfig::default();
    let mut endpoint: Option<Endpoint> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut print_addr = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--socket" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--socket needs a path"));
                endpoint = Some(Endpoint::Unix(PathBuf::from(path)));
            }
            "--tcp" => {
                let addr = args
                    .next()
                    .unwrap_or_else(|| usage_error("--tcp needs an address"));
                endpoint = Some(Endpoint::Tcp(addr));
            }
            "--workers" => cfg.workers = parse_num(&arg, args.next()).max(1) as usize,
            "--queue" => cfg.queue = parse_num(&arg, args.next()) as usize,
            "--admit-wait-ms" => {
                cfg.admit_wait = Duration::from_millis(parse_num(&arg, args.next()));
            }
            "--io-timeout-ms" => {
                cfg.io_timeout = Duration::from_millis(parse_num(&arg, args.next()).max(1));
            }
            "--cache-dir" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| usage_error("--cache-dir needs a path"));
                cache_dir = Some(PathBuf::from(dir));
            }
            "--no-cache" => no_cache = true,
            "--chaos" => cfg.chaos = true,
            "--print-addr" => print_addr = true,
            other => match cfg.quota.parse_flag(other, &mut args) {
                Ok(true) => {}
                Ok(false) => usage_error(&format!("unknown option `{other}`")),
                Err(e) => usage_error(&e),
            },
        }
    }

    let Some(endpoint) = endpoint else {
        usage_error("pick a listen address: --socket PATH or --tcp ADDR");
    };
    cfg.endpoint = endpoint;
    cfg.cache_dir = resolve_cache_dir(no_cache, cache_dir).unwrap_or_else(|e| usage_error(&e));

    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind listener: {e}");
            std::process::exit(1);
        }
    };
    if print_addr {
        if let Some(addr) = server.tcp_addr() {
            println!("{addr}");
        }
    }

    // Bridge SIGTERM/SIGINT to graceful drain: the handler itself only
    // flips an atomic; this thread does the non-signal-safe part.
    let drain = server.drain_handle();
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::Relaxed) {
            log_line("signal received; draining (finishing in-flight requests)");
            drain.drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    log_line("serving (SIGTERM drains gracefully)");
    match server.run() {
        Ok(()) => log_line("drained; bye"),
        Err(e) => {
            eprintln!("error: listener failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Daemon-side ICE hook. Per-request panics are caught by the server's
/// isolation boundary and answered with an `ice` response; this hook
/// runs first and preserves the replayable crash report (under
/// `$LSS_ICE_DIR` or `target/ice`) without killing the process.
fn install_ice_hook() {
    std::panic::set_hook(Box::new(|info| {
        use std::io::Write as _;

        let message = lssd::payload_str(info.payload());
        let location = info.location().map(|l| l.to_string()).unwrap_or_default();
        let dir = std::env::var_os("LSS_ICE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/ice"));
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = dir.join(format!("ice-lssd-{}-{nanos}.txt", std::process::id()));
        let report = format!(
            "lssd internal error (request isolated)\nversion: {}\npanic: {message}\nat: {location}\nbacktrace:\n{}\n",
            env!("CARGO_PKG_VERSION"),
            std::backtrace::Backtrace::force_capture()
        );
        let wrote = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report));
        // Ignored results on purpose: the hook must never panic,
        // whatever state stderr is in.
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "lssd: worker panic: {message}");
        if let Ok(()) = wrote {
            let _ = writeln!(err, "lssd: crash report: {}", path.display());
        }
    }));
}
