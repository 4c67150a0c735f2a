//! One benchmark for the whole system: four workloads driven through the
//! public APIs users call, their end-to-end metrics, and a traced run that
//! splits them into layers. See README.md beside this crate.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--runs N]
//! ```
//!
//! With `--workload`, the workload runs in a child process and its result
//! is printed as one JSON line, last on standard output. Without it, every
//! workload runs in turn, `--runs` times with alternating order and a new
//! seed each round, and the output ends with a JSON document of every
//! metric's median, quartiles and spread.

mod chain;
mod compile;
mod harness;
mod pipeline;
mod service;
mod stats;
mod table3;
mod trace;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use lss_netlist::jsonval::{parse_json, JsonValue};

use harness::{Config, Metric, Report};

const WORKLOADS: [&str; 4] = ["table3_sim", "wide_chain", "compile_edit", "service_mix"];

/// A workload process still running after this is killed; a run must
/// end within 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--runs N]";

struct Args {
    workload: Option<String>,
    cfg: Config,
    runs: usize,
    /// Run the workload in this process (set by the parent).
    child: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        },
        runs: 1,
        child: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.cfg.seconds = s;
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                parsed.cfg.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--runs" => {
                parsed.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--child" => parsed.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.child && parsed.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(parsed)
}

/// Runs workload `name` in this process.
fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "table3_sim" => harness::run::<table3::Table3>(name, cfg),
        "wide_chain" => harness::run::<chain::Chain>(name, cfg),
        "compile_edit" => harness::run::<compile::Compile>(name, cfg),
        "service_mix" => harness::run::<service::Service>(name, cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The child: runs the workload, prints its numbers, exits 0 only when
/// every operation returned what it must.
fn child(name: &str, cfg: &Config) -> ExitCode {
    let report = match run_workload(name, cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            println!("{}", result_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let failed = report.failures.len();
    let error_rate = failed as f64 / report.attempted.max(1) as f64;
    for line in &report.trace_summary {
        eprintln!("{name}: {line}");
    }
    for failure in report.failures.iter().take(20) {
        eprintln!("{name}: FAILED {failure}");
    }
    let error_rate = Metric::new("error_rate", error_rate, "ratio");
    for m in report.details.iter().chain([&error_rate]) {
        println!("detail {} {} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = failed == 0;
    println!(
        "{}",
        result_json(correct, report.attempted, failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_args(name: &str, cfg: &Config) -> Vec<String> {
    let mut args = vec![
        "--child".to_string(),
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--seconds".to_string(),
        cfg.seconds.to_string(),
        "--trace".to_string(),
        if cfg.trace { "1" } else { "0" }.to_string(),
    ];
    if cfg.smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// Runs one workload in a child process. Returns whether it exited 0 and
/// its standard output, which ends in a result line even when the child
/// crashed or timed out.
fn spawn_workload(name: &str, cfg: &Config) -> (bool, String) {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(child_args(name, cfg))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            eprintln!("benchmark: cannot start the {name} process: {e}");
            return (false, result_json(false, 1, 1, &[]));
        }
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                eprintln!("benchmark: {name} did not finish in {CHILD_TIMEOUT:?}; killed");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let mut out = reader.join().unwrap_or_default();
    let ok = status.is_some_and(|s| s.success());
    let has_result = out
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\""));
    if !has_result {
        // A crash or timeout: the whole workload counts as failed.
        eprintln!("benchmark: {name} ended without a result ({status:?})");
        out.push_str("detail error_rate 1 ratio\n");
        out.push_str(&result_json(false, 1, 1, &[]));
        out.push('\n');
    }
    (ok, out)
}

/// `--workload NAME`: one isolated run, relayed.
fn parent(name: &str, cfg: &Config) -> ExitCode {
    let (ok, out) = spawn_workload(name, cfg);
    print!("{out}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Values of every metric and detail of one workload across runs.
type Samples = BTreeMap<String, (String, Vec<f64>)>;

fn record_output(out: &str, samples: &mut Samples) {
    let mut push = |name: &str, value: f64, unit: &str| {
        samples
            .entry(name.to_string())
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    };
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("detail ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if let [name, value, unit] = parts[..] {
                if let Ok(v) = value.parse() {
                    push(name, v, unit);
                }
            }
        } else if let Ok(result) = parse_json(line) {
            let metrics = result.get("metrics").and_then(JsonValue::as_object);
            for (name, m) in metrics.into_iter().flatten() {
                let value = m.get("value").and_then(JsonValue::as_f64);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                if let Some(v) = value {
                    push(name, v, unit);
                }
            }
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what the numbers were taken.
fn env_json(cfg: &Config, runs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let esc = lss_netlist::json::escape;
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_head\": \"{}\", \
         \"first_seed\": {}, \"runs\": {runs}, \"seconds\": {}, \"trace\": {}}}",
        esc(&cpu),
        esc(&command_line("rustc", &["-V"])),
        esc(&command_line("git", &["rev-parse", "HEAD"])),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    )
}

/// Every workload, `runs` rounds in alternating order with seed `seed +
/// round`; prints the median and quartiles of each metric.
fn all(cfg: &Config, runs: usize) -> ExitCode {
    let mut results: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut all_ok = true;
    for round in 0..runs {
        let mut order = WORKLOADS.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for name in order {
            let cfg = Config {
                seed: cfg.seed + round as u64,
                ..cfg.clone()
            };
            let (ok, out) = spawn_workload(name, &cfg);
            all_ok &= ok;
            for line in out.lines() {
                eprintln!("{name} #{round}: {line}");
            }
            record_output(&out, results.entry(name).or_default());
        }
    }
    let mut workloads = Vec::new();
    for (name, samples) in &results {
        let mut metrics = Vec::new();
        for (metric, (unit, values)) in samples {
            let median = stats::median(values);
            let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            };
            eprintln!(
                "{name:<13} {metric:<30} median {median:>14.6} {unit:<9} q1 {q1:>14.6} q3 {q3:>14.6} spread {:>6.2}%",
                100.0 * spread
            );
            metrics.push(format!(
                "    \"{metric}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"n\": {}}}",
                json_number(median),
                json_number(q1),
                json_number(q3),
                json_number(spread),
                values.len()
            ));
        }
        workloads.push(format!("  \"{name}\": {{\n{}\n  }}", metrics.join(",\n")));
    }
    println!(
        "{{\"env\": {},\n\"results\": {{\n{}\n}}}}",
        env_json(cfg, runs),
        workloads.join(",\n")
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.child) {
        (Some(name), true) => child(name, &args.cfg),
        (Some(name), false) => parent(name, &args.cfg),
        (None, _) => all(&args.cfg, args.runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &JsonValue) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_code_measures() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<String> = names(doc.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let listed = |key: &str| names(doc.get(key).unwrap());
        let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), code(harness::END_TO_END));
        assert_eq!(listed("per_layer"), code(harness::PER_LAYER));
        let setup = doc
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .and_then(|l| {
                l.iter()
                    .find(|m| m.get("name").and_then(JsonValue::as_str) == Some("setup_s"))
            })
            .expect("setup_s is listed");
        assert_eq!(
            setup.get("better").and_then(JsonValue::as_str),
            Some("lower")
        );
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_json(true, 3, 0, &[Metric::new("op_ms", 1.25, "ms")]);
        let doc = parse_json(&line).expect("result line parses");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_i64), Some(3));
        let op = doc.get("metrics").and_then(|m| m.get("op_ms")).unwrap();
        assert_eq!(op.get("value").and_then(JsonValue::as_f64), Some(1.25));
        let mut samples = Samples::new();
        record_output(
            &format!("detail sim_kips 2.5 kinstr/s\n{line}\n"),
            &mut samples,
        );
        assert_eq!(samples["sim_kips"], ("kinstr/s".to_string(), vec![2.5]));
        assert_eq!(samples["op_ms"], ("ms".to_string(), vec![1.25]));
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload hit_none --seed 1").err().unwrap();
        assert!(a.contains("unknown workload"));
        let a = args("--workload wide_chain --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 10.0, false));
        let a = args("--trace --smoke").unwrap();
        assert!(a.cfg.trace && a.cfg.smoke);
        let a = args("--trace 1 --runs 3").unwrap();
        assert!(a.cfg.trace);
        assert_eq!(a.runs, 3);
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
    }

    /// One small pass of every workload, untraced and traced: every
    /// operation must return what it must.
    #[test]
    fn smoke_runs_every_workload_clean() {
        for trace in [false, true] {
            for name in WORKLOADS {
                let cfg = Config {
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let report = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(report.attempted > 0, "{name}");
                assert!(report.failures.is_empty(), "{name}: {:?}", report.failures);
                let expected = if trace {
                    harness::PER_LAYER.len()
                } else {
                    harness::END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected, "{name}");
                if trace {
                    let coverage = report
                        .metrics
                        .iter()
                        .find(|m| m.name == "trace.coverage")
                        .unwrap();
                    assert!(
                        coverage.value > 0.5 && coverage.value <= 1.0,
                        "{name}: {coverage:?}"
                    );
                }
            }
        }
    }
}
