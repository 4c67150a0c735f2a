//! What every workload shares: settings, the operation log, the run loop,
//! and the metric definitions that `BENCHMARK.json` lists.

use std::collections::{BTreeMap, HashSet};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lss_types::SplitMix64;

use crate::stats::{busy_time, geomean, median, percentile, slices};
use crate::trace::{Tracer, OP};

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed for every generated input and every ordering choice.
    pub seed: u64,
    /// Run length: the amount of work is `seconds` times the workload's
    /// pass rate, so a run lasts about this long on the reference machine
    /// and does the same work on every commit.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One pass over small inputs plus extra cross-checks.
    pub smoke: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A `_pct` metric is
/// the share of operation time spent in one layer call (the span's self
/// time), so a layer's numbers and their sum against the whole are in one
/// unit and a layer the workload never reaches reads 0%, not a constant
/// time. The rest are work counts, sizes and rates per operation.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ast.parse_pct", "%"),
    ("interp.elaborate_pct", "%"),
    ("types.infer_pct", "%"),
    ("netlist.link_pct", "%"),
    ("driver.session_pct", "%"),
    ("driver.cache_key_pct", "%"),
    ("driver.cache_probe_pct", "%"),
    ("driver.cache_store_pct", "%"),
    ("analyze.passes_pct", "%"),
    ("sim.comb_info_pct", "%"),
    ("sim.build_pct", "%"),
    ("corelib.registry_pct", "%"),
    ("sim.step_pct", "%"),
    ("models.runner_pct", "%"),
    ("models.poll_pct", "%"),
    ("lssd.encode_pct", "%"),
    ("lssd.server.compile_hot_pct", "%"),
    ("lssd.server.compile_cold_pct", "%"),
    ("lssd.server.simulate_pct", "%"),
    ("lssd.server.check_pct", "%"),
    ("lssd.server.ping_pct", "%"),
    ("lssd.decode_pct", "%"),
    ("ast.parse_mb_per_s", "MB/s"),
    ("interp.instances", "count"),
    ("types.unify_steps", "count"),
    ("types.backtracks", "count"),
    ("types.memo_hit_ratio", "ratio"),
    ("netlist.bin_kb", "KB"),
    ("netlist.json_kb", "KB"),
    ("driver.cache_hit_ratio", "ratio"),
    ("analyze.findings", "count"),
    ("sim.cycles_per_ms", "1/ms"),
    ("sim.comp_cycles_per_us", "1/us"),
    ("sim.comp_evals_per_cycle", "count"),
    ("sim.port_firings_per_cycle", "count"),
    ("sim.events_per_cycle", "count"),
    ("lssd.response_kb", "KB"),
    ("lssd.hot_hit_ratio", "ratio"),
    ("lssd.hot_entries", "count"),
    ("lssd.shed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Times and outcomes of the operations of a run.
pub struct OpLog {
    epoch: Instant,
    /// `(class, start s, end s)` of every operation that succeeded.
    pub ops: Vec<(String, f64, f64)>,
    /// One message per operation that failed or returned a wrong result.
    pub failures: Vec<String>,
}

impl OpLog {
    pub fn new(epoch: Instant) -> OpLog {
        OpLog {
            epoch,
            ops: Vec::new(),
            failures: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records an operation of `class` that ran from `start` to `end`;
    /// `outcome` says whether it did its work and returned what it must.
    pub fn record(
        &mut self,
        class: &str,
        start: Instant,
        end: Instant,
        outcome: Result<(), String>,
    ) {
        match outcome {
            Ok(()) => {
                let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64();
                self.ops.push((class.to_string(), at(start), at(end)));
            }
            Err(e) => self.failures.push(format!("{class}: {e}")),
        }
    }

    pub fn attempted(&self) -> usize {
        self.ops.len() + self.failures.len()
    }

    pub fn absorb(&mut self, other: OpLog) {
        self.ops.extend(other.ops);
        self.failures.extend(other.failures);
    }

    /// Median latency of one class in milliseconds (`NaN` if none ran).
    pub fn median_ms(&self, class: &str) -> f64 {
        let latencies: Vec<f64> = self
            .ops
            .iter()
            .filter(|(c, _, _)| c == class)
            .map(|(_, start, end)| (end - start) * 1e3)
            .collect();
        median(&latencies)
    }

    /// The successful operations cut into [`SLICES`] consecutive slices of
    /// whole passes (`unit` operations each).
    fn slices(&self, unit: usize) -> impl Iterator<Item = &[(String, f64, f64)]> {
        slices(self.ops.len(), unit, SLICES)
            .into_iter()
            .map(|range| &self.ops[range])
    }

    /// The geometric mean over classes of each class's median latency, in
    /// milliseconds, so every class weighs the same however long it
    /// takes; taken per slice, and the fastest slice is reported.
    pub fn op_ms(&self, unit: usize) -> f64 {
        self.slices(unit)
            .map(|ops| {
                let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
                for (class, start, end) in ops {
                    by_class.entry(class).or_default().push((end - start) * 1e3);
                }
                let medians: Vec<f64> = by_class.values().map(|v| median(v)).collect();
                geomean(&medians)
            })
            .fold(f64::NAN, f64::min)
    }

    /// Operations completed per second of busy time (time at least one
    /// operation was in flight: untimed work between operations does not
    /// count, two connections at once do); taken per slice, and the
    /// fastest slice is reported.
    pub fn ops_per_s(&self, unit: usize) -> f64 {
        self.slices(unit)
            .map(|ops| ops.len() as f64 / busy_time(ops.iter().map(|(_, s, e)| (*s, *e))))
            .fold(f64::NAN, f64::max)
    }

    /// The `p`-quantile of every successful operation's latency, in ms.
    pub fn pooled_ms(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.ops.iter().map(|(_, s, e)| (e - s) * 1e3).collect();
        percentile(&all, p)
    }
}

/// The names in directory `dir` (none if it does not exist yet).
pub fn dir_entries(dir: &Path) -> HashSet<OsString> {
    std::fs::read_dir(dir)
        .map(|list| list.filter_map(Result::ok).map(|e| e.file_name()).collect())
        .unwrap_or_default()
}

/// Removes what appeared in `dir` since `before` was listed. A disk cache
/// cleaned this way between operations stays small, so a long run does
/// not leave megabytes of writes and deletions for the disk to work off
/// while later operations are timed.
pub fn remove_new_entries(dir: &Path, before: &HashSet<OsString>) {
    for name in dir_entries(dir).difference(before) {
        let _ = std::fs::remove_file(dir.join(name));
    }
}

/// `0..n` in the seeded order of pass `index`.
pub fn shuffled(n: usize, seed: u64, index: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (index as u64).rotate_left(32));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// Slices a run is cut into for [`OpLog::op_ms`] and [`OpLog::ops_per_s`].
/// On a shared machine other tenants slow a run down for seconds to
/// minutes at a time. A slow stretch spoils some slices; the fastest slice
/// shows the program's own speed, and a real regression slows every slice
/// alike.
const SLICES: usize = 10;

/// A workload: set-up, then passes over its inputs.
pub trait Workload: Sized {
    /// Passes per second of `--seconds`: how many passes the reference
    /// machine completed per second when the benchmark was sized.
    const PASSES_PER_S: f64;

    fn setup(cfg: &Config) -> Result<Self, String>;

    /// Operations one pass logs.
    fn ops_per_pass(&self) -> usize;

    /// Runs pass number `index`, logging each operation. With a tracer,
    /// the pass goes through the layers' public calls one by one, each
    /// inside a span.
    fn pass(&mut self, index: usize, log: &mut OpLog, tracer: Option<&mut Tracer>);

    /// The workload's own end-to-end numbers, printed beside the common
    /// ones.
    fn details(&self, log: &OpLog) -> Vec<Metric>;

    /// Releases what set-up acquired; a failure is a wrong result.
    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

/// How many times set-up runs in one run; `setup_s` is the median.
const SETUPS: usize = 9;

/// The outcome of one workload run.
pub struct Report {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub details: Vec<Metric>,
    pub trace_summary: Vec<String>,
}

/// Where traces and scratch files go: `target/benchmark` in the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target/benchmark"))
}

/// Runs one workload: set-up [`SETUPS`] times, then the passes, untraced
/// or (with `cfg.trace`) half untraced and half traced.
pub fn run<W: Workload>(name: &str, cfg: &Config) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        if let Some(previous) = workload.take() {
            W::teardown(previous)?;
        }
        let start = Instant::now();
        workload = Some(W::setup(cfg)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    let passes = if cfg.smoke {
        1
    } else {
        ((cfg.seconds * W::PASSES_PER_S).round() as usize).max(1)
    };
    let epoch = Instant::now();
    let mut plain = OpLog::new(epoch);
    let (metrics, details, trace_summary) = if !cfg.trace {
        for index in 0..passes {
            w.pass(index, &mut plain, None);
        }
        let metrics = END_TO_END
            .iter()
            .map(|&(metric, unit)| {
                let value = match metric {
                    "setup_s" => median(&setup_s),
                    "op_ms" => plain.op_ms(w.ops_per_pass()),
                    "ops_per_s" => plain.ops_per_s(w.ops_per_pass()),
                    "peak_rss_mb" => peak_rss_mb(),
                    other => unreachable!("end-to-end metric {other} has no definition"),
                };
                Metric::new(metric, value, unit)
            })
            .collect();
        (metrics, w.details(&plain), Vec::new())
    } else {
        // The untraced half gives the baseline for the tracing overhead.
        let half = passes.div_ceil(2);
        for index in 0..half {
            w.pass(index, &mut plain, None);
        }
        let mut traced = OpLog::new(epoch);
        let mut tracer = Tracer::new(epoch);
        for index in half..2 * half {
            tracer.keep_spans(index == half);
            w.pass(index, &mut traced, Some(&mut tracer));
        }
        let unit = w.ops_per_pass();
        let overhead_pct = 100.0 * (traced.op_ms(unit) / plain.op_ms(unit) - 1.0);
        let path = work_dir().join(format!("trace-{name}.json"));
        tracer
            .write_json(&path, name)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        plain.absorb(traced);
        (
            layer_metrics(&tracer, overhead_pct),
            Vec::new(),
            tracer.summary(),
        )
    };
    w.teardown()?;
    Ok(Report {
        attempted: plain.attempted(),
        failures: plain.failures,
        metrics,
        details,
        trace_summary,
    })
}

/// The high-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every [`PER_LAYER`] metric from a traced run.
pub fn layer_metrics(tr: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let div = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let ops = tr.ops() as f64;
    let op_ns = tr.layer(OP).total_ns as f64;
    let self_ns = |span: &str| tr.layer(span).self_ns as f64;
    let ratio = |num: &str, den: &str| div(tr.counter(num), tr.counter(den));
    let count_per_op = |name: &str| div(tr.counter(name), ops);
    let per_cycle = |name: &str| ratio(name, "sim.cycles");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead_pct" => overhead_pct,
                share if share.ends_with("_pct") => {
                    100.0 * div(self_ns(share.trim_end_matches("_pct")), op_ns)
                }
                "ast.parse_mb_per_s" => {
                    div(tr.counter("ast.bytes") / 1e6, self_ns("ast.parse") / 1e9)
                }
                "interp.instances" => count_per_op("interp.instances"),
                "types.unify_steps" => count_per_op("types.unify_steps"),
                "types.backtracks" => count_per_op("types.backtracks"),
                "types.memo_hit_ratio" => ratio("types.memo_hits", "types.partitions"),
                "netlist.bin_kb" => ratio("netlist.bin_bytes", "netlist.bin_entries") / 1024.0,
                "netlist.json_kb" => ratio("netlist.json_bytes", "netlist.json_bodies") / 1024.0,
                "driver.cache_hit_ratio" => ratio("driver.cache_hits", "driver.cache_probes"),
                "analyze.findings" => count_per_op("analyze.findings"),
                "sim.cycles_per_ms" => div(tr.counter("sim.cycles"), self_ns("sim.step") / 1e6),
                "sim.comp_cycles_per_us" => {
                    div(tr.counter("sim.comp_cycles"), self_ns("sim.step") / 1e3)
                }
                "sim.comp_evals_per_cycle" => per_cycle("sim.comp_evals"),
                "sim.port_firings_per_cycle" => per_cycle("sim.port_firings"),
                "sim.events_per_cycle" => per_cycle("sim.events"),
                "lssd.response_kb" => count_per_op("lssd.response_bytes") / 1024.0,
                "lssd.hot_hit_ratio" => ratio("lssd.hot_hits", "lssd.hot_lookups"),
                "lssd.hot_entries" => tr.counter("lssd.hot_entries"),
                "lssd.shed" => tr.counter("lssd.shed"),
                "trace.coverage" => tr.coverage(),
                other => unreachable!("per-layer metric {other} has no definition"),
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ms_weighs_every_class_equally() {
        let epoch = Instant::now();
        let mut log = OpLog::new(epoch);
        for (class, ms) in [("a", 1.0), ("a", 1.0), ("a", 100.0), ("b", 100.0)] {
            log.ops.push((class.to_string(), 0.0, ms / 1e3));
        }
        // One slice of four operations: medians 1 ms and 100 ms.
        assert!((log.op_ms(4) - 10.0).abs() < 1e-9);
        assert_eq!(log.median_ms("b"), 100.0);
        assert!(log.median_ms("c").is_nan());
        log.record("c", epoch, epoch, Err("wrong".into()));
        assert_eq!(log.attempted(), 5);
    }

    #[test]
    fn the_fastest_slice_ignores_a_slow_stretch() {
        let mut log = OpLog::new(Instant::now());
        let mut t = 0.0;
        // Twenty passes of two operations taking 0.1 s, then 0.1 s of
        // untimed work; passes 8 to 15 run ten times slower, and pass 3's
        // second operation twice as slow.
        for pass in 0..20 {
            let d = if (8..16).contains(&pass) { 1.0 } else { 0.1 };
            for (k, class) in ["a", "b"].into_iter().enumerate() {
                let d = if pass == 3 && k == 1 { 2.0 * d } else { d };
                log.ops.push((class.to_string(), t, t + d));
                t += d;
            }
            t += 0.1;
        }
        assert!((log.op_ms(2) - 100.0).abs() < 1e-9, "{}", log.op_ms(2));
        assert!(
            (log.ops_per_s(2) - 10.0).abs() < 1e-9,
            "{}",
            log.ops_per_s(2)
        );
        assert!(OpLog::new(Instant::now()).op_ms(2).is_nan());
    }

    #[test]
    fn every_layer_metric_has_a_value() {
        let tr = Tracer::new(Instant::now());
        let metrics = layer_metrics(&tr, 1.5);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(metrics.last().unwrap().value, 1.5);
    }

    #[test]
    fn layer_shares_sum_to_the_coverage() {
        let mut tr = Tracer::new(Instant::now());
        for _ in 0..3 {
            tr.begin(OP);
            tr.time("ast.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.time("sim.step", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            tr.end();
        }
        let metrics = layer_metrics(&tr, 0.0);
        let shares: f64 = metrics
            .iter()
            .filter(|m| m.unit == "%" && m.name != "trace.overhead_pct")
            .map(|m| m.value)
            .sum();
        let coverage = metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .unwrap()
            .value;
        assert!(
            (shares - 100.0 * coverage).abs() < 1e-9,
            "{shares} vs {coverage}"
        );
        assert!(coverage > 0.9 && coverage <= 1.0);
        let parse = metrics
            .iter()
            .find(|m| m.name == "ast.parse_pct")
            .unwrap()
            .value;
        assert!(parse > 50.0, "{parse}");
    }
}
