//! A minimal measurement harness for the `[[bench]]` binaries: wall-clock
//! repetition with warmup, median/mean/min summary, and a hand-rolled JSON
//! emitter so results are machine-readable without external crates.

use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Group/case label, e.g. `sim_delay_chain_100cycles/static/64`.
    pub name: String,
    /// Number of measured iterations.
    pub iters: u32,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: u64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: u64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: u64,
}

/// Runs `f` for `warmup` unmeasured and `iters` measured iterations and
/// returns the summary. Prints one human-readable line per case.
pub fn measure<F: FnMut()>(name: impl Into<String>, warmup: u32, iters: u32, mut f: F) -> Sample {
    let name = name.into();
    assert!(iters > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        f();
    }
    let times: Vec<u64> = (0..iters).map(|_| time(&mut f)).collect();
    summarize(name, times)
}

/// Like [`measure`] for two cases at once, alternating their iterations so
/// that drift in machine speed over the run hits both alike. Gates on the
/// ratio between two cases should measure them this way. Also returns
/// each iteration pair's ratio `b / a`, in run order.
pub fn measure_pair<A: FnMut(), B: FnMut()>(
    names: [String; 2],
    warmup: u32,
    iters: u32,
    mut a: A,
    mut b: B,
) -> ([Sample; 2], Vec<f64>) {
    measure_pair_prepared(names, warmup, iters, || (), |()| a(), || (), |()| b())
}

/// [`measure_pair`] with untimed work around each iteration: `prep_a`
/// makes the input `run_a` consumes, and only `run_a` is timed; whatever
/// it returns is dropped after the clock stops. Likewise for `b`.
pub fn measure_pair_prepared<P, Q, R, S>(
    names: [String; 2],
    warmup: u32,
    iters: u32,
    prep_a: impl FnMut() -> P,
    run_a: impl FnMut(P) -> R,
    prep_b: impl FnMut() -> Q,
    run_b: impl FnMut(Q) -> S,
) -> ([Sample; 2], Vec<f64>) {
    let [ta, tb] = time_pair(warmup, iters, prep_a, run_a, prep_b, run_b);
    let ratios = ta
        .iter()
        .zip(&tb)
        .map(|(&x, &y)| y as f64 / x as f64)
        .collect();
    let [na, nb] = names;
    ([summarize(na, ta), summarize(nb, tb)], ratios)
}

/// The per-iteration times of two alternating cases.
fn time_pair<P, Q, R, S>(
    warmup: u32,
    iters: u32,
    mut prep_a: impl FnMut() -> P,
    mut run_a: impl FnMut(P) -> R,
    mut prep_b: impl FnMut() -> Q,
    mut run_b: impl FnMut(Q) -> S,
) -> [Vec<u64>; 2] {
    assert!(iters > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        run_a(prep_a());
        run_b(prep_b());
    }
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        ta.push(time_prepared(&mut prep_a, &mut run_a));
        tb.push(time_prepared(&mut prep_b, &mut run_b));
    }
    [ta, tb]
}

fn time(f: &mut impl FnMut()) -> u64 {
    time_prepared(&mut || (), &mut |()| f())
}

fn time_prepared<P, R>(prep: &mut impl FnMut() -> P, run: &mut impl FnMut(P) -> R) -> u64 {
    let input = prep();
    let t0 = Instant::now();
    let output = run(input);
    let ns = t0.elapsed().as_nanos() as u64;
    drop(output);
    ns
}

/// Summarizes per-iteration times and prints the human-readable line.
fn summarize(name: String, mut times: Vec<u64>) -> Sample {
    let iters = times.len() as u32;
    times.sort_unstable();
    let median_ns = times[times.len() / 2];
    let mean_ns = times.iter().sum::<u64>() / times.len() as u64;
    let min_ns = times[0];
    println!(
        "{name:<48} median {:>10}  mean {:>10}  min {:>10}  ({iters} iters)",
        fmt_ns(median_ns),
        fmt_ns(mean_ns),
        fmt_ns(min_ns)
    );
    Sample {
        name,
        iters,
        median_ns,
        mean_ns,
        min_ns,
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Serializes samples as a JSON array (stable key order, no dependencies).
pub fn to_json(samples: &[Sample]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}}}{comma}",
            lss_netlist::json::escape(&s.name),
            s.iters,
            s.median_ns,
            s.mean_ns,
            s.min_ns
        )
        .unwrap();
    }
    out.push(']');
    out.push('\n');
    out
}

/// Writes samples to `path` as JSON, reporting where they went.
pub fn write_json(path: &str, samples: &[Sample]) {
    std::fs::write(path, to_json(samples)).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({} cases)", samples.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_ordered_stats() {
        let s = measure("noop", 1, 5, || {
            std::hint::black_box(1 + 1);
        });
        assert!(s.min_ns <= s.median_ns);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn measure_pair_alternates_the_two_cases() {
        let order = std::cell::RefCell::new(Vec::new());
        let ([a, b], ratios) = measure_pair(
            ["a".into(), "b".into()],
            1,
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "abababab".chars().collect::<Vec<_>>());
        assert_eq!((a.name.as_str(), a.iters), ("a", 3));
        assert_eq!((b.name.as_str(), b.iters), ("b", 3));
        assert_eq!(ratios.len(), 3);
    }

    #[test]
    fn json_is_well_formed() {
        let samples = vec![Sample {
            name: "a\"b\tc\r".into(),
            iters: 3,
            median_ns: 10,
            mean_ns: 11,
            min_ns: 9,
        }];
        let json = to_json(&samples);
        assert!(json.contains(r#""a\"b\tc\r""#), "{json}");
        assert!(json.trim_end().starts_with('[') && json.trim_end().ends_with(']'));
    }
}
