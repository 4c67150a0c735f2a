//! Benchmark for the §8 claim: "reusable components in LSE with LSS are at
//! least as fast as custom components written in SystemC".
//!
//! The mechanism behind the claim is static concurrency scheduling [12]:
//! LSE precomputes a topological evaluation order, while SystemC-style
//! systems re-evaluate components from a dynamic worklist until signals
//! settle. We benchmark the same compiled models under both schedulers —
//! the dynamic worklist baseline and the static engine, whose staged plan
//! also devirtualizes hot corelib behaviors into direct arena
//! reads/writes — and the ratios are the reproduced result.
//!
//! The run asserts the ordering the paper promises: the static engine's
//! median must not lose to the dynamic baseline at any delay-chain size or
//! on any measured Table 3 model, and must win by at least 3x on model C.
//!
//! Emits `BENCH_sim_speed.json` in the working directory so successive PRs
//! can track the performance trajectory mechanically.

use std::collections::BTreeMap;

use bench::timing::{measure, write_json, Sample};
use bench::{compiled_model, compiled_source, delay_chain_source, simulator};
use lss_interp::CompileOptions;
use lss_sim::Scheduler;

const SCHEDULERS: [(&str, Scheduler); 2] = [
    ("static", Scheduler::Static),
    ("dynamic", Scheduler::Dynamic),
];

fn main() {
    let mut samples: Vec<Sample> = Vec::new();

    for stages in [16usize, 64, 256] {
        let src = delay_chain_source(stages, 2);
        let compiled = compiled_source(&src, &CompileOptions::default());
        for (name, scheduler) in SCHEDULERS {
            samples.push(measure(
                format!("sim_delay_chain_100cycles/{name}/{stages}"),
                2,
                20,
                || {
                    let mut sim = simulator(&compiled.netlist, scheduler);
                    sim.run(100).unwrap();
                    std::hint::black_box(sim.stats().comp_evals);
                },
            ));
        }
    }

    for m in lss_models::models() {
        let compiled = compiled_model(m);
        for (name, scheduler) in SCHEDULERS {
            samples.push(measure(
                format!("sim_model_500cycles/{name}/{}", m.id),
                1,
                10,
                || {
                    let mut sim = simulator(&compiled.netlist, scheduler);
                    sim.run(500).unwrap();
                    std::hint::black_box(sim.stats().comp_evals);
                },
            ));
        }
    }

    write_json("BENCH_sim_speed.json", &samples);
    assert_static_wins(&samples);
}

/// Regression gate: the static engine may never lose to the dynamic
/// worklist baseline; on model C (the largest single-trace model measured
/// here) it must win by at least 3x.
fn assert_static_wins(samples: &[Sample]) {
    let medians: BTreeMap<&str, u64> = samples
        .iter()
        .map(|s| (s.name.as_str(), s.median_ns))
        .collect();
    let get = |name: &str| {
        *medians
            .get(name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    let mut failures = Vec::new();
    for stages in [16usize, 64, 256] {
        let s = get(&format!("sim_delay_chain_100cycles/static/{stages}"));
        let d = get(&format!("sim_delay_chain_100cycles/dynamic/{stages}"));
        if s > d {
            failures.push(format!(
                "delay chain {stages}: static {s}ns slower than dynamic {d}ns"
            ));
        }
    }
    for m in lss_models::models() {
        let s = get(&format!("sim_model_500cycles/static/{}", m.id));
        let d = get(&format!("sim_model_500cycles/dynamic/{}", m.id));
        if s > d {
            failures.push(format!(
                "model {}: static {s}ns slower than dynamic {d}ns",
                m.id
            ));
        }
        if m.id == 'C' && s * 3 > d {
            failures.push(format!(
                "model C: static {s}ns is less than 3x faster than dynamic {d}ns"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "performance regression:\n{}",
        failures.join("\n")
    );
    println!("static-vs-dynamic regression gate: ok");
}
