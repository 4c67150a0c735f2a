//! Robustness-layer benchmark: what budget governance costs, and what
//! adversarial crash-fuzzing throughput looks like, written to
//! `crates/bench/BENCH_robustness.json`.
//!
//! Two questions (see `docs/ROBUSTNESS.md`):
//!
//! 1. **Budget overhead.** The same Table 3 model sweep compiled with no
//!    budget versus with every cap armed (deadline, depth, netlist size —
//!    all far above what the models need, so every check runs but none
//!    trips). The strided deadline poll is designed to keep this under
//!    3%, and this binary *asserts* that bar on the noise-robust minimum
//!    of interleaved off/on pairs. The same sweep simulated for 500
//!    cycles, with the cycle cap and deadline armed, is held to 1%.
//! 2. **Adversarial throughput.** Hostile inputs checked against the
//!    never-panic/always-terminate contract per second — this bounds how
//!    much crash-fuzz coverage a CI time budget buys.
//!
//! Run with `cargo run --release -p bench --bin robustness`.

use std::time::Duration;

use bench::timing::{measure, measure_pair, write_json, Sample};
use lss_models::{driver_for_source, models};
use lss_types::BudgetCaps;
use lss_verify::{run_adversarial, AdversarialConfig};

/// Compiles every Table 3 model once, optionally under an armed budget.
fn compile_sweep(caps: Option<BudgetCaps>) {
    for model in models() {
        let mut driver = driver_for_source(model.source, &Default::default());
        if let Some(caps) = caps {
            driver.set_budget(caps);
        }
        let elaborated = driver
            .elaborate()
            .unwrap_or_else(|e| panic!("model {} failed: {e}", model.id));
        std::hint::black_box(elaborated.netlist.instances.len());
    }
}

/// Times `off` and `on` in interleaved pairs (`measure_pair`, so drift in
/// machine speed hits both alike), up to `attempts` times, until the
/// overhead of `on` over `off` is below `bar`. The true overhead is far
/// below the scheduler noise band on a shared machine, so the gate
/// compares *accumulated minima*: noise only ever inflates a run, so the
/// minimum across attempts converges to the real cost while single-attempt
/// ratios bounce around it. Each attempt prints the spread of its
/// per-pair on/off ratios, which shows how much noise the bar sits in.
/// Returns the last attempt's samples; panics if no attempt passes.
#[allow(clippy::too_many_arguments)]
fn overhead_gate(
    what: &str,
    names: [&str; 2],
    bar: f64,
    attempts: u32,
    warmup: u32,
    iters: u32,
    mut off: impl FnMut(),
    mut on: impl FnMut(),
) -> [Sample; 2] {
    let (mut min_off, mut min_on) = (u64::MAX, u64::MAX);
    for attempt in 1..=attempts {
        let (samples, mut ratios) =
            measure_pair(names.map(String::from), warmup, iters, &mut off, &mut on);
        min_off = min_off.min(samples[0].min_ns);
        min_on = min_on.min(samples[1].min_ns);
        let overhead = min_on as f64 / min_off as f64 - 1.0;
        ratios.sort_by(f64::total_cmp);
        let q = |f: f64| ratios[((ratios.len() - 1) as f64 * f).round() as usize];
        println!(
            "{what} overhead (attempt {attempt}, accumulated min): {:.2}%; \
             per-pair on/off ratio min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}",
            overhead * 100.0,
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
        );
        if overhead < bar {
            return samples;
        }
    }
    panic!(
        "{what} must cost < {}% on the Table 3 sweep in one of {attempts} attempts",
        bar * 100.0
    )
}

fn main() {
    let mut samples = Vec::new();

    // Generous caps: armed (so every check executes) but never exhausted.
    let armed = BudgetCaps {
        deadline: Some(Duration::from_secs(600)),
        max_depth: Some(10_000),
        max_netlist_items: Some(100_000_000),
        max_sim_cycles: Some(u64::MAX),
    };

    // Compile budget overhead: scheduler/allocator jitter on a shared
    // machine swamps the real overhead (which is near zero by design), so
    // the < 3% bar gets up to three attempts: a genuine regression fails
    // all of them, noise does not.
    samples.extend(overhead_gate(
        "budget-check",
        [
            "robustness/table3_compile_budget_off",
            "robustness/table3_compile_budget_on",
        ],
        0.03,
        3,
        3,
        15,
        || compile_sweep(None),
        || compile_sweep(Some(armed)),
    ));

    // Simulation budget overhead: the same Table 3 sweep run for 500
    // cycles with no budget versus with the cycle cap and deadline armed
    // far above need — every per-step check executes, none trips. The
    // cycle check is one integer compare and the deadline poll is
    // strided, so the design bar is < 1%, with up to five attempts.
    let compiled: Vec<_> = models().iter().map(bench::compiled_model).collect();
    let sim_sweep = |budget: Option<&lss_types::Budget>| {
        for model in &compiled {
            let opts = lss_sim::SimOptions {
                budget: budget.cloned().unwrap_or_else(lss_types::Budget::unlimited),
                ..Default::default()
            };
            let mut sim = bench::simulator_opts(&model.netlist, opts);
            sim.run(500).unwrap();
            std::hint::black_box(sim.stats().comp_evals);
        }
    };
    let armed_sim = armed.start();
    samples.extend(overhead_gate(
        "sim budget-check",
        [
            "robustness/table3_sim_500cycles_budget_off",
            "robustness/table3_sim_500cycles_budget_on",
        ],
        0.01,
        5,
        1,
        10,
        || sim_sweep(None),
        || sim_sweep(Some(&armed_sim)),
    ));

    // Adversarial throughput: 50 hostile inputs per iteration, clean run
    // required (a finding would mean ddmin time pollutes the number —
    // and a broken compiler).
    samples.push(measure("robustness/adversarial_fuzz_50", 1, 5, || {
        let report = run_adversarial(
            &AdversarialConfig {
                seed: 1,
                iters: 50,
                deadline: Duration::from_secs(2),
                out_dir: std::env::temp_dir().join("lss-bench-robustness"),
            },
            |_| {},
        );
        assert!(report.clean(), "adversarial baseline must be clean");
    }));

    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_robustness.json"),
        &samples,
    );
}
