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
//!    3%, and this binary *asserts* that bar on the noise-robust minimum.
//! 2. **Adversarial throughput.** Hostile inputs checked against the
//!    never-panic/always-terminate contract per second — this bounds how
//!    much crash-fuzz coverage a CI time budget buys.
//!
//! Run with `cargo run --release -p bench --bin robustness`.

use std::time::Duration;

use bench::timing::{measure, measure_pair, write_json};
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

fn main() {
    let mut samples = Vec::new();

    // Generous caps: armed (so every check executes) but never exhausted.
    let armed = BudgetCaps {
        deadline: Some(Duration::from_secs(600)),
        max_depth: Some(10_000),
        max_netlist_items: Some(100_000_000),
        max_sim_cycles: Some(u64::MAX),
    };

    // Scheduler/allocator jitter on a shared machine swamps the real
    // overhead (which is near zero by design), so the < 3% bar gets up
    // to three attempts: a genuine regression fails all of them, noise
    // does not.
    let mut kept = None;
    for attempt in 1..=3 {
        let off = measure("robustness/table3_compile_budget_off", 3, 15, || {
            compile_sweep(None);
        });
        let on = measure("robustness/table3_compile_budget_on", 3, 15, || {
            compile_sweep(Some(armed));
        });
        let overhead = on.min_ns as f64 / off.min_ns as f64 - 1.0;
        println!(
            "budget-check overhead (attempt {attempt}): {:.2}%",
            overhead * 100.0
        );
        if overhead < 0.03 {
            kept = Some((off, on));
            break;
        }
    }
    let (off, on) = kept.unwrap_or_else(|| {
        panic!("budget governance must cost < 3% on the Table 3 sweep in one of 3 attempts")
    });
    samples.push(off);
    samples.push(on);

    // Simulation budget overhead: the same Table 3 sweep run for 500
    // cycles with no budget versus with the cycle cap and deadline armed
    // far above need — every per-step check executes, none trips. The
    // cycle check is one integer compare and the deadline poll is
    // strided, so the design bar is < 1% on the noise-robust minimum,
    // with the same three-attempt jitter allowance as above.
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
    // The true overhead is far below the scheduler noise band on a
    // shared machine, so the gate compares *accumulated minima*: noise
    // only ever inflates a run, so the min across attempts converges to
    // the real cost while single-attempt ratios bounce around it. Off and
    // on iterations alternate (`measure_pair`), so drift in machine speed
    // over an attempt hits both sides alike.
    let mut kept = None;
    let (mut min_off, mut min_on) = (u64::MAX, u64::MAX);
    for attempt in 1..=5 {
        let armed_sim = armed.start();
        let [off, on] = measure_pair(
            [
                "robustness/table3_sim_500cycles_budget_off".to_string(),
                "robustness/table3_sim_500cycles_budget_on".to_string(),
            ],
            1,
            10,
            || sim_sweep(None),
            || sim_sweep(Some(&armed_sim)),
        );
        min_off = min_off.min(off.min_ns);
        min_on = min_on.min(on.min_ns);
        let overhead = min_on as f64 / min_off as f64 - 1.0;
        println!(
            "sim budget-check overhead (attempt {attempt}, accumulated min): {:.2}%",
            overhead * 100.0
        );
        kept = Some((off, on));
        if overhead < 0.01 {
            break;
        }
        if attempt == 5 {
            panic!("sim budget checks must cost < 1% on the Table 3 sweep (got {overhead:.4})");
        }
    }
    let (off, on) = kept.expect("at least one attempt ran");
    samples.push(off);
    samples.push(on);

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
