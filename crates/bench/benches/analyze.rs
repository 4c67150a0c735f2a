//! Benchmark for the static-analysis layer: how much does a full
//! `lssc check` pass cost on the largest Table 3 model?
//!
//! The paper's analyzability pitch (§1, §3) only holds if whole-model
//! static analysis is cheap enough to run on every compile, so this
//! harness times the three stages separately — combinational-dependency
//! extraction, the port-graph condensation, and the full pass-manager
//! sweep — on the biggest netlist we have.
//!
//! Emits `BENCH_analyze.json` in the working directory so analyzer cost
//! shows up in the perf trajectory alongside simulation speed.

use bench::compiled_model;
use bench::timing::{measure, measure_pair_prepared, write_json, Sample};
use lss_analyze::{leaf_dep_graph, AnalysisConfig, PassManager};

fn main() {
    let mut samples: Vec<Sample> = Vec::new();

    // The largest model by instance count.
    let (id, compiled) = lss_models::models()
        .iter()
        .map(|m| (m.id, compiled_model(m)))
        .max_by_key(|(_, c)| c.netlist.instances.len())
        .expect("models");
    let registry = lss_corelib::registry();
    let wires = compiled.netlist.flatten();

    samples.push(measure(format!("analyze_comb_info/{id}"), 2, 20, || {
        let comb = lss_sim::comb_info(&compiled.netlist, &registry);
        std::hint::black_box(comb.independent_pairs());
    }));

    let comb = lss_sim::comb_info(&compiled.netlist, &registry);
    samples.push(measure(format!("analyze_dep_graph/{id}"), 2, 20, || {
        let deps = leaf_dep_graph(&compiled.netlist, &wires, &comb);
        std::hint::black_box(deps.ports.condense().sccs.len());
    }));

    // The protocol composition pass in isolation: its `run` method on the
    // precomputed context, without the shared flatten/dep-graph setup the
    // manager amortizes over the whole suite. Declared automata are tiny,
    // so composing them per wire must stay in the noise (< 5% of a full
    // check) or the pass gets evicted from the on-every-compile suite.
    //
    // The two are timed in interleaved pairs, so drift in machine speed
    // hits both alike. Each timed pass run follows one untimed run, so the
    // gate bounds the pass's own work on warm caches, as a back-to-back
    // loop of it would. Straight after a full check, the pass's first
    // touch of the protocol bindings and of this context's wires misses
    // cache, which on a shared machine can cost as much as the work
    // itself (`EXPERIMENTS.md`, "Analyzer cost").
    let manager = PassManager::with_default_passes();
    let config = AnalysisConfig::default();
    let deps = leaf_dep_graph(&compiled.netlist, &wires, &comb);
    let ctx = lss_analyze::AnalysisCtx {
        netlist: &compiled.netlist,
        wires: &wires,
        deps: &deps,
        comb: &comb,
    };
    let pass = lss_analyze::passes::protocol::ProtocolPass;
    let run_pass = || {
        let mut findings = Vec::new();
        lss_analyze::Pass::run(&pass, &ctx, &mut findings);
        findings
    };
    let ([full, protocol], mut ratios) = measure_pair_prepared(
        [
            format!("analyze_full_check/{id}"),
            format!("analyze_protocol_pass/{id}"),
        ],
        2,
        20,
        || (),
        |()| manager.run(&compiled.netlist, &comb, &config),
        run_pass,
        |_| run_pass(),
    );
    ratios.sort_by(f64::total_cmp);
    let q = |f: f64| ratios[((ratios.len() - 1) as f64 * f).round() as usize];
    println!(
        "protocol/full per-pair ratio min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
    );
    assert!(
        protocol.median_ns <= full.median_ns / 20,
        "protocol pass costs {}ns median, over 5% of the {}ns full check",
        protocol.median_ns,
        full.median_ns
    );
    samples.push(full);
    samples.push(protocol);

    write_json("BENCH_analyze.json", &samples);
}
