//! End-to-end differential tests: the fuzz loop must run clean against the
//! real engine, and an intentionally injected scheduler bug must be caught
//! and minimized to a small repro (the mutation test for the harness
//! itself).

use lss_sim::Scheduler;
use lss_verify::gen::Pin;
use lss_verify::{
    difftest_source, generate, run_fuzz, DiffOptions, Discrepancy, FuzzConfig, GenConfig,
    KernelMutation, Mutation, Spec,
};

/// A hand-built chain with a combinational consumer: `source -> tee ->
/// sink`. The tee forwards combinationally, so a reference that evaluates
/// consumers before producers (ReversedSinglePass) visibly diverges.
fn chain_spec() -> Spec {
    let mut s = Spec::empty();
    let src = s.inst("src", "source");
    s.insts[src].params.push(("start".into(), "3".into()));
    let tee = s.inst("t", "tee");
    let snk = s.inst("snk", "sink");
    s.connect(src, "out", tee, "in");
    s.connect(tee, "out", snk, "in");
    s.pins.push(Pin {
        inst: src,
        port: "out",
        ty: "int",
    });
    s
}

#[test]
fn hand_built_chain_diffs_clean() {
    let spec = chain_spec();
    let verdict = difftest_source("chain.lss", &spec.render(), &DiffOptions::default())
        .expect("harness-level failure");
    assert!(verdict.is_none(), "unexpected discrepancy: {verdict:?}");
}

#[test]
fn generated_programs_diff_clean() {
    // A bounded slice of what `lssc fuzz` runs in CI; both oracles on.
    let cfg = FuzzConfig {
        seed: 11,
        iters: 25,
        out_dir: std::env::temp_dir().join("lss-verify-clean"),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, |_line| {});
    assert_eq!(report.iters, 25);
    assert!(
        report.compiled >= 20,
        "most generated programs must compile"
    );
    assert!(
        report.clean(),
        "fuzzing found discrepancies: {:?}",
        report.findings
    );
}

#[test]
fn reversed_schedule_mutation_is_caught_and_minimized() {
    // Acceptance criterion: an injected scheduler bug must be caught and
    // the repro minimized to <= 10 netlist instances.
    let out = std::env::temp_dir().join("lss-verify-mutation");
    let _ = std::fs::remove_dir_all(&out);
    let cfg = FuzzConfig {
        seed: 7,
        iters: 20,
        mutation: Mutation::ReversedSinglePass,
        check_types: false,
        out_dir: out.clone(),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, |_line| {});
    assert!(
        !report.findings.is_empty(),
        "the reversed-schedule mutation went undetected over {} programs",
        report.iters
    );
    for finding in &report.findings {
        assert!(
            finding.minimized_insts <= 10,
            "repro not minimal: {} instances (from {})",
            finding.minimized_insts,
            finding.original_insts
        );
        let path = finding.repro.as_ref().expect("repro file written");
        let text = std::fs::read_to_string(path).expect("repro readable");
        assert!(
            text.contains("instance"),
            "repro should be a runnable program"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn forward_single_pass_mutation_is_caught() {
    // The second injected bug class: a scheduler that never iterates
    // feedback to fixpoint. A cache miss consults the backing memory
    // *later* in instance order, so a single forward pass leaves the
    // miss response undelivered and the traces diverge at cycle 0.
    let mut spec = Spec::empty();
    let src = spec.inst("creq", "source");
    spec.insts[src].params.push(("start".into(), "0".into()));
    let cache = spec.inst("c", "cache");
    let snk = spec.inst("crsp", "sink");
    let mem = spec.inst("mem", "memory");
    spec.insts[mem].params.push(("lat".into(), "2".into()));
    spec.connect(src, "out", cache, "req");
    spec.connect(cache, "resp", snk, "in");
    spec.connect(cache, "lower_req", mem, "req");
    spec.connect(mem, "resp", cache, "lower_resp");
    let opts = DiffOptions {
        mutation: Mutation::ForwardSinglePass,
        ..DiffOptions::default()
    };
    let verdict = difftest_source("cache-feedback.lss", &spec.render(), &opts)
        .expect("harness-level failure")
        .expect("a fixpoint-free schedule must diverge on cache->memory feedback");
    assert!(matches!(verdict, Discrepancy::Trace { .. }));
    // And the same schedule is *correct* on a purely forward chain — the
    // mutation is subtle, not a universal crash.
    let fwd =
        difftest_source("chain.lss", &chain_spec().render(), &opts).expect("harness-level failure");
    assert!(
        fwd.is_none(),
        "forward chain should not distinguish forward-single-pass: {fwd:?}"
    );
}

#[test]
fn minimizer_shrinks_hand_built_finding_to_three_instances() {
    // Two parallel chains; only one participates in the reversed-schedule
    // divergence the mutation provokes, and the minimizer must throw the
    // other away entirely.
    let mut spec = chain_spec();
    let src2 = spec.inst("src2", "source");
    let lat = spec.inst("lat2", "latch");
    let snk2 = spec.inst("snk2", "sink");
    spec.connect(src2, "out", lat, "in");
    spec.connect(lat, "out", snk2, "in");
    spec.pins.push(Pin {
        inst: src2,
        port: "out",
        ty: "float",
    });
    let opts = DiffOptions {
        mutation: Mutation::ReversedSinglePass,
        ..DiffOptions::default()
    };
    let original = difftest_source("two-chains.lss", &spec.render(), &opts)
        .expect("harness-level failure")
        .expect("reversed schedule must diverge on a combinational chain");
    assert!(matches!(original, Discrepancy::Trace { .. }));
    let minimized = lss_verify::minimize(&spec, &original, &opts);
    assert!(
        minimized.spec.insts.len() <= 3,
        "expected <= 3 instances after ddmin, got {} ({:?})",
        minimized.spec.insts.len(),
        minimized.spec.insts
    );
}

/// True for the discrepancy classes a static-leaf bug can produce: the
/// mutated engine's state diverges from the reference, or it fails a cycle
/// the reference runs clean.
fn engine_side(d: &Discrepancy) -> bool {
    matches!(d.tag(), "trace" | "engine-error")
}

#[test]
fn stale_commit_kernel_mutation_is_caught_and_minimized() {
    // An injected direct-write fault in the engine (the last write of each
    // static leaf silently retracted) must surface against the reference
    // and shrink to a small repro, exactly like the reference-simulator
    // mutations.
    let out = std::env::temp_dir().join("lss-verify-kernel-mutation");
    let _ = std::fs::remove_dir_all(&out);
    let cfg = FuzzConfig {
        seed: 7,
        iters: 20,
        kernel_mutation: KernelMutation::StaleCommit,
        check_types: false,
        check_projects: false,
        out_dir: out.clone(),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, |_line| {});
    assert!(
        !report.findings.is_empty(),
        "the stale-commit kernel mutation went undetected over {} programs",
        report.iters
    );
    for finding in &report.findings {
        assert!(
            engine_side(&finding.discrepancy),
            "mutation misattributed: {}",
            finding.discrepancy
        );
        assert!(
            finding.minimized_insts <= 10,
            "kernel repro not minimal: {} instances (from {})",
            finding.minimized_insts,
            finding.original_insts
        );
        let path = finding.repro.as_ref().expect("repro file written");
        let text = std::fs::read_to_string(path).expect("repro readable");
        assert!(
            text.contains("instance"),
            "repro should be a runnable program"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn skip_barrier_kernel_mutation_is_caught() {
    // The second injected static-leaf bug: every static leaf's writes are
    // moved out of the arena and written back only after the settle pass, so any
    // *combinational* consumer (the tee here) reads an absent value while
    // the reference sees the real one. A pure delay chain cannot tell —
    // delays sample at end-of-timestep, after the late commit — which is
    // exactly why the repro needs the combinational hop.
    let opts = DiffOptions {
        kernel_mutation: KernelMutation::SkipBarrier,
        ..DiffOptions::default()
    };
    let verdict = difftest_source("chain.lss", &chain_spec().render(), &opts)
        .expect("harness-level failure")
        .expect("a skipped barrier must diverge across a combinational tee");
    assert!(
        engine_side(&verdict),
        "expected an engine-side discrepancy, got: {verdict}"
    );
    // And the minimizer preserves the finding class while shrinking.
    let minimized = lss_verify::minimize(&chain_spec(), &verdict, &opts);
    assert!(
        minimized.spec.insts.len() <= 3,
        "expected <= 3 instances after ddmin, got {}",
        minimized.spec.insts.len()
    );
    assert_eq!(minimized.discrepancy.tag(), verdict.tag());
}

#[test]
fn kernel_mutations_stay_off_the_dynamic_scheduler() {
    // Static leaves exist only in the static plan: the dynamic scheduler
    // evaluates every leaf from its worklist, so a static-leaf mutation
    // cannot reach it and the same chain diffs clean.
    for mutation in [KernelMutation::StaleCommit, KernelMutation::SkipBarrier] {
        let opts = DiffOptions {
            scheduler: Scheduler::Dynamic,
            kernel_mutation: mutation,
            ..DiffOptions::default()
        };
        let verdict = difftest_source("chain.lss", &chain_spec().render(), &opts)
            .expect("harness-level failure");
        assert!(verdict.is_none(), "{mutation:?}: {verdict:?}");
    }
}

#[test]
fn generated_netlists_roundtrip_through_binary() {
    for seed in [1u64, 2, 3, 4, 5] {
        let spec = generate(seed, &GenConfig::default());
        let (_driver, elab) = match lss_verify::compile_source("roundtrip.lss", &spec.render()) {
            Ok(pair) => pair,
            Err(e) => panic!("seed {seed} failed to compile: {e}"),
        };
        assert!(
            lss_verify::check_binary_roundtrip(&elab.netlist).is_none(),
            "seed {seed} netlist does not survive the netlist round-trip"
        );
    }
}
