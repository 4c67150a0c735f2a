//! Smoke tests driving the `lssc` binary end to end.

use std::path::PathBuf;
use std::process::Command;

/// A minimal model exercising the corelib: a counting source feeding a sink.
const MODEL: &str = r#"
instance gen:source;
instance hole:sink;
LSS_connect_bus(gen.out, hole.in, 2);
gen.out :: int;
"#;

fn write_model(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lssc-cli-{}-{name}.lss", std::process::id()));
    std::fs::write(&path, MODEL).expect("write temp model");
    path
}

fn lssc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lssc"));
    // Caching defaults to on; route the default directory into cargo's
    // temp area so tests never write inside the repo tree. Individual
    // tests override with --cache-dir / --no-cache.
    cmd.env(
        "LSS_CACHE_DIR",
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lssc-default-cache"),
    );
    cmd
}

/// A fresh, empty cache directory under cargo's temp area.
fn temp_cache(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lssc-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_with_stats_prints_engine_and_schedule_summary() {
    let model = write_model("stats");
    let out = lssc()
        .arg(&model)
        .args(["--run", "5", "--stats"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "lssc failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("simulated 5 cycles"),
        "missing run line:\n{stdout}"
    );
    // Table 2 reuse statistics still come out.
    assert!(
        stdout.contains("model"),
        "missing reuse stats row:\n{stdout}"
    );
    // The new engine-statistics block.
    assert!(
        stdout.contains("sim stats:"),
        "missing sim stats block:\n{stdout}"
    );
    assert!(
        stdout.contains("comp_evals"),
        "missing comp_evals:\n{stdout}"
    );
    assert!(
        stdout.contains("events_dispatched"),
        "missing events_dispatched:\n{stdout}"
    );
    // The plan shape: the sink registers its input, so both leaves share
    // one stage's static window; no combinational cycles.
    assert!(
        stdout.contains(
            "plan: 2 components in 1 stages, 2 static leaves, 0 combinational cycle blocks"
        ),
        "missing plan summary:\n{stdout}"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn engine_flag_is_gone() {
    // One static engine: `--engine` is no longer an option.
    let model = write_model("engine-flag");
    let out = lssc()
        .arg(&model)
        .args(["--run", "1", "--engine", "compiled"])
        .output()
        .expect("spawn lssc");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown option must be a usage error"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn threads_flag_is_gone() {
    // One single-threaded settle loop: `--threads` is no longer an option.
    let model = write_model("threads-flag");
    let out = lssc()
        .arg(&model)
        .args(["--run", "1", "--threads", "2"])
        .output()
        .expect("spawn lssc");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown option must be a usage error"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn batch_runs_one_lane_per_seed() {
    let out = lssc()
        .args(["--model", "C", "--no-cache", "--run", "100", "--batch", "3"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lssc failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout,
        "batch: 3 lane(s), 100 cycles each\n\
         \x20 lane 0 (seed 0): 2060 component evaluations, 1675 port firings\n\
         \x20 lane 1 (seed 1): 2060 component evaluations, 1675 port firings\n\
         \x20 lane 2 (seed 2): 2060 component evaluations, 1675 port firings\n"
    );
}

#[test]
fn print_keeps_non_ascii_string_bytes() {
    let model = write_source("utf8-print", "print(\"é☃\");\n");
    let out = lssc()
        .arg(&model)
        .arg("--no-cache")
        .output()
        .expect("spawn lssc");
    assert!(out.status.success());
    assert_eq!(out.stdout, "é☃\n".as_bytes());
    let _ = std::fs::remove_file(&model);
}

#[test]
fn stray_non_ascii_character_is_one_error() {
    let model = write_source("utf8-stray", "instance gen:source; ☃\n");
    let out = lssc()
        .arg(&model)
        .arg("--no-cache")
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.matches("error:").count(),
        1,
        "one error expected:\n{stderr}"
    );
    assert!(
        stderr.contains("unexpected character `☃`"),
        "the error names the character:\n{stderr}"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn run_without_stats_omits_engine_summary() {
    let model = write_model("nostats");
    let out = lssc()
        .arg(&model)
        .args(["--run", "3"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(
        stdout.contains("simulated 3 cycles"),
        "missing run line:\n{stdout}"
    );
    assert!(
        !stdout.contains("sim stats:"),
        "unexpected stats block:\n{stdout}"
    );
    let _ = std::fs::remove_file(&model);
}

/// Two combinational pass-throughs wired head-to-tail: an unbreakable
/// zero-delay cycle the analyzer must reject.
const CYCLIC_MODEL: &str = r#"
instance a:tee;
instance b:tee;
a.out -> b.in;
b.out -> a.in;
a.out :: int;
"#;

fn write_cyclic(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lssc-cli-{}-{name}.lss", std::process::id()));
    std::fs::write(&path, CYCLIC_MODEL).expect("write temp model");
    path
}

#[test]
fn check_reports_comb_cycle_and_exits_nonzero() {
    let model = write_cyclic("check-cycle");
    let out = lssc()
        .arg("check")
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1\n{stdout}{stderr}"
    );
    assert!(
        stdout.contains("error[LSS101]"),
        "missing LSS101 finding:\n{stdout}"
    );
    // The full port-level cycle path is spelled out.
    assert!(
        stdout.contains("a.in -> a.out -> b.in -> b.out -> a.in"),
        "missing cycle path:\n{stdout}"
    );
    assert!(
        stdout.contains("registering"),
        "missing fix suggestion:\n{stdout}"
    );
    assert!(stderr.contains("denied"), "missing summary:\n{stderr}");
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_allow_suppresses_the_denial() {
    let model = write_cyclic("check-allow");
    let out = lssc()
        .arg("check")
        .arg(&model)
        .args(["--allow", "LSS1xx", "--allow", "LSS203"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "expected clean exit:\n{stdout}");
    assert!(
        !stdout.contains("LSS101"),
        "allowed finding still reported:\n{stdout}"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_clean_model_exits_zero_and_deny_flips_it() {
    let model = write_model("check-clean");
    let out = lssc()
        .arg("check")
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean model rejected\nstdout: {stdout}\nstderr: {stderr}"
    );
    // The same model emits LSS301 width-mismatch infos by default; denying
    // the family must flip the exit code.
    let out = lssc()
        .arg("check")
        .arg(&model)
        .args(["--deny", "LSS3xx"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if stdout.contains("LSS3") {
        assert_eq!(
            out.status.code(),
            Some(1),
            "deny did not flip exit:\n{stdout}"
        );
    } else {
        // No LSS3xx findings on this model — deny of an absent family is a no-op.
        assert_eq!(out.status.code(), Some(0));
    }
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_table3_models_are_clean() {
    for model in ["A", "B", "C", "D", "E", "F"] {
        let out = lssc()
            .args(["check", "--model", model])
            .output()
            .expect("spawn lssc");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "model {model} not clean\nstdout: {stdout}\nstderr: {stderr}"
        );
    }
}

#[test]
fn check_json_and_sarif_formats_are_well_formed() {
    let model = write_cyclic("check-fmt");
    let out = lssc()
        .args(["check", "--format", "json"])
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.contains("\"code\": \"LSS101\"")),
        "missing LSS101 json line:\n{stdout}"
    );
    let out = lssc()
        .args(["check", "--format", "sarif"])
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"version\":\"2.1.0\"") || stdout.contains("\"version\": \"2.1.0\""),
        "missing sarif version:\n{stdout}"
    );
    assert!(
        stdout.contains("LSS101"),
        "missing LSS101 sarif result:\n{stdout}"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_list_codes_prints_catalog() {
    let out = lssc()
        .args(["check", "--list-codes"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    for code in ["LSS101", "LSS102", "LSS203", "LSS301", "LSS303"] {
        assert!(
            stdout.contains(code),
            "missing {code} in catalog:\n{stdout}"
        );
    }
}

#[test]
fn lint_exits_nonzero_on_denied_findings() {
    let model = write_cyclic("lint-cycle");
    let out = lssc()
        .arg(&model)
        .arg("--lint")
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--lint must fail on a comb cycle\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("LSS101"),
        "missing LSS101 in lint output:\n{stdout}"
    );
    let _ = std::fs::remove_file(&model);
}

#[test]
fn cache_cold_misses_warm_hits_and_no_cache_bypasses() {
    let model = write_model("cache-warm");
    let cache = temp_cache("warm");

    // Cold build populates the cache.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "cold build failed:\n{stdout}");
    assert!(
        stdout.contains("\"cache\": \"miss\""),
        "cold build must miss:\n{stdout}"
    );

    // Warm build hits and skips elaboration + inference entirely.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "warm build failed:\n{stdout}");
    assert!(
        stdout.contains("\"cache\": \"hit\""),
        "warm build must hit:\n{stdout}"
    );
    // Skipped stages are absent from the timings line, not zero.
    assert!(
        !stdout.contains("elaborate_ms") && !stdout.contains("infer_ms"),
        "a hit must not spend time elaborating or inferring:\n{stdout}"
    );

    // --no-cache bypasses even a populated cache.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--no-cache", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--no-cache build failed:\n{stdout}");
    assert!(
        stdout.contains("\"cache\": \"off\""),
        "--no-cache must disable the cache:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn truncated_cache_entry_triggers_rebuild_with_warning() {
    let model = write_model("cache-corrupt");
    let cache = temp_cache("corrupt");

    let out = lssc()
        .arg(&model)
        .args(["--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    assert!(out.status.success());

    // Truncate the whole-build entry the cold build wrote (solved-partition
    // memo entries carry a `p` prefix and are not the target here).
    let entry = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .find(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".bin") && !name.starts_with('p') && !name.starts_with('u')
        })
        .expect("cache entry written")
        .path();
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    // The corrupted entry warns, rebuilds from sources, and re-populates.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "rebuild failed:\n{stdout}{stderr}");
    assert!(
        stderr.contains("warning:") && stderr.contains("cache"),
        "missing corruption warning:\n{stderr}"
    );
    assert!(
        stdout.contains("\"cache\": \"miss\""),
        "corrupt entry must rebuild, not hit:\n{stdout}"
    );

    // The rebuild overwrote the entry: the next run hits cleanly.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"cache\": \"hit\""),
        "entry not repaired:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_findings_are_identical_on_a_cache_served_netlist() {
    let model = write_cyclic("check-cached");
    let cache = temp_cache("check");

    let cold = lssc()
        .arg("check")
        .arg(&model)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let warm = lssc()
        .arg("check")
        .arg(&model)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let cold_out = String::from_utf8_lossy(&cold.stdout);
    let warm_out = String::from_utf8_lossy(&warm.stdout);
    assert!(
        cold_out.contains("LSS101"),
        "cold check lost its findings:\n{cold_out}"
    );
    assert_eq!(
        cold_out, warm_out,
        "cache-served netlist changed the findings"
    );
    assert_eq!(cold.status.code(), warm.status.code());
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn build_compiles_batches_in_parallel_and_reports_per_file() {
    let files: Vec<PathBuf> = (0..3).map(|i| write_model(&format!("batch-{i}"))).collect();
    let cache = temp_cache("batch");

    let out = lssc()
        .arg("build")
        .args(["--jobs", "2", "--timings", "--cache-dir"])
        .arg(&cache)
        .args(&files)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "build failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    // One summary line per file, in input order.
    let summaries: Vec<&str> = stdout.lines().filter(|l| l.contains(": ok (")).collect();
    assert_eq!(summaries.len(), 3, "one summary per file:\n{stdout}");
    for (file, line) in files.iter().zip(&summaries) {
        assert!(
            line.starts_with(file.to_str().unwrap()),
            "out-of-order summary {line}:\n{stdout}"
        );
    }
    assert!(stderr.contains("3 file(s), 0 failed"), "{stderr}");

    // A second batch is fully warm: every file hits.
    let out = lssc()
        .arg("build")
        .args(["--jobs", "2", "--cache-dir"])
        .arg(&cache)
        .args(&files)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("cache hit").count(),
        3,
        "warm batch must hit for every file:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&cache);
    for file in &files {
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn build_exits_nonzero_when_any_file_fails() {
    let good = write_model("batch-good");
    let bad = std::env::temp_dir().join(format!("lssc-cli-{}-batch-bad.lss", std::process::id()));
    std::fs::write(&bad, "instance x:").unwrap();

    let out = lssc()
        .arg("build")
        .arg("--no-cache")
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stdout.contains(": ok ("),
        "good file must still compile:\n{stdout}"
    );
    assert!(
        stderr.contains("error in stage `parse`"),
        "missing staged error:\n{stderr}"
    );
    assert!(stderr.contains("1 failed"), "{stderr}");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn fuzz_smoke_run_is_clean() {
    let out_dir = temp_cache("fuzz-clean");
    let out = lssc()
        .args(["fuzz", "--seed", "1", "--iters", "10", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "fuzz found bugs?\n{stderr}");
    assert!(
        stderr.contains("0 finding(s)"),
        "missing clean summary:\n{stderr}"
    );
    // A clean run leaves no repro artifacts behind.
    let artifacts = std::fs::read_dir(&out_dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(artifacts, 0, "clean fuzz run wrote artifacts");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn fuzz_with_injected_mutation_finds_minimizes_and_exits_nonzero() {
    let out_dir = temp_cache("fuzz-mutate");
    let out = lssc()
        .args([
            "fuzz",
            "--seed",
            "7",
            "--iters",
            "15",
            "--sim-only",
            "--mutate",
            "reversed",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "mutated oracle must produce findings\n{stderr}"
    );
    assert!(stderr.contains("finding at iter"), "{stderr}");
    assert!(stderr.contains("repro:"), "missing repro path:\n{stderr}");
    // The repro file itself exists and is a replayable .lss program.
    let repro = std::fs::read_dir(&out_dir)
        .expect("out dir created")
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "lss"))
        .expect("repro artifact written")
        .path();
    let text = std::fs::read_to_string(&repro).unwrap();
    assert!(text.contains("instance"), "repro is not an LSS program");
    assert!(
        text.contains("lssc difftest"),
        "repro missing replay instructions"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn fuzz_rejects_bad_flags_with_usage() {
    for bad in [
        &["fuzz", "--bogus"][..],
        &["fuzz", "--seed"][..],
        &["fuzz", "--iters", "zero"][..],
        &["fuzz", "--types-only", "--sim-only"][..],
        &["fuzz", "--mutate", "nonsense"][..],
        &["fuzz", "some-file.lss"][..],
    ] {
        let out = lssc().args(bad).output().expect("spawn lssc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2:\n{stderr}");
        assert!(
            stderr.contains("usage") || stderr.contains("Usage") || !stderr.is_empty(),
            "{bad:?} produced no diagnostics"
        );
    }
}

#[test]
fn difftest_clean_file_exits_zero() {
    let model = write_model("difftest-ok");
    let out = lssc()
        .arg("difftest")
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("traces agree"), "{stdout}");
    assert!(stderr.contains("0 failed"), "{stderr}");
    let _ = std::fs::remove_file(&model);
}

#[test]
fn difftest_missing_file_exits_nonzero() {
    let out = lssc()
        .args(["difftest", "/nonexistent/nowhere.lss"])
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stderr.contains("1 failed"), "{stderr}");
}

#[test]
fn difftest_without_files_exits_with_usage() {
    let out = lssc().arg("difftest").output().expect("spawn lssc");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn difftest_reports_compile_failure_per_file() {
    let good = write_model("difftest-good");
    let bad =
        std::env::temp_dir().join(format!("lssc-cli-{}-difftest-bad.lss", std::process::id()));
    std::fs::write(&bad, "instance broken:").unwrap();
    let out = lssc()
        .arg("difftest")
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stdout.contains("traces agree"),
        "good file must still pass:\n{stdout}"
    );
    assert!(
        stderr.contains("compile") || stderr.contains("error"),
        "missing compile diagnostic:\n{stderr}"
    );
    assert!(stderr.contains("2 file(s), 1 failed"), "{stderr}");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn difftest_with_mutation_flags_divergence_on_feedback_model() {
    // The cache -> memory feedback model needs fixpoint iteration; a
    // single forward pass diverges, and difftest must say so.
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/cache_feedback.lss"
    ));
    let out = lssc()
        .args(["difftest", "--mutate", "single-pass"])
        .arg(&path)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "mutated replay must diverge:\n{stderr}"
    );
    assert!(stderr.contains("1 failed"), "{stderr}");
}

#[test]
fn explicit_cache_dir_at_a_file_is_rejected() {
    let model = write_model("cache-at-file");
    let blocker =
        std::env::temp_dir().join(format!("lssc-cli-{}-cache-blocker", std::process::id()));
    std::fs::write(&blocker, "not a directory").unwrap();

    // All three entry points that accept --cache-dir must refuse it.
    for sub in [None, Some("check"), Some("build")] {
        let mut cmd = lssc();
        if let Some(sub) = sub {
            cmd.arg(sub);
        }
        let out = cmd
            .arg(&model)
            .arg("--cache-dir")
            .arg(&blocker)
            .output()
            .expect("spawn lssc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{sub:?} accepted a file as cache dir:\n{stderr}"
        );
        assert!(
            stderr.contains("not a directory"),
            "{sub:?} missing diagnostic:\n{stderr}"
        );
    }
    let _ = std::fs::remove_file(&blocker);
    let _ = std::fs::remove_file(&model);
}

// ---------------------------------------------------------------------------
// Exit-code contract (docs/ROBUSTNESS.md): 0 ok, 1 findings/compile error,
// 2 usage, 3 budget exhausted, 4 internal compiler error.
// ---------------------------------------------------------------------------

/// A module that instantiates itself: elaboration recurses until the
/// depth cap (LSS404) trips. The default cap must stop it promptly.
const SELF_INSTANTIATING: &str = "module m { instance child:m; };\ninstance root:m;\n";

/// An unbounded elaboration loop: only the wall-clock deadline (LSS401)
/// can stop it.
const SPIN: &str = "var i = 0;\nwhile (true) { i = i + 1; }\n";

fn write_source(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lssc-cli-{}-{name}.lss", std::process::id()));
    std::fs::write(&path, text).expect("write temp source");
    path
}

#[test]
fn exit_contract_clean_build_is_exit_0_and_compile_error_is_exit_1() {
    let good = write_model("exit-ok");
    let out = lssc().arg("--no-cache").arg(&good).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));

    let bad = write_source("exit-parse", "instance x:");
    let out = lssc().arg("--no-cache").arg(&bad).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error"), "{stderr}");
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn exit_contract_usage_errors_are_exit_2() {
    for bad in [
        &["--definitely-not-a-flag"][..],
        &["--deadline-ms"][..],
        &["--deadline-ms", "soon"][..],
        &["--max-depth", "-3"][..],
        &["build", "--max-steps", "many"][..],
        &["check", "--max-instances"][..],
    ] {
        let out = lssc().args(bad).output().expect("spawn lssc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}:\n{stderr}");
        assert!(
            stderr.contains("usage:"),
            "{bad:?} missing usage:\n{stderr}"
        );
    }
}

#[test]
fn exit_contract_depth_exhaustion_is_exit_3_with_lss404() {
    let model = write_source("exit-depth", SELF_INSTANTIATING);
    let start = std::time::Instant::now();
    let out = lssc()
        .args(["--no-cache"])
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "self-instantiation must be stopped promptly"
    );
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("LSS404"), "{stderr}");
    assert!(
        stderr.contains("--max-depth"),
        "missing raise-the-limit hint:\n{stderr}"
    );
    // The diagnostic points at real source, not a synthetic span.
    assert!(stderr.contains("exit-depth"), "missing span:\n{stderr}");
    let _ = std::fs::remove_file(&model);
}

#[test]
fn exit_contract_deadline_exhaustion_is_exit_3_with_lss401() {
    let model = write_source("exit-deadline", SPIN);
    let out = lssc()
        .args(["--no-cache", "--deadline-ms", "100"])
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("LSS401"), "{stderr}");
    let _ = std::fs::remove_file(&model);
}

#[test]
fn exit_contract_step_budget_applies_to_check_and_build() {
    let model = write_source("exit-steps", SPIN);
    let out = lssc()
        .args(["check", "--max-steps", "10000"])
        .arg(&model)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "check:\n{stderr}");
    assert!(stderr.contains("LSS402"), "check:\n{stderr}");

    // In a batch, budget exhaustion (3) outranks a plain failure (1).
    let bad = write_source("exit-steps-bad", "instance x:");
    let out = lssc()
        .args(["build", "--no-cache", "--max-steps", "10000"])
        .arg(&model)
        .arg(&bad)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "build:\n{stderr}");
    assert!(stderr.contains("LSS402"), "build:\n{stderr}");
    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn exit_contract_ice_is_exit_4_with_replayable_report() {
    let model = write_model("exit-ice");
    let ice_dir = temp_cache("ice");
    let out = lssc()
        .arg(&model)
        .env("LSS_TEST_ICE", "1")
        .env("LSS_ICE_DIR", &ice_dir)
        .output()
        .expect("spawn lssc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("internal compiler error"),
        "missing ICE banner:\n{stderr}"
    );
    assert!(
        stderr.contains("crash report"),
        "missing report pointer:\n{stderr}"
    );
    // The report replays: command line, panic message, and inline sources.
    let report = std::fs::read_dir(&ice_dir)
        .expect("ice dir created")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("ice-"))
        .expect("crash report written")
        .path();
    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.contains("command:"), "missing argv:\n{text}");
    assert!(
        text.contains("deliberate internal error"),
        "missing panic message:\n{text}"
    );
    assert!(
        text.contains("instance gen:source"),
        "missing inline source snapshot:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&ice_dir);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn adversarial_fuzz_smoke_is_clean_and_counts_iters() {
    let out_dir = temp_cache("fuzz-adversarial");
    let out = lssc()
        .args([
            "fuzz",
            "--adversarial",
            "--seed",
            "1",
            "--iters",
            "40",
            "--deadline-ms",
            "1500",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "adversarial run found violations\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("40 hostile input(s)"),
        "missing summary:\n{stderr}"
    );
    assert!(
        stderr.contains("0 contract violation(s)"),
        "missing clean verdict:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn injected_cache_faults_degrade_warm_builds_without_changing_output() {
    let model = write_model("cache-fault");
    let cache = temp_cache("fault");

    // Populate the cache, then replay under an injected read fault: the
    // build must still succeed as a cold rebuild (miss), not fail.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    assert!(out.status.success());

    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .env("LSS_CACHE_FAULT", "read-error")
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "faulted build failed:\n{stderr}");
    assert!(
        stdout.contains("\"cache\": \"miss\""),
        "read fault must degrade to a cold rebuild:\n{stdout}"
    );
    assert!(
        stderr.contains("warning:"),
        "fault must be surfaced as a warning:\n{stderr}"
    );

    // With the fault gone the repaired entry hits again.
    let out = lssc()
        .arg(&model)
        .args(["--timings", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"cache\": \"hit\""),
        "entry not hit after fault cleared:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn run_model_with_stats_prints_engine_counters() {
    let out = lssc()
        .args(["--model", "A", "--run-model", "--stats"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "lssc failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("CPI"), "missing CPI line:\n{stdout}");
    assert!(
        stdout.contains("sim stats:"),
        "missing sim stats block:\n{stdout}"
    );
    assert!(
        stdout.contains("comp_evals"),
        "missing comp_evals:\n{stdout}"
    );
}

#[test]
fn run_model_stats_print_the_same_plan_as_run() {
    let plan_line = |args: &[&str]| -> String {
        let out = lssc()
            .args(["--model", "C", "--stats"])
            .args(args)
            .output()
            .expect("spawn lssc");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "lssc {args:?} failed\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let plans: Vec<&str> = stdout.lines().filter(|l| l.starts_with("plan: ")).collect();
        assert_eq!(plans.len(), 1, "expected one plan line:\n{stdout}");
        plans[0].to_string()
    };
    assert_eq!(plan_line(&["--run-model"]), plan_line(&["--run", "1"]));
}

/// A three-file project in its own temp directory: producer and consumer
/// modules linked by a cross-file connection in the root.
fn write_project(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lssc-project-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create project dir");
    std::fs::write(
        dir.join("producer.lss"),
        "instance gen:source;\ngen.out :: int;\n",
    )
    .unwrap();
    std::fs::write(dir.join("consumer.lss"), "instance hole:sink;\n").unwrap();
    std::fs::write(
        dir.join("top.lss"),
        "import \"producer.lss\";\nimport \"consumer.lss\";\n\ngen.out -> hole.in;\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("lss.toml"),
        "[project]\nname = \"demo\"\nroot = \"top.lss\"\n",
    )
    .unwrap();
    dir
}

#[test]
fn build_accepts_project_roots_and_reports_per_module_cache_outcomes() {
    let dir = write_project("incremental");
    let cache = temp_cache("project");

    let build = |target: &PathBuf| {
        lssc()
            .arg("build")
            .args(["--timings", "--cache-dir"])
            .arg(&cache)
            .arg(target)
            .output()
            .expect("spawn lssc")
    };

    // Cold: every module misses.
    let root = dir.join("top.lss");
    let out = build(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "cold project build failed:\n{stdout}");
    assert!(stdout.contains("\"cache\": \"miss\""), "{stdout}");
    assert_eq!(
        stdout.matches("\"cache\": \"miss\"}").count(),
        3,
        "{stdout}"
    );

    // Touch one module: only it and its importer re-elaborate; the
    // sibling replays from its per-unit cache entry.
    std::fs::write(
        dir.join("consumer.lss"),
        "// touched\ninstance hole:sink;\n",
    )
    .unwrap();
    let out = build(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rebuild failed:\n{stdout}");
    assert!(
        stdout.contains("producer.lss\", \"cache\": \"hit\""),
        "untouched module must replay from cache:\n{stdout}"
    );
    assert!(
        stdout.contains("consumer.lss\", \"cache\": \"miss\""),
        "touched module must re-elaborate:\n{stdout}"
    );
    assert!(
        stdout.contains("top.lss\", \"cache\": \"miss\""),
        "importer of the touched module must re-elaborate:\n{stdout}"
    );

    // A directory with an lss.toml resolves to the same project.
    let out = build(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "manifest build failed:\n{stdout}");
    assert!(stdout.contains(": ok (2 instances"), "{stdout}");

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emit_netlist_bin_round_trips_byte_identically() {
    let model = write_model("emit-bin");
    let out_a = std::env::temp_dir().join(format!("lssc-emit-{}-a.bin", std::process::id()));
    let out_b = std::env::temp_dir().join(format!("lssc-emit-{}-b.bin", std::process::id()));

    for out_path in [&out_a, &out_b] {
        let out = lssc()
            .arg(&model)
            .args(["--no-cache", "--emit", "netlist-bin", "--output"])
            .arg(out_path)
            .output()
            .expect("spawn lssc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "emit failed:\n{stderr}");
        assert!(stderr.contains("wrote "), "{stderr}");
    }
    let a = std::fs::read(&out_a).unwrap();
    let b = std::fs::read(&out_b).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "binary netlist emission must be deterministic");

    // And the JSON emitter still prints to stdout.
    let out = lssc()
        .arg(&model)
        .args(["--no-cache", "--emit", "netlist-json"])
        .output()
        .expect("spawn lssc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("\"instances\""), "{stdout}");

    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_b);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn check_accepts_project_roots_and_matches_lint() {
    let dir = write_project("check-root");
    // The example project has findings, so the comparison is not vacuous.
    let example = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/lss/model_a");
    for root in [&dir, &example] {
        let check = lssc()
            .args(["check", "--no-cache"])
            .arg(root)
            .output()
            .expect("spawn lssc");
        let stderr = String::from_utf8_lossy(&check.stderr);
        assert_eq!(check.status.code(), Some(0), "{root:?}:\n{stderr}");
        assert!(stderr.contains("finding(s)"), "{stderr}");

        let lint = lssc()
            .args(["--no-cache", "--lint"])
            .arg(root)
            .output()
            .expect("spawn lssc");
        assert_eq!(lint.status.code(), Some(0));
        let linted = String::from_utf8_lossy(&lint.stdout);
        let expected = if linted == "lint: clean\n" {
            ""
        } else {
            &*linted
        };
        assert_eq!(String::from_utf8_lossy(&check.stdout), expected, "{root:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lssc client ... compile` and one-shot `lssc` map the same outcome to
/// the same exit code (docs/SERVICE.md).
#[test]
fn client_and_one_shot_exit_codes_agree() {
    let server = lssd::Server::bind(lssd::ServerConfig::default()).expect("bind lssd");
    let addr = server.tcp_addr().expect("tcp address").to_string();
    let drain = server.drain_handle();
    let serving = std::thread::spawn(move || server.run());

    let clean = write_model("parity-ok");
    let broken = write_source("parity-parse", "instance x:");
    let recursive = write_source("parity-depth", SELF_INSTANTIATING);
    let cases: [(&str, &[&str], Option<&PathBuf>, i32); 4] = [
        ("clean source", &[], Some(&clean), 0),
        ("compile error", &[], Some(&broken), 1),
        ("unknown model", &["--model", "Z"], None, 2),
        ("depth budget", &["--max-depth", "8"], Some(&recursive), 3),
    ];
    for (case, flags, file, expected) in cases {
        let one_shot = lssc()
            .arg("--no-cache")
            .args(flags)
            .args(file)
            .output()
            .expect("spawn lssc");
        let client = lssc()
            .args(["client", "--tcp", &addr])
            .args(flags)
            .arg("compile")
            .args(file)
            .output()
            .expect("spawn lssc client");
        assert_eq!(
            one_shot.status.code(),
            Some(expected),
            "{case}, one-shot:\n{}",
            String::from_utf8_lossy(&one_shot.stderr)
        );
        assert_eq!(
            client.status.code(),
            Some(expected),
            "{case}, client:\n{}",
            String::from_utf8_lossy(&client.stderr)
        );
    }

    drain.drain();
    serving.join().expect("server thread").expect("server run");
    for file in [&clean, &broken, &recursive] {
        let _ = std::fs::remove_file(file);
    }
}
