//! `lssc` — the LSS compiler and simulator driver.
//!
//! ```text
//! lssc [OPTIONS] FILE.lss...
//! lssc build [OPTIONS] FILE.lss...
//! lssc check [OPTIONS] FILE.lss...
//! lssc fuzz [OPTIONS]
//! lssc difftest [OPTIONS] FILE.lss...
//!
//! build options:
//!   --jobs N           compile up to N files in parallel (default: the
//!                      number of available cores)
//!   --lib FILE         add FILE as a library source to every file's build
//!   --no-corelib       do not preload the corelib
//!   --timings          print one JSON line of per-stage timings per file
//!   --no-cache         bypass the netlist cache
//!   --cache-dir DIR    cache location (default: $LSS_CACHE_DIR, else
//!                      target/lss-cache)
//!   --naive-inference  solve types without the paper's heuristics
//!
//! `build` compiles each FILE as an independent session (libraries are
//! shared), prints one summary line per file in input order, and exits 1
//! if any file fails. Warm builds replay the elaborated netlist from the
//! content-addressed cache without re-running elaboration or inference.
//!
//! check options:
//!   --model A..F       analyze a built-in Table 3 model instead of files
//!   --lib FILE         add FILE as a library source
//!   --no-corelib       do not preload the corelib
//!   --format FMT       text (default), json (one object per line), or sarif
//!   --deny SEL         also fail on SEL (a code like LSS203 or a family
//!                      like LSS2xx); repeatable
//!   --allow SEL        suppress SEL entirely; repeatable, beats --deny
//!   --output FILE      write the report to FILE instead of stdout
//!   --list-codes       print the diagnostic catalog and exit
//!   --no-cache / --cache-dir DIR   as for build
//!   --naive-inference  solve types without the paper's heuristics
//!
//! `check` exits 1 when any finding is denied (on the deny list or
//! `Error`-severity and not allowed), 0 otherwise.
//!
//! fuzz options:
//!   --seed N           master seed for the run (default 1)
//!   --iters N          number of generated programs (default 100)
//!   --max-insts N      instance budget per generated program (default 12)
//!   --cycles N         max stimulus length per program (default 8)
//!   --out DIR          where minimized repros go (default target/verify)
//!   --types-only       run only the exhaustive type-solver oracle
//!   --sim-only         run only the reference-simulator oracle
//!   --adversarial      crash-fuzz with hostile inputs (mutated bytes,
//!                      shuffled tokens, malformed programs) instead of
//!                      the semantic oracles; checks that the compiler
//!                      never panics, terminates within --deadline-ms
//!                      (default 2000), and locates every parse error
//!   --protocols        plant protocol bugs (credit over-issue, role
//!                      flips, deadlocking custom automata) and check
//!                      that the LSS105/LSS107 static pass and the
//!                      runtime protocol monitor agree on every program
//!   --mutate M         inject a known bug for exercising the harness,
//!                      not for real verification: `reversed` and
//!                      `single-pass` break the reference scheduler;
//!                      `stale-commit` and `skip-barrier` inject
//!                      direct-write faults into the engine's stage
//!                      windows
//!
//! `fuzz` generates random well-formed programs, checks the heuristic type
//! solver against exhaustive disjunct enumeration and the engine against a
//! naive fixpoint reference, minimizes any discrepancy with delta
//! debugging, writes the repro under --out, and exits 1.
//!
//! difftest options:
//!   --cycles N         cycles to run the simulators (default 16)
//!   --mutate M         as for fuzz
//!
//! `difftest` replays .lss files (e.g. the checked-in corpus under
//! tests/corpus/) through the same compile + simulate + compare pipeline —
//! engine vs naive reference — and exits 1 on the first discrepancy.
//!
//! Options:
//!   --lib FILE         add FILE as a library source (counts as "from library")
//!   --no-corelib       do not preload the corelib
//!   --model A..F       compile one of the built-in Table 3 models instead of files
//!   --run N            simulate N cycles after compiling
//!   --run-model        run a built-in model to completion and report CPI
//!   --scheduler S      static (default) or dynamic: static executes the
//!                      staged plan, each acyclic leaf once per cycle,
//!                      writing straight into the flat state arena;
//!                      dynamic is the worklist baseline
//!   --batch N          with --run: simulate the netlist N times, seeded
//!                      0..N-1, and print per-lane summaries (lane k is
//!                      the run with seed k; tests/golden_batch.rs pins
//!                      the seeded traces)
//!   --emit-lss         pretty-print the parsed sources in canonical form
//!   --dump-tree        print the instance hierarchy
//!   --dump-dot         print the flattened wire graph as GraphViz dot
//!   --dump-json        print the netlist as JSON
//!   --watch PREFIX     log every value fired by instances under PREFIX
//!   --vcd FILE         write the watched firings as a VCD waveform
//!   --wave             print the watched firings as an ASCII waveform
//!   --lint             run the static analysis passes and print findings;
//!                      exits 1 if any finding is denied (same gate as
//!                      `lssc check`)
//!   --stats            print Table 2 reuse statistics; after --run or
//!                      --run-model, also engine statistics, and after
//!                      --run the static plan's shape
//!   --timings          print one JSON line of per-stage timings
//!   --no-cache / --cache-dir DIR   as for build
//!   --naive-inference  solve types without the paper's heuristics
//!
//! Resource-budget options (accepted by the default command, `build`, and
//! `check`; each maps to one `LSS4xx` diagnostic, see docs/ROBUSTNESS.md):
//!   --deadline-ms N    wall-clock budget for the whole compile (LSS401)
//!   --max-steps N      elaboration statement fuel (LSS402)
//!   --max-instances N  instance cap (LSS403)
//!   --max-depth N      module-instantiation depth cap (LSS404)
//!   --solver-steps N   type-inference unification-step cap (LSS405)
//!   --expansion-cap N  disjunct-combination cap per scheme (LSS406)
//!   --max-netlist N    elaborated netlist size cap (LSS407)
//!
//! Exit codes: 0 success, 1 findings or compile error, 2 usage error,
//! 3 resource budget exhausted (an `LSS4xx` diagnostic was emitted),
//! 4 internal compiler error (a crash report lands under `target/ice/`).
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use liberty::{AnalysisConfig, Driver, Scheduler, StageTimings};
use lss_analyze::{to_jsonl, to_sarif_located, to_text_located, Code};
use lss_netlist::{dump, reuse_stats};
use lssd::session::resolve_cache_dir;
use lssd::{Quota, Spec, Status};

/// Renders the engine counters and the static plan's shape after a run.
fn print_sim_stats(sim: &liberty::Simulator) {
    let stats = sim.stats();
    println!("sim stats:");
    println!("  cycles             {}", stats.cycles);
    println!("  comp_evals         {}", stats.comp_evals);
    println!("  events_dispatched  {}", stats.events_dispatched);
    println!("  port_firings       {}", stats.port_firings);
    let stages = sim.plan_stages();
    let blocks = stages.iter().flatten().filter(|u| u.1).count();
    println!(
        "plan: {} components in {} stages, {} static leaves, {blocks} combinational cycle blocks",
        sim.component_count(),
        stages.len(),
        sim.static_leaf_count(),
    );
}

/// The session flags every compiling subcommand accepts: `--lib`,
/// `--no-corelib`, `--naive-inference`, the cache flags and the budget
/// flags. [`SessionArgs::spec`] turns them into the shared [`Spec`].
#[derive(Default)]
struct SessionArgs {
    spec: Spec,
    libs: Vec<String>,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
}

impl SessionArgs {
    /// Consumes `arg` (and its value from `args`) if it is a session
    /// flag; returns `false` for anything else, leaving `args` untouched.
    fn parse(&mut self, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--lib" => self.libs.push(args.next().unwrap_or_else(|| usage())),
            "--no-corelib" => self.spec.corelib = false,
            "--naive-inference" => self.spec.naive = true,
            "--no-cache" => self.no_cache = true,
            "--cache-dir" => self.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into()),
            _ => return quota_flag(&mut self.spec.quota, arg, args),
        }
        true
    }

    /// The spec with its cache directory resolved (an explicit
    /// `--cache-dir` naming a file is a usage error) and its libraries
    /// read.
    fn spec(self) -> Result<Spec, ExitCode> {
        let mut spec = self.spec;
        spec.cache_dir = resolve_cache_dir(self.no_cache, self.cache_dir)
            .map_err(|e| fail(Status::BadRequest, e))?;
        spec.libs = read_units(&self.libs).map_err(|e| fail(Status::Error, e))?;
        Ok(spec)
    }
}

/// [`Quota::parse_flag`] with a bad value as a usage error.
fn quota_flag(quota: &mut Quota, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
    quota.parse_flag(arg, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// Reads each named file as a `(name, text)` unit.
fn read_units(names: &[String]) -> Result<Vec<(String, String)>, String> {
    names
        .iter()
        .map(|name| match std::fs::read_to_string(name) {
            Ok(text) => Ok((name.clone(), text)),
            Err(e) => Err(format!("cannot read {name}: {e}")),
        })
        .collect()
}

/// Reports a failure on stderr and returns its exit code.
fn fail(status: Status, message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    status.into()
}

/// One `--timings` JSON line: cache outcome plus per-stage milliseconds.
/// Stages that never ran (a cache hit skips elaborate/infer entirely) are
/// absent from the line, not reported as zero. Multi-file projects add a
/// `modules` array with each unit's own cache outcome, so incremental
/// rebuilds can be asserted from the outside.
fn timings_json(
    file: &str,
    cache: &str,
    timings: &StageTimings,
    modules: &[lss_driver::ModuleBuild],
) -> String {
    let mut line = format!(
        "{{\"file\": \"{}\", \"cache\": \"{cache}\"",
        lss_netlist::json::escape(file)
    );
    for (stage, duration) in timings.stages() {
        if duration.is_zero() {
            continue;
        }
        line.push_str(&format!(
            ", \"{stage}_ms\": {:.3}",
            duration.as_secs_f64() * 1e3
        ));
    }
    if !modules.is_empty() {
        let entries: Vec<String> = modules
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"cache\": \"{}\"}}",
                    lss_netlist::json::escape(&m.name),
                    m.outcome.name()
                )
            })
            .collect();
        line.push_str(&format!(", \"modules\": [{}]", entries.join(", ")));
    }
    line.push_str(&format!(
        ", \"total_ms\": {:.3}}}",
        timings.total().as_secs_f64() * 1e3
    ));
    line
}

/// Prints non-fatal driver notices (cache fallbacks) to stderr.
fn print_warnings(driver: &Driver) {
    for warning in driver.warnings() {
        eprintln!("warning: {warning}");
    }
}

struct Options {
    files: Vec<String>,
    session: SessionArgs,
    run: Option<u64>,
    run_model: bool,
    scheduler: Scheduler,
    /// `--batch N`: one run per seed `0..N-1` (requires `--run`).
    batch: Option<usize>,
    emit_lss: bool,
    dump_tree: bool,
    dump_dot: bool,
    dump_json: bool,
    /// `--emit netlist-bin|netlist-json`: persist the compiled netlist.
    emit: Option<EmitKind>,
    /// `--output FILE` for `--emit` (required for the binary format).
    output: Option<String>,
    stats: bool,
    lint: bool,
    timings: bool,
    watch: Vec<String>,
    vcd: Option<String>,
    wave: bool,
}

/// Netlist serialization formats reachable from `--emit`.
#[derive(Clone, Copy, PartialEq)]
enum EmitKind {
    /// The compact binary format (`lss_netlist::to_binary`).
    NetlistBin,
    /// The diff-friendly JSON format (`lss_netlist::to_json`).
    NetlistJson,
}

fn usage() -> ! {
    eprintln!(
        "usage: lssc [--lib FILE]... [--no-corelib] [--model A-F] [--run N] [--run-model]\n\
         \x20           [--scheduler static|dynamic] [--batch N]\n\
         \x20           [--dump-tree] [--dump-dot] [--stats]\n\
         \x20           [--emit netlist-bin|netlist-json] [--output FILE]\n\
         \x20           [--timings] [--no-cache] [--cache-dir DIR]\n\
         \x20           [--naive-inference] [BUDGET-FLAGS] TARGET...\n\
         \x20           (TARGET: FILE.lss, a project root file whose imports are\n\
         \x20            loaded with it, a directory with lss.toml, or the manifest)\n\
         \x20      lssc build [--jobs N] [--lib FILE]... [--no-corelib] [--timings]\n\
         \x20           [--no-cache] [--cache-dir DIR] [--naive-inference]\n\
         \x20           [BUDGET-FLAGS] FILE.lss...\n\
         \x20      lssc check [--lib FILE]... [--no-corelib] [--model A-F]\n\
         \x20           [--format text|json|sarif] [--deny SEL]... [--allow SEL]...\n\
         \x20           [--no-cache] [--cache-dir DIR] [--output FILE] [--list-codes]\n\
         \x20           [--naive-inference] [BUDGET-FLAGS] FILE.lss...\n\
         \x20      lssc fuzz [--seed N] [--iters N] [--max-insts N] [--cycles N]\n\
         \x20           [--out DIR] [--types-only | --sim-only] [--adversarial]\n\
         \x20           [--protocols]\n\
         \x20           [--deadline-ms N]\n\
         \x20           [--mutate reversed|single-pass|stale-commit|skip-barrier]\n\
         \x20      lssc difftest [--cycles N]\n\
         \x20           [--mutate reversed|single-pass|stale-commit|skip-barrier]\n\
         \x20           FILE.lss...\n\
         \x20      lssc client (--connect SOCKET | --tcp ADDR) [--model A-F]\n\
         \x20           [--lib FILE]... [--cycles N] [--no-retry] [BUDGET-FLAGS]\n\
         \x20           VERB [FILE.lss...]\n\
         \x20           (VERB: ping, stats, shutdown, compile, check, simulate,\n\
         \x20            difftest, chaos FAULT; talks to a running lssd)\n\
         BUDGET-FLAGS: [--deadline-ms N] [--max-steps N] [--max-instances N]\n\
         \x20           [--max-depth N] [--solver-steps N] [--expansion-cap N]\n\
         \x20           [--max-netlist N] [--max-cycles N]\n\
         exit codes: 0 ok, 1 findings/compile error, 2 usage,\n\
         \x20           3 resource budget exhausted, 4 internal compiler error"
    );
    std::process::exit(Status::BadRequest.exit_code().into());
}

/// Output format for `lssc check`.
enum CheckFormat {
    Text,
    Json,
    Sarif,
}

struct CheckOptions {
    files: Vec<String>,
    session: SessionArgs,
    format: CheckFormat,
    config: AnalysisConfig,
    output: Option<String>,
}

/// Expands a `--deny` / `--allow` selector, exiting with usage on nonsense.
fn parse_selector(flag: &str, arg: Option<String>) -> Vec<Code> {
    let Some(sel) = arg else {
        eprintln!("{flag} needs a code (LSS102) or family (LSS1xx)");
        usage();
    };
    match Code::parse_selector(&sel) {
        Some(codes) => codes,
        None => {
            eprintln!("unknown code selector `{sel}` (try --list-codes)");
            usage();
        }
    }
}

fn list_codes() {
    println!("{:<8} {:<9} {:<26} description", "code", "severity", "name");
    for code in Code::ALL {
        println!(
            "{:<8} {:<9} {:<26} {}",
            code.id(),
            code.default_severity(),
            code.name(),
            code.title()
        );
    }
}

fn parse_check_args(args: impl Iterator<Item = String>) -> CheckOptions {
    let mut opts = CheckOptions {
        files: Vec::new(),
        session: SessionArgs::default(),
        format: CheckFormat::Text,
        config: AnalysisConfig::default(),
        output: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => match args.next().and_then(|m| m.chars().next()) {
                Some(c) => opts.session.spec.model = Some(c),
                None => usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = CheckFormat::Text,
                Some("json") => opts.format = CheckFormat::Json,
                Some("sarif") => opts.format = CheckFormat::Sarif,
                _ => usage(),
            },
            "--deny" => {
                let codes = parse_selector("--deny", args.next());
                opts.config = std::mem::take(&mut opts.config).deny(codes);
            }
            "--allow" => {
                let codes = parse_selector("--allow", args.next());
                opts.config = std::mem::take(&mut opts.config).allow(codes);
            }
            "--output" => match args.next() {
                Some(f) => opts.output = Some(f),
                None => usage(),
            },
            "--list-codes" => {
                list_codes();
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other if opts.session.parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() && opts.session.spec.model.is_none() {
        usage();
    }
    opts
}

/// The `lssc check` subcommand: compile, run the pass suite, render, gate.
fn run_check(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_check_args(args);
    let mut spec = match opts.session.spec() {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    spec.roots = opts.files.iter().map(PathBuf::from).collect();
    let mut driver = match spec.driver() {
        Ok(driver) => driver,
        Err((status, e)) => return fail(status, e),
    };
    let analyzed = match driver.analyze(&opts.config) {
        Ok(a) => a,
        Err(e) => return fail(Status::of(&e), e),
    };
    print_warnings(&driver);

    let analysis = &analyzed.analysis;
    let report = match opts.format {
        CheckFormat::Text => to_text_located(&analysis.findings, Some(driver.sources())),
        CheckFormat::Json => to_jsonl(&analysis.findings),
        CheckFormat::Sarif => to_sarif_located(&analysis.findings, Some(driver.sources())),
    };
    match &opts.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                return fail(Status::Error, format_args!("cannot write {path}: {e}"));
            }
        }
        None => print!("{report}"),
    }
    let (errors, warnings, infos) = analysis.counts();
    eprintln!(
        "check: {} finding(s) ({errors} error(s), {warnings} warning(s), {infos} info(s)), \
         {} denied",
        analysis.findings.len(),
        analysis.denied
    );
    if analysis.denied > 0 {
        Status::Error.into()
    } else {
        ExitCode::SUCCESS
    }
}

struct BuildOptions {
    files: Vec<String>,
    session: SessionArgs,
    jobs: usize,
    timings: bool,
}

fn parse_build_args(args: impl Iterator<Item = String>) -> BuildOptions {
    let mut opts = BuildOptions {
        files: Vec::new(),
        session: SessionArgs::default(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timings: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.jobs = n,
                _ => usage(),
            },
            "--timings" => opts.timings = true,
            "--help" | "-h" => usage(),
            other if opts.session.parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        usage();
    }
    opts
}

/// Per-file result of a batch build, reassembled in input order.
struct BuildReport {
    /// The summary line, or the failure's status and message.
    summary: Result<String, (Status, String)>,
    timings: Option<String>,
    warnings: Vec<String>,
}

/// Compiles one build target — a single `.lss` file, a project root whose
/// `import` closure is loaded with it, a directory holding an `lss.toml`,
/// or the manifest itself — in its own driver session.
fn build_one(file: &str, spec: &Spec, timings: bool) -> BuildReport {
    let mut spec = spec.clone();
    spec.roots = vec![file.into()];
    let mut driver = match spec.driver() {
        Ok(driver) => driver,
        Err(failure) => {
            return BuildReport {
                summary: Err(failure),
                timings: None,
                warnings: Vec::new(),
            }
        }
    };
    let (summary, cache_name, modules) = match driver.elaborate() {
        Ok(elaborated) => (
            Ok(format!(
                "{file}: ok ({} instances, {} connections, cache {})",
                elaborated.netlist.instances.len(),
                elaborated.netlist.connections.len(),
                elaborated.cache.name()
            )),
            elaborated.cache.name(),
            elaborated.modules.clone(),
        ),
        Err(e) => (
            Err((
                Status::of(&e),
                format!("{file}: error in stage `{}`\n{e}", e.stage),
            )),
            "none",
            Vec::new(),
        ),
    };
    BuildReport {
        summary,
        timings: timings.then(|| timings_json(file, cache_name, driver.timings(), &modules)),
        warnings: driver.warnings().to_vec(),
    }
}

/// The `lssc build` subcommand: batch-compile files over a thread pool.
fn run_build(args: impl Iterator<Item = String>) -> ExitCode {
    let BuildOptions {
        files,
        session,
        jobs,
        timings,
    } = parse_build_args(args);
    let spec = match session.spec() {
        Ok(spec) => spec,
        Err(code) => return code,
    };

    let reports: Vec<Mutex<Option<BuildReport>>> = files.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(files.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else {
                    break;
                };
                let report = build_one(file, &spec, timings);
                *reports[i].lock().unwrap() = Some(report);
            });
        }
    });

    let mut failed = 0usize;
    let mut exit = Status::Ok;
    for slot in &reports {
        let report = slot.lock().unwrap().take().expect("worker filled slot");
        for warning in &report.warnings {
            eprintln!("warning: {warning}");
        }
        match report.summary {
            Ok(line) => println!("{line}"),
            Err((status, line)) => {
                eprintln!("{line}");
                failed += 1;
                // Budget exhaustion is the more specific failure: if any
                // file hit a cap, the batch exits 3 so callers know a
                // bigger budget may fix it.
                if exit != Status::Budget {
                    exit = status;
                }
            }
        }
        if let Some(line) = report.timings {
            println!("{line}");
        }
    }
    eprintln!(
        "build: {} file(s), {} failed, {} job(s)",
        files.len(),
        failed,
        workers
    );
    exit.into()
}

/// Parses a `--mutate` value, exiting with usage on nonsense. Reference
/// mutations (`reversed`, `single-pass`) and stage-window mutations
/// (`stale-commit`, `skip-barrier`) share the flag; exactly one side of
/// the pair is non-`None`.
fn parse_mutation(arg: Option<String>) -> (lss_verify::Mutation, lss_verify::KernelMutation) {
    match arg.as_deref() {
        Some("reversed") => (
            lss_verify::Mutation::ReversedSinglePass,
            lss_verify::KernelMutation::None,
        ),
        Some("single-pass") => (
            lss_verify::Mutation::ForwardSinglePass,
            lss_verify::KernelMutation::None,
        ),
        Some(other) => match lss_verify::KernelMutation::parse(other) {
            Some(k) => (lss_verify::Mutation::None, k),
            None => {
                eprintln!(
                    "--mutate needs `reversed`, `single-pass`, `stale-commit`, or `skip-barrier`"
                );
                usage();
            }
        },
        None => {
            eprintln!(
                "--mutate needs `reversed`, `single-pass`, `stale-commit`, or `skip-barrier`"
            );
            usage();
        }
    }
}

struct FuzzCliOptions {
    seed: u64,
    iters: u64,
    max_insts: usize,
    cycles: Option<u64>,
    out: PathBuf,
    types_only: bool,
    sim_only: bool,
    adversarial: bool,
    protocols: bool,
    deadline_ms: u64,
    mutation: lss_verify::Mutation,
    kernel_mutation: lss_verify::KernelMutation,
}

fn parse_fuzz_args(args: impl Iterator<Item = String>) -> FuzzCliOptions {
    let mut opts = FuzzCliOptions {
        seed: 1,
        iters: 100,
        max_insts: lss_verify::GenConfig::default().max_insts,
        cycles: None,
        out: PathBuf::from("target/verify"),
        types_only: false,
        sim_only: false,
        adversarial: false,
        protocols: false,
        deadline_ms: 2000,
        mutation: lss_verify::Mutation::None,
        kernel_mutation: lss_verify::KernelMutation::None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.seed = n,
                None => usage(),
            },
            "--iters" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.iters = n,
                _ => usage(),
            },
            "--max-insts" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 2 => opts.max_insts = n,
                _ => usage(),
            },
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.cycles = Some(n),
                _ => usage(),
            },
            "--out" => match args.next() {
                Some(d) => opts.out = PathBuf::from(d),
                None => usage(),
            },
            "--types-only" => opts.types_only = true,
            "--sim-only" => opts.sim_only = true,
            "--adversarial" => opts.adversarial = true,
            "--protocols" => opts.protocols = true,
            "--deadline-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.deadline_ms = n,
                _ => usage(),
            },
            "--mutate" => (opts.mutation, opts.kernel_mutation) = parse_mutation(args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if opts.types_only && opts.sim_only {
        eprintln!("--types-only and --sim-only are mutually exclusive");
        usage();
    }
    opts
}

/// The `lssc fuzz --adversarial` mode: hostile inputs against the
/// robustness contract (no panics, bounded wall-clock, located errors).
fn run_adversarial_cmd(opts: &FuzzCliOptions) -> ExitCode {
    let cfg = lss_verify::AdversarialConfig {
        seed: opts.seed,
        iters: opts.iters,
        deadline: std::time::Duration::from_millis(opts.deadline_ms),
        out_dir: opts.out.clone(),
    };
    let report = lss_verify::run_adversarial(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz --adversarial: seed {} — {} hostile input(s), {} compiled, {} rejected, \
         {} budget stop(s), {} contract violation(s)",
        cfg.seed,
        report.iters,
        report.compiled,
        report.rejected,
        report.budget_stops,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!(
            "violation at iter {}: {} — {}",
            finding.iter, finding.kind, finding.detail
        );
        eprintln!(
            "  minimized {} -> {} byte(s){}",
            finding.original_len,
            finding.minimized_len,
            finding
                .repro
                .as_ref()
                .map(|p| format!("; repro: {}", p.display()))
                .unwrap_or_default()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        Status::Error.into()
    }
}

/// The `lssc fuzz --protocols` mode: planted protocol bugs checked for
/// static-pass/runtime-monitor agreement.
fn run_protocol_fuzz_cmd(opts: &FuzzCliOptions) -> ExitCode {
    let cfg = lss_verify::ProtocolFuzzConfig {
        seed: opts.seed,
        iters: opts.iters,
        gen: lss_verify::GenConfig {
            max_insts: opts.max_insts,
            ..lss_verify::GenConfig::default()
        },
    };
    let report = lss_verify::run_protocol_fuzz(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz --protocols: seed {} — {} program(s), {} base clean, \
         {} static flag(s), {} runtime flag(s), {} disagreement(s)",
        cfg.seed,
        report.iters,
        report.base_clean,
        report.static_flagged,
        report.runtime_flagged,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!("disagreement: {finding}");
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        Status::Error.into()
    }
}

/// The `lssc fuzz` subcommand: generate, check both oracles, minimize.
fn run_fuzz_cmd(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_fuzz_args(args);
    if opts.adversarial {
        return run_adversarial_cmd(&opts);
    }
    if opts.protocols {
        return run_protocol_fuzz_cmd(&opts);
    }
    let mut gen = lss_verify::GenConfig {
        max_insts: opts.max_insts,
        ..lss_verify::GenConfig::default()
    };
    if let Some(cycles) = opts.cycles {
        gen.max_cycles = cycles;
    }
    let cfg = lss_verify::FuzzConfig {
        seed: opts.seed,
        iters: opts.iters,
        gen,
        check_types: !opts.sim_only,
        check_sim: !opts.types_only,
        check_projects: !opts.types_only,
        mutation: opts.mutation,
        kernel_mutation: opts.kernel_mutation,
        out_dir: opts.out,
    };
    let report = lss_verify::run_fuzz(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz: seed {} — {} program(s), {} compiled, {} type check(s), \
         {} differential sim cycle(s), {} project split check(s), {} finding(s)",
        cfg.seed,
        report.iters,
        report.compiled,
        report.type_checks,
        report.sim_cycles,
        report.project_checks,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!(
            "finding at iter {} (item seed {}): {}",
            finding.iter, finding.item_seed, finding.discrepancy
        );
        if let Some(path) = &finding.repro {
            eprintln!(
                "  minimized {} -> {} instance(s); repro: {}",
                finding.original_insts,
                finding.minimized_insts,
                path.display()
            );
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        Status::Error.into()
    }
}

struct DifftestOptions {
    files: Vec<String>,
    cycles: u64,
    mutation: lss_verify::Mutation,
    kernel_mutation: lss_verify::KernelMutation,
}

fn parse_difftest_args(args: impl Iterator<Item = String>) -> DifftestOptions {
    let mut opts = DifftestOptions {
        files: Vec::new(),
        cycles: 16,
        mutation: lss_verify::Mutation::None,
        kernel_mutation: lss_verify::KernelMutation::None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.cycles = n,
                _ => usage(),
            },
            "--mutate" => (opts.mutation, opts.kernel_mutation) = parse_mutation(args.next()),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        usage();
    }
    opts
}

/// The `lssc difftest` subcommand: replay .lss files through the
/// differential pipeline.
fn run_difftest(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_difftest_args(args);
    let diff = lss_verify::DiffOptions {
        cycles: opts.cycles,
        mutation: opts.mutation,
        kernel_mutation: opts.kernel_mutation,
        ..lss_verify::DiffOptions::default()
    };
    let mut failed = 0usize;
    for file in &opts.files {
        let mut path = std::path::Path::new(file).to_path_buf();
        // A directory without a manifest replays via its top.lss (the
        // layout minimized multi-file repros are written in).
        if path.is_dir() && !path.join("lss.toml").is_file() && path.join("top.lss").is_file() {
            path = path.join("top.lss");
        }
        // Project roots (directories, manifests, or files with imports)
        // go through the multi-file loader so their closure is followed.
        let project = path.is_dir()
            || path.file_name().is_some_and(|n| n == "lss.toml")
            || std::fs::read_to_string(&path)
                .map(|t| t.lines().any(|l| l.trim_start().starts_with("import ")))
                .unwrap_or(false);
        let result = if project {
            lss_verify::difftest_root(&path, &diff)
        } else {
            match std::fs::read_to_string(&path) {
                Ok(text) => lss_verify::difftest_source(file, &text, &diff),
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    failed += 1;
                    continue;
                }
            }
        };
        match result {
            Ok(None) => println!("{file}: ok ({} cycles, traces agree)", opts.cycles),
            Ok(Some(d)) => {
                eprintln!("{file}: {d}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("{file}: harness error: {e}");
                failed += 1;
            }
        }
    }
    eprintln!("difftest: {} file(s), {} failed", opts.files.len(), failed);
    if failed > 0 {
        Status::Error.into()
    } else {
        ExitCode::SUCCESS
    }
}

/// `lssc client`: the thin-client mode talking to a running `lssd`.
/// The response status maps to the exit code through [`Status`], the
/// same mapping one-shot compilation uses, so scripts can swap
/// `lssc FILE` for `lssc client ... compile FILE` without changing their
/// error handling.
fn run_client(args: impl Iterator<Item = String>) -> ExitCode {
    use lss_netlist::jsonval::JsonValue;

    let mut endpoint: Option<lssd::Endpoint> = None;
    let mut quota = Quota::default();
    let mut libs: Vec<String> = Vec::new();
    let mut cycles: Option<u64> = None;
    let mut retry = true;
    let mut dump_netlist = false;
    let mut model: Option<char> = None;
    let mut verb: Option<lssd::Verb> = None;
    let mut fault: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = args;
    while let Some(arg) = args.next() {
        if quota_flag(&mut quota, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(path) => endpoint = Some(lssd::Endpoint::Unix(path.into())),
                None => usage(),
            },
            "--tcp" => match args.next() {
                Some(addr) => endpoint = Some(lssd::Endpoint::Tcp(addr)),
                None => usage(),
            },
            "--lib" => match args.next() {
                Some(file) => libs.push(file),
                None => usage(),
            },
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => cycles = Some(n),
                None => usage(),
            },
            "--model" => {
                match args.next().and_then(|m| {
                    let mut chars = m.chars();
                    chars.next().filter(|_| chars.next().is_none())
                }) {
                    Some(id) => model = Some(id.to_ascii_uppercase()),
                    None => usage(),
                }
            }
            "--no-retry" => retry = false,
            "--netlist" => dump_netlist = true,
            other if verb.is_none() => match lssd::Verb::parse(other) {
                Some(v) => verb = Some(v),
                None => usage(),
            },
            other if verb == Some(lssd::Verb::Chaos) && fault.is_none() => {
                fault = Some(other.to_string());
            }
            other if !other.starts_with('-') => files.push(other.to_string()),
            _ => usage(),
        }
    }
    let (Some(endpoint), Some(verb)) = (endpoint, verb) else {
        usage();
    };

    let mut request = lssd::Request::new(verb);
    request.model = model;
    request.fault = fault;
    request.quota = quota;
    if let Some(n) = cycles {
        request.cycles = n;
    }
    match (read_units(&libs), read_units(&files)) {
        (Ok(libs), Ok(sources)) => (request.libs, request.sources) = (libs, sources),
        (Err(e), _) | (_, Err(e)) => return fail(Status::Error, e),
    }

    let mut client = match lssd::Client::connect(&endpoint) {
        Ok(client) => client,
        Err(e) => return fail(Status::Error, format_args!("cannot connect to lssd: {e}")),
    };
    let sent = if retry {
        client.request_with_retry(&request)
    } else {
        client.request(&request)
    };
    let response = match sent {
        Ok(value) => value,
        Err(e) => return fail(Status::Error, format_args!("client error: {e}")),
    };

    let status = response
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    if let Some(error) = response.get("error").and_then(JsonValue::as_str) {
        eprintln!("{status}: {error}");
    }
    if dump_netlist {
        // The raw netlist JSON, byte-identical to `--emit netlist-json`
        // from a one-shot build (pinned by the chaos suite and ci.sh).
        if let Some(netlist) = response.get("netlist").and_then(JsonValue::as_str) {
            print!("{netlist}");
        }
    } else if let JsonValue::Object(members) = &response {
        for (key, value) in members {
            if key == "netlist" {
                if let Some(text) = value.as_str() {
                    println!("netlist: {} bytes (print with --netlist)", text.len());
                }
                continue;
            }
            match value {
                JsonValue::Str(s) => println!("{key}: {s}"),
                other => println!("{key}: {other}"),
            }
        }
    }

    match Status::parse(status) {
        Some(Status::Ok) => {
            // `difftest` disagreement and `check` findings are failures
            // even though the daemon served them fine.
            let disagree = response
                .get("agree")
                .is_some_and(|v| matches!(v, JsonValue::Bool(false)));
            let findings = response
                .get("errors")
                .and_then(JsonValue::as_i64)
                .unwrap_or(0);
            if disagree || findings > 0 {
                Status::Error.into()
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(status) => status.into(),
        None => Status::Error.into(),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options {
        files: Vec::new(),
        session: SessionArgs::default(),
        run: None,
        run_model: false,
        scheduler: Scheduler::Static,
        batch: None,
        emit_lss: false,
        dump_tree: false,
        dump_dot: false,
        dump_json: false,
        emit: None,
        output: None,
        stats: false,
        lint: false,
        timings: false,
        watch: Vec::new(),
        vcd: None,
        wave: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => match args.next().and_then(|m| m.chars().next()) {
                Some(c) => opts.session.spec.model = Some(c),
                None => usage(),
            },
            "--run" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.run = Some(n),
                None => usage(),
            },
            "--run-model" => opts.run_model = true,
            "--scheduler" => match args.next().as_deref() {
                Some("static") => opts.scheduler = Scheduler::Static,
                Some("dynamic") => opts.scheduler = Scheduler::Dynamic,
                _ => usage(),
            },
            "--batch" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.batch = Some(n),
                _ => usage(),
            },
            "--emit-lss" => opts.emit_lss = true,
            "--emit" => match args.next().as_deref() {
                Some("netlist-bin") => opts.emit = Some(EmitKind::NetlistBin),
                Some("netlist-json") => opts.emit = Some(EmitKind::NetlistJson),
                _ => {
                    eprintln!("--emit needs `netlist-bin` or `netlist-json`");
                    usage();
                }
            },
            "--output" => match args.next() {
                Some(f) => opts.output = Some(f),
                None => usage(),
            },
            "--dump-tree" => opts.dump_tree = true,
            "--dump-dot" => opts.dump_dot = true,
            "--dump-json" => opts.dump_json = true,
            "--stats" => opts.stats = true,
            "--lint" => opts.lint = true,
            "--timings" => opts.timings = true,
            "--watch" => match args.next() {
                Some(p) => opts.watch.push(p),
                None => usage(),
            },
            "--vcd" => match args.next() {
                Some(f) => opts.vcd = Some(f),
                None => usage(),
            },
            "--wave" => opts.wave = true,
            "--help" | "-h" => usage(),
            other if opts.session.parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() && opts.session.spec.model.is_none() {
        usage();
    }
    if opts.batch.is_some() && opts.run.is_none() {
        eprintln!("--batch needs --run N (each lane simulates a fixed cycle count)");
        usage();
    }
    opts
}

/// Where ICE crash reports land: `$LSS_ICE_DIR` (set by tests) or
/// `target/ice/` relative to the working directory.
fn ice_dir() -> PathBuf {
    std::env::var_os("LSS_ICE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ice"))
}

/// Builds the replayable crash report: version, full command line, panic
/// message and backtrace, plus inline copies of every `.lss` source named
/// on the command line so the report reproduces without the working tree.
fn ice_report(message: &str, location: &str) -> String {
    let argv: Vec<String> = std::env::args().collect();
    let mut report = format!(
        "lssc internal compiler error (ICE)\nversion: {}\ncommand: {}\npanic: {message}\n",
        env!("CARGO_PKG_VERSION"),
        argv.join(" ")
    );
    if !location.is_empty() {
        report.push_str(&format!("at: {location}\n"));
    }
    report.push_str(&format!(
        "backtrace:\n{}\n",
        std::backtrace::Backtrace::force_capture()
    ));
    for arg in argv.iter().skip(1).filter(|a| a.ends_with(".lss")) {
        match std::fs::read_to_string(arg) {
            Ok(text) => report.push_str(&format!("--- source: {arg} ---\n{text}\n")),
            Err(e) => report.push_str(&format!("--- source: {arg} (unreadable: {e}) ---\n")),
        }
    }
    report
}

/// Installs the panic hook that writes an ICE report. The hook fires
/// before the `catch_unwind` boundary in `main` maps the panic to exit
/// code 4. (The adversarial fuzzer temporarily silences this hook while
/// it feeds the compiler inputs that are *supposed* to be survivable.)
fn install_ice_hook() {
    std::panic::set_hook(Box::new(|info| {
        use std::io::Write as _;

        let message = lssd::payload_str(info.payload());
        // A panic raised while *printing* (stdout/stderr closed under us,
        // e.g. `lssc ... | head`) is not a compiler bug: no report, no
        // banner. Attempting to print here would panic again and abort
        // the process before `catch_unwind` can map it to exit code 4.
        if is_broken_pipe(&message) {
            return;
        }
        let location = info.location().map(|l| l.to_string()).unwrap_or_default();
        let dir = ice_dir();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = dir.join(format!("ice-{}-{nanos}.txt", std::process::id()));
        let wrote = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ice_report(&message, &location)));
        // `write!` + ignored results, not `eprintln!`: the hook must never
        // panic, whatever state stderr is in.
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "error: internal compiler error: {message}");
        if !location.is_empty() {
            let _ = writeln!(err, "  at {location}");
        }
        let _ = match wrote {
            Ok(()) => writeln!(
                err,
                "note: this is a bug in lssc, not in your specification; \
                 a replayable crash report was written to {}",
                path.display()
            ),
            Err(e) => writeln!(
                err,
                "note: could not write the crash report to {}: {e}",
                path.display()
            ),
        };
    }));
}

fn main() -> ExitCode {
    install_ice_hook();
    let outcome = std::panic::catch_unwind(|| {
        // Deliberate, test-only crash proving the ICE boundary end to end
        // (report written, exit code 4) without a real compiler bug.
        if std::env::var_os("LSS_TEST_ICE").is_some_and(|v| v == "1") {
            panic!("deliberate internal error (LSS_TEST_ICE=1)");
        }
        real_main()
    });
    match outcome {
        Ok(code) => code,
        // A print panic from a closed stdout/stderr is the reader going
        // away, not an ICE: exit like a SIGPIPE death (128 + 13), the code
        // shell pipelines already expect from `lssc ... | head`.
        Err(payload) if is_broken_pipe(&lssd::payload_str(&*payload)) => ExitCode::from(141),
        Err(_) => Status::Ice.into(),
    }
}

/// Recognizes the runtime's EPIPE print panics (`println!`/`eprintln!`
/// against a closed pipe), which must never be reported as compiler bugs.
fn is_broken_pipe(message: &str) -> bool {
    message.contains("Broken pipe") || message.contains("failed printing to")
}

fn real_main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("check") => {
            argv.next();
            return run_check(argv);
        }
        Some("build") => {
            argv.next();
            return run_build(argv);
        }
        Some("fuzz") => {
            argv.next();
            return run_fuzz_cmd(argv);
        }
        Some("difftest") => {
            argv.next();
            return run_difftest(argv);
        }
        Some("client") => {
            argv.next();
            return run_client(argv);
        }
        _ => {}
    }
    let opts = parse_args(argv);
    let timings_name = match opts.session.spec.model {
        Some(id) => format!("model_{id}"),
        None => opts.files[0].clone(),
    };
    let mut spec = match opts.session.spec() {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    // A target may be a plain file, a project root with imports, a
    // directory with an `lss.toml`, or the manifest itself.
    spec.roots = opts.files.iter().map(PathBuf::from).collect();
    let mut driver = match spec.driver() {
        Ok(driver) => driver,
        Err((status, e)) => return fail(status, e),
    };
    driver.sim_options.scheduler = opts.scheduler;

    if opts.emit_lss {
        // Canonical pretty-printing of the user's sources (not the corelib).
        for file in &opts.files {
            let text = std::fs::read_to_string(file).unwrap_or_default();
            let mut sources = liberty::ast::SourceMap::new();
            let id = sources.add_file(file.as_str(), text.as_str());
            let mut diags = liberty::ast::DiagnosticBag::new();
            let program = liberty::ast::parse(id, &text, &mut diags);
            if diags.has_errors() {
                return fail(Status::Error, diags.render(&sources));
            }
            print!("{}", liberty::ast::pretty::program_to_string(&program));
        }
    }

    let compiled = match driver.elaborate() {
        Ok(c) => c,
        Err(e) => return fail(Status::of(&e), e),
    };
    print_warnings(&driver);
    eprintln!(
        "compiled: {} instances, {} connections, {} type constraints \
         ({} unification steps, {} branches)",
        compiled.netlist.instances.len(),
        compiled.netlist.connections.len(),
        compiled.netlist.constraints.len(),
        compiled.solve_stats.unify_steps,
        compiled.solve_stats.branches,
    );
    for line in &compiled.prints {
        println!("{line}");
    }

    if opts.dump_tree {
        print!("{}", dump::tree(&compiled.netlist));
    }
    if opts.dump_dot {
        print!("{}", dump::dot(&compiled.netlist));
    }
    if opts.dump_json {
        print!("{}", lss_netlist::to_json(&compiled.netlist));
    }
    match opts.emit {
        Some(EmitKind::NetlistBin) => {
            let Some(out) = &opts.output else {
                return fail(
                    Status::BadRequest,
                    "--emit netlist-bin needs --output FILE (binary data)",
                );
            };
            let bytes = lss_netlist::to_binary(&compiled.netlist);
            if let Err(e) = std::fs::write(out, &bytes) {
                return fail(Status::Error, format_args!("cannot write {out}: {e}"));
            }
            eprintln!(
                "wrote {out} ({} bytes, format {})",
                bytes.len(),
                lss_netlist::BIN_FORMAT
            );
        }
        Some(EmitKind::NetlistJson) => match &opts.output {
            Some(out) => {
                if let Err(e) = std::fs::write(out, lss_netlist::to_json(&compiled.netlist)) {
                    return fail(Status::Error, format_args!("cannot write {out}: {e}"));
                }
                eprintln!("wrote {out}");
            }
            None => print!("{}", lss_netlist::to_json(&compiled.netlist)),
        },
        None => {}
    }
    let mut lint_denied = 0;
    if opts.lint {
        // Same semantics as `lssc check --format text` with the default
        // configuration: denied findings make the exit code nonzero.
        let analyzed = match driver.analyze(&AnalysisConfig::default()) {
            Ok(a) => a,
            Err(e) => return fail(Status::of(&e), e),
        };
        if analyzed.analysis.is_clean() {
            println!("lint: clean");
        } else {
            print!(
                "{}",
                to_text_located(&analyzed.analysis.findings, Some(driver.sources()))
            );
        }
        lint_denied = analyzed.analysis.denied;
    }
    if opts.stats {
        let stats = reuse_stats(&compiled.netlist);
        println!("{}", lss_netlist::header());
        println!("{}", lss_netlist::format_row("model", &stats));
    }

    if opts.run_model {
        let mut sim = match lss_models::runner::build_sim(&compiled.netlist, opts.scheduler) {
            Ok(s) => s,
            Err(e) => return fail(Status::Error, e),
        };
        match lss_models::runner::run_sim_to_completion(&compiled.netlist, &mut sim, 10_000_000) {
            Ok(stats) => {
                println!(
                    "ran {} cycles, committed {} instructions, CPI {:.3}, {} mispredicts",
                    stats.cycles, stats.committed, stats.cpi, stats.mispredicts
                );
                for (key, table) in &stats.collectors {
                    let kv: Vec<String> = table.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!("  collector {key}: {}", kv.join(" "));
                }
                if opts.stats {
                    print_sim_stats(&sim);
                }
            }
            Err(e) => return fail(Status::Error, e),
        }
    } else if let (Some(cycles), Some(lanes)) = (opts.run, opts.batch) {
        // One run per seed 0..N-1, every other option as for a solo run.
        let mut summaries = Vec::with_capacity(lanes);
        for k in 0..lanes {
            driver.sim_options.seed = k as i64;
            let mut sim = match driver.simulator(&compiled.netlist) {
                Ok(s) => s,
                Err(e) => return fail(Status::of(&e), e),
            };
            if let Err(e) = sim.run(cycles) {
                return fail(
                    Status::of_sim(&e),
                    format_args!("batch simulation failed: lane {k}: {e}"),
                );
            }
            summaries.push(sim.stats());
        }
        println!("batch: {lanes} lane(s), {cycles} cycles each");
        for (k, stats) in summaries.iter().enumerate() {
            println!(
                "  lane {k} (seed {k}): {} component evaluations, {} port firings",
                stats.comp_evals, stats.port_firings
            );
        }
    } else if let Some(cycles) = opts.run {
        let mut sim = match driver.simulator(&compiled.netlist) {
            Ok(s) => s,
            Err(e) => return fail(Status::of(&e), e),
        };
        for prefix in &opts.watch {
            sim.watch(prefix.clone());
        }
        if let Err(e) = sim.run(cycles) {
            // A budget-tagged stop (LSS408 cycle cap, LSS401 deadline) is
            // resource exhaustion, not a model failure: exit 3, like the
            // compile-time budgets.
            return fail(Status::of_sim(&e), format_args!("simulation failed: {e}"));
        }
        let stats = sim.stats();
        println!(
            "simulated {} cycles ({} component evaluations, {} port firings)",
            stats.cycles, stats.comp_evals, stats.port_firings
        );
        if opts.stats {
            print_sim_stats(&sim);
        }
        for (path, event, table) in sim.collector_reports() {
            let kv: Vec<String> = table.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("  collector {path}/{event}: {}", kv.join(" "));
        }
        if opts.wave {
            print!("{}", liberty::sim::to_ascii(sim.firing_log(), 200));
        } else {
            for record in sim.firing_log() {
                println!(
                    "  cycle {:>6} {}.{}[{}] = {}",
                    record.cycle, record.path, record.port, record.lane, record.value
                );
            }
        }
        if let Some(path) = &opts.vcd {
            let vcd = liberty::sim::to_vcd(sim.firing_log(), "1ns");
            if let Err(e) = std::fs::write(path, vcd) {
                return fail(Status::Error, format_args!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
    }
    if opts.timings {
        println!(
            "{}",
            timings_json(
                &timings_name,
                compiled.cache.name(),
                driver.timings(),
                &compiled.modules
            )
        );
    }
    if lint_denied > 0 {
        return fail(
            Status::Error,
            format_args!("lint: {lint_denied} finding(s) denied"),
        );
    }
    ExitCode::SUCCESS
}
