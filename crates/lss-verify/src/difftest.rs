//! The differential harness: engine vs reference, cycle by cycle.
//!
//! An LSS program is compiled once through the full driver pipeline, then
//! run twice — on the production engine (`lss_sim::Simulator` with its
//! static plan) and on the naive [`RefSim`](crate::RefSim) fixpoint
//! oracle — comparing the canonical `state_lines` dump after every cycle.
//! Any divergence (a differing line, or a runtime error on one side only)
//! is a [`Discrepancy`], the currency the fuzzer and the minimizer trade
//! in.

use std::path::Path;
use std::sync::Arc;

use lss_driver::{Driver, Elaborated};
use lss_netlist::{from_binary, to_binary, to_json, Netlist};
use lss_sim::{KernelMutation, Scheduler};

use crate::exhaustive::TypeDiscrepancy;
use crate::refsim::{Mutation, RefSim};

/// How to run a differential comparison.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Number of cycles to step both simulators.
    pub cycles: u64,
    /// Scheduler used by the production engine under test.
    pub scheduler: Scheduler,
    /// Injected reference bug (mutation testing only; [`Mutation::None`]
    /// for real verification runs).
    pub mutation: Mutation,
    /// Injected static-plan bug in the engine under test (mutation
    /// testing only; [`KernelMutation::None`] for real verification runs).
    /// It must surface as a `Trace` or `EngineError` against the reference.
    pub kernel_mutation: KernelMutation,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            cycles: 16,
            scheduler: Scheduler::Static,
            mutation: Mutation::None,
            kernel_mutation: KernelMutation::None,
        }
    }
}

/// A verdict difference between the system under test and an oracle.
#[derive(Debug, Clone)]
pub enum Discrepancy {
    /// A generated program failed to compile (generator bug or frontend
    /// bug — either way worth a repro).
    Compile {
        /// The driver's rendered error.
        error: String,
    },
    /// The heuristic type solver disagrees with the exhaustive oracle.
    Type(TypeDiscrepancy),
    /// The two simulators' canonical state dumps differ after a cycle.
    Trace {
        /// First cycle whose post-step states differ (0-based).
        cycle: u64,
        /// Lines present in exactly one dump (prefixed `engine:` /
        /// `reference:`), capped for readability.
        diff: Vec<String>,
    },
    /// The production engine raised a runtime error the reference did not.
    EngineError {
        /// Cycle on which the engine failed.
        cycle: u64,
        /// The engine's error.
        error: String,
    },
    /// The reference raised a runtime error the engine did not.
    RefError {
        /// Cycle on which the reference failed.
        cycle: u64,
        /// The reference's error.
        error: String,
    },
    /// The netlist did not survive a binary round trip (encode, decode,
    /// encode) byte-identically, or decoding changed it.
    Roundtrip {
        /// What went wrong (decode error, first differing byte, or a
        /// changed netlist).
        detail: String,
    },
    /// The multi-file project split of a program disagrees with its
    /// single-file build (separate compilation must be transparent).
    Split {
        /// What diverged: a project-only compile failure, a structural
        /// count mismatch, or the first differing trace lines.
        detail: String,
    },
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Discrepancy::Compile { error } => write!(f, "compile failure: {error}"),
            Discrepancy::Type(t) => write!(f, "type oracle: {t}"),
            Discrepancy::Trace { cycle, diff } => {
                writeln!(f, "state divergence at cycle {cycle}:")?;
                for line in diff {
                    writeln!(f, "  {line}")?;
                }
                Ok(())
            }
            Discrepancy::EngineError { cycle, error } => {
                write!(
                    f,
                    "engine error at cycle {cycle} (reference ran clean): {error}"
                )
            }
            Discrepancy::RefError { cycle, error } => {
                write!(
                    f,
                    "reference error at cycle {cycle} (engine ran clean): {error}"
                )
            }
            Discrepancy::Roundtrip { detail } => write!(f, "netlist round-trip: {detail}"),
            Discrepancy::Split { detail } => write!(f, "project split: {detail}"),
        }
    }
}

impl Discrepancy {
    /// Short machine-readable tag for reports and filenames.
    pub fn tag(&self) -> &'static str {
        match self {
            Discrepancy::Compile { .. } => "compile",
            Discrepancy::Type(_) => "type",
            Discrepancy::Trace { .. } => "trace",
            Discrepancy::EngineError { .. } => "engine-error",
            Discrepancy::RefError { .. } => "ref-error",
            Discrepancy::Roundtrip { .. } => "roundtrip",
            Discrepancy::Split { .. } => "split",
        }
    }
}

/// Compiles `text` (with the core library) through the driver pipeline.
///
/// Returns the session alongside the artifact so callers can build
/// simulators against the same registry.
///
/// # Errors
///
/// The driver's rendered diagnostics on any parse/elaborate/type failure.
pub fn compile_source(name: &str, text: &str) -> Result<(Driver, Arc<Elaborated>), String> {
    let mut driver = Driver::with_corelib();
    driver.add_source(name, text);
    let elab = driver.elaborate().map_err(|e| e.to_string())?;
    Ok((driver, elab))
}

fn labeled_diff(
    left_label: &str,
    left: &[String],
    right_label: &str,
    right: &[String],
) -> Vec<String> {
    const CAP: usize = 12;
    let mut out = Vec::new();
    for line in left {
        if !right.contains(line) {
            out.push(format!("{left_label} {line}"));
        }
    }
    for line in right {
        if !left.contains(line) {
            out.push(format!("{right_label} {line}"));
        }
    }
    if out.len() > CAP {
        let extra = out.len() - CAP;
        out.truncate(CAP);
        out.push(format!("... and {extra} more differing line(s)"));
    }
    out
}

fn trace_diff(engine: &[String], reference: &[String]) -> Vec<String> {
    labeled_diff("engine:   ", engine, "reference:", reference)
}

/// Runs the compiled netlist on the engine and on the naive reference and
/// compares state cycle-by-cycle.
///
/// Returns `Ok(None)` when the traces agree for all requested cycles.
///
/// # Errors
///
/// Only on harness-level failures (a simulator fails to *build*);
/// runtime divergence is a `Discrepancy`, not an error.
pub fn diff_netlist(
    driver: &mut Driver,
    netlist: &Netlist,
    opts: &DiffOptions,
) -> Result<Option<Discrepancy>, String> {
    driver.sim_options.scheduler = opts.scheduler;
    // The window mutation breaks this engine only, not simulators built
    // later from the same session.
    driver.sim_options.kernel_mutation = opts.kernel_mutation;
    let engine = driver.simulator(netlist);
    driver.sim_options.kernel_mutation = KernelMutation::None;
    let mut engine = engine.map_err(|e| e.to_string())?;
    let mut reference = RefSim::build(netlist, driver.registry(), opts.mutation)
        .map_err(|e| format!("reference build: {}", e.message))?;
    for cycle in 0..opts.cycles {
        match (engine.step(), reference.step()) {
            (Ok(()), Ok(())) => {}
            // Both sides reject the cycle (e.g. a userpoint error):
            // agreement, but nothing further to compare.
            (Err(_), Err(_)) => return Ok(None),
            (Err(e), Ok(())) => {
                return Ok(Some(Discrepancy::EngineError {
                    cycle,
                    error: e.message,
                }))
            }
            (Ok(()), Err(e)) => {
                return Ok(Some(Discrepancy::RefError {
                    cycle,
                    error: e.message,
                }))
            }
        }
        let engine_lines = engine.state_lines();
        let ref_lines = reference.state_lines();
        if engine_lines != ref_lines {
            return Ok(Some(Discrepancy::Trace {
                cycle,
                diff: trace_diff(&engine_lines, &ref_lines),
            }));
        }
    }
    Ok(None)
}

/// Full differential run over one source text: compile, trace-compare,
/// and round-trip-check.
///
/// # Errors
///
/// Harness-level failures only (simulator build); a compile failure of
/// `text` itself is reported as [`Discrepancy::Compile`].
pub fn difftest_source(
    name: &str,
    text: &str,
    opts: &DiffOptions,
) -> Result<Option<Discrepancy>, String> {
    let (mut driver, elab) = match compile_source(name, text) {
        Ok(pair) => pair,
        Err(error) => return Ok(Some(Discrepancy::Compile { error })),
    };
    if let Some(d) = diff_netlist(&mut driver, &elab.netlist, opts)? {
        return Ok(Some(d));
    }
    Ok(check_binary_roundtrip(&elab.netlist))
}

/// Checks that `netlist` survives `to_binary` → `from_binary` →
/// `to_binary` byte-identically (and that the decoded netlist is the same
/// netlist, via the canonical JSON dump).
pub fn check_binary_roundtrip(netlist: &Netlist) -> Option<Discrepancy> {
    let first = to_binary(netlist);
    let reparsed = match from_binary(&first) {
        Ok(n) => n,
        Err(e) => {
            return Some(Discrepancy::Roundtrip {
                detail: format!("binary-encoded netlist fails to decode: {e}"),
            })
        }
    };
    let second = to_binary(&reparsed);
    if first != second {
        let offset = first
            .iter()
            .zip(second.iter())
            .position(|(a, b)| a != b)
            .map(|i| format!("binary dumps first differ at byte {i}"))
            .unwrap_or_else(|| "binary dumps differ in length".to_string());
        return Some(Discrepancy::Roundtrip { detail: offset });
    }
    if to_json(&reparsed) != to_json(netlist) {
        return Some(Discrepancy::Roundtrip {
            detail: "binary decode changes the netlist (JSON dumps differ)".to_string(),
        });
    }
    None
}

/// Compiles a project root file (or directory / manifest) through the
/// driver pipeline, following its import closure.
///
/// # Errors
///
/// The driver's rendered diagnostics on any load/parse/elaborate/type
/// failure.
pub fn compile_root(root: &Path) -> Result<(Driver, Arc<Elaborated>), String> {
    let mut driver = Driver::with_corelib();
    driver.add_root_file(root)?;
    let elab = driver.elaborate().map_err(|e| e.to_string())?;
    Ok((driver, elab))
}

/// Full differential run over an on-disk program: compile the root (with
/// its import closure), trace-compare, and round-trip-check. This is the
/// multi-file analogue of [`difftest_source`].
///
/// # Errors
///
/// Harness-level failures only (simulator build); a compile failure is
/// reported as [`Discrepancy::Compile`].
pub fn difftest_root(root: &Path, opts: &DiffOptions) -> Result<Option<Discrepancy>, String> {
    let (mut driver, elab) = match compile_root(root) {
        Ok(pair) => pair,
        Err(error) => return Ok(Some(Discrepancy::Compile { error })),
    };
    if let Some(d) = diff_netlist(&mut driver, &elab.netlist, opts)? {
        return Ok(Some(d));
    }
    Ok(check_binary_roundtrip(&elab.netlist))
}

/// Writes a rendered project (element 0 is the root) into `dir`, replacing
/// whatever was there.
fn write_project_files(dir: &Path, files: &[(String, String)]) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    for (name, text) in files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

/// Checks that a multi-file project split of a program is transparent:
/// the project build must succeed, produce the same instance/connection/
/// collector counts, and simulate to the same canonical state as the
/// already-compiled single-file build, cycle by cycle.
///
/// `files` is a rendered project (element 0 the root, as produced by
/// [`Spec::render_project`](crate::gen::Spec::render_project)); it is
/// written under `dir`, which is wiped first and removed afterwards.
/// State lines are compared as sorted sets — component order differs
/// between a linked project and a single-unit elaboration.
///
/// # Errors
///
/// Harness-level failures only (I/O, simulator build); divergence is a
/// [`Discrepancy::Split`].
pub fn diff_project_vs_single(
    single_driver: &mut Driver,
    single_netlist: &Netlist,
    dir: &Path,
    files: &[(String, String)],
    opts: &DiffOptions,
) -> Result<Option<Discrepancy>, String> {
    write_project_files(dir, files).map_err(|e| format!("writing project files: {e}"))?;
    let result = diff_project_vs_single_inner(single_driver, single_netlist, dir, files, opts);
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn diff_project_vs_single_inner(
    single_driver: &mut Driver,
    single_netlist: &Netlist,
    dir: &Path,
    files: &[(String, String)],
    opts: &DiffOptions,
) -> Result<Option<Discrepancy>, String> {
    let (mut project_driver, project) = match compile_root(&dir.join(&files[0].0)) {
        Ok(pair) => pair,
        Err(error) => {
            return Ok(Some(Discrepancy::Split {
                detail: format!("project build failed where single-file build succeeded: {error}"),
            }))
        }
    };
    let counts = |n: &Netlist| (n.instances.len(), n.connections.len(), n.collectors.len());
    if counts(&project.netlist) != counts(single_netlist) {
        let (pi, pc, pk) = counts(&project.netlist);
        let (si, sc, sk) = counts(single_netlist);
        return Ok(Some(Discrepancy::Split {
            detail: format!(
                "structure mismatch: project has {pi} instance(s), {pc} connection(s), \
                 {pk} collector(s); single-file has {si}, {sc}, {sk}"
            ),
        }));
    }
    single_driver.sim_options.scheduler = opts.scheduler;
    project_driver.sim_options.scheduler = opts.scheduler;
    let mut single = single_driver
        .simulator(single_netlist)
        .map_err(|e| e.to_string())?;
    let mut project_sim = project_driver
        .simulator(&project.netlist)
        .map_err(|e| format!("project simulator build: {e}"))?;
    for cycle in 0..opts.cycles {
        match (single.step(), project_sim.step()) {
            (Ok(()), Ok(())) => {}
            (Err(_), Err(_)) => return Ok(None),
            (Ok(()), Err(e)) => {
                return Ok(Some(Discrepancy::Split {
                    detail: format!(
                        "project build fails at cycle {cycle} (single-file ran clean): {}",
                        e.message
                    ),
                }))
            }
            (Err(e), Ok(())) => {
                return Ok(Some(Discrepancy::Split {
                    detail: format!(
                        "single-file build fails at cycle {cycle} (project ran clean): {}",
                        e.message
                    ),
                }))
            }
        }
        let mut single_lines = single.state_lines();
        let mut project_lines = project_sim.state_lines();
        single_lines.sort();
        project_lines.sort();
        if single_lines != project_lines {
            let diff = labeled_diff("single: ", &single_lines, "project:", &project_lines);
            return Ok(Some(Discrepancy::Split {
                detail: format!(
                    "state divergence at cycle {cycle}:\n  {}",
                    diff.join("\n  ")
                ),
            }));
        }
    }
    Ok(None)
}
