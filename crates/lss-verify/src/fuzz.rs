//! The fuzzing loop: generate → compile → oracles → minimize → report.
//!
//! Deterministic by construction: a master [`SplitMix64`] stream seeded
//! with `FuzzConfig::seed` hands each iteration its own item seed, so any
//! finding is reproducible from `(seed, iteration)` alone — and the
//! minimized repro file records the item seed for direct replay.

use std::path::PathBuf;

use lss_types::{SolverConfig, SplitMix64};

use crate::difftest::{
    check_binary_roundtrip, compile_source, diff_netlist, diff_project_vs_single, DiffOptions,
    Discrepancy,
};
use crate::exhaustive::check_types;
use crate::gen::{generate, GenConfig};
use crate::minimize::{minimize, write_repro};
use crate::refsim::Mutation;
use lss_sim::KernelMutation;

/// Configuration for a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed for the run.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Shape knobs for the program generator.
    pub gen: GenConfig,
    /// Run the exhaustive type-solver oracle.
    pub check_types: bool,
    /// Run the reference-simulator trace oracle.
    pub check_sim: bool,
    /// Split each generated program into a 2–3-file import project and
    /// check the project build against the single-file build.
    pub check_projects: bool,
    /// Injected reference bug (mutation testing; [`Mutation::None`] for
    /// real runs).
    pub mutation: Mutation,
    /// Injected stage-window bug (mutation testing;
    /// [`KernelMutation::None`] for real runs).
    pub kernel_mutation: KernelMutation,
    /// Directory for minimized repro files.
    pub out_dir: PathBuf,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            gen: GenConfig::default(),
            check_types: true,
            check_sim: true,
            check_projects: true,
            mutation: Mutation::None,
            kernel_mutation: KernelMutation::None,
            out_dir: PathBuf::from("target/verify"),
        }
    }
}

/// One confirmed, minimized discrepancy.
#[derive(Debug)]
pub struct Finding {
    /// Iteration (0-based) that produced the program.
    pub iter: u64,
    /// The per-item seed (regenerate with `generate(item_seed, &cfg.gen)`).
    pub item_seed: u64,
    /// The discrepancy, as exhibited by the minimized program.
    pub discrepancy: Discrepancy,
    /// Instance count before minimization.
    pub original_insts: usize,
    /// Instance count after minimization.
    pub minimized_insts: usize,
    /// Programs compiled while shrinking.
    pub shrink_tests: usize,
    /// Where the repro was written (`None` if writing failed).
    pub repro: Option<PathBuf>,
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iters: u64,
    /// Programs that compiled cleanly.
    pub compiled: u64,
    /// Type-oracle comparisons that produced a verdict (not skipped).
    pub type_checks: u64,
    /// Simulator cycles differentially executed.
    pub sim_cycles: u64,
    /// Multi-file project splits checked against single-file builds.
    pub project_checks: u64,
    /// All confirmed findings, already minimized and written out.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// True when no oracle disagreed over the whole run.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs the fuzzing loop; `log` receives one line per event worth showing.
pub fn run_fuzz(cfg: &FuzzConfig, mut log: impl FnMut(&str)) -> FuzzReport {
    let mut master = SplitMix64::new(cfg.seed);
    let mut report = FuzzReport::default();
    for iter in 0..cfg.iters {
        let item_seed = master.next_u64();
        let spec = generate(item_seed, &cfg.gen);
        let opts = DiffOptions {
            cycles: spec.cycles,
            mutation: cfg.mutation,
            kernel_mutation: cfg.kernel_mutation,
            ..DiffOptions::default()
        };
        let discrepancy = check_one(cfg, &spec, &opts, &mut report);
        report.iters += 1;
        if let Some(d) = discrepancy {
            log(&format!(
                "iter {iter} (seed {item_seed}): {} discrepancy, minimizing...",
                d.tag()
            ));
            let minimized = minimize(&spec, &d, &opts);
            let repro = match write_repro(&cfg.out_dir, &minimized, item_seed) {
                Ok(path) => {
                    log(&format!("  repro written to {}", path.display()));
                    Some(path)
                }
                Err(e) => {
                    log(&format!("  failed to write repro: {e}"));
                    None
                }
            };
            log(&format!(
                "  shrunk {} -> {} instance(s) in {} test(s)",
                spec.insts.len(),
                minimized.spec.insts.len(),
                minimized.tests_run
            ));
            report.findings.push(Finding {
                iter,
                item_seed,
                discrepancy: minimized.discrepancy,
                original_insts: spec.insts.len(),
                minimized_insts: minimized.spec.insts.len(),
                shrink_tests: minimized.tests_run,
                repro,
            });
        }
    }
    report
}

/// Runs every enabled oracle over one generated spec, returning the first
/// discrepancy.
fn check_one(
    cfg: &FuzzConfig,
    spec: &crate::gen::Spec,
    opts: &DiffOptions,
    report: &mut FuzzReport,
) -> Option<Discrepancy> {
    let text = spec.render();
    let (mut driver, elab) = match compile_source("fuzz.lss", &text) {
        Ok(pair) => pair,
        Err(error) => return Some(Discrepancy::Compile { error }),
    };
    report.compiled += 1;
    if cfg.check_types {
        report.type_checks += 1;
        if let Some(t) = check_types(&elab.netlist.constraints, &SolverConfig::heuristic()) {
            return Some(Discrepancy::Type(t));
        }
    }
    if cfg.check_sim {
        report.sim_cycles += opts.cycles;
        match diff_netlist(&mut driver, &elab.netlist, opts) {
            Ok(Some(d)) => return Some(d),
            Ok(None) => {}
            Err(e) => {
                return Some(Discrepancy::Compile {
                    error: format!("simulator build failed: {e}"),
                })
            }
        }
    }
    if let Some(d) = check_binary_roundtrip(&elab.netlist) {
        return Some(d);
    }
    if cfg.check_projects && spec.insts.len() >= 2 {
        report.project_checks += 1;
        let files = spec.render_project(spec.default_members());
        let dir = cfg.out_dir.join("split-scratch");
        match diff_project_vs_single(&mut driver, &elab.netlist, &dir, &files, opts) {
            Ok(Some(d)) => return Some(d),
            Ok(None) => {}
            Err(e) => {
                return Some(Discrepancy::Compile {
                    error: format!("project harness: {e}"),
                })
            }
        }
    }
    None
}
