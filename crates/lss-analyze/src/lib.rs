//! Static analysis over elaborated LSS netlists.
//!
//! The paper's central claim (§1, §3) is that a fully elaborated,
//! statically typed netlist lets tools reason about a whole model before a
//! single cycle runs. This crate is that tooling layer: a pass manager
//! running typed analyses over a [`Netlist`], producing [`Finding`]s with
//! stable codes (`LSS1xx` structural, `LSS2xx` dataflow, `LSS3xx`
//! types-and-events) that the `lssc check` CLI renders as human text, JSON
//! lines, or SARIF 2.1.0 for CI gates.
//!
//! The headline passes:
//!
//! * [`passes::cycles`] — zero-delay combinational-cycle detection over
//!   the port-dependency graph ([`graph::leaf_dep_graph`] + Tarjan SCC in
//!   [`DepGraph::condense`]). The same [`Condensation`] is what
//!   `lss-sim`'s static scheduler executes, so the analyzer and the engine
//!   share one definition of "cycle";
//! * [`passes::multidriver`] — port instances driven by several sources;
//! * [`passes::deadlogic`] — cone-of-influence reachability;
//! * [`passes::residue`] — overloads left ambiguous after type inference;
//! * [`passes::netlist_lints`] — the advisory model lints (unconnected
//!   ports, isolated instances, dangling hierarchical ports, width
//!   mismatches, unbound collectors).
//!
//! # Example
//!
//! ```
//! use lss_analyze::{AnalysisConfig, CombInfo, PassManager};
//!
//! let netlist = lss_netlist::Netlist::new();
//! let analysis = PassManager::with_default_passes().run(
//!     &netlist,
//!     &CombInfo::all_combinational(),
//!     &AnalysisConfig::default(),
//! );
//! assert!(analysis.findings.is_empty());
//! assert_eq!(analysis.denied, 0);
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod emit;
pub mod graph;
pub mod passes;

use lss_netlist::{Netlist, Wire};

pub use diag::{AnalysisConfig, Code, Finding, Severity};
pub use emit::{to_jsonl, to_sarif, to_sarif_located, to_text, to_text_located};
pub use graph::{leaf_dep_graph, CombInfo, Condensation, DepGraph, LeafDepGraph};

/// Everything a pass may consult, computed once per [`PassManager::run`].
pub struct AnalysisCtx<'a> {
    /// The netlist under analysis.
    pub netlist: &'a Netlist,
    /// Flattened leaf-to-leaf wires (`netlist.flatten()`).
    pub wires: &'a [Wire],
    /// The zero-delay dependency graph over leaves.
    pub deps: &'a LeafDepGraph,
    /// Which leaf inputs are combinational.
    pub comb: &'a CombInfo,
}

/// One analysis pass.
pub trait Pass {
    /// Stable pass name (progress reporting, filtering).
    fn name(&self) -> &'static str;
    /// The codes this pass can emit.
    fn codes(&self) -> &'static [Code];
    /// Runs the pass, appending findings.
    fn run(&self, ctx: &AnalysisCtx<'_>, findings: &mut Vec<Finding>);
}

/// Orders and runs passes over a netlist.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// A manager with no passes registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manager with every built-in pass registered.
    pub fn with_default_passes() -> Self {
        PassManager {
            passes: passes::default_passes(),
        }
    }

    /// Registers an additional pass (runs after the existing ones).
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes and applies the configuration: `allow`ed codes are
    /// dropped, the rest are sorted by (code, subject) and counted against
    /// the deny rules.
    pub fn run(&self, netlist: &Netlist, comb: &CombInfo, config: &AnalysisConfig) -> Analysis {
        match self.run_budgeted(netlist, comb, config, &lss_types::Budget::unlimited()) {
            Ok(analysis) => analysis,
            // Unreachable: an unlimited budget never errors.
            Err(_) => Analysis {
                findings: Vec::new(),
                denied: 0,
            },
        }
    }

    /// Like [`PassManager::run`], but polls `budget`'s wall-clock deadline
    /// between passes so a pathological netlist cannot pin the analyzer.
    ///
    /// # Errors
    ///
    /// [`lss_types::BudgetError`] (kind `Deadline`, stage `analyze`) when
    /// the deadline passes mid-analysis; partial progress names the passes
    /// already completed.
    pub fn run_budgeted(
        &self,
        netlist: &Netlist,
        comb: &CombInfo,
        config: &AnalysisConfig,
        budget: &lss_types::Budget,
    ) -> Result<Analysis, lss_types::BudgetError> {
        budget
            .check_deadline_now("analyze")
            .map_err(|e| e.with_progress("before dependency-graph construction"))?;
        let wires = netlist.flatten();
        let deps = leaf_dep_graph(netlist, &wires, comb);
        let ctx = AnalysisCtx {
            netlist,
            wires: &wires,
            deps: &deps,
            comb,
        };
        let mut findings = Vec::new();
        for (i, pass) in self.passes.iter().enumerate() {
            budget.check_deadline_now("analyze").map_err(|e| {
                e.with_progress(format!(
                    "{i} of {} passes completed, {} finding(s) so far",
                    self.passes.len(),
                    findings.len()
                ))
            })?;
            pass.run(&ctx, &mut findings);
        }
        findings.retain(|f| !config.is_allowed(f.code));
        findings.sort_by(|a, b| {
            (a.code, &a.subject, &a.message).cmp(&(b.code, &b.subject, &b.message))
        });
        let denied = findings
            .iter()
            .filter(|f| config.is_denied(f.code, f.severity))
            .count();
        Ok(Analysis { findings, denied })
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .finish()
    }
}

/// The result of one analyzer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Findings after allow-filtering, sorted by (code, subject, message).
    pub findings: Vec<Finding>,
    /// How many findings are denied under the configuration used — the CI
    /// gate: nonzero means the check fails.
    pub denied: usize,
}

impl Analysis {
    /// Finding counts by severity: (errors, warnings, infos).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for f in &self.findings {
            match f.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Info => counts.2 += 1,
            }
        }
        counts
    }

    /// True when nothing was found at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings carrying a given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.code == code)
    }
}
