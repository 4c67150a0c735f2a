//! The Liberty Simulation Environment facade.
//!
//! Ties the pipeline of Figure 4 together behind one API: LSS sources are
//! parsed, *executed at compile time* into a netlist (deferred-evaluation
//! semantics with use-based specialization), statically analyzed (the §5
//! type-inference engine), and combined with leaf behaviors from the
//! component registry into an executable simulator.
//!
//! Since the staged-driver refactor, [`Lse`] is a thin veneer over
//! [`lss_driver::Driver`] — the session dereferences to the driver, so
//! every stage method ([`Driver::parse`](lss_driver::Driver::parse),
//! [`Driver::elaborate`](lss_driver::Driver::elaborate),
//! [`Driver::analyze`](lss_driver::Driver::analyze),
//! [`Driver::build_simulator`](lss_driver::Driver::build_simulator)),
//! the per-stage [`StageTimings`], and the content-addressed netlist
//! cache ([`Driver::set_cache_dir`](lss_driver::Driver::set_cache_dir))
//! are available here too. See `docs/PIPELINE.md` for the stage graph.
//!
//! # Example
//!
//! ```
//! use liberty::Lse;
//!
//! let mut lse = Lse::with_corelib();
//! lse.add_source(
//!     "model.lss",
//!     r#"
//!     instance gen:source;
//!     instance chain:delayn;
//!     chain.n = 3;
//!     instance hole:sink;
//!     gen.out -> chain.in;
//!     chain.out -> hole.in;
//!     "#,
//! );
//! let compiled = lse.compile()?;
//! assert_eq!(compiled.netlist.instances.len(), 6);
//! let mut sim = lse.simulator(&compiled.netlist)?;
//! sim.run(10)?;
//! assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(10));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use lss_analyze as analyze;
pub use lss_ast as ast;
pub use lss_corelib as corelib;
pub use lss_driver as driver;
pub use lss_interp as interp;
pub use lss_models as models;
pub use lss_netlist as netlist;
pub use lss_sim as sim;
pub use lss_types as types;

pub use lss_analyze::{Analysis, AnalysisConfig};
pub use lss_driver::{
    Analyzed, CacheOutcome, Driver, DriverError, Elaborated, Parsed, SimReady, Stage, StageTimings,
};
pub use lss_interp::CompileOptions;
pub use lss_netlist::{reuse_stats, Netlist, ReuseStats};
pub use lss_sim::{
    build_batch, BatchSim, KernelMutation, Scheduler, SimOptions, SimStats, Simulator,
};
pub use lss_types::SolverConfig;

/// The elaborated artifact, under the name the pre-driver facade used.
pub type Compiled = Elaborated;

/// A compilation session: sources, options, and the behavior registry.
///
/// Dereferences to the underlying [`Driver`], so all stage methods,
/// cache configuration, and timings are usable directly on the session.
#[derive(Debug, Default)]
pub struct Lse {
    driver: Driver,
}

impl Lse {
    /// An empty session with an empty registry.
    pub fn new() -> Self {
        Lse {
            driver: Driver::new(),
        }
    }

    /// A session preloaded with the corelib modules and behaviors. The
    /// corelib AST is parsed once per process and shared across sessions.
    pub fn with_corelib() -> Self {
        Lse {
            driver: Driver::with_corelib(),
        }
    }

    /// Elaborates and type-checks everything added so far, returning the
    /// artifact by value (sessions that keep compiling share it through
    /// the driver's internal [`std::sync::Arc`], so this clone is the
    /// only deep copy).
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's [`DriverError`]; its `Display`
    /// is the rendered diagnostics.
    pub fn compile(&mut self) -> Result<Compiled, DriverError> {
        self.driver.elaborate().map(|arc| (*arc).clone())
    }
}

impl std::ops::Deref for Lse {
    type Target = Driver;

    fn deref(&self) -> &Driver {
        &self.driver
    }
}

impl std::ops::DerefMut for Lse {
    fn deref_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_sim::ComponentRegistry;

    #[test]
    fn corelib_session_compiles_and_simulates() {
        let mut lse = Lse::with_corelib();
        lse.add_source(
            "m.lss",
            "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;",
        );
        let compiled = lse.compile().expect("compiles");
        assert_eq!(compiled.netlist.instances.len(), 2);
        let mut sim = lse.simulator(&compiled.netlist).expect("builds");
        sim.run(5).unwrap();
        assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(5));
    }

    #[test]
    fn parse_errors_are_reported_at_compile() {
        let mut lse = Lse::with_corelib();
        lse.add_source("bad.lss", "instance x:");
        let err = lse.compile().unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert!(err.to_string().contains("expected identifier"), "{err}");
    }

    #[test]
    fn elaboration_errors_are_rendered() {
        let mut lse = Lse::with_corelib();
        lse.add_source("m.lss", "instance x:nonexistent_module;");
        let err = lse.compile().unwrap_err();
        assert_eq!(err.stage, Stage::Elaborate);
        assert!(err.to_string().contains("unknown module"), "{err}");
    }

    #[test]
    fn empty_registry_fails_at_simulator_build() {
        let mut lse = Lse::with_corelib();
        lse.set_registry(ComponentRegistry::new());
        lse.add_source("m.lss", "instance gen:source;\ngen.out :: int;");
        let compiled = lse.compile().unwrap();
        let err = lse.simulator(&compiled.netlist).unwrap_err();
        assert_eq!(err.stage, Stage::SimBuild);
        assert!(err.to_string().contains("no behavior registered"), "{err}");
    }
}
