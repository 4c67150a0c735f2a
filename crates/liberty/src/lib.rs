//! The Liberty Simulation Environment.
//!
//! Ties the pipeline of Figure 4 together: LSS sources are
//! parsed, *executed at compile time* into a netlist (deferred-evaluation
//! semantics with use-based specialization), statically analyzed (the §5
//! type-inference engine), and combined with leaf behaviors from the
//! component registry into an executable simulator.
//!
//! Every stage goes through [`lss_driver::Driver`]:
//! [`Driver::parse`](lss_driver::Driver::parse),
//! [`Driver::elaborate`](lss_driver::Driver::elaborate),
//! [`Driver::analyze`](lss_driver::Driver::analyze) and
//! [`Driver::simulator`](lss_driver::Driver::simulator), with per-stage
//! [`StageTimings`] and the content-addressed netlist cache
//! ([`Driver::set_cache_dir`](lss_driver::Driver::set_cache_dir)). This
//! crate re-exports the pipeline crates and ships the `lssc` CLI. See
//! `docs/PIPELINE.md` for the stage graph.
//!
//! # Example
//!
//! ```
//! use liberty::Driver;
//!
//! let mut driver = Driver::with_corelib();
//! driver.add_source(
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
//! let elaborated = driver.elaborate()?;
//! assert_eq!(elaborated.netlist.instances.len(), 6);
//! let mut sim = driver.simulator(&elaborated.netlist)?;
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
