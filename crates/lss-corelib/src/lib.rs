//! The Liberty reusable component library.
//!
//! Mirrors the paper's shared 22-component library (Table 2): LSS module
//! declarations (`corelib.lss`, exposed via [`corelib_source`]) plus their
//! Rust leaf behaviors keyed by `tar_file` (our documented substitute for
//! the paper's BSL `.tar` payloads), a [`registry()`](registry()) binding them together,
//! and the synthetic instruction workload generator in [`instr`].
//!
//! # Example
//!
//! ```
//! use lss_corelib::{corelib_source, registry};
//!
//! let src = corelib_source();
//! assert!(src.contains("module delayn"));
//! assert_eq!(registry().len(), 22);
//! ```

#![warn(missing_docs)]
// Behavior factories are `Foo::new(spec) -> Result<Box<dyn Component>, _>`
// by design: the registry stores them as uniform `Factory` fns.
#![allow(clippy::new_ret_no_self)]

/// Implements [`lss_sim::Component::eval`] and
/// [`lss_sim::Component::eval_in`] by forwarding both to the behavior's one
/// body, `eval_on`, which is generic over `C: CompCtx + ?Sized`: RefSim
/// and custom contexts run it through `dyn CompCtx`, the engine runs the
/// copy specialized to its own context.
macro_rules! eval_body {
    () => {
        fn eval(&mut self, ctx: &mut dyn lss_sim::CompCtx) -> Result<(), lss_sim::SimError> {
            self.eval_on(ctx)
        }

        fn eval_in(&mut self, ctx: &mut lss_sim::Ctx<'_>) -> Result<(), lss_sim::SimError> {
            self.eval_on(ctx)
        }
    };
}

/// [`eval_body!`] for `end_of_timestep`: forwards both entries to the
/// behavior's generic `end_of_timestep_on`.
macro_rules! end_of_timestep_body {
    () => {
        fn end_of_timestep(
            &mut self,
            ctx: &mut dyn lss_sim::CompCtx,
        ) -> Result<(), lss_sim::SimError> {
            self.end_of_timestep_on(ctx)
        }

        fn end_of_timestep_in(
            &mut self,
            ctx: &mut lss_sim::Ctx<'_>,
        ) -> Result<(), lss_sim::SimError> {
            self.end_of_timestep_on(ctx)
        }
    };
}

pub mod behaviors {
    //! Rust implementations of the corelib leaf behaviors.
    pub mod basic;
    pub mod compute;
    pub mod cpu;
    pub mod flow;
}
pub mod instr;
pub mod registry;

pub use instr::{instr_ty, Instr, Mix, OpClass, Workload, INSTR_TYPE_LSS};
pub use registry::registry;

/// Corelib revision, recorded in driver cache envelopes. The cache key
/// itself covers the full corelib *text* (it is hashed as a source unit),
/// so this only needs to change when behavior changes without the LSS
/// source changing (e.g. a leaf behavior fix in Rust).
pub const VERSION: &str = "3";

/// The corelib LSS source with the instruction struct type spliced in.
///
/// Built once per process; every session shares the same static text.
pub fn corelib_source() -> &'static str {
    static SRC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SRC.get_or_init(|| include_str!("../lss/corelib.lss").replace("INSTR_T", INSTR_TYPE_LSS))
}
