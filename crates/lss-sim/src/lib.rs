//! Simulation substrate for elaborated LSS netlists.
//!
//! This crate is the execution half of the Liberty Simulation Environment
//! reproduction: it turns a typed [`lss_netlist::Netlist`] into a runnable
//! clock-accurate simulator.
//!
//! * [`component`] — the [`Component`] behavior trait, [`CompSpec`]
//!   configuration, each behavior's static scheduling facts ([`Deps`]),
//!   and the [`ComponentRegistry`] keyed by `tar_file` strings (our
//!   substitute for the paper's BSL `.tar` payloads);
//! * [`bsl`] — the interpreter for userpoint and collector BSL code;
//! * [`slots`] — flat name/value tables ([`SlotTable`]) that back runtime
//!   variables and collector state without per-cycle hashing;
//! * [`engine`] — the cycle engine with the static scheduler (the
//!   analyzer's condensation in topological order, leaf-level cycles as
//!   fixed evaluation sequences, LSE's optimization of \[12\]) and a
//!   SystemC-style dynamic (worklist fixpoint) baseline,
//!   plus the aspect-oriented event/collector instrumentation of §4.5. Both
//!   schedulers call every leaf through [`Component::eval_in`] with the
//!   engine's concrete [`Ctx`]; a behavior written once, generic over
//!   [`CompCtx`], is thereby specialized to the value arena, as LSE's code
//!   generator specializes one BSL source per component;
//! * [`exec`] — the static plan, its fixed evaluation sequences and the
//!   injected static-plan mutations for the differential harness;
//! * [`wave`] — VCD and ASCII waveform output from the firing log.

#![warn(missing_docs)]

pub mod bsl;
pub mod component;
pub mod engine;
pub mod exec;
pub mod slots;
pub mod wave;

pub use bsl::{compile_bsl, datum_binary, exec, BslEnv, BslProgram};
pub use component::{
    BuildError, CompCtx, CompSpec, Component, ComponentRegistry, Deps, PortSpec, SimError,
};
pub use engine::{
    build, comb_info, leaf_spec, Ctx, FiringRecord, Scheduler, SimOptions, SimStats, Simulator,
    BSL_MAX_STEPS,
};
pub use exec::KernelMutation;
pub use slots::SlotTable;
pub use wave::{to_ascii, to_vcd};
