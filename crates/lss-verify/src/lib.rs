//! Differential testing for the LSS reproduction.
//!
//! The production stack earns its performance with cleverness: the type
//! solver prunes an exponential disjunction search with the §5 heuristics,
//! and the simulator replaces event-driven evaluation with a static
//! schedule. Cleverness is where bugs hide, so this crate checks both
//! against deliberately *dumb* oracles on randomly generated programs:
//!
//! * [`gen`] — a structure-aware generator of well-formed `.lss` programs
//!   (seeded, deterministic): polymorphic component chains, disjunctive
//!   `alu` overloads, `wrapN` hierarchy, use-based-specialization clusters
//!   around `cache`/`bp`, and instrumentation collectors.
//! * [`exhaustive`] — a brute-force type solver that enumerates every
//!   disjunct combination and unifies each one, compared against
//!   `lss_types::solve` for verdict agreement *and* solution validity.
//! * [`refsim`] — a naive global-fixpoint simulator sharing only the
//!   behavior registry with the engine, compared cycle-by-cycle on a
//!   canonical state dump.
//! * [`minimize`] — a ddmin-style delta debugger that shrinks any
//!   discrepancy to a minimal `.lss` repro file under `target/verify/`.
//! * [`fuzz`] — the orchestrating loop behind `lssc fuzz`, with
//!   `lssc difftest` replaying single files (the checked-in corpus under
//!   `tests/corpus/` goes through the same path).
//! * [`protocol`] — the agreement loop behind `lssc fuzz --protocols`:
//!   planted protocol bugs (credit over-issue, role flips, deadlocking
//!   custom automata) checked for static-pass/runtime-monitor agreement.
//! * [`adversarial`] — the crash-fuzzing loop behind
//!   `lssc fuzz --adversarial`: hostile (mutated and malformed) inputs
//!   checked against the robustness contract — no panics, bounded
//!   wall-clock, located parse errors — rather than a semantic oracle.

#![warn(missing_docs)]

pub mod adversarial;
pub mod difftest;
pub mod exhaustive;
pub mod fuzz;
pub mod gen;
pub mod minimize;
pub mod protocol;
pub mod refsim;

pub use adversarial::{run_adversarial, AdversarialConfig, AdversarialFinding, AdversarialReport};
pub use difftest::{
    check_binary_roundtrip, compile_root, compile_source, diff_netlist, diff_project_vs_single,
    difftest_root, difftest_source, DiffOptions, Discrepancy,
};
pub use exhaustive::{check_types, solve_exhaustive, ExhaustiveConfig, TypeDiscrepancy, Verdict};
pub use fuzz::{run_fuzz, Finding, FuzzConfig, FuzzReport};
pub use gen::{generate, GenConfig, Spec};
pub use minimize::{minimize, write_repro, Minimized};
pub use protocol::{
    run_protocol_fuzz, ProtocolFinding, ProtocolFuzzConfig, ProtocolFuzzReport, ProtocolMutation,
};
pub use refsim::{Mutation, RefSim};

/// Re-exported so harness callers can inject compiled-engine bugs without
/// depending on `lss-sim` directly.
pub use lss_sim::KernelMutation;
