//! The LSS type system and inference engine (§5 of the PLDI 2004 paper).
//!
//! Provides:
//!
//! * [`Ty`] — ground basic types (`int`, arrays, structs, ...);
//! * [`Scheme`] — type schemes with variables and *disjunctions*
//!   (component overloading);
//! * [`Datum`] — runtime values inhabiting ground types;
//! * [`ConstraintSet`] — the conjunction of scheme equalities gathered from
//!   a model's ports and connections;
//! * [`solve()`](solve()) — the modified unification algorithm with the paper's three
//!   heuristics (constraint reordering, smart disjunction resolution,
//!   divide-and-conquer partitioning), each independently switchable via
//!   [`SolverConfig`] for ablation studies;
//! * [`sat`] — the 3-SAT reduction evidencing NP-completeness;
//! * [`gen`] — constraint-family generators for the scaling benchmarks.
//!
//! # Example
//!
//! ```
//! use lss_types::{solve, ConstraintSet, Scheme, SolverConfig, Ty, TyVar};
//!
//! // An overloaded ALU port (int|float) connected to a float register file.
//! let mut set = ConstraintSet::new();
//! set.push_eq(Scheme::Var(TyVar(0)), Scheme::Or(vec![Scheme::Int, Scheme::Float]));
//! set.push_eq(Scheme::Var(TyVar(0)), Scheme::Float);
//! let solution = solve(&set, &SolverConfig::heuristic())?;
//! assert_eq!(solution.ty_of(TyVar(0)), Some(Ty::Float));
//! # Ok::<(), lss_types::SolveError>(())
//! ```

#![warn(missing_docs)]
// User-reachable failure paths must surface diagnostics, not panics
// (tests opt back in per-module).
#![warn(clippy::unwrap_used)]

pub mod budget;
pub mod constraint;
pub mod gen;
pub mod memo;
pub mod rng;
pub mod sat;
pub mod solve;
pub mod ty;
pub mod unify;
pub mod value;

pub use budget::{Budget, BudgetCaps, BudgetError, BudgetKind};
pub use constraint::{Constraint, ConstraintOrigin, ConstraintSet};
pub use memo::{partition_key, MemoryMemo, PartitionMemo};
pub use rng::SplitMix64;
pub use solve::{
    partition, solve, solve_with_memo, Solution, SolveError, SolveStats, SolverConfig,
};
pub use ty::{Scheme, Ty, TyVar, VarGen};
pub use unify::{unifiable, unify, Subst, UnifyError, UnifyStats};
pub use value::{Datum, Layout, Record};
