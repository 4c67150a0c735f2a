//! The static scheduler's execution plan and its injected faults.
//!
//! `lss-analyze`'s `Condensation::stages` groups the SCCs of the analyzer's
//! Tarjan condensation into *stages* — sets of mutually independent
//! schedule units, in dependency order. The plan records, per stage, a
//! *static window* of acyclic leaves without userpoints, each evaluated
//! once per cycle with no change detection, and the serial steps that
//! follow it: leaves with userpoints, and fixpoint blocks, which need
//! change detection.
//!
//! Leaves in one stage never read each other's outputs, so the engine
//! runs a stage's window in order on one thread and each leaf writes
//! straight into the value arena; the order is fixed once, when the plan
//! is built.

/// Deliberately injected static-window bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each is a
/// direct-write fault on a stage window's writes that breaks an invariant
/// the staged executor relies on, and the differential harness must catch
/// (and minimize) the resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale stage commit: the last write of every stage window is
    /// retracted, as if one leaf's output never made it into the arena.
    StaleCommit,
    /// A skipped stage barrier: every stage-window write is moved out of the
    /// arena and written back only after the whole settle pass, so
    /// downstream stages read cycle-start (absent) values instead of their
    /// inputs.
    SkipBarrier,
}

impl KernelMutation {
    /// Parses a CLI name (`stale-commit`, `skip-barrier`).
    pub fn parse(name: &str) -> Option<KernelMutation> {
        match name {
            "stale-commit" => Some(KernelMutation::StaleCommit),
            "skip-barrier" => Some(KernelMutation::SkipBarrier),
            _ => None,
        }
    }
}

/// One serial unit of a stage: a leaf with userpoints, or a fixpoint
/// block.
#[derive(Debug, Clone, Copy)]
pub struct SerialStep {
    /// Window start into [`CompiledPlan::serial_order`].
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// True for a combinational-cycle fixpoint block.
    pub fixpoint: bool,
}

/// One stage of the static plan: a window of mutually independent leaves
/// plus a window of serial steps.
#[derive(Debug, Clone, Copy)]
pub struct StageInfo {
    /// Static-window start into [`CompiledPlan::leaves`].
    pub lstart: usize,
    /// Static-window length.
    pub llen: usize,
    /// Serial-step window start into [`CompiledPlan::serial_steps`].
    pub sstart: usize,
    /// Serial-step window length.
    pub slen: usize,
}

/// The staged schedule the static scheduler executes.
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    /// Stages in dependency order.
    pub stages: Vec<StageInfo>,
    /// The static windows' leaves, windowed by [`StageInfo`].
    pub leaves: Vec<usize>,
    /// Serial steps, windowed by [`StageInfo`].
    pub serial_steps: Vec<SerialStep>,
    /// Component indices backing the serial steps.
    pub serial_order: Vec<usize>,
}
