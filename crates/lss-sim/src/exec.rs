//! The static scheduler's execution plan and its injected kernel faults.
//!
//! `lss-analyze`'s `Condensation::stages` groups the SCCs of the analyzer's
//! Tarjan condensation into *stages* — sets of mutually independent
//! schedule units, in dependency order. The plan records, per stage, which
//! units run as devirtualized [`Kernel`](crate::kernel::Kernel)s and which
//! stay on the serial dyn `Component` path (behaviors without a lowering,
//! and fixpoint blocks, which need the dyn path's change detection).
//!
//! Kernels in one stage never read each other's outputs, so the engine
//! runs a stage's kernels in order on one thread and each writes straight
//! into the value arena; the order is fixed once, when the plan is built.

/// Deliberately injected kernel-stage bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each is a
/// direct-write fault that breaks an invariant the staged executor relies
/// on, and the differential harness must catch (and minimize) the
/// resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale stage commit: the last kernel write of every stage is
    /// retracted, as if one kernel's output never made it into the arena.
    StaleCommit,
    /// A skipped stage barrier: every kernel write is moved out of the
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

/// One serial (non-kernel) unit of a stage.
#[derive(Debug, Clone, Copy)]
pub struct SerialStep {
    /// Window start into [`CompiledPlan::serial_order`].
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// True for a combinational-cycle fixpoint block.
    pub fixpoint: bool,
}

/// One stage of the static plan: a window of mutually independent kernels
/// plus a window of serial steps.
#[derive(Debug, Clone, Copy)]
pub struct StageInfo {
    /// Kernel window start into the engine's kernel vector.
    pub kstart: usize,
    /// Kernel window length.
    pub klen: usize,
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
    /// Serial steps, windowed by [`StageInfo`].
    pub serial_steps: Vec<SerialStep>,
    /// Component indices backing the serial steps.
    pub serial_order: Vec<usize>,
}
