//! The static scheduler's plan and its injected faults.
//!
//! The plan is the SCCs of `lss-analyze`'s Tarjan condensation in the
//! topological order [`Condensation::sccs`] already has, fixed once when
//! the simulator is built (LSE's static schedule, \[12\]). Each acyclic SCC
//! is one leaf, evaluated once per cycle with no change detection; each
//! cyclic SCC is a fixpoint block, iterated with change detection until
//! its outputs stop changing. Every leaf's inputs are settled before it
//! runs, so each leaf writes straight into the value arena.

use std::ops::Range;

use lss_analyze::Condensation;

/// Deliberately injected static-leaf bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each is a
/// direct-write fault on a static leaf's writes that breaks an invariant
/// the static plan relies on, and the differential harness must catch
/// (and minimize) the resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale commit: the last write of every static leaf is retracted,
    /// as if that output never made it into the arena.
    StaleCommit,
    /// A skipped barrier: every static leaf's writes are moved out of the
    /// arena and written back only after the whole settle pass, so the
    /// leaves after it read cycle-start (absent) values instead of their
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

/// The static schedule: every leaf, SCC by SCC, in topological order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plan {
    /// Component indices; the members of one SCC are consecutive.
    pub(crate) order: Vec<usize>,
    /// The cyclic SCCs (fixpoint blocks) as windows into `order`, in
    /// order. Every position outside a block is one static leaf.
    pub(crate) blocks: Vec<Range<usize>>,
}

impl Plan {
    pub(crate) fn new(cond: &Condensation) -> Plan {
        let mut plan = Plan::default();
        for (scc, &cyclic) in cond.sccs.iter().zip(&cond.cyclic) {
            let start = plan.order.len();
            plan.order.extend_from_slice(scc);
            if cyclic {
                plan.blocks.push(start..plan.order.len());
            }
        }
        plan
    }

    /// Number of leaves outside fixpoint blocks.
    pub(crate) fn static_leaves(&self) -> usize {
        let in_blocks: usize = self.blocks.iter().map(|b| b.len()).sum();
        self.order.len() - in_blocks
    }

    /// The units in order: each its components, and whether it is a
    /// fixpoint block.
    pub(crate) fn units(&self) -> Vec<(&[usize], bool)> {
        let mut units = Vec::with_capacity(self.order.len());
        let mut next = 0;
        for block in &self.blocks {
            units.extend(self.order[next..block.start].chunks(1).map(|c| (c, false)));
            units.push((&self.order[block.clone()], true));
            next = block.end;
        }
        units.extend(self.order[next..].chunks(1).map(|c| (c, false)));
        units
    }
}
