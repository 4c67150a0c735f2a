//! The static scheduler's plan and its injected faults.
//!
//! The plan is fixed once when the simulator is built (LSE's static
//! schedule, \[12\]). It walks the SCCs of `lss-analyze`'s leaf-level
//! condensation in topological order:
//!
//! * an acyclic SCC is one leaf, evaluated once per cycle with no change
//!   detection;
//! * a cyclic SCC whose members' ports form an acyclic subgraph of the
//!   port-level graph (a credit handshake, a cache over its next level) is
//!   a fixed *sequence* of evaluations, taken from that subgraph's
//!   topological order (see `sequence`);
//! * a cyclic SCC that is also cyclic at port granularity — exactly what
//!   `LSS101` reports — is a fixpoint block, iterated with change
//!   detection until its outputs stop changing.
//!
//! A leaf that appears once in the plan is a *static leaf*: its inputs are
//! settled before it runs and its outputs start the cycle absent, so it
//! writes straight into the value arena. A leaf that a sequence evaluates
//! more than once retracts, at each evaluation, the lanes it does not
//! rewrite; it takes no snapshot, makes no compare and never iterates.

use std::collections::HashMap;
use std::ops::Range;

use lss_analyze::{DepGraph, LeafDepGraph};

/// Deliberately injected static-plan bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each is a
/// direct-write fault on the writes of every evaluation outside fixpoint
/// blocks (static leaves and repeated evaluations alike) that breaks an
/// invariant the static plan relies on, and the differential harness must
/// catch (and minimize) the resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale commit: the last new write of every evaluation is
    /// retracted, as if that output never made it into the arena.
    StaleCommit,
    /// A skipped barrier: every evaluation's new writes are moved out of
    /// the arena and written back only after the whole settle pass, so the
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

/// How a window of [`Plan::order`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Window {
    /// Evaluations of leaves that a sequence runs more than once per
    /// cycle: each retracts the lanes it does not rewrite.
    Repeated,
    /// A fixpoint block: the members of a port-level combinational cycle,
    /// iterated until their outputs stop changing.
    Block,
}

/// The static schedule: every evaluation of one cycle, in order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plan {
    /// Component indices, one per evaluation; a block's members are
    /// consecutive.
    pub(crate) order: Vec<usize>,
    /// The windows of `order` that are not static leaves, in order. Every
    /// position outside a window is one static leaf.
    pub(crate) windows: Vec<(Range<usize>, Window)>,
}

impl Plan {
    pub(crate) fn new(deps: &LeafDepGraph) -> Plan {
        let cond = deps.graph.condense();
        let mut plan = Plan::default();
        for (scc, &cyclic) in cond.sccs.iter().zip(&cond.cyclic) {
            let start = plan.order.len();
            if !cyclic {
                plan.order.push(scc[0]);
                continue;
            }
            let Some(seq) = sequence(deps, scc) else {
                plan.order.extend_from_slice(scc);
                plan.windows.push((start..plan.order.len(), Window::Block));
                continue;
            };
            for &comp in &seq {
                let at = plan.order.len();
                plan.order.push(comp);
                if seq.iter().filter(|&&c| c == comp).count() == 1 {
                    continue;
                }
                match plan.windows.last_mut() {
                    Some((w, Window::Repeated)) if w.end == at => w.end = at + 1,
                    _ => plan.windows.push((at..at + 1, Window::Repeated)),
                }
            }
        }
        plan
    }

    /// Number of evaluations in `kind` windows.
    pub(crate) fn window_len(&self, kind: Window) -> usize {
        self.windows
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(w, _)| w.len())
            .sum()
    }

    /// Number of static leaves: evaluations outside every window.
    pub(crate) fn static_leaves(&self) -> usize {
        self.order.len() - self.window_len(Window::Repeated) - self.window_len(Window::Block)
    }

    /// The units in order: each its components, and whether it is a
    /// fixpoint block. Every evaluation outside a block is one unit.
    pub(crate) fn units(&self) -> Vec<(&[usize], bool)> {
        let mut units = Vec::with_capacity(self.order.len());
        let mut next = 0;
        for (w, kind) in &self.windows {
            if *kind == Window::Block {
                units.extend(self.order[next..w.start].chunks(1).map(|c| (c, false)));
                units.push((&self.order[w.clone()], true));
                next = w.end;
            }
        }
        units.extend(self.order[next..].chunks(1).map(|c| (c, false)));
        units
    }
}

/// The fixed evaluation sequence of the leaf-level cycle `members`, or
/// `None` when their ports form a cycle of the port-level graph.
///
/// The sequence follows the topological order of the members' own port
/// subgraph. Where an output that a member reads becomes computable, its
/// leaf runs if one of its inputs may have changed since its last run (or
/// it has not run yet); that run may change what every member reading it
/// sees. Afterwards, each member whose inputs may have changed since its
/// last run runs once more, so every member's last evaluation sees settled
/// inputs. This is sound when each behavior keeps its dependency contract
/// (an output does not read an input its [`Deps`](crate::Deps) exclude)
/// and a repeated
/// `eval` leaves what a single one with the final inputs would.
fn sequence(deps: &LeafDepGraph, members: &[usize]) -> Option<Vec<usize>> {
    // The members' port nodes, renumbered densely, and each one's member.
    let nodes: Vec<usize> = members.iter().flat_map(|&m| deps.port_nodes(m)).collect();
    let local: HashMap<usize, usize> = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let owner: Vec<usize> = members
        .iter()
        .enumerate()
        .flat_map(|(i, &m)| deps.port_nodes(m).map(move |_| i))
        .collect();
    let mut sub = DepGraph::new(nodes.len());
    // Per node, the members reading it through a wire (outputs only).
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, &v) in nodes.iter().enumerate() {
        for w in deps.ports.successors(v) {
            let Some(&j) = local.get(w) else { continue };
            sub.add_edge(i, j);
            if deps.port_wire(v, *w).is_some() && !readers[i].contains(&owner[j]) {
                readers[i].push(owner[j]);
            }
        }
    }
    let cond = sub.condense();
    if cond.cycle_count() > 0 {
        return None;
    }
    // `settled[i]`: output node `i` has reached its point, so no later run
    // of its member changes it. `stale[m]`: an input of member `m` may have
    // changed since its last run, or it has not run yet.
    let mut settled = vec![false; nodes.len()];
    let mut stale = vec![true; members.len()];
    let mut seq = Vec::new();
    for scc in &cond.sccs {
        let node = scc[0];
        let m = owner[node];
        if readers[node].is_empty() {
            continue;
        }
        if stale[m] {
            seq.push(members[m]);
            stale[m] = false;
            for o in (0..nodes.len()).filter(|&o| owner[o] == m && !settled[o]) {
                for &r in &readers[o] {
                    stale[r] = true;
                }
            }
        }
        settled[node] = true;
    }
    seq.extend((0..members.len()).filter(|&m| stale[m]).map(|m| members[m]));
    Some(seq)
}
