//! `LSS101` — the combinational-cycle detector, the hardware analog of a
//! race detector.
//!
//! Works on the *port-granularity* dependency graph
//! ([`LeafDepGraph::ports`](crate::graph::LeafDepGraph)): wire edges plus
//! internal input→output edges for every pair the behaviors did not
//! declare independent. A leaf-level loop (a credit handshake, a cache
//! request/response pair) is legal — the independent internal paths let
//! the static scheduler run it as a fixed evaluation sequence — but
//! a cyclic SCC *here* means a value would have to depend on itself within
//! one zero-delay timestep, which no amount of iteration resolves. The
//! report names the full port path of one concrete cycle through the SCC
//! and, as notes, the inputs where a registered component would break it.

use std::collections::HashMap;

use crate::diag::{Code, Finding};
use crate::{AnalysisCtx, Pass};

/// Detects unbroken zero-delay combinational cycles (`LSS101`).
pub struct CombCyclePass;

impl Pass for CombCyclePass {
    fn name(&self) -> &'static str {
        "comb-cycles"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::CombCycle]
    }

    fn run(&self, ctx: &AnalysisCtx<'_>, findings: &mut Vec<Finding>) {
        let cond = ctx.deps.ports.condense();
        for scc in cond.cycles() {
            let cycle = concrete_cycle(ctx, scc);
            let name_of = |node: usize| {
                let (leaf, port) = ctx.deps.port_of_node(node);
                let inst = ctx.netlist.instance(ctx.deps.leaves[leaf]);
                format!("{}.{}", inst.path, ctx.netlist.name(inst.ports[port].name))
            };
            // Render the loop as a closed port path; distinct instance
            // count gives the headline size.
            let mut path: Vec<String> = cycle.iter().map(|&(a, _)| name_of(a)).collect();
            path.push(name_of(cycle[0].0));
            let mut insts: Vec<usize> = cycle
                .iter()
                .map(|&(a, _)| ctx.deps.port_of_node(a).0)
                .collect();
            insts.sort_unstable();
            insts.dedup();
            let (leaf, _) = ctx.deps.port_of_node(scc[0]);
            let subject = ctx.netlist.instance(ctx.deps.leaves[leaf]).path.clone();
            let mut finding = Finding::new(
                Code::CombCycle,
                subject,
                format!(
                    "unbroken zero-delay cycle through {} component(s): {}",
                    insts.len(),
                    path.join(" -> ")
                ),
            );
            for &(a, b) in &cycle {
                if let Some(wire) = ctx.deps.port_wire(a, b) {
                    finding = finding.with_note(format!(
                        "registering `{}` (consuming it in end_of_timestep, as corelib \
                         `delay`/`latch`/`queue` do) would break this cycle",
                        ctx.netlist.endpoint_name(wire.dst)
                    ));
                }
            }
            findings.push(finding);
        }
    }
}

/// One concrete cycle through `scc`, as a list of port-graph edges
/// `(a, b)` starting and ending at the SCC's first member. Found by BFS
/// restricted to the SCC, so the reported loop is a shortest one through
/// that member.
fn concrete_cycle(ctx: &AnalysisCtx<'_>, scc: &[usize]) -> Vec<(usize, usize)> {
    let graph = &ctx.deps.ports;
    let start = scc[0];
    let in_scc: HashMap<usize, ()> = scc.iter().map(|&v| (v, ())).collect();
    // Self-loop: the one-edge cycle.
    if graph.has_edge(start, start) {
        return vec![(start, start)];
    }
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for &w in graph.successors(v) {
            if !in_scc.contains_key(&w) {
                continue;
            }
            if w == start {
                // Reconstruct start -> ... -> v -> start.
                let mut nodes = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = parent[&cur];
                    nodes.push(cur);
                }
                nodes.reverse();
                let mut edges: Vec<(usize, usize)> =
                    nodes.windows(2).map(|p| (p[0], p[1])).collect();
                edges.push((v, start));
                return edges;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(w) {
                e.insert(v);
                queue.push_back(w);
            }
        }
    }
    unreachable!("an SCC with >1 member always has a cycle through each member")
}
