//! The zero-delay dependency graph and its acyclic condensation.
//!
//! This module is the single source of truth for combinational edges: the
//! analyzer's cycle detector ([`crate::passes::cycles`]) and the
//! simulator's static scheduler (`lss_sim::build`, which runs the SCCs in
//! [`Condensation::sccs`] order) both consume the [`Condensation`]
//! computed here, so they can never disagree about what is a cycle.
//!
//! Two granularities are built from one wire scan:
//!
//! * **leaf level** ([`LeafDepGraph::graph`]) — an edge `A → B` for every
//!   flattened wire from an output of leaf `A` to an input of leaf `B`
//!   *that `B` reads combinationally* (state elements consume their inputs
//!   at `end_of_timestep`, which is what breaks synchronous feedback
//!   loops). Components evaluate as a unit, so this is the graph the
//!   static scheduler condenses first;
//! * **port level** ([`LeafDepGraph::ports`]) — nodes are individual leaf
//!   ports; wire edges connect outputs to combinational inputs, and
//!   *internal* edges connect each combinational input to the outputs
//!   whose `eval` value actually reads it. Behaviors with independent port
//!   paths (a credit output computed from buffer occupancy alone, a cache
//!   `lower_req` that does not read `lower_resp`) break apparent loops
//!   here: a credit handshake is a leaf-level cycle — the scheduler orders
//!   its members by their own port subgraph and runs them as a fixed
//!   sequence — but only a *port-level* cycle is a true unbroken
//!   zero-delay loop, which is what `LSS101` reports and what the
//!   scheduler iterates to a fixpoint.
//!
//! Which inputs are combinational and which output→input pairs are
//! independent comes from each behavior's registered declaration via
//! [`CombInfo`] (`lss_sim::comb_info`, which builds no behavior); without
//! a declaration, every input conservatively counts as combinational and
//! every output depends on every input.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use lss_netlist::{Dir, InstanceId, Netlist, PortId, Wire};

/// Per-input combinational info and per-pair output independence, keyed by
/// `(instance, port)`.
///
/// Inputs are combinational and outputs depend on every combinational
/// input unless marked otherwise, so an empty map is the conservative "no
/// behavior information" default.
#[derive(Debug, Clone, Default)]
pub struct CombInfo {
    non_comb: BTreeSet<(InstanceId, PortId)>,
    /// `(inst, output, input)` triples where the output's `eval` value is
    /// known *not* to read the (combinational) input.
    independent: BTreeSet<(InstanceId, PortId, PortId)>,
}

impl CombInfo {
    /// Everything combinational (no registered state elements known).
    pub fn all_combinational() -> Self {
        Self::default()
    }

    /// Marks an input as *registered*: its component consumes it in
    /// `end_of_timestep`, so the input breaks zero-delay cycles.
    pub fn set_non_combinational(&mut self, inst: InstanceId, port: PortId) {
        self.non_comb.insert((inst, port));
    }

    /// Whether `eval` of `inst` reads `port` combinationally.
    pub fn is_combinational(&self, inst: InstanceId, port: PortId) -> bool {
        !self.non_comb.contains(&(inst, port))
    }

    /// Declares that `output`'s `eval` value does not read `input` — the
    /// port paths are independent inside the component (e.g. a queue's
    /// `credit` computed from occupancy alone, not from `credit_in`).
    pub fn set_independent(&mut self, inst: InstanceId, output: PortId, input: PortId) {
        self.independent.insert((inst, output, input));
    }

    /// Whether `output` of `inst` combinationally depends on `input`:
    /// the input feeds `eval` at all, and the pair was not declared
    /// independent.
    pub fn output_depends_on(&self, inst: InstanceId, output: PortId, input: PortId) -> bool {
        self.is_combinational(inst, input) && !self.independent.contains(&(inst, output, input))
    }

    /// Number of independent output/input pairs recorded.
    pub fn independent_pairs(&self) -> usize {
        self.independent.len()
    }
}

/// A directed graph over dense node indices, with deduplicated edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepGraph {
    adj: Vec<Vec<usize>>,
}

impl DepGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        DepGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list (duplicates are dropped).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = DepGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Adds `a → b` unless already present.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.adj.len() && b < self.adj.len());
        if !self.adj[a].contains(&b) {
            self.adj[a].push(b);
        }
    }

    /// Number of (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Successors of `v`.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// True if the edge `a → b` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// Strongly connected components in topological order (sources first),
    /// via Tarjan's algorithm — iterative, so 100k-stage pipelines do not
    /// overflow the stack.
    pub fn condense(&self) -> Condensation {
        let n = self.adj.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        // SCCs in reverse topological order (Tarjan's property).
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut work = vec![Frame::Enter(start)];
            while let Some(frame) = work.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        work.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, child_idx) => {
                        if let Some(&w) = self.adj[v].get(child_idx) {
                            work.push(Frame::Resume(v, child_idx + 1));
                            if index[w] == usize::MAX {
                                work.push(Frame::Enter(w));
                            } else if on_stack[w] {
                                low[v] = low[v].min(index[w]);
                            }
                        } else {
                            // All children visited. Fold lowlinks of
                            // successors still on the stack (Pearce's
                            // variant of Tarjan: using low[w] for every
                            // on-stack successor — tree child or back/cross
                            // edge — yields the same SCCs).
                            for &w in &self.adj[v] {
                                if on_stack[w] {
                                    low[v] = low[v].min(low[w]);
                                }
                            }
                            if low[v] == index[v] {
                                let mut scc = Vec::new();
                                while let Some(w) = stack.pop() {
                                    on_stack[w] = false;
                                    scc.push(w);
                                    if w == v {
                                        break;
                                    }
                                }
                                scc.sort_unstable();
                                sccs.push(scc);
                            }
                        }
                    }
                }
            }
        }
        sccs.reverse();
        let mut comp_of = vec![0usize; n];
        let mut cyclic = Vec::with_capacity(sccs.len());
        for (i, scc) in sccs.iter().enumerate() {
            for &v in scc {
                comp_of[v] = i;
            }
            cyclic.push(scc.len() > 1 || self.has_edge(scc[0], scc[0]));
        }
        Condensation {
            sccs,
            comp_of,
            cyclic,
        }
    }
}

/// The acyclic condensation of a [`DepGraph`]: its strongly connected
/// components in topological order, with per-component cyclicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// SCCs in topological order (sources first); members sorted.
    pub sccs: Vec<Vec<usize>>,
    /// For each node, the index of its SCC in [`Condensation::sccs`].
    pub comp_of: Vec<usize>,
    /// For each SCC, true when it is a genuine cycle (more than one member,
    /// or a single member with a self-loop).
    pub cyclic: Vec<bool>,
}

impl Condensation {
    /// The genuinely cyclic components, in topological order.
    pub fn cycles(&self) -> impl Iterator<Item = &[usize]> {
        self.sccs
            .iter()
            .zip(&self.cyclic)
            .filter(|(_, &c)| c)
            .map(|(scc, _)| scc.as_slice())
    }

    /// Number of genuinely cyclic components.
    pub fn cycle_count(&self) -> usize {
        self.cyclic.iter().filter(|&&c| c).count()
    }
}

/// The combinational dependency graphs of a netlist, at leaf granularity
/// (nodes are leaf instances in netlist order — the simulator's component
/// numbering) and at port granularity (nodes are individual leaf ports).
#[derive(Debug, Clone)]
pub struct LeafDepGraph {
    /// Leaf instance ids, in netlist order; node `i` of [`LeafDepGraph::graph`]
    /// is `leaves[i]`.
    pub leaves: Vec<InstanceId>,
    /// The dependency graph over leaf indices (what the scheduler runs).
    pub graph: DepGraph,
    /// The port-granularity graph (what the cycle detector runs): node
    /// `port_node(leaf, port)` is port `port` of `leaves[leaf]`.
    pub ports: DepGraph,
    /// Port-node id of leaf `i`'s first port; one extra terminal entry, so
    /// leaf `i` owns nodes `port_base[i]..port_base[i + 1]`.
    port_base: Vec<usize>,
    /// The wire realizing each port-level wire edge (internal
    /// input→output edges have no entry).
    port_edge_wire: BTreeMap<(usize, usize), Wire>,
}

impl LeafDepGraph {
    /// The port-graph node id of `(leaf index, port index)`.
    pub fn port_node(&self, leaf: usize, port: usize) -> usize {
        debug_assert!(port < self.port_base[leaf + 1] - self.port_base[leaf]);
        self.port_base[leaf] + port
    }

    /// The port-graph node ids of every port of `leaf`, in port order.
    pub fn port_nodes(&self, leaf: usize) -> std::ops::Range<usize> {
        self.port_base[leaf]..self.port_base[leaf + 1]
    }

    /// The `(leaf index, port index)` a port-graph node id refers to.
    pub fn port_of_node(&self, node: usize) -> (usize, usize) {
        let leaf = self.port_base.partition_point(|&b| b <= node) - 1;
        (leaf, node - self.port_base[leaf])
    }

    /// The wire realizing the port-level edge `a → b`, or `None` when the
    /// edge is internal to a component (input feeding an output's `eval`).
    pub fn port_wire(&self, a: usize, b: usize) -> Option<&Wire> {
        self.port_edge_wire.get(&(a, b))
    }
}

/// Builds the zero-delay dependency graphs from flattened wires and
/// combinational-input info (see [`CombInfo`]).
///
/// `wires` must come from `netlist.flatten()`. A wire contributes an edge
/// only when its destination input is combinational; the first such wire
/// per port pair is kept as the port-level edge's representative for
/// diagnostics. The port graph additionally gets an
/// internal `input → output` edge for every pair the behaviors did not
/// declare independent.
pub fn leaf_dep_graph(netlist: &Netlist, wires: &[Wire], comb: &CombInfo) -> LeafDepGraph {
    let leaves: Vec<InstanceId> = netlist.leaves().map(|i| i.id).collect();
    let index_of: HashMap<InstanceId, usize> =
        leaves.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut port_base = Vec::with_capacity(leaves.len() + 1);
    let mut total_ports = 0usize;
    for &id in &leaves {
        port_base.push(total_ports);
        total_ports += netlist.instance(id).ports.len();
    }
    port_base.push(total_ports);

    let mut graph = DepGraph::new(leaves.len());
    let mut ports = DepGraph::new(total_ports);
    let mut port_edge_wire = BTreeMap::new();
    for wire in wires {
        debug_assert_eq!(
            netlist
                .instance(wire.dst.inst)
                .ports
                .get(wire.dst.port.index())
                .map(|p| p.dir),
            Some(Dir::In),
            "flattened wires end on leaf inputs"
        );
        if !comb.is_combinational(wire.dst.inst, wire.dst.port) {
            continue;
        }
        let a = index_of[&wire.src.inst];
        let b = index_of[&wire.dst.inst];
        graph.add_edge(a, b);
        let pa = port_base[a] + wire.src.port.index();
        let pb = port_base[b] + wire.dst.port.index();
        ports.add_edge(pa, pb);
        port_edge_wire.entry((pa, pb)).or_insert(*wire);
    }
    // Internal edges: each combinational input feeds the outputs whose
    // eval reads it.
    for (l, &id) in leaves.iter().enumerate() {
        let inst = netlist.instance(id);
        for (i_idx, input) in inst.ports.iter().enumerate() {
            if input.dir != Dir::In || !comb.is_combinational(id, PortId::from_index(i_idx)) {
                continue;
            }
            for (o_idx, output) in inst.ports.iter().enumerate() {
                if output.dir != Dir::Out {
                    continue;
                }
                if comb.output_depends_on(id, PortId::from_index(o_idx), PortId::from_index(i_idx))
                {
                    ports.add_edge(port_base[l] + i_idx, port_base[l] + o_idx);
                }
            }
        }
    }
    LeafDepGraph {
        leaves,
        graph,
        ports,
        port_base,
        port_edge_wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_order(c: &Condensation) -> Vec<usize> {
        c.sccs.iter().flatten().copied().collect()
    }

    #[test]
    fn comb_info_independence_is_port_specific() {
        use lss_netlist::{InstanceId, PortId};
        let mut comb = CombInfo::all_combinational();
        let inst = InstanceId(3);
        // Declaring out(1) independent of in(0) severs only that pair.
        comb.set_independent(inst, PortId(1), PortId(0));
        assert!(comb.is_combinational(inst, PortId(0)));
        assert!(!comb.output_depends_on(inst, PortId(1), PortId(0)));
        assert!(comb.output_depends_on(inst, PortId(2), PortId(0)));
        // A registered input drags every output dependency with it.
        comb.set_non_combinational(inst, PortId(0));
        assert!(!comb.output_depends_on(inst, PortId(2), PortId(0)));
    }

    #[test]
    fn chain_condenses_in_order() {
        let g = DepGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = g.condense();
        assert_eq!(topo_order(&c), vec![0, 1, 2, 3]);
        assert_eq!(c.cycle_count(), 0);
    }

    #[test]
    fn diamond_respects_topological_constraints() {
        let g = DepGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = topo_order(&g.condense());
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_becomes_one_cyclic_scc() {
        // 0 -> 1 -> 2 -> 0 with entry 3 -> 0 and exit 2 -> 4.
        let g = DepGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0), (2, 4)]);
        let c = g.condense();
        assert_eq!(c.cycle_count(), 1);
        let cycle: Vec<usize> = c.cycles().next().unwrap().to_vec();
        assert_eq!(cycle, vec![0, 1, 2]);
        let order = topo_order(&c);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(3) < pos(0), "entry before the cycle");
        assert!(pos(2) < pos(4), "exit after the cycle");
    }

    #[test]
    fn self_loop_is_cyclic_other_singletons_are_not() {
        let g = DepGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let c = g.condense();
        assert_eq!(c.cycle_count(), 1);
        assert_eq!(c.cycles().next().unwrap(), &[0]);
        let one = c.comp_of[1];
        assert!(!c.cyclic[one]);
    }

    #[test]
    fn disconnected_nodes_all_appear() {
        let g = DepGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let mut order = topo_order(&g.condense());
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = DepGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(topo_order(&g.condense()), vec![0, 1]);
    }

    #[test]
    fn two_cycles_are_separate_components() {
        // 0 <-> 1, 2 <-> 3, with 1 -> 2.
        let g = DepGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let c = g.condense();
        assert_eq!(c.cycle_count(), 2);
        let cycles: Vec<Vec<usize>> = c.cycles().map(<[usize]>::to_vec).collect();
        assert_eq!(cycles, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn large_pipeline_does_not_overflow_stack() {
        let n = 50_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let c = DepGraph::from_edges(n, &edges).condense();
        assert_eq!(c.sccs.len(), n);
        assert_eq!(topo_order(&c)[0], 0);
        assert_eq!(topo_order(&c)[n - 1], n - 1);
    }

    #[test]
    fn comb_info_defaults_to_combinational() {
        let mut info = CombInfo::all_combinational();
        let inst = InstanceId(3);
        assert!(info.is_combinational(inst, PortId(0)));
        info.set_non_combinational(inst, PortId(0));
        assert!(!info.is_combinational(inst, PortId(0)));
        assert!(info.is_combinational(inst, PortId(1)));
    }
}
