//! The elaborated-model IR.
//!
//! Executing an LSS specification at compile time produces a [`Netlist`]:
//! the static structure of the model (instances, ports, connections,
//! resolved parameters, userpoints, events, collectors) plus the type
//! constraints gathered along the way. All static analyses — type
//! inference, scheduling, reuse statistics — run over this IR, and the
//! simulator is built from it.
//!
//! All recurring names (modules, ports, runtime variables, userpoints,
//! events) are interned into [`Symbol`]s in the netlist's own [`Interner`];
//! instance *paths* stay plain strings because each is unique and only
//! read at boundaries (diagnostics, dumps), so interning would buy no
//! sharing. Strings are resolved from symbols only at output boundaries.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

use lss_types::{ConstraintSet, Datum, Scheme, Ty, TyVar, VarGen};

use crate::intern::{Interner, PortId, Symbol};
use crate::protocol::ProtocolBinding;

/// Index of an instance in [`Netlist::instances`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Port direction (netlist-level mirror of the AST's `PortDir`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Input port.
    In,
    /// Output port.
    Out,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::In => write!(f, "in"),
            Dir::Out => write!(f, "out"),
        }
    }
}

/// Whether an instance is a leaf (externally specified behavior) or a
/// hierarchical composition.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceKind {
    /// Leaf module; `tar_file` keys the behavior in the component registry
    /// (our substitute for the paper's BSL `.tar` payloads).
    Leaf {
        /// Registry key, e.g. `corelib/delay.tar`.
        tar_file: String,
    },
    /// Hierarchical module: behavior comes from sub-instances.
    Hierarchical,
}

/// One port on one instance.
///
/// Every LSS port is an array of *port instances*; `width` records how many
/// were connected (inferred by use-based specialization, §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Interned port name.
    pub name: Symbol,
    /// Direction.
    pub dir: Dir,
    /// The declared scheme, instantiated with this instance's fresh type
    /// variables.
    pub scheme: Scheme,
    /// The instance-level type variable standing for this port's basic type.
    pub var: TyVar,
    /// Number of port instances connected (the implicit `width` parameter).
    pub width: u32,
    /// The inferred basic type, filled in after type inference.
    pub ty: Option<Ty>,
    /// True if the user pinned the type explicitly (`::` or a connection
    /// annotation). Counted for Table 2's "explicit type instantiations
    /// with inference".
    pub explicit: bool,
}

/// A userpoint attached to an instance: signature plus BSL code (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Userpoint {
    /// Interned userpoint (parameter) name.
    pub name: Symbol,
    /// Argument names (interned) and types visible to the BSL body.
    pub args: Vec<(Symbol, Ty)>,
    /// Type the body must return.
    pub ret: Ty,
    /// The BSL source code.
    pub code: String,
}

/// A runtime variable declared by the instance's module (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeVar {
    /// Interned variable name (visible to userpoints on the same instance).
    pub name: Symbol,
    /// Value type.
    pub ty: Ty,
    /// Initial value.
    pub init: Datum,
}

/// An event declared by a module (§4.5). The implicit port-firing event for
/// port `p` is named `p_fire` and is not listed here.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDecl {
    /// Interned event name.
    pub name: Symbol,
    /// Types of the values carried by each emission.
    pub args: Vec<Ty>,
}

/// An elaborated module instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// This instance's id.
    pub id: InstanceId,
    /// Full hierarchical path, e.g. `cpu.fetch.delays[0]`. Unique per
    /// instance, so it is kept as a plain string (boundary-only data).
    pub path: String,
    /// Interned name of the module this instance was created from.
    pub module: Symbol,
    /// Leaf or hierarchical.
    pub kind: InstanceKind,
    /// Enclosing instance (None for top-level instances).
    pub parent: Option<InstanceId>,
    /// True if the module came from the shared component library.
    pub from_library: bool,
    /// Resolved parameter values (after use-based specialization).
    pub params: BTreeMap<String, Datum>,
    /// Ports in declaration order, addressed by [`PortId`].
    pub ports: Vec<Port>,
    /// Userpoints (algorithmic parameters) with their final code,
    /// addressed by `UserpointId`.
    pub userpoints: Vec<Userpoint>,
    /// Runtime variables, addressed by `RtvId`.
    pub runtime_vars: Vec<RuntimeVar>,
    /// Declared events, addressed by `EventId`.
    pub events: Vec<EventDecl>,
    /// Protocol contracts bound to this instance's port groups.
    pub protocols: Vec<ProtocolBinding>,
}

impl Instance {
    /// Looks up a port by interned name.
    pub fn port_sym(&self, name: Symbol) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Mutable port lookup by interned name.
    pub fn port_sym_mut(&mut self, name: Symbol) -> Option<&mut Port> {
        self.ports.iter_mut().find(|p| p.name == name)
    }

    /// True for leaf instances.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, InstanceKind::Leaf { .. })
    }
}

/// A borrowed instance plus the netlist that owns it, so name-based lookups
/// can resolve through the interner. Dereferences to [`Instance`], which
/// keeps `netlist.find("x").unwrap().params[...]`-style call sites working.
#[derive(Clone, Copy)]
pub struct InstRef<'a> {
    /// The owning netlist (for symbol resolution).
    pub netlist: &'a Netlist,
    /// The instance itself.
    pub inst: &'a Instance,
}

impl<'a> Deref for InstRef<'a> {
    type Target = Instance;

    fn deref(&self) -> &Instance {
        self.inst
    }
}

impl<'a> InstRef<'a> {
    /// Looks up a port by name through the interner.
    pub fn port(&self, name: &str) -> Option<&'a Port> {
        let sym = self.netlist.interner.get(name)?;
        self.inst.ports.iter().find(|p| p.name == sym)
    }

    /// The instance's module name as a string.
    pub fn module_name(&self) -> &'a str {
        self.netlist.interner.resolve(self.inst.module)
    }

    /// Resolves any symbol through the owning netlist's interner.
    pub fn name_of(&self, sym: Symbol) -> &'a str {
        self.netlist.interner.resolve(sym)
    }
}

impl fmt::Debug for InstRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inst.fmt(f)
    }
}

/// One side of a connection: a specific port instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// The instance.
    pub inst: InstanceId,
    /// Index of the port within [`Instance::ports`].
    pub port: PortId,
    /// Port-instance index within the port's width.
    pub index: u32,
}

/// A directed point-to-point connection between two port instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// Data source (an outport of a sibling, or an inport of the enclosing
    /// instance seen from inside).
    pub src: Endpoint,
    /// Data sink.
    pub dst: Endpoint,
}

/// An instrumentation collector attached at the top level (§4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct Collector {
    /// Instance whose events are observed.
    pub inst: InstanceId,
    /// Interned event name (`<port>_fire` for the implicit port-firing
    /// events).
    pub event: Symbol,
    /// BSL code executed per emission; it may read/update global collector
    /// state variables.
    pub code: String,
}

/// Counters the interpreter fills in during elaboration; inputs to the
/// Table 2 reuse statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElabStats {
    /// Explicit type instantiations present in the sources (`::` statements
    /// and annotated connections).
    pub explicit_type_instantiations: u32,
    /// Port widths inferred by use-based specialization.
    pub inferred_widths: u32,
    /// Parameter values inferred (defaults applied + widths), excluding
    /// explicit assignments.
    pub defaulted_params: u32,
    /// Number of `width` parameter reads performed by module bodies.
    pub width_reads: u32,
}

/// Metadata about each module template that was instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleMeta {
    /// True if the module is hierarchical.
    pub hierarchical: bool,
    /// True if it came from the shared component library.
    pub from_library: bool,
    /// True for "trivial" hierarchical modules that merely wrap a fixed
    /// collection of components (no parameters — Table 2's parenthesized
    /// figures discount these).
    pub trivial: bool,
}

/// The elaborated model.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All instances, topologically parent-before-child.
    pub instances: Vec<Instance>,
    /// All recorded connections (including pass-throughs at hierarchical
    /// ports; see [`Netlist::flatten`]).
    pub connections: Vec<Connection>,
    /// Collectors registered at elaboration time.
    pub collectors: Vec<Collector>,
    /// Type constraints gathered from ports, connections, and annotations.
    pub constraints: ConstraintSet,
    /// Generator for the instance-level type variables.
    pub vars: VarGen,
    /// Per-module metadata (keyed by interned module name).
    pub modules: BTreeMap<Symbol, ModuleMeta>,
    /// Elaboration counters.
    pub elab: ElabStats,
    /// The symbol table all of this netlist's [`Symbol`]s resolve through.
    pub interner: Interner,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a name in this netlist's symbol table.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Resolves a symbol back to its string.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Looks up an already-interned name.
    pub fn sym(&self, name: &str) -> Option<Symbol> {
        self.interner.get(name)
    }

    /// Adds an instance, assigning its id.
    pub fn add_instance(&mut self, mut inst: Instance) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        inst.id = id;
        self.instances.push(inst);
        id
    }

    /// Immutable instance access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.index()]
    }

    /// Mutable instance access.
    pub fn instance_mut(&mut self, id: InstanceId) -> &mut Instance {
        &mut self.instances[id.index()]
    }

    /// Finds an instance by full hierarchical path.
    pub fn find(&self, path: &str) -> Option<InstRef<'_>> {
        self.instances
            .iter()
            .find(|i| i.path == path)
            .map(|inst| InstRef {
                netlist: self,
                inst,
            })
    }

    /// Iterates over leaf instances.
    pub fn leaves(&self) -> impl Iterator<Item = &Instance> {
        self.instances.iter().filter(|i| i.is_leaf())
    }

    /// Human-readable name of an endpoint.
    pub fn endpoint_name(&self, e: Endpoint) -> String {
        let inst = self.instance(e.inst);
        let port = inst
            .ports
            .get(e.port.index())
            .map(|p| self.interner.resolve(p.name))
            .unwrap_or("?");
        format!("{}.{}[{}]", inst.path, port, e.index)
    }

    /// Resolves hierarchical pass-throughs, producing direct leaf-to-leaf
    /// wires.
    ///
    /// Every connection is point-to-point between port instances, and every
    /// port instance participates in at most one connection per side, so a
    /// backward walk from each leaf input is deterministic: follow the
    /// chain of drivers through hierarchical ports until a leaf output is
    /// reached.
    ///
    /// Dangling chains (a hierarchical port with no driver on the other
    /// side — legal, "unconnected port semantics") produce no wire.
    pub fn flatten(&self) -> Vec<Wire> {
        // Map each destination endpoint to its unique driver.
        let mut driver: BTreeMap<Endpoint, Endpoint> = BTreeMap::new();
        for c in &self.connections {
            driver.insert(c.dst, c.src);
        }
        let mut wires = Vec::new();
        for c in &self.connections {
            let dst_inst = self.instance(c.dst.inst);
            if !dst_inst.is_leaf() {
                continue;
            }
            // Only leaf *inputs* terminate a chain; a connection into a
            // leaf port that is an outport is the "inside" of a leaf, which
            // cannot happen (leaves have no inside).
            let Some(port) = dst_inst.ports.get(c.dst.port.index()) else {
                continue;
            };
            if port.dir != Dir::In {
                continue;
            }
            // Chase the driver chain backwards through hierarchical ports.
            let mut src = c.src;
            let mut hops = 0usize;
            loop {
                let inst = self.instance(src.inst);
                if inst.is_leaf() {
                    wires.push(Wire { src, dst: c.dst });
                    break;
                }
                match driver.get(&src) {
                    Some(&prev) => {
                        src = prev;
                        hops += 1;
                        assert!(
                            hops <= self.connections.len(),
                            "connection cycle through hierarchical ports at {}",
                            self.endpoint_name(src)
                        );
                    }
                    // Un-driven hierarchical port: dangles, no wire.
                    None => break,
                }
            }
        }
        wires
    }

    /// Total number of port instances (sum of widths) across all ports.
    pub fn port_instance_count(&self) -> usize {
        self.instances
            .iter()
            .flat_map(|i| i.ports.iter())
            .map(|p| p.width as usize)
            .sum()
    }
}

/// A flattened leaf-to-leaf wire produced by [`Netlist::flatten`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// Leaf output port instance.
    pub src: Endpoint,
    /// Leaf input port instance.
    pub dst: Endpoint,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Adds an instance with the given ports, interning names through the
    /// netlist and drawing type variables from its generator.
    pub fn add(
        n: &mut Netlist,
        path: &str,
        module: &str,
        kind: InstanceKind,
        parent: Option<InstanceId>,
        ports: &[(&str, Dir)],
    ) -> InstanceId {
        let module = n.intern(module);
        let ports = ports
            .iter()
            .map(|(name, dir)| {
                let name_sym = n.intern(name);
                let var = n.vars.fresh(format!("{path}.{name}"));
                Port {
                    name: name_sym,
                    dir: *dir,
                    scheme: Scheme::Var(var),
                    var,
                    width: 0,
                    ty: None,
                    explicit: false,
                }
            })
            .collect();
        n.add_instance(Instance {
            id: InstanceId(0),
            path: path.to_string(),
            module,
            kind,
            parent,
            from_library: true,
            params: BTreeMap::new(),
            ports,
            userpoints: Vec::new(),
            runtime_vars: Vec::new(),
            events: Vec::new(),
            protocols: Vec::new(),
        })
    }

    /// Endpoint shorthand.
    pub fn ep(inst: InstanceId, port: u32, index: u32) -> Endpoint {
        Endpoint {
            inst,
            port: PortId(port),
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    /// Builds the paper's Figure 2 structure: gen -> delay3(in->d0->d1->d2->out) -> hole.
    fn delay_chain() -> (Netlist, Vec<InstanceId>) {
        let mut n = Netlist::new();
        let gen = add(
            &mut n,
            "gen",
            "source",
            InstanceKind::Leaf {
                tar_file: "corelib/source.tar".into(),
            },
            None,
            &[("out", Dir::Out)],
        );
        let hole = add(
            &mut n,
            "hole",
            "sink",
            InstanceKind::Leaf {
                tar_file: "corelib/sink.tar".into(),
            },
            None,
            &[("in", Dir::In)],
        );
        let chain = add(
            &mut n,
            "delay3",
            "delayn",
            InstanceKind::Hierarchical,
            None,
            &[("in", Dir::In), ("out", Dir::Out)],
        );
        let mut delays = Vec::new();
        for i in 0..3 {
            let d = add(
                &mut n,
                &format!("delay3.delays[{i}]"),
                "delay",
                InstanceKind::Leaf {
                    tar_file: "corelib/delay.tar".into(),
                },
                Some(chain),
                &[("in", Dir::In), ("out", Dir::Out)],
            );
            delays.push(d);
        }
        // External connections.
        n.connections.push(Connection {
            src: ep(gen, 0, 0),
            dst: ep(chain, 0, 0),
        });
        n.connections.push(Connection {
            src: ep(chain, 1, 0),
            dst: ep(hole, 0, 0),
        });
        // Internal connections of delay3.
        n.connections.push(Connection {
            src: ep(chain, 0, 0),
            dst: ep(delays[0], 0, 0),
        });
        n.connections.push(Connection {
            src: ep(delays[0], 1, 0),
            dst: ep(delays[1], 0, 0),
        });
        n.connections.push(Connection {
            src: ep(delays[1], 1, 0),
            dst: ep(delays[2], 0, 0),
        });
        n.connections.push(Connection {
            src: ep(delays[2], 1, 0),
            dst: ep(chain, 1, 0),
        });
        let ids = vec![gen, hole, chain, delays[0], delays[1], delays[2]];
        (n, ids)
    }

    #[test]
    fn flatten_resolves_hierarchical_pass_throughs() {
        let (n, ids) = delay_chain();
        let wires = n.flatten();
        // gen->d0, d0->d1, d1->d2, d2->hole: all four leaf-to-leaf wires.
        assert_eq!(wires.len(), 4);
        let gen = ids[0];
        let hole = ids[1];
        let d0 = ids[3];
        let d2 = ids[5];
        assert!(
            wires.iter().any(|w| w.src.inst == gen && w.dst.inst == d0),
            "gen must drive the first delay through the hierarchical inport"
        );
        assert!(
            wires.iter().any(|w| w.src.inst == d2 && w.dst.inst == hole),
            "the last delay must drive the sink through the hierarchical outport"
        );
    }

    #[test]
    fn flatten_ignores_dangling_hierarchical_ports() {
        let (mut n, ids) = delay_chain();
        // Remove the external driver of delay3.in: the internal chain then
        // dangles and produces no wire into delays[0].
        n.connections.retain(|c| c.src.inst != ids[0]);
        let wires = n.flatten();
        assert_eq!(wires.len(), 3);
        assert!(!wires.iter().any(|w| w.dst.inst == ids[3]));
    }

    #[test]
    fn endpoint_names_are_readable() {
        let (n, ids) = delay_chain();
        let name = n.endpoint_name(Endpoint {
            inst: ids[2],
            port: PortId(0),
            index: 0,
        });
        assert_eq!(name, "delay3.in[0]");
    }

    #[test]
    fn find_and_leaves() {
        let (n, _) = delay_chain();
        assert!(n.find("delay3.delays[1]").is_some());
        assert!(n.find("nope").is_none());
        assert_eq!(n.leaves().count(), 5);
        assert_eq!(n.instances.len(), 6);
    }

    #[test]
    fn inst_ref_resolves_ports_by_name() {
        let (n, _) = delay_chain();
        let gen = n.find("gen").unwrap();
        assert!(gen.port("out").is_some());
        assert!(gen.port("nonexistent").is_none());
        assert_eq!(gen.module_name(), "source");
        // Deref keeps plain field access working.
        assert_eq!(gen.path, "gen");
    }

    #[test]
    #[should_panic(expected = "connection cycle")]
    fn flatten_detects_cycles_through_hierarchy() {
        let mut n = Netlist::new();
        let h = add(
            &mut n,
            "h",
            "wrap",
            InstanceKind::Hierarchical,
            None,
            &[("in", Dir::In), ("out", Dir::Out)],
        );
        let leaf = add(
            &mut n,
            "h.l",
            "delay",
            InstanceKind::Leaf {
                tar_file: "x".into(),
            },
            Some(h),
            &[("in", Dir::In), ("out", Dir::Out)],
        );
        // Hierarchical ports driving each other in a loop, feeding the leaf.
        n.connections.push(Connection {
            src: ep(h, 1, 0),
            dst: ep(h, 0, 0),
        });
        n.connections.push(Connection {
            src: ep(h, 0, 0),
            dst: ep(h, 1, 0),
        });
        n.connections.push(Connection {
            src: ep(h, 0, 0),
            dst: ep(leaf, 0, 0),
        });
        let _ = n.flatten();
    }

    #[test]
    fn port_instance_count_sums_widths() {
        let (mut n, ids) = delay_chain();
        n.instance_mut(ids[0]).ports[0].width = 1;
        n.instance_mut(ids[1]).ports[0].width = 1;
        assert_eq!(n.port_instance_count(), 2);
    }
}
