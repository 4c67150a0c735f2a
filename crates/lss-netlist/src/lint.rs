//! Static model lints — the "user convenience" analyses §3 asks of a
//! modeling system, run over the elaborated netlist before simulation.
//!
//! Lints are advisory: unconnected-port semantics (§4.2) make many of
//! these situations legal, but experience with large models shows they are
//! usually mistakes, so the checker surfaces them with precise paths.

use std::collections::BTreeSet;
use std::fmt;

use crate::netlist::{Dir, Netlist};

/// The category of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A leaf input port with zero width on an instance that has at least
    /// one connected port — probably a forgotten connection.
    UnconnectedInput,
    /// A leaf output port with zero width — computed values go nowhere.
    UnconnectedOutput,
    /// A hierarchical instance with no connected ports at all.
    IsolatedInstance,
    /// A hierarchical port whose outside face is connected but whose inside
    /// never uses it (or vice versa): data falls off the boundary.
    DanglingHierarchicalPort,
    /// Two ports of one instance declared with the same type variable
    /// resolved to different widths — legal, but often a bus-width bug.
    WidthMismatch,
    /// A collector bound to an event its target instance never declares
    /// (and that is not an implicit `<port>_fire` event) — the collector
    /// can never fire.
    UnboundCollector,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::UnconnectedInput => "unconnected input",
            LintKind::UnconnectedOutput => "unconnected output",
            LintKind::IsolatedInstance => "isolated instance",
            LintKind::DanglingHierarchicalPort => "dangling hierarchical port",
            LintKind::WidthMismatch => "width mismatch",
            LintKind::UnboundCollector => "unbound collector",
        };
        write!(f, "{s}")
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Category.
    pub kind: LintKind,
    /// Instance (and possibly port) path the finding refers to.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.subject, self.message)
    }
}

/// Unconnected inputs/outputs on leaves that have at least one connected
/// port ([`LintKind::UnconnectedInput`], [`LintKind::UnconnectedOutput`]).
pub fn check_unconnected(netlist: &Netlist, findings: &mut Vec<Lint>) {
    for inst in netlist.leaves() {
        let any_connected = inst.ports.iter().any(|p| p.width > 0);
        if !any_connected {
            continue; // handled by the isolated-instance lint
        }
        let module = netlist.name(inst.module);
        for port in &inst.ports {
            if port.width > 0 {
                continue;
            }
            let pname = netlist.name(port.name);
            match port.dir {
                Dir::In => findings.push(Lint {
                    kind: LintKind::UnconnectedInput,
                    subject: format!("{}.{}", inst.path, pname),
                    message: format!(
                        "input `{}` of `{}` ({}) is never driven; the behavior will see no data \
                         on it",
                        pname, inst.path, module
                    ),
                }),
                Dir::Out => findings.push(Lint {
                    kind: LintKind::UnconnectedOutput,
                    subject: format!("{}.{}", inst.path, pname),
                    message: format!(
                        "output `{}` of `{}` ({}) has no consumers; values sent on it are \
                         discarded",
                        pname, inst.path, module
                    ),
                }),
            }
        }
    }
}

/// Instances declaring ports with none connected
/// ([`LintKind::IsolatedInstance`]).
pub fn check_isolated(netlist: &Netlist, findings: &mut Vec<Lint>) {
    // A hierarchical wrapper with unused boundary ports is not isolated if
    // anything inside it is wired: mark every ancestor of a connected port.
    let mut live_subtree = vec![false; netlist.instances.len()];
    for inst in &netlist.instances {
        if inst.ports.iter().any(|p| p.width > 0) {
            let mut cur = inst.parent;
            while let Some(id) = cur {
                if std::mem::replace(&mut live_subtree[id.0 as usize], true) {
                    break;
                }
                cur = netlist.instance(id).parent;
            }
        }
    }
    for inst in &netlist.instances {
        if inst.ports.is_empty() {
            continue; // sinks of pure state are fine
        }
        if live_subtree[inst.id.0 as usize] {
            continue;
        }
        if inst.ports.iter().all(|p| p.width == 0) {
            findings.push(Lint {
                kind: LintKind::IsolatedInstance,
                subject: inst.path.clone(),
                message: format!(
                    "`{}` ({}) declares {} port(s) but none are connected",
                    inst.path,
                    netlist.name(inst.module),
                    inst.ports.len()
                ),
            });
        }
    }
}

/// Hierarchical ports connected on only one face
/// ([`LintKind::DanglingHierarchicalPort`]).
pub fn check_dangling_hierarchical(netlist: &Netlist, findings: &mut Vec<Lint>) {
    // A hierarchical port instance should appear on both faces: as a dst
    // (outside drives an inport / inside drives an outport) and as a src.
    let mut srcs: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut dsts: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    for c in &netlist.connections {
        srcs.insert((c.src.inst.0, c.src.port.0, c.src.index));
        dsts.insert((c.dst.inst.0, c.dst.port.0, c.dst.index));
    }
    for inst in &netlist.instances {
        if inst.is_leaf() {
            continue;
        }
        for (pidx, port) in inst.ports.iter().enumerate() {
            for lane in 0..port.width {
                let key = (inst.id.0, pidx as u32, lane);
                let as_src = srcs.contains(&key);
                let as_dst = dsts.contains(&key);
                if as_src != as_dst {
                    let (have, missing) = if as_dst {
                        ("driven", "never consumed on the other side")
                    } else {
                        ("consumed", "never driven on the other side")
                    };
                    findings.push(Lint {
                        kind: LintKind::DanglingHierarchicalPort,
                        subject: format!("{}.{}[{}]", inst.path, netlist.name(port.name), lane),
                        message: format!(
                            "hierarchical port instance is {have} but {missing}; data crossing \
                             this boundary is lost"
                        ),
                    });
                }
            }
        }
    }
}

/// Ports sharing a type variable but differing in width
/// ([`LintKind::WidthMismatch`]).
pub fn check_width_mismatch(netlist: &Netlist, findings: &mut Vec<Lint>) {
    for inst in &netlist.instances {
        // Group ports by shared type variables in their declared schemes.
        for (i, a) in inst.ports.iter().enumerate() {
            for b in inst.ports.iter().skip(i + 1) {
                if a.width == b.width || a.width == 0 || b.width == 0 {
                    continue;
                }
                let a_vars: BTreeSet<_> = a.scheme.vars().into_iter().collect();
                let shares_var = b.scheme.vars().iter().any(|v| a_vars.contains(v));
                if shares_var {
                    let (an, bn) = (netlist.name(a.name), netlist.name(b.name));
                    findings.push(Lint {
                        kind: LintKind::WidthMismatch,
                        subject: format!("{}.{}/{}", inst.path, an, bn),
                        message: format!(
                            "ports `{}` (width {}) and `{}` (width {}) share a type variable \
                             but differ in width — is a lane dropped?",
                            an, a.width, bn, b.width
                        ),
                    });
                }
            }
        }
    }
}

/// Collectors bound to events their target can never emit
/// ([`LintKind::UnboundCollector`]).
pub fn check_unbound_collectors(netlist: &Netlist, findings: &mut Vec<Lint>) {
    for coll in &netlist.collectors {
        let inst = netlist.instance(coll.inst);
        if inst.events.iter().any(|e| e.name == coll.event) {
            continue;
        }
        let ev = netlist.name(coll.event);
        // Implicit per-port firing event: `<port>_fire`.
        if let Some(port) = ev.strip_suffix("_fire") {
            if inst.ports.iter().any(|p| netlist.name(p.name) == port) {
                continue;
            }
        }
        findings.push(Lint {
            kind: LintKind::UnboundCollector,
            subject: format!("{}:{}", inst.path, ev),
            message: format!(
                "collector on `{}` listens for `{}`, but `{}` declares no such event and has no \
                 port of that name; the collector will never fire",
                inst.path,
                ev,
                netlist.name(inst.module)
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::testutil::{add, ep};
    use crate::netlist::{Connection, InstanceKind};

    fn leaf(
        netlist: &mut Netlist,
        path: &str,
        ports: &[(&str, Dir)],
    ) -> crate::netlist::InstanceId {
        add(
            netlist,
            path,
            "m",
            InstanceKind::Leaf {
                tar_file: "t".into(),
            },
            None,
            ports,
        )
    }

    /// Runs one check over `netlist`.
    fn run(check: fn(&Netlist, &mut Vec<Lint>), netlist: &Netlist) -> Vec<Lint> {
        let mut findings = Vec::new();
        check(netlist, &mut findings);
        findings
    }

    #[test]
    fn reports_unconnected_ports_on_partially_wired_leaves() {
        let mut n = Netlist::new();
        let a = leaf(&mut n, "a", &[("out", Dir::Out)]);
        let b = leaf(
            &mut n,
            "b",
            &[("in", Dir::In), ("aux", Dir::In), ("res", Dir::Out)],
        );
        n.connections.push(Connection {
            src: ep(a, 0, 0),
            dst: ep(b, 0, 0),
        });
        n.instance_mut(a).ports[0].width = 1;
        n.instance_mut(b).ports[0].width = 1;
        let findings = run(check_unconnected, &n);
        assert!(findings
            .iter()
            .any(|l| l.kind == LintKind::UnconnectedInput && l.subject == "b.aux"));
        assert!(findings
            .iter()
            .any(|l| l.kind == LintKind::UnconnectedOutput && l.subject == "b.res"));
    }

    #[test]
    fn reports_isolated_instances_once() {
        let mut n = Netlist::new();
        leaf(&mut n, "lonely", &[("in", Dir::In), ("out", Dir::Out)]);
        // The isolated-instance check reports it; the unconnected-port
        // check must not report it again.
        assert!(run(check_unconnected, &n).is_empty());
        let findings = run(check_isolated, &n);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, LintKind::IsolatedInstance);
    }

    #[test]
    fn reports_dangling_hierarchical_ports() {
        let mut n = Netlist::new();
        let g = leaf(&mut n, "g", &[("out", Dir::Out)]);
        let h = add(
            &mut n,
            "h",
            "wrap",
            InstanceKind::Hierarchical,
            None,
            &[("in", Dir::In)],
        );
        // Outside drives h.in but nothing inside consumes it.
        n.connections.push(Connection {
            src: ep(g, 0, 0),
            dst: ep(h, 0, 0),
        });
        n.instance_mut(g).ports[0].width = 1;
        n.instance_mut(h).ports[0].width = 1;
        let findings = run(check_dangling_hierarchical, &n);
        assert!(
            findings
                .iter()
                .any(|l| l.kind == LintKind::DanglingHierarchicalPort && l.subject == "h.in[0]"),
            "{findings:?}"
        );
    }

    #[test]
    fn reports_width_mismatch_on_shared_type_vars() {
        let mut n = Netlist::new();
        let id = leaf(&mut n, "q", &[("in", Dir::In), ("out", Dir::Out)]);
        // Tie both ports to the same variable, then give them different widths.
        let shared = n.instance(id).ports[0].var;
        n.instance_mut(id).ports[1].scheme = lss_types::Scheme::Var(shared);
        n.instance_mut(id).ports[0].width = 3;
        n.instance_mut(id).ports[1].width = 1;
        let findings = run(check_width_mismatch, &n);
        assert!(
            findings.iter().any(|l| l.kind == LintKind::WidthMismatch),
            "{findings:?}"
        );
    }

    #[test]
    fn reports_collectors_bound_to_nonexistent_events() {
        let mut n = Netlist::new();
        let a = leaf(&mut n, "a", &[("out", Dir::Out)]);
        let b = leaf(&mut n, "b", &[("in", Dir::In)]);
        n.connections.push(Connection {
            src: ep(a, 0, 0),
            dst: ep(b, 0, 0),
        });
        n.instance_mut(a).ports[0].width = 1;
        n.instance_mut(b).ports[0].width = 1;
        let declared = n.intern("tick");
        n.instance_mut(a).events.push(crate::netlist::EventDecl {
            name: declared,
            args: Vec::new(),
        });
        // Fine: declared event, implicit port-firing event.
        let tick = n.intern("tick");
        let out_fire = n.intern("out_fire");
        let typo = n.intern("tock");
        for event in [tick, out_fire, typo] {
            n.collectors.push(crate::netlist::Collector {
                inst: a,
                event,
                code: "n = n + 1;".into(),
            });
        }
        let findings = run(check_unbound_collectors, &n);
        let unbound: Vec<_> = findings
            .iter()
            .filter(|l| l.kind == LintKind::UnboundCollector)
            .collect();
        assert_eq!(unbound.len(), 1, "{findings:?}");
        assert_eq!(unbound[0].subject, "a:tock");
    }

    #[test]
    fn clean_model_is_lint_free() {
        let mut n = Netlist::new();
        let a = leaf(&mut n, "a", &[("out", Dir::Out)]);
        let b = leaf(&mut n, "b", &[("in", Dir::In)]);
        n.connections.push(Connection {
            src: ep(a, 0, 0),
            dst: ep(b, 0, 0),
        });
        n.instance_mut(a).ports[0].width = 1;
        n.instance_mut(b).ports[0].width = 1;
        for check in [
            check_unconnected,
            check_isolated,
            check_dangling_hierarchical,
            check_width_mismatch,
            check_unbound_collectors,
        ] {
            assert!(run(check, &n).is_empty());
        }
    }

    #[test]
    fn display_is_informative() {
        let l = Lint {
            kind: LintKind::UnconnectedInput,
            subject: "x.in".into(),
            message: "m".into(),
        };
        assert_eq!(l.to_string(), "[unconnected input] x.in: m");
    }
}
