//! The advisory model lints (`LSS103`, `LSS104`, `LSS201`, `LSS202`,
//! `LSS301`, `LSS302`) — the "user convenience" analyses §3 asks of a
//! modeling system.
//!
//! Unconnected-port semantics (§4.2) make many of these situations legal,
//! but experience with large models shows they are usually mistakes, so
//! each check surfaces them with precise paths, one pass per check.

use std::collections::BTreeSet;

use lss_netlist::{Dir, Netlist};

use crate::diag::{Code, Finding};
use crate::{AnalysisCtx, Pass};

macro_rules! lint_pass {
    ($(#[$doc:meta])* $pass:ident, $name:literal, $check:path, $codes:expr) => {
        $(#[$doc])*
        pub struct $pass;

        impl Pass for $pass {
            fn name(&self) -> &'static str {
                $name
            }

            fn codes(&self) -> &'static [Code] {
                $codes
            }

            fn run(&self, ctx: &AnalysisCtx<'_>, findings: &mut Vec<Finding>) {
                $check(ctx.netlist, findings);
            }
        }
    };
}

lint_pass!(
    /// Unconnected leaf inputs and outputs on partially wired instances
    /// (`LSS201`, `LSS202`).
    UnconnectedPortsPass,
    "unconnected-ports",
    check_unconnected,
    &[Code::UnconnectedInput, Code::UnconnectedOutput]
);
lint_pass!(
    /// Instances declaring ports with none connected (`LSS103`).
    IsolatedInstancePass,
    "isolated-instances",
    check_isolated,
    &[Code::IsolatedInstance]
);
lint_pass!(
    /// Hierarchical ports connected on only one face (`LSS104`).
    DanglingHierPortPass,
    "dangling-hierarchical-ports",
    check_dangling_hierarchical,
    &[Code::DanglingHierPort]
);
lint_pass!(
    /// Ports sharing a type variable but differing in width (`LSS301`).
    WidthMismatchPass,
    "width-mismatches",
    check_width_mismatch,
    &[Code::WidthMismatch]
);
lint_pass!(
    /// Collectors bound to events that can never fire (`LSS302`).
    UnboundCollectorPass,
    "unbound-collectors",
    check_unbound_collectors,
    &[Code::UnboundCollector]
);

fn check_unconnected(netlist: &Netlist, findings: &mut Vec<Finding>) {
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
            let subject = format!("{}.{}", inst.path, pname);
            findings.push(match port.dir {
                Dir::In => Finding::new(
                    Code::UnconnectedInput,
                    subject,
                    format!(
                        "input `{}` of `{}` ({}) is never driven; the behavior will see no data \
                         on it",
                        pname, inst.path, module
                    ),
                ),
                Dir::Out => Finding::new(
                    Code::UnconnectedOutput,
                    subject,
                    format!(
                        "output `{}` of `{}` ({}) has no consumers; values sent on it are \
                         discarded",
                        pname, inst.path, module
                    ),
                ),
            });
        }
    }
}

fn check_isolated(netlist: &Netlist, findings: &mut Vec<Finding>) {
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
            findings.push(Finding::new(
                Code::IsolatedInstance,
                inst.path.clone(),
                format!(
                    "`{}` ({}) declares {} port(s) but none are connected",
                    inst.path,
                    netlist.name(inst.module),
                    inst.ports.len()
                ),
            ));
        }
    }
}

fn check_dangling_hierarchical(netlist: &Netlist, findings: &mut Vec<Finding>) {
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
                    findings.push(Finding::new(
                        Code::DanglingHierPort,
                        format!("{}.{}[{}]", inst.path, netlist.name(port.name), lane),
                        format!(
                            "hierarchical port instance is {have} but {missing}; data crossing \
                             this boundary is lost"
                        ),
                    ));
                }
            }
        }
    }
}

fn check_width_mismatch(netlist: &Netlist, findings: &mut Vec<Finding>) {
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
                    findings.push(Finding::new(
                        Code::WidthMismatch,
                        format!("{}.{}/{}", inst.path, an, bn),
                        format!(
                            "ports `{}` (width {}) and `{}` (width {}) share a type variable \
                             but differ in width — is a lane dropped?",
                            an, a.width, bn, b.width
                        ),
                    ));
                }
            }
        }
    }
}

fn check_unbound_collectors(netlist: &Netlist, findings: &mut Vec<Finding>) {
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
        findings.push(Finding::new(
            Code::UnboundCollector,
            format!("{}:{}", inst.path, ev),
            format!(
                "collector on `{}` listens for `{}`, but `{}` declares no such event and has no \
                 port of that name; the collector will never fire",
                inst.path,
                ev,
                netlist.name(inst.module)
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use lss_netlist::{
        Collector, Connection, Endpoint, EventDecl, Instance, InstanceId, InstanceKind, Port,
        PortId,
    };
    use lss_types::Scheme;

    use super::*;

    fn add(
        n: &mut Netlist,
        path: &str,
        module: &str,
        kind: InstanceKind,
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
            parent: None,
            from_library: true,
            params: BTreeMap::new(),
            ports,
            userpoints: Vec::new(),
            runtime_vars: Vec::new(),
            events: Vec::new(),
            protocols: Vec::new(),
        })
    }

    fn leaf(n: &mut Netlist, path: &str, ports: &[(&str, Dir)]) -> InstanceId {
        let kind = InstanceKind::Leaf {
            tar_file: "t".into(),
        };
        add(n, path, "m", kind, ports)
    }

    /// Wires port 0 of `a` to port 0 of `b`, one lane each.
    fn connect(n: &mut Netlist, a: InstanceId, b: InstanceId) {
        let ep = |inst| Endpoint {
            inst,
            port: PortId(0),
            index: 0,
        };
        n.connections.push(Connection {
            src: ep(a),
            dst: ep(b),
        });
        n.instance_mut(a).ports[0].width = 1;
        n.instance_mut(b).ports[0].width = 1;
    }

    /// Runs one check over `netlist`.
    fn run(check: fn(&Netlist, &mut Vec<Finding>), netlist: &Netlist) -> Vec<Finding> {
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
        connect(&mut n, a, b);
        let findings = run(check_unconnected, &n);
        assert!(findings
            .iter()
            .any(|f| f.code == Code::UnconnectedInput && f.subject == "b.aux"));
        assert!(findings
            .iter()
            .any(|f| f.code == Code::UnconnectedOutput && f.subject == "b.res"));
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
        assert_eq!(findings[0].code, Code::IsolatedInstance);
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
            &[("in", Dir::In)],
        );
        // Outside drives h.in but nothing inside consumes it.
        connect(&mut n, g, h);
        let findings = run(check_dangling_hierarchical, &n);
        assert!(
            findings
                .iter()
                .any(|f| f.code == Code::DanglingHierPort && f.subject == "h.in[0]"),
            "{findings:?}"
        );
    }

    #[test]
    fn reports_width_mismatch_on_shared_type_vars() {
        let mut n = Netlist::new();
        let id = leaf(&mut n, "q", &[("in", Dir::In), ("out", Dir::Out)]);
        // Tie both ports to the same variable, then give them different widths.
        let shared = n.instance(id).ports[0].var;
        n.instance_mut(id).ports[1].scheme = Scheme::Var(shared);
        n.instance_mut(id).ports[0].width = 3;
        n.instance_mut(id).ports[1].width = 1;
        let findings = run(check_width_mismatch, &n);
        assert!(
            findings.iter().any(|f| f.code == Code::WidthMismatch),
            "{findings:?}"
        );
    }

    #[test]
    fn reports_collectors_bound_to_nonexistent_events() {
        let mut n = Netlist::new();
        let a = leaf(&mut n, "a", &[("out", Dir::Out)]);
        let b = leaf(&mut n, "b", &[("in", Dir::In)]);
        connect(&mut n, a, b);
        let declared = n.intern("tick");
        n.instance_mut(a).events.push(EventDecl {
            name: declared,
            args: Vec::new(),
        });
        // Fine: declared event, implicit port-firing event.
        let tick = n.intern("tick");
        let out_fire = n.intern("out_fire");
        let typo = n.intern("tock");
        for event in [tick, out_fire, typo] {
            n.collectors.push(Collector {
                inst: a,
                event,
                code: "n = n + 1;".into(),
            });
        }
        let findings = run(check_unbound_collectors, &n);
        let unbound: Vec<_> = findings
            .iter()
            .filter(|f| f.code == Code::UnboundCollector)
            .collect();
        assert_eq!(unbound.len(), 1, "{findings:?}");
        assert_eq!(unbound[0].subject, "a:tock");
    }

    #[test]
    fn clean_model_is_lint_free() {
        let mut n = Netlist::new();
        let a = leaf(&mut n, "a", &[("out", Dir::Out)]);
        let b = leaf(&mut n, "b", &[("in", Dir::In)]);
        connect(&mut n, a, b);
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
}
