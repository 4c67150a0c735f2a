//! Generation of a model's "pre-LSS" static-structural specification.
//!
//! §7 of the paper reports a 35% line-count reduction when the hand-written
//! static-structural SimpleScalar model was converted to LSS. To reproduce
//! the comparison we go the other way: from a compiled model's netlist we
//! *generate* what its author would have had to write in a static
//! structural system — a flat list of leaf instances, every parameter
//! value spelled out, every port-instance connection written explicitly,
//! and an explicit type instantiation for every polymorphic port (static
//! systems in the paper's survey lacked LSS's structure-based inference for
//! these, and parameterizable structure is unavailable, so nothing can be
//! hierarchical or loop-generated).
//!
//! The generated text is itself valid LSS (LSS is a superset of such flat
//! netlists), which lets the tests *verify* the two specifications are
//! equivalent: same leaves, same wires, same simulated behavior.

use std::fmt::Write;

use lss_ast::lexer::escape_str;
use lss_netlist::Netlist;
use lss_types::{Datum, Ty};

/// Mangles a hierarchical path into a flat instance name.
fn mangle(path: &str) -> String {
    path.chars()
        .map(|c| match c {
            '.' | '[' => '_',
            ']' => '_',
            other => other,
        })
        .collect()
}

/// Renders a parameter value as an LSS literal.
fn datum_literal(value: &Datum) -> String {
    match value {
        Datum::Int(v) => v.to_string(),
        Datum::Bool(b) => b.to_string(),
        Datum::Float(v) => {
            let s = v.to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Datum::Str(s) => format!("\"{}\"", escape_str(s)),
        Datum::Array(items) => {
            let inner: Vec<String> = items.iter().map(datum_literal).collect();
            format!("[{}]", inner.join(", "))
        }
        Datum::Struct(_) => "0".to_string(), // no struct-valued parameters exist
    }
}

/// Renders a ground type in LSS syntax.
fn ty_literal(ty: &Ty) -> String {
    match ty {
        Ty::Int => "int".to_string(),
        Ty::Bool => "bool".to_string(),
        Ty::Float => "float".to_string(),
        Ty::String => "string".to_string(),
        Ty::Array(t, n) => format!("{}[{n}]", ty_literal(t)),
        Ty::Struct(fields) => {
            let mut out = String::from("struct { ");
            for (name, t) in fields {
                let _ = write!(out, "{name}:{}; ", ty_literal(t));
            }
            out.push('}');
            out
        }
    }
}

/// Generates the flat static-structural source for a compiled netlist.
///
/// Collectors are re-emitted against the flattened instance names so the
/// static model carries the same instrumentation.
pub fn static_source(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated static-structural specification.");
    // Leaf instances with every parameter and userpoint spelled out.
    for inst in netlist.leaves() {
        let name = mangle(&inst.path);
        let _ = writeln!(out, "instance {name}:{};", netlist.name(inst.module));
        for (param, value) in &inst.params {
            let _ = writeln!(out, "{name}.{param} = {};", datum_literal(value));
        }
        for up in &inst.userpoints {
            let _ = writeln!(
                out,
                "{name}.{} = \"{}\";",
                netlist.name(up.name),
                escape_str(&up.code)
            );
        }
    }
    // Every flattened wire, with explicit port-instance indices.
    for wire in netlist.flatten() {
        let src = netlist.instance(wire.src.inst);
        let dst = netlist.instance(wire.dst.inst);
        let _ = writeln!(
            out,
            "{}.{}[{}] -> {}.{}[{}];",
            mangle(&src.path),
            netlist.name(src.ports[wire.src.port.index()].name),
            wire.src.index,
            mangle(&dst.path),
            netlist.name(dst.ports[wire.dst.port.index()].name),
            wire.dst.index,
        );
    }
    // Explicit type instantiations for every polymorphic port the static
    // system could not infer.
    for inst in netlist.leaves() {
        let name = mangle(&inst.path);
        for port in &inst.ports {
            let polymorphic = !port.scheme.vars().is_empty() || port.scheme.has_disjunction();
            if !polymorphic {
                continue;
            }
            let Some(ty) = &port.ty else { continue };
            let _ = writeln!(
                out,
                "{name}.{} :: {};",
                netlist.name(port.name),
                ty_literal(ty)
            );
        }
    }
    // Instrumentation carried over.
    for coll in &netlist.collectors {
        let inst = netlist.instance(coll.inst);
        let _ = writeln!(
            out,
            "collector {} : {} = \"{}\";",
            mangle(&inst.path),
            netlist.name(coll.event),
            escape_str(&coll.code)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangle_flattens_paths() {
        assert_eq!(mangle("cpu.ex.fus[3]"), "cpu_ex_fus_3_");
        assert_eq!(mangle("plain"), "plain");
    }

    #[test]
    fn literals_round_trip_syntax() {
        assert_eq!(datum_literal(&Datum::Int(-4)), "-4");
        assert_eq!(datum_literal(&Datum::Str("a\"b".into())), "\"a\\\"b\"");
        assert_eq!(datum_literal(&Datum::Float(2.0)), "2.0");
        assert_eq!(datum_literal(&Datum::Bool(true)), "true");
        assert_eq!(
            datum_literal(&Datum::Array(vec![Datum::Int(1), Datum::Int(2)])),
            "[1, 2]"
        );
    }

    #[test]
    fn types_render_in_lss_syntax() {
        assert_eq!(ty_literal(&Ty::Int), "int");
        assert_eq!(ty_literal(&Ty::Array(Box::new(Ty::Float), 3)), "float[3]");
        let s = Ty::Struct(vec![("pc".into(), Ty::Int)]);
        assert_eq!(ty_literal(&s), "struct { pc:int; }");
    }
}
