//! JSON rendering of the elaborated netlist.
//!
//! [`to_json`] emits a complete, self-contained document (format 3):
//! interner symbols, type-variable names, elaboration counters, module
//! metadata, full instances (ports with schemes and inferred types,
//! userpoints, runtime variables, events), raw connections, derived
//! flattened wires, collector bindings, and the constraint set.
//!
//! JSON is an output only: `lssc --dump-json` / `--emit netlist-json`,
//! the `lssd` compile replies and external tooling (visualizers, diffing,
//! CI artifacts) read it. The one load format is [`crate::binary`], which
//! backs the driver's on-disk netlist cache.
//!
//! Hand-rolled writer — the IR is small and a serializer dependency is
//! not warranted (DESIGN.md §6).

use std::fmt::Write;

use lss_types::{ConstraintOrigin, Datum, Scheme, Ty, TyVar};

use crate::netlist::{Endpoint, Instance, InstanceKind, Netlist};
use crate::protocol::{ActionDir, ProtocolBinding, Template};

/// The serialization format this module writes.
///
/// Format 3 added per-instance `protocols` (port-group protocol bindings).
pub const JSON_FORMAT: u32 = 3;

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes). Public so the CLI timing emitters, the `lssd`
/// replies and the benchmark share the escaping rules.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out`. Copies each run of bytes that need no
/// escape in one go: the bytes that do (`"`, `\`, < 0x20) are ASCII, and
/// a multi-byte UTF-8 sequence never contains an ASCII byte, so every run
/// boundary is a char boundary.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

pub(crate) fn datum_json(d: &Datum) -> String {
    match d {
        Datum::Int(v) => v.to_string(),
        Datum::Bool(b) => b.to_string(),
        Datum::Float(v) if v.is_finite() => {
            // Always keep a fractional part so a reader can tell a float
            // from an int (Rust's shortest-round-trip Display drops ".0").
            let s = v.to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        // Tagged specials; `$` cannot begin an LSS struct field name, so
        // this object shape never collides with `Datum::Struct`.
        Datum::Float(v) if v.is_nan() => "{\"$f\":\"nan\"}".to_string(),
        Datum::Float(v) if *v > 0.0 => "{\"$f\":\"inf\"}".to_string(),
        Datum::Float(_) => "{\"$f\":\"-inf\"}".to_string(),
        Datum::Str(s) => format!("\"{}\"", escape(s)),
        Datum::Array(items) => {
            let inner: Vec<String> = items.iter().map(datum_json).collect();
            format!("[{}]", inner.join(","))
        }
        Datum::Struct(rec) => {
            let inner: Vec<String> = rec
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), datum_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn ty_json(ty: &Ty) -> String {
    match ty {
        Ty::Int => "\"int\"".to_string(),
        Ty::Bool => "\"bool\"".to_string(),
        Ty::Float => "\"float\"".to_string(),
        Ty::String => "\"string\"".to_string(),
        Ty::Array(t, n) => format!("{{\"array\":[{},{n}]}}", ty_json(t)),
        Ty::Struct(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, t)| format!("[\"{}\",{}]", escape(k), ty_json(t)))
                .collect();
            format!("{{\"struct\":[{}]}}", inner.join(","))
        }
    }
}

fn scheme_json(s: &Scheme) -> String {
    match s {
        Scheme::Int => "\"int\"".to_string(),
        Scheme::Bool => "\"bool\"".to_string(),
        Scheme::Float => "\"float\"".to_string(),
        Scheme::String => "\"string\"".to_string(),
        Scheme::Array(t, n) => format!("{{\"array\":[{},{n}]}}", scheme_json(t)),
        Scheme::Struct(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, t)| format!("[\"{}\",{}]", escape(k), scheme_json(t)))
                .collect();
            format!("{{\"struct\":[{}]}}", inner.join(","))
        }
        Scheme::Var(v) => format!("{{\"var\":{}}}", v.0),
        Scheme::Or(alts) => {
            let inner: Vec<String> = alts.iter().map(scheme_json).collect();
            format!("{{\"or\":[{}]}}", inner.join(","))
        }
    }
}

fn origin_json(o: &ConstraintOrigin) -> String {
    match o {
        ConstraintOrigin::Connection { src, dst } => {
            format!(
                "{{\"connection\":[\"{}\",\"{}\"]}}",
                escape(src),
                escape(dst)
            )
        }
        ConstraintOrigin::Annotation { target } => {
            format!("{{\"annotation\":\"{}\"}}", escape(target))
        }
        ConstraintOrigin::PortDecl { port } => {
            format!("{{\"portdecl\":\"{}\"}}", escape(port))
        }
        ConstraintOrigin::Synthetic => "\"synthetic\"".to_string(),
    }
}

fn endpoint_json(e: Endpoint) -> String {
    format!("[{},{},{}]", e.inst.0, e.port.0, e.index)
}

/// Writes `  "key": [` items one-per-line `],` — or `[]` when empty.
fn array_block(out: &mut String, key: &str, items: &[String], last: bool) {
    let tail = if last { "\n" } else { ",\n" };
    if items.is_empty() {
        let _ = write!(out, "  \"{key}\": []{tail}");
        return;
    }
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, item) in items.iter().enumerate() {
        let sep = if i + 1 < items.len() { ",\n" } else { "\n" };
        let _ = write!(out, "    {item}{sep}");
    }
    let _ = write!(out, "  ]{tail}");
}

fn instance_json(netlist: &Netlist, inst: &Instance) -> String {
    let kind = match &inst.kind {
        InstanceKind::Leaf { tar_file } => {
            format!("\"leaf\", \"tar_file\": \"{}\"", escape(tar_file))
        }
        InstanceKind::Hierarchical => "\"hierarchical\"".to_string(),
    };
    let params: Vec<String> = inst
        .params
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), datum_json(v)))
        .collect();
    let ports: Vec<String> = inst
        .ports
        .iter()
        .map(|p| {
            format!(
                "{{\"name\": \"{}\", \"dir\": \"{}\", \"width\": {}, \"type\": {}, \
                 \"scheme\": {}, \"var\": {}, \"explicit\": {}}}",
                escape(netlist.name(p.name)),
                p.dir,
                p.width,
                p.ty.as_ref()
                    .map(ty_json)
                    .unwrap_or_else(|| "null".to_string()),
                scheme_json(&p.scheme),
                p.var.0,
                p.explicit,
            )
        })
        .collect();
    let userpoints: Vec<String> = inst
        .userpoints
        .iter()
        .map(|u| {
            let args: Vec<String> = u
                .args
                .iter()
                .map(|(name, ty)| format!("[\"{}\",{}]", escape(netlist.name(*name)), ty_json(ty)))
                .collect();
            format!(
                "{{\"name\": \"{}\", \"args\": [{}], \"ret\": {}, \"code\": \"{}\"}}",
                escape(netlist.name(u.name)),
                args.join(","),
                ty_json(&u.ret),
                escape(&u.code)
            )
        })
        .collect();
    let rtvs: Vec<String> = inst
        .runtime_vars
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"ty\": {}, \"init\": {}}}",
                escape(netlist.name(r.name)),
                ty_json(&r.ty),
                datum_json(&r.init)
            )
        })
        .collect();
    let events: Vec<String> = inst
        .events
        .iter()
        .map(|e| {
            let args: Vec<String> = e.args.iter().map(ty_json).collect();
            format!(
                "{{\"name\": \"{}\", \"args\": [{}]}}",
                escape(netlist.name(e.name)),
                args.join(",")
            )
        })
        .collect();
    let protocols: Vec<String> = inst.protocols.iter().map(protocol_json).collect();
    format!(
        "{{\"path\": \"{}\", \"module\": \"{}\", \"kind\": {kind}, \
         \"from_library\": {}, \"parent\": {}, \"params\": {{{}}}, \"ports\": [{}], \
         \"userpoints\": [{}], \"runtime_vars\": [{}], \"events\": [{}], \
         \"protocols\": [{}]}}",
        escape(&inst.path),
        escape(netlist.name(inst.module)),
        inst.from_library,
        inst.parent
            .map(|p| p.0.to_string())
            .unwrap_or_else(|| "null".to_string()),
        params.join(", "),
        ports.join(", "),
        userpoints.join(", "),
        rtvs.join(", "),
        events.join(", "),
        protocols.join(", "),
    )
}

fn protocol_json(b: &ProtocolBinding) -> String {
    let template = match &b.automaton.template {
        Template::ValidReady => "\"valid_ready\"".to_string(),
        Template::Credit(None) => "{\"credit\": null}".to_string(),
        Template::Credit(Some(n)) => format!("{{\"credit\": {n}}}"),
        Template::ReqResp => "\"req_resp\"".to_string(),
        Template::Custom(name) => format!("{{\"custom\": \"{}\"}}", escape(name)),
    };
    let states: Vec<String> = b
        .automaton
        .states
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect();
    let transitions: Vec<String> = b
        .automaton
        .transitions
        .iter()
        .map(|t| {
            let dir = match t.dir {
                ActionDir::Send => "send",
                ActionDir::Recv => "recv",
            };
            format!(
                "[{}, {}, \"{dir}\", \"{}\"]",
                t.from,
                t.to,
                escape(&t.action)
            )
        })
        .collect();
    let ports: Vec<String> = b.ports.iter().map(|p| p.0.to_string()).collect();
    format!(
        "{{\"group\": \"{}\", \"role\": \"{}\", \"template\": {template}, \
         \"states\": [{}], \"transitions\": [{}], \"ports\": [{}], \
         \"span\": [{}, {}, {}]}}",
        escape(&b.group),
        b.role,
        states.join(", "),
        transitions.join(", "),
        ports.join(", "),
        b.span.file,
        b.span.start,
        b.span.end,
    )
}

/// Serializes the netlist to a complete JSON document (format 3).
///
/// The document carries the whole netlist; the `wires` section is derived
/// from the connections.
pub fn to_json(netlist: &Netlist) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"format\": {JSON_FORMAT},");

    let symbols: Vec<String> = netlist
        .interner
        .iter()
        .map(|(_, name)| format!("\"{}\"", escape(name)))
        .collect();
    array_block(&mut out, "symbols", &symbols, false);

    let tyvars: Vec<String> = (0..netlist.vars.len())
        .map(|i| format!("\"{}\"", escape(netlist.vars.name(TyVar(i as u32)))))
        .collect();
    array_block(&mut out, "tyvars", &tyvars, false);

    let e = &netlist.elab;
    let _ = writeln!(
        out,
        "  \"elab\": {{\"explicit_type_instantiations\": {}, \"inferred_widths\": {}, \
         \"defaulted_params\": {}, \"width_reads\": {}}},",
        e.explicit_type_instantiations, e.inferred_widths, e.defaulted_params, e.width_reads
    );

    let modules: Vec<String> = netlist
        .modules
        .iter()
        .map(|(sym, meta)| {
            format!(
                "{{\"name\": \"{}\", \"hierarchical\": {}, \"from_library\": {}, \
                 \"trivial\": {}}}",
                escape(netlist.name(*sym)),
                meta.hierarchical,
                meta.from_library,
                meta.trivial
            )
        })
        .collect();
    array_block(&mut out, "modules", &modules, false);

    let instances: Vec<String> = netlist
        .instances
        .iter()
        .map(|inst| instance_json(netlist, inst))
        .collect();
    array_block(&mut out, "instances", &instances, false);

    let connections: Vec<String> = netlist
        .connections
        .iter()
        .map(|c| format!("[{},{}]", endpoint_json(c.src), endpoint_json(c.dst)))
        .collect();
    array_block(&mut out, "connections", &connections, false);

    let wires: Vec<String> = netlist
        .flatten()
        .iter()
        .map(|w| {
            format!(
                "{{\"src\": \"{}\", \"dst\": \"{}\"}}",
                escape(&netlist.endpoint_name(w.src)),
                escape(&netlist.endpoint_name(w.dst))
            )
        })
        .collect();
    array_block(&mut out, "wires", &wires, false);

    let collectors: Vec<String> = netlist
        .collectors
        .iter()
        .map(|c| {
            format!(
                "{{\"instance\": {}, \"path\": \"{}\", \"event\": \"{}\", \"code\": \"{}\"}}",
                c.inst.0,
                escape(&netlist.instance(c.inst).path),
                escape(netlist.name(c.event)),
                escape(&c.code)
            )
        })
        .collect();
    array_block(&mut out, "collectors", &collectors, false);

    let constraints: Vec<String> = netlist
        .constraints
        .iter()
        .map(|c| {
            format!(
                "{{\"lhs\": {}, \"rhs\": {}, \"origin\": {}}}",
                scheme_json(&c.lhs),
                scheme_json(&c.rhs),
                origin_json(&c.origin)
            )
        })
        .collect();
    array_block(&mut out, "constraints", &constraints, true);

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::testutil::{add, ep};
    use crate::netlist::{Connection, Dir, InstanceKind, Userpoint};

    fn sample() -> Netlist {
        let mut n = Netlist::new();
        let a = add(
            &mut n,
            "a",
            "source",
            InstanceKind::Leaf {
                tar_file: "corelib/source.tar".into(),
            },
            None,
            &[("out", Dir::Out)],
        );
        let b = add(
            &mut n,
            "b",
            "sink",
            InstanceKind::Leaf {
                tar_file: "corelib/sink.tar".into(),
            },
            None,
            &[("in", Dir::In)],
        );
        let up_name = n.intern("p");
        n.instance_mut(a)
            .params
            .insert("start".into(), Datum::Int(3));
        n.instance_mut(a).ports[0].ty = Some(Ty::Int);
        n.instance_mut(a).ports[0].width = 1;
        n.instance_mut(a).userpoints.push(Userpoint {
            name: up_name,
            args: vec![],
            ret: Ty::Int,
            code: "return \"x\";".into(),
        });
        n.connections.push(Connection {
            src: ep(a, 0, 0),
            dst: ep(b, 0, 0),
        });
        n
    }

    #[test]
    fn exports_valid_looking_json() {
        let n = sample();
        let json = to_json(&n);
        assert!(json.contains("\"path\": \"a\""));
        assert!(json.contains("\"start\": 3"));
        assert!(json.contains("\"type\": \"int\""));
        assert!(json.contains("\"src\": \"a.out[0]\""));
        assert!(
            json.contains("return \\\"x\\\";"),
            "code must be escaped: {json}"
        );
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(datum_json(&Datum::Float(f64::NAN)), "{\"$f\":\"nan\"}");
        assert_eq!(
            datum_json(&Datum::record([("k", Datum::Bool(true))])),
            "{\"k\":true}"
        );
    }

    #[test]
    fn struct_json_is_pinned() {
        let text = r#"{"pc":4096,"name":"x\"y","xs":[1,-2],"f":1.5,"inner":{"b":true}}"#;
        let d = Datum::record([
            ("pc", Datum::Int(4096)),
            ("name", Datum::from("x\"y")),
            ("xs", Datum::Array(vec![Datum::Int(1), Datum::Int(-2)])),
            ("f", Datum::Float(1.5)),
            ("inner", Datum::record([("b", Datum::Bool(true))])),
        ]);
        assert_eq!(datum_json(&d), text);
    }

    #[test]
    fn empty_netlist_exports() {
        let json = to_json(&Netlist::new());
        assert!(json.contains("\"instances\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn floats_keep_their_datum_variant() {
        assert_eq!(datum_json(&Datum::Float(2.0)), "2.0");
        assert_eq!(datum_json(&Datum::Float(-0.5)), "-0.5");
        assert_eq!(datum_json(&Datum::Int(2)), "2");
        assert_eq!(datum_json(&Datum::Float(f64::INFINITY)), "{\"$f\":\"inf\"}");
        assert_eq!(
            datum_json(&Datum::Float(f64::NEG_INFINITY)),
            "{\"$f\":\"-inf\"}"
        );
    }
}
