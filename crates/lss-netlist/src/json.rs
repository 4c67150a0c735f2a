//! JSON serialization of the elaborated netlist.
//!
//! [`to_json`] emits a complete, self-contained document (format 3):
//! interner symbols, type-variable names, elaboration counters, module
//! metadata, full instances (ports with schemes and inferred types,
//! userpoints, runtime variables, events), raw connections, derived
//! flattened wires, collector bindings, and the constraint set.
//! [`from_json`] parses it back into a [`Netlist`] that is
//! observationally identical: reuse statistics match and a second
//! `to_json` is byte-identical. This round-trip backs the driver's
//! on-disk netlist cache as well as external tooling (visualizers,
//! diffing, CI artifacts).
//!
//! Hand-rolled writer — the IR is small and a serializer dependency is
//! not warranted (DESIGN.md §6). The matching reader lives in
//! [`crate::jsonval`].

use std::collections::BTreeMap;
use std::fmt::Write;

use lss_types::{Constraint, ConstraintOrigin, Datum, Scheme, Ty, TyVar};

use crate::intern::PortId;
use crate::jsonval::{parse_json, JsonValue};
use crate::netlist::{
    Collector, Connection, Endpoint, EventDecl, Instance, InstanceId, InstanceKind, ModuleMeta,
    Netlist, Port, RuntimeVar, Userpoint,
};
use crate::protocol::{ActionDir, Automaton, ProtocolBinding, Role, SrcSpan, Template, Transition};

/// The serialization format this module reads and writes.
///
/// Format 3 added per-instance `protocols` (port-group protocol bindings);
/// format-2 documents are rejected, which transparently invalidates older
/// driver caches.
pub const JSON_FORMAT: u32 = 3;

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes). Public so the driver's cache envelope and the CLI
/// timing emitters can share the escaping rules.
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
            // Always keep a fractional part so the reader can tell a float
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
/// Everything [`from_json`] needs to rebuild an observationally identical
/// netlist is included; the `wires` section is derived (ignored on read).
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

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn want<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn want_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    want(v, key)?
        .as_str()
        .ok_or_else(|| format!("key `{key}` is not a string"))
}

fn want_u32(v: &JsonValue, key: &str) -> Result<u32, String> {
    want(v, key)?
        .as_i64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("key `{key}` is not a u32"))
}

fn want_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    want(v, key)?
        .as_bool()
        .ok_or_else(|| format!("key `{key}` is not a bool"))
}

fn want_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    want(v, key)?
        .as_array()
        .ok_or_else(|| format!("key `{key}` is not an array"))
}

fn ty_from(v: &JsonValue) -> Result<Ty, String> {
    match v {
        JsonValue::Str(s) => match s.as_str() {
            "int" => Ok(Ty::Int),
            "bool" => Ok(Ty::Bool),
            "float" => Ok(Ty::Float),
            "string" => Ok(Ty::String),
            other => Err(format!("unknown type `{other}`")),
        },
        JsonValue::Object(_) => {
            if let Some(arr) = v.get("array").and_then(|a| a.as_array()) {
                let [elem, len] = arr else {
                    return Err("malformed array type".to_string());
                };
                let n = len
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("bad array length")?;
                Ok(Ty::Array(Box::new(ty_from(elem)?), n))
            } else if let Some(fields) = v.get("struct").and_then(|f| f.as_array()) {
                let fields = fields
                    .iter()
                    .map(|pair| {
                        let [name, ty] = pair.as_array().ok_or("malformed struct field")? else {
                            return Err("malformed struct field".to_string());
                        };
                        let name = name.as_str().ok_or("struct field name not a string")?;
                        Ok((name.to_string(), ty_from(ty)?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Ty::Struct(fields))
            } else {
                Err("unknown type object".to_string())
            }
        }
        _ => Err("type must be a string or object".to_string()),
    }
}

fn scheme_from(v: &JsonValue) -> Result<Scheme, String> {
    match v {
        JsonValue::Str(s) => match s.as_str() {
            "int" => Ok(Scheme::Int),
            "bool" => Ok(Scheme::Bool),
            "float" => Ok(Scheme::Float),
            "string" => Ok(Scheme::String),
            other => Err(format!("unknown scheme `{other}`")),
        },
        JsonValue::Object(_) => {
            if let Some(var) = v.get("var") {
                let n = var
                    .as_i64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("bad type variable")?;
                Ok(Scheme::Var(TyVar(n)))
            } else if let Some(alts) = v.get("or").and_then(|a| a.as_array()) {
                Ok(Scheme::Or(
                    alts.iter().map(scheme_from).collect::<Result<_, _>>()?,
                ))
            } else if let Some(arr) = v.get("array").and_then(|a| a.as_array()) {
                let [elem, len] = arr else {
                    return Err("malformed array scheme".to_string());
                };
                let n = len
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("bad array length")?;
                Ok(Scheme::Array(Box::new(scheme_from(elem)?), n))
            } else if let Some(fields) = v.get("struct").and_then(|f| f.as_array()) {
                let fields = fields
                    .iter()
                    .map(|pair| {
                        let [name, s] = pair.as_array().ok_or("malformed struct field")? else {
                            return Err("malformed struct field".to_string());
                        };
                        let name = name.as_str().ok_or("struct field name not a string")?;
                        Ok((name.to_string(), scheme_from(s)?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Scheme::Struct(fields))
            } else {
                Err("unknown scheme object".to_string())
            }
        }
        _ => Err("scheme must be a string or object".to_string()),
    }
}

pub(crate) fn datum_from(v: &JsonValue) -> Result<Datum, String> {
    match v {
        JsonValue::Int(n) => Ok(Datum::Int(*n)),
        JsonValue::Float(f) => Ok(Datum::Float(*f)),
        JsonValue::Bool(b) => Ok(Datum::Bool(*b)),
        JsonValue::Str(s) => Ok(Datum::Str(s.clone())),
        JsonValue::Array(items) => Ok(Datum::Array(
            items.iter().map(datum_from).collect::<Result<_, _>>()?,
        )),
        JsonValue::Object(members) => {
            // The tagged float specials.
            if let [(key, JsonValue::Str(tag))] = members.as_slice() {
                if key == "$f" {
                    return match tag.as_str() {
                        "nan" => Ok(Datum::Float(f64::NAN)),
                        "inf" => Ok(Datum::Float(f64::INFINITY)),
                        "-inf" => Ok(Datum::Float(f64::NEG_INFINITY)),
                        other => Err(format!("unknown float tag `{other}`")),
                    };
                }
            }
            Ok(Datum::record(
                members
                    .iter()
                    .map(|(k, v)| Ok((k.as_str(), datum_from(v)?)))
                    .collect::<Result<Vec<_>, String>>()?,
            ))
        }
        JsonValue::Null => Err("null is not a datum".to_string()),
    }
}

fn origin_from(v: &JsonValue) -> Result<ConstraintOrigin, String> {
    match v {
        JsonValue::Str(s) if s == "synthetic" => Ok(ConstraintOrigin::Synthetic),
        JsonValue::Object(_) => {
            if let Some(pair) = v.get("connection").and_then(|p| p.as_array()) {
                let [src, dst] = pair else {
                    return Err("malformed connection origin".to_string());
                };
                Ok(ConstraintOrigin::Connection {
                    src: src.as_str().ok_or("bad connection src")?.to_string(),
                    dst: dst.as_str().ok_or("bad connection dst")?.to_string(),
                })
            } else if let Some(t) = v.get("annotation") {
                Ok(ConstraintOrigin::Annotation {
                    target: t.as_str().ok_or("bad annotation target")?.to_string(),
                })
            } else if let Some(p) = v.get("portdecl") {
                Ok(ConstraintOrigin::PortDecl {
                    port: p.as_str().ok_or("bad portdecl port")?.to_string(),
                })
            } else {
                Err("unknown origin object".to_string())
            }
        }
        _ => Err("unknown constraint origin".to_string()),
    }
}

fn endpoint_from(v: &JsonValue) -> Result<Endpoint, String> {
    let triple = v.as_array().ok_or("endpoint is not an array")?;
    let [inst, port, index] = triple else {
        return Err("endpoint must be [inst, port, index]".to_string());
    };
    let as_u32 = |v: &JsonValue, what: &str| {
        v.as_i64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("bad endpoint {what}"))
    };
    Ok(Endpoint {
        inst: InstanceId(as_u32(inst, "instance")?),
        port: PortId(as_u32(port, "port")?),
        index: as_u32(index, "index")?,
    })
}

fn instance_from(n: &Netlist, id: u32, v: &JsonValue) -> Result<Instance, String> {
    let sym = |name: &str| {
        n.interner
            .get(name)
            .ok_or_else(|| format!("name `{name}` not in symbol table"))
    };
    let kind = match want_str(v, "kind")? {
        "leaf" => InstanceKind::Leaf {
            tar_file: want_str(v, "tar_file")?.to_string(),
        },
        "hierarchical" => InstanceKind::Hierarchical,
        other => return Err(format!("unknown instance kind `{other}`")),
    };
    let parent = match want(v, "parent")? {
        JsonValue::Null => None,
        p => Some(InstanceId(
            p.as_i64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("bad parent id")?,
        )),
    };
    let params = want(v, "params")?
        .as_object()
        .ok_or("params is not an object")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), datum_from(v)?)))
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    let ports = want_array(v, "ports")?
        .iter()
        .map(|p| {
            let ty = match want(p, "type")? {
                JsonValue::Null => None,
                t => Some(ty_from(t)?),
            };
            Ok(Port {
                name: sym(want_str(p, "name")?)?,
                dir: match want_str(p, "dir")? {
                    "in" => crate::netlist::Dir::In,
                    "out" => crate::netlist::Dir::Out,
                    other => return Err(format!("unknown port dir `{other}`")),
                },
                scheme: scheme_from(want(p, "scheme")?)?,
                var: TyVar(want_u32(p, "var")?),
                width: want_u32(p, "width")?,
                ty,
                explicit: want_bool(p, "explicit")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let userpoints = want_array(v, "userpoints")?
        .iter()
        .map(|u| {
            let args = want_array(u, "args")?
                .iter()
                .map(|pair| {
                    let [name, ty] = pair.as_array().ok_or("malformed userpoint arg")? else {
                        return Err("malformed userpoint arg".to_string());
                    };
                    let name = name.as_str().ok_or("userpoint arg name not a string")?;
                    Ok((sym(name)?, ty_from(ty)?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Userpoint {
                name: sym(want_str(u, "name")?)?,
                args,
                ret: ty_from(want(u, "ret")?)?,
                code: want_str(u, "code")?.to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let runtime_vars = want_array(v, "runtime_vars")?
        .iter()
        .map(|r| {
            Ok(RuntimeVar {
                name: sym(want_str(r, "name")?)?,
                ty: ty_from(want(r, "ty")?)?,
                init: datum_from(want(r, "init")?)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let events = want_array(v, "events")?
        .iter()
        .map(|e| {
            Ok(EventDecl {
                name: sym(want_str(e, "name")?)?,
                args: want_array(e, "args")?
                    .iter()
                    .map(ty_from)
                    .collect::<Result<Vec<_>, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let protocols = want_array(v, "protocols")?
        .iter()
        .map(protocol_from)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Instance {
        id: InstanceId(id),
        path: want_str(v, "path")?.to_string(),
        module: sym(want_str(v, "module")?)?,
        kind,
        parent,
        from_library: want_bool(v, "from_library")?,
        params,
        ports,
        userpoints,
        runtime_vars,
        events,
        protocols,
    })
}

fn protocol_from(v: &JsonValue) -> Result<ProtocolBinding, String> {
    let as_u32 = |v: &JsonValue, what: &str| {
        v.as_i64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("bad protocol {what}"))
    };
    let role = match want_str(v, "role")? {
        "producer" => Role::Producer,
        "consumer" => Role::Consumer,
        other => return Err(format!("unknown protocol role `{other}`")),
    };
    let template = match want(v, "template")? {
        JsonValue::Str(s) if s == "valid_ready" => Template::ValidReady,
        JsonValue::Str(s) if s == "req_resp" => Template::ReqResp,
        obj @ JsonValue::Object(_) => {
            if let Some(credit) = obj.get("credit") {
                match credit {
                    JsonValue::Null => Template::Credit(None),
                    n => Template::Credit(Some(
                        n.as_i64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or("bad credit count")?,
                    )),
                }
            } else if let Some(name) = obj.get("custom") {
                Template::Custom(
                    name.as_str()
                        .ok_or("custom protocol name not a string")?
                        .to_string(),
                )
            } else {
                return Err("unknown protocol template object".to_string());
            }
        }
        other => return Err(format!("unknown protocol template `{other}`")),
    };
    let states = want_array(v, "states")?
        .iter()
        .map(|s| {
            Ok(s.as_str()
                .ok_or("protocol state is not a string")?
                .to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let transitions = want_array(v, "transitions")?
        .iter()
        .map(|t| {
            let [from, to, dir, action] = t.as_array().ok_or("malformed protocol transition")?
            else {
                return Err("malformed protocol transition".to_string());
            };
            Ok(Transition {
                from: as_u32(from, "transition from")?,
                to: as_u32(to, "transition to")?,
                dir: match dir.as_str().ok_or("transition dir not a string")? {
                    "send" => ActionDir::Send,
                    "recv" => ActionDir::Recv,
                    other => return Err(format!("unknown transition dir `{other}`")),
                },
                action: action
                    .as_str()
                    .ok_or("transition action not a string")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let ports = want_array(v, "ports")?
        .iter()
        .map(|p| Ok(PortId(as_u32(p, "protocol port")?)))
        .collect::<Result<Vec<_>, String>>()?;
    if ports.is_empty() {
        return Err("protocol binding has no ports".to_string());
    }
    let span = match want_array(v, "span")? {
        [file, start, end] => SrcSpan {
            file: as_u32(file, "span file")?,
            start: as_u32(start, "span start")?,
            end: as_u32(end, "span end")?,
        },
        _ => return Err("malformed protocol span".to_string()),
    };
    Ok(ProtocolBinding {
        group: want_str(v, "group")?.to_string(),
        role,
        automaton: Automaton {
            template,
            states,
            transitions,
        },
        ports,
        span,
    })
}

/// Rebuilds a [`Netlist`] from a parsed format-3 JSON document.
///
/// This is the entry point the driver's cache uses for the netlist object
/// nested inside its envelope; [`from_json`] wraps it for standalone
/// documents.
///
/// # Errors
///
/// Returns a message describing the first missing key, type mismatch, or
/// unresolvable reference. Callers treating the input as a cache entry
/// must fall back to a clean rebuild on error.
pub fn from_value(v: &JsonValue) -> Result<Netlist, String> {
    let format = want(v, "format")?
        .as_i64()
        .ok_or("format is not a number")?;
    if format != JSON_FORMAT as i64 {
        return Err(format!(
            "unsupported netlist format {format} (expected {JSON_FORMAT})"
        ));
    }
    let mut n = Netlist::new();
    for s in want_array(v, "symbols")? {
        n.interner
            .intern(s.as_str().ok_or("symbol is not a string")?);
    }
    for name in want_array(v, "tyvars")? {
        n.vars
            .fresh(name.as_str().ok_or("tyvar name is not a string")?);
    }
    let elab = want(v, "elab")?;
    n.elab = crate::netlist::ElabStats {
        explicit_type_instantiations: want_u32(elab, "explicit_type_instantiations")?,
        inferred_widths: want_u32(elab, "inferred_widths")?,
        defaulted_params: want_u32(elab, "defaulted_params")?,
        width_reads: want_u32(elab, "width_reads")?,
    };
    for m in want_array(v, "modules")? {
        let name = want_str(m, "name")?;
        let sym = n
            .interner
            .get(name)
            .ok_or_else(|| format!("module `{name}` not in symbol table"))?;
        n.modules.insert(
            sym,
            ModuleMeta {
                hierarchical: want_bool(m, "hierarchical")?,
                from_library: want_bool(m, "from_library")?,
                trivial: want_bool(m, "trivial")?,
            },
        );
    }
    for (i, inst_v) in want_array(v, "instances")?.iter().enumerate() {
        let inst = instance_from(&n, i as u32, inst_v)?;
        n.instances.push(inst);
    }
    for c in want_array(v, "connections")? {
        let pair = c.as_array().ok_or("connection is not an array")?;
        let [src, dst] = pair else {
            return Err("connection must be [src, dst]".to_string());
        };
        n.connections.push(Connection {
            src: endpoint_from(src)?,
            dst: endpoint_from(dst)?,
        });
    }
    // Validate endpoint references so a corrupt document cannot produce a
    // netlist that panics later.
    for c in &n.connections {
        for e in [c.src, c.dst] {
            let inst = n
                .instances
                .get(e.inst.index())
                .ok_or_else(|| format!("connection references unknown instance {}", e.inst))?;
            if inst.ports.get(e.port.index()).is_none() {
                return Err(format!(
                    "connection references unknown port {} on `{}`",
                    e.port, inst.path
                ));
            }
        }
    }
    for c in want_array(v, "collectors")? {
        let inst = InstanceId(want_u32(c, "instance")?);
        if inst.index() >= n.instances.len() {
            return Err(format!("collector references unknown instance {inst}"));
        }
        let event = want_str(c, "event")?;
        let event = n
            .interner
            .get(event)
            .ok_or_else(|| format!("collector event `{event}` not in symbol table"))?;
        n.collectors.push(Collector {
            inst,
            event,
            code: want_str(c, "code")?.to_string(),
        });
    }
    for c in want_array(v, "constraints")? {
        n.constraints.push(Constraint::with_origin(
            scheme_from(want(c, "lhs")?)?,
            scheme_from(want(c, "rhs")?)?,
            origin_from(want(c, "origin")?)?,
        ));
    }
    Ok(n)
}

/// Parses a format-2 JSON document produced by [`to_json`] back into a
/// [`Netlist`].
///
/// # Errors
///
/// Returns a message describing the first syntax error or schema
/// violation.
pub fn from_json(text: &str) -> Result<Netlist, String> {
    from_value(&parse_json(text)?)
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
        let back = datum_from(&crate::jsonval::parse_json(text).unwrap()).unwrap();
        assert_eq!(back, d);
        assert_eq!(datum_json(&back), text);
    }

    #[test]
    fn empty_netlist_exports() {
        let json = to_json(&Netlist::new());
        assert!(json.contains("\"instances\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // And the empty document round-trips to identical bytes.
        let back = from_json(&json).unwrap();
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let mut n = sample();
        // Exercise every serialized corner: runtime vars, events,
        // constraints with each origin, module metadata, collectors,
        // struct/array/disjunctive schemes, and float params.
        let rtv = n.intern("count");
        let ev = n.intern("sent");
        n.instances[0].runtime_vars.push(RuntimeVar {
            name: rtv,
            ty: Ty::Int,
            init: Datum::Int(0),
        });
        n.instances[0].events.push(EventDecl {
            name: ev,
            args: vec![Ty::Int, Ty::record([("x", Ty::Float)])],
        });
        n.collectors.push(Collector {
            inst: InstanceId(0),
            event: ev,
            code: "total += 1;".into(),
        });
        n.instances[1]
            .params
            .insert("scale".into(), Datum::Float(2.0));
        n.instances[1]
            .params
            .insert("nan".into(), Datum::Float(f64::NAN));
        let src_sym = n.intern("wide");
        n.modules.insert(
            src_sym,
            ModuleMeta {
                hierarchical: true,
                from_library: false,
                trivial: true,
            },
        );
        n.constraints.push(Constraint::with_origin(
            Scheme::Var(TyVar(0)),
            Scheme::Or(vec![Scheme::Int, Scheme::Float]),
            ConstraintOrigin::Connection {
                src: "a.out".into(),
                dst: "b.in".into(),
            },
        ));
        n.constraints.push(Constraint::with_origin(
            Scheme::Array(Box::new(Scheme::Var(TyVar(1))), 4),
            Scheme::Struct(vec![("f".into(), Scheme::Bool)]),
            ConstraintOrigin::Annotation {
                target: "b.in".into(),
            },
        ));
        n.constraints.push(Constraint::with_origin(
            Scheme::Int,
            Scheme::Int,
            ConstraintOrigin::PortDecl {
                port: "a.out".into(),
            },
        ));
        // Protocol bindings: a built-in template plus a custom automaton.
        n.instances[0].protocols.push(ProtocolBinding {
            group: "outs".into(),
            role: Role::Producer,
            automaton: Automaton {
                template: Template::Credit(Some(4)),
                states: Vec::new(),
                transitions: Vec::new(),
            },
            ports: vec![PortId(0)],
            span: SrcSpan {
                file: 1,
                start: 10,
                end: 42,
            },
        });
        n.instances[1].protocols.push(ProtocolBinding {
            group: "ins".into(),
            role: Role::Consumer,
            automaton: Automaton {
                template: Template::Custom("loopy".into()),
                states: vec!["idle".into(), "busy".into()],
                transitions: vec![
                    Transition {
                        from: 0,
                        to: 1,
                        dir: ActionDir::Recv,
                        action: "item".into(),
                    },
                    Transition {
                        from: 1,
                        to: 0,
                        dir: ActionDir::Send,
                        action: "go".into(),
                    },
                ],
            },
            ports: vec![PortId(0)],
            span: SrcSpan::default(),
        });

        let json = to_json(&n);
        let back = from_json(&json).expect("round trip");
        let json2 = to_json(&back);
        assert_eq!(json, json2, "second emission must be byte-identical");

        // Observational equality on the pieces downstream passes read.
        assert_eq!(back.instances.len(), n.instances.len());
        assert_eq!(back.connections.len(), n.connections.len());
        assert_eq!(back.collectors.len(), n.collectors.len());
        assert_eq!(back.constraints, n.constraints);
        assert_eq!(back.elab, n.elab);
        assert_eq!(back.vars.len(), n.vars.len());
        // NaN params defeat PartialEq; Debug renders them identically.
        assert_eq!(
            format!("{:?}", back.instances),
            format!("{:?}", n.instances)
        );
        assert_eq!(
            crate::stats::reuse_stats(&back),
            crate::stats::reuse_stats(&n)
        );
        // NaN params survive (can't use ==; check the variant by re-dump).
        let nan = back.instances[1].params.get("nan").unwrap();
        assert!(matches!(nan, Datum::Float(f) if f.is_nan()));
        // Protocol bindings survive structurally, not just textually.
        assert_eq!(back.instances[0].protocols, n.instances[0].protocols);
        assert_eq!(back.instances[1].protocols, n.instances[1].protocols);
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
        // And they parse back to the same variant.
        assert!(matches!(
            datum_from(&parse_json("2.0").unwrap()).unwrap(),
            Datum::Float(f) if f == 2.0
        ));
        assert!(matches!(
            datum_from(&parse_json("2").unwrap()).unwrap(),
            Datum::Int(2)
        ));
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        let n = sample();
        let json = to_json(&n);
        // Truncation.
        assert!(from_json(&json[..json.len() / 2]).is_err());
        // Wrong format version.
        assert!(from_json(&json.replace("\"format\": 3", "\"format\": 1")).is_err());
        // Dangling connection reference.
        let bad = json.replace("[[0,0,0],[1,0,0]]", "[[0,0,0],[9,0,0]]");
        assert!(from_json(&bad).is_err());
        // Not JSON at all.
        assert!(from_json("hello").is_err());
    }
}
