//! Compact binary serialization of the elaborated netlist (format 4).
//!
//! This is the one format a netlist is loaded back from: it backs the
//! driver's on-disk cache. The document carries the same data model as
//! the JSON rendering ([`crate::json`], an output only) — interner
//! symbols, type-variable names, elaboration counters, module metadata,
//! full instances, connections, collectors, and the constraint set — but
//! encodes it as length-prefixed binary sections: an interned-symbol
//! table up front, dense ID arrays for endpoints, LEB128 varints for
//! lengths and indices, and raw IEEE-754 bits for floats (so NaN payloads
//! survive without tagging tricks).
//!
//! [`to_binary`] is a pure function of the netlist, so
//! encode→decode→encode is byte-identical. Decoding validates every
//! cross-reference (symbols, instance ids, port ids) before returning: a
//! corrupt document yields `Err`, never a netlist that panics later.

use std::collections::BTreeMap;

use lss_types::{Constraint, ConstraintOrigin, Datum, Scheme, Ty, TyVar};

use crate::intern::PortId;
use crate::netlist::{
    Collector, Connection, Dir, Endpoint, EventDecl, Instance, InstanceId, InstanceKind,
    ModuleMeta, Netlist, Port, RuntimeVar, Userpoint,
};
use crate::protocol::{ActionDir, Automaton, ProtocolBinding, Role, SrcSpan, Template, Transition};

/// The binary serialization format this module reads and writes.
///
/// Format 4 is the first binary netlist encoding; formats 1–3 were JSON
/// (see [`crate::json::JSON_FORMAT`]).
pub const BIN_FORMAT: u32 = 4;

/// The leading magic bytes of every binary netlist document.
pub const MAGIC: [u8; 4] = *b"LSSN";

// ---------------------------------------------------------------------------
// Primitive wire codec
// ---------------------------------------------------------------------------

/// An append-only byte buffer with the primitive encoders used by the
/// binary netlist format. Public so the driver's cache envelope and the
/// solver-partition memo files can share the exact wire conventions.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (for length back-patching by callers that
    /// build sections separately).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32` (fixed width; headers only).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends the raw IEEE-754 bits of `v` (NaN payloads preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// A positional reader over a binary document; every accessor returns
/// `Err` on truncation instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| format!("truncated document at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated document at byte {}", self.pos))?;
        self.pos = end;
        Ok(u32::from_le_bytes([slice[0], slice[1], slice[2], slice[3]]))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err("varint overflows 64 bits".to_string());
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint expected to fit a `u32`.
    pub fn get_varint_u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.get_varint()?).map_err(|_| "varint does not fit u32".to_string())
    }

    /// Reads a varint length and sanity-caps it against the bytes left
    /// (an element needs at least one byte, so `len > remaining` is
    /// always corrupt and would otherwise trigger huge preallocations).
    pub fn get_len(&mut self) -> Result<usize, String> {
        let n = self.get_varint()?;
        let n = usize::try_from(n).map_err(|_| "length does not fit usize".to_string())?;
        if n > self.remaining() {
            return Err(format!(
                "declared length {n} exceeds {} remaining byte(s)",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn get_i64(&mut self) -> Result<i64, String> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, String> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated document at byte {}", self.pos))?;
        self.pos = end;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(slice);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, String> {
        let n = self.get_len()?;
        let end = self.pos + n;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        String::from_utf8(slice.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.get_len()?;
        let end = self.pos + n;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// True once every byte was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// Shared composite codecs (also used by the driver's partition memo)
// ---------------------------------------------------------------------------

/// Encodes a ground type.
pub fn write_ty(w: &mut Writer, ty: &Ty) {
    match ty {
        Ty::Int => w.put_u8(0),
        Ty::Bool => w.put_u8(1),
        Ty::Float => w.put_u8(2),
        Ty::String => w.put_u8(3),
        Ty::Array(t, n) => {
            w.put_u8(4);
            write_ty(w, t);
            w.put_varint(*n as u64);
        }
        Ty::Struct(fields) => {
            w.put_u8(5);
            w.put_varint(fields.len() as u64);
            for (name, t) in fields {
                w.put_str(name);
                write_ty(w, t);
            }
        }
    }
}

/// Decodes a ground type.
pub fn read_ty(r: &mut Reader<'_>) -> Result<Ty, String> {
    Ok(match r.get_u8()? {
        0 => Ty::Int,
        1 => Ty::Bool,
        2 => Ty::Float,
        3 => Ty::String,
        4 => {
            let t = read_ty(r)?;
            let n = r.get_varint()? as usize;
            Ty::Array(Box::new(t), n)
        }
        5 => {
            let n = r.get_len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                fields.push((name, read_ty(r)?));
            }
            Ty::Struct(fields)
        }
        other => return Err(format!("unknown type tag {other}")),
    })
}

/// Encodes a type scheme.
pub fn write_scheme(w: &mut Writer, s: &Scheme) {
    match s {
        Scheme::Int => w.put_u8(0),
        Scheme::Bool => w.put_u8(1),
        Scheme::Float => w.put_u8(2),
        Scheme::String => w.put_u8(3),
        Scheme::Array(t, n) => {
            w.put_u8(4);
            write_scheme(w, t);
            w.put_varint(*n as u64);
        }
        Scheme::Struct(fields) => {
            w.put_u8(5);
            w.put_varint(fields.len() as u64);
            for (name, t) in fields {
                w.put_str(name);
                write_scheme(w, t);
            }
        }
        Scheme::Var(v) => {
            w.put_u8(6);
            w.put_varint(v.0 as u64);
        }
        Scheme::Or(alts) => {
            w.put_u8(7);
            w.put_varint(alts.len() as u64);
            for a in alts {
                write_scheme(w, a);
            }
        }
    }
}

/// Decodes a type scheme.
pub fn read_scheme(r: &mut Reader<'_>) -> Result<Scheme, String> {
    Ok(match r.get_u8()? {
        0 => Scheme::Int,
        1 => Scheme::Bool,
        2 => Scheme::Float,
        3 => Scheme::String,
        4 => {
            let t = read_scheme(r)?;
            let n = r.get_varint()? as usize;
            Scheme::Array(Box::new(t), n)
        }
        5 => {
            let n = r.get_len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                fields.push((name, read_scheme(r)?));
            }
            Scheme::Struct(fields)
        }
        6 => Scheme::Var(TyVar(r.get_varint_u32()?)),
        7 => {
            let n = r.get_len()?;
            let mut alts = Vec::with_capacity(n);
            for _ in 0..n {
                alts.push(read_scheme(r)?);
            }
            Scheme::Or(alts)
        }
        other => return Err(format!("unknown scheme tag {other}")),
    })
}

/// Encodes a datum.
pub fn write_datum(w: &mut Writer, d: &Datum) {
    match d {
        Datum::Int(v) => {
            w.put_u8(0);
            w.put_i64(*v);
        }
        Datum::Bool(b) => {
            w.put_u8(1);
            w.put_u8(*b as u8);
        }
        Datum::Float(v) => {
            w.put_u8(2);
            w.put_f64(*v);
        }
        Datum::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
        Datum::Array(items) => {
            w.put_u8(4);
            w.put_varint(items.len() as u64);
            for item in items {
                write_datum(w, item);
            }
        }
        Datum::Struct(rec) => {
            w.put_u8(5);
            w.put_varint(rec.values().len() as u64);
            for (name, v) in rec.iter() {
                w.put_str(name);
                write_datum(w, v);
            }
        }
    }
}

/// Decodes a datum.
pub fn read_datum(r: &mut Reader<'_>) -> Result<Datum, String> {
    Ok(match r.get_u8()? {
        0 => Datum::Int(r.get_i64()?),
        1 => Datum::Bool(r.get_u8()? != 0),
        2 => Datum::Float(r.get_f64()?),
        3 => Datum::Str(r.get_str()?),
        4 => {
            let n = r.get_len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_datum(r)?);
            }
            Datum::Array(items)
        }
        5 => {
            let n = r.get_len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                fields.push((name, read_datum(r)?));
            }
            Datum::record(fields)
        }
        other => return Err(format!("unknown datum tag {other}")),
    })
}

fn write_endpoint(w: &mut Writer, e: Endpoint) {
    w.put_varint(e.inst.0 as u64);
    w.put_varint(e.port.0 as u64);
    w.put_varint(e.index as u64);
}

fn read_endpoint(r: &mut Reader<'_>) -> Result<Endpoint, String> {
    Ok(Endpoint {
        inst: InstanceId(r.get_varint_u32()?),
        port: PortId(r.get_varint_u32()?),
        index: r.get_varint_u32()?,
    })
}

fn write_origin(w: &mut Writer, o: &ConstraintOrigin) {
    match o {
        ConstraintOrigin::Connection { src, dst } => {
            w.put_u8(0);
            w.put_str(src);
            w.put_str(dst);
        }
        ConstraintOrigin::Annotation { target } => {
            w.put_u8(1);
            w.put_str(target);
        }
        ConstraintOrigin::PortDecl { port } => {
            w.put_u8(2);
            w.put_str(port);
        }
        ConstraintOrigin::Synthetic => w.put_u8(3),
    }
}

fn read_origin(r: &mut Reader<'_>) -> Result<ConstraintOrigin, String> {
    Ok(match r.get_u8()? {
        0 => ConstraintOrigin::Connection {
            src: r.get_str()?,
            dst: r.get_str()?,
        },
        1 => ConstraintOrigin::Annotation {
            target: r.get_str()?,
        },
        2 => ConstraintOrigin::PortDecl { port: r.get_str()? },
        3 => ConstraintOrigin::Synthetic,
        other => return Err(format!("unknown origin tag {other}")),
    })
}

fn write_protocol(w: &mut Writer, b: &ProtocolBinding) {
    w.put_str(&b.group);
    w.put_u8(match b.role {
        Role::Producer => 0,
        Role::Consumer => 1,
    });
    match &b.automaton.template {
        Template::ValidReady => w.put_u8(0),
        Template::Credit(None) => w.put_u8(1),
        Template::Credit(Some(n)) => {
            w.put_u8(2);
            w.put_varint(*n as u64);
        }
        Template::ReqResp => w.put_u8(3),
        Template::Custom(name) => {
            w.put_u8(4);
            w.put_str(name);
        }
    }
    w.put_varint(b.automaton.states.len() as u64);
    for s in &b.automaton.states {
        w.put_str(s);
    }
    w.put_varint(b.automaton.transitions.len() as u64);
    for t in &b.automaton.transitions {
        w.put_varint(t.from as u64);
        w.put_varint(t.to as u64);
        w.put_u8(match t.dir {
            ActionDir::Send => 0,
            ActionDir::Recv => 1,
        });
        w.put_str(&t.action);
    }
    w.put_varint(b.ports.len() as u64);
    for p in &b.ports {
        w.put_varint(p.0 as u64);
    }
    w.put_varint(b.span.file as u64);
    w.put_varint(b.span.start as u64);
    w.put_varint(b.span.end as u64);
}

fn read_protocol(r: &mut Reader<'_>) -> Result<ProtocolBinding, String> {
    let group = r.get_str()?;
    let role = match r.get_u8()? {
        0 => Role::Producer,
        1 => Role::Consumer,
        other => return Err(format!("unknown protocol role tag {other}")),
    };
    let template = match r.get_u8()? {
        0 => Template::ValidReady,
        1 => Template::Credit(None),
        2 => Template::Credit(Some(r.get_varint_u32()?)),
        3 => Template::ReqResp,
        4 => Template::Custom(r.get_str()?),
        other => return Err(format!("unknown protocol template tag {other}")),
    };
    let n_states = r.get_len()?;
    let mut states = Vec::with_capacity(n_states);
    for _ in 0..n_states {
        states.push(r.get_str()?);
    }
    let n_trans = r.get_len()?;
    let mut transitions = Vec::with_capacity(n_trans);
    for _ in 0..n_trans {
        transitions.push(Transition {
            from: r.get_varint_u32()?,
            to: r.get_varint_u32()?,
            dir: match r.get_u8()? {
                0 => ActionDir::Send,
                1 => ActionDir::Recv,
                other => return Err(format!("unknown transition dir tag {other}")),
            },
            action: r.get_str()?,
        });
    }
    let n_ports = r.get_len()?;
    let mut ports = Vec::with_capacity(n_ports);
    for _ in 0..n_ports {
        ports.push(PortId(r.get_varint_u32()?));
    }
    if ports.is_empty() {
        return Err("protocol binding has no ports".to_string());
    }
    let span = SrcSpan {
        file: r.get_varint_u32()?,
        start: r.get_varint_u32()?,
        end: r.get_varint_u32()?,
    };
    Ok(ProtocolBinding {
        group,
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

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_instance(w: &mut Writer, n: &Netlist, inst: &Instance) {
    w.put_str(&inst.path);
    w.put_varint(inst.module.0 as u64);
    match &inst.kind {
        InstanceKind::Hierarchical => w.put_u8(0),
        InstanceKind::Leaf { tar_file } => {
            w.put_u8(1);
            w.put_str(tar_file);
        }
    }
    match inst.parent {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            w.put_varint(p.0 as u64);
        }
    }
    w.put_u8(inst.from_library as u8);
    w.put_varint(inst.params.len() as u64);
    for (k, v) in &inst.params {
        w.put_str(k);
        write_datum(w, v);
    }
    w.put_varint(inst.ports.len() as u64);
    for p in &inst.ports {
        w.put_varint(p.name.0 as u64);
        w.put_u8(match p.dir {
            Dir::In => 0,
            Dir::Out => 1,
        });
        write_scheme(w, &p.scheme);
        w.put_varint(p.var.0 as u64);
        w.put_varint(p.width as u64);
        match &p.ty {
            None => w.put_u8(0),
            Some(t) => {
                w.put_u8(1);
                write_ty(w, t);
            }
        }
        w.put_u8(p.explicit as u8);
    }
    w.put_varint(inst.userpoints.len() as u64);
    for u in &inst.userpoints {
        w.put_varint(u.name.0 as u64);
        w.put_varint(u.args.len() as u64);
        for (name, ty) in &u.args {
            w.put_varint(name.0 as u64);
            write_ty(w, ty);
        }
        write_ty(w, &u.ret);
        w.put_str(&u.code);
    }
    w.put_varint(inst.runtime_vars.len() as u64);
    for rv in &inst.runtime_vars {
        w.put_varint(rv.name.0 as u64);
        write_ty(w, &rv.ty);
        write_datum(w, &rv.init);
    }
    w.put_varint(inst.events.len() as u64);
    for e in &inst.events {
        w.put_varint(e.name.0 as u64);
        w.put_varint(e.args.len() as u64);
        for a in &e.args {
            write_ty(w, a);
        }
    }
    w.put_varint(inst.protocols.len() as u64);
    for b in &inst.protocols {
        write_protocol(w, b);
    }
    let _ = n; // symbols are written as dense ids; the table is up front
}

/// Serializes the netlist to a complete binary document (format 4).
pub fn to_binary(netlist: &Netlist) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(BIN_FORMAT);

    // Symbol table.
    w.put_varint(netlist.interner.len() as u64);
    for (_, name) in netlist.interner.iter() {
        w.put_str(name);
    }
    // Type-variable names.
    w.put_varint(netlist.vars.len() as u64);
    for i in 0..netlist.vars.len() {
        w.put_str(netlist.vars.name(TyVar(i as u32)));
    }
    // Elaboration counters.
    let e = &netlist.elab;
    w.put_varint(e.explicit_type_instantiations as u64);
    w.put_varint(e.inferred_widths as u64);
    w.put_varint(e.defaulted_params as u64);
    w.put_varint(e.width_reads as u64);
    // Module metadata (BTreeMap order: sorted by symbol id).
    w.put_varint(netlist.modules.len() as u64);
    for (sym, meta) in &netlist.modules {
        w.put_varint(sym.0 as u64);
        w.put_u8(meta.hierarchical as u8);
        w.put_u8(meta.from_library as u8);
        w.put_u8(meta.trivial as u8);
    }
    // Instances.
    w.put_varint(netlist.instances.len() as u64);
    for inst in &netlist.instances {
        write_instance(&mut w, netlist, inst);
    }
    // Connections (dense endpoint triples).
    w.put_varint(netlist.connections.len() as u64);
    for c in &netlist.connections {
        write_endpoint(&mut w, c.src);
        write_endpoint(&mut w, c.dst);
    }
    // Collectors.
    w.put_varint(netlist.collectors.len() as u64);
    for c in &netlist.collectors {
        w.put_varint(c.inst.0 as u64);
        w.put_varint(c.event.0 as u64);
        w.put_str(&c.code);
    }
    // Constraints.
    w.put_varint(netlist.constraints.len() as u64);
    for c in netlist.constraints.iter() {
        write_scheme(&mut w, &c.lhs);
        write_scheme(&mut w, &c.rhs);
        write_origin(&mut w, &c.origin);
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn read_instance(r: &mut Reader<'_>, id: u32, n_symbols: usize) -> Result<Instance, String> {
    let sym = |r: &mut Reader<'_>| -> Result<crate::intern::Symbol, String> {
        let v = r.get_varint_u32()?;
        if (v as usize) >= n_symbols {
            return Err(format!("symbol id {v} out of range ({n_symbols} symbols)"));
        }
        Ok(crate::intern::Symbol(v))
    };
    let path = r.get_str()?;
    let module = sym(r)?;
    let kind = match r.get_u8()? {
        0 => InstanceKind::Hierarchical,
        1 => InstanceKind::Leaf {
            tar_file: r.get_str()?,
        },
        other => return Err(format!("unknown instance kind tag {other}")),
    };
    let parent = match r.get_u8()? {
        0 => None,
        1 => Some(InstanceId(r.get_varint_u32()?)),
        other => return Err(format!("unknown parent tag {other}")),
    };
    let from_library = r.get_u8()? != 0;
    let n_params = r.get_len()?;
    let mut params = BTreeMap::new();
    for _ in 0..n_params {
        let k = r.get_str()?;
        params.insert(k, read_datum(r)?);
    }
    let n_ports = r.get_len()?;
    let mut ports = Vec::with_capacity(n_ports);
    for _ in 0..n_ports {
        let name = sym(r)?;
        let dir = match r.get_u8()? {
            0 => Dir::In,
            1 => Dir::Out,
            other => return Err(format!("unknown port dir tag {other}")),
        };
        let scheme = read_scheme(r)?;
        let var = TyVar(r.get_varint_u32()?);
        let width = r.get_varint_u32()?;
        let ty = match r.get_u8()? {
            0 => None,
            1 => Some(read_ty(r)?),
            other => return Err(format!("unknown port type tag {other}")),
        };
        let explicit = r.get_u8()? != 0;
        ports.push(Port {
            name,
            dir,
            scheme,
            var,
            width,
            ty,
            explicit,
        });
    }
    let n_ups = r.get_len()?;
    let mut userpoints = Vec::with_capacity(n_ups);
    for _ in 0..n_ups {
        let name = sym(r)?;
        let n_args = r.get_len()?;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            let a = sym(r)?;
            args.push((a, read_ty(r)?));
        }
        let ret = read_ty(r)?;
        let code = r.get_str()?;
        userpoints.push(Userpoint {
            name,
            args,
            ret,
            code,
        });
    }
    let n_rtvs = r.get_len()?;
    let mut runtime_vars = Vec::with_capacity(n_rtvs);
    for _ in 0..n_rtvs {
        let name = sym(r)?;
        let ty = read_ty(r)?;
        let init = read_datum(r)?;
        runtime_vars.push(RuntimeVar { name, ty, init });
    }
    let n_events = r.get_len()?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let name = sym(r)?;
        let n_args = r.get_len()?;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            args.push(read_ty(r)?);
        }
        events.push(EventDecl { name, args });
    }
    let n_protos = r.get_len()?;
    let mut protocols = Vec::with_capacity(n_protos);
    for _ in 0..n_protos {
        protocols.push(read_protocol(r)?);
    }
    Ok(Instance {
        id: InstanceId(id),
        path,
        module,
        kind,
        parent,
        from_library,
        params,
        ports,
        userpoints,
        runtime_vars,
        events,
        protocols,
    })
}

/// Rebuilds a [`Netlist`] from a format-4 binary document.
///
/// # Errors
///
/// Returns a message describing the first truncation, tag mismatch, or
/// unresolvable reference. Callers treating the input as a cache entry
/// must fall back to a clean rebuild on error.
pub fn from_binary(bytes: &[u8]) -> Result<Netlist, String> {
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.get_u8()?;
    }
    if magic != MAGIC {
        return Err("not a binary netlist document (bad magic)".to_string());
    }
    let format = r.get_u32()?;
    if format != BIN_FORMAT {
        return Err(format!(
            "unsupported netlist format {format} (expected {BIN_FORMAT})"
        ));
    }
    let mut n = Netlist::new();
    let n_syms = r.get_len()?;
    for _ in 0..n_syms {
        let s = r.get_str()?;
        n.interner.intern(&s);
    }
    if n.interner.len() != n_syms {
        return Err("symbol table contains duplicate entries".to_string());
    }
    let n_vars = r.get_len()?;
    for _ in 0..n_vars {
        let name = r.get_str()?;
        n.vars.fresh(name);
    }
    n.elab = crate::netlist::ElabStats {
        explicit_type_instantiations: r.get_varint_u32()?,
        inferred_widths: r.get_varint_u32()?,
        defaulted_params: r.get_varint_u32()?,
        width_reads: r.get_varint_u32()?,
    };
    let n_modules = r.get_len()?;
    for _ in 0..n_modules {
        let sym = r.get_varint_u32()?;
        if (sym as usize) >= n_syms {
            return Err(format!("module symbol id {sym} out of range"));
        }
        let meta = ModuleMeta {
            hierarchical: r.get_u8()? != 0,
            from_library: r.get_u8()? != 0,
            trivial: r.get_u8()? != 0,
        };
        n.modules.insert(crate::intern::Symbol(sym), meta);
    }
    let n_insts = r.get_len()?;
    for i in 0..n_insts {
        let inst = read_instance(&mut r, i as u32, n_syms)?;
        if let Some(p) = inst.parent {
            if p.index() >= n_insts {
                return Err(format!("instance `{}` has out-of-range parent", inst.path));
            }
        }
        n.instances.push(inst);
    }
    let n_conns = r.get_len()?;
    for _ in 0..n_conns {
        let src = read_endpoint(&mut r)?;
        let dst = read_endpoint(&mut r)?;
        n.connections.push(Connection { src, dst });
    }
    // Validate endpoint references so a corrupt document cannot produce a
    // netlist that panics later (mirrors the JSON reader).
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
    let n_colls = r.get_len()?;
    for _ in 0..n_colls {
        let inst = InstanceId(r.get_varint_u32()?);
        if inst.index() >= n.instances.len() {
            return Err(format!("collector references unknown instance {inst}"));
        }
        let event = r.get_varint_u32()?;
        if (event as usize) >= n_syms {
            return Err(format!("collector event symbol {event} out of range"));
        }
        let code = r.get_str()?;
        n.collectors.push(Collector {
            inst,
            event: crate::intern::Symbol(event),
            code,
        });
    }
    let n_cons = r.get_len()?;
    for _ in 0..n_cons {
        let lhs = read_scheme(&mut r)?;
        let rhs = read_scheme(&mut r)?;
        let origin = read_origin(&mut r)?;
        n.constraints
            .push(Constraint::with_origin(lhs, rhs, origin));
    }
    if !r.at_end() {
        return Err(format!("{} trailing byte(s) after document", r.remaining()));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_json;
    use crate::netlist::testutil::{add, ep};

    #[test]
    fn struct_bytes_are_pinned() {
        let d = Datum::record([
            ("pc", Datum::Int(4096)),
            ("name", Datum::from("x\"y")),
            ("xs", Datum::Array(vec![Datum::Int(1), Datum::Int(-2)])),
            ("f", Datum::Float(1.5)),
            ("inner", Datum::record([("b", Datum::Bool(true))])),
        ]);
        let bytes: [u8; 50] = [
            5, 5, 2, 112, 99, 0, 128, 64, 4, 110, 97, 109, 101, 3, 3, 120, 34, 121, 2, 120, 115, 4,
            2, 0, 2, 0, 3, 1, 102, 2, 0, 0, 0, 0, 0, 0, 248, 63, 5, 105, 110, 110, 101, 114, 5, 1,
            1, 98, 1, 1,
        ];
        let mut w = Writer::new();
        write_datum(&mut w, &d);
        assert_eq!(w.finish(), bytes);
        let back = read_datum(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, d);
    }

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
        n.instance_mut(a)
            .params
            .insert("nan".into(), Datum::Float(f64::NAN));
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
        n.constraints.push(Constraint::with_origin(
            Scheme::Var(TyVar(0)),
            Scheme::Or(vec![Scheme::Int, Scheme::Float]),
            ConstraintOrigin::Connection {
                src: "a.out".into(),
                dst: "b.in".into(),
            },
        ));
        n.instances[0].protocols.push(ProtocolBinding {
            group: "outs".into(),
            role: Role::Producer,
            automaton: Automaton {
                template: Template::Custom("loopy".into()),
                states: vec!["idle".into(), "busy".into()],
                transitions: vec![Transition {
                    from: 0,
                    to: 1,
                    dir: ActionDir::Recv,
                    action: "item".into(),
                }],
            },
            ports: vec![PortId(0)],
            span: SrcSpan {
                file: 1,
                start: 10,
                end: 42,
            },
        });
        n
    }

    /// [`sample`] plus every other corner the format carries: runtime
    /// vars, events, collectors, every constraint origin, module metadata,
    /// struct/array/disjunctive schemes, ±inf floats and a built-in and a
    /// second custom protocol template.
    fn full() -> Netlist {
        let mut n = sample();
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
        for (key, v) in [
            ("scale", 2.0),
            ("nan", f64::NAN),
            ("inf", f64::INFINITY),
            ("ninf", f64::NEG_INFINITY),
        ] {
            n.instances[1].params.insert(key.into(), Datum::Float(v));
        }
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
        n.constraints.push(Constraint::with_origin(
            Scheme::String,
            Scheme::String,
            ConstraintOrigin::Synthetic,
        ));
        n.instances[0].protocols.push(ProtocolBinding {
            group: "credits".into(),
            role: Role::Producer,
            automaton: Automaton {
                template: Template::Credit(Some(4)),
                states: Vec::new(),
                transitions: Vec::new(),
            },
            ports: vec![PortId(0)],
            span: SrcSpan::default(),
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
        n
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let n = full();
        let bytes = to_binary(&n);
        let back = from_binary(&bytes).expect("round trip");
        let bytes2 = to_binary(&back);
        assert_eq!(bytes, bytes2, "second emission must be byte-identical");
        // And it is the same netlist: the same JSON rendering, and equal
        // pieces where downstream passes read them.
        assert_eq!(to_json(&back), to_json(&n));
        assert_eq!(back.connections.len(), n.connections.len());
        assert_eq!(back.collectors.len(), n.collectors.len());
        assert_eq!(back.modules, n.modules);
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
        // The special floats keep their variant and value.
        let params = &back.instances[1].params;
        assert!(matches!(params.get("nan"), Some(Datum::Float(f)) if f.is_nan()));
        assert!(matches!(params.get("inf"), Some(Datum::Float(f)) if *f == f64::INFINITY));
        assert!(matches!(params.get("ninf"), Some(Datum::Float(f)) if *f == f64::NEG_INFINITY));
        // Protocol bindings survive structurally, not just textually.
        assert_eq!(back.instances[0].protocols, n.instances[0].protocols);
        assert_eq!(back.instances[1].protocols, n.instances[1].protocols);
    }

    #[test]
    fn empty_netlist_round_trips() {
        let bytes = to_binary(&Netlist::new());
        let back = from_binary(&bytes).unwrap();
        assert_eq!(to_binary(&back), bytes);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let n = full();
        assert!(to_binary(&n).len() < to_json(&n).len());
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        let n = sample();
        let bytes = to_binary(&n);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(from_binary(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(from_binary(&bad).is_err());
        // Wrong format version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(from_binary(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(from_binary(&bad).is_err());
        // Random bit flips must error or round-trip; never panic.
        for i in (0..bytes.len()).step_by(7) {
            let mut fuzzed = bytes.clone();
            fuzzed[i] ^= 0x55;
            if let Ok(back) = from_binary(&fuzzed) {
                let _ = to_binary(&back);
            }
        }
    }
}
