//! Pretty-printer that renders an AST back to canonical LSS source.
//!
//! Used for debugging, golden tests, and the line-count experiment (§7),
//! which compares specification sizes in a normalized format.

use std::fmt::Write;

use crate::ast::*;
use crate::lexer::escape_str;

/// Renders a whole program as canonical LSS source.
pub fn program_to_string(program: &Program) -> String {
    let mut p = Printer::default();
    for import in &program.imports {
        let _ = writeln!(p.out, "import {};", import.path);
    }
    if !program.imports.is_empty() {
        p.out.push('\n');
    }
    for module in &program.modules {
        p.module(module);
        p.out.push('\n');
    }
    for stmt in &program.top {
        p.stmt(stmt);
    }
    p.out
}

/// Renders a single statement as canonical LSS source.
pub fn stmt_to_string(stmt: &Stmt) -> String {
    let mut p = Printer::default();
    p.stmt(stmt);
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line_start(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn module(&mut self, m: &ModuleDecl) {
        self.line_start();
        let _ = writeln!(self.out, "module {} {{", m.name);
        self.indent += 1;
        for stmt in &m.body {
            self.stmt(stmt);
        }
        self.indent -= 1;
        self.line_start();
        self.out.push_str("};\n");
    }

    fn body(&mut self, stmts: &[Stmt]) {
        self.out.push_str("{\n");
        self.indent += 1;
        for s in stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.line_start();
        self.out.push('}');
    }

    fn stmt(&mut self, stmt: &Stmt) {
        self.line_start();
        match stmt {
            Stmt::Parameter(p) => {
                let _ = write!(self.out, "parameter {}", p.name);
                if let Some(d) = &p.default {
                    self.out.push_str(" = ");
                    self.expr(d);
                }
                self.out.push_str(" : ");
                self.ty(&p.ty);
                self.out.push_str(";\n");
            }
            Stmt::Port(p) => {
                let _ = write!(self.out, "{} {} : ", p.dir, p.name);
                self.ty(&p.ty);
                self.out.push_str(";\n");
            }
            Stmt::Instance(i) => {
                let _ = writeln!(self.out, "instance {} : {};", i.name, i.module);
            }
            Stmt::Var(v) => {
                let _ = write!(self.out, "var {}", v.name);
                if let Some(t) = &v.ty {
                    self.out.push_str(" : ");
                    self.ty(t);
                }
                if let Some(e) = &v.init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            Stmt::RuntimeVar(v) => {
                let _ = write!(self.out, "runtime var {} : ", v.name);
                self.ty(&v.ty);
                if let Some(e) = &v.init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            Stmt::Event(e) => {
                let _ = write!(self.out, "event {}(", e.name);
                for (i, t) in e.args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.ty(t);
                }
                self.out.push_str(");\n");
            }
            Stmt::Collector(c) => {
                self.out.push_str("collector ");
                self.expr(&c.target);
                let _ = write!(self.out, " : {} = ", c.event);
                self.expr(&c.body);
                self.out.push_str(";\n");
            }
            Stmt::Assign(a) => {
                self.expr(&a.target);
                self.out.push_str(" = ");
                self.expr(&a.value);
                self.out.push_str(";\n");
            }
            Stmt::Connect(c) => {
                self.expr(&c.src);
                self.out.push_str(" -> ");
                self.expr(&c.dst);
                if let Some(t) = &c.ty {
                    self.out.push_str(" : ");
                    self.ty(t);
                }
                self.out.push_str(";\n");
            }
            Stmt::TypeInstantiation(t) => {
                self.expr(&t.target);
                self.out.push_str(" :: ");
                self.ty(&t.ty);
                self.out.push_str(";\n");
            }
            Stmt::Expr(e) => {
                self.expr(e);
                self.out.push_str(";\n");
            }
            Stmt::If(i) => {
                self.out.push_str("if (");
                self.expr(&i.cond);
                self.out.push_str(") ");
                self.body(&i.then_body);
                if !i.else_body.is_empty() {
                    self.out.push_str(" else ");
                    self.body(&i.else_body);
                }
                self.out.push('\n');
            }
            Stmt::For(f) => {
                self.out.push_str("for (");
                if let Some(init) = &f.init {
                    let s = stmt_to_string(init);
                    self.out.push_str(s.trim_end().trim_end_matches(';'));
                }
                self.out.push_str("; ");
                if let Some(c) = &f.cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(step) = &f.step {
                    let s = stmt_to_string(step);
                    self.out.push_str(s.trim_end().trim_end_matches(';'));
                }
                self.out.push_str(") ");
                self.body(&f.body);
                self.out.push('\n');
            }
            Stmt::While(w) => {
                self.out.push_str("while (");
                self.expr(&w.cond);
                self.out.push_str(") ");
                self.body(&w.body);
                self.out.push('\n');
            }
            Stmt::Block(stmts, _) => {
                self.body(stmts);
                self.out.push('\n');
            }
            Stmt::Return(e, _) => {
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            Stmt::Fun(f) => {
                let _ = write!(self.out, "fun {}(", f.name);
                for (i, p) in f.params.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    let _ = write!(self.out, "{p}");
                }
                self.out.push_str(") ");
                self.body(&f.body);
                self.out.push('\n');
            }
            Stmt::ProtocolDecl(p) => {
                let _ = writeln!(self.out, "protocol {} {{", p.name);
                self.indent += 1;
                for s in &p.states {
                    self.line_start();
                    let _ = writeln!(self.out, "state {s};");
                }
                for t in &p.transitions {
                    self.line_start();
                    let _ = writeln!(self.out, "{} -> {} : {} {};", t.from, t.to, t.dir, t.action);
                }
                self.indent -= 1;
                self.line_start();
                self.out.push_str("};\n");
            }
            Stmt::ProtocolAnnot(a) => {
                let _ = write!(self.out, "protocol {} : {} ", a.group, a.role);
                match &a.spec {
                    ProtocolSpecExpr::ValidReady => self.out.push_str("valid_ready"),
                    ProtocolSpecExpr::ReqResp => self.out.push_str("req_resp"),
                    ProtocolSpecExpr::Credit(None) => self.out.push_str("credit"),
                    ProtocolSpecExpr::Credit(Some(n)) => {
                        self.out.push_str("credit(");
                        self.expr(n);
                        self.out.push(')');
                    }
                    ProtocolSpecExpr::Named(n) => {
                        let _ = write!(self.out, "{n}");
                    }
                }
                self.out.push_str(" on ");
                for (i, p) in a.ports.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(p);
                }
                self.out.push_str(";\n");
            }
        }
    }

    fn ty(&mut self, ty: &TypeExpr) {
        match ty {
            TypeExpr::Int => self.out.push_str("int"),
            TypeExpr::Bool => self.out.push_str("bool"),
            TypeExpr::Float => self.out.push_str("float"),
            TypeExpr::String => self.out.push_str("string"),
            TypeExpr::Array(inner, len) => {
                // Parenthesize disjunctive element types to keep `|` binding clear.
                if matches!(**inner, TypeExpr::Disjunction(_)) {
                    self.out.push('(');
                    self.ty(inner);
                    self.out.push(')');
                } else {
                    self.ty(inner);
                }
                self.out.push('[');
                if !matches!(len.kind, ExprKind::Int(-1)) {
                    self.expr(len);
                }
                self.out.push(']');
            }
            TypeExpr::Struct(fields) => {
                self.out.push_str("struct { ");
                for (name, t) in fields {
                    let _ = write!(self.out, "{name} : ");
                    self.ty(t);
                    self.out.push_str("; ");
                }
                self.out.push('}');
            }
            TypeExpr::Var(v) => {
                let _ = write!(self.out, "'{}", v.name);
            }
            TypeExpr::Disjunction(alts) => {
                for (i, t) in alts.iter().enumerate() {
                    if i > 0 {
                        self.out.push('|');
                    }
                    self.ty(t);
                }
            }
            TypeExpr::InstanceRef { array } => {
                self.out.push_str("instance ref");
                if *array {
                    self.out.push_str("[]");
                }
            }
            TypeExpr::Userpoint(sig) => {
                self.out.push_str("userpoint(");
                for (i, (name, t)) in sig.args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    let _ = write!(self.out, "{name} : ");
                    self.ty(t);
                }
                self.out.push_str(" => ");
                self.ty(&sig.ret);
                self.out.push(')');
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Int(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::Float(v) => {
                let _ = write!(self.out, "{v:?}");
            }
            ExprKind::Str(s) => {
                let _ = write!(self.out, "\"{}\"", escape_str(s));
            }
            ExprKind::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Ident(id) => {
                let _ = write!(self.out, "{id}");
            }
            ExprKind::Field(base, field) => {
                self.expr(base);
                let _ = write!(self.out, ".{field}");
            }
            ExprKind::Index(base, idx) => {
                self.expr(base);
                self.out.push('[');
                self.expr(idx);
                self.out.push(']');
            }
            ExprKind::Call(callee, args) => {
                self.expr(callee);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::NewInstanceArray { len, module, name } => {
                self.out.push_str("new instance[");
                self.expr(len);
                let _ = write!(self.out, "]({module}, ");
                self.expr(name);
                self.out.push(')');
            }
            ExprKind::Unary(op, inner) => {
                self.out.push(match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                });
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::Binary(op, l, r) => {
                self.out.push('(');
                self.expr(l);
                let _ = write!(self.out, " {op} ");
                self.expr(r);
                self.out.push(')');
            }
            ExprKind::Ternary(c, t, f) => {
                self.out.push('(');
                self.expr(c);
                self.out.push_str(" ? ");
                self.expr(t);
                self.out.push_str(" : ");
                self.expr(f);
                self.out.push(')');
            }
            ExprKind::ArrayLit(elems) => {
                self.out.push('[');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
                self.out.push(']');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagnosticBag;
    use crate::parser::parse;
    use crate::span::SourceMap;

    fn roundtrip(src: &str) -> String {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", src);
        let mut diags = DiagnosticBag::new();
        let prog = parse(id, src, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render(&map));
        program_to_string(&prog)
    }

    /// Printing then re-parsing must produce the identical AST (idempotent
    /// canonical form).
    fn assert_stable(src: &str) {
        let printed = roundtrip(src);
        let reprinted = roundtrip(&printed);
        assert_eq!(
            printed, reprinted,
            "pretty-printing is not idempotent for:\n{src}"
        );
    }

    #[test]
    fn prints_module() {
        let out = roundtrip("module delay { parameter initial_state = 0:int; inport in:int; };");
        assert!(out.contains("module delay {"));
        assert!(out.contains("parameter initial_state = 0 : int;"));
        assert!(out.contains("inport in : int;"));
    }

    #[test]
    fn stable_across_constructs() {
        assert_stable(
            r#"
            module delayn {
                parameter n:int;
                inport in: 'a;
                outport out: 'a;
                var delays:instance ref[];
                delays = new instance[n](delay, "delays");
                in -> delays[0].in;
                for (var i:int = 1; i < n; i = i + 1) {
                    delays[i-1].out -> delays[i].in;
                }
                delays[n-1].out -> out;
            };
            instance d:delayn;
            d.n = 3;
            d.out :: int;
            "#,
        );
    }

    #[test]
    fn stable_types() {
        assert_stable(
            "module m { inport a: (int|float)[4]; inport b: struct { x:int; }; parameter u: userpoint(r:int => int); };",
        );
    }

    #[test]
    fn stable_control_flow() {
        assert_stable(
            "fun f(x) { if (x > 0) { return x; } else { return -(x); } }\nwhile (false) { }\n",
        );
    }

    #[test]
    fn stable_protocols() {
        assert_stable(
            r#"
            protocol loopy {
                state idle;
                state busy;
                idle -> busy : recv go;
                busy -> idle : send item;
            };
            module q {
                parameter depth = 8:int;
                inport in:'a;
                outport credit:int;
                protocol ins : consumer credit(depth) on in, credit;
            };
            protocol flood : producer credit(9) on s.out;
            protocol hs : producer valid_ready on s.out, s.ready_in;
            "#,
        );
        let out = roundtrip("protocol mem : consumer req_resp on c.req, c.resp;");
        assert!(out.contains("protocol mem : consumer req_resp on c.req, c.resp;"));
    }

    #[test]
    fn prints_events_and_collectors() {
        let out = roundtrip(
            "module m { event e(int); };\ninstance i:m;\ncollector i : e = \"n = n + 1\";",
        );
        assert!(out.contains("event e(int);"));
        assert!(out.contains("collector i : e = \"n = n + 1\";"));
    }
}
