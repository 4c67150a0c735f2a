//! The behavior specification language (BSL) interpreter.
//!
//! Userpoint parameters and collector bodies carry BSL code as strings
//! (§4.3, §4.5). The paper keeps the BSL pluggable; ours reuses LSS's
//! statement/expression *syntax* (parsed with the `lss-ast` front end) but
//! is interpreted at **simulation time** over [`Datum`] values, with access
//! to the invocation's arguments and the instance's runtime variables.
//!
//! Supported statements: `var`, assignment, `if`/`else`, `while`, `for`,
//! `return`, expression statements, and blocks. Structural statements
//! (`instance`, `->`, `parameter`, ...) are compile errors — BSL describes
//! computation, not structure.

use std::collections::HashMap;
use std::rc::Rc;

use lss_ast::{parse, BinOp, DiagnosticBag, Expr, ExprKind, SourceMap, Stmt, TypeExpr, UnOp};
use lss_types::Datum;

use crate::component::SimError;
use crate::slots::SlotTable;

/// A compiled BSL program.
#[derive(Debug, Clone)]
pub struct BslProgram {
    body: Rc<Vec<Stmt>>,
    source: String,
}

impl BslProgram {
    /// The original source code.
    pub fn source(&self) -> &str {
        &self.source
    }
}

/// Parses BSL code.
///
/// # Errors
///
/// Returns rendered diagnostics if the code does not parse or contains
/// structural statements.
pub fn compile_bsl(code: &str) -> Result<BslProgram, String> {
    let mut sources = SourceMap::new();
    let file = sources.add_file("<bsl>", code);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, code, &mut diags);
    if diags.has_errors() {
        return Err(diags.render(&sources));
    }
    if !program.modules.is_empty() {
        return Err("BSL code cannot declare modules".to_string());
    }
    for stmt in &program.top {
        check_behavioral(stmt)?;
    }
    Ok(BslProgram {
        body: Rc::new(program.top),
        source: code.to_string(),
    })
}

fn check_behavioral(stmt: &Stmt) -> Result<(), String> {
    let bad = |what: &str| Err(format!("BSL code cannot contain {what} (it is structural)"));
    match stmt {
        Stmt::Parameter(_) => bad("parameter declarations"),
        Stmt::Port(_) => bad("port declarations"),
        Stmt::Instance(_) => bad("instance declarations"),
        Stmt::Connect(_) => bad("connections"),
        Stmt::TypeInstantiation(_) => bad("type instantiations"),
        Stmt::RuntimeVar(_) => bad("runtime variable declarations (declare them in the module)"),
        Stmt::Event(_) => bad("event declarations"),
        Stmt::Collector(_) => bad("collectors"),
        Stmt::ProtocolDecl(_) => bad("protocol declarations"),
        Stmt::ProtocolAnnot(_) => bad("protocol annotations"),
        Stmt::Fun(f) => f.body.iter().try_for_each(check_behavioral),
        Stmt::If(s) => s
            .then_body
            .iter()
            .chain(&s.else_body)
            .try_for_each(check_behavioral),
        Stmt::While(s) => s.body.iter().try_for_each(check_behavioral),
        Stmt::For(s) => {
            if let Some(init) = &s.init {
                check_behavioral(init)?;
            }
            if let Some(step) = &s.step {
                check_behavioral(step)?;
            }
            s.body.iter().try_for_each(check_behavioral)
        }
        Stmt::Block(body, _) => body.iter().try_for_each(check_behavioral),
        Stmt::Var(_) | Stmt::Assign(_) | Stmt::Expr(_) | Stmt::Return(..) => Ok(()),
    }
}

/// Execution environment for one BSL invocation.
///
/// Argument binding is positional: `args[i]` is the value of the name
/// `arg_names[i]`. The engine precomputes argument-name tables once, so a
/// per-cycle invocation allocates no strings and hashes nothing.
#[derive(Debug)]
pub struct BslEnv<'a> {
    /// Declared argument names, in order.
    pub arg_names: &'a [String],
    /// Argument values, parallel to `arg_names` (mutable as scratch locals).
    pub args: Vec<Datum>,
    /// Persistent state: the instance's runtime variables, or a collector's
    /// accumulator table.
    pub vars: &'a mut SlotTable,
    /// Collector mode: reading an unknown name yields `0` and assigning an
    /// unknown name creates it — collectors cannot pre-declare state.
    pub implicit_zero: bool,
}

impl<'a> BslEnv<'a> {
    /// Binds `args` to `arg_names` positionally over the state table `vars`.
    pub fn bound(arg_names: &'a [String], args: Vec<Datum>, vars: &'a mut SlotTable) -> Self {
        debug_assert_eq!(arg_names.len(), args.len());
        BslEnv {
            arg_names,
            args,
            vars,
            implicit_zero: false,
        }
    }
}

/// Executes `program`, returning the value of the first `return` (if any).
///
/// # Errors
///
/// Runtime errors (unknown names, type mismatches, division by zero,
/// exceeding `max_steps`).
pub fn exec(
    program: &BslProgram,
    env: &mut BslEnv<'_>,
    max_steps: u64,
) -> Result<Option<Datum>, SimError> {
    let mut interp = Interp {
        env,
        locals: vec![HashMap::new()],
        steps: 0,
        max_steps,
    };
    match interp.block_raw(&program.body)? {
        Ctl::Return(v) => Ok(Some(v)),
        Ctl::Normal => Ok(None),
    }
}

enum Ctl {
    Normal,
    Return(Datum),
}

struct Interp<'a, 'b> {
    env: &'a mut BslEnv<'b>,
    locals: Vec<HashMap<String, Datum>>,
    steps: u64,
    max_steps: u64,
}

impl Interp<'_, '_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, SimError> {
        Err(SimError::new(msg.into()))
    }

    fn tick(&mut self) -> Result<(), SimError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return self.err(format!("BSL exceeded {} steps", self.max_steps));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Datum> {
        self.locals
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .or_else(|| {
                self.env
                    .arg_names
                    .iter()
                    .position(|n| n == name)
                    .map(|i| &self.env.args[i])
            })
            .or_else(|| self.env.vars.get(name))
    }

    fn read(&mut self, name: &str) -> Result<Datum, SimError> {
        if let Some(v) = self.lookup(name) {
            return Ok(v.clone());
        }
        if self.env.implicit_zero {
            return Ok(Datum::Int(0));
        }
        self.err(format!("BSL references unknown name `{name}`"))
    }

    fn write(&mut self, name: &str, value: Datum) -> Result<(), SimError> {
        for scope in self.locals.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return Ok(());
            }
        }
        if let Some(i) = self.env.arg_names.iter().position(|n| n == name) {
            self.env.args[i] = value;
            return Ok(());
        }
        if let Some(slot) = self.env.vars.get_mut(name) {
            *slot = value;
            return Ok(());
        }
        if self.env.implicit_zero {
            self.env.vars.push(name, value);
            return Ok(());
        }
        self.err(format!("BSL assigns unknown name `{name}`"))
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Ctl, SimError> {
        self.locals.push(HashMap::new());
        let result = self.block_raw(stmts);
        self.locals.pop();
        result
    }

    fn block_raw(&mut self, stmts: &[Stmt]) -> Result<Ctl, SimError> {
        for stmt in stmts {
            if let Ctl::Return(v) = self.stmt(stmt)? {
                return Ok(Ctl::Return(v));
            }
        }
        Ok(Ctl::Normal)
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<Ctl, SimError> {
        self.tick()?;
        match stmt {
            Stmt::Var(decl) => {
                let value = match (&decl.init, &decl.ty) {
                    (Some(init), _) => self.eval(init)?,
                    (None, Some(ty)) => default_for_type_expr(ty)
                        .ok_or_else(|| SimError::new("BSL var needs an initializer"))?,
                    (None, None) => return self.err("BSL var needs a type or initializer"),
                };
                self.locals
                    .last_mut()
                    .expect("at least one scope")
                    .insert(decl.name.name.clone(), value);
            }
            Stmt::Assign(assign) => {
                let value = self.eval(&assign.value)?;
                self.assign(&assign.target, value)?;
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
            }
            Stmt::If(s) => {
                let cond = self.eval_bool(&s.cond)?;
                return self.block(if cond { &s.then_body } else { &s.else_body });
            }
            Stmt::While(s) => loop {
                self.tick()?;
                if !self.eval_bool(&s.cond)? {
                    break;
                }
                if let Ctl::Return(v) = self.block(&s.body)? {
                    return Ok(Ctl::Return(v));
                }
            },
            Stmt::For(s) => {
                self.locals.push(HashMap::new());
                let result = (|| {
                    if let Some(init) = &s.init {
                        if let Ctl::Return(v) = self.stmt(init)? {
                            return Ok(Ctl::Return(v));
                        }
                    }
                    loop {
                        self.tick()?;
                        let go = match &s.cond {
                            Some(c) => self.eval_bool(c)?,
                            None => true,
                        };
                        if !go {
                            return Ok(Ctl::Normal);
                        }
                        if let Ctl::Return(v) = self.block(&s.body)? {
                            return Ok(Ctl::Return(v));
                        }
                        if let Some(step) = &s.step {
                            if let Ctl::Return(v) = self.stmt(step)? {
                                return Ok(Ctl::Return(v));
                            }
                        }
                    }
                })();
                self.locals.pop();
                return result;
            }
            Stmt::Block(body, _) => return self.block(body),
            Stmt::Return(value, _) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Datum::Int(0),
                };
                return Ok(Ctl::Return(v));
            }
            // check_behavioral rejected everything else at compile time.
            other => {
                return self.err(format!("BSL cannot execute {other:?}"));
            }
        }
        Ok(Ctl::Normal)
    }

    fn assign(&mut self, target: &Expr, value: Datum) -> Result<(), SimError> {
        match &target.kind {
            ExprKind::Ident(id) => self.write(&id.name, value),
            ExprKind::Field(base, field) => {
                let ExprKind::Ident(root) = &base.kind else {
                    return self.err("BSL field assignment must be `name.field`");
                };
                let root_name = root.name.clone();
                let mut current = self.read(&root_name)?;
                match current.field_mut(&field.name) {
                    Some(slot) => *slot = value,
                    None => return self.err(format!("no field `{}` on `{root_name}`", field.name)),
                }
                self.write(&root_name, current)
            }
            ExprKind::Index(base, idx) => {
                let ExprKind::Ident(root) = &base.kind else {
                    return self.err("BSL index assignment must be `name[i]`");
                };
                let root_name = root.name.clone();
                let i = self.eval_index(idx)?;
                let mut current = self.read(&root_name)?;
                match &mut current {
                    Datum::Array(items) if i < items.len() => items[i] = value,
                    Datum::Array(items) => {
                        return self
                            .err(format!("index {i} out of bounds (length {})", items.len()))
                    }
                    other => return self.err(format!("cannot index into {other}")),
                }
                self.write(&root_name, current)
            }
            _ => self.err("unsupported BSL assignment target"),
        }
    }

    fn eval_bool(&mut self, e: &Expr) -> Result<bool, SimError> {
        match self.eval(e)? {
            Datum::Bool(b) => Ok(b),
            other => self.err(format!("expected bool, got {other}")),
        }
    }

    fn eval_index(&mut self, e: &Expr) -> Result<usize, SimError> {
        match self.eval(e)? {
            Datum::Int(v) if v >= 0 => Ok(v as usize),
            other => self.err(format!("index must be a non-negative int, got {other}")),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Datum, SimError> {
        self.tick()?;
        match &e.kind {
            ExprKind::Int(v) => Ok(Datum::Int(*v)),
            ExprKind::Float(v) => Ok(Datum::Float(*v)),
            ExprKind::Str(s) => Ok(Datum::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Datum::Bool(*b)),
            ExprKind::Ident(id) => self.read(&id.name),
            ExprKind::Field(base, field) => {
                let v = self.eval(base)?;
                match v.field(&field.name) {
                    Some(f) => Ok(f.clone()),
                    None => self.err(format!("{v} has no field `{}`", field.name)),
                }
            }
            ExprKind::Index(base, idx) => {
                let i = self.eval_index(idx)?;
                match self.eval(base)? {
                    Datum::Array(items) => items
                        .get(i)
                        .cloned()
                        .ok_or_else(|| SimError::new(format!("index {i} out of bounds"))),
                    other => self.err(format!("cannot index into {other}")),
                }
            }
            ExprKind::Call(callee, args) => {
                let Some(name) = callee.as_ident() else {
                    return self.err("BSL can only call builtin functions");
                };
                self.call_builtin(&name.name.clone(), args)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match (op, v) {
                    (UnOp::Neg, Datum::Int(v)) => Ok(Datum::Int(-v)),
                    (UnOp::Neg, Datum::Float(v)) => Ok(Datum::Float(-v)),
                    (UnOp::Not, Datum::Bool(b)) => Ok(Datum::Bool(!b)),
                    (op, v) => self.err(format!("cannot apply {op:?} to {v}")),
                }
            }
            ExprKind::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs),
            ExprKind::Ternary(c, t, f) => {
                if self.eval_bool(c)? {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::ArrayLit(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Datum::Array(out))
            }
            ExprKind::NewInstanceArray { .. } => self.err("BSL cannot create instances"),
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Datum, SimError> {
        if op == BinOp::And {
            return Ok(Datum::Bool(self.eval_bool(lhs)? && self.eval_bool(rhs)?));
        }
        if op == BinOp::Or {
            return Ok(Datum::Bool(self.eval_bool(lhs)? || self.eval_bool(rhs)?));
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        datum_binary(op, l, r).map_err(SimError::new)
    }

    fn call_builtin(&mut self, name: &str, args: &[Expr]) -> Result<Datum, SimError> {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(a)?);
        }
        let arity = |n: usize| -> Result<(), SimError> {
            if values.len() != n {
                Err(SimError::new(format!("`{name}` expects {n} argument(s)")))
            } else {
                Ok(())
            }
        };
        match name {
            "len" => {
                arity(1)?;
                match &values[0] {
                    Datum::Array(items) => Ok(Datum::Int(items.len() as i64)),
                    Datum::Str(s) => Ok(Datum::Int(s.len() as i64)),
                    other => self.err(format!("len() of {other}")),
                }
            }
            "min" | "max" => {
                arity(2)?;
                match (&values[0], &values[1]) {
                    (Datum::Int(a), Datum::Int(b)) => Ok(Datum::Int(if name == "min" {
                        *a.min(b)
                    } else {
                        *a.max(b)
                    })),
                    (Datum::Float(a), Datum::Float(b)) => Ok(Datum::Float(if name == "min" {
                        a.min(*b)
                    } else {
                        a.max(*b)
                    })),
                    (a, b) => self.err(format!("{name}({a}, {b}) needs matching numbers")),
                }
            }
            "abs" => {
                arity(1)?;
                match &values[0] {
                    Datum::Int(v) => Ok(Datum::Int(v.abs())),
                    Datum::Float(v) => Ok(Datum::Float(v.abs())),
                    other => self.err(format!("abs() of {other}")),
                }
            }
            "to_int" => {
                arity(1)?;
                match &values[0] {
                    Datum::Int(v) => Ok(Datum::Int(*v)),
                    Datum::Float(v) => Ok(Datum::Int(*v as i64)),
                    Datum::Bool(b) => Ok(Datum::Int(*b as i64)),
                    other => self.err(format!("to_int() of {other}")),
                }
            }
            "to_float" => {
                arity(1)?;
                match &values[0] {
                    Datum::Int(v) => Ok(Datum::Float(*v as f64)),
                    Datum::Float(v) => Ok(Datum::Float(*v)),
                    other => self.err(format!("to_float() of {other}")),
                }
            }
            "str" => {
                arity(1)?;
                Ok(Datum::Str(values[0].to_string()))
            }
            other => self.err(format!("unknown BSL function `{other}`")),
        }
    }
}

/// Applies a binary operator to two datums (shared with component code).
pub fn datum_binary(op: BinOp, l: Datum, r: Datum) -> Result<Datum, String> {
    use Datum::*;
    if matches!(op, BinOp::Eq | BinOp::Ne) {
        let eq = match (&l, &r) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Struct(a), Struct(b)) => a == b,
            (a, b) => return Err(format!("cannot compare {a} with {b}")),
        };
        return Ok(Bool(if op == BinOp::Eq { eq } else { !eq }));
    }
    if let (BinOp::Add, Str(a)) = (op, &l) {
        return Ok(Str(format!("{a}{r}")));
    }
    let float_mode = matches!((&l, &r), (Float(_), _) | (_, Float(_)));
    if float_mode {
        let to_f = |d: &Datum| match d {
            Int(v) => Ok(*v as f64),
            Float(v) => Ok(*v),
            other => Err(format!("expected a number, got {other}")),
        };
        let (a, b) = (to_f(&l)?, to_f(&r)?);
        Ok(match op {
            BinOp::Add => Float(a + b),
            BinOp::Sub => Float(a - b),
            BinOp::Mul => Float(a * b),
            BinOp::Div => Float(a / b),
            BinOp::Rem => Float(a % b),
            BinOp::Lt => Bool(a < b),
            BinOp::Le => Bool(a <= b),
            BinOp::Gt => Bool(a > b),
            BinOp::Ge => Bool(a >= b),
            _ => return Err(format!("cannot apply {op} to floats")),
        })
    } else {
        let to_i = |d: &Datum| match d {
            Int(v) => Ok(*v),
            other => Err(format!("expected int, got {other}")),
        };
        let (a, b) = (to_i(&l)?, to_i(&r)?);
        if matches!(op, BinOp::Div | BinOp::Rem) && b == 0 {
            return Err("division by zero".to_string());
        }
        Ok(match op {
            BinOp::Add => Int(a.wrapping_add(b)),
            BinOp::Sub => Int(a.wrapping_sub(b)),
            BinOp::Mul => Int(a.wrapping_mul(b)),
            BinOp::Div => Int(a / b),
            BinOp::Rem => Int(a % b),
            BinOp::Lt => Bool(a < b),
            BinOp::Le => Bool(a <= b),
            BinOp::Gt => Bool(a > b),
            BinOp::Ge => Bool(a >= b),
            _ => return Err(format!("cannot apply {op} to ints")),
        })
    }
}

fn default_for_type_expr(ty: &TypeExpr) -> Option<Datum> {
    Some(match ty {
        TypeExpr::Int => Datum::Int(0),
        TypeExpr::Bool => Datum::Bool(false),
        TypeExpr::Float => Datum::Float(0.0),
        TypeExpr::String => Datum::Str(String::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: &str, args: &[(&str, Datum)], vars: &mut SlotTable) -> Option<Datum> {
        let prog = compile_bsl(code).unwrap_or_else(|e| panic!("BSL parse error: {e}"));
        let arg_names: Vec<String> = args.iter().map(|(n, _)| n.to_string()).collect();
        let values: Vec<Datum> = args.iter().map(|(_, v)| v.clone()).collect();
        let mut env = BslEnv::bound(&arg_names, values, vars);
        exec(&prog, &mut env, 100_000).unwrap_or_else(|e| panic!("BSL error: {e}"))
    }

    #[test]
    fn returns_expression_values() {
        let mut vars = SlotTable::new();
        assert_eq!(
            run("return reqs + 1;", &[("reqs", Datum::Int(4))], &mut vars),
            Some(Datum::Int(5))
        );
    }

    #[test]
    fn updates_runtime_variables() {
        let mut vars = SlotTable::from_pairs([("total", Datum::Int(10))]);
        run(
            "total = total + incoming;",
            &[("incoming", Datum::Int(5))],
            &mut vars,
        );
        assert_eq!(vars.get("total"), Some(&Datum::Int(15)));
    }

    #[test]
    fn control_flow_and_locals() {
        let mut vars = SlotTable::new();
        let result = run(
            r#"
            var acc:int = 0;
            for (var i:int = 0; i < n; i = i + 1) {
                if (i % 2 == 0) { acc = acc + i; }
            }
            return acc;
            "#,
            &[("n", Datum::Int(10))],
            &mut vars,
        );
        assert_eq!(result, Some(Datum::Int(20))); // 0+2+4+6+8
    }

    #[test]
    fn while_and_early_return() {
        let mut vars = SlotTable::new();
        let result = run(
            "var i:int = 0; while (true) { i = i + 1; if (i == 7) { return i; } }",
            &[],
            &mut vars,
        );
        assert_eq!(result, Some(Datum::Int(7)));
    }

    #[test]
    fn arrays_and_builtins() {
        let mut vars = SlotTable::new();
        let result = run(
            r#"
            var xs:int[] = [3, 1, 2];
            xs[0] = 5;
            return len(xs) * 100 + xs[0] * 10 + min(xs[1], xs[2]);
            "#,
            &[],
            &mut vars,
        );
        assert_eq!(result, Some(Datum::Int(351)));
    }

    #[test]
    fn struct_field_access_and_update() {
        let mut vars = SlotTable::from_pairs([(
            "pkt",
            Datum::record([("dest", Datum::Int(3)), ("data", Datum::Int(9))]),
        )]);
        let result = run("pkt.dest = pkt.dest + 1; return pkt.dest;", &[], &mut vars);
        assert_eq!(result, Some(Datum::Int(4)));
        assert_eq!(vars.get("pkt").unwrap().field("dest"), Some(&Datum::Int(4)));
    }

    #[test]
    fn struct_field_update_leaves_a_shared_copy_unchanged() {
        // Both variables hold the same shared struct payload; the update
        // must copy it rather than write through to `orig`.
        let pkt = Datum::record([("dest", Datum::Int(3))]);
        let mut vars = SlotTable::from_pairs([("pkt", pkt.clone()), ("orig", pkt)]);
        let result = run("pkt.dest = 7; return orig.dest;", &[], &mut vars);
        assert_eq!(result, Some(Datum::Int(3)));
        assert_eq!(vars.get("pkt").unwrap().field("dest"), Some(&Datum::Int(7)));
        assert_eq!(
            vars.get("orig").unwrap().field("dest"),
            Some(&Datum::Int(3))
        );
    }

    #[test]
    fn collector_mode_creates_implicit_state() {
        let prog = compile_bsl("fires = fires + 1;").unwrap();
        let mut vars = SlotTable::new();
        let mut env = BslEnv {
            arg_names: &[],
            args: vec![],
            vars: &mut vars,
            implicit_zero: true,
        };
        exec(&prog, &mut env, 1000).unwrap();
        exec(&prog, &mut env, 1000).unwrap();
        assert_eq!(vars.get("fires"), Some(&Datum::Int(2)));
    }

    #[test]
    fn unknown_name_is_an_error_outside_collector_mode() {
        let prog = compile_bsl("return nope;").unwrap();
        let mut vars = SlotTable::new();
        let mut env = BslEnv::bound(&[], vec![], &mut vars);
        let err = exec(&prog, &mut env, 1000).unwrap_err();
        assert!(err.message.contains("unknown name `nope`"));
    }

    #[test]
    fn structural_statements_are_rejected_at_compile_time() {
        assert!(compile_bsl("instance d:delay;")
            .unwrap_err()
            .contains("structural"));
        assert!(compile_bsl("a.out -> b.in;")
            .unwrap_err()
            .contains("structural"));
        assert!(compile_bsl("if (true) { inport x:int; }").is_err());
        assert!(compile_bsl("module m { };")
            .unwrap_err()
            .contains("modules"));
    }

    #[test]
    fn runaway_loops_hit_the_step_budget() {
        let prog = compile_bsl("while (true) { }").unwrap();
        let mut vars = SlotTable::new();
        let mut env = BslEnv::bound(&[], vec![], &mut vars);
        let err = exec(&prog, &mut env, 500).unwrap_err();
        assert!(err.message.contains("exceeded 500 steps"));
    }

    #[test]
    fn float_promotion_and_division_guard() {
        let mut vars = SlotTable::new();
        assert_eq!(run("return 3 / 2;", &[], &mut vars), Some(Datum::Int(1)));
        assert_eq!(
            run("return 3.0 / 2;", &[], &mut vars),
            Some(Datum::Float(1.5))
        );
        let prog = compile_bsl("return 1 / 0;").unwrap();
        let mut env = BslEnv::bound(&[], vec![], &mut vars);
        assert!(exec(&prog, &mut env, 100)
            .unwrap_err()
            .message
            .contains("division by zero"));
    }

    #[test]
    fn string_concat_via_plus() {
        let mut vars = SlotTable::new();
        assert_eq!(
            run(r#"return "n=" + 4;"#, &[], &mut vars),
            Some(Datum::Str("n=4".into()))
        );
    }
}
