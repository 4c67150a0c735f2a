//! Lexical environments for compile-time evaluation.

use std::collections::HashMap;

use crate::value::Value;

/// A stack of lexical scopes mapping names to compile-time values.
///
/// Module bodies, blocks, loops, and `fun` calls each push a scope;
/// assignment updates the innermost binding.
#[derive(Debug, Default)]
pub struct Env {
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    /// Creates an environment with a single (outermost) scope.
    pub fn new() -> Self {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    /// Pushes a nested scope.
    pub fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Pops the innermost scope. The outermost scope is never popped: an
    /// unbalanced pop is a bug in the interpreter's push/pop pairing
    /// (caught by `debug_assert` in tests), never a user-visible panic.
    pub fn pop(&mut self) {
        debug_assert!(self.scopes.len() > 1, "cannot pop the outermost scope");
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }

    /// Declares `name` in the innermost scope (shadowing outer bindings).
    pub fn declare(&mut self, name: impl Into<String>, value: Value) {
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.into(), value);
        }
    }

    /// Looks up `name`, innermost scope first.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Assigns to an existing binding, innermost first.
    ///
    /// Returns `false` if `name` is not bound anywhere.
    pub fn assign(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    /// Mutable access to a binding, innermost first.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    /// True if `name` is declared in the innermost scope.
    pub fn declared_here(&self, name: &str) -> bool {
        self.scopes
            .last()
            .map(|s| s.contains_key(name))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn scoping_shadows_and_restores() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        env.declare("x", Value::Int(2));
        assert_eq!(env.get("x").unwrap().as_int(), Some(2));
        env.pop();
        assert_eq!(env.get("x").unwrap().as_int(), Some(1));
    }

    #[test]
    fn assign_updates_outer_binding() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        assert!(env.assign("x", Value::Int(5)));
        env.pop();
        assert_eq!(env.get("x").unwrap().as_int(), Some(5));
        assert!(!env.assign("missing", Value::Unit));
    }

    #[test]
    fn declared_here_only_sees_innermost() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        assert!(!env.declared_here("x"));
        env.declare("x", Value::Int(2));
        assert!(env.declared_here("x"));
    }

    // The guard is a `debug_assert`, so release builds do not panic.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outermost")]
    fn popping_last_scope_panics() {
        Env::new().pop();
    }
}
