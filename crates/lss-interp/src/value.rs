//! Compile-time values manipulated by the LSS evaluator.
//!
//! These are distinct from runtime [`Datum`]s: elaboration-time values also
//! include instance references, instance arrays, and helper functions,
//! none of which can flow through simulated hardware.

use std::fmt;
use std::rc::Rc;

use lss_ast::FunDecl;
use lss_netlist::InstanceId;
use lss_types::{Datum, Ty};

/// A value produced while evaluating LSS code at compile time.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Array of values.
    Array(Vec<Value>),
    /// Reference to a single module instance.
    Instance(InstanceId),
    /// Array of instance references (`new instance[n](...)`).
    InstanceArray(Vec<InstanceId>),
    /// A compile-time helper function (`fun`).
    Fun(Rc<FunDecl>),
    /// The unit value (result of statements-as-expressions).
    Unit,
}

impl Value {
    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Instance(_) => "instance ref",
            Value::InstanceArray(_) => "instance ref[]",
            Value::Fun(_) => "fun",
            Value::Unit => "unit",
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Converts a plain data value to a runtime [`Datum`].
    ///
    /// Instance references, functions, and unit are not data and return
    /// `None`.
    pub fn to_datum(&self) -> Option<Datum> {
        Some(match self {
            Value::Int(v) => Datum::Int(*v),
            Value::Bool(v) => Datum::Bool(*v),
            Value::Float(v) => Datum::Float(*v),
            Value::Str(s) => Datum::Str(s.clone()),
            Value::Array(items) => Datum::Array(
                items
                    .iter()
                    .map(Value::to_datum)
                    .collect::<Option<Vec<_>>>()?,
            ),
            Value::Instance(_) | Value::InstanceArray(_) | Value::Fun(_) | Value::Unit => {
                return None
            }
        })
    }

    /// Converts a datum back into a value.
    pub fn from_datum(datum: &Datum) -> Value {
        match datum {
            Datum::Int(v) => Value::Int(*v),
            Datum::Bool(v) => Value::Bool(*v),
            Datum::Float(v) => Value::Float(*v),
            Datum::Str(s) => Value::Str(s.clone()),
            Datum::Array(items) => Value::Array(items.iter().map(Value::from_datum).collect()),
            Datum::Struct(rec) => {
                // Struct data at compile time is uncommon; represent it as an
                // array of field values (positional) for parameter plumbing.
                Value::Array(rec.values().iter().map(Value::from_datum).collect())
            }
        }
    }

    /// Checks the value against a ground type, coercing `int` literals to
    /// `float` where the declared type requires it.
    ///
    /// Returns the (possibly coerced) datum on success.
    pub fn conform(&self, ty: &Ty) -> Option<Datum> {
        match (self, ty) {
            (Value::Int(v), Ty::Float) => Some(Datum::Float(*v as f64)),
            (Value::Array(items), Ty::Array(elem, n)) => {
                if items.len() != *n {
                    return None;
                }
                Some(Datum::Array(
                    items
                        .iter()
                        .map(|v| v.conform(elem))
                        .collect::<Option<Vec<_>>>()?,
                ))
            }
            _ => {
                let datum = self.to_datum()?;
                datum.conforms_to(ty).then_some(datum)
            }
        }
    }

    /// Structural equality for the `==` operator. Instances compare by id;
    /// functions never compare equal.
    pub fn eq_value(&self, other: &Value) -> Option<bool> {
        Some(match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Instance(a), Value::Instance(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .map(|(x, y)| x.eq_value(y))
                        .collect::<Option<Vec<_>>>()?
                        .into_iter()
                        .all(|eq| eq)
            }
            _ => return None,
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Instance(id) => write!(f, "<instance {id}>"),
            Value::InstanceArray(ids) => write!(f, "<instances x{}>", ids.len()),
            Value::Fun(decl) => write!(f, "<fun {}>", decl.name),
            Value::Unit => write!(f, "()"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn datum_round_trip() {
        let v = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let d = v.to_datum().unwrap();
        assert_eq!(d, Datum::Array(vec![Datum::Int(1), Datum::Int(2)]));
        assert!(Value::Instance(InstanceId(0)).to_datum().is_none());
        assert!(matches!(
            Value::from_datum(&Datum::Bool(true)),
            Value::Bool(true)
        ));
    }

    #[test]
    fn conform_coerces_int_to_float() {
        assert_eq!(Value::Int(3).conform(&Ty::Float), Some(Datum::Float(3.0)));
        assert_eq!(Value::Int(3).conform(&Ty::Int), Some(Datum::Int(3)));
        assert_eq!(Value::Int(3).conform(&Ty::Bool), None);
        let arr = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            arr.conform(&Ty::Array(Box::new(Ty::Float), 2)),
            Some(Datum::Array(vec![Datum::Float(1.0), Datum::Float(2.0)]))
        );
        assert_eq!(arr.conform(&Ty::Array(Box::new(Ty::Float), 3)), None);
    }

    #[test]
    fn equality_semantics() {
        assert_eq!(Value::Int(1).eq_value(&Value::Float(1.0)), Some(true));
        assert_eq!(
            Value::Str("a".into()).eq_value(&Value::Str("b".into())),
            Some(false)
        );
        assert_eq!(Value::Int(1).eq_value(&Value::Str("1".into())), None);
        assert_eq!(
            Value::Instance(InstanceId(1)).eq_value(&Value::Instance(InstanceId(1))),
            Some(true)
        );
    }

    #[test]
    fn kinds_are_descriptive() {
        assert_eq!(Value::Unit.kind(), "unit");
        assert_eq!(Value::InstanceArray(vec![]).kind(), "instance ref[]");
    }
}
