//! Runtime data values (`Datum`) flowing through simulated hardware.
//!
//! Every value a component sends on a port, stores in a runtime variable, or
//! passes to a userpoint is a `Datum`. Its shape mirrors the ground type
//! grammar [`Ty`].

use std::fmt;
use std::sync::Arc;

use crate::ty::Ty;

/// A dynamically typed runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Integer value.
    Int(i64),
    /// Boolean value.
    Bool(bool),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
    /// Fixed-length array.
    Array(Vec<Datum>),
    /// Record value with named fields. The field list is shared: `clone`
    /// bumps a reference count instead of copying every field name, so a
    /// struct crossing a port costs no allocation. Updates go through
    /// [`Datum::field_mut`], which copies on write, so sharing is never
    /// observable.
    Struct(Arc<Vec<(String, Datum)>>),
}

impl Datum {
    /// The ground type of this value.
    ///
    /// Empty arrays report element type `int` (they cannot occur for ports
    /// whose array types always have a static non-zero length).
    pub fn ty(&self) -> Ty {
        match self {
            Datum::Int(_) => Ty::Int,
            Datum::Bool(_) => Ty::Bool,
            Datum::Float(_) => Ty::Float,
            Datum::Str(_) => Ty::String,
            Datum::Array(items) => {
                let elem = items.first().map(Datum::ty).unwrap_or(Ty::Int);
                Ty::Array(Box::new(elem), items.len())
            }
            Datum::Struct(fields) => {
                Ty::Struct(fields.iter().map(|(n, v)| (n.clone(), v.ty())).collect())
            }
        }
    }

    /// The zero/default value of a ground type.
    pub fn default_for(ty: &Ty) -> Datum {
        match ty {
            Ty::Int => Datum::Int(0),
            Ty::Bool => Datum::Bool(false),
            Ty::Float => Datum::Float(0.0),
            Ty::String => Datum::Str(String::new()),
            Ty::Array(t, n) => Datum::Array(vec![Datum::default_for(t); *n]),
            Ty::Struct(fields) => Datum::Struct(Arc::new(
                fields
                    .iter()
                    .map(|(n, t)| (n.clone(), Datum::default_for(t)))
                    .collect(),
            )),
        }
    }

    /// True if this value inhabits `ty`.
    pub fn conforms_to(&self, ty: &Ty) -> bool {
        match (self, ty) {
            (Datum::Int(_), Ty::Int)
            | (Datum::Bool(_), Ty::Bool)
            | (Datum::Float(_), Ty::Float)
            | (Datum::Str(_), Ty::String) => true,
            (Datum::Array(items), Ty::Array(t, n)) => {
                items.len() == *n && items.iter().all(|v| v.conforms_to(t))
            }
            (Datum::Struct(fields), Ty::Struct(tys)) => {
                fields.len() == tys.len()
                    && fields
                        .iter()
                        .zip(tys)
                        .all(|((fn_, fv), (tn, tt))| fn_ == tn && fv.conforms_to(tt))
            }
            _ => false,
        }
    }

    /// Extracts an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float, if this is one.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a struct field by name.
    pub fn field(&self, name: &str) -> Option<&Datum> {
        match self {
            Datum::Struct(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable struct-field lookup by name. Copies the field list first if
    /// another value shares it (copy-on-write).
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Datum> {
        match self {
            Datum::Struct(fields) => {
                let i = fields.iter().position(|(n, _)| n == name)?;
                Some(&mut Arc::make_mut(fields)[i].1)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Bool(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s:?}"),
            Datum::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Datum::Struct(fields) => {
                write!(f, "{{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Datum {
        Datum::Int(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Datum {
        Datum::Bool(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Datum {
        Datum::Float(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Datum {
        Datum::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn defaults_conform() {
        let tys = [
            Ty::Int,
            Ty::Bool,
            Ty::Float,
            Ty::String,
            Ty::Array(Box::new(Ty::Int), 3),
            Ty::record([("a", Ty::Int), ("b", Ty::Array(Box::new(Ty::Bool), 2))]),
        ];
        for ty in tys {
            let v = Datum::default_for(&ty);
            assert!(v.conforms_to(&ty), "{v} should conform to {ty}");
            assert_eq!(v.ty(), ty);
        }
    }

    #[test]
    fn conformance_is_strict() {
        assert!(!Datum::Int(1).conforms_to(&Ty::Float));
        assert!(!Datum::Array(vec![Datum::Int(1)]).conforms_to(&Ty::Array(Box::new(Ty::Int), 2)));
        let v = Datum::Struct(vec![("x".into(), Datum::Int(1))].into());
        assert!(!v.conforms_to(&Ty::record([("y", Ty::Int)])));
        assert!(v.conforms_to(&Ty::record([("x", Ty::Int)])));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(4).as_int(), Some(4));
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert_eq!(Datum::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Datum::from("hi").as_str(), Some("hi"));
        assert_eq!(Datum::Int(4).as_bool(), None);
        let mut s = Datum::Struct(vec![("x".into(), Datum::Int(1))].into());
        let shared = s.clone();
        assert_eq!(s.field("x"), Some(&Datum::Int(1)));
        *s.field_mut("x").unwrap() = Datum::Int(9);
        assert_eq!(s.field("x"), Some(&Datum::Int(9)));
        assert_eq!(shared.field("x"), Some(&Datum::Int(1)), "copy on write");
        assert_eq!(s.field("nope"), None);
    }

    #[test]
    fn display() {
        let v = Datum::Struct(
            vec![
                ("a".into(), Datum::Array(vec![Datum::Int(1), Datum::Int(2)])),
                ("b".into(), Datum::from("x")),
            ]
            .into(),
        );
        assert_eq!(v.to_string(), "{a: [1, 2], b: \"x\"}");
    }
}
