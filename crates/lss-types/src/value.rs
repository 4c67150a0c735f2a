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
    /// Record value with named fields. The record is shared: `clone`
    /// bumps a reference count, so a struct crossing a port costs no
    /// allocation. Updates go through [`Datum::field_mut`], which copies on
    /// write, so sharing is never observable.
    Struct(Arc<Record>),
}

/// The field names of a struct type, in order.
///
/// Values of one type share one layout, so a record stores only its field
/// values and comparing two records built from the same layout compares
/// no names.
#[derive(Debug, Clone)]
pub struct Layout(Arc<[String]>);

impl Layout {
    /// A layout with the given field names, in order.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Layout {
        Layout(names.into_iter().map(Into::into).collect())
    }

    /// The field names, in order.
    pub fn names(&self) -> &[String] {
        &self.0
    }

    /// The index of a field, by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|n| n == name)
    }

    /// True if both handles share one name list (a pointer check).
    pub fn same(&self, other: &Layout) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        self.same(other) || self.0 == other.0
    }
}

/// The payload of [`Datum::Struct`]: a layout plus one value per field, in
/// layout order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    layout: Layout,
    values: Vec<Datum>,
}

impl Record {
    /// A record over `layout`.
    ///
    /// # Panics
    ///
    /// If `values` does not hold exactly one value per field.
    pub fn new(layout: Layout, values: Vec<Datum>) -> Record {
        assert_eq!(
            layout.names().len(),
            values.len(),
            "a record needs one value per layout field"
        );
        Record { layout, values }
    }

    /// The field layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The field values, in layout order.
    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// `(name, value)` pairs, in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Datum)> {
        self.layout
            .names()
            .iter()
            .map(String::as_str)
            .zip(&self.values)
    }
}

impl Datum {
    /// A struct value from `(name, value)` pairs, in field order. The
    /// names become a new [`Layout`]; codecs that make many values of one
    /// type build the [`Record`] over a shared layout instead.
    pub fn record<S: Into<String>>(fields: impl IntoIterator<Item = (S, Datum)>) -> Datum {
        let (names, values): (Vec<String>, Vec<Datum>) =
            fields.into_iter().map(|(n, v)| (n.into(), v)).unzip();
        Datum::Struct(Arc::new(Record::new(Layout::new(names), values)))
    }

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
            Datum::Struct(rec) => {
                Ty::Struct(rec.iter().map(|(n, v)| (n.to_string(), v.ty())).collect())
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
            Ty::Struct(fields) => Datum::record(
                fields
                    .iter()
                    .map(|(n, t)| (n.as_str(), Datum::default_for(t))),
            ),
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
            (Datum::Struct(rec), Ty::Struct(tys)) => {
                rec.values().len() == tys.len()
                    && rec
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
            Datum::Struct(rec) => rec.values.get(rec.layout.position(name)?),
            _ => None,
        }
    }

    /// Mutable struct-field lookup by name. Copies the record first if
    /// another value shares it (copy-on-write); the layout stays shared.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Datum> {
        match self {
            Datum::Struct(rec) => {
                let i = rec.layout.position(name)?;
                Some(&mut Arc::make_mut(rec).values[i])
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
            Datum::Struct(rec) => {
                write!(f, "{{")?;
                for (i, (n, v)) in rec.iter().enumerate() {
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
        let v = Datum::record([("x", Datum::Int(1))]);
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
        let mut s = Datum::record([("x", Datum::Int(1))]);
        let shared = s.clone();
        assert_eq!(s.field("x"), Some(&Datum::Int(1)));
        *s.field_mut("x").unwrap() = Datum::Int(9);
        assert_eq!(s.field("x"), Some(&Datum::Int(9)));
        assert_eq!(shared.field("x"), Some(&Datum::Int(1)), "copy on write");
        assert_eq!(s.field("nope"), None);
    }

    #[test]
    fn records_compare_by_names_in_order_and_values() {
        let ab = Datum::record([("a", Datum::Int(1)), ("b", Datum::Int(2))]);
        let ba = Datum::record([("b", Datum::Int(2)), ("a", Datum::Int(1))]);
        assert_ne!(ab, ba, "field order matters");
        // Separately built layouts with the same names compare equal.
        let again = Datum::record([("a", Datum::Int(1)), ("b", Datum::Int(2))]);
        assert_eq!(ab, again);
        assert_ne!(
            ab,
            Datum::record([("a", Datum::Int(1)), ("b", Datum::Int(3))])
        );
        assert_ne!(ab, Datum::record([("a", Datum::Int(1))]));
    }

    #[test]
    fn field_mut_copies_the_values_and_shares_the_layout() {
        let layout = Layout::new(["x", "y"]);
        let values = vec![Datum::Int(1), Datum::Int(2)];
        let shared = Datum::Struct(Arc::new(Record::new(layout.clone(), values)));
        let mut s = shared.clone();
        *s.field_mut("y").unwrap() = Datum::Int(9);
        assert_eq!(shared.field("y"), Some(&Datum::Int(2)));
        assert_eq!(s.field("y"), Some(&Datum::Int(9)));
        let (Datum::Struct(a), Datum::Struct(b)) = (&s, &shared) else {
            unreachable!()
        };
        assert!(!Arc::ptr_eq(a, b));
        assert!(a.layout().same(&layout) && b.layout().same(&layout));
    }

    #[test]
    fn display() {
        let v = Datum::record([
            ("a", Datum::Array(vec![Datum::Int(1), Datum::Int(2)])),
            ("b", Datum::from("x")),
        ]);
        assert_eq!(v.to_string(), "{a: [1, 2], b: \"x\"}");
        let nested = Datum::record([
            ("pc", Datum::Int(4096)),
            ("name", Datum::from("x\"y")),
            ("xs", Datum::Array(vec![Datum::Int(1), Datum::Int(-2)])),
            ("f", Datum::Float(1.5)),
            ("inner", Datum::record([("b", Datum::Bool(true))])),
        ]);
        assert_eq!(
            nested.to_string(),
            r#"{pc: 4096, name: "x\"y", xs: [1, -2], f: 1.5, inner: {b: true}}"#
        );
    }
}
