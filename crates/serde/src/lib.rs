//! A minimal, dependency-free stand-in for the subset of `serde` this
//! workspace uses, so reports serialize to JSON with no network access
//! (the real crate cannot be fetched in offline CI — the same reason the
//! in-tree `proptest` shim exists).
//!
//! Differences from the real crate, by design:
//!
//! * [`Serialize`] has a single `to_value` method producing a [`Value`]
//!   tree — there is no `Serializer` visitor layer and no zero-copy
//!   path. Every serializable quantity in this workspace is a small
//!   report, so the intermediate tree costs nothing that matters.
//! * There is no `Deserialize`; the few places that read JSON back (the
//!   compilation cache's disk entries, tests over bench artifacts) parse
//!   into [`Value`] and pick fields out explicitly.
//! * `#[derive(Serialize)]` (re-exported from the in-tree
//!   `serde_derive`) supports non-generic structs and enums only, with
//!   `serde_json`'s externally-tagged enum representation.
//!
//! Object key order is the struct's field order, making output
//! deterministic — which the compilation cache's content hashing and the
//! bench-artifact tests rely on.

pub use serde_derive::Serialize;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A JSON value tree. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere or when absent.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a u64, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Types that can render themselves as a JSON [`Value`].
pub trait Serialize {
    /// The value tree for this datum.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}
impl_serialize_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Shared data renders as what it points to, as in the real crate's
/// `rc` feature.
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Duration {
    /// Matches the real serde's `{ "secs": ..., "nanos": ... }` shape.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::Num(self.as_secs() as f64)),
            (
                "nanos".to_string(),
                Value::Num(f64::from(self.subsec_nanos())),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(7u32.to_value(), Value::Num(7.0));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".into()));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        let shared: Arc<str> = "x".into();
        assert_eq!(shared.to_value(), Value::Str("x".into()));
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::Num(1.0), Value::Num(2.0)])
        );
    }

    #[test]
    fn duration_matches_serde_shape() {
        let d = Duration::new(3, 500);
        let v = d.to_value();
        assert_eq!(v.get("secs").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("nanos").and_then(Value::as_u64), Some(500));
    }

    #[test]
    fn value_accessors() {
        let v = Value::Object(vec![("k".into(), Value::Num(4.0))]);
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
    }
}
