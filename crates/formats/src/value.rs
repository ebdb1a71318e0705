//! The dynamically-typed document value shared by the YAML and JSON codecs.

use std::fmt;

/// An insertion-order-preserving string-keyed map.
///
/// Config files and datasets are small (tens of keys), so a `Vec` of pairs
/// with linear lookup beats a hash map on both memory and iteration order
/// guarantees. Duplicate inserts replace the existing value in place,
/// preserving the original position.
#[derive(Clone, PartialEq, Default)]
pub struct OrderedMap {
    entries: Vec<(String, Value)>,
}

impl OrderedMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        OrderedMap {
            entries: Vec::new(),
        }
    }

    /// Inserts or replaces `key`, returning the previous value if any.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl fmt::Debug for OrderedMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, Value)> for OrderedMap {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = OrderedMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A YAML/JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` / `~` / empty scalar.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A finite 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered mapping.
    Map(OrderedMap),
}

impl Value {
    /// A convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a float if this is numeric (`Int` widens losslessly enough
    /// for config-scale numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the sequence if this is a `Seq`.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map if this is a `Map`.
    pub fn as_map(&self) -> Option<&OrderedMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Map lookup shorthand: `doc.get("key")` on a `Map`, else `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Renders the value as the plain string the tool's dataset uses for
    /// scenario parameters: scalars verbatim, composites in compact JSON.
    pub fn to_plain_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                let mut s = String::new();
                crate::json::write_f64(&mut s, *f);
                s
            }
            Value::Str(s) => s.clone(),
            other => crate::json::to_string(other),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Seq(v)
    }
}
impl From<OrderedMap> for Value {
    fn from(m: OrderedMap) -> Value {
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_insertion_order() {
        let mut m = OrderedMap::new();
        m.insert("z", Value::Int(1));
        m.insert("a", Value::Int(2));
        m.insert("m", Value::Int(3));
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut m = OrderedMap::new();
        m.insert("a", Value::Int(1));
        m.insert("b", Value::Int(2));
        let old = m.insert("a", Value::Int(10));
        assert_eq!(old, Some(Value::Int(1)));
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::Int(10)));
    }

    #[test]
    fn remove_returns_value() {
        let mut m = OrderedMap::new();
        m.insert("a", Value::Int(1));
        assert_eq!(m.remove("a"), Some(Value::Int(1)));
        assert_eq!(m.remove("a"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn nested_get() {
        let mut inner = OrderedMap::new();
        inner.insert("mesh", Value::str("80 24 24"));
        let mut outer = OrderedMap::new();
        outer.insert("appinputs", Value::Map(inner));
        let doc = Value::Map(outer);
        assert_eq!(
            doc.get("appinputs")
                .and_then(|v| v.get("mesh"))
                .and_then(|v| v.as_str()),
            Some("80 24 24")
        );
    }

    #[test]
    fn plain_string_rendering() {
        assert_eq!(Value::Int(8).to_plain_string(), "8");
        assert_eq!(Value::Float(2.0).to_plain_string(), "2.0");
        assert_eq!(Value::str("a b").to_plain_string(), "a b");
        assert_eq!(Value::Bool(false).to_plain_string(), "false");
        assert_eq!(Value::Null.to_plain_string(), "");
        assert_eq!(
            Value::Seq(vec![Value::Int(1), Value::Int(2)]).to_plain_string(),
            "[1,2]"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
    }
}
