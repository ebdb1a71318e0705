//! File formats used by the HPCAdvisor reproduction, implemented from
//! scratch so the workspace has no external parser dependencies.
//!
//! The paper's tool reads a YAML configuration file (its Listing 1), stores
//! the scenario list and collected dataset as JSON, and exports tabular data.
//! This crate provides exactly that surface:
//!
//! * [`Value`] — a dynamically-typed document value shared by both formats,
//!   with an insertion-order-preserving map (so emitted config files keep the
//!   author's field order).
//! * [`yaml`] — a parser for the YAML subset the tool's config files use:
//!   block mappings, block sequences, flow sequences (`[1, 2, 3]`), scalars
//!   with int/float/bool inference, quoted strings, and `#` comments.
//! * [`json`] — a full JSON parser and a pretty/compact serializer.
//! * [`csv`] — a minimal CSV writer/reader for exported tables.
//!
//! # Example
//!
//! ```
//! let doc = hpcadvisor_formats::yaml::parse(
//!     "appname: lammps\nnnodes: [1, 2, 4]\nppr: 100\n").unwrap();
//! assert_eq!(doc.get("appname").and_then(|v| v.as_str()), Some("lammps"));
//! assert_eq!(doc.get("nnodes").unwrap().as_seq().unwrap().len(), 3);
//!
//! let json = hpcadvisor_formats::json::to_string_pretty(&doc);
//! let back = hpcadvisor_formats::json::parse(&json).unwrap();
//! assert_eq!(doc, back);
//! ```

pub mod csv;
mod error;
pub mod json;
mod value;
pub mod wire;
pub mod yaml;

pub use error::FormatError;
pub use value::{OrderedMap, Value};
pub use wire::{Frame, WireError, MAX_FRAME_BYTES, WIRE_VERSION};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy producing arbitrary JSON-representable values of bounded depth.
    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: NaN breaks equality, infinities are not JSON.
            (-1e12f64..1e12f64).prop_map(Value::Float),
            "[a-zA-Z0-9 _./:-]{0,20}".prop_map(Value::Str),
        ];
        leaf.prop_recursive(3, 32, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
                proptest::collection::vec(("[a-z][a-z0-9_]{0,10}", inner), 0..6).prop_map(
                    |pairs| {
                        let mut m = OrderedMap::new();
                        for (k, v) in pairs {
                            m.insert(k, v);
                        }
                        Value::Map(m)
                    }
                ),
            ]
        })
    }

    proptest! {
        /// Any value serialized to JSON parses back to an equal value.
        #[test]
        fn json_roundtrip(v in arb_value()) {
            let s = json::to_string_pretty(&v);
            let back = json::parse(&s).unwrap();
            prop_assert_eq!(&v, &back);
            let compact = json::to_string(&v);
            let back2 = json::parse(&compact).unwrap();
            prop_assert_eq!(&v, &back2);
        }

        /// CSV writer/reader round-trips arbitrary cell content, including
        /// commas, quotes and newlines.
        #[test]
        fn csv_roundtrip(rows in proptest::collection::vec(
            proptest::collection::vec("[ -~\n\"]{0,12}", 1..5), 1..8)) {
            // All rows must share a width for a rectangular table.
            let width = rows[0].len();
            let rect: Vec<Vec<String>> =
                rows.into_iter().map(|mut r| { r.resize(width, String::new()); r }).collect();
            let text = csv::write(&rect);
            let back = csv::read(&text).unwrap();
            prop_assert_eq!(rect, back);
        }
    }
}
