//! [`Pairs`]: the string maps of a data point (appinputs, scraped metrics,
//! infrastructure utilizations and tags).

use std::fmt;

/// An ordered map from string keys to string values, keys unique.
///
/// Setting a key that is already present keeps its first position and
/// takes the new value, as an `OrderedMap` would; the conversions from
/// pair lists follow the same rule, so a repeated key keeps its first
/// position and takes its last value. This is the one place that rule
/// lives: the scrape, the JSON reader and the cache decoder all build
/// their maps through it, so a map reads the same however it was built.
///
/// The text of every key and value sits in one buffer, and where each
/// ends in a second, so a non-empty map takes at most two heap blocks
/// and an empty one none. Lookups are linear: a point's maps hold a
/// handful of entries.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Pairs {
    /// Each key followed by its value, with nothing between them.
    text: String,
    /// The end offsets in `text`: entry `i`'s key ends at `ends[2 * i]`
    /// and its value at `ends[2 * i + 1]`.
    ends: Vec<u32>,
}

impl Pairs {
    /// An empty map. It allocates nothing.
    pub const fn new() -> Self {
        Pairs {
            text: String::new(),
            ends: Vec::new(),
        }
    }

    /// An empty map with room for `entries` entries whose keys and values
    /// take `text_len` bytes in all.
    pub(crate) fn with_capacity(entries: usize, text_len: usize) -> Self {
        Pairs {
            text: String::with_capacity(text_len),
            ends: Vec::with_capacity(2 * entries),
        }
    }

    /// Builds a map from pairs that can be walked twice: once to size the
    /// two buffers and once to fill them, so the map is built in one
    /// reservation of each.
    pub(crate) fn from_sized<K, V>(pairs: impl Iterator<Item = (K, V)> + Clone) -> Self
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let (n, text_len) = pairs.clone().fold((0, 0), |(n, len), (k, v)| {
            (n + 1, len + k.as_ref().len() + v.as_ref().len())
        });
        let mut map = Pairs::with_capacity(n, text_len);
        for (k, v) in pairs {
            map.set(k.as_ref(), v.as_ref());
        }
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// Sets `key` to `value`. A key already present keeps its position.
    pub fn set(&mut self, key: &str, value: &str) {
        let mut start = 0;
        for i in 0..self.len() {
            let (key_end, value_end) = (self.ends[2 * i] as usize, self.ends[2 * i + 1] as usize);
            if &self.text[start..key_end] == key {
                self.text.replace_range(key_end..value_end, value);
                // This value's end and every later one move by the change
                // in the value's length.
                let old_len = value_end - key_end;
                for end in &mut self.ends[2 * i + 1..] {
                    *end = offset(*end as usize + value.len() - old_len);
                }
                return;
            }
            start = value_end;
        }
        for part in [key, value] {
            self.text.push_str(part);
            self.ends.push(offset(self.text.len()));
        }
    }

    /// Every key and value, concatenated in order.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// The entries in order, as `(key, value)`.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            text: &self.text,
            ends: self.ends.chunks_exact(2),
            start: 0,
        }
    }
}

/// `len` as an end offset in a map's text.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a map's text fits in 4 GiB")
}

/// The entries of a [`Pairs`] in order, from [`Pairs::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    text: &'a str,
    ends: std::slice::ChunksExact<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let pair = self.ends.next()?;
        let (key_end, value_end) = (pair[0] as usize, pair[1] as usize);
        let start = std::mem::replace(&mut self.start, value_end);
        Some((&self.text[start..key_end], &self.text[key_end..value_end]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Pairs {
    type Item = (&'a str, &'a str);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<K: AsRef<str>, V: AsRef<str>> FromIterator<(K, V)> for Pairs {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let mut map = Pairs::new();
        for (k, v) in pairs {
            map.set(k.as_ref(), v.as_ref());
        }
        map
    }
}

impl<K: AsRef<str>, V: AsRef<str>> From<&[(K, V)]> for Pairs {
    fn from(pairs: &[(K, V)]) -> Self {
        Pairs::from_sized(pairs.iter().map(|(k, v)| (k, v)))
    }
}

impl<K: AsRef<str>, V: AsRef<str>, const N: usize> From<[(K, V); N]> for Pairs {
    fn from(pairs: [(K, V); N]) -> Self {
        Pairs::from(&pairs[..])
    }
}

impl fmt::Debug for Pairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_key_keeps_its_first_position_and_takes_the_last_value() {
        let map: Pairs = [("k", "first"), ("other", "x"), ("k", "last")]
            .into_iter()
            .collect();
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            [("k", "last"), ("other", "x")]
        );
        assert_eq!(map, Pairs::from([("k", "last"), ("other", "x")]));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("k"), Some("last"));
        assert_eq!(map.get("other"), Some("x"));
        assert_eq!(map.get("missing"), None);
    }

    #[test]
    fn set_replaces_values_of_any_length_in_place() {
        let mut map = Pairs::from([("a", "1"), ("b", "22"), ("c", "333")]);
        map.set("b", "");
        assert_eq!(map, Pairs::from([("a", "1"), ("b", ""), ("c", "333")]));
        map.set("a", "a much longer value");
        map.set("c", "3");
        map.set("", "empty key");
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            [
                ("a", "a much longer value"),
                ("b", ""),
                ("c", "3"),
                ("", "empty key")
            ]
        );
        assert_eq!(map.get(""), Some("empty key"));
    }

    #[test]
    fn keys_and_values_do_not_run_into_each_other() {
        // "ab" + "c" and "a" + "bc" share their text; the ends tell them apart.
        let map = Pairs::from([("ab", "c"), ("a", "bc")]);
        assert_eq!(map.get("a"), Some("bc"));
        assert_eq!(map.get("ab"), Some("c"));
        assert_eq!(map.get("abc"), None);
        assert_ne!(Pairs::from([("ab", "c")]), Pairs::from([("a", "bc")]));
    }

    #[test]
    fn an_empty_map_allocates_nothing_and_a_full_one_two_blocks() {
        let empty = Pairs::from(&[] as &[(&str, &str)]);
        assert!(empty.is_empty());
        assert_eq!((empty.text.capacity(), empty.ends.capacity()), (0, 0));
        assert_eq!(format!("{empty:?}"), "{}");
        let owned = vec![
            ("mesh".to_string(), "40 16 16".to_string()),
            ("steps".to_string(), "100".to_string()),
        ];
        let map = Pairs::from(owned.as_slice());
        assert_eq!(
            map.text.capacity(),
            map.text.len(),
            "sized in one reservation"
        );
        assert_eq!(map.ends.capacity(), 4);
        assert_eq!(
            format!("{map:?}"),
            r#"{"mesh": "40 16 16", "steps": "100"}"#
        );
    }
}
