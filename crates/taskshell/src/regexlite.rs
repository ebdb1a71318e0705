//! A tiny regular-expression engine for `sed`/`grep`.
//!
//! Supports exactly the constructs HPC run scripts use in practice (the
//! paper's Listing 2 needs `\s\+` and `[0-9]\+`):
//!
//! * literal characters;
//! * `.` (any char), `\s` (whitespace), `\d`/`[0-9]`-style classes,
//!   `[abc]`, `[a-z]`, negated `[^...]`;
//! * BRE-style quantifiers `\+`, `\*`, `\?` and their ERE spellings
//!   `+`, `*`, `?`;
//! * anchors `^` and `$`;
//! * escaped literals (`\.`, `\/`, …).
//!
//! Matching is backtracking over a compiled atom list — plenty fast for
//! config-file-sized inputs and obviously correct.

use crate::error::ShellError;
use std::borrow::Cow;

/// One match in a haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the match start.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Atom {
    Literal(char),
    Any,
    Space,
    Digit,
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
    StartAnchor,
    EndAnchor,
}

#[derive(Debug, Clone, PartialEq)]
enum ClassItem {
    Char(char),
    Range(char, char),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Quant {
    One,
    ZeroOrOne,
    ZeroOrMore,
    OneOrMore,
}

/// A compiled pattern. A pattern without metacharacters borrows its text.
#[derive(Debug, Clone)]
pub struct Regex<'p> {
    atoms: Vec<(Atom, Quant)>,
    /// The pattern's text when it is nothing but single literal characters
    /// (`grep -q "Finalising parallel run"`): matched with a substring
    /// search instead of the backtracker.
    literal: Option<Cow<'p, str>>,
}

/// Byte offset of the leftmost `needle` in `haystack`, like
/// [`str::find`]. The standard library's `contains` is vectorised and
/// rules a miss out cheaply; a hit is then located by scanning for the
/// needle's first character and comparing from there.
pub(crate) fn find_literal(haystack: &str, needle: &str) -> Option<usize> {
    if !haystack.contains(needle) {
        return None;
    }
    let Some(first) = needle.chars().next() else {
        return Some(0);
    };
    let mut pos = 0;
    while let Some(i) = haystack[pos..].find(first) {
        let at = pos + i;
        if haystack[at..].starts_with(needle) {
            return Some(at);
        }
        pos = at + first.len_utf8();
    }
    unreachable!("`contains` found {needle:?}")
}

/// Characters that are special somewhere in a pattern. A pattern without
/// any of them is its own literal.
const META: [char; 8] = ['^', '$', '.', '[', '\\', '+', '*', '?'];

impl<'p> Regex<'p> {
    /// Compiles a pattern. A pattern without metacharacters skips the atom
    /// list: it can only ever be matched as a literal.
    pub fn compile(pattern: &'p str) -> Result<Regex<'p>, ShellError> {
        if !pattern.contains(META) {
            return Ok(Regex {
                atoms: Vec::new(),
                literal: Some(Cow::Borrowed(pattern)),
            });
        }
        let atoms = Self::parse(pattern)?;
        let literal = atoms
            .iter()
            .map(|atom| match atom {
                (Atom::Literal(c), Quant::One) => Some(*c),
                _ => None,
            })
            .collect::<Option<String>>()
            .map(Cow::Owned);
        Ok(Regex { atoms, literal })
    }

    /// The pattern compiled for the backtracker only, without the literal
    /// fast path: the reference the fast paths are tested against.
    #[cfg(test)]
    pub(crate) fn backtracking(pattern: &str) -> Regex<'static> {
        Regex {
            atoms: Self::parse(pattern).expect("valid pattern"),
            literal: None,
        }
    }

    /// The text the pattern matches when it is a plain literal.
    pub(crate) fn literal(&self) -> Option<&str> {
        self.literal.as_deref()
    }

    /// Parses a pattern into its atom list.
    fn parse(pattern: &str) -> Result<Vec<(Atom, Quant)>, ShellError> {
        let mut atoms = Vec::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let err = |msg: &str| ShellError::BadUsage {
            command: "regex".into(),
            message: format!("{msg} in pattern '{pattern}'"),
        };
        while i < chars.len() {
            let atom = match chars[i] {
                '^' if atoms.is_empty() => {
                    i += 1;
                    atoms.push((Atom::StartAnchor, Quant::One));
                    continue;
                }
                '$' if i + 1 == chars.len() => {
                    i += 1;
                    atoms.push((Atom::EndAnchor, Quant::One));
                    continue;
                }
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let negated = chars.get(i) == Some(&'^');
                    if negated {
                        i += 1;
                    }
                    let mut items = Vec::new();
                    let mut closed = false;
                    while i < chars.len() {
                        if chars[i] == ']' && !items.is_empty() {
                            i += 1;
                            closed = true;
                            break;
                        }
                        let lo = chars[i];
                        if chars.get(i + 1) == Some(&'-')
                            && chars.get(i + 2).is_some_and(|c| *c != ']')
                        {
                            items.push(ClassItem::Range(lo, chars[i + 2]));
                            i += 3;
                        } else {
                            items.push(ClassItem::Char(lo));
                            i += 1;
                        }
                    }
                    if !closed {
                        return Err(err("unterminated character class"));
                    }
                    Atom::Class { negated, items }
                }
                '\\' => {
                    let next = chars.get(i + 1).ok_or_else(|| err("trailing backslash"))?;
                    i += 2;
                    match next {
                        's' => Atom::Space,
                        'd' => Atom::Digit,
                        // BRE quantifiers handled below via lookahead; a
                        // backslash before +,*,? reaching here means the
                        // previous atom was missing.
                        '+' | '*' | '?' => return Err(err("quantifier with nothing to repeat")),
                        c => Atom::Literal(*c),
                    }
                }
                '+' | '*' | '?' if atoms.is_empty() => {
                    return Err(err("quantifier with nothing to repeat"))
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Lookahead for a quantifier (ERE bare or BRE backslashed).
            let quant = if i < chars.len() {
                match chars[i] {
                    '+' => {
                        i += 1;
                        Quant::OneOrMore
                    }
                    '*' => {
                        i += 1;
                        Quant::ZeroOrMore
                    }
                    '?' => {
                        i += 1;
                        Quant::ZeroOrOne
                    }
                    '\\' if matches!(chars.get(i + 1), Some('+' | '*' | '?')) => {
                        let q = chars[i + 1];
                        i += 2;
                        match q {
                            '+' => Quant::OneOrMore,
                            '*' => Quant::ZeroOrMore,
                            _ => Quant::ZeroOrOne,
                        }
                    }
                    _ => Quant::One,
                }
            } else {
                Quant::One
            };
            atoms.push((atom, quant));
        }
        Ok(atoms)
    }

    /// Finds the leftmost match.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        if let Some(literal) = &self.literal {
            return find_literal(haystack, literal).map(|start| Match {
                start,
                end: start + literal.len(),
            });
        }
        let hay: Vec<char> = haystack.chars().collect();
        // Byte offsets for each char index (plus end).
        let mut offsets = Vec::with_capacity(hay.len() + 1);
        let mut off = 0;
        for c in &hay {
            offsets.push(off);
            off += c.len_utf8();
        }
        offsets.push(off);
        let anchored = matches!(self.atoms.first(), Some((Atom::StartAnchor, _)));
        let starts: Box<dyn Iterator<Item = usize>> = if anchored {
            Box::new(std::iter::once(0))
        } else {
            Box::new(0..=hay.len())
        };
        for start in starts {
            if let Some(end) = self.match_here(&hay, start, 0) {
                return Some(Match {
                    start: offsets[start],
                    end: offsets[end],
                });
            }
        }
        None
    }

    /// True if the pattern matches anywhere.
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find(haystack).is_some()
    }

    /// Replaces the first match with `replacement` (no backreferences).
    pub fn replace_first(&self, haystack: &str, replacement: &str) -> String {
        match self.find(haystack) {
            None => haystack.to_string(),
            Some(m) => {
                let mut out = String::with_capacity(haystack.len());
                out.push_str(&haystack[..m.start]);
                out.push_str(replacement);
                out.push_str(&haystack[m.end..]);
                out
            }
        }
    }

    /// Replaces every (non-overlapping) match.
    pub fn replace_all(&self, haystack: &str, replacement: &str) -> String {
        let mut out = String::new();
        let mut rest = haystack;
        loop {
            match self.find(rest) {
                None => {
                    out.push_str(rest);
                    return out;
                }
                Some(m) => {
                    out.push_str(&rest[..m.start]);
                    out.push_str(replacement);
                    if m.end == m.start {
                        // Zero-width match: emit one char to guarantee progress.
                        match rest[m.end..].chars().next() {
                            Some(c) => {
                                out.push(c);
                                rest = &rest[m.end + c.len_utf8()..];
                            }
                            None => return out,
                        }
                    } else {
                        rest = &rest[m.end..];
                    }
                }
            }
        }
    }

    fn atom_matches(atom: &Atom, c: char) -> bool {
        match atom {
            Atom::Literal(l) => *l == c,
            Atom::Any => true,
            Atom::Space => c.is_whitespace(),
            Atom::Digit => c.is_ascii_digit(),
            Atom::Class { negated, items } => {
                let inside = items.iter().any(|item| match item {
                    ClassItem::Char(x) => *x == c,
                    ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&c),
                });
                inside != *negated
            }
            Atom::StartAnchor | Atom::EndAnchor => false,
        }
    }

    /// Backtracking match of atoms[ai..] against hay[pos..]; returns the
    /// end position on success.
    fn match_here(&self, hay: &[char], pos: usize, ai: usize) -> Option<usize> {
        let Some((atom, quant)) = self.atoms.get(ai) else {
            return Some(pos);
        };
        match atom {
            Atom::StartAnchor => {
                if pos == 0 {
                    self.match_here(hay, pos, ai + 1)
                } else {
                    None
                }
            }
            Atom::EndAnchor => {
                if pos == hay.len() {
                    self.match_here(hay, pos, ai + 1)
                } else {
                    None
                }
            }
            _ => match quant {
                Quant::One => {
                    if pos < hay.len() && Self::atom_matches(atom, hay[pos]) {
                        self.match_here(hay, pos + 1, ai + 1)
                    } else {
                        None
                    }
                }
                Quant::ZeroOrOne => {
                    if pos < hay.len() && Self::atom_matches(atom, hay[pos]) {
                        if let Some(end) = self.match_here(hay, pos + 1, ai + 1) {
                            return Some(end);
                        }
                    }
                    self.match_here(hay, pos, ai + 1)
                }
                Quant::ZeroOrMore | Quant::OneOrMore => {
                    let min = if *quant == Quant::OneOrMore { 1 } else { 0 };
                    // Greedy: consume as many as possible, then backtrack.
                    let mut count = 0;
                    while pos + count < hay.len() && Self::atom_matches(atom, hay[pos + count]) {
                        count += 1;
                    }
                    while count + 1 > min {
                        if let Some(end) = self.match_here(hay, pos + count, ai + 1) {
                            return Some(end);
                        }
                        if count == 0 {
                            break;
                        }
                        count -= 1;
                    }
                    if min == 0 {
                        self.match_here(hay, pos, ai + 1)
                    } else {
                        None
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex<'_> {
        Regex::compile(p).unwrap()
    }

    #[test]
    fn literal_match() {
        let r = re("index");
        assert!(r.is_match("variable x index 1"));
        assert!(!r.is_match("variable x idx 1"));
        let m = r.find("an index here").unwrap();
        assert_eq!(&"an index here"[m.start..m.end], "index");
    }

    #[test]
    fn listing2_sed_pattern() {
        // The exact pattern from the paper's Listing 2.
        let r = re(r"variable\s\+x\s\+index\s\+[0-9]\+");
        assert!(r.is_match("variable x index 1"));
        assert!(r.is_match("variable   x \t index  42"));
        assert!(!r.is_match("variable y index 1"));
        let replaced = r.replace_first("variable x index 1", "variable x index 30");
        assert_eq!(replaced, "variable x index 30");
    }

    #[test]
    fn classes_and_ranges() {
        assert!(re("[0-9]").is_match("abc5"));
        assert!(!re("[0-9]").is_match("abc"));
        assert!(re("[a-cx]").is_match("x"));
        assert!(re("[^0-9]").is_match("a"));
        assert!(!re("[^a-z]").is_match("abc"));
    }

    #[test]
    fn quantifiers() {
        assert!(re("ab*c").is_match("ac"));
        assert!(re("ab*c").is_match("abbbc"));
        assert!(re("ab+c").is_match("abc"));
        assert!(!re("ab+c").is_match("ac"));
        assert!(re("ab?c").is_match("ac"));
        assert!(re("ab?c").is_match("abc"));
        assert!(!re("ab?c").is_match("abbc"));
    }

    #[test]
    fn anchors() {
        assert!(re("^foo").is_match("foobar"));
        assert!(!re("^foo").is_match("a foobar"));
        assert!(re("bar$").is_match("foobar"));
        assert!(!re("bar$").is_match("barfoo"));
        assert!(re("^exact$").is_match("exact"));
    }

    #[test]
    fn dot_and_escapes() {
        assert!(re("a.c").is_match("axc"));
        assert!(!re(r"a\.c").is_match("axc"));
        assert!(re(r"a\.c").is_match("a.c"));
        assert!(re(r"\d\+").is_match("x42"));
    }

    #[test]
    fn replace_all_non_overlapping() {
        let r = re("[0-9]+");
        assert_eq!(r.replace_all("a1b22c333", "N"), "aNbNcN");
        assert_eq!(r.replace_all("none", "N"), "none");
    }

    #[test]
    fn greedy_with_backtracking() {
        let r = re("a.*c");
        let m = r.find("abcabc").unwrap();
        assert_eq!(m.end, 6, "greedy match extends to last c");
        // Backtracking: .* must give back to let 'c' match.
        assert!(re("a.*c$").is_match("abc"));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::compile("[abc").is_err());
        assert!(Regex::compile("+x").is_err());
        assert!(Regex::compile("x\\").is_err());
    }

    #[test]
    fn literal_patterns_match_like_the_backtracker() {
        let hays = [
            "",
            "a",
            "Mesh size: 12",
            "ExecutionTime = 3 s",
            "x.y",
            "αβ Mesh",
        ];
        for pattern in ["", "Mesh size", "Time", "x.y", r"x\.y", "β M", "absent"] {
            let fast = re(pattern);
            let slow = Regex::backtracking(pattern);
            for hay in hays {
                assert_eq!(fast.find(hay), slow.find(hay), "{pattern:?} in {hay:?}");
                assert_eq!(
                    fast.replace_all(hay, "<>"),
                    slow.replace_all(hay, "<>"),
                    "{pattern:?} in {hay:?}"
                );
            }
        }
        assert!(
            re(r"x\.y").literal.is_some(),
            "escaped literals stay literal"
        );
        assert!(re("x.y").literal.is_none());
        assert!(re("^x").literal.is_none());
        assert!(re("ab+").literal.is_none());
        assert!(
            re("Mesh size").atoms.is_empty(),
            "no atom list without metacharacters"
        );
        // `^` and `$` are literal away from the ends; the atom list still
        // finds the literal.
        assert_eq!(re("a^b$c").literal(), Some("a^b$c"));
    }

    #[test]
    fn find_literal_matches_str_find() {
        let hays = [
            "",
            "a",
            "aaab",
            "abab",
            "aabaab",
            "x aab",
            "αβαβγ",
            "ééa",
            "ExecutionTime = 3 s",
            "Mesh size: 12\nMesh size: 13",
            "\r\n",
            "b\u{e9}a",
        ];
        let needles = [
            "", "a", "aab", "ab", "ba", "β", "βγ", "éa", "Time", "size: 13", "\n", "\u{e9}", "zz",
        ];
        for hay in hays {
            for needle in needles {
                assert_eq!(
                    find_literal(hay, needle),
                    hay.find(needle),
                    "{needle:?} in {hay:?}"
                );
            }
        }
    }

    #[test]
    fn unicode_haystack_offsets() {
        let r = re("b+");
        let hay = "αβbbγ";
        let m = r.find(hay).unwrap();
        assert_eq!(&hay[m.start..m.end], "bb");
    }
}
