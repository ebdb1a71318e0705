//! Parser for the YAML subset used by HPCAdvisor configuration files.
//!
//! Supported constructs (everything the paper's Listing 1 and the bundled
//! examples use, plus a little headroom):
//!
//! * block mappings with arbitrary nesting (indentation-based);
//! * block sequences (`- item`), including `- key: value` map items;
//! * flow sequences (`[1, 2, 3]`) and flow scalars inside them;
//! * single- and double-quoted strings;
//! * scalar type inference: `true`/`false`, `null`/`~`, integers, floats,
//!   otherwise strings;
//! * `#` comments (outside quotes) and blank lines;
//! * a leading `---` document marker.
//!
//! One deliberate divergence from strict YAML: **duplicate mapping keys are
//! coalesced into a sequence** instead of being an error. The paper's
//! Listing 1 writes a parameter sweep as
//!
//! ```yaml
//! appinputs:
//!   mesh: "80 24 24"
//!   mesh: "60 16 16"
//! ```
//!
//! and the tool treats the duplicate `mesh` keys as the list of values to
//! sweep; this parser reproduces that behaviour.

use crate::error::FormatError;
use crate::value::{OrderedMap, Value};

/// Maximum block nesting depth — a stack-overflow guard for crafted
/// documents (nesting is indentation-driven, so an attacker-controlled
/// file could otherwise recurse arbitrarily).
const MAX_DEPTH: usize = 128;

/// Parses a YAML document into a [`Value`].
pub fn parse(input: &str) -> Result<Value, FormatError> {
    let lines = preprocess(input);
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    let mut pos = 0;
    let v = parse_block(&lines, &mut pos, lines[0].indent, 0)?;
    if pos < lines.len() {
        return Err(FormatError::on_line(
            lines[pos].number,
            "content at unexpected indentation after block",
        ));
    }
    Ok(v)
}

#[derive(Debug)]
struct Line {
    number: usize,
    indent: usize,
    text: String,
}

/// Strips comments/blank lines and records indentation.
fn preprocess(input: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let number = i + 1;
        let stripped = strip_comment(raw);
        let trimmed_end = stripped.trim_end();
        if trimmed_end.trim().is_empty() {
            continue;
        }
        if number == 1 && trimmed_end.trim() == "---" {
            continue;
        }
        let indent = trimmed_end.len() - trimmed_end.trim_start().len();
        out.push(Line {
            number,
            indent,
            text: trimmed_end.trim_start().to_string(),
        });
    }
    out
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'\\' if in_double => i += 1,
            b'#' if !in_single && !in_double
                // YAML requires a space (or line start) before the '#'.
                && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') =>
            {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_block(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, FormatError> {
    if *pos >= lines.len() {
        return Ok(Value::Null);
    }
    if depth > MAX_DEPTH {
        return Err(FormatError::on_line(
            lines[*pos].number,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    if lines[*pos].text.starts_with("- ") || lines[*pos].text == "-" {
        parse_sequence(lines, pos, indent, depth)
    } else {
        parse_mapping(lines, pos, indent, depth)
    }
}

fn parse_sequence(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, FormatError> {
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(FormatError::on_line(line.number, "unexpected indentation"));
        }
        if !(line.text.starts_with("- ") || line.text == "-") {
            break;
        }
        let number = line.number;
        let rest = line.text[1..].trim_start().to_string();
        *pos += 1;
        if rest.is_empty() {
            // `-` alone: nested block on following, deeper-indented lines.
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent, depth + 1)?);
            } else {
                items.push(Value::Null);
            }
        } else if let Some((key, val)) = split_key_value(&rest) {
            // `- key: value` starts an inline map item; subsequent deeper
            // lines extend that map.
            let mut map = OrderedMap::new();
            insert_pair(&mut map, key, val, lines, pos, indent + 2, number, depth)?;
            while *pos < lines.len() && lines[*pos].indent > indent {
                let child = &lines[*pos];
                let Some((k, v)) = split_key_value(&child.text) else {
                    return Err(FormatError::on_line(
                        child.number,
                        "expected 'key: value' inside sequence map item",
                    ));
                };
                let child_indent = child.indent;
                let child_number = child.number;
                *pos += 1;
                insert_pair(
                    &mut map,
                    k,
                    v,
                    lines,
                    pos,
                    child_indent,
                    child_number,
                    depth,
                )?;
            }
            items.push(Value::Map(map));
        } else {
            items.push(parse_scalar(&rest, number)?);
        }
    }
    Ok(Value::Seq(items))
}

fn parse_mapping(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, FormatError> {
    let mut map = OrderedMap::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(FormatError::on_line(line.number, "unexpected indentation"));
        }
        if line.text.starts_with("- ") || line.text == "-" {
            break;
        }
        let Some((key, val)) = split_key_value(&line.text) else {
            return Err(FormatError::on_line(
                line.number,
                format!("expected 'key: value', found '{}'", line.text),
            ));
        };
        let number = line.number;
        *pos += 1;
        insert_pair(&mut map, key, val, lines, pos, indent, number, depth)?;
    }
    Ok(Value::Map(map))
}

/// Inserts a parsed `key: value` pair, resolving empty values to nested
/// blocks and coalescing duplicate keys into sequences (see module docs).
#[allow(clippy::too_many_arguments)]
fn insert_pair(
    map: &mut OrderedMap,
    key: String,
    val: String,
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    number: usize,
    depth: usize,
) -> Result<(), FormatError> {
    let value = if val.is_empty() {
        if *pos < lines.len() && lines[*pos].indent > indent {
            let child_indent = lines[*pos].indent;
            parse_block(lines, pos, child_indent, depth + 1)?
        } else if *pos < lines.len()
            && lines[*pos].indent == indent
            && (lines[*pos].text.starts_with("- ") || lines[*pos].text == "-")
        {
            // Sequences are commonly written at the same indent as their key.
            parse_sequence(lines, pos, indent, depth + 1)?
        } else {
            Value::Null
        }
    } else {
        parse_scalar(&val, number)?
    };
    match map.get_mut(&key) {
        None => {
            map.insert(key, value);
        }
        Some(Value::Seq(existing)) => existing.push(value),
        Some(slot) => {
            let first = std::mem::replace(slot, Value::Null);
            *slot = Value::Seq(vec![first, value]);
        }
    }
    Ok(())
}

/// Splits `key: value` at the first unquoted colon-space (or trailing colon).
fn split_key_value(text: &str) -> Option<(String, String)> {
    let bytes = text.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'\\' if in_double => i += 1,
            b':' if !in_single && !in_double => {
                let is_sep = i + 1 == bytes.len() || bytes[i + 1] == b' ';
                if is_sep {
                    let key = unquote(text[..i].trim());
                    let val = text[i + 1..].trim().to_string();
                    return Some((key, val));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn unquote(s: &str) -> String {
    let b = s.as_bytes();
    if b.len() >= 2
        && ((b[0] == b'"' && b[b.len() - 1] == b'"') || (b[0] == b'\'' && b[b.len() - 1] == b'\''))
    {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

/// Parses a scalar or flow sequence with YAML type inference.
fn parse_scalar(text: &str, line: usize) -> Result<Value, FormatError> {
    let t = text.trim();
    if t.starts_with('[') {
        return parse_flow_seq(t, line);
    }
    if t.starts_with('"') || t.starts_with('\'') {
        return Ok(Value::Str(unquote(t)));
    }
    Ok(infer_scalar(t))
}

fn infer_scalar(t: &str) -> Value {
    match t {
        "" | "~" | "null" | "Null" | "NULL" => Value::Null,
        "true" | "True" | "TRUE" => Value::Bool(true),
        "false" | "False" | "FALSE" => Value::Bool(false),
        _ => {
            if let Ok(i) = t.parse::<i64>() {
                Value::Int(i)
            } else if is_float_like(t) {
                match t.parse::<f64>() {
                    Ok(f) => Value::Float(f),
                    Err(_) => Value::str(t),
                }
            } else {
                Value::str(t)
            }
        }
    }
}

/// Restricts float inference to things that look like numbers, so that
/// strings like `v1.2.3` or `1e` stay strings.
fn is_float_like(t: &str) -> bool {
    let mut chars = t.chars().peekable();
    if matches!(chars.peek(), Some('+' | '-')) {
        chars.next();
    }
    let mut digits = 0;
    let mut dots = 0;
    let mut exps = 0;
    for c in chars {
        match c {
            '0'..='9' => digits += 1,
            '.' => dots += 1,
            'e' | 'E' => exps += 1,
            '+' | '-' if exps == 1 => {}
            _ => return false,
        }
    }
    digits > 0 && dots <= 1 && exps <= 1 && (dots == 1 || exps == 1)
}

fn parse_flow_seq(t: &str, line: usize) -> Result<Value, FormatError> {
    if !t.ends_with(']') {
        return Err(FormatError::on_line(line, "unterminated flow sequence"));
    }
    let inner = &t[1..t.len() - 1];
    let mut items = Vec::new();
    for part in split_flow_items(inner) {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        items.push(parse_scalar(p, line)?);
    }
    Ok(Value::Seq(items))
}

/// Splits flow-sequence items on commas outside quotes/brackets.
fn split_flow_items(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_single = false;
    let mut in_double = false;
    let mut current = String::new();
    for c in inner.chars() {
        match c {
            '\'' if !in_double => {
                in_single = !in_single;
                current.push(c);
            }
            '"' if !in_single => {
                in_double = !in_double;
                current.push(c);
            }
            '[' if !in_single && !in_double => {
                depth += 1;
                current.push(c);
            }
            ']' if !in_single && !in_double => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 && !in_single && !in_double => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Listing 1, essentially verbatim.
    const LISTING1: &str = r#"# Example of main configuration file

subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v2
- Standard_HB120rs_v3
rgprefix: hpcadvisortest1
appsetupurl: https://example.com/openfoam.sh
nnodes: [1, 2, 3, 4, 8, 16]
appname: openfoam
tags:
  version: v1
region: southcentralus
createjumpbox: true
ppr: 100
appinputs:
  mesh: "80 24 24"
  mesh: "60 16 16"
"#;

    #[test]
    fn parses_listing1() {
        let doc = parse(LISTING1).unwrap();
        assert_eq!(
            doc.get("subscription").unwrap().as_str(),
            Some("mysubscription")
        );
        let skus = doc.get("skus").unwrap().as_seq().unwrap();
        assert_eq!(skus.len(), 3);
        assert_eq!(skus[0].as_str(), Some("Standard_HC44rs"));
        let nnodes = doc.get("nnodes").unwrap().as_seq().unwrap();
        assert_eq!(
            nnodes
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 8, 16]
        );
        assert_eq!(doc.get("ppr").unwrap().as_int(), Some(100));
        assert_eq!(doc.get("createjumpbox").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("tags").unwrap().get("version").unwrap().as_str(),
            Some("v1")
        );
        // Duplicate `mesh:` keys coalesce into the sweep list.
        let mesh = doc.get("appinputs").unwrap().get("mesh").unwrap();
        let values: Vec<_> = mesh
            .as_seq()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(values, vec!["80 24 24", "60 16 16"]);
    }

    #[test]
    fn scalar_inference() {
        assert_eq!(infer_scalar("42"), Value::Int(42));
        assert_eq!(infer_scalar("-3"), Value::Int(-3));
        assert_eq!(infer_scalar("2.5"), Value::Float(2.5));
        assert_eq!(infer_scalar("1e3"), Value::Float(1000.0));
        assert_eq!(infer_scalar("true"), Value::Bool(true));
        assert_eq!(infer_scalar("~"), Value::Null);
        assert_eq!(infer_scalar("v1.2.3"), Value::str("v1.2.3"));
        assert_eq!(infer_scalar("80 24 24"), Value::str("80 24 24"));
        assert_eq!(infer_scalar("1e"), Value::str("1e"));
    }

    #[test]
    fn quoted_strings_suppress_inference() {
        let doc = parse("a: \"100\"\nb: 'true'\n").unwrap();
        assert_eq!(doc.get("a").unwrap(), &Value::str("100"));
        assert_eq!(doc.get("b").unwrap(), &Value::str("true"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let doc = parse("# header\n\na: 1 # trailing\n\n# another\nb: 2\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_int(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_int(), Some(2));
    }

    #[test]
    fn hash_inside_quotes_is_not_comment() {
        let doc = parse("url: \"http://x/#anchor\"\n").unwrap();
        assert_eq!(doc.get("url").unwrap().as_str(), Some("http://x/#anchor"));
    }

    #[test]
    fn nested_mappings() {
        let doc = parse("outer:\n  inner:\n    leaf: 7\n").unwrap();
        assert_eq!(
            doc.get("outer")
                .unwrap()
                .get("inner")
                .unwrap()
                .get("leaf")
                .unwrap()
                .as_int(),
            Some(7)
        );
    }

    #[test]
    fn sequence_of_maps() {
        let doc = parse("jobs:\n- name: a\n  size: 1\n- name: b\n  size: 2\n").unwrap();
        let jobs = doc.get("jobs").unwrap().as_seq().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(jobs[1].get("size").unwrap().as_int(), Some(2));
    }

    #[test]
    fn indented_sequence_under_key() {
        let doc = parse("skus:\n  - A\n  - B\n").unwrap();
        let skus = doc.get("skus").unwrap().as_seq().unwrap();
        assert_eq!(skus.len(), 2);
    }

    #[test]
    fn flow_sequence_with_strings() {
        let doc = parse("xs: [a, \"b, c\", 3]\n").unwrap();
        let xs = doc.get("xs").unwrap().as_seq().unwrap();
        assert_eq!(xs[0], Value::str("a"));
        assert_eq!(xs[1], Value::str("b, c"));
        assert_eq!(xs[2], Value::Int(3));
    }

    #[test]
    fn empty_flow_sequence() {
        let doc = parse("xs: []\n").unwrap();
        assert_eq!(doc.get("xs").unwrap().as_seq().unwrap().len(), 0);
    }

    #[test]
    fn document_marker_skipped() {
        let doc = parse("---\na: 1\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_int(), Some(1));
    }

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse("").unwrap(), Value::Null);
        assert_eq!(parse("# only a comment\n").unwrap(), Value::Null);
    }

    #[test]
    fn key_with_url_value() {
        // Colons inside values (no space after) must not split.
        let doc = parse("appsetupurl: https://host:8080/x.sh\n").unwrap();
        assert_eq!(
            doc.get("appsetupurl").unwrap().as_str(),
            Some("https://host:8080/x.sh")
        );
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse("just a bare scalar line\nanother\n").is_err());
        assert!(parse("a: [1, 2\n").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse("a: 1\nnot-a-kv\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        // 2,000 nested mappings (enough to blow the native stack without a
        // guard) must fail cleanly. Indentation grows per level, so keep
        // the document size quadratic-but-small: ~2M characters.
        let mut doc = String::new();
        for d in 0..2_000 {
            doc.push_str(&" ".repeat(d));
            doc.push_str("k:\n");
        }
        let err = parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Moderate nesting still parses.
        let mut ok = String::new();
        for d in 0..50 {
            ok.push_str(&" ".repeat(d));
            ok.push_str("k:\n");
        }
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn null_valued_key() {
        let doc = parse("a:\nb: 2\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Value::Null));
        assert_eq!(doc.get("b").unwrap().as_int(), Some(2));
    }
}
