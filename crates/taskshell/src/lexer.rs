//! Tokenizer: turns script text into logical lines of words and operators.
//!
//! A *word* is a sequence of segments that expand at run time (literals,
//! `$VAR`, `$(cmd)`, `$((expr))`), with quoting captured per segment so the
//! interpreter knows whether to field-split the expansion.

use crate::ast::Stmt;
use crate::error::ShellError;
use crate::parser::parse;
use std::sync::Arc;

/// One expandable piece of a word.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Literal text (from plain chars or quotes).
    Lit(String),
    /// `$NAME` / `${NAME}` — expands to the variable value. The bool is
    /// `true` when the expansion occurred inside double quotes (no field
    /// splitting).
    Var(String, bool),
    /// `$(command …)` — runs the statements and expands to their stdout
    /// with the trailing newline removed. The source is parsed once, with
    /// the script (as bash does), not each time the expansion runs. Quoted
    /// flag as for `Var`.
    CmdSub(Arc<[Stmt]>, bool),
    /// `$((expression))` — arithmetic expansion.
    Arith(String),
}

/// A word: one or more segments.
pub(crate) type Word = Vec<Segment>;

/// A token in a logical line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// A word.
    Word(Word),
    /// `|`
    Pipe,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `;`
    Semi,
}

/// A tokenized logical line with its 1-based source line number.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    /// First physical line number of this logical line.
    pub(crate) number: usize,
    /// Tokens in order.
    pub(crate) tokens: Vec<Token>,
}

/// Splits a script into logical lines (joining `\` continuations, dropping
/// comments, blanks and the shebang) and tokenizes each.
pub(crate) fn tokenize(script: &str) -> Result<Vec<Line>, ShellError> {
    let mut out = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (i, raw) in script.lines().enumerate() {
        let number = i + 1;
        if number == 1 && raw.starts_with("#!") {
            continue;
        }
        if pending.is_empty() {
            pending_start = number;
        }
        if let Some(stripped) = raw.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        pending.push_str(raw);
        let logical = std::mem::take(&mut pending);
        let tokens = tokenize_line(&logical, pending_start)?;
        if !tokens.is_empty() {
            out.push(Line {
                number: pending_start,
                tokens,
            });
        }
    }
    if !pending.is_empty() {
        let tokens = tokenize_line(&pending, pending_start)?;
        if !tokens.is_empty() {
            out.push(Line {
                number: pending_start,
                tokens,
            });
        }
    }
    Ok(out)
}

/// Tokenizes one logical line.
pub(crate) fn tokenize_line(line: &str, number: usize) -> Result<Vec<Token>, ShellError> {
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    let mut tokens = Vec::new();
    let mut word: Word = Vec::new();
    let mut lit = String::new();
    let err = |msg: &str| ShellError::Parse {
        line: number,
        message: msg.to_string(),
    };

    // Flushes accumulated literal text into the current word.
    fn flush_lit(word: &mut Word, lit: &mut String) {
        if !lit.is_empty() {
            word.push(Segment::Lit(std::mem::take(lit)));
        }
    }
    // Finishes the current word into the token list.
    fn flush_word(tokens: &mut Vec<Token>, word: &mut Word, lit: &mut String) {
        flush_lit(word, lit);
        if !word.is_empty() {
            tokens.push(Token::Word(std::mem::take(word)));
        }
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => {
                flush_word(&mut tokens, &mut word, &mut lit);
                i += 1;
            }
            '#' if word.is_empty() && lit.is_empty() => {
                // Comment to end of line (only at a word boundary).
                break;
            }
            ';' => {
                flush_word(&mut tokens, &mut word, &mut lit);
                tokens.push(Token::Semi);
                i += 1;
            }
            '|' => {
                flush_word(&mut tokens, &mut word, &mut lit);
                if chars.get(i + 1) == Some(&'|') {
                    tokens.push(Token::Or);
                    i += 2;
                } else {
                    tokens.push(Token::Pipe);
                    i += 1;
                }
            }
            '&' => {
                if chars.get(i + 1) == Some(&'&') {
                    flush_word(&mut tokens, &mut word, &mut lit);
                    tokens.push(Token::And);
                    i += 2;
                } else {
                    return Err(err("background '&' is not supported"));
                }
            }
            '\'' => {
                // Single quotes: literal until the closing quote.
                i += 1;
                let start = i;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(err("unterminated single quote"));
                }
                lit.extend(&chars[start..i]);
                // Even an empty '' creates a (possibly empty) word.
                if start == i && word.is_empty() && lit.is_empty() {
                    word.push(Segment::Lit(String::new()));
                }
                i += 1;
            }
            '"' => {
                i += 1;
                flush_lit(&mut word, &mut lit);
                let mut q = String::new();
                let mut closed = false;
                while i < chars.len() {
                    match chars[i] {
                        '"' => {
                            i += 1;
                            closed = true;
                            break;
                        }
                        '\\' if matches!(chars.get(i + 1), Some('"' | '\\' | '$' | '`')) => {
                            q.push(chars[i + 1]);
                            i += 2;
                        }
                        '$' => {
                            if !q.is_empty() {
                                word.push(Segment::Lit(std::mem::take(&mut q)));
                            }
                            let seg = parse_dollar(&chars, &mut i, true, number)?;
                            word.push(seg);
                        }
                        c => {
                            q.push(c);
                            i += 1;
                        }
                    }
                }
                if !closed {
                    return Err(err("unterminated double quote"));
                }
                if q.is_empty() && word.is_empty() {
                    // Empty "" still yields an (empty) word.
                    word.push(Segment::Lit(String::new()));
                } else if !q.is_empty() {
                    word.push(Segment::Lit(q));
                }
            }
            '\\' => {
                let next = chars.get(i + 1).ok_or_else(|| err("trailing backslash"))?;
                lit.push(*next);
                i += 2;
            }
            '$' => {
                flush_lit(&mut word, &mut lit);
                let seg = parse_dollar(&chars, &mut i, false, number)?;
                word.push(seg);
            }
            c => {
                lit.push(c);
                i += 1;
            }
        }
    }
    flush_word(&mut tokens, &mut word, &mut lit);
    Ok(tokens)
}

/// Parses a `$…` construct starting at `chars[*i] == '$'`.
fn parse_dollar(
    chars: &[char],
    i: &mut usize,
    quoted: bool,
    number: usize,
) -> Result<Segment, ShellError> {
    let err = |msg: &str| ShellError::Parse {
        line: number,
        message: msg.to_string(),
    };
    *i += 1; // consume '$'
    match chars.get(*i) {
        Some('(') if chars.get(*i + 1) == Some(&'(') => {
            // $(( arithmetic ))
            *i += 2;
            let start = *i;
            let mut depth = 0usize;
            while *i < chars.len() {
                match chars[*i] {
                    '(' => depth += 1,
                    ')' if depth > 0 => depth -= 1,
                    ')' if chars.get(*i + 1) == Some(&')') => {
                        let inner: String = chars[start..*i].iter().collect();
                        *i += 2;
                        return Ok(Segment::Arith(inner));
                    }
                    _ => {}
                }
                *i += 1;
            }
            Err(err("unterminated $(( arithmetic ))"))
        }
        Some('(') => {
            // $( command )
            *i += 1;
            let start = *i;
            let mut depth = 1usize;
            while *i < chars.len() {
                match chars[*i] {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            let inner: String = chars[start..*i].iter().collect();
                            *i += 1;
                            return Ok(Segment::CmdSub(parse(&inner)?.into(), quoted));
                        }
                    }
                    _ => {}
                }
                *i += 1;
            }
            Err(err("unterminated $( command )"))
        }
        Some('{') => {
            *i += 1;
            let start = *i;
            while *i < chars.len() && chars[*i] != '}' {
                *i += 1;
            }
            if *i >= chars.len() {
                return Err(err("unterminated ${...}"));
            }
            let name: String = chars[start..*i].iter().collect();
            *i += 1;
            Ok(Segment::Var(name, quoted))
        }
        Some(c) if c.is_ascii_alphabetic() || *c == '_' => {
            let start = *i;
            while *i < chars.len() && (chars[*i].is_ascii_alphanumeric() || chars[*i] == '_') {
                *i += 1;
            }
            let name: String = chars[start..*i].iter().collect();
            Ok(Segment::Var(name, quoted))
        }
        Some('?') => {
            *i += 1;
            Ok(Segment::Var("?".into(), quoted))
        }
        _ => {
            // A lone '$' is literal.
            Ok(Segment::Lit("$".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_of(line: &str) -> Vec<Token> {
        tokenize_line(line, 1).unwrap()
    }

    fn lit(s: &str) -> Segment {
        Segment::Lit(s.into())
    }

    #[test]
    fn simple_words() {
        let t = words_of("echo hello world");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], Token::Word(vec![lit("echo")]));
        assert_eq!(t[2], Token::Word(vec![lit("world")]));
    }

    #[test]
    fn operators() {
        let t = words_of("a | b && c || d; e");
        let ops: Vec<&Token> = t.iter().filter(|t| !matches!(t, Token::Word(_))).collect();
        assert_eq!(
            ops,
            vec![&Token::Pipe, &Token::And, &Token::Or, &Token::Semi]
        );
    }

    #[test]
    fn quotes_and_variables() {
        let t = words_of(r#"echo "$HOSTLIST_PPN" '$literal' un$X"#);
        match &t[1] {
            Token::Word(w) => assert_eq!(w, &vec![Segment::Var("HOSTLIST_PPN".into(), true)]),
            other => panic!("{other:?}"),
        }
        match &t[2] {
            Token::Word(w) => assert_eq!(w, &vec![lit("$literal")]),
            other => panic!("{other:?}"),
        }
        match &t[3] {
            Token::Word(w) => {
                assert_eq!(w[0], lit("un"));
                assert_eq!(w[1], Segment::Var("X".into(), false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn command_and_arith_substitution() {
        let t = words_of("NP=$(($NNODES * $PPN)) APP=$(which lmp)");
        match &t[0] {
            Token::Word(w) => {
                assert_eq!(w[0], lit("NP="));
                assert!(matches!(&w[1], Segment::Arith(a) if a.contains("NNODES")));
            }
            other => panic!("{other:?}"),
        }
        match &t[1] {
            Token::Word(w) => {
                assert_eq!(w[0], lit("APP="));
                assert!(
                    matches!(&w[1], Segment::CmdSub(c, false) if **c == *parse("which lmp").unwrap())
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn braced_variable() {
        let t = words_of("echo ${xx}end");
        match &t[1] {
            Token::Word(w) => {
                assert_eq!(w[0], Segment::Var("xx".into(), false));
                assert_eq!(w[1], lit("end"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comments_and_continuations() {
        let lines = tokenize("#!/usr/bin/env bash\n# comment\necho a \\\n  b\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].tokens.len(), 3);
        assert_eq!(lines[0].number, 3);
    }

    #[test]
    fn hash_mid_word_not_comment() {
        let t = words_of("echo a#b");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], Token::Word(vec![lit("a#b")]));
    }

    #[test]
    fn sed_style_argument_survives() {
        let t = words_of(
            r#"sed -i "s/variable\s\+x\s\+index\s\+[0-9]\+/variable x index $BOXFACTOR/" in.lj.txt"#,
        );
        assert_eq!(t.len(), 4);
        match &t[2] {
            Token::Word(w) => {
                // Pattern literal + the $BOXFACTOR var + trailing '/'.
                assert!(matches!(&w[0], Segment::Lit(s) if s.starts_with("s/variable")));
                assert!(w
                    .iter()
                    .any(|s| matches!(s, Segment::Var(v, true) if v == "BOXFACTOR")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(tokenize_line("echo 'unterminated", 1).is_err());
        assert!(tokenize_line("echo \"unterminated", 1).is_err());
        assert!(tokenize_line("job &", 1).is_err());
        assert!(tokenize_line("echo $((1+2)", 1).is_err());
        assert!(
            tokenize_line("X=$(echo 'unterminated)", 1).is_err(),
            "command substitutions parse with the script"
        );
    }

    #[test]
    fn double_quote_escapes() {
        let t = words_of(r#"echo "a\"b\$c""#);
        match &t[1] {
            Token::Word(w) => assert_eq!(w, &vec![lit("a\"b$c")]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exit_status_variable() {
        let t = words_of("echo $?");
        match &t[1] {
            Token::Word(w) => assert_eq!(w, &vec![Segment::Var("?".into(), false)]),
            other => panic!("{other:?}"),
        }
    }
}
