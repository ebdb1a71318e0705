//! Parser: logical-line tokens → statements.

use crate::ast::{Command, CommandList, ListOp, Pipeline, Stmt};
use crate::error::ShellError;
use crate::lexer::{tokenize, Segment, Token, Word};
use std::sync::Arc;

/// Parses a full script.
pub fn parse(script: &str) -> Result<Vec<Stmt>, ShellError> {
    let lines = tokenize(script)?;
    // Flatten to a single stream; line boundaries behave like `;`.
    let mut items: Vec<(usize, Token)> = Vec::new();
    for line in lines {
        for t in line.tokens {
            items.push((line.number, t));
        }
        if !matches!(items.last(), Some((_, Token::Semi))) {
            items.push((line.number, Token::Semi));
        }
    }
    let mut stream = Stream { items, pos: 0 };
    let stmts = parse_stmts(&mut stream, &[])?;
    if !stream.at_end() {
        return Err(stream.err("unexpected token after script end"));
    }
    Ok(stmts)
}

struct Stream {
    items: Vec<(usize, Token)>,
    pos: usize,
}

impl Stream {
    fn at_end(&self) -> bool {
        self.pos >= self.items.len()
    }

    fn line(&self) -> usize {
        self.items
            .get(self.pos.min(self.items.len().saturating_sub(1)))
            .map(|(n, _)| *n)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> ShellError {
        ShellError::Parse {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.items.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.items.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skips consecutive `;` tokens.
    fn skip_semis(&mut self) {
        while matches!(self.peek(), Some(Token::Semi)) {
            self.pos += 1;
        }
    }

    /// If the next token is the literal keyword `kw`, consumes it.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if peek_keyword(self.peek()) == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

/// Returns the keyword string if the token is a single-literal word.
fn peek_keyword(t: Option<&Token>) -> Option<&str> {
    match t {
        Some(Token::Word(w)) if w.len() == 1 => match &w[0] {
            Segment::Lit(s) => Some(s.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// Splits a word of the form `NAME=rest` into `(name, value_word)`.
fn split_assignment(word: &Word) -> Option<(Arc<str>, Word)> {
    let Segment::Lit(first) = word.first()? else {
        return None;
    };
    let eq = first.find('=')?;
    let name = &first[..eq];
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return None;
    }
    let mut value: Word = Vec::new();
    let tail = &first[eq + 1..];
    if !tail.is_empty() {
        value.push(Segment::Lit(tail.to_string()));
    }
    value.extend(word[1..].iter().cloned());
    Some((name.into(), value))
}

const STMT_KEYWORDS: &[&str] = &[
    "if", "then", "elif", "else", "fi", "return", "function", "for", "in", "do", "done",
];

fn parse_stmts(stream: &mut Stream, terminators: &[&str]) -> Result<Vec<Stmt>, ShellError> {
    let mut stmts = Vec::new();
    loop {
        stream.skip_semis();
        match peek_keyword(stream.peek()) {
            None if stream.at_end() => break,
            Some(kw) if terminators.contains(&kw) => break,
            _ => {}
        }
        if stream.at_end() {
            break;
        }
        stmts.push(parse_stmt(stream)?);
    }
    Ok(stmts)
}

fn parse_stmt(stream: &mut Stream) -> Result<Stmt, ShellError> {
    match peek_keyword(stream.peek()) {
        Some("if") => return parse_if(stream),
        Some("for") => return parse_for(stream),
        Some("return") => {
            stream.next();
            let value = match stream.peek() {
                Some(Token::Word(w)) => {
                    let w = w.clone();
                    stream.next();
                    Some(w)
                }
                _ => None,
            };
            return Ok(Stmt::Return(value));
        }
        Some("function") => {
            stream.next();
            let name = match peek_keyword(stream.peek()) {
                Some(n) => n.into(),
                None => return Err(stream.err("expected function name after 'function'")),
            };
            stream.next();
            return parse_func_body(stream, name);
        }
        Some("then") | Some("elif") | Some("else") | Some("fi") | Some("do") | Some("done") => {
            return Err(stream.err(format!(
                "unexpected '{}'",
                peek_keyword(stream.peek()).unwrap_or("?")
            )));
        }
        _ => {}
    }

    // Function definition: `name() {` — one word ending in "()".
    if let Some(Token::Word(w)) = stream.peek() {
        if w.len() == 1 {
            if let Segment::Lit(s) = &w[0] {
                if let Some(name) = s.strip_suffix("()") {
                    if !name.is_empty() && !STMT_KEYWORDS.contains(&name) {
                        let name = name.into();
                        stream.next();
                        return parse_func_body(stream, name);
                    }
                }
            }
        }
        // Assignment (or export handled as a builtin inside the list).
        if let Token::Word(w) = stream.peek().expect("peeked") {
            if let Some((name, value)) = split_assignment(w) {
                // Only a lone assignment word is an assignment statement;
                // `VAR=x cmd` env-prefixes are not supported.
                let w_clone = w.clone();
                stream.next();
                match stream.peek() {
                    Some(Token::Word(_)) => {
                        return Err(stream.err(format!(
                            "environment-prefixed commands ('{}=… cmd') are not supported",
                            name
                        )));
                    }
                    _ => {
                        let _ = w_clone;
                        return Ok(Stmt::Assign {
                            export: false,
                            name,
                            value,
                        });
                    }
                }
            }
        }
    }

    // `export NAME=value` / `export NAME`.
    if peek_keyword(stream.peek()) == Some("export") {
        stream.next();
        match stream.next() {
            Some(Token::Word(w)) => {
                if let Some((name, value)) = split_assignment(&w) {
                    return Ok(Stmt::Assign {
                        export: true,
                        name,
                        value,
                    });
                }
                if let [Segment::Lit(name)] = w.as_slice() {
                    // `export NAME` re-exports the current value.
                    return Ok(Stmt::Assign {
                        export: true,
                        name: name.as_str().into(),
                        value: vec![Segment::Var(name.clone(), true)],
                    });
                }
                Err(stream.err("export expects NAME or NAME=value"))
            }
            _ => Err(stream.err("export expects NAME or NAME=value")),
        }
    } else {
        Ok(Stmt::List(parse_list(stream, &[])?))
    }
}

fn parse_func_body(stream: &mut Stream, name: Arc<str>) -> Result<Stmt, ShellError> {
    stream.skip_semis();
    if !stream.eat_keyword("{") {
        return Err(stream.err(format!("expected '{{' to open body of function '{name}'")));
    }
    let body = parse_stmts(stream, &["}"])?;
    if !stream.eat_keyword("}") {
        return Err(stream.err(format!("expected '}}' to close function '{name}'")));
    }
    Ok(Stmt::FuncDef {
        name,
        body: body.into(),
    })
}

fn parse_for(stream: &mut Stream) -> Result<Stmt, ShellError> {
    if !stream.eat_keyword("for") {
        return Err(stream.err("expected 'for'"));
    }
    let var = match peek_keyword(stream.peek()) {
        Some(name)
            if !STMT_KEYWORDS.contains(&name)
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') =>
        {
            name.into()
        }
        _ => return Err(stream.err("expected a variable name after 'for'")),
    };
    stream.next();
    if !stream.eat_keyword("in") {
        return Err(stream.err("expected 'in' in for loop"));
    }
    let mut items = Vec::new();
    while let Some(Token::Word(w)) = stream.peek() {
        if peek_keyword(stream.peek()) == Some("do") {
            break;
        }
        items.push(w.clone());
        stream.next();
    }
    stream.skip_semis();
    if !stream.eat_keyword("do") {
        return Err(stream.err("expected 'do' in for loop"));
    }
    let body = parse_stmts(stream, &["done"])?;
    if !stream.eat_keyword("done") {
        return Err(stream.err("expected 'done' to close for loop"));
    }
    Ok(Stmt::For { var, items, body })
}

fn parse_if(stream: &mut Stream) -> Result<Stmt, ShellError> {
    if !stream.eat_keyword("if") {
        return Err(stream.err("expected 'if'"));
    }
    let mut arms = Vec::new();
    let mut else_body = Vec::new();
    loop {
        let cond = parse_list(stream, &["then"])?;
        stream.skip_semis();
        if !stream.eat_keyword("then") {
            return Err(stream.err("expected 'then' after if condition"));
        }
        let body = parse_stmts(stream, &["fi", "else", "elif"])?;
        arms.push((cond, body));
        if stream.eat_keyword("elif") {
            continue;
        }
        if stream.eat_keyword("else") {
            else_body = parse_stmts(stream, &["fi"])?;
        }
        if !stream.eat_keyword("fi") {
            return Err(stream.err("expected 'fi' to close if"));
        }
        break;
    }
    Ok(Stmt::If { arms, else_body })
}

/// Parses a command list, stopping at `;`, end of stream, or a terminator
/// keyword at a command boundary.
fn parse_list(stream: &mut Stream, terminators: &[&str]) -> Result<CommandList, ShellError> {
    let first = parse_pipeline(stream, terminators)?;
    let mut rest = Vec::new();
    loop {
        match stream.peek() {
            Some(Token::And) => {
                stream.next();
                // Allow a line break after && / ||.
                stream.skip_semis();
                rest.push((ListOp::And, parse_pipeline(stream, terminators)?));
            }
            Some(Token::Or) => {
                stream.next();
                stream.skip_semis();
                rest.push((ListOp::Or, parse_pipeline(stream, terminators)?));
            }
            _ => break,
        }
    }
    Ok(CommandList { first, rest })
}

fn parse_pipeline(stream: &mut Stream, terminators: &[&str]) -> Result<Pipeline, ShellError> {
    let mut commands = vec![parse_command(stream, terminators)?];
    while matches!(stream.peek(), Some(Token::Pipe)) {
        stream.next();
        stream.skip_semis();
        commands.push(parse_command(stream, terminators)?);
    }
    Ok(Pipeline { commands })
}

fn parse_command(stream: &mut Stream, terminators: &[&str]) -> Result<Command, ShellError> {
    let mut words = Vec::new();
    while let Some(Token::Word(_)) = stream.peek() {
        if let Some(kw) = peek_keyword(stream.peek()) {
            if terminators.contains(&kw) && !words.is_empty() {
                break;
            }
        }
        match stream.next() {
            Some(Token::Word(w)) => words.push(w),
            _ => unreachable!("peeked a word"),
        }
    }
    if words.is_empty() {
        return Err(stream.err("expected a command"));
    }
    Ok(Command { words })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_forms() {
        let stmts = parse("X=1\nexport Y=two\nexport Z\n").unwrap();
        assert!(matches!(&stmts[0], Stmt::Assign { export: false, name, .. } if &**name == "X"));
        assert!(matches!(&stmts[1], Stmt::Assign { export: true, name, .. } if &**name == "Y"));
        assert!(matches!(&stmts[2], Stmt::Assign { export: true, name, .. } if &**name == "Z"));
    }

    #[test]
    fn env_prefix_rejected() {
        assert!(parse("FOO=1 cmd\n").is_err());
    }

    #[test]
    fn pipeline_and_lists() {
        let stmts = parse("cat f | grep x | awk y && echo ok || echo bad\n").unwrap();
        let Stmt::List(list) = &stmts[0] else {
            panic!("expected list")
        };
        assert_eq!(list.first.commands.len(), 3);
        assert_eq!(list.rest.len(), 2);
        assert_eq!(list.rest[0].0, ListOp::And);
        assert_eq!(list.rest[1].0, ListOp::Or);
    }

    #[test]
    fn if_with_elif_else() {
        let script =
            "if grep -q a f; then\necho A\nelif grep -q b f; then\necho B\nelse\necho C\nfi\n";
        let stmts = parse(script).unwrap();
        let Stmt::If { arms, else_body } = &stmts[0] else {
            panic!("expected if")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn function_definition_both_styles() {
        let stmts =
            parse("hpcadvisor_setup() {\necho setup\n}\nfunction other {\necho x\n}\n").unwrap();
        assert!(
            matches!(&stmts[0], Stmt::FuncDef { name, body } if &**name == "hpcadvisor_setup" && body.len() == 1)
        );
        assert!(matches!(&stmts[1], Stmt::FuncDef { name, .. } if &**name == "other"));
    }

    #[test]
    fn return_with_and_without_value() {
        let stmts = parse("return 0\nreturn\n").unwrap();
        assert!(matches!(&stmts[0], Stmt::Return(Some(_))));
        assert!(matches!(&stmts[1], Stmt::Return(None)));
    }

    #[test]
    fn nested_if_inside_function() {
        let script = "\
f() {
  if [[ -f x ]]; then
    echo yes
    return 0
  fi
  echo no
}
";
        let stmts = parse(script).unwrap();
        let Stmt::FuncDef { body, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
        assert!(matches!(&body[0], Stmt::If { .. }));
    }

    #[test]
    fn listing2_parses() {
        // The paper's Listing 2 reconstructed as a plain script.
        let script = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  if [[ -f in.lj.txt ]]; then
    echo "Data already exists"
    return 0
  fi
  wget https://www.lammps.org/inputs/in.lj.txt
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load LAMMPS

  inputfile="in.lj.txt"
  cp ../$inputfile .

  sed -i "s/variable\s\+x\s\+index\s\+[0-9]\+/variable x index $BOXFACTOR/" $inputfile
  sed -i "s/variable\s\+y\s\+index\s\+[0-9]\+/variable y index $BOXFACTOR/" $inputfile
  sed -i "s/variable\s\+z\s\+index\s\+[0-9]\+/variable z index $BOXFACTOR/" $inputfile
  NP=$(($NNODES * $PPN))
  export UCX_NET_DEVICES=mlx5_ib0:1
  APP=$(which lmp)
  mpirun -np $NP --host "$HOSTLIST_PPN" "$APP" -i $inputfile

  log_file="log.lammps"
  if grep -q "Total wall time: " "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat log.lammps | grep Loop | awk '{print $4}')
    LAMMPSATOMS=$(cat log.lammps | grep Loop | awk '{print $12}')
    LAMMPSSTEPS=$(cat log.lammps | grep Loop | awk '{print $9}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR LAMMPSATOMS=$LAMMPSATOMS"
    echo "HPCADVISORVAR LAMMPSSTEPS=$LAMMPSSTEPS"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;
        let stmts = parse(script).unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(matches!(&stmts[0], Stmt::FuncDef { name, .. } if &**name == "hpcadvisor_setup"));
        let Stmt::FuncDef { name, body } = &stmts[1] else {
            panic!()
        };
        assert_eq!(&**name, "hpcadvisor_run");
        assert!(body.len() >= 10, "run body has {} statements", body.len());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("if true; then echo x\n").is_err(), "missing fi");
        assert!(parse("f() {\necho x\n").is_err(), "unclosed function");
        assert!(parse("fi\n").is_err(), "stray fi");
        assert!(parse("a |\n").is_err(), "dangling pipe errors");
    }

    #[test]
    fn semicolon_separated_statements() {
        let stmts = parse("echo a; echo b; echo c\n").unwrap();
        assert_eq!(stmts.len(), 3);
    }
}
