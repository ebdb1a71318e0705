//! Abstract syntax for task scripts.

use crate::error::ShellError;
use crate::lexer::Word;
use crate::parser::parse;
use std::sync::Arc;

/// A simple command: words that expand to `argv` at run time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Command {
    /// The command words (first = program name after expansion).
    pub(crate) words: Vec<Word>,
}

/// A pipeline: `cmd₀ | cmd₁ | …` with stdout threaded to stdin.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pipeline {
    /// Commands in pipeline order (never empty).
    pub(crate) commands: Vec<Command>,
}

/// Connector between pipelines in a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListOp {
    /// `&&` — run next only on success.
    And,
    /// `||` — run next only on failure.
    Or,
}

/// `p₀ op₁ p₁ op₂ p₂ …`
#[derive(Debug, Clone, PartialEq)]
pub struct CommandList {
    /// The first pipeline.
    pub(crate) first: Pipeline,
    /// Remaining pipelines with their connectors.
    pub(crate) rest: Vec<(ListOp, Pipeline)>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A command list.
    List(CommandList),
    /// `NAME=word` or `export NAME=word`.
    Assign {
        /// Whether the variable is exported (visible to `mpirun` inputs).
        export: bool,
        /// Variable name.
        name: Arc<str>,
        /// Unexpanded value.
        value: Word,
    },
    /// `if c₁; then b₁; elif c₂; then b₂; …; else e; fi`
    If {
        /// `(condition, body)` per `if`/`elif` arm.
        arms: Vec<(CommandList, Vec<Stmt>)>,
        /// `else` body (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `return [word]`
    Return(Option<Word>),
    /// `name() { body }`
    FuncDef {
        /// Function name.
        name: Arc<str>,
        /// Body statements, shared with the interpreter's function table so
        /// defining and calling a function never copies its body.
        body: Arc<[Stmt]>,
    },
    /// `for NAME in words…; do body; done`
    For {
        /// Loop variable name.
        var: Arc<str>,
        /// Unexpanded item words (expanded and field-split at run time).
        items: Vec<Word>,
        /// Body statements.
        body: Vec<Stmt>,
    },
}

/// A parsed script. Cloning shares the statements, so a script parsed once
/// can be loaded into any number of interpreters
/// ([`crate::Interpreter::run_parsed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Script(Arc<[Stmt]>);

impl Script {
    /// Parses script text.
    pub fn parse(source: &str) -> Result<Script, ShellError> {
        Ok(Script(parse(source)?.into()))
    }

    /// The top-level statements.
    pub(crate) fn stmts(&self) -> &[Stmt] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Segment;

    #[test]
    fn ast_shapes_construct() {
        let cmd = Command {
            words: vec![vec![Segment::Lit("echo".into())]],
        };
        let pipe = Pipeline {
            commands: vec![cmd.clone(), cmd.clone()],
        };
        let list = CommandList {
            first: pipe,
            rest: vec![],
        };
        let stmt = Stmt::List(list);
        assert!(matches!(stmt, Stmt::List(_)));
    }
}
