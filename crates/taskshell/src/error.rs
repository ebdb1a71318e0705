use std::fmt;

/// Errors from parsing or executing a task script.
#[derive(Debug, Clone, PartialEq)]
pub enum ShellError {
    /// Syntax error while parsing the script.
    Parse { line: usize, message: String },
    /// A command that is not a builtin and not a defined function.
    UnknownCommand(String),
    /// A builtin was invoked with unusable arguments.
    BadUsage { command: String, message: String },
    /// File operation on a path that does not exist in the virtual FS.
    NoSuchFile(String),
    /// `mpirun` could not run the application model.
    AppError(String),
    /// Arithmetic evaluation failed (bad expression, division by zero).
    Arithmetic(String),
    /// Called a function that is not defined in the script.
    UndefinedFunction(String),
    /// Interpreter recursion/loop guard tripped.
    Runaway(String),
}

impl fmt::Display for ShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShellError::Parse { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ShellError::UnknownCommand(c) => write!(f, "{c}: command not found"),
            ShellError::BadUsage { command, message } => write!(f, "{command}: {message}"),
            ShellError::NoSuchFile(p) => write!(f, "{p}: no such file or directory"),
            ShellError::AppError(m) => write!(f, "mpirun: {m}"),
            ShellError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            ShellError::UndefinedFunction(n) => write!(f, "function '{n}' is not defined"),
            ShellError::Runaway(m) => write!(f, "script aborted: {m}"),
        }
    }
}

impl std::error::Error for ShellError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ShellError::UnknownCommand("frobnicate".into())
            .to_string()
            .contains("command not found"));
        assert!(ShellError::Parse {
            line: 3,
            message: "unexpected fi".into()
        }
        .to_string()
        .contains("line 3"));
    }
}
