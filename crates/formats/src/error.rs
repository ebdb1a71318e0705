use std::fmt;

/// Error produced while parsing a YAML, JSON or CSV document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line where the error was detected.
    pub(crate) line: usize,
    /// 1-based column where the error was detected (0 if unknown).
    pub(crate) col: usize,
    /// Human-readable description of the problem.
    pub(crate) message: String,
}

impl FormatError {
    /// Creates an error at a known line/column.
    pub(crate) fn at(line: usize, col: usize, message: impl Into<String>) -> Self {
        FormatError {
            line,
            col,
            message: message.into(),
        }
    }

    /// Creates an error at a known line, with no column information.
    pub(crate) fn on_line(line: usize, message: impl Into<String>) -> Self {
        FormatError::at(line, 0, message)
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_column() {
        assert_eq!(
            FormatError::at(3, 7, "bad token").to_string(),
            "line 3, col 7: bad token"
        );
        assert_eq!(
            FormatError::on_line(12, "unexpected indent").to_string(),
            "line 12: unexpected indent"
        );
    }
}
