//! An interpreter for the bash subset HPCAdvisor application scripts use.
//!
//! The paper's user interface for "how do I set up and run my application"
//! is a bash script with two functions, `hpcadvisor_setup` and
//! `hpcadvisor_run` (its Listing 2). Since the reproduction has no real
//! cluster to run bash on, this crate interprets that script *inside the
//! simulation*: `wget` fetches from a simulated URL store, `mpirun` invokes
//! the [`appmodel`] performance models and writes the synthetic application
//! log into a virtual filesystem, and `grep`/`awk`/`sed` operate on those
//! virtual files — so the paper's exact script, including its log-scraping
//! pipeline and `HPCADVISORVAR` metric exports, runs unmodified.
//!
//! Supported language (everything Listing 2 and the bundled app scripts
//! need):
//!
//! * function definitions, assignments, `export`;
//! * `$VAR`, `${VAR}`, `$(command)` substitution, `$((arithmetic))`;
//! * single/double quoting with the usual expansion rules;
//! * pipelines (`a | b | c`), `&&` / `||` lists, `;` separators;
//! * `if` / `elif` / `else` / `fi` with `[[ ... ]]` tests (`-f`, `-z`,
//!   `-n`, `==`, `!=`) or any command's exit status as the condition;
//! * `for NAME in words…; do …; done` loops;
//! * `return`, `true`, `false`, comments, line continuations.
//!
//! Builtins: `echo`, `wget`, `cp`, `mv`, `rm`, `mkdir`, `cat`, `grep`,
//! `awk` (field printing), `sed` (`s///` with a small regex engine), `cd`,
//! `pwd`, `module`, `source`, `which`, `sleep`, `test`/`[[`, and `mpirun`.
//!
//! Every builtin charges virtual time to the script, so a script's elapsed
//! time is dominated by its `mpirun` call — exactly like the real tool.

pub mod ast;
pub mod builtins;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod regexlite;
pub mod urlstore;
pub mod vfs;

pub use ast::Script;
pub use error::ShellError;
pub use interp::{ExecutionEnv, Interpreter, NodeEnv, ScriptOutcome};
pub use urlstore::UrlStore;
pub use vfs::Vfs;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary variable round-trip: setting then echoing a variable
        /// reproduces its value for any reasonable content.
        #[test]
        fn variable_roundtrip(value in "[a-zA-Z0-9 _./:-]{0,30}") {
            let mut interp = Interpreter::for_tests();
            let script = format!("X=\"{value}\"\necho \"$X\"\n");
            let out = interp.run_script(&script).unwrap();
            prop_assert_eq!(out.stdout.trim_end_matches('\n'), value.as_str());
        }

        /// Arithmetic matches Rust's i64 semantics for small operands.
        #[test]
        fn arithmetic_matches_rust(a in -1000i64..1000, b in 1i64..1000) {
            let mut interp = Interpreter::for_tests();
            let script = format!("echo $(({a} * {b} + {a} % {b} - {b}))\n");
            let out = interp.run_script(&script).unwrap();
            let expected = (a * b + a % b - b).to_string();
            prop_assert_eq!(out.stdout.trim(), expected.as_str());
        }

        /// Our regex-lite `\s\+`/class handling never panics on random
        /// patterns composed from the supported syntax.
        #[test]
        fn regexlite_total(hay in "[a-z0-9 ]{0,20}") {
            let re = regexlite::Regex::compile(r"variable\s\+x\s\+index\s\+[0-9]\+").unwrap();
            let _ = re.find(&hay);
        }
    }
}
