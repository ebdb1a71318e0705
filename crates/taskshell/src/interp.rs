//! The script interpreter: expansion, control flow, virtual time.

use crate::ast::{CommandList, ListOp, Pipeline, Script, Stmt};
use crate::builtins;
use crate::error::ShellError;
use crate::lexer::{Segment, Word};
use crate::urlstore::UrlStore;
use crate::vfs::Vfs;
use appmodel::{AppRegistry, Inputs, MachineProfile};
use cloudsim::{SkuCatalog, VmSku};
use simtime::SimDuration;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

/// Where a script "runs": the node type it sees and the models behind
/// `mpirun`.
#[derive(Clone)]
pub struct ExecutionEnv {
    /// VM type of the nodes the script runs on.
    pub sku: VmSku,
    /// Application model registry backing `mpirun`.
    pub registry: Arc<AppRegistry>,
    /// Experiment seed for deterministic run noise.
    pub experiment_seed: u64,
}

/// An [`ExecutionEnv`] with its node's machine profile built: what every
/// interpreter on one pool shares. Resolve it once per pool; a clone
/// shares the registry and the profile instead of copying them.
#[derive(Clone)]
pub struct NodeEnv {
    pub(crate) registry: Arc<AppRegistry>,
    pub(crate) machine: Arc<MachineProfile>,
    pub(crate) experiment_seed: u64,
}

impl From<ExecutionEnv> for NodeEnv {
    fn from(exec: ExecutionEnv) -> Self {
        NodeEnv {
            registry: exec.registry,
            machine: Arc::new(MachineProfile::from_sku(&exec.sku)),
            experiment_seed: exec.experiment_seed,
        }
    }
}

/// Result of running a script or calling one of its functions.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// Exit status (0 = success).
    pub exit_code: i32,
    /// Everything the script printed.
    pub stdout: String,
    /// Virtual time the script consumed (dominated by `mpirun`).
    pub elapsed: SimDuration,
}

/// Control-flow signal inside statement execution.
enum Flow {
    Normal,
    Return(i32),
}

/// The interpreter: variables, functions, VFS, virtual time.
pub struct Interpreter {
    /// Variables that are not exported. A name lives in exactly one of
    /// `vars` and `exported`. Names share the script's text.
    vars: BTreeMap<Arc<str>, String>,
    /// Exported variables, kept as the application-model inputs `mpirun`
    /// hands to the model as they are.
    pub(crate) exported: Inputs,
    functions: BTreeMap<Arc<str>, Arc<[Stmt]>>,
    pub(crate) vfs: Vfs,
    pub(crate) urls: UrlStore,
    pub(crate) cwd: Cow<'static, str>,
    pub(crate) elapsed: SimDuration,
    /// The node type, the models behind `mpirun` and the noise seed.
    pub(crate) node: NodeEnv,
    pub(crate) modules: Vec<String>,
    last_status: i32,
    steps: u64,
    depth: u32,
    /// Output of the statements running now: the last command of a
    /// pipeline appends here.
    stdout: String,
    /// Emptied argv buffers, reused by the next command (see
    /// [`Interpreter::exec_pipeline`]).
    argv_pool: Vec<Vec<Cow<'static, str>>>,
}

/// Room for a command's words in a fresh argv buffer; `mpirun` lines take
/// the most.
const ARGV_CAPACITY: usize = 8;

/// Empties an argv buffer for the pool: the words it borrowed are gone, so
/// it can outlive them. Collecting an emptied `Vec` into one whose items
/// have the same layout reuses its allocation.
fn recycle(mut argv: Vec<Cow<'_, str>>) -> Vec<Cow<'static, str>> {
    argv.clear();
    argv.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// Hard cap on executed statements — a seatbelt against runaway scripts.
const MAX_STEPS: u64 = 1_000_000;
/// Hard cap on nested function-call depth (native recursion in the
/// interpreter, so this must stay well inside the thread stack).
const MAX_DEPTH: u32 = 64;

impl Interpreter {
    /// Creates an interpreter over the given environment, filesystem and
    /// URL store, starting in `/`. Pass a [`NodeEnv`] to share one pool's
    /// resolved environment; an [`ExecutionEnv`] is resolved here.
    pub fn new(exec: impl Into<NodeEnv>, vfs: Vfs, urls: UrlStore) -> Self {
        Interpreter {
            vars: BTreeMap::new(),
            exported: Inputs::new(),
            functions: BTreeMap::new(),
            vfs,
            urls,
            cwd: Cow::Borrowed("/"),
            elapsed: SimDuration::ZERO,
            node: exec.into(),
            modules: Vec::new(),
            last_status: 0,
            steps: 0,
            depth: 0,
            stdout: String::new(),
            argv_pool: Vec::new(),
        }
    }

    /// A ready-to-use interpreter for unit tests: HB120rs_v3 node, standard
    /// registry, known URL inputs.
    pub fn for_tests() -> Self {
        let sku = SkuCatalog::azure_hpc()
            .get("HB120rs_v3")
            .expect("catalog sku")
            .clone();
        Interpreter::new(
            ExecutionEnv {
                sku,
                registry: Arc::new(AppRegistry::standard()),
                experiment_seed: 0,
            },
            Vfs::new(),
            UrlStore::with_known_inputs(),
        )
    }

    /// Sets a variable (exported, so `mpirun` sees it as an input). Owned
    /// names and values are moved in, not copied.
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.vars.remove(&*name);
        self.exported.insert(name, value.into());
    }

    /// Reads a variable.
    pub(crate) fn var(&self, name: &str) -> Option<&str> {
        self.exported
            .get(name)
            .or_else(|| self.vars.get(name))
            .map(|s| s.as_str())
    }

    /// Assigns a variable from the script. An exported variable stays
    /// exported, like in bash.
    fn assign(&mut self, name: &Arc<str>, value: String, export: bool) {
        if let Some(slot) = self.exported.get_mut(&**name) {
            *slot = value;
        } else if export {
            self.vars.remove(&**name);
            self.exported.insert(name.to_string(), value);
        } else if let Some(slot) = self.vars.get_mut(&**name) {
            *slot = value;
        } else {
            self.vars.insert(Arc::clone(name), value);
        }
    }

    /// Changes the working directory (creating it implicitly). An owned
    /// path that is already normal becomes the working directory as it is.
    pub fn set_cwd(&mut self, dir: impl Into<String>) {
        let dir = dir.into();
        let normalized = match crate::vfs::resolve("/", &dir) {
            Cow::Borrowed(_) => None,
            Cow::Owned(normal) => Some(normal),
        };
        self.cwd = Cow::Owned(normalized.unwrap_or(dir));
        self.vfs.mkdir(&self.cwd);
    }

    /// Current working directory.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// Access to the virtual filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutable access to the virtual filesystem (used to pre-seed files).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// Ends the interpreter, handing back its filesystem without a copy.
    pub fn into_vfs(self) -> Vfs {
        self.vfs
    }

    /// Parses a script and registers its function definitions; top-level
    /// non-definition statements are executed immediately.
    pub fn load_script(&mut self, script: &str) -> Result<ScriptOutcome, ShellError> {
        self.run_script(script)
    }

    /// Parses and runs a script from the top.
    pub(crate) fn run_script(&mut self, script: &str) -> Result<ScriptOutcome, ShellError> {
        self.run_parsed(&Script::parse(script)?)
    }

    /// Runs an already-parsed script from the top, like
    /// [`Interpreter::load_script`] without the parse: one [`Script`] can be
    /// loaded into any number of interpreters.
    pub fn run_parsed(&mut self, script: &Script) -> Result<ScriptOutcome, ShellError> {
        let start_elapsed = self.elapsed;
        let start_len = self.stdout.len();
        let mut status = 0;
        match self.exec_stmts(script.stmts())? {
            Flow::Return(code) => status = code,
            Flow::Normal => {
                status = if status == 0 {
                    self.last_status
                } else {
                    status
                }
            }
        }
        Ok(ScriptOutcome {
            exit_code: status,
            stdout: self.take_stdout(start_len),
            elapsed: self.elapsed - start_elapsed,
        })
    }

    /// Hands out the output written since `start` without copying the
    /// whole buffer when that is all of it.
    fn take_stdout(&mut self, start: usize) -> String {
        if start == 0 {
            std::mem::take(&mut self.stdout)
        } else {
            self.stdout.split_off(start)
        }
    }

    /// Calls a previously-defined function (e.g. `hpcadvisor_run`).
    pub fn call_function(&mut self, name: &str) -> Result<ScriptOutcome, ShellError> {
        let body = self
            .functions
            .get(name)
            .cloned()
            .ok_or_else(|| ShellError::UndefinedFunction(name.to_string()))?;
        let start_elapsed = self.elapsed;
        let start_len = self.stdout.len();
        let flow = self.exec_stmts(&body)?;
        let status = match flow {
            Flow::Return(code) => code,
            Flow::Normal => self.last_status,
        };
        Ok(ScriptOutcome {
            exit_code: status,
            stdout: self.take_stdout(start_len),
            elapsed: self.elapsed - start_elapsed,
        })
    }

    /// True if the script defined `name`.
    pub fn has_function(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    fn bump(&mut self) -> Result<(), ShellError> {
        self.steps += 1;
        if self.steps > MAX_STEPS {
            return Err(ShellError::Runaway(format!(
                "statement budget of {MAX_STEPS} exhausted"
            )));
        }
        Ok(())
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow, ShellError> {
        for stmt in stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, ShellError> {
        self.bump()?;
        match stmt {
            Stmt::FuncDef { name, body } => {
                self.functions.insert(Arc::clone(name), Arc::clone(body));
                self.last_status = 0;
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                export,
                name,
                value,
            } => {
                let v = self.expand_word_joined(value)?;
                self.assign(name, v, *export);
                self.last_status = 0;
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let code = match value {
                    None => self.last_status,
                    Some(w) => {
                        let text = self.expand_word_joined(w)?;
                        text.trim().parse::<i32>().unwrap_or(1)
                    }
                };
                Ok(Flow::Return(code))
            }
            Stmt::If { arms, else_body } => {
                for (cond, body) in arms {
                    let status = self.exec_list(cond)?;
                    if status == 0 {
                        return self.exec_stmts(body);
                    }
                }
                self.exec_stmts(else_body)
            }
            Stmt::For { var, items, body } => {
                // Expand and field-split the item words, like bash.
                let mut values = Vec::new();
                self.expand_words(items, &mut values)?;
                for value in values {
                    self.bump()?;
                    self.assign(var, value.into_owned(), false);
                    match self.exec_stmts(body)? {
                        Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::List(list) => {
                let status = self.exec_list(list)?;
                self.last_status = status;
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_list(&mut self, list: &CommandList) -> Result<i32, ShellError> {
        let mut status = self.exec_pipeline(&list.first)?;
        for (op, pipeline) in &list.rest {
            let run = match op {
                ListOp::And => status == 0,
                ListOp::Or => status != 0,
            };
            if run {
                status = self.exec_pipeline(pipeline)?;
            }
        }
        Ok(status)
    }

    fn exec_pipeline(&mut self, pipeline: &Pipeline) -> Result<i32, ShellError> {
        let mut input = String::new();
        let mut status = 0;
        let last = pipeline.commands.len() - 1;
        for (i, cmd) in pipeline.commands.iter().enumerate() {
            self.bump()?;
            // Commands take their argv buffer from the pool and hand it
            // back emptied; a substitution inside the words takes its own.
            let mut argv: Vec<Cow<'_, str>> = self
                .argv_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(ARGV_CAPACITY));
            let expanded = self.expand_words(&cmd.words, &mut argv);
            let result = match expanded {
                Ok(()) if argv.is_empty() => Ok(None),
                Ok(()) if i == last => {
                    // The last command writes straight into the output.
                    let mut out = std::mem::take(&mut self.stdout);
                    let result = self.dispatch(&argv, &input, &mut out);
                    self.stdout = out;
                    result.map(Some)
                }
                Ok(()) => {
                    let mut out = String::new();
                    let result = self.dispatch(&argv, &input, &mut out);
                    input = out;
                    result.map(Some)
                }
                Err(e) => Err(e),
            };
            self.argv_pool.push(recycle(argv));
            if let Some(code) = result? {
                status = code;
            }
        }
        Ok(status)
    }

    /// Runs one command (builtin or script function) with the given stdin,
    /// appending its stdout to `out`; returns its status.
    pub(crate) fn dispatch(
        &mut self,
        argv: &[Cow<str>],
        stdin: &str,
        out: &mut String,
    ) -> Result<i32, ShellError> {
        let name = &*argv[0];
        if let Some(body) = self.functions.get(name).cloned() {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                self.depth -= 1;
                return Err(ShellError::Runaway(format!(
                    "function call depth exceeded {MAX_DEPTH} (in '{name}')"
                )));
            }
            // Script function: its statements write into `out`.
            std::mem::swap(&mut self.stdout, out);
            let flow = self.exec_stmts(&body);
            std::mem::swap(&mut self.stdout, out);
            self.depth -= 1;
            return Ok(match flow? {
                Flow::Return(code) => code,
                Flow::Normal => self.last_status,
            });
        }
        builtins::run(self, name, &argv[1..], stdin, out)
    }

    /// Expands command words to argv (appended to `argv`) with field
    /// splitting of unquoted expansions. A word that is a single literal is
    /// borrowed from the script, not copied.
    pub(crate) fn expand_words<'w>(
        &mut self,
        words: &'w [Word],
        argv: &mut Vec<Cow<'w, str>>,
    ) -> Result<(), ShellError> {
        for word in words {
            if let [Segment::Lit(s)] = word.as_slice() {
                argv.push(Cow::Borrowed(s.as_str()));
                continue;
            }
            let mut current = String::new();
            // Bash removes a word that consists solely of unquoted
            // expansions which expand to nothing; literals (including the
            // empty '' / "") and quoted expansions always keep the word.
            let mut keep = false;
            let before = argv.len();
            for seg in word {
                match seg {
                    Segment::Lit(s) => {
                        current.push_str(s);
                        keep = true;
                    }
                    Segment::Var(name, quoted) => {
                        let value = self.lookup_var(name);
                        Self::splice(argv, &mut current, &value, *quoted);
                        keep = keep || *quoted;
                    }
                    Segment::CmdSub(stmts, quoted) => {
                        let value = self.command_substitute(stmts)?;
                        Self::splice(argv, &mut current, &value, *quoted);
                        keep = keep || *quoted;
                    }
                    Segment::Arith(expr) => {
                        let value = self.arithmetic(expr)?;
                        let _ = write!(current, "{value}");
                        keep = true;
                    }
                }
            }
            let spliced_fields = argv.len() > before;
            if keep || spliced_fields || !current.is_empty() {
                argv.push(Cow::Owned(current));
            }
        }
        Ok(())
    }

    /// Splices an expansion into the argv under construction: quoted
    /// expansions append verbatim; unquoted ones field-split.
    fn splice(argv: &mut Vec<Cow<str>>, current: &mut String, value: &str, quoted: bool) {
        if quoted {
            current.push_str(value);
            return;
        }
        let mut fields = value.split_whitespace();
        if let Some(first) = fields.next() {
            current.push_str(first);
            for field in fields {
                argv.push(Cow::Owned(std::mem::take(current)));
                current.push_str(field);
            }
        }
    }

    /// Expands a word into a single string (assignment right-hand sides —
    /// no field splitting).
    pub(crate) fn expand_word_joined(&mut self, word: &Word) -> Result<String, ShellError> {
        let mut out = String::new();
        for seg in word {
            match seg {
                Segment::Lit(s) => out.push_str(s),
                Segment::Var(name, _) => out.push_str(&self.lookup_var(name)),
                Segment::CmdSub(stmts, _) => {
                    let value = self.command_substitute(stmts)?;
                    // A substitution that starts the word is the word so far.
                    if out.is_empty() {
                        out = value;
                    } else {
                        out.push_str(&value);
                    }
                }
                Segment::Arith(expr) => {
                    let value = self.arithmetic(expr)?;
                    let _ = write!(out, "{value}");
                }
            }
        }
        Ok(out)
    }

    fn lookup_var(&self, name: &str) -> Cow<'_, str> {
        if name == "?" {
            return Cow::Owned(self.last_status.to_string());
        }
        Cow::Borrowed(self.var(name).unwrap_or_default())
    }

    /// Runs `$(...)` content and returns its stdout without the trailing
    /// newline.
    fn command_substitute(&mut self, stmts: &[Stmt]) -> Result<String, ShellError> {
        self.bump()?;
        // The substitution writes into a buffer of its own.
        let outer = std::mem::take(&mut self.stdout);
        let flow = self.exec_stmts(stmts);
        let mut out = std::mem::replace(&mut self.stdout, outer);
        if let Flow::Return(code) = flow? {
            self.last_status = code;
        }
        while out.ends_with('\n') {
            out.pop();
        }
        Ok(out)
    }

    /// Evaluates `$((...))` arithmetic.
    pub(crate) fn arithmetic(&self, expr: &str) -> Result<i64, ShellError> {
        let mut p = ArithParser {
            src: expr,
            pos: 0,
            interp: self,
        };
        let v = p.expr()?;
        p.skip_ws();
        if p.pos < expr.len() {
            return Err(ShellError::Arithmetic(format!(
                "trailing characters in '{expr}'"
            )));
        }
        Ok(v)
    }

    /// Adds virtual time consumed by a builtin.
    pub(crate) fn charge(&mut self, d: SimDuration) {
        self.elapsed += d;
    }
}

/// Recursive-descent arithmetic over i64: `+ - * / %`, parentheses, unary
/// minus, numbers, `$NAME` and bare `NAME` variables.
struct ArithParser<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    interp: &'a Interpreter,
}

impl<'a> ArithParser<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Advances over ASCII characters that satisfy `accept`.
    fn take_while(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let src = self.src;
        let start = self.pos;
        while src.as_bytes().get(self.pos).is_some_and(|&b| accept(b)) {
            self.pos += 1;
        }
        &src[start..self.pos]
    }

    fn expr(&mut self) -> Result<i64, ShellError> {
        let mut v = self.term()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('+') => {
                    self.pos += 1;
                    v = v.wrapping_add(self.term()?);
                }
                Some('-') => {
                    self.pos += 1;
                    v = v.wrapping_sub(self.term()?);
                }
                _ => return Ok(v),
            }
        }
    }

    fn term(&mut self) -> Result<i64, ShellError> {
        let mut v = self.factor()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    v = v.wrapping_mul(self.factor()?);
                }
                Some('/') => {
                    self.pos += 1;
                    let d = self.factor()?;
                    if d == 0 {
                        return Err(ShellError::Arithmetic("division by zero".into()));
                    }
                    v /= d;
                }
                Some('%') => {
                    self.pos += 1;
                    let d = self.factor()?;
                    if d == 0 {
                        return Err(ShellError::Arithmetic("modulo by zero".into()));
                    }
                    v %= d;
                }
                _ => return Ok(v),
            }
        }
    }

    fn factor(&mut self) -> Result<i64, ShellError> {
        self.skip_ws();
        match self.peek() {
            Some('-') => {
                self.pos += 1;
                Ok(-self.factor()?)
            }
            Some('(') => {
                self.pos += 1;
                let v = self.expr()?;
                self.skip_ws();
                if self.peek() == Some(')') {
                    self.pos += 1;
                    Ok(v)
                } else {
                    Err(ShellError::Arithmetic("expected ')'".into()))
                }
            }
            Some('$') => {
                self.pos += 1;
                self.ident_value()
            }
            Some(c) if c.is_ascii_digit() => {
                let text = self.take_while(|b| b.is_ascii_digit());
                text.parse()
                    .map_err(|_| ShellError::Arithmetic(format!("bad number '{text}'")))
            }
            Some(c) if c.is_ascii_alphabetic() || c == '_' => self.ident_value(),
            other => Err(ShellError::Arithmetic(format!(
                "unexpected {:?} in arithmetic",
                other
            ))),
        }
    }

    fn ident_value(&mut self) -> Result<i64, ShellError> {
        let name = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        if name.is_empty() {
            return Err(ShellError::Arithmetic("expected variable name".into()));
        }
        let raw = self.interp.var(name).unwrap_or_default();
        if raw.trim().is_empty() {
            return Ok(0);
        }
        raw.trim()
            .parse()
            .map_err(|_| ShellError::Arithmetic(format!("variable {name}='{raw}' is not numeric")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_and_variables() {
        let mut i = Interpreter::for_tests();
        let out = i.run_script("X=world\necho hello $X\n").unwrap();
        assert_eq!(out.stdout, "hello world\n");
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn arithmetic_expansion() {
        let mut i = Interpreter::for_tests();
        i.set_var("NNODES", "16");
        i.set_var("PPN", "120");
        let out = i.run_script("NP=$(($NNODES * $PPN))\necho $NP\n").unwrap();
        assert_eq!(out.stdout, "1920\n");
    }

    #[test]
    fn arithmetic_errors() {
        let i = Interpreter::for_tests();
        assert!(i.arithmetic("1/0").is_err());
        assert!(i.arithmetic("1 +").is_err());
        assert!(i.arithmetic("(1").is_err());
        assert_eq!(i.arithmetic("2*(3+4)").unwrap(), 14);
        assert_eq!(i.arithmetic("-5 + 3").unwrap(), -2);
        assert_eq!(i.arithmetic("UNSET + 3").unwrap(), 3);
    }

    #[test]
    fn command_substitution() {
        let mut i = Interpreter::for_tests();
        let out = i.run_script("X=$(echo inner)\necho [$X]\n").unwrap();
        assert_eq!(out.stdout, "[inner]\n");
    }

    #[test]
    fn if_else_flow() {
        let mut i = Interpreter::for_tests();
        let out = i
            .run_script("if [[ -f /nope ]]; then\necho yes\nelse\necho no\nfi\n")
            .unwrap();
        assert_eq!(out.stdout, "no\n");
    }

    #[test]
    fn function_call_and_return() {
        let mut i = Interpreter::for_tests();
        i.load_script("f() {\necho in-f\nreturn 3\n}\n").unwrap();
        assert!(i.has_function("f"));
        let out = i.call_function("f").unwrap();
        assert_eq!(out.stdout, "in-f\n");
        assert_eq!(out.exit_code, 3);
        assert!(matches!(
            i.call_function("missing"),
            Err(ShellError::UndefinedFunction(_))
        ));
    }

    #[test]
    fn one_parsed_script_serves_many_interpreters() {
        let script = Script::parse("f() {\necho n=$N $(echo sub)\n}\n").unwrap();
        for n in ["1", "2"] {
            let mut i = Interpreter::for_tests();
            i.set_var("N", n);
            assert_eq!(i.run_parsed(&script).unwrap().exit_code, 0);
            let out = i.call_function("f").unwrap();
            assert_eq!(out.stdout, format!("n={n} sub\n"));
        }
    }

    #[test]
    fn and_or_lists() {
        let mut i = Interpreter::for_tests();
        let out = i
            .run_script("true && echo A\nfalse && echo B\nfalse || echo C\n")
            .unwrap();
        assert_eq!(out.stdout, "A\nC\n");
    }

    #[test]
    fn exit_status_variable() {
        let mut i = Interpreter::for_tests();
        let out = i.run_script("false\necho status=$?\n").unwrap();
        assert_eq!(out.stdout, "status=1\n");
    }

    #[test]
    fn field_splitting_of_unquoted_expansion() {
        let mut i = Interpreter::for_tests();
        i.set_var("ARGS", "a b c");
        // Unquoted $ARGS splits into three arguments; quoted stays one.
        let out = i.run_script("echo $ARGS\necho \"$ARGS\"\n").unwrap();
        assert_eq!(out.stdout, "a b c\na b c\n");
        // Distinguish via a command that counts args: use test -n.
        let mut i2 = Interpreter::for_tests();
        i2.set_var("TWO", "x y");
        i2.vfs_mut().write("/x", "1");
        // `[[ -f $TWO ]]` splits and is bad usage; quoted form is a clean miss.
        assert!(i2
            .run_script("[[ -f \"$TWO\" ]] || echo missing\n")
            .unwrap()
            .stdout
            .contains("missing"));
    }

    #[test]
    fn runaway_guard() {
        let mut i = Interpreter::for_tests();
        // Self-recursive function must trip the step budget, not hang.
        let err = i.run_script("f() {\nf\n}\nf\n").unwrap_err();
        assert!(matches!(err, ShellError::Runaway(_)));
    }

    #[test]
    fn unknown_command_is_error() {
        let mut i = Interpreter::for_tests();
        assert!(matches!(
            i.run_script("frobnicate --fast\n"),
            Err(ShellError::UnknownCommand(_))
        ));
    }
}

#[cfg(test)]
mod for_loop_tests {
    use super::*;

    #[test]
    fn iterates_literal_items() {
        let mut i = Interpreter::for_tests();
        let out = i
            .run_script("for x in a b c; do\necho item=$x\ndone\n")
            .unwrap();
        assert_eq!(out.stdout, "item=a\nitem=b\nitem=c\n");
    }

    #[test]
    fn expands_and_splits_variables() {
        let mut i = Interpreter::for_tests();
        i.set_var("DIMS", "x y z");
        let out = i.run_script("for d in $DIMS; do\necho $d\ndone\n").unwrap();
        assert_eq!(out.stdout, "x\ny\nz\n");
        // Quoted: a single iteration.
        let out = i
            .run_script("for d in \"$DIMS\"; do\necho [$d]\ndone\n")
            .unwrap();
        assert_eq!(out.stdout, "[x y z]\n");
    }

    #[test]
    fn return_inside_loop_propagates() {
        let mut i = Interpreter::for_tests();
        i.load_script("f() {\nfor x in 1 2 3; do\nif [[ $x == 2 ]]; then\nreturn 7\nfi\necho $x\ndone\necho after\n}\n")
            .unwrap();
        let out = i.call_function("f").unwrap();
        assert_eq!(out.stdout, "1\n");
        assert_eq!(out.exit_code, 7);
    }

    #[test]
    fn empty_item_list_runs_zero_times() {
        let mut i = Interpreter::for_tests();
        i.set_var("EMPTY", "");
        let out = i
            .run_script("for x in $EMPTY; do\necho never\ndone\necho done\n")
            .unwrap();
        assert_eq!(out.stdout, "done\n");
    }

    #[test]
    fn listing2_style_loop_over_axes() {
        // The Listing 2 sed triple, rewritten as the loop a bash author
        // would actually use — exercises for + command substitution + sed.
        let mut i = Interpreter::for_tests();
        i.vfs_mut().write(
            "/w/in.lj.txt",
            "variable x index 1\nvariable y index 1\nvariable z index 1\n",
        );
        i.set_cwd("/w");
        i.set_var("BOXFACTOR", "30");
        let script = r#"
for axis in x y z; do
  sed -i "s/variable\s\+$axis\s\+index\s\+[0-9]\+/variable $axis index $BOXFACTOR/" in.lj.txt
done
"#;
        i.run_script(script).unwrap();
        let content = i.vfs().read("/w/in.lj.txt").unwrap();
        assert_eq!(
            content,
            "variable x index 30\nvariable y index 30\nvariable z index 30\n"
        );
    }

    #[test]
    fn parse_errors_for_malformed_loops() {
        let mut i = Interpreter::for_tests();
        assert!(
            i.run_script("for x a b; do echo; done\n").is_err(),
            "missing in"
        );
        assert!(
            i.run_script("for x in a b\necho x\ndone\n").is_err(),
            "missing do"
        );
        assert!(
            i.run_script("for x in a; do\necho y\n").is_err(),
            "missing done"
        );
        assert!(i.run_script("done\n").is_err(), "stray done");
    }

    #[test]
    fn runaway_loop_budget_still_applies() {
        // A long (but finite) loop executes fine under the step budget.
        let mut i = Interpreter::for_tests();
        let items: Vec<String> = (0..500).map(|n| n.to_string()).collect();
        let script = format!("for x in {}; do\ntrue\ndone\necho ok\n", items.join(" "));
        let out = i.run_script(&script).unwrap();
        assert_eq!(out.stdout, "ok\n");
    }
}
