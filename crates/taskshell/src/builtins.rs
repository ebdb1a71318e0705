//! Builtin commands.
//!
//! Each builtin receives the interpreter (for the VFS, variables and the
//! virtual clock), its arguments, its stdin and the buffer its stdout
//! goes to, and returns its exit status. The buffer is the interpreter's
//! own stdout for the last command of a pipeline, so output is written
//! once, where it ends up. `mpirun` is the bridge into the application
//! performance models.

use crate::error::ShellError;
use crate::interp::Interpreter;
use crate::regexlite::{find_literal, Regex};
use crate::vfs::resolve;
use simtime::SimDuration;
use std::borrow::Cow;
use std::fmt::Write;
use std::sync::Arc;

/// Dispatches a builtin by name, appending its stdout to `out`.
pub(crate) fn run(
    interp: &mut Interpreter,
    name: &str,
    args: &[Cow<str>],
    stdin: &str,
    out: &mut String,
) -> Result<i32, ShellError> {
    // Every command costs a little virtual time.
    interp.charge(SimDuration::from_millis(1));
    match name {
        "echo" => echo(args, out),
        "true" | ":" => Ok(0),
        "false" => Ok(1),
        "pwd" => {
            out.push_str(interp.cwd());
            out.push('\n');
            Ok(0)
        }
        "cd" => cd(interp, args),
        "cat" => cat(interp, args, stdin, out),
        "cp" => cp(interp, args),
        "mv" => mv(interp, args),
        "rm" => rm(interp, args),
        "mkdir" => mkdir(interp, args),
        "head" => head_tail(args, stdin, true, out),
        "tail" => head_tail(args, stdin, false, out),
        "wc" => wc(args, stdin, out),
        "grep" => grep(interp, args, stdin, out),
        "awk" => awk(args, stdin, out),
        "sed" => sed(interp, args, stdin, out),
        "wget" => wget(interp, args, out),
        "module" => module(interp, args, out),
        "source" | "." => source(interp, args, out),
        "which" => which(interp, args, out),
        "sleep" => sleep(interp, args),
        "test" | "[" | "[[" => test_cmd(interp, name, args),
        "mpirun" | "mpiexec" => mpirun(interp, args, out),
        other => Err(ShellError::UnknownCommand(other.to_string())),
    }
}

fn usage(command: &str, message: impl Into<String>) -> ShellError {
    ShellError::BadUsage {
        command: command.into(),
        message: message.into(),
    }
}

fn echo(args: &[Cow<str>], out: &mut String) -> Result<i32, ShellError> {
    let (newline, rest) = match args.first().map(|s| &**s) {
        Some("-n") => (false, &args[1..]),
        _ => (true, args),
    };
    for (i, arg) in rest.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(arg);
    }
    if newline {
        out.push('\n');
    }
    Ok(0)
}

fn cd(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    let target = args.first().map(|s| &**s).unwrap_or("/");
    let dir = resolve(interp.cwd(), target).into_owned();
    interp.set_cwd(dir);
    Ok(0)
}

fn cat(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    stdin: &str,
    out: &mut String,
) -> Result<i32, ShellError> {
    if args.is_empty() {
        out.push_str(stdin);
        return Ok(0);
    }
    let mut status = 0;
    for arg in args {
        let path = resolve(interp.cwd(), arg);
        match interp.vfs().read(&path) {
            Ok(content) => out.push_str(content),
            // Like real cat: report and continue with status 1.
            Err(_) => {
                let _ = writeln!(out, "cat: {arg}: No such file or directory");
                status = 1;
            }
        }
    }
    Ok(status)
}

fn cp(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    let [src, dst] = args else {
        return Err(usage("cp", "expected 'cp SRC DST'"));
    };
    let src_path = resolve(interp.cwd(), src);
    let content = interp.vfs().read_shared(&src_path)?.clone();
    let dst_path = destination_path(interp, src, dst);
    interp.vfs_mut().write(&dst_path, content);
    Ok(0)
}

fn mv(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    let [src, dst] = args else {
        return Err(usage("mv", "expected 'mv SRC DST'"));
    };
    let src_path = resolve(interp.cwd(), src);
    let content = interp.vfs().read_shared(&src_path)?.clone();
    let dst_path = destination_path(interp, src, dst);
    interp.vfs_mut().remove(&src_path)?;
    interp.vfs_mut().write(&dst_path, content);
    Ok(0)
}

/// Resolves a copy/move destination: a trailing `/` or a bare `.` keeps the
/// source basename.
fn destination_path(interp: &Interpreter, src: &str, dst: &str) -> String {
    let base = src.rsplit('/').next().unwrap_or(src);
    if dst == "." || dst.ends_with('/') || interp.vfs().dir_exists(&resolve(interp.cwd(), dst)) {
        resolve(
            interp.cwd(),
            &format!("{}/{}", dst.trim_end_matches('/'), base),
        )
        .into_owned()
    } else {
        resolve(interp.cwd(), dst).into_owned()
    }
}

fn rm(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    let mut force = false;
    let mut removed_any = false;
    for arg in args {
        match &**arg {
            "-f" => force = true,
            "-rf" | "-fr" | "-r" => force = true,
            path => {
                let p = resolve(interp.cwd(), path);
                match interp.vfs_mut().remove(&p) {
                    Ok(()) => removed_any = true,
                    Err(e) if !force => return Err(e),
                    Err(_) => {}
                }
            }
        }
    }
    let _ = removed_any;
    Ok(0)
}

fn mkdir(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    for arg in args {
        if arg == "-p" {
            continue;
        }
        let p = resolve(interp.cwd(), arg);
        interp.vfs_mut().mkdir(&p);
    }
    Ok(0)
}

fn head_tail(
    args: &[Cow<str>],
    stdin: &str,
    head: bool,
    out: &mut String,
) -> Result<i32, ShellError> {
    let name = if head { "head" } else { "tail" };
    let mut n = 10usize;
    let mut i = 0;
    while i < args.len() {
        match &*args[i] {
            "-n" => {
                n = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| usage(name, "-n requires a count"))?;
                i += 2;
            }
            flag if flag.starts_with('-') && flag[1..].chars().all(|c| c.is_ascii_digit()) => {
                n = flag[1..].parse().expect("digits");
                i += 1;
            }
            _ => return Err(usage(name, "only stdin input is supported")),
        }
    }
    let lines: Vec<&str> = stdin.lines().collect();
    let slice: Vec<&str> = if head {
        lines.iter().take(n).copied().collect()
    } else {
        lines.iter().rev().take(n).rev().copied().collect()
    };
    let text = slice.join("\n");
    if !text.is_empty() {
        out.push_str(&text);
        out.push('\n');
    }
    Ok(0)
}

fn wc(args: &[Cow<str>], stdin: &str, out: &mut String) -> Result<i32, ShellError> {
    let lines = stdin.lines().count();
    let _ = if args.first().map(|s| &**s) == Some("-l") {
        writeln!(out, "{lines}")
    } else {
        let words = stdin.split_whitespace().count();
        writeln!(out, "{lines} {words} {}", stdin.len())
    };
    Ok(0)
}

fn grep(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    stdin: &str,
    out: &mut String,
) -> Result<i32, ShellError> {
    let mut quiet = false;
    let mut count = false;
    let mut invert = false;
    // Operands in order: the pattern, then the files.
    let mut operands = args
        .iter()
        .map(|arg| &**arg)
        .filter(|arg| !matches!(*arg, "-q" | "-c" | "-v"));
    for arg in args {
        match &**arg {
            "-q" => quiet = true,
            "-c" => count = true,
            "-v" => invert = true,
            _ => {}
        }
    }
    let pattern = operands
        .next()
        .ok_or_else(|| usage("grep", "missing pattern"))?;
    let mut files = operands.peekable();
    let re = Regex::compile(pattern)?;
    let first_only = quiet && !count;
    let print = !quiet && !count;
    // Each input is scanned on its own, so a file without a final newline
    // never joins its last line to the next file's first.
    let scan = |text: &str, out: &mut String| match re.literal() {
        Some(literal) if !literal.contains(['\n', '\r']) => {
            scan_literal(text, literal, invert, first_only, print.then_some(out))
        }
        _ => scan_lines(text, first_only, print.then_some(out), |line| {
            re.is_match(line) != invert
        }),
    };
    let mut matched = 0usize;
    if files.peek().is_none() {
        matched = scan(stdin, out);
    }
    // A missing file ends the command with status 2 and nothing but its
    // error printed, like real grep without -s (Listing 2 relies on this
    // to take its failure branch when the application never wrote its
    // log): what earlier files printed is taken back, and files after a
    // `-q` hit are still looked up.
    let printed_from = out.len();
    for f in files {
        let Ok(text) = interp.vfs().read(&resolve(interp.cwd(), f)) else {
            out.truncate(printed_from);
            if !quiet {
                let _ = writeln!(out, "grep: {f}: No such file or directory");
            }
            return Ok(2);
        };
        if !(first_only && matched > 0) {
            matched += scan(text, out);
        }
    }
    if count {
        let _ = writeln!(out, "{matched}");
    }
    Ok(if matched > 0 { 0 } else { 1 })
}

/// Counts the lines of `text` that `hit` accepts, testing one line at a
/// time; `first_only` stops at the first. Accepted lines are appended to
/// `print`, each with a newline.
fn scan_lines(
    text: &str,
    first_only: bool,
    mut print: Option<&mut String>,
    mut hit: impl FnMut(&str) -> bool,
) -> usize {
    let mut matched = 0;
    for line in text.lines() {
        if hit(line) {
            matched += 1;
            if let Some(out) = print.as_deref_mut() {
                out.reserve(line.len() + 1);
                out.push_str(line);
                out.push('\n');
            }
            if first_only {
                break;
            }
        }
    }
    matched
}

/// Counts the lines of `text` that contain `literal` (`invert`: that do
/// not), like [`scan_lines`] with a per-line search, for a literal without
/// line breaks: one substring search over the rest of the buffer finds the
/// next hit, and only the line around it is looked at.
fn scan_literal(
    text: &str,
    literal: &str,
    invert: bool,
    first_only: bool,
    mut print: Option<&mut String>,
) -> usize {
    let mut matched = 0;
    // Every line before `pos` has been classified.
    let mut pos = 0;
    while pos < text.len() {
        let Some(hit) = find_literal(&text[pos..], literal).map(|i| pos + i) else {
            break;
        };
        let start = text[pos..hit].rfind('\n').map_or(pos, |i| pos + i + 1);
        let next = text[hit..].find('\n').map_or(text.len(), |i| hit + i + 1);
        // Inverted, the lines between the previous hit's line and this one
        // match; otherwise the line around the hit does.
        let lines = if invert {
            &text[pos..start]
        } else {
            &text[start..next]
        };
        matched += scan_lines(lines, first_only, print.as_deref_mut(), |_| true);
        if first_only && matched > 0 {
            return matched;
        }
        pos = next;
    }
    if invert {
        matched += scan_lines(&text[pos..], first_only, print, |_| true);
    }
    matched
}

fn awk(args: &[Cow<str>], stdin: &str, out: &mut String) -> Result<i32, ShellError> {
    let program = args
        .first()
        .ok_or_else(|| usage("awk", "missing program"))?;
    if args.len() > 1 {
        return Err(usage(
            "awk",
            "file arguments unsupported; pipe input instead",
        ));
    }
    // Supported program shape: { print $N[, $M ...] }
    let inner = program
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| usage("awk", "only '{print $N, ...}' programs are supported"))?;
    let inner = inner.trim();
    let fields_spec = inner
        .strip_prefix("print")
        .ok_or_else(|| usage("awk", "only '{print $N, ...}' programs are supported"))?;
    // The operands are checked here and parsed again per line: `$N`
    // fields, or the whole line (`$0`) for a bare `print`.
    let operands = || fields_spec.split([',', ' ']).filter(|t| !t.is_empty());
    let field = |tok: &str| tok.strip_prefix('$').and_then(|n| n.parse::<usize>().ok());
    if let Some(tok) = operands().find(|tok| field(tok).is_none()) {
        return Err(usage("awk", format!("unsupported print operand '{tok}'")));
    }
    let whole_line = operands().next().is_none();
    for line in stdin.lines() {
        // A line's fields are no longer than the line itself.
        out.reserve(line.len() + 1);
        if whole_line {
            out.push_str(line);
        }
        for (i, tok) in operands().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(match field(tok).expect("checked above") {
                0 => line,
                n => line.split_whitespace().nth(n - 1).unwrap_or(""),
            });
        }
        out.push('\n');
    }
    Ok(0)
}

fn sed(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    stdin: &str,
    out: &mut String,
) -> Result<i32, ShellError> {
    let mut in_place = false;
    let mut script: Option<&str> = None;
    let mut file: Option<&str> = None;
    for arg in args {
        match &**arg {
            "-i" => in_place = true,
            a if script.is_none() => script = Some(a),
            a if file.is_none() => file = Some(a),
            a => return Err(usage("sed", format!("unexpected argument '{a}'"))),
        }
    }
    let script = script.ok_or_else(|| usage("sed", "missing s/// script"))?;
    let (pattern, replacement, global) = parse_substitution(script)?;
    let re = Regex::compile(&pattern)?;
    // Rewrites each line of `text` into `out`, keeping a final newline.
    let apply = |text: &str, out: &mut String| {
        for (i, line) in text.lines().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&if global {
                re.replace_all(line, &replacement)
            } else {
                re.replace_first(line, &replacement)
            });
        }
        if text.ends_with('\n') {
            out.push('\n');
        }
    };
    if in_place {
        let f = file.ok_or_else(|| usage("sed", "-i requires a file"))?;
        let path = resolve(interp.cwd(), f);
        let mut updated = String::new();
        match interp.vfs().read(&path) {
            Ok(content) => apply(content, &mut updated),
            // Like real sed: status 2 on a missing file.
            Err(_) => {
                let _ = writeln!(out, "sed: can't read {f}: No such file or directory");
                return Ok(2);
            }
        }
        interp.vfs_mut().write(&path, updated);
    } else {
        match file {
            Some(f) => apply(interp.vfs().read(&resolve(interp.cwd(), f))?, out),
            None => apply(stdin, out),
        }
    }
    Ok(0)
}

/// Splits `s/PATTERN/REPLACEMENT/FLAGS` (any delimiter) into parts,
/// honouring backslash-escaped delimiters.
fn parse_substitution(script: &str) -> Result<(String, String, bool), ShellError> {
    let mut chars = script.chars();
    if chars.next() != Some('s') {
        return Err(usage("sed", "only s/pattern/replacement/ is supported"));
    }
    let delim = chars
        .next()
        .ok_or_else(|| usage("sed", "missing delimiter"))?;
    let rest: Vec<char> = chars.collect();
    let mut parts: Vec<String> = vec![String::new()];
    let mut i = 0;
    while i < rest.len() {
        let c = rest[i];
        if c == '\\' && rest.get(i + 1) == Some(&delim) {
            parts.last_mut().expect("non-empty").push(delim);
            i += 2;
        } else if c == '\\' {
            let part = parts.last_mut().expect("non-empty");
            part.push('\\');
            if let Some(&n) = rest.get(i + 1) {
                part.push(n);
                i += 2;
            } else {
                i += 1;
            }
        } else if c == delim {
            parts.push(String::new());
            i += 1;
        } else {
            parts.last_mut().expect("non-empty").push(c);
            i += 1;
        }
    }
    if parts.len() != 3 {
        return Err(usage(
            "sed",
            format!("malformed substitution '{script}' ({} parts)", parts.len()),
        ));
    }
    let global = parts[2].contains('g');
    Ok((parts[0].clone(), parts[1].clone(), global))
}

fn wget(interp: &mut Interpreter, args: &[Cow<str>], out: &mut String) -> Result<i32, ShellError> {
    let mut url: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match &*args[i] {
            "-O" => {
                output = Some(
                    args.get(i + 1)
                        .ok_or_else(|| usage("wget", "-O requires a filename"))?,
                );
                i += 2;
            }
            "-q" | "--quiet" => i += 1,
            a => {
                url = Some(a);
                i += 1;
            }
        }
    }
    let url = url.ok_or_else(|| usage("wget", "missing URL"))?;
    match interp.urls.get_shared(url) {
        None => {
            let _ = writeln!(out, "wget: unable to resolve '{url}'");
            Ok(8)
        }
        Some(content) => {
            let filename = match output {
                Some(o) => o.to_string(),
                None => url.rsplit('/').next().unwrap_or("index.html").to_string(),
            };
            // 2 s handshake + bandwidth at ~10 MB/s.
            let secs = 2.0 + content.len() as f64 / 10e6;
            interp.charge(SimDuration::from_secs_f64(secs));
            let path = resolve(interp.cwd(), &filename);
            interp.vfs_mut().write(&path, content);
            let _ = writeln!(out, "'{filename}' saved");
            Ok(0)
        }
    }
}

fn module(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    out: &mut String,
) -> Result<i32, ShellError> {
    match args.first().map(|s| &**s) {
        Some("load") => {
            for m in &args[1..] {
                interp.modules.push(m.to_string());
            }
            interp.charge(SimDuration::from_secs(3));
            Ok(0)
        }
        Some("purge") => {
            interp.modules.clear();
            Ok(0)
        }
        Some("list") => {
            out.push_str("Currently Loaded Modules:\n");
            for (i, m) in interp.modules.iter().enumerate() {
                let _ = writeln!(out, "  {}) {}", i + 1, m);
            }
            Ok(0)
        }
        _ => Err(usage("module", "expected 'load', 'purge' or 'list'")),
    }
}

fn source(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    out: &mut String,
) -> Result<i32, ShellError> {
    let path = args
        .first()
        .ok_or_else(|| usage("source", "missing file"))?;
    if path.starts_with("/cvmfs/") {
        // EESSI environment initialisation: takes a moment, always works.
        interp.charge(SimDuration::from_secs(10));
        return Ok(0);
    }
    let p = resolve(interp.cwd(), path);
    let content = interp.vfs().read(&p)?.to_string();
    let outcome = interp.run_script(&content)?;
    out.push_str(&outcome.stdout);
    Ok(outcome.exit_code)
}

fn which(interp: &mut Interpreter, args: &[Cow<str>], out: &mut String) -> Result<i32, ShellError> {
    let name = args.first().ok_or_else(|| usage("which", "missing name"))?;
    let known_builtin = [
        "echo", "cat", "grep", "awk", "sed", "wget", "cp", "mv", "rm", "mkdir", "mpirun",
        "mpiexec", "sleep", "module",
    ]
    .contains(&&**name);
    let known_app = interp.node.registry.get_by_binary(name).is_some();
    if known_builtin || known_app {
        let _ = writeln!(out, "/usr/bin/{name}");
        Ok(0)
    } else {
        Ok(1)
    }
}

fn sleep(interp: &mut Interpreter, args: &[Cow<str>]) -> Result<i32, ShellError> {
    let secs: f64 = args
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| usage("sleep", "expected seconds"))?;
    interp.charge(SimDuration::from_secs_f64(secs));
    Ok(0)
}

fn test_cmd(interp: &mut Interpreter, name: &str, args: &[Cow<str>]) -> Result<i32, ShellError> {
    // Strip the closing bracket of `[ … ]` / `[[ … ]]`.
    let mut args: Vec<&str> = args.iter().map(|s| &**s).collect();
    match name {
        "[" if args.pop() != Some("]") => {
            return Err(usage("[", "missing closing ']'"));
        }
        "[[" if args.pop() != Some("]]") => {
            return Err(usage("[[", "missing closing ']]'"));
        }
        _ => {}
    }
    let mut negate = false;
    while args.first() == Some(&"!") {
        negate = !negate;
        args.remove(0);
    }
    let result = eval_test(interp, &args)?;
    Ok(if result != negate { 0 } else { 1 })
}

fn eval_test(interp: &Interpreter, args: &[&str]) -> Result<bool, ShellError> {
    match args {
        [] => Ok(false),
        [s] => Ok(!s.is_empty()),
        ["-f", p] | ["-e", p] => Ok(interp.vfs().exists(&resolve(interp.cwd(), p))),
        ["-d", p] => Ok(interp.vfs().dir_exists(&resolve(interp.cwd(), p))),
        ["-z", s] => Ok(s.is_empty()),
        ["-n", s] => Ok(!s.is_empty()),
        [a, "=", b] | [a, "==", b] => Ok(a == b),
        [a, "!=", b] => Ok(a != b),
        [a, op, b] => {
            let (x, y) = (a.trim().parse::<i64>().ok(), b.trim().parse::<i64>().ok());
            let (Some(x), Some(y)) = (x, y) else {
                return Err(usage(
                    "test",
                    format!("non-numeric comparison '{a} {op} {b}'"),
                ));
            };
            match *op {
                "-eq" => Ok(x == y),
                "-ne" => Ok(x != y),
                "-lt" => Ok(x < y),
                "-le" => Ok(x <= y),
                "-gt" => Ok(x > y),
                "-ge" => Ok(x >= y),
                other => Err(usage("test", format!("unsupported operator '{other}'"))),
            }
        }
        other => Err(usage("test", format!("unsupported expression {other:?}"))),
    }
}

/// `mpirun`: the bridge into the application performance models.
///
/// Recognised arguments: `-np N`, `--host`/`-host LIST`, `--hostfile F`;
/// the first non-flag argument is the application binary, resolved through
/// the model registry by basename. Node/PPN layout comes from the host list
/// when given, else from the `NNODES`/`PPN` environment (Table I).
fn mpirun(
    interp: &mut Interpreter,
    args: &[Cow<str>],
    out: &mut String,
) -> Result<i32, ShellError> {
    let mut np: Option<u64> = None;
    let mut hostlist: Option<&str> = None;
    let mut binary: Option<&str> = None;
    let mut app_args: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match &*args[i] {
            "-np" | "-n" | "--np" => {
                np = args.get(i + 1).and_then(|s| s.parse().ok());
                if np.is_none() {
                    return Err(usage("mpirun", "-np requires a number"));
                }
                i += 2;
            }
            "--host" | "-host" | "--hosts" => {
                hostlist = args.get(i + 1).map(|s| &**s);
                if hostlist.is_none() {
                    return Err(usage("mpirun", "--host requires a list"));
                }
                i += 2;
            }
            "--hostfile" | "-hostfile" | "--machinefile" => {
                let f = args
                    .get(i + 1)
                    .ok_or_else(|| usage("mpirun", "--hostfile requires a path"))?;
                let path = resolve(interp.cwd(), f);
                // Validate it exists; layout still comes from env.
                interp.vfs().read(&path)?;
                i += 2;
            }
            "--bind-to" | "--map-by" | "-x" => {
                // Accept-and-ignore common binding/env flags (take a value).
                i += 2;
            }
            a if binary.is_none() => {
                binary = Some(a);
                i += 1;
            }
            a => {
                app_args.push(a);
                i += 1;
            }
        }
    }
    let binary = binary.ok_or_else(|| usage("mpirun", "missing application binary"))?;
    let registry = Arc::clone(&interp.node.registry);
    let Some(model) = registry.get_by_binary(binary) else {
        return Err(ShellError::AppError(format!(
            "unknown application binary '{binary}'"
        )));
    };

    // Layout: host list wins; fall back to NNODES/PPN environment.
    let (nodes, ppn) = if let Some(list) = hostlist {
        let mut entries = list.split(',').filter(|s| !s.is_empty());
        let first = entries
            .next()
            .ok_or_else(|| usage("mpirun", "empty host list"))?;
        let ppn = first
            .split(':')
            .nth(1)
            .and_then(|p| p.parse::<u32>().ok())
            .unwrap_or(1);
        (1 + entries.count() as u32, ppn)
    } else {
        let nodes = interp
            .var("NNODES")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let ppn = interp.var("PPN").and_then(|v| v.parse().ok()).unwrap_or(1);
        (nodes, ppn)
    };
    if let Some(np) = np {
        let layout = nodes as u64 * ppn as u64;
        if np != layout {
            return Err(ShellError::AppError(format!(
                "-np {np} does not match host layout {nodes}×{ppn}={layout}"
            )));
        }
    }

    // `-i FILE` style input files must exist (the run script copies them in).
    let mut j = 0;
    while j < app_args.len() {
        if app_args[j] == "-i" || app_args[j] == "-in" {
            if let Some(f) = app_args.get(j + 1) {
                let path = resolve(interp.cwd(), f);
                interp.vfs().read(&path)?;
            }
            j += 2;
        } else {
            j += 1;
        }
    }

    // The model reads the exported variables where the interpreter keeps
    // them, against the machine profile built with the interpreter.
    let run = registry.run(
        model.name(),
        &interp.node.machine,
        nodes,
        ppn,
        &interp.exported,
        interp.node.experiment_seed,
    );
    match run {
        Ok(run) => {
            // ~2 s of launcher overhead on top of the application time.
            interp.charge(SimDuration::from_secs(2) + run.wall_time);
            // One copy of the log, shared by the file and stdout.
            let log: Arc<str> = run.log.into();
            // Real MPI apps echo their log to stdout as well; the trailing
            // HPCADVISORINFRA line stands in for the infrastructure
            // monitoring sidecar the paper's §III-F bottleneck optimizer
            // would deploy (CPU/memory/network utilization). One reserve
            // makes room for both.
            out.reserve(log.len() + 96);
            out.push_str(&log);
            let _ = writeln!(
                out,
                "HPCADVISORINFRA cpu={:.3} membw={:.3} net={:.3} bottleneck={}",
                run.engine.cpu_utilization,
                run.engine.membw_utilization,
                run.engine.network_utilization,
                run.engine.bottleneck.label()
            );
            let log_path = resolve(interp.cwd(), model.log_file());
            interp.vfs_mut().write(&log_path, log);
            Ok(0)
        }
        Err(e) => {
            // Failed launches still burn a little time and leave no log.
            interp.charge(SimDuration::from_secs(5));
            let _ = write!(
                out,
                "--------------------------------------------------------------------------\n\
                 mpirun detected that one or more processes exited with non-zero status\n\
                 reason: {e}\n\
                 --------------------------------------------------------------------------\n"
            );
            Ok(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    fn outcome(script: &str) -> (String, i32) {
        let mut i = Interpreter::for_tests();
        let out = i.run_script(script).unwrap();
        (out.stdout, out.exit_code)
    }

    #[test]
    fn echo_variants() {
        assert_eq!(outcome("echo a b\n").0, "a b\n");
        assert_eq!(outcome("echo -n x\n").0, "x");
    }

    #[test]
    fn file_builtins() {
        let mut i = Interpreter::for_tests();
        i.set_cwd("/work");
        let out = i
            .run_script("echo hi > /dev/null || true\nmkdir -p sub\ncd sub\npwd\n")
            .unwrap();
        // `>` redirection is not supported; the || true swallows... actually
        // echo takes the words literally. pwd reflects cd.
        assert!(out.stdout.ends_with("/work/sub\n"));
    }

    #[test]
    fn cp_and_cat_with_parent_dir() {
        let mut i = Interpreter::for_tests();
        i.vfs_mut().write("/app/in.lj.txt", "content-123\n");
        i.set_cwd("/app/tasks/7");
        let out = i
            .run_script("cp ../../in.lj.txt .\ncat in.lj.txt\n")
            .unwrap();
        assert_eq!(out.stdout, "content-123\n");
    }

    #[test]
    fn grep_modes() {
        let mut i = Interpreter::for_tests();
        i.vfs_mut().write("/f", "alpha\nbeta\ngamma\n");
        i.set_cwd("/");
        let out = i.run_script("grep a /f\n").unwrap();
        assert_eq!(out.stdout, "alpha\nbeta\ngamma\n");
        let out = i.run_script("grep -c et /f\n").unwrap();
        assert_eq!(out.stdout, "1\n");
        let out = i.run_script("grep -q nothing /f\necho $?\n").unwrap();
        assert_eq!(out.stdout, "1\n");
        let out = i.run_script("grep -v et /f\n").unwrap();
        assert_eq!(out.stdout, "alpha\ngamma\n");
    }

    #[test]
    fn grep_scans_each_file_on_its_own() {
        let mut i = Interpreter::for_tests();
        // `/a` has no final newline: its last line must not run into the
        // first line of `/b`.
        i.vfs_mut().write("/a", "abc");
        i.vfs_mut().write("/b", "def\n");
        let run = |i: &mut Interpreter, script: &str| {
            let out = i.run_script(script).unwrap();
            (out.stdout, out.exit_code)
        };
        assert_eq!(run(&mut i, "grep cd /a /b\n"), (String::new(), 1));
        assert_eq!(run(&mut i, "grep c /a /b\n"), ("abc\n".into(), 0));
        assert_eq!(run(&mut i, "grep -c e /a /b\n"), ("1\n".into(), 0));
        assert_eq!(run(&mut i, "grep -v x /a /b\n"), ("abc\ndef\n".into(), 0));
        // A missing file still ends the command with status 2.
        assert_eq!(
            run(&mut i, "grep abc /a /missing\n"),
            ("grep: /missing: No such file or directory\n".into(), 2)
        );
        assert_eq!(run(&mut i, "grep -q abc /a /missing\n"), (String::new(), 2));
    }

    /// The grep of one input before the whole-buffer search: every line
    /// through the backtracker.
    fn grep_reference(text: &str, pattern: &str, flags: &[&str]) -> (String, usize) {
        let re = Regex::backtracking(pattern);
        let (quiet, count, invert) = (
            flags.contains(&"-q"),
            flags.contains(&"-c"),
            flags.contains(&"-v"),
        );
        let mut out = String::new();
        let mut matched = 0;
        for line in text.lines() {
            if re.is_match(line) != invert {
                matched += 1;
                if !quiet && !count {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        (out, matched)
    }

    #[test]
    fn grep_fast_paths_match_the_per_line_backtracker() {
        const LINES: [&str; 12] = [
            "", "abc", "xabcx", "abcabc", "ab", "c abc", "αβ abc", "é", "abc\r", "\r", " ", "ab c",
        ];
        const PATTERNS: [&str; 12] = [
            "abc", "a", "c", "", "bc a", "β a", "é", "x", "abcabc", " ", "c\r", "ab\nc",
        ];
        const FLAGS: [&[&str]; 6] = [&[], &["-q"], &["-c"], &["-v"], &["-v", "-c"], &["-q", "-c"]];
        // A small deterministic stream (splitmix64) drives the generator.
        let mut state = 0x5eed_u64;
        let mut next = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut text = || {
            let mut t = String::new();
            for n in 0..next(6) {
                if n > 0 {
                    t.push_str(if next(3) == 0 { "\r\n" } else { "\n" });
                }
                t.push_str(LINES[next(LINES.len())]);
            }
            if next(2) == 0 {
                t.push('\n');
            }
            t
        };
        let mut interp = Interpreter::for_tests();
        for case in 0..1500 {
            let (first, second) = (text(), text());
            interp.vfs_mut().write("/f", first.as_str());
            interp.vfs_mut().write("/g", second.as_str());
            for pattern in PATTERNS {
                for flags in FLAGS {
                    let (quiet, count) = (flags.contains(&"-q"), flags.contains(&"-c"));
                    let expect = |texts: &[&str]| {
                        let mut out = String::new();
                        let mut matched = 0;
                        for t in texts {
                            let (o, m) = grep_reference(t, pattern, flags);
                            out.push_str(&o);
                            matched += m;
                        }
                        if count {
                            out = format!("{matched}\n");
                        } else if quiet {
                            out.clear();
                        }
                        (out, if matched > 0 { 0 } else { 1 })
                    };
                    let run = |interp: &mut Interpreter, files: &[&str], stdin: &str| {
                        let mut args: Vec<Cow<str>> = flags.iter().map(|f| (*f).into()).collect();
                        args.push(pattern.into());
                        args.extend(files.iter().map(|f| (*f).into()));
                        let mut out = String::new();
                        let status = grep(interp, &args, stdin, &mut out).unwrap();
                        (out, status)
                    };
                    let what = format!("case {case}: grep {flags:?} {pattern:?} over {first:?}");
                    assert_eq!(
                        run(&mut interp, &[], &first),
                        expect(&[&first]),
                        "stdin, {what}"
                    );
                    assert_eq!(
                        run(&mut interp, &["/f"], ""),
                        expect(&[&first]),
                        "file, {what}"
                    );
                    assert_eq!(
                        run(&mut interp, &["/f", "/g"], ""),
                        expect(&[&first, &second]),
                        "two files, {what} and {second:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn awk_field_extraction() {
        let mut i = Interpreter::for_tests();
        i.vfs_mut()
            .write("/log", "Loop time of 36.2 on 1920 procs\n");
        i.set_cwd("/");
        let out = i.run_script("cat /log | awk '{print $4}'\n").unwrap();
        assert_eq!(out.stdout, "36.2\n");
        let out = i.run_script("cat /log | awk '{print $1, $6}'\n").unwrap();
        assert_eq!(out.stdout, "Loop 1920\n");
    }

    #[test]
    fn sed_in_place_listing2_style() {
        let mut i = Interpreter::for_tests();
        i.vfs_mut()
            .write("/w/in.lj.txt", "variable x index 1\nvariable y index 1\n");
        i.set_cwd("/w");
        i.set_var("BOXFACTOR", "30");
        i.run_script(
            r#"sed -i "s/variable\s\+x\s\+index\s\+[0-9]\+/variable x index $BOXFACTOR/" in.lj.txt"#,
        )
        .unwrap();
        let content = i.vfs().read("/w/in.lj.txt").unwrap();
        assert_eq!(content, "variable x index 30\nvariable y index 1\n");
    }

    #[test]
    fn sed_stream_mode() {
        let mut i = Interpreter::for_tests();
        let out = i
            .run_script("echo aaa | sed 's/a/b/'\necho aaa | sed 's/a/b/g'\n")
            .unwrap();
        assert_eq!(out.stdout, "baa\nbbb\n");
    }

    #[test]
    fn wget_known_and_unknown() {
        let mut i = Interpreter::for_tests();
        i.set_cwd("/dl");
        let out = i
            .run_script("wget https://www.lammps.org/inputs/in.lj.txt\n")
            .unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(i.vfs().exists("/dl/in.lj.txt"));
        assert!(out.elapsed >= SimDuration::from_secs(2));
        let out = i
            .run_script("wget https://unknown.example/x\necho $?\n")
            .unwrap();
        assert!(out.stdout.contains("8"));
    }

    #[test]
    fn module_and_source_eessi() {
        let mut i = Interpreter::for_tests();
        let out = i
            .run_script(
                "source /cvmfs/software.eessi.io/versions/2023.06/init/bash\nmodule load LAMMPS\nmodule list\n",
            )
            .unwrap();
        assert!(out.stdout.contains("LAMMPS"));
        assert!(out.elapsed >= SimDuration::from_secs(13));
    }

    #[test]
    fn which_resolves_app_binaries() {
        let (out, code) = outcome("which lmp\n");
        assert_eq!(out, "/usr/bin/lmp\n");
        assert_eq!(code, 0);
        let mut i = Interpreter::for_tests();
        let r = i.run_script("which no_such_binary\n").unwrap();
        assert_eq!(r.exit_code, 1);
    }

    #[test]
    fn test_brackets() {
        let mut i = Interpreter::for_tests();
        i.vfs_mut().write("/x", "1");
        let out = i
            .run_script("[[ -f /x ]] && echo has-x\n[[ -f /y ]] || echo no-y\n[[ 3 -gt 2 ]] && echo gt\n[[ a == a ]] && echo eq\n[[ ! -f /y ]] && echo notf\n")
            .unwrap();
        assert_eq!(out.stdout, "has-x\nno-y\ngt\neq\nnotf\n");
    }

    #[test]
    fn mpirun_runs_lammps_and_writes_log() {
        let mut i = Interpreter::for_tests();
        i.set_cwd("/job");
        i.vfs_mut().write("/job/in.lj.txt", "variable x index 30\n");
        i.set_var("BOXFACTOR", "30");
        i.set_var("NNODES", "16");
        i.set_var("PPN", "120");
        let hosts: Vec<String> = (0..16).map(|n| format!("h{n}:120")).collect();
        i.set_var("HOSTLIST_PPN", hosts.join(","));
        let script =
            "NP=$(($NNODES * $PPN))\nmpirun -np $NP --host \"$HOSTLIST_PPN\" lmp -i in.lj.txt\n";
        let out = i.run_script(script).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        assert!(i.vfs().exists("/job/log.lammps"));
        let log = i.vfs().read("/job/log.lammps").unwrap();
        assert!(log.contains("864000000 atoms"));
        // Elapsed time is dominated by the modelled run (~36 s @ 16 nodes).
        assert!(out.elapsed > SimDuration::from_secs(20));
        assert!(out.elapsed < SimDuration::from_secs(90));
    }

    #[test]
    fn mpirun_np_layout_mismatch() {
        let mut i = Interpreter::for_tests();
        let err = i
            .run_script("mpirun -np 7 --host h0:4,h1:4 lmp\n")
            .unwrap_err();
        assert!(matches!(err, ShellError::AppError(m) if m.contains("does not match")));
    }

    #[test]
    fn mpirun_failure_is_status_not_error() {
        // WRF at 1 km on a single node OOMs: mpirun reports status 1 and the
        // script can react (no log file is written).
        let mut i = Interpreter::for_tests();
        i.set_cwd("/job");
        i.set_var("resolution_km", "1");
        i.set_var("NNODES", "1");
        i.set_var("PPN", "120");
        let out = i
            .run_script("mpirun --host h0:120 wrf.exe\necho code=$?\n")
            .unwrap();
        assert!(out.stdout.contains("out of memory"), "{}", out.stdout);
        assert!(out.stdout.contains("code=1"));
        assert!(!i.vfs().exists("/job/rsl.out.0000"));
    }

    #[test]
    fn mpirun_missing_input_file_errors() {
        let mut i = Interpreter::for_tests();
        i.set_cwd("/job");
        let err = i
            .run_script("mpirun --host h0:4 lmp -i missing.txt\n")
            .unwrap_err();
        assert!(matches!(err, ShellError::NoSuchFile(_)));
    }

    #[test]
    fn head_tail_wc() {
        let (out, _) = outcome("echo a; echo b; echo c\n");
        assert_eq!(out, "a\nb\nc\n");
        let mut i = Interpreter::for_tests();
        let out = i.run_script("echo 1; echo 2; echo 3\n").unwrap();
        assert_eq!(out.stdout.lines().count(), 3);
        let mut i = Interpreter::for_tests();
        i.vfs_mut().write("/f", "l1\nl2\nl3\nl4\n");
        let out = i
            .run_script("cat /f | head -n 2\ncat /f | tail -n 1\ncat /f | wc -l\n")
            .unwrap();
        assert_eq!(out.stdout, "l1\nl2\nl4\n4\n");
    }
}
