//! Builtin commands.
//!
//! Each builtin receives the interpreter (for the VFS, variables and the
//! virtual clock), its arguments and its stdin, and returns `(stdout,
//! status)`. `mpirun` is the bridge into the application performance
//! models.

use crate::error::ShellError;
use crate::interp::Interpreter;
use crate::regexlite::Regex;
use crate::vfs::resolve;
use simtime::SimDuration;

/// Dispatches a builtin by name.
pub fn run(
    interp: &mut Interpreter,
    name: &str,
    args: &[String],
    stdin: &str,
) -> Result<(String, i32), ShellError> {
    // Every command costs a little virtual time.
    interp.charge(SimDuration::from_millis(1));
    match name {
        "echo" => echo(args),
        "true" | ":" => Ok((String::new(), 0)),
        "false" => Ok((String::new(), 1)),
        "pwd" => Ok((format!("{}\n", interp.cwd()), 0)),
        "cd" => cd(interp, args),
        "cat" => cat(interp, args, stdin),
        "cp" => cp(interp, args),
        "mv" => mv(interp, args),
        "rm" => rm(interp, args),
        "mkdir" => mkdir(interp, args),
        "head" => head_tail(args, stdin, true),
        "tail" => head_tail(args, stdin, false),
        "wc" => wc(args, stdin),
        "grep" => grep(interp, args, stdin),
        "awk" => awk(args, stdin),
        "sed" => sed(interp, args, stdin),
        "wget" => wget(interp, args),
        "module" => module(interp, args),
        "source" | "." => source(interp, args),
        "which" => which(interp, args),
        "sleep" => sleep(interp, args),
        "test" | "[" | "[[" => test_cmd(interp, name, args),
        "mpirun" | "mpiexec" => mpirun(interp, args),
        other => Err(ShellError::UnknownCommand(other.to_string())),
    }
}

fn usage(command: &str, message: impl Into<String>) -> ShellError {
    ShellError::BadUsage {
        command: command.into(),
        message: message.into(),
    }
}

fn echo(args: &[String]) -> Result<(String, i32), ShellError> {
    let (newline, rest) = match args.first().map(|s| s.as_str()) {
        Some("-n") => (false, &args[1..]),
        _ => (true, args),
    };
    let mut out = rest.join(" ");
    if newline {
        out.push('\n');
    }
    Ok((out, 0))
}

fn cd(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let target = args.first().map(|s| s.as_str()).unwrap_or("/");
    let dir = resolve(interp.cwd(), target);
    interp.set_cwd(&dir);
    Ok((String::new(), 0))
}

fn cat(
    interp: &mut Interpreter,
    args: &[String],
    stdin: &str,
) -> Result<(String, i32), ShellError> {
    if args.is_empty() {
        return Ok((stdin.to_string(), 0));
    }
    let mut out = String::new();
    let mut status = 0;
    for arg in args {
        let path = resolve(interp.cwd(), arg);
        match interp.vfs().read(&path) {
            Ok(content) => out.push_str(content),
            // Like real cat: report and continue with status 1.
            Err(_) => {
                out.push_str(&format!("cat: {arg}: No such file or directory\n"));
                status = 1;
            }
        }
    }
    Ok((out, status))
}

fn cp(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let [src, dst] = args else {
        return Err(usage("cp", "expected 'cp SRC DST'"));
    };
    let src_path = resolve(interp.cwd(), src);
    let content = interp.vfs().read_shared(&src_path)?.clone();
    let dst_path = destination_path(interp, src, dst);
    interp.vfs_mut().write(&dst_path, content);
    Ok((String::new(), 0))
}

fn mv(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let [src, dst] = args else {
        return Err(usage("mv", "expected 'mv SRC DST'"));
    };
    let src_path = resolve(interp.cwd(), src);
    let content = interp.vfs().read_shared(&src_path)?.clone();
    let dst_path = destination_path(interp, src, dst);
    interp.vfs_mut().remove(&src_path)?;
    interp.vfs_mut().write(&dst_path, content);
    Ok((String::new(), 0))
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
    } else {
        resolve(interp.cwd(), dst)
    }
}

fn rm(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let mut force = false;
    let mut removed_any = false;
    for arg in args {
        match arg.as_str() {
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
    Ok((String::new(), 0))
}

fn mkdir(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    for arg in args {
        if arg == "-p" {
            continue;
        }
        let p = resolve(interp.cwd(), arg);
        interp.vfs_mut().mkdir(&p);
    }
    Ok((String::new(), 0))
}

fn head_tail(args: &[String], stdin: &str, head: bool) -> Result<(String, i32), ShellError> {
    let name = if head { "head" } else { "tail" };
    let mut n = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
    let mut out = slice.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok((out, 0))
}

fn wc(args: &[String], stdin: &str) -> Result<(String, i32), ShellError> {
    if args.first().map(|s| s.as_str()) == Some("-l") {
        Ok((format!("{}\n", stdin.lines().count()), 0))
    } else {
        Ok((
            format!(
                "{} {} {}\n",
                stdin.lines().count(),
                stdin.split_whitespace().count(),
                stdin.len()
            ),
            0,
        ))
    }
}

fn grep(
    interp: &mut Interpreter,
    args: &[String],
    stdin: &str,
) -> Result<(String, i32), ShellError> {
    let mut quiet = false;
    let mut count = false;
    let mut invert = false;
    let mut pattern: Option<&str> = None;
    let mut files: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "-q" => quiet = true,
            "-c" => count = true,
            "-v" => invert = true,
            a if pattern.is_none() => pattern = Some(a),
            a => files.push(a),
        }
    }
    let pattern = pattern.ok_or_else(|| usage("grep", "missing pattern"))?;
    let re = Regex::compile(pattern)?;
    let mut text = String::new();
    if files.is_empty() {
        text.push_str(stdin);
    } else {
        for f in &files {
            let p = resolve(interp.cwd(), f);
            match interp.vfs().read(&p) {
                Ok(content) => text.push_str(content),
                // Like real grep: status 2 on a missing file, no shell abort
                // (Listing 2 relies on this to take its failure branch when
                // the application never wrote its log).
                Err(_) => {
                    return Ok((
                        if quiet {
                            String::new()
                        } else {
                            format!("grep: {f}: No such file or directory\n")
                        },
                        2,
                    ))
                }
            }
        }
    }
    let mut matched = 0usize;
    let mut out = String::new();
    for line in text.lines() {
        let hit = re.is_match(line) != invert;
        if hit {
            matched += 1;
            if !quiet && !count {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    if count {
        out = format!("{matched}\n");
    }
    Ok((out, if matched > 0 { 0 } else { 1 }))
}

fn awk(args: &[String], stdin: &str) -> Result<(String, i32), ShellError> {
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
    let mut field_indices = Vec::new();
    for tok in fields_spec.split([',', ' ']).filter(|t| !t.is_empty()) {
        let idx = tok
            .strip_prefix('$')
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| usage("awk", format!("unsupported print operand '{tok}'")))?;
        field_indices.push(idx);
    }
    if field_indices.is_empty() {
        field_indices.push(0);
    }
    let mut out = String::new();
    for line in stdin.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mut parts = Vec::new();
        for &idx in &field_indices {
            if idx == 0 {
                parts.push(line.to_string());
            } else {
                parts.push(fields.get(idx - 1).copied().unwrap_or("").to_string());
            }
        }
        out.push_str(&parts.join(" "));
        out.push('\n');
    }
    Ok((out, 0))
}

fn sed(
    interp: &mut Interpreter,
    args: &[String],
    stdin: &str,
) -> Result<(String, i32), ShellError> {
    let mut in_place = false;
    let mut script: Option<&str> = None;
    let mut file: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "-i" => in_place = true,
            a if script.is_none() => script = Some(a),
            a if file.is_none() => file = Some(a),
            a => return Err(usage("sed", format!("unexpected argument '{a}'"))),
        }
    }
    let script = script.ok_or_else(|| usage("sed", "missing s/// script"))?;
    let (pattern, replacement, global) = parse_substitution(script)?;
    let re = Regex::compile(&pattern)?;
    let apply = |text: &str| -> String {
        text.lines()
            .map(|line| {
                if global {
                    re.replace_all(line, &replacement)
                } else {
                    re.replace_first(line, &replacement)
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + if text.ends_with('\n') { "\n" } else { "" }
    };
    if in_place {
        let f = file.ok_or_else(|| usage("sed", "-i requires a file"))?;
        let path = resolve(interp.cwd(), f);
        let content = match interp.vfs().read(&path) {
            Ok(c) => c.to_string(),
            // Like real sed: status 2 on a missing file.
            Err(_) => {
                return Ok((
                    format!("sed: can't read {f}: No such file or directory\n"),
                    2,
                ))
            }
        };
        let updated = apply(&content);
        interp.vfs_mut().write(&path, updated);
        Ok((String::new(), 0))
    } else {
        let text = match file {
            Some(f) => interp.vfs().read(&resolve(interp.cwd(), f))?.to_string(),
            None => stdin.to_string(),
        };
        Ok((apply(&text), 0))
    }
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

fn wget(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let mut url: Option<&str> = None;
    let mut output: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
        None => Ok((format!("wget: unable to resolve '{url}'\n"), 8)),
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
            Ok((format!("'{filename}' saved\n"), 0))
        }
    }
}

fn module(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    match args.first().map(|s| s.as_str()) {
        Some("load") => {
            for m in &args[1..] {
                interp.modules.push(m.clone());
            }
            interp.charge(SimDuration::from_secs(3));
            Ok((String::new(), 0))
        }
        Some("purge") => {
            interp.modules.clear();
            Ok((String::new(), 0))
        }
        Some("list") => {
            let mut out = String::from("Currently Loaded Modules:\n");
            for (i, m) in interp.modules.iter().enumerate() {
                out.push_str(&format!("  {}) {}\n", i + 1, m));
            }
            Ok((out, 0))
        }
        _ => Err(usage("module", "expected 'load', 'purge' or 'list'")),
    }
}

fn source(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let path = args
        .first()
        .ok_or_else(|| usage("source", "missing file"))?;
    if path.starts_with("/cvmfs/") {
        // EESSI environment initialisation: takes a moment, always works.
        interp.charge(SimDuration::from_secs(10));
        return Ok((String::new(), 0));
    }
    let p = resolve(interp.cwd(), path);
    let content = interp.vfs().read(&p)?.to_string();
    let outcome = interp.run_script(&content)?;
    Ok((outcome.stdout, outcome.exit_code))
}

fn which(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let name = args.first().ok_or_else(|| usage("which", "missing name"))?;
    let known_builtin = [
        "echo", "cat", "grep", "awk", "sed", "wget", "cp", "mv", "rm", "mkdir", "mpirun",
        "mpiexec", "sleep", "module",
    ]
    .contains(&name.as_str());
    let known_app = interp.exec.registry.get_by_binary(name).is_some();
    if known_builtin || known_app {
        Ok((format!("/usr/bin/{name}\n"), 0))
    } else {
        Ok((String::new(), 1))
    }
}

fn sleep(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let secs: f64 = args
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| usage("sleep", "expected seconds"))?;
    interp.charge(SimDuration::from_secs_f64(secs));
    Ok((String::new(), 0))
}

fn test_cmd(
    interp: &mut Interpreter,
    name: &str,
    args: &[String],
) -> Result<(String, i32), ShellError> {
    // Strip the closing bracket of `[ … ]` / `[[ … ]]`.
    let mut args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
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
    let status = if result != negate { 0 } else { 1 };
    Ok((String::new(), status))
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
fn mpirun(interp: &mut Interpreter, args: &[String]) -> Result<(String, i32), ShellError> {
    let mut np: Option<u64> = None;
    let mut hostlist: Option<&str> = None;
    let mut binary: Option<&str> = None;
    let mut app_args: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-np" | "-n" | "--np" => {
                np = args.get(i + 1).and_then(|s| s.parse().ok());
                if np.is_none() {
                    return Err(usage("mpirun", "-np requires a number"));
                }
                i += 2;
            }
            "--host" | "-host" | "--hosts" => {
                hostlist = args.get(i + 1).map(|s| s.as_str());
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
    let registry = interp.exec.registry.clone();
    let Some(model) = registry.get_by_binary(binary) else {
        return Err(ShellError::AppError(format!(
            "unknown application binary '{binary}'"
        )));
    };

    // Layout: host list wins; fall back to NNODES/PPN environment.
    let (nodes, ppn) = if let Some(list) = hostlist {
        let entries: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
        if entries.is_empty() {
            return Err(usage("mpirun", "empty host list"));
        }
        let ppn = entries[0]
            .split(':')
            .nth(1)
            .and_then(|p| p.parse::<u32>().ok())
            .unwrap_or(1);
        (entries.len() as u32, ppn)
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

    let machine = interp.machine();
    let inputs = interp.exported_inputs();
    let seed = interp.exec.experiment_seed;
    match registry.run(model.name(), &machine, nodes, ppn, &inputs, seed) {
        Ok(run) => {
            // ~2 s of launcher overhead on top of the application time.
            interp.charge(SimDuration::from_secs(2) + run.wall_time);
            let log_path = resolve(interp.cwd(), model.log_file());
            interp.vfs_mut().write(&log_path, run.log.clone());
            // Real MPI apps echo their log to stdout as well; the trailing
            // HPCADVISORINFRA line stands in for the infrastructure
            // monitoring sidecar the paper's §III-F bottleneck optimizer
            // would deploy (CPU/memory/network utilization).
            let infra = format!(
                "HPCADVISORINFRA cpu={:.3} membw={:.3} net={:.3} bottleneck={}\n",
                run.engine.cpu_utilization,
                run.engine.membw_utilization,
                run.engine.network_utilization,
                run.engine.bottleneck.label()
            );
            Ok((format!("{}{}", run.log, infra), 0))
        }
        Err(e) => {
            // Failed launches still burn a little time and leave no log.
            interp.charge(SimDuration::from_secs(5));
            Ok((
                format!(
                    "--------------------------------------------------------------------------\n\
                     mpirun detected that one or more processes exited with non-zero status\n\
                     reason: {e}\n\
                     --------------------------------------------------------------------------\n"
                ),
                1,
            ))
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
        i.set_var("HOSTLIST_PPN", &hosts.join(","));
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
