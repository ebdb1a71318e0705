//! `hpcadvisor serve` — the advisor as a long-lived daemon — and
//! `hpcadvisor request`, its line-protocol client.
//!
//! The daemon listens on TCP and speaks the versioned NDJSON envelope
//! from [`hpcadvisor_formats::wire`]: one compact JSON frame per line in
//! each direction. Client frames:
//!
//! * `collect` — body `{tenant, config_yaml, seed, workers, request_key?}`:
//!   admit a full advisory run for `tenant` over the YAML config. The
//!   optional `request_key` makes the request idempotent: resubmitting the
//!   same key (after a dropped connection) attaches to the in-flight job
//!   instead of admitting a duplicate.
//! * `ping` — liveness probe; answered with `pong`.
//! * `shutdown` — stop the daemon. Body `{"mode": "force"}` skips the
//!   drain: queued jobs are refused and running jobs are abandoned to the
//!   journal, which replays them on the next start.
//!
//! Server frames (each echoes the request id):
//!
//! * `progress` — one live trace event (`run_start`, `scenario_start`,
//!   `scenario_end`, `cache_hit`, `run_end`) from the running collection.
//! * `hb` — keep-alive while a job computes without producing traffic, so
//!   client read deadlines don't fire mid-run.
//! * `result` — terminal: the dataset (embedded as a JSON string, so the
//!   bytes are exactly what a standalone CLI run writes), rendered advice,
//!   executor stats (including the cache hit/miss counters that make
//!   cross-tenant dedup observable) and the run's newly-provisioned cost.
//! * `error` — terminal: a typed refusal. The body carries a
//!   machine-readable [`ErrorCode`] (mapped exhaustively from
//!   `ServiceError` by [`hpcadvisor_core::ServiceError::wire_code`]), the
//!   human message, and a `retry_after_ms` hint when waiting can help.
//! * `pong` / `ok` — answers to `ping` / `shutdown`.
//!
//! All connections feed one [`AdvisorService`], so every tenant shares
//! the daemon's scenario cache: identical scenarios are simulated once.
//!
//! ## Hardening
//!
//! Connections carry deadlines: a peer that sends no frame for
//! `--io-timeout` seconds is reaped with a typed `idle_timeout` error, a
//! line that grows past [`MAX_FRAME_BYTES`] without a newline is refused
//! without ever being buffered whole, and accepts beyond `--max-conns`
//! are shed immediately with `overloaded` + a retry hint. With
//! `--state-dir` (defaulting into the work directory) the daemon journals
//! admissions and spend durably — kill it with SIGKILL mid-grid, restart
//! it on the same directory, and it replays the interrupted jobs before
//! announcing `serving on`, so a resubmitted request is served from cache
//! byte-identically with no double billing.

use crate::args::Args;
use crate::state::WorkDir;
use cloudsim::Fnv64;
use hpcadvisor_core::{
    AdviceRequest, AdvisorService, CachePolicy, JobEvent, JobOutcome, RetryPolicy, ServiceConfig,
    SharedScenarioCache, TenantPolicy, ToolError, UserConfig,
};
use hpcadvisor_formats::wire::{
    ErrorCode, Frame, MonotonicId, WireError, KIND_HEARTBEAT, MAX_FRAME_BYTES,
};
use hpcadvisor_formats::{OrderedMap, Value};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Out<'a> = &'a mut dyn Write;

fn wline(out: Out, text: &str) -> Result<(), ToolError> {
    writeln!(out, "{text}").map_err(ToolError::Io)
}

/// How the daemon is configured (all settable from `serve` flags).
pub struct ServeOptions {
    /// Worker threads draining the job queue.
    pub service_workers: usize,
    /// Bound of the job queue.
    pub queue_capacity: usize,
    /// Per-tenant admission limits.
    pub policy: TenantPolicy,
    /// The scenario cache every tenant shares.
    pub cache: SharedScenarioCache,
    /// Exit after serving this many `collect` requests (used by tests and
    /// smoke jobs to terminate without signals). `None` serves forever.
    pub max_requests: Option<usize>,
    /// Per-connection I/O deadline: a peer idle for this long between
    /// frames is reaped, and writes that stall this long fail the
    /// connection (`--io-timeout`).
    pub io_timeout: Duration,
    /// Connections beyond this bound are shed at accept with a typed
    /// `overloaded` refusal (`--max-conns`).
    pub max_conns: usize,
    /// Durable service state (admission journal, per-job run journals).
    /// `None` keeps admission state in memory only.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            service_workers: 2,
            queue_capacity: 16,
            policy: TenantPolicy::default(),
            cache: SharedScenarioCache::in_memory(),
            max_requests: None,
            io_timeout: Duration::from_secs(30),
            max_conns: 64,
            state_dir: None,
        }
    }
}

fn parse_usize(args: &Args, name: &str) -> Result<Option<usize>, ToolError> {
    args.option(name)
        .map(|v| {
            v.parse()
                .map_err(|_| ToolError::Config(format!("--{name} must be a number, got '{v}'")))
        })
        .transpose()
}

/// Parses a `--flag <seconds>` duration, rejecting non-finite, negative
/// and zero values with a clear message (the same discipline `--deadline`
/// and `--budget` follow).
fn parse_secs(args: &Args, name: &str) -> Result<Option<Duration>, ToolError> {
    let Some(v) = args.option(name) else {
        return Ok(None);
    };
    let secs: f64 = v
        .parse()
        .map_err(|_| ToolError::Config(format!("--{name} must be seconds, got '{v}'")))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(ToolError::Config(format!(
            "--{name} must be a positive number of seconds, got '{v}'"
        )));
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// The `serve` command: bind, announce, and run the accept loop.
pub fn serve_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let mut opts = ServeOptions::default();
    if let Some(n) = parse_usize(args, "service-workers")? {
        opts.service_workers = n.max(1);
    }
    if let Some(n) = parse_usize(args, "queue")? {
        opts.queue_capacity = n.max(1);
    }
    if let Some(n) = parse_usize(args, "tenant-jobs")? {
        opts.policy.max_inflight = n.max(1);
    }
    if let Some(v) = args.option("tenant-budget") {
        let dollars: f64 = v.parse().map_err(|_| {
            ToolError::Config(format!("--tenant-budget must be US dollars, got '{v}'"))
        })?;
        if !dollars.is_finite() || dollars < 0.0 {
            return Err(ToolError::Config(format!(
                "--tenant-budget must be non-negative US dollars, got '{v}'"
            )));
        }
        opts.policy.budget_dollars = Some(dollars);
    }
    if let Some(n) = parse_usize(args, "tenant-grid")? {
        opts.policy.max_scenarios = Some(n);
    }
    opts.max_requests = parse_usize(args, "max-requests")?;
    if let Some(t) = parse_secs(args, "io-timeout")? {
        opts.io_timeout = t;
    }
    if let Some(n) = parse_usize(args, "max-conns")? {
        opts.max_conns = n.max(1);
    }
    // The daemon's cache persists in the work directory (or --cache-dir),
    // exactly where standalone `collect` runs look — warm starts carry over.
    let cache_path = match args.option("cache-dir") {
        Some(dir) => std::path::Path::new(dir).join("scenario-cache.json"),
        None => workdir.cache_file(),
    };
    opts.cache = SharedScenarioCache::open(&cache_path);
    // Durable admission state lives next to the cache by default, so a
    // restart on the same work directory recovers both.
    opts.state_dir = Some(match args.option("state-dir") {
        Some(dir) => PathBuf::from(dir),
        None => workdir.service_dir(),
    });
    let listen = args.option("listen").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(listen)
        .map_err(|e| ToolError::Config(format!("cannot listen on {listen}: {e}")))?;
    serve_on(listener, opts, out)
}

/// Runs the daemon on an already-bound listener until a `shutdown` frame
/// arrives or `max_requests` collect requests have been served. Replays
/// journal-recovered jobs first, then announces the bound address on
/// `out` — so by the time callers see `serving on`, the cache already
/// holds every interrupted job's results and resubmissions hit it.
pub fn serve_on(listener: TcpListener, opts: ServeOptions, out: Out) -> Result<(), ToolError> {
    let addr = listener.local_addr().map_err(ToolError::Io)?;
    let service = Arc::new(AdvisorService::start(ServiceConfig {
        workers: opts.service_workers,
        queue_capacity: opts.queue_capacity,
        policy: opts.policy,
        cache: opts.cache,
        cache_policy: CachePolicy::default(),
        state_dir: opts.state_dir,
    }));
    if service.recovered_jobs() > 0 {
        wline(
            out,
            &format!(
                "recovering {} interrupted job(s) from the service journal",
                service.recovered_jobs()
            ),
        )?;
        let finished = service.await_recovery();
        wline(out, &format!("recovery complete: {finished} job(s) served"))?;
    }
    wline(out, &format!("serving on {addr}"))?;
    let life = Arc::new(Lifecycle {
        stop: AtomicBool::new(false),
        served: AtomicUsize::new(0),
        max_requests: opts.max_requests,
        wake_addr: reachable(addr),
    });
    let io_timeout = opts.io_timeout;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !life.done() {
        let (stream, _) = listener.accept().map_err(ToolError::Io)?;
        // The connection that ends the daemon wakes this accept; it (and
        // anything that raced it in) is dropped unserved.
        if life.done() {
            break;
        }
        connections.retain(|c| !c.is_finished());
        if connections.len() >= opts.max_conns {
            shed_connection(stream, io_timeout);
            continue;
        }
        let service = service.clone();
        let life = life.clone();
        connections.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &service, &life, io_timeout);
        }));
    }
    // Graceful drain: finish open conversations, then let the service run
    // every admitted job to completion before persisting the cache. After
    // a forced shutdown the workers are already detached, so this path
    // returns promptly and the journal covers whatever was cut off.
    life.stop.store(true, Ordering::SeqCst);
    for c in connections {
        let _ = c.join();
    }
    let n = life.served.load(Ordering::SeqCst);
    let service = match Arc::try_unwrap(service) {
        Ok(service) => service,
        Err(arc) => {
            drop(arc); // Drop drains the queue too.
            wline(out, &format!("served {n} requests; shut down"))?;
            return Ok(());
        }
    };
    let cache = service.cache();
    service.shutdown();
    cache.save()?;
    wline(out, &format!("served {n} requests; shut down"))
}

/// How long a wake connection may take to reach the daemon's own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// When the daemon ends, shared by the accept loop and every connection.
/// The loop blocks in `accept`, so whoever ends the daemon also wakes it
/// with one connection of its own.
struct Lifecycle {
    /// Set by a `shutdown` frame, and by the loop once it stops accepting.
    stop: AtomicBool,
    /// `collect` requests answered so far.
    served: AtomicUsize,
    max_requests: Option<usize>,
    /// The listener's address as a local client reaches it.
    wake_addr: SocketAddr,
}

impl Lifecycle {
    fn done(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
            || self
                .max_requests
                .is_some_and(|max| self.served.load(Ordering::SeqCst) >= max)
    }

    /// Stops the daemon (a `shutdown` frame) and wakes the accept loop.
    fn shut_down(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Counts one answered `collect`; the one that reaches `max_requests`
    /// wakes the accept loop, whether or not its client hangs up.
    fn count_served(&self) {
        let n = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        if Some(n) == self.max_requests {
            self.wake();
        }
    }

    /// Best-effort: a failed wake leaves the loop to the next connection.
    fn wake(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// `addr` with an unspecified IP (`0.0.0.0`, `[::]`) replaced by loopback
/// of the same family, so the daemon can connect to its own listener.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Refuses one over-limit connection with a typed `overloaded` frame.
/// Best-effort: a peer that cannot even take the refusal is just dropped.
fn shed_connection(mut stream: TcpStream, io_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(io_timeout));
    let frame = Frame::error(
        0,
        ErrorCode::Overloaded,
        "connection limit reached; retry later",
        Some(500),
    );
    let _ = send(&mut stream, &frame);
}

/// One step of bounded line reading.
enum LineStep {
    /// A complete line (without its newline).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// No bytes arrived within the poll timeout.
    Quiet,
    /// Bytes arrived but the line is not complete yet.
    Partial,
    /// The line exceeded [`MAX_FRAME_BYTES`] before its newline.
    TooLong,
    /// Hard I/O failure.
    Failed,
}

/// Polls one chunk of a line out of `reader` into `buf`, never letting
/// `buf` grow past the frame limit — the reader-side defense against a
/// peer streaming an endless line to balloon memory.
fn read_line_step(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> LineStep {
    match reader.fill_buf() {
        Ok([]) => LineStep::Eof,
        Ok(chunk) => {
            if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                if buf.len() > MAX_FRAME_BYTES {
                    return LineStep::TooLong;
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                LineStep::Line(line)
            } else {
                let n = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(n);
                if buf.len() > MAX_FRAME_BYTES {
                    LineStep::TooLong
                } else {
                    LineStep::Partial
                }
            }
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            LineStep::Quiet
        }
        Err(_) => LineStep::Failed,
    }
}

/// One client conversation: frames in, frames out, until EOF, shutdown,
/// the idle deadline, or an oversized line.
fn handle_connection(
    stream: TcpStream,
    service: &AdvisorService,
    life: &Lifecycle,
    io_timeout: Duration,
) -> std::io::Result<()> {
    // Short poll so a quiet client still notices shutdown promptly; the
    // real deadline is io_timeout, tracked across polls.
    let poll = Duration::from_millis(200).min(io_timeout);
    stream.set_read_timeout(Some(poll))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut last_activity = Instant::now();
    loop {
        let line = loop {
            match read_line_step(&mut reader, &mut buf) {
                LineStep::Line(line) => break line,
                LineStep::Eof | LineStep::Failed => return Ok(()),
                LineStep::Partial => last_activity = Instant::now(),
                LineStep::Quiet => {
                    if life.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    if last_activity.elapsed() >= io_timeout {
                        let frame = Frame::error(
                            0,
                            ErrorCode::IdleTimeout,
                            &format!(
                                "connection idle for {:.1}s; reaped",
                                io_timeout.as_secs_f64()
                            ),
                            None,
                        );
                        let _ = send(&mut writer, &frame);
                        return Ok(());
                    }
                }
                LineStep::TooLong => {
                    let frame = Frame::error(
                        0,
                        ErrorCode::BadFrame,
                        &format!("frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
                        None,
                    );
                    let _ = send(&mut writer, &frame);
                    return Ok(());
                }
            }
        };
        last_activity = Instant::now();
        if line.trim().is_empty() {
            continue;
        }
        let frame = match Frame::decode(line.trim_end_matches(['\r', '\n'])) {
            Ok(f) => f,
            Err(e) => {
                send(
                    &mut writer,
                    &Frame::error(0, ErrorCode::BadFrame, &format!("bad frame: {e}"), None),
                )?;
                continue;
            }
        };
        match frame.kind.as_str() {
            "ping" => send(&mut writer, &Frame::new(frame.id, "pong", Value::Null))?,
            "shutdown" => {
                let force = frame
                    .body
                    .as_map()
                    .and_then(|m| m.get("mode"))
                    .and_then(Value::as_str)
                    == Some("force");
                send(&mut writer, &Frame::new(frame.id, "ok", Value::Null))?;
                if force {
                    // Abandon running jobs to the journal; the next start
                    // on this state dir replays them.
                    service.shutdown_now();
                }
                life.shut_down();
                return Ok(());
            }
            "collect" => {
                serve_collect(frame, service, &mut writer, io_timeout)?;
                life.count_served();
            }
            other => send(
                &mut writer,
                &Frame::error(
                    frame.id,
                    ErrorCode::UnknownKind,
                    &format!("unknown frame kind '{other}'"),
                    None,
                ),
            )?,
        }
    }
}

/// Admits one `collect` frame and streams its progress and terminal
/// frame, heartbeating whenever the job computes silently for longer than
/// half the I/O deadline.
fn serve_collect(
    frame: Frame,
    service: &AdvisorService,
    writer: &mut TcpStream,
    io_timeout: Duration,
) -> std::io::Result<()> {
    let id = frame.id;
    let request = match parse_collect_body(&frame.body) {
        Ok(r) => r,
        Err(m) => return send(writer, &Frame::error(id, ErrorCode::BadRequest, &m, None)),
    };
    let handle = match service.submit(request) {
        Ok(h) => h,
        Err(e) => {
            return send(
                writer,
                &Frame::error(id, e.wire_code(), &e.to_string(), e.retry_after_ms()),
            )
        }
    };
    let heartbeat_every = (io_timeout / 2).max(Duration::from_millis(25));
    loop {
        match handle.events().recv_timeout(heartbeat_every) {
            Ok(JobEvent::Progress(ev)) => {
                // The event's canonical JSON line is the frame body as it is.
                let line = Frame::encode_with_body(id, "progress", &ev.to_line());
                write_line(writer, line)?;
            }
            Ok(JobEvent::Finished(outcome)) => {
                return send(writer, &Frame::new(id, "result", result_body(&outcome)));
            }
            Ok(JobEvent::Failed(m)) => {
                return send(writer, &Frame::error(id, ErrorCode::JobFailed, &m, None));
            }
            Err(RecvTimeoutError::Timeout) => {
                // Keep the client's read deadline from firing mid-compute.
                send(writer, &Frame::heartbeat(id))?;
            }
            Err(RecvTimeoutError::Disconnected) => {
                return send(
                    writer,
                    &Frame::error(id, ErrorCode::Internal, "job ended without a result", None),
                );
            }
        }
    }
}

fn parse_collect_body(body: &Value) -> Result<AdviceRequest, String> {
    let map = body.as_map().ok_or("collect body must be an object")?;
    let yaml = map
        .get("config_yaml")
        .and_then(Value::as_str)
        .ok_or("collect body missing string 'config_yaml'")?;
    let config = UserConfig::from_yaml(yaml).map_err(|e| format!("bad config: {e}"))?;
    let tenant = map
        .get("tenant")
        .and_then(Value::as_str)
        .unwrap_or("default");
    let mut request = AdviceRequest::new(tenant, config, 42);
    if let Some(seed) = map.get("seed").and_then(Value::as_int) {
        request.seed = seed as u64;
    }
    if let Some(workers) = map.get("workers").and_then(Value::as_int) {
        request.workers = (workers.max(1)) as usize;
    }
    if let Some(key) = map.get("request_key").and_then(Value::as_str) {
        request.request_key = Some(key.to_string());
    }
    Ok(request)
}

fn result_body(outcome: &JobOutcome) -> Value {
    let mut stats = OrderedMap::new();
    stats.insert("completed", Value::Int(outcome.stats.completed as i64));
    stats.insert("failed", Value::Int(outcome.stats.failed as i64));
    stats.insert("skipped", Value::Int(outcome.stats.skipped as i64));
    stats.insert("executed", Value::Int(outcome.stats.executed as i64));
    stats.insert("cache_hits", Value::Int(outcome.stats.cache_hits as i64));
    stats.insert(
        "cache_misses",
        Value::Int(outcome.stats.cache_misses as i64),
    );
    let mut body = OrderedMap::new();
    body.insert("job", Value::Int(outcome.job_id as i64));
    body.insert("tenant", Value::str(&outcome.tenant));
    // Embedded as a string so the dataset bytes survive the wire exactly.
    body.insert("dataset_json", Value::str(&outcome.dataset_json));
    body.insert("advice", Value::str(&outcome.advice_text));
    body.insert("stats", Value::Map(stats));
    body.insert("cost_dollars", Value::Float(outcome.run_cost_dollars));
    Value::Map(body)
}

/// Writes one frame and its newline in a single write, so a frame never
/// leaves as two segments.
fn send(writer: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    write_line(writer, frame.encode_checked())
}

/// Writes one encoded frame and its newline.
fn write_line(writer: &mut TcpStream, line: Result<String, WireError>) -> std::io::Result<()> {
    let mut line = line.map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// 64-bit FNV-1a, for deriving default request keys and jitter seeds.
fn fnv64(text: &str) -> u64 {
    Fnv64::new().write(text.as_bytes()).finish()
}

/// How one client attempt ended.
enum Attempt {
    /// Terminal success; the command is done.
    Done,
    /// Worth retrying after a backoff: dropped connections, read
    /// timeouts, and refusals whose [`ErrorCode::retryable`] says load
    /// will clear.
    Retry {
        why: String,
        retry_after: Option<Duration>,
    },
    /// Retrying cannot help (bad config, budget exhausted, job failed).
    Fatal(ToolError),
}

/// The `request` command: a retrying client for the daemon.
///
/// Every attempt reuses the same idempotent `request_key` (derived from
/// tenant/seed/config unless `--request-key` pins it) under a fresh
/// monotonic frame id, so a reconnect after a dropped connection attaches
/// to the in-flight job — or, post-crash, is re-served from the cache —
/// instead of being billed twice. Backoff between attempts follows the
/// collection layer's deterministic [`RetryPolicy`] (exponential, seeded
/// jitter), honoring the daemon's `retry_after_ms` hints when present.
pub fn request_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let addr = args
        .option("connect")
        .ok_or_else(|| ToolError::Config("request requires --connect <host:port>".into()))?;
    if args.has("shutdown") {
        return shutdown_daemon(addr, args.has("force"), out);
    }
    let config_text = match args.option("config") {
        Some(path) => std::fs::read_to_string(path)?,
        None => {
            let path = workdir.root().join("config.yaml");
            std::fs::read_to_string(&path).map_err(|_| {
                ToolError::Config(
                    "request requires -c <config.yaml> (no config in the work directory)".into(),
                )
            })?
        }
    };
    // Validate locally before bothering the daemon.
    UserConfig::from_yaml(&config_text)?;
    let tenant = args.option("tenant").unwrap_or("default");
    let workers = parse_usize(args, "workers")?.unwrap_or(1);
    let seed = args.seed()?;
    let timeout = parse_secs(args, "timeout")?.unwrap_or(Duration::from_secs(30));
    let retries = parse_usize(args, "retries")?.unwrap_or(5);
    // The idempotency key: stable across attempts and restarts for the
    // same request, so resubmission can never double-bill.
    let request_key = match args.option("request-key") {
        Some(k) => k.to_string(),
        None => format!(
            "req-{:016x}",
            fnv64(&format!("{tenant}\u{0}{seed}\u{0}{config_text}"))
        ),
    };
    let policy = RetryPolicy {
        max_attempts: (retries as u32).saturating_add(1).max(1),
        base_backoff_secs: 0.05,
        max_backoff_secs: 1.0,
        jitter_seed: fnv64(&request_key),
    };
    let ids = MonotonicId::new();

    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let outcome = request_once(
            addr,
            tenant,
            &config_text,
            seed,
            workers,
            &request_key,
            ids.next(),
            timeout,
            args,
            out,
        );
        let (why, retry_after) = match outcome {
            Ok(Attempt::Done) => return Ok(()),
            Ok(Attempt::Fatal(e)) => return Err(e),
            Ok(Attempt::Retry { why, retry_after }) => (why, retry_after),
            Err(e) => return Err(e),
        };
        if attempt >= policy.max_attempts {
            return Err(ToolError::Config(format!(
                "request failed after {attempt} attempt(s): {why}"
            )));
        }
        let backoff = retry_after
            .unwrap_or_else(|| Duration::from_secs_f64(policy.backoff_secs("request", attempt)));
        wline(
            out,
            &format!(
                "attempt {attempt} failed ({why}); retrying in {:.2}s",
                backoff.as_secs_f64()
            ),
        )?;
        std::thread::sleep(backoff.min(Duration::from_secs(2)));
    }
}

/// One connect-send-stream attempt. I/O failures and retryable refusals
/// come back as [`Attempt::Retry`]; only local problems (unwritable
/// `--out`) surface as hard `Err`.
#[allow(clippy::too_many_arguments)]
fn request_once(
    addr: &str,
    tenant: &str,
    config_text: &str,
    seed: u64,
    workers: usize,
    request_key: &str,
    frame_id: i64,
    timeout: Duration,
    args: &Args,
    out: Out,
) -> Result<Attempt, ToolError> {
    let mut body = OrderedMap::new();
    body.insert("tenant", Value::str(tenant));
    body.insert("config_yaml", Value::str(config_text));
    body.insert("seed", Value::Int(seed as i64));
    body.insert("workers", Value::Int(workers as i64));
    body.insert("request_key", Value::str(request_key));
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            return Ok(Attempt::Retry {
                why: format!("cannot connect to {addr}: {e}"),
                retry_after: None,
            })
        }
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return Ok(Attempt::Retry {
            why: "cannot arm socket deadlines".into(),
            retry_after: None,
        });
    }
    let request = Frame::new(frame_id, "collect", Value::Map(body));
    if let Err(e) = send(&mut stream, &request) {
        return Ok(Attempt::Retry {
            why: format!("send failed: {e}"),
            retry_after: None,
        });
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            return Ok(Attempt::Retry {
                why: format!("socket clone failed: {e}"),
                retry_after: None,
            })
        }
    });
    let mut line = String::new();
    loop {
        line.clear();
        let n = match reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Attempt::Retry {
                    why: format!(
                        "no frame from the daemon within {:.1}s",
                        timeout.as_secs_f64()
                    ),
                    retry_after: None,
                });
            }
            Err(e) => {
                return Ok(Attempt::Retry {
                    why: format!("read failed: {e}"),
                    retry_after: None,
                })
            }
        };
        if n == 0 {
            return Ok(Attempt::Retry {
                why: "daemon closed the connection without a result".into(),
                retry_after: None,
            });
        }
        if !line.ends_with('\n') {
            // EOF mid-frame: the connection was cut, not the protocol broken.
            return Ok(Attempt::Retry {
                why: "connection cut mid-frame".into(),
                retry_after: None,
            });
        }
        if line.trim().is_empty() {
            continue;
        }
        let frame = match Frame::decode(line.trim_end_matches(['\r', '\n'])) {
            Ok(f) => f,
            Err(e) => {
                return Ok(Attempt::Fatal(ToolError::Config(format!(
                    "bad frame from daemon: {e}"
                ))))
            }
        };
        match frame.kind.as_str() {
            KIND_HEARTBEAT => continue, // Read deadline restarts with the next read.
            "progress" => {
                let map = frame.body.as_map();
                let kind = map
                    .and_then(|m| m.get("kind"))
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let scope = map
                    .and_then(|m| m.get("scope"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                wline(out, &format!("progress: {kind} {scope}"))?;
            }
            "result" => {
                print_result(&frame, args, out)?;
                return Ok(Attempt::Done);
            }
            "error" => {
                let message = frame
                    .error_message()
                    .unwrap_or("unknown daemon error")
                    .to_string();
                let code = frame.error_code();
                if code.is_some_and(ErrorCode::retryable) {
                    return Ok(Attempt::Retry {
                        why: format!("daemon refused ({}): {message}", code.unwrap()),
                        retry_after: frame.retry_after_ms().map(Duration::from_millis),
                    });
                }
                let label = code.map(|c| format!(" [{c}]")).unwrap_or_default();
                return Ok(Attempt::Fatal(ToolError::Config(format!(
                    "daemon{label}: {message}"
                ))));
            }
            other => {
                return Ok(Attempt::Fatal(ToolError::Config(format!(
                    "unexpected frame kind '{other}' from daemon"
                ))))
            }
        }
    }
}

/// Renders a `result` frame: stats line, spend line, optional dataset
/// file, advice text.
fn print_result(frame: &Frame, args: &Args, out: Out) -> Result<(), ToolError> {
    let map = frame
        .body
        .as_map()
        .ok_or_else(|| ToolError::Config("result body must be an object".into()))?;
    if let Some(stats) = map.get("stats").and_then(Value::as_map) {
        let get = |k: &str| stats.get(k).and_then(Value::as_int).unwrap_or(0);
        wline(
            out,
            &format!(
                "collected {} completed, {} failed; cache {} hits / {} misses",
                get("completed"),
                get("failed"),
                get("cache_hits"),
                get("cache_misses"),
            ),
        )?;
    }
    if let Some(cost) = map.get("cost_dollars").and_then(Value::as_f64) {
        wline(
            out,
            &format!("cloud spend this request: ${:.2}", cost + 0.0),
        )?;
    }
    if let Some(ds) = map.get("dataset_json").and_then(Value::as_str) {
        if let Some(path) = args.option("out") {
            std::fs::write(path, ds)?;
            wline(out, &format!("wrote dataset to {path}"))?;
        }
    }
    if let Some(advice) = map.get("advice").and_then(Value::as_str) {
        wline(out, advice.trim_end())?;
    }
    Ok(())
}

/// Sends one `shutdown` frame (`--force` skips the drain) and waits for
/// the acknowledgement.
fn shutdown_daemon(addr: &str, force: bool, out: Out) -> Result<(), ToolError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ToolError::Config(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(ToolError::Io)?;
    let body = if force {
        let mut m = OrderedMap::new();
        m.insert("mode", Value::str("force"));
        Value::Map(m)
    } else {
        Value::Null
    };
    send(&mut stream, &Frame::new(1, "shutdown", body)).map_err(ToolError::Io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(ToolError::Io)?;
    let frame = Frame::decode(line.trim_end_matches(['\r', '\n']))
        .map_err(|e| ToolError::Config(format!("bad frame from daemon: {e}")))?;
    if frame.kind != "ok" {
        return Err(ToolError::Config(format!(
            "daemon answered shutdown with '{}'",
            frame.kind
        )));
    }
    wline(
        out,
        if force {
            "daemon shutting down (forced; journal will replay interrupted jobs)"
        } else {
            "daemon shutting down (graceful drain)"
        },
    )
}
