//! The `serve_tenants` workload: the advisor daemon under two closed-loop
//! tenants.
//!
//! One rep is a daemon round: start a daemon process running `serve_on` on
//! 127.0.0.1:0 with a fresh state directory and cache store (set-up ends at
//! the first `pong`), let two clients in this process send the round's
//! requests — each on a fresh connection, as `hpcadvisor request` does, and
//! each only after its previous reply arrived — then shut the daemon down
//! gracefully. Every round replays the same seeded request sequence against
//! an empty cache, so rounds are alike and their latencies can be pooled.

use crate::breakdown::{self, Layers};
use crate::probes::{self, store_bytes};
use crate::report::{fnv1a, peak_rss_mib, Outcome};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{serve_requests, serve_round_len, ServeRequest};
use crate::Run;
use hpcadvisor_cli::serve::{serve_on, ServeOptions};
use hpcadvisor_core::{CollectPlan, Dataset, Scenario, Session, SharedScenarioCache, UserConfig};
use hpcadvisor_formats::wire::Frame;
use hpcadvisor_formats::{OrderedMap, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Every `CHECK_EVERY`-th request's dataset is compared byte for byte with
/// a standalone collect of the same config and seed.
const CHECK_EVERY: usize = 50;
/// Client read deadline; a reply slower than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one request saw.
struct Reply {
    index: usize,
    latency_s: f64,
    first_frame_s: f64,
    frames: usize,
    bytes: usize,
    decode_us: Vec<f64>,
    /// The result frame's content, or why the request failed.
    result: Result<Answer, String>,
}

/// The parts of a `result` frame the benchmark checks and counts.
struct Answer {
    completed: i64,
    cache_hits: i64,
    cache_misses: i64,
    /// The dataset JSON, kept for checked requests only.
    dataset: Option<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn send(stream: &mut TcpStream, frame: &Frame) -> Result<(), String> {
    let mut line = frame.encode();
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(err)
}

/// Sends one control frame on a fresh connection and returns the reply's
/// kind.
fn control(addr: SocketAddr, kind: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    send(&mut stream, &Frame::new(1, kind, Value::Null))?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(err)?;
    let frame = Frame::decode(line.trim_end()).map_err(err)?;
    Ok(frame.kind)
}

fn stat(stats: Option<&OrderedMap>, key: &str) -> i64 {
    stats
        .and_then(|m| m.get(key))
        .and_then(Value::as_int)
        .unwrap_or(0)
}

/// One `collect` request on its own connection, read until its terminal
/// frame.
fn request(
    run: &Run,
    addr: SocketAddr,
    round: u64,
    index: usize,
    req: &ServeRequest,
    yaml: &str,
    parent: Option<usize>,
) -> Reply {
    let group = round * 100_000 + index as u64;
    let span = run.rec.enter("serve.request", parent, group);
    let first_span = run.rec.enter("serve.first_frame", span, group);
    let start = Instant::now();
    let mut reply = Reply {
        index,
        latency_s: 0.0,
        first_frame_s: 0.0,
        frames: 0,
        bytes: 0,
        decode_us: Vec::new(),
        result: Err("no reply".into()),
    };
    let mut body = OrderedMap::new();
    body.insert("tenant", Value::str(&req.tenant));
    body.insert("config_yaml", Value::str(yaml));
    body.insert("seed", Value::Int(run.seed as i64));
    body.insert("workers", Value::Int(1));
    body.insert("request_key", Value::str(format!("bench-{round}-{index}")));
    let frame = Frame::new(index as i64 + 1, "collect", Value::Map(body));
    reply.result = exchange(run, addr, &frame, start, first_span, &mut reply);
    reply.latency_s = start.elapsed().as_secs_f64();
    if reply.frames == 0 {
        run.rec.exit(first_span);
    }
    run.rec.exit(span);
    reply
}

/// Sends `frame` on a fresh connection and reads frames until the
/// terminal one, filling in `reply`'s wire counters.
fn exchange(
    run: &Run,
    addr: SocketAddr,
    frame: &Frame,
    start: Instant,
    first_span: Option<usize>,
    reply: &mut Reply,
) -> Result<Answer, String> {
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    send(&mut stream, frame)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(err)?;
        if n == 0 {
            return Err("connection closed before the result".into());
        }
        if reply.frames == 0 {
            reply.first_frame_s = start.elapsed().as_secs_f64();
            run.rec.exit(first_span);
        }
        reply.frames += 1;
        reply.bytes += n;
        let t = Instant::now();
        let frame = Frame::decode(line.trim_end()).map_err(err)?;
        // Per-frame samples only in the traced run: kept for every frame of
        // every request they would grow the very peak RSS the untraced run
        // reports.
        if run.trace() {
            reply.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        match frame.kind.as_str() {
            "result" => {
                let map = frame.body.as_map().ok_or("result body is not an object")?;
                let stats = map.get("stats").and_then(Value::as_map);
                let dataset = reply
                    .index
                    .is_multiple_of(CHECK_EVERY)
                    .then(|| map.get("dataset_json").and_then(Value::as_str))
                    .flatten()
                    .map(str::to_string);
                return Ok(Answer {
                    completed: stat(stats, "completed") - stat(stats, "failed"),
                    cache_hits: stat(stats, "cache_hits"),
                    cache_misses: stat(stats, "cache_misses"),
                    dataset,
                });
            }
            "error" => {
                return Err(format!(
                    "refused: {}",
                    frame.error_message().unwrap_or("no message")
                ))
            }
            _ => {}
        }
    }
}

/// What one daemon round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    replies: Vec<Reply>,
    store_bytes: u64,
    /// The daemon process's peak RSS.
    daemon_rss_mib: f64,
}

/// The line a daemon process ends with: its own peak RSS in MiB.
const DAEMON_RSS: &str = "daemon peak_rss_mib";

/// The daemon side of a round, run as its own process
/// (`perfbench --daemon <dir>`): serve on 127.0.0.1:0 with a state
/// directory and a cache store under `dir` until a `shutdown` frame, then
/// print the process's peak RSS. A fresh process per round is what an
/// operator starts, and keeps one round's allocator state out of the next
/// round's memory.
pub fn daemon_main(dir: &Path) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let opts = ServeOptions {
        service_workers: 2,
        cache: SharedScenarioCache::open(dir.join("cache").join("scenario-cache.json")),
        state_dir: Some(dir.join("service")),
        ..ServeOptions::default()
    };
    // Line-buffered, so "serving on <addr>" reaches the parent at once.
    let mut stdout = std::io::stdout();
    serve_on(listener, opts, &mut stdout).map_err(err)?;
    writeln!(stdout, "{DAEMON_RSS} {}", peak_rss_mib()?).map_err(err)
}

/// A round's daemon process; killed and reaped if the round ends early.
struct Daemon {
    child: Child,
    lines: std::io::Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(err)?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon process: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Daemon {
            child,
            lines: BufReader::new(stdout).lines(),
        })
    }

    fn next_line(&mut self) -> Result<String, String> {
        self.lines
            .next()
            .ok_or("the daemon process exited early")?
            .map_err(err)
    }

    /// Reads the daemon's output to its end and waits for it to exit;
    /// returns its peak RSS.
    fn finish(mut self) -> Result<f64, String> {
        let mut rss = None;
        let mut served = false;
        for line in self.lines.by_ref() {
            let line = line.map_err(err)?;
            served |= line.starts_with("served ");
            if let Some(v) = line.strip_prefix(DAEMON_RSS) {
                rss = v.trim().parse().ok();
            }
        }
        let status = self.child.wait().map_err(err)?;
        if !status.success() || !served {
            return Err(format!(
                "the daemon process did not shut down cleanly: {status}"
            ));
        }
        rss.ok_or_else(|| "the daemon process did not report its peak RSS".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn round(
    run: &Run,
    round: u64,
    requests: &[ServeRequest],
    yaml: &[String],
) -> Result<Round, String> {
    let dir = run.dir.join(format!("round-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    let root = run.rec.enter("serve.round", None, round);
    let start_span = run.rec.enter("serve.start", root, round);
    let t0 = Instant::now();
    let mut daemon = Daemon::start(&dir)?;
    let announce = daemon.next_line()?;
    let addr: SocketAddr = announce
        .strip_prefix("serving on ")
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("unexpected daemon announcement: {announce}"))?;
    let pong = control(addr, "ping")?;
    let setup_s = t0.elapsed().as_secs_f64();
    run.rec.exit(start_span);
    if pong != "pong" {
        return Err(format!("daemon answered ping with '{pong}'"));
    }

    let t1 = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|client| {
                scope.spawn(move || {
                    (client..requests.len())
                        .step_by(2)
                        .map(|i| request(run, addr, round, i, &requests[i], &yaml[i], root))
                        .collect::<Vec<Reply>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t1.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.index);

    let ack = control(addr, "shutdown")?;
    if ack != "ok" {
        return Err(format!("daemon answered shutdown with '{ack}'"));
    }
    let daemon_rss_mib = daemon.finish()?;
    run.rec.exit(root);
    let store = store_bytes(&dir.join("cache").join("scenario-cache.json"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Round {
        setup_s,
        wall_s,
        replies,
        store_bytes: store,
        daemon_rss_mib,
    })
}

/// A standalone collect of `yaml`, as a user without the daemon runs it:
/// the grid's scenarios and the dataset.
fn standalone(yaml: &str, seed: u64) -> Result<(Vec<Scenario>, Dataset), String> {
    let config = UserConfig::from_yaml(yaml).map_err(err)?;
    let mut session = Session::create(config, seed).map_err(err)?;
    let report = session.collect_with(&CollectPlan::new()).map_err(err)?;
    Ok((session.scenarios().to_vec(), report.dataset))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let requests = serve_requests(run.seed, serve_round_len(run.size));
    let yaml: Vec<String> = requests.iter().map(|r| r.config().to_yaml()).collect();
    let mut out = Outcome::default();
    let (mut setup, mut latency, mut first, mut rest) = (vec![], vec![], vec![], vec![]);
    let mut rss = vec![];
    let (mut frames, mut bytes, mut decode, mut rate) = (vec![], vec![], vec![], vec![]);
    let (mut hits, mut misses, mut refusals, mut store) = (0i64, 0i64, 0u64, 0u64);
    // First answer seen for each checked request, compared across rounds.
    let mut checked: Vec<(usize, String)> = Vec::new();

    let reps = run.reps(|n, timed| {
        let r = round(run, n, &requests, &yaml)?;
        let mut scenarios = 0i64;
        for reply in &r.replies {
            match &reply.result {
                Ok(answer) => {
                    let expected = requests[reply.index].scenarios() as i64;
                    out.check(answer.completed == expected, || {
                        format!(
                            "request {}: {} of {expected} scenarios completed",
                            reply.index, answer.completed
                        )
                    });
                    scenarios += answer.completed;
                    if timed {
                        hits += answer.cache_hits;
                        misses += answer.cache_misses;
                    }
                    if let Some(json) = &answer.dataset {
                        match checked.iter().find(|(i, _)| *i == reply.index) {
                            Some((_, prev)) => out.check(prev == json, || {
                                format!("request {}: dataset differs across rounds", reply.index)
                            }),
                            None => checked.push((reply.index, json.clone())),
                        }
                    }
                }
                Err(e) => {
                    if timed {
                        refusals += u64::from(e.starts_with("refused"));
                        out.failed += 1;
                    }
                    out.mismatches.push(format!("request {}: {e}", reply.index));
                }
            }
        }
        out.check(r.replies.len() == requests.len(), || {
            format!(
                "round {n}: {} of {} requests answered",
                r.replies.len(),
                requests.len()
            )
        });
        if timed {
            out.attempted += requests.len() as u64;
            setup.push(r.setup_s);
            rss.push(r.daemon_rss_mib);
            rate.push(scenarios as f64 / r.wall_s);
            store = r.store_bytes;
            for reply in &r.replies {
                latency.push(reply.latency_s);
                first.push(reply.first_frame_s * 1e3);
                rest.push((reply.latency_s - reply.first_frame_s) * 1e3);
                frames.push(reply.frames as f64);
                bytes.push(reply.bytes as f64);
                decode.extend(&reply.decode_us);
            }
        }
        Ok(())
    })?;

    // Output checks: every checked request against a standalone collect.
    checked.sort_by_key(|(i, _)| *i);
    let mut all = String::new();
    let mut probe_input = None;
    for (i, json) in &checked {
        let (scenarios, dataset) = standalone(&yaml[*i], run.seed)?;
        let expected = dataset.to_json();
        out.check(json == &expected, || {
            format!("request {i}: daemon dataset differs from a standalone collect")
        });
        all.push_str(&expected);
        if probe_input.is_none() {
            probe_input = Some((requests[*i].config(), scenarios, dataset));
        }
    }
    crate::check_pinned_digest(run, fnv1a(all.as_bytes()), &mut out);

    out.sample("setup_s", &setup);
    out.sample("time_to_advice_s", &latency);
    out.sample("scenarios_per_s", &rate);
    out.sample("peak_rss_mib", &rss);
    if !run.trace() {
        return Ok(out);
    }

    let (config, scenarios, dataset) = probe_input.ok_or("no request was checked")?;
    let probe = probes::run(&config, run.seed, &scenarios, &dataset, &run.dir)?;
    Layers::default().record(&probe, &mut out);
    out.sample("wire.frames_per_job", &frames);
    out.sample("wire.bytes_per_job", &bytes);
    out.sample("wire.decode_us", &decode);
    out.sample("serve.first_frame_ms", &first);
    out.sample("serve.result_ms", &rest);
    out.set("serve.refusals", refusals as f64, latency.len());
    let ms: Vec<f64> = latency.iter().map(|s| s * 1e3).collect();
    out.set(
        "serve.job_p99_ms",
        percentile(&ms, 99.0).unwrap_or(0.0),
        ms.len(),
    );
    out.set("cache.hits", hits as f64 / reps as f64, reps);
    out.set("cache.misses", misses as f64 / reps as f64, reps);
    out.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        reps,
    );
    out.set("cache.store_bytes", store as f64, 1);
    // Inside the daemon: not observable from the client side.
    for name in [
        "taskshell.tasks",
        "batchsim.evictions",
        "cloudsim.provisions",
        "cloudsim.pool_resizes",
        "cloudsim.fault_rolls",
        "cloudsim.faults_fired",
        "collect.wall_s",
        "collect.chunks",
        "collect.busy_frac",
        "collect.useful_ratio",
        "collect.retries",
        "placement.failovers",
        "journal.appends",
        "journal.bytes",
        "cache.open_ms",
        "advice.ms",
        "session.build_ms",
        "formats.dataset_json_ms",
        "formats.dataset_json_bytes",
        "telemetry.events",
        "telemetry.overhead_ratio",
    ] {
        out.set(name, 0.0, 0);
    }
    let mut notes = breakdown::render(run, &run.rec.snapshot(), &Layers::default(), reps);
    if let (Some(p50), Some(tail)) = (median(&ms), tail_percentile(ms.len())) {
        notes.push(format!(
            "  job latency: p50 {p50:.3} ms, p{tail} {:.3} ms over {} requests",
            percentile(&ms, tail).unwrap_or(0.0),
            ms.len()
        ));
    }
    out.notes = notes;
    Ok(out)
}
