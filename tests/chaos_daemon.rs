//! Chaos harness for the daemon: a fault-injecting TCP proxy between the
//! real `request` client and the real `serve` daemon, plus direct
//! adversarial connections and a fabricated-crash recovery drill.
//!
//! What is proven here:
//!
//! * the client survives injected disconnects, mid-frame cuts and stalls
//!   through bounded-backoff retries on the same idempotent request key,
//!   and still receives the byte-identical dataset;
//! * garbage bytes, version-skewed frames, unknown kinds and oversized
//!   lines each earn a *typed* error frame and never take the daemon down;
//! * idle connections are reaped and over-limit connections are shed, both
//!   with typed, retry-hinted refusals;
//! * a daemon "killed" mid-grid (its post-crash disk state fabricated from
//!   a partial per-job run journal and an admitted-but-not-done service
//!   journal) recovers on restart: tenant spend is restored, only the
//!   interrupted remainder is billed, and a resubmission is served from
//!   cache byte-identically at $0.

use hpcadvisor::cli::args::Args;
use hpcadvisor::cli::serve::{request_cmd, serve_cmd, serve_on, ServeOptions};
use hpcadvisor::cli::state::WorkDir;
use hpcadvisor::core::cache::{CachePolicy, SharedScenarioCache};
use hpcadvisor::core::service_state::{PendingJob, ServiceJournal, ServiceRecord};
use hpcadvisor::core::{
    AdviceRequest, AdvisorService, RunJournal, ServiceConfig, ServiceError, TenantPolicy,
};
use hpcadvisor::formats::wire::{ErrorCode, Frame, MAX_FRAME_BYTES};
use hpcadvisor::formats::{OrderedMap, Value};
use hpcadvisor::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

const YAML: &str = r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: chaos
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(pairs: &[(&str, &str)]) -> Args {
    Args {
        positional: Vec::new(),
        options: pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// The dataset bytes a standalone run of `YAML` under seed 42 produces —
/// the ground truth every daemon answer must match.
fn standalone_dataset() -> String {
    let mut session = Session::create(UserConfig::from_yaml(YAML).unwrap(), 42).unwrap();
    session
        .collect_with(&CollectPlan::new())
        .unwrap()
        .dataset
        .to_json()
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    stream.write_all(frame.encode().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> Frame {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Frame::decode(line.trim_end_matches(['\r', '\n'])).unwrap()
}

/// Starts a daemon on an ephemeral port; returns its address and the
/// thread producing its log.
fn spawn_daemon(opts: ServeOptions) -> (SocketAddr, std::thread::JoinHandle<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut log = Vec::new();
        serve_on(listener, opts, &mut log).unwrap();
        String::from_utf8(log).unwrap()
    });
    // The listener is already bound, so connects queue in the backlog
    // until the accept loop comes up — no readiness polling needed.
    (addr, handle)
}

/// Asks a daemon to shut down gracefully via the client's --shutdown path.
fn stop_daemon(addr: SocketAddr, workdir: &WorkDir) {
    let mut out = Vec::new();
    request_cmd(
        &args(&[("connect", &addr.to_string()), ("shutdown", "")]),
        workdir,
        &mut out,
    )
    .unwrap();
}

/// One injected fault, applied to the daemon→client direction of one
/// proxied connection.
#[derive(Clone, Copy)]
enum Fault {
    /// Forward everything faithfully.
    Pass,
    /// Forward this many daemon bytes, then cut both directions — the
    /// client sees a mid-frame EOF.
    CutAfter(usize),
    /// Forward nothing; hold the connection dead for this long, then cut —
    /// the client's read deadline fires first.
    StallMs(u64),
}

/// A fault-injecting TCP proxy: connection `i` suffers `plan[i]`
/// (connections beyond the plan pass through).
fn chaos_proxy(upstream: SocketAddr, plan: Vec<Fault>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (i, conn) in listener.incoming().enumerate() {
            let Ok(client) = conn else { break };
            let fault = plan.get(i).copied().unwrap_or(Fault::Pass);
            std::thread::spawn(move || proxy_one(client, upstream, fault));
        }
    });
    addr
}

fn proxy_one(client: TcpStream, upstream: SocketAddr, fault: Fault) {
    if let Fault::StallMs(ms) = fault {
        // Never even dial the daemon: the request goes nowhere and the
        // client's own deadline must rescue it.
        std::thread::sleep(Duration::from_millis(ms));
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    // Client→daemon: faithful pump.
    {
        let (mut from, mut to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
        std::thread::spawn(move || {
            let mut buf = [0u8; 8192];
            while let Ok(n) = from.read(&mut buf) {
                if n == 0 || to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            let _ = to.shutdown(Shutdown::Write);
        });
    }
    // Daemon→client: the faulted direction.
    let mut budget = match fault {
        Fault::CutAfter(n) => n,
        _ => usize::MAX,
    };
    let (mut from, mut to) = (server, client);
    let mut buf = [0u8; 8192];
    while let Ok(n) = from.read(&mut buf) {
        if n == 0 {
            break;
        }
        let take = n.min(budget);
        if to.write_all(&buf[..take]).is_err() {
            break;
        }
        budget -= take;
        if budget == 0 {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// The tentpole client-side proof: ≥3 injected disconnects/stalls, one
/// idempotent request key, bounded backoff, byte-identical result.
#[test]
fn client_survives_disconnects_and_stalls_with_retries() {
    let dir = tempdir("client-retries");
    let workdir = WorkDir::open(&dir).unwrap();
    let config_path = dir.join("config.yaml");
    std::fs::write(&config_path, YAML).unwrap();

    let (daemon_addr, daemon) = spawn_daemon(ServeOptions {
        service_workers: 2,
        cache: SharedScenarioCache::in_memory(),
        ..ServeOptions::default()
    });
    // Attempts 1-2 are cut mid-stream, attempt 3 stalls past the client's
    // 1s deadline, attempt 4 goes through.
    let proxy_addr = chaos_proxy(
        daemon_addr,
        vec![
            Fault::CutAfter(200),
            Fault::CutAfter(450),
            Fault::StallMs(1600),
            Fault::Pass,
        ],
    );

    let mut out = Vec::new();
    request_cmd(
        &args(&[
            ("connect", &proxy_addr.to_string()),
            ("config", config_path.to_str().unwrap()),
            ("tenant", "acme"),
            ("timeout", "1"),
            ("retries", "8"),
            ("request-key", "chaos-drill"),
            ("out", dir.join("dataset.json").to_str().unwrap()),
        ]),
        &workdir,
        &mut out,
    )
    .unwrap();
    let log = String::from_utf8(out).unwrap();

    let retries = log.matches("retrying in").count();
    assert!(retries >= 3, "expected ≥3 retries, log:\n{log}");
    assert!(log.contains("collected 6 completed"), "{log}");
    assert!(
        std::fs::read_to_string(dir.join("dataset.json")).unwrap() == standalone_dataset(),
        "retried request still yields the standalone dataset bytes"
    );

    stop_daemon(daemon_addr, &workdir);
    let daemon_log = daemon.join().unwrap();
    assert!(daemon_log.contains("serving on "), "{daemon_log}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adversarial bytes straight at the daemon: every abuse earns a typed
/// error frame and the daemon keeps serving.
#[test]
fn adversarial_frames_get_typed_errors_and_daemon_survives() {
    let dir = tempdir("adversarial");
    let workdir = WorkDir::open(&dir).unwrap();
    let (addr, daemon) = spawn_daemon(ServeOptions {
        cache: SharedScenarioCache::in_memory(),
        ..ServeOptions::default()
    });

    // One connection, a parade of abuse; the conversation survives it all.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        stream.write_all(b"utter garbage\n").unwrap();
        let e = read_frame(&mut reader);
        assert_eq!(e.error_code(), Some(ErrorCode::BadFrame), "{e:?}");

        stream
            .write_all(b"{\"v\": 9, \"id\": 3, \"kind\": \"ping\", \"body\": null}\n")
            .unwrap();
        let e = read_frame(&mut reader);
        assert_eq!(e.error_code(), Some(ErrorCode::BadFrame));
        assert!(e.error_message().unwrap().contains("wire version 9"));

        send(&mut stream, &Frame::new(5, "dance", Value::Null));
        let e = read_frame(&mut reader);
        assert_eq!(e.error_code(), Some(ErrorCode::UnknownKind));
        assert_eq!(e.id, 5, "typed refusal echoes the request id");

        let mut body = OrderedMap::new();
        body.insert("tenant", Value::str("acme"));
        send(&mut stream, &Frame::new(6, "collect", Value::Map(body)));
        let e = read_frame(&mut reader);
        assert_eq!(e.error_code(), Some(ErrorCode::BadRequest));
        assert!(e.error_message().unwrap().contains("config_yaml"));

        // The same connection still answers pings after all that.
        send(&mut stream, &Frame::new(7, "ping", Value::Null));
        assert_eq!(read_frame(&mut reader).kind, "pong");
    }

    // An endless line is refused without buffering it whole.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..17 {
            if writer.write_all(&chunk).is_err() {
                break; // The daemon already slammed the door: fine.
            }
        }
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() && line.ends_with('\n') {
            let frame = Frame::decode(line.trim_end()).unwrap();
            assert_eq!(frame.error_code(), Some(ErrorCode::BadFrame));
            let message = frame.error_message().unwrap();
            assert!(
                message.contains(&MAX_FRAME_BYTES.to_string()),
                "refusal names the limit: {message}"
            );
        }
    }

    // The daemon is still alive and still serves real work.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        send(&mut stream, &Frame::new(9, "ping", Value::Null));
        assert_eq!(read_frame(&mut reader).kind, "pong");
    }

    stop_daemon(addr, &workdir);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection that never sends a frame is reaped at the I/O deadline
/// with a typed `idle_timeout` error.
#[test]
fn idle_connections_are_reaped_with_a_typed_error() {
    let dir = tempdir("idle");
    let workdir = WorkDir::open(&dir).unwrap();
    let (addr, daemon) = spawn_daemon(ServeOptions {
        cache: SharedScenarioCache::in_memory(),
        io_timeout: Duration::from_millis(250),
        ..ServeOptions::default()
    });

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let frame = Frame::decode(line.trim_end()).unwrap();
    assert_eq!(
        frame.error_code(),
        Some(ErrorCode::IdleTimeout),
        "{frame:?}"
    );
    // After the reap frame the daemon closes: next read is EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);

    stop_daemon(addr, &workdir);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connections beyond --max-conns are shed with `overloaded` plus a
/// retry-after hint instead of hanging in the accept backlog.
#[test]
fn overload_is_shed_with_a_retry_hint() {
    let dir = tempdir("overload");
    let workdir = WorkDir::open(&dir).unwrap();
    let (addr, daemon) = spawn_daemon(ServeOptions {
        cache: SharedScenarioCache::in_memory(),
        max_conns: 1,
        io_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });

    // First connection occupies the only slot (a ping proves it is live
    // and registered before the second connection arrives).
    let mut first = TcpStream::connect(addr).unwrap();
    let mut first_reader = BufReader::new(first.try_clone().unwrap());
    send(&mut first, &Frame::new(1, "ping", Value::Null));
    assert_eq!(read_frame(&mut first_reader).kind, "pong");

    let second = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(second);
    let frame = read_frame(&mut reader);
    assert_eq!(frame.error_code(), Some(ErrorCode::Overloaded), "{frame:?}");
    assert_eq!(frame.retry_after_ms(), Some(500), "shed carries a hint");
    assert!(ErrorCode::Overloaded.retryable());

    drop(first);
    drop(first_reader);
    // Give the daemon a beat to notice the slot freed, then stop it.
    std::thread::sleep(Duration::from_millis(400));
    stop_daemon(addr, &workdir);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// While a request waits behind a busy worker, the daemon heartbeats so
/// the client's read deadline never fires during someone else's compute.
#[test]
fn queued_requests_receive_heartbeats() {
    let dir = tempdir("heartbeat");
    let workdir = WorkDir::open(&dir).unwrap();
    let cache = SharedScenarioCache::in_memory();
    let (addr, daemon) = spawn_daemon(ServeOptions {
        service_workers: 1,
        cache: cache.clone(),
        io_timeout: Duration::from_millis(60),
        ..ServeOptions::default()
    });

    let big_yaml = YAML.replace(
        "nnodes: [1, 2, 4]",
        "nnodes: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]",
    );
    let collect = |id: i64, yaml: &str| {
        let mut body = OrderedMap::new();
        body.insert("tenant", Value::str("acme"));
        body.insert("config_yaml", Value::str(yaml));
        body.insert("seed", Value::Int(42));
        Frame::new(id, "collect", Value::Map(body))
    };

    // The test holds the shared scenario cache, so the single worker
    // blocks at its first cache consult and stays busy for as long as the
    // test needs, however fast a grid simulates. Starting the daemon,
    // accepting a connection and admitting a request never take this
    // lock, and the heartbeat interval is io_timeout/2 = 30ms.
    let held = cache.lock();
    // Three connections stack distinct big grids on the single worker.
    // The grids must differ, or the shared cache would answer the second
    // and third instantly once the worker runs again.
    let mut busy: Vec<TcpStream> = Vec::new();
    for i in 0..3 {
        let mut conn = TcpStream::connect(addr).unwrap();
        let distinct = big_yaml.replace("BOXFACTOR: \"8\"", &format!("BOXFACTOR: \"{i}1\""));
        send(&mut conn, &collect(i + 1, &distinct));
        busy.push(conn);
    }

    // The next connection queues behind them and should hear heartbeats.
    let mut waiting = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(waiting.try_clone().unwrap());
    send(&mut waiting, &collect(9, YAML));
    let mut heartbeats = 0;
    let mut held = Some(held);
    loop {
        let frame = read_frame(&mut reader);
        match frame.kind.as_str() {
            // The first heartbeat frees the worker.
            "hb" => {
                heartbeats += 1;
                held = None;
            }
            "result" => break,
            "progress" => {}
            other => panic!("unexpected frame '{other}': {frame:?}"),
        }
    }
    assert!(held.is_none(), "the result came while the worker was held");
    assert!(heartbeats >= 1, "no heartbeat while queued");

    // Drain the busy conversations so their connections close cleanly.
    for conn in &busy {
        let mut busy_reader = BufReader::new(conn.try_clone().unwrap());
        loop {
            let frame = read_frame(&mut busy_reader);
            if frame.kind == "result" {
                break;
            }
        }
    }
    drop(busy);
    drop(waiting);
    stop_daemon(addr, &workdir);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// 64-bit FNV-1a — must match the service's per-job journal file naming.
fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The tentpole recovery proof, with the crash state fabricated on disk
/// exactly as a SIGKILLed daemon leaves it: a service journal holding
/// prior spend plus an admitted-but-not-done job, and that job's partial
/// run journal covering two-thirds of the grid. The restarted service
/// must replay the job, bill only the remainder, and serve an identical
/// resubmission from cache for free.
#[test]
fn fabricated_crash_state_recovers_without_double_billing() {
    let dir = tempdir("recovery");
    let state_dir = dir.join("service");
    std::fs::create_dir_all(state_dir.join("jobs")).unwrap();
    let cache_path = dir.join("cache.json");
    let config = UserConfig::from_yaml(YAML).unwrap();
    let ground_truth = standalone_dataset();

    // Ground truth for what the full grid costs when simulated cold.
    let full_cost = {
        let mut session = Session::create(config.clone(), 42).unwrap();
        session.collect_with(&CollectPlan::new()).unwrap();
        session.total_cloud_cost()
    };
    assert!(full_cost > 0.0);

    // --- Fabricate the post-crash disk state. ---
    // 1. The interrupted job's run journal: run the full grid journaled,
    //    then truncate the file to its header plus the first 4 scenario
    //    records — the exact bytes a SIGKILL mid-grid leaves behind.
    let job_journal = state_dir
        .join("jobs")
        .join(format!("job-{:016x}.jsonl", fnv64("drill")));
    {
        let mut session = Session::builder(config.clone())
            .seed(42)
            .shared_cache(SharedScenarioCache::in_memory())
            .journal(RunJournal::open(&job_journal))
            .build()
            .unwrap();
        session.collect_with(&CollectPlan::new()).unwrap();
        let full = std::fs::read_to_string(&job_journal).unwrap();
        let prefix: Vec<&str> = full.lines().take(5).collect();
        std::fs::write(&job_journal, format!("{}\n", prefix.join("\n"))).unwrap();
    }
    assert!(job_journal.exists(), "partial run journal fabricated");

    // 2. The service journal: prior spend, then the admission with no done.
    {
        let mut journal = ServiceJournal::open(state_dir.join("service-journal.jsonl"));
        journal.append(ServiceRecord::Spend {
            tenant: "acme".into(),
            dollars: 1.25,
        });
        journal.append(ServiceRecord::Admitted(PendingJob {
            key: "drill".into(),
            tenant: "acme".into(),
            seed: 42,
            workers: 1,
            config_yaml: config.to_yaml(),
            regions: Vec::new(),
            cache_policy: Some(CachePolicy::ReadWrite),
        }));
    }

    // --- "Restart" the daemon's engine on the same state directory. ---
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        cache: SharedScenarioCache::open(&cache_path),
        ..ServiceConfig::default()
    });
    assert_eq!(service.recovered_jobs(), 1, "the admission was replayed");
    assert_eq!(service.await_recovery(), 1, "and served to completion");

    // Billing: prior spend survived, and the recovered job charged only
    // the two scenarios the journal did not cover.
    let spend = service.tenant_spend("acme");
    assert!(spend > 1.25, "remainder was billed: {spend}");
    assert!(
        spend < 1.25 + full_cost,
        "replayed scenarios were NOT re-billed: {spend} vs full {full_cost}"
    );
    assert!(!job_journal.exists(), "job journal cleaned up at done");

    // Resubmitting the same key now answers entirely from cache: byte-
    // identical dataset, zero new dollars.
    let outcome = service
        .submit(AdviceRequest::new("acme", config.clone(), 42).with_key("drill"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.stats.cache_hits, 6, "all hits after recovery");
    assert_eq!(outcome.stats.cache_misses, 0);
    assert_eq!(outcome.run_cost_dollars, 0.0);
    assert_eq!(outcome.dataset_json, ground_truth, "byte-identical");
    let spend_after = service.tenant_spend("acme");
    assert!(
        (spend_after - spend).abs() < 1e-12,
        "resubmission cost nothing: {spend_after} vs {spend}"
    );
    service.shutdown();

    // A second restart finds a quiet journal: nothing pending, spend kept.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        state_dir: Some(state_dir),
        cache: SharedScenarioCache::open(&cache_path),
        ..ServiceConfig::default()
    });
    assert_eq!(service.recovered_jobs(), 0);
    assert!((service.tenant_spend("acme") - spend).abs() < 1e-9);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forced shutdown abandons queued work to the journal; the next start
/// replays it. (The kill-9 variant of this drill runs in CI against the
/// real binary.)
#[test]
fn forced_shutdown_keeps_queued_jobs_replayable() {
    let dir = tempdir("force");
    let state_dir = dir.join("service");
    let config = UserConfig::from_yaml(YAML).unwrap();

    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        cache: SharedScenarioCache::open(dir.join("cache.json")),
        policy: TenantPolicy {
            max_inflight: 8,
            ..TenantPolicy::default()
        },
        ..ServiceConfig::default()
    });
    // Several jobs so that at least the tail is still queued when the axe
    // falls, no matter how fast the single worker is.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit(AdviceRequest::new("acme", config.clone(), 42).with_key(format!("f{i}")))
                .unwrap()
        })
        .collect();
    service.shutdown_now();
    let mut outcomes = Vec::new();
    for handle in handles {
        outcomes.push(handle.wait());
    }
    let aborted = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServiceError::JobFailed(m)) if m.contains("shutting down")))
        .count();
    assert!(
        aborted >= 1,
        "forced shutdown failed queued jobs: {outcomes:?}"
    );

    // Restart: every non-finished admission is replayed and completes.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        state_dir: Some(state_dir),
        cache: SharedScenarioCache::open(dir.join("cache.json")),
        ..ServiceConfig::default()
    });
    assert!(
        service.recovered_jobs() >= aborted,
        "abandoned jobs replayed"
    );
    assert_eq!(service.await_recovery(), service.recovered_jobs());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 1: --io-timeout and the client's --timeout/--retries are
/// validated like --deadline/--budget — negative, zero, non-finite and
/// non-numeric values are rejected up front with a clear message.
#[test]
fn io_timeout_and_client_flags_are_validated() {
    let dir = tempdir("flags");
    let workdir = WorkDir::open(&dir).unwrap();
    let config_path = dir.join("config.yaml");
    std::fs::write(&config_path, YAML).unwrap();

    for bad in ["-1", "0", "nan", "inf", "-0.5", "soon"] {
        let mut out = Vec::new();
        let err = serve_cmd(&args(&[("io-timeout", bad)]), &workdir, &mut out).unwrap_err();
        assert!(
            err.to_string().contains("io-timeout"),
            "bad value '{bad}' must name the flag: {err}"
        );
    }
    for bad in ["-2", "0", "inf"] {
        let mut out = Vec::new();
        let err = request_cmd(
            &args(&[
                ("connect", "127.0.0.1:1"),
                ("config", config_path.to_str().unwrap()),
                ("timeout", bad),
            ]),
            &workdir,
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("timeout"), "{err}");
    }
    let mut out = Vec::new();
    let err = request_cmd(
        &args(&[
            ("connect", "127.0.0.1:1"),
            ("config", config_path.to_str().unwrap()),
            ("retries", "many"),
        ]),
        &workdir,
        &mut out,
    )
    .unwrap_err();
    assert!(err.to_string().contains("retries"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
