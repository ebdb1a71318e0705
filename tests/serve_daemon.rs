//! Socket-level tests of `hpcadvisor serve`: one daemon, NDJSON frames
//! over TCP, two concurrent tenants, cross-tenant dedup, streamed
//! per-scenario progress, and every way of waking the blocked accept loop
//! to stop.

use hpcadvisor::cli::serve::{serve_on, ServeOptions};
use hpcadvisor::core::cache::SharedScenarioCache;
use hpcadvisor::formats::wire::Frame;
use hpcadvisor::formats::{OrderedMap, Value};
use hpcadvisor::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver};

const YAML: &str = r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: daemont
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#;

/// Everything one `collect` conversation returned.
struct Reply {
    progress_kinds: Vec<String>,
    dataset_json: String,
    cache_hits: i64,
    cache_misses: i64,
    cost_dollars: f64,
}

fn collect_frame(id: i64, tenant: &str, workers: i64) -> Frame {
    let mut body = OrderedMap::new();
    body.insert("tenant", Value::str(tenant));
    body.insert("config_yaml", Value::str(YAML));
    body.insert("seed", Value::Int(42));
    body.insert("workers", Value::Int(workers));
    Frame::new(id, "collect", Value::Map(body))
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    stream.write_all(frame.encode().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

/// Runs one collect conversation against the daemon and parses the reply.
fn run_collect(addr: std::net::SocketAddr, tenant: &str, workers: i64) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    send(&mut stream, &collect_frame(7, tenant, workers));
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut progress_kinds = Vec::new();
    for line in reader.lines() {
        let frame = Frame::decode(&line.unwrap()).unwrap();
        assert_eq!(frame.id, 7, "responses echo the request id");
        match frame.kind.as_str() {
            "progress" => {
                let map = frame.body.as_map().expect("progress body is the event");
                progress_kinds.push(map.get("kind").and_then(Value::as_str).unwrap().to_string());
            }
            "result" => {
                let map = frame.body.as_map().unwrap();
                assert_eq!(
                    map.get("tenant").and_then(Value::as_str),
                    Some(tenant),
                    "result names the tenant"
                );
                let stats = map.get("stats").and_then(Value::as_map).unwrap();
                return Reply {
                    progress_kinds,
                    dataset_json: map
                        .get("dataset_json")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string(),
                    cache_hits: stats.get("cache_hits").and_then(Value::as_int).unwrap(),
                    cache_misses: stats.get("cache_misses").and_then(Value::as_int).unwrap(),
                    cost_dollars: map.get("cost_dollars").and_then(Value::as_f64).unwrap(),
                };
            }
            "error" => panic!(
                "daemon error: {:?}",
                frame.body.as_map().and_then(|m| m.get("message")).cloned()
            ),
            other => panic!("unexpected frame kind '{other}'"),
        }
    }
    panic!("daemon closed the connection without a result");
}

#[test]
fn one_daemon_two_concurrent_tenants_then_an_all_hits_rerun() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = spawn_daemon(
        listener,
        ServeOptions {
            service_workers: 2,
            cache: SharedScenarioCache::in_memory(),
            max_requests: Some(3),
            ..ServeOptions::default()
        },
    );

    // A ping on its own connection answers pong (liveness probe).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        send(&mut stream, &Frame::new(1, "ping", Value::Null));
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).unwrap();
        assert_eq!(Frame::decode(line.trim()).unwrap().kind, "pong");
    }

    // Two tenants, same grid, truly concurrent connections.
    let alice = std::thread::spawn(move || run_collect(addr, "alice", 2));
    let bob = std::thread::spawn(move || run_collect(addr, "bob", 1));
    let alice = alice.join().unwrap();
    let bob = bob.join().unwrap();

    // Byte-identical to a standalone CLI-style run of the same config.
    let mut session = Session::create(UserConfig::from_yaml(YAML).unwrap(), 42).unwrap();
    let standalone = session
        .collect_with(&CollectPlan::new())
        .unwrap()
        .dataset
        .to_json();
    assert_eq!(alice.dataset_json, standalone);
    assert_eq!(bob.dataset_json, standalone);

    // Progress streamed per scenario for both tenants. The two jobs
    // usually overlap and each executes all 6 scenarios, but the shared
    // cache makes a benign alternative legal: if the scheduler happens to
    // finish one job before the other's cache consult, the later tenant
    // streams 6 cache_hit frames instead of start/end pairs. Either way
    // every scenario must be accounted for in the progress stream.
    for reply in [&alice, &bob] {
        let count = |kind: &str| reply.progress_kinds.iter().filter(|k| *k == kind).count();
        let starts = count("scenario_start");
        assert_eq!(starts, count("scenario_end"), "{:?}", reply.progress_kinds);
        assert_eq!(starts + count("cache_hit"), 6, "{:?}", reply.progress_kinds);
    }
    // The cache starts empty and inserts land only at a job's merge
    // barrier, so whichever job consulted first executed the full grid.
    assert!(
        alice.cache_hits == 0 || bob.cache_hits == 0,
        "at least one tenant ran cold: alice {} hits, bob {} hits",
        alice.cache_hits,
        bob.cache_hits
    );

    // Third, identical request: everything alice/bob computed is shared,
    // so it answers entirely from the daemon's cache and provisions
    // nothing. (This also trips --max-requests, stopping the daemon.)
    let carol = run_collect(addr, "carol", 1);
    assert_eq!(carol.cache_hits, 6, "cross-tenant dedup: all hits");
    assert_eq!(carol.cache_misses, 0);
    assert_eq!(carol.cost_dollars, 0.0);
    assert_eq!(carol.dataset_json, standalone);

    let log = await_stop(&daemon);
    assert!(log.contains("serving on "), "{log}");
    assert!(log.contains("served 3 requests; shut down"), "{log}");
}

/// How long a wake test waits for the daemon to return; a missed wake
/// blocks the accept loop forever, so it fails the test here instead.
const STOP_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// Runs `serve_on` on a thread; the receiver yields its log once it
/// returns.
fn spawn_daemon(listener: TcpListener, opts: ServeOptions) -> Receiver<String> {
    let (done, log) = channel();
    std::thread::spawn(move || {
        let mut log = Vec::new();
        serve_on(listener, opts, &mut log).unwrap();
        let _ = done.send(String::from_utf8(log).unwrap());
    });
    log
}

fn await_stop(log: &Receiver<String>) -> String {
    log.recv_timeout(STOP_DEADLINE)
        .expect("the daemon failed or did not stop within the deadline")
}

/// Sends one frame on `stream` and returns the kind of the reply.
fn exchange(stream: &mut TcpStream, frame: &Frame) -> String {
    send(stream, frame);
    let mut line = String::new();
    BufReader::new(&*stream).read_line(&mut line).unwrap();
    Frame::decode(line.trim()).unwrap().kind
}

fn shutdown_frame(force: bool) -> Frame {
    let body = if force {
        let mut m = OrderedMap::new();
        m.insert("mode", Value::str("force"));
        Value::Map(m)
    } else {
        Value::Null
    };
    Frame::new(2, "shutdown", body)
}

/// Shuts down the daemon on `addr` with a frame on its own connection.
fn shut_down(addr: SocketAddr, force: bool) {
    let mut stream = TcpStream::connect(addr).unwrap();
    assert_eq!(exchange(&mut stream, &shutdown_frame(force)), "ok");
}

#[test]
fn graceful_shutdown_wakes_accept_while_another_client_idles() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = spawn_daemon(listener, ServeOptions::default());
    // An idle client: connected and answered once, then silent.
    let mut idle = TcpStream::connect(addr).unwrap();
    assert_eq!(
        exchange(&mut idle, &Frame::new(1, "ping", Value::Null)),
        "pong"
    );
    shut_down(addr, false);
    let log = await_stop(&log);
    assert!(log.contains("served 0 requests; shut down"), "{log}");
    // The drain closed the idle conversation rather than waiting it out.
    let mut rest = String::new();
    assert_eq!(BufReader::new(&idle).read_line(&mut rest).unwrap(), 0);
}

#[test]
fn forced_shutdown_wakes_accept() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = spawn_daemon(listener, ServeOptions::default());
    shut_down(addr, true);
    let log = await_stop(&log);
    assert!(log.contains("served 0 requests; shut down"), "{log}");
}

#[test]
fn the_last_allowed_request_wakes_accept_while_its_client_stays() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = spawn_daemon(
        listener,
        ServeOptions {
            max_requests: Some(1),
            ..ServeOptions::default()
        },
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    send(&mut stream, &collect_frame(7, "alice", 1));
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "closed early");
        if Frame::decode(line.trim()).unwrap().kind == "result" {
            break;
        }
    }
    // The client keeps its connection open; the daemon stops anyway.
    let log = await_stop(&log);
    assert!(log.contains("served 1 requests; shut down"), "{log}");
    drop(stream);
}

#[test]
fn a_wildcard_listener_is_woken_through_loopback() {
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let log = spawn_daemon(listener, ServeOptions::default());
    shut_down(SocketAddr::from(([127, 0, 0, 1], port)), false);
    let log = await_stop(&log);
    assert!(log.contains(&format!("serving on 0.0.0.0:{port}")), "{log}");
    assert!(log.contains("served 0 requests; shut down"), "{log}");
}

/// The daemon writes each progress frame by splicing the event's JSON line
/// in as the body. For every event line of the golden traces, that frame
/// must be byte for byte the frame built around the parsed line.
#[test]
fn spliced_progress_frames_match_tree_encoded_ones() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut lines = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.to_string_lossy().ends_with(".trace.jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // The first line is the trace header, not an event.
        for (id, line) in text.lines().enumerate().skip(1) {
            let body = hpcadvisor::formats::json::parse(line).unwrap();
            let tree = Frame::new(id as i64, "progress", body).encode();
            let spliced = Frame::encode_with_body(id as i64, "progress", line).unwrap();
            assert_eq!(spliced, tree, "{}:{}", path.display(), id + 1);
            lines += 1;
        }
    }
    assert!(lines >= 1371, "only {lines} golden event lines found");
}
