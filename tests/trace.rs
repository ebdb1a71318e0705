//! Run-trace telemetry: determinism across worker counts, JSONL
//! round-tripping, zero-cost when disabled, and summary consistency.

use hpcadvisor_core::prelude::*;
use hpcadvisor_core::Trace;
use std::time::Instant;

const SEED: u64 = 42;

/// Runs the 36-scenario OpenFOAM sweep on spot capacity with the
/// fault plan the eviction tests use, tracing enabled.
fn traced_spot_run(workers: usize) -> CollectReport {
    let config = UserConfig::example_openfoam();
    let mut session = Session::create(config, SEED).unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(cloudsim::FaultPlan::none().seed(13).evict_pressure(0.35));
    session
        .collect_with(
            &CollectPlan::new()
                .workers(workers)
                .capacity(Capacity::Spot)
                .trace(true),
        )
        .unwrap()
}

#[test]
fn trace_bytes_identical_for_any_worker_count() {
    let serial = traced_spot_run(1);
    assert!(serial.stats.evictions > 0, "sweep should see evictions");
    let serial_jsonl = serial.trace.as_ref().unwrap().to_jsonl();
    assert!(serial_jsonl.starts_with("{\"version\": 1}\n"));
    for workers in [4usize, 8] {
        let report = traced_spot_run(workers);
        let jsonl = report.trace.as_ref().unwrap().to_jsonl();
        assert_eq!(
            jsonl, serial_jsonl,
            "trace bytes with {workers} workers differ from the serial run"
        );
        // The dataset itself must also stay identical, traced or not.
        assert_eq!(report.dataset.to_json(), serial.dataset.to_json());
    }
}

#[test]
fn trace_jsonl_roundtrip_is_byte_identical() {
    let report = traced_spot_run(4);
    let jsonl = report.trace.as_ref().unwrap().to_jsonl();
    let parsed = Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(
        parsed.events.len(),
        report.trace.as_ref().unwrap().events.len()
    );
    assert_eq!(
        parsed.to_jsonl(),
        jsonl,
        "emit → parse → re-emit must not change bytes"
    );
}

#[test]
fn tracing_does_not_change_untraced_results() {
    let traced = traced_spot_run(4);
    let config = UserConfig::example_openfoam();
    let mut session = Session::create(config, SEED).unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(cloudsim::FaultPlan::none().seed(13).evict_pressure(0.35));
    let untraced = session
        .collect_with(&CollectPlan::new().workers(4).capacity(Capacity::Spot))
        .unwrap();
    assert!(untraced.trace.is_none());
    assert_eq!(untraced.dataset.to_json(), traced.dataset.to_json());
}

#[test]
fn telemetry_off_emits_zero_events_with_no_measurable_overhead() {
    // With tracing off (the default), the provider must buffer nothing and
    // the report must carry no trace.
    let config = UserConfig::example_openfoam();
    let mut session = Session::create(config, SEED).unwrap();
    let start = Instant::now();
    let report = session
        .collect_with(&CollectPlan::new().workers(4))
        .unwrap();
    let off_secs = start.elapsed().as_secs_f64();
    assert!(report.trace.is_none());
    assert!(report.trace_summary().is_none());
    assert!(
        session.provider().lock().drain_trace().is_empty(),
        "disabled provider must not buffer trace events"
    );

    // Generous sanity bound, not a benchmark: the disabled path is a few
    // branch checks, so it must stay within the same order of magnitude as
    // the traced run (CI boxes are noisy; the untraced path is timed by
    // the perfbench workloads).
    let config = UserConfig::example_openfoam();
    let mut session = Session::create(config, SEED).unwrap();
    let start = Instant::now();
    let traced = session
        .collect_with(&CollectPlan::new().workers(4).trace(true))
        .unwrap();
    let on_secs = start.elapsed().as_secs_f64();
    assert!(traced.trace.is_some());
    assert!(
        off_secs <= on_secs * 10.0 + 1.0,
        "telemetry-off run took {off_secs:.3}s vs traced {on_secs:.3}s"
    );
}

#[test]
fn trace_summary_matches_report_stats() {
    let report = traced_spot_run(4);
    let summary = report.trace_summary().unwrap();
    assert_eq!(summary.completed as usize, report.stats.completed);
    assert_eq!(summary.failed as usize, report.stats.failed);
    assert_eq!(summary.skipped as usize, report.stats.skipped);
    assert_eq!(summary.timed_out as usize, report.stats.timed_out);
    assert_eq!(summary.evictions, u64::from(report.stats.evictions));
    assert_eq!(summary.cache_hits as usize, report.stats.cache_hits);
    assert!(summary.provisions > 0);
    assert!(summary.tasks > 0);
    assert!(summary.boot_secs.count > 0);
    let text = summary.render_text();
    assert!(text.contains("events"));
}
