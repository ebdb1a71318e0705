//! The multi-tenant advisor service: concurrent tenants must see exactly
//! what standalone runs see (byte-identical datasets), identical scenarios
//! must be simulated once across tenants (observable in the cache
//! counters), quota violations must be typed errors, and shutdown must
//! drain admitted jobs.

use hpcadvisor::core::cache::SharedScenarioCache;
use hpcadvisor::prelude::*;
use std::sync::Arc;

fn lammps_yaml(rgprefix: &str, nnodes: &str) -> String {
    format!(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: {rgprefix}
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: {nnodes}
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#
    )
}

fn config(rgprefix: &str, nnodes: &str) -> UserConfig {
    UserConfig::from_yaml(&lammps_yaml(rgprefix, nnodes)).unwrap()
}

/// What a standalone (no daemon) run of the same config/seed produces.
fn standalone_json(config: UserConfig, seed: u64) -> String {
    let mut session = Session::create(config, seed).unwrap();
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    report.dataset.to_json()
}

#[test]
fn concurrent_tenants_match_serial_cli_runs_byte_for_byte() {
    // Three tenants with different grids, submitted concurrently through
    // one service; each must get exactly the bytes a standalone run of
    // its own config produces. Distinct seeds keep the grids from
    // dedup'ing against each other here — dedup has its own test below.
    let tenants: Vec<(&str, UserConfig, u64)> = vec![
        ("alice", config("svca", "[1, 2, 4]"), 11),
        ("bob", config("svcb", "[1, 2]"), 22),
        ("carol", config("svcc", "[2, 4]"), 33),
    ];
    let service = AdvisorService::start(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = tenants
        .iter()
        .map(|(tenant, config, seed)| {
            let mut request = AdviceRequest::new(*tenant, config.clone(), *seed);
            request.workers = 2;
            service.submit(request).unwrap()
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    service.shutdown();
    for ((tenant, config, seed), outcome) in tenants.iter().zip(&outcomes) {
        assert_eq!(outcome.tenant, *tenant);
        assert_eq!(
            outcome.dataset_json,
            standalone_json(config.clone(), *seed),
            "daemon dataset for '{tenant}' differs from the standalone run"
        );
    }
}

#[test]
fn identical_scenarios_dedup_across_tenants() {
    // Two tenants ask the exact same question: the second request answers
    // entirely from the shared cache — zero executions, zero new cost —
    // and still returns byte-identical data.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1, // serialize so the first run populates the cache
        ..ServiceConfig::default()
    });
    let ask = |tenant: &str| {
        service
            .submit(AdviceRequest::new(tenant, config("dedup", "[1, 2, 4]"), 42))
            .unwrap()
    };
    let first = ask("alice").wait().unwrap();
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.cache_misses, 6);
    assert_eq!(first.stats.executed, 6);
    assert!(first.run_cost_dollars > 0.0, "cold run provisions pools");

    let second = ask("bob").wait().unwrap();
    assert_eq!(second.stats.cache_hits, 6, "all-hits: alice already paid");
    assert_eq!(second.stats.executed, 0);
    assert_eq!(
        second.run_cost_dollars, 0.0,
        "a deduped run provisions nothing"
    );
    assert_eq!(second.dataset_json, first.dataset_json);
    assert!(service.tenant_spend("bob") == 0.0);
    assert!(service.tenant_spend("alice") > 0.0);
    service.shutdown();
}

#[test]
fn over_quota_tenant_is_rejected_with_a_typed_error() {
    // max_inflight 1: the second submit while the first is queued/running
    // must be a typed refusal, not a panic — and other tenants are
    // unaffected.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        policy: TenantPolicy {
            max_inflight: 1,
            ..TenantPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let first = service
        .submit(AdviceRequest::new(
            "greedy",
            config("quota", "[1, 2, 4]"),
            1,
        ))
        .unwrap();
    let err = service
        .submit(AdviceRequest::new("greedy", config("quota", "[1]"), 1))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::OverQuota { ref tenant, inflight: 1, limit: 1 } if tenant == "greedy"
        ),
        "{err:?}"
    );
    // A different tenant still gets in.
    let other = service
        .submit(AdviceRequest::new("patient", config("quota2", "[1]"), 1))
        .unwrap();
    assert!(first.wait().is_ok());
    assert!(other.wait().is_ok());
    // The slot freed once the job finished.
    let again = service
        .submit(AdviceRequest::new("greedy", config("quota", "[1]"), 2))
        .unwrap();
    assert!(again.wait().is_ok());
    service.shutdown();
}

#[test]
fn budget_and_grid_quotas_reject_typed() {
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        policy: TenantPolicy {
            budget_dollars: Some(0.000001),
            max_scenarios: Some(4),
            ..TenantPolicy::default()
        },
        ..ServiceConfig::default()
    });
    // Grid ceiling: 3 nodes × 2 SKUs = 6 scenarios > 4.
    let err = service
        .submit(AdviceRequest::new("t", config("grid", "[1, 2, 4]"), 1))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::GridTooLarge {
                scenarios: 6,
                limit: 4,
                ..
            }
        ),
        "{err:?}"
    );
    // First small job fits the budget check (spend is 0 up front) ...
    let outcome = service
        .submit(AdviceRequest::new("t", config("bdg", "[1]"), 1))
        .unwrap()
        .wait()
        .unwrap();
    assert!(outcome.run_cost_dollars > 0.000001);
    // ... and exhausts it for the next one.
    let err = service
        .submit(AdviceRequest::new("t", config("bdg", "[2]"), 1))
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::BudgetExhausted { budget, .. } if budget == 0.000001),
        "{err:?}"
    );
    service.shutdown();
}

#[test]
fn shutdown_drains_every_admitted_job() {
    // One worker, several queued jobs: shutdown must let every admitted
    // job finish — clients still get their terminal events afterwards.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit(AdviceRequest::new("t", config("drain", "[1, 2]"), i + 1))
                .unwrap()
        })
        .collect();
    service.shutdown();
    for handle in handles {
        let outcome = handle.wait().expect("admitted job drained, not dropped");
        assert_eq!(outcome.stats.completed, 4);
    }
}

#[test]
fn full_queue_pushes_back_with_a_typed_error() {
    // Queue bound 1, one busy worker: a burst of submissions must hit the
    // typed QueueFull refusal instead of blocking or panicking.
    let service = AdvisorService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        policy: TenantPolicy {
            max_inflight: usize::MAX,
            ..TenantPolicy::default()
        },
        ..ServiceConfig::default()
    });
    let mut handles = Vec::new();
    let mut saw_full = false;
    for i in 0..200 {
        match service.submit(AdviceRequest::new("burst", config("full", "[1]"), i + 1)) {
            Ok(h) => handles.push(h),
            Err(ServiceError::QueueFull { capacity: 1 }) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected refusal: {e:?}"),
        }
    }
    assert!(saw_full, "a bound-1 queue must push back under a burst");
    // Everything admitted before the refusal still completes.
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    service.shutdown();
}

#[test]
fn progress_events_stream_per_scenario() {
    let service = AdvisorService::start(ServiceConfig::default());
    let handle = service
        .submit(AdviceRequest::new("t", config("prog", "[1, 2, 4]"), 7))
        .unwrap();
    let mut starts = 0;
    let mut ends = 0;
    let mut finished = false;
    for event in handle.events().iter() {
        match event {
            JobEvent::Progress(ev) => match ev.kind.as_str() {
                "scenario_start" => starts += 1,
                "scenario_end" => ends += 1,
                _ => {}
            },
            JobEvent::Finished(_) => {
                finished = true;
                break;
            }
            JobEvent::Failed(m) => panic!("{m}"),
        }
    }
    assert!(finished);
    assert_eq!(starts, 6, "one scenario_start per scenario");
    assert_eq!(ends, 6, "one scenario_end per scenario");
    service.shutdown();
}

#[test]
fn shared_cache_survives_the_service_and_feeds_sessions() {
    // A cache handle outlives the service: a later plain SessionBuilder
    // run over the same handle sees the daemon's results.
    let cache = SharedScenarioCache::in_memory();
    let service = AdvisorService::start(ServiceConfig {
        cache: cache.clone(),
        ..ServiceConfig::default()
    });
    service
        .submit(AdviceRequest::new("t", config("handoff", "[1, 2]"), 42))
        .unwrap()
        .wait()
        .unwrap();
    service.shutdown();
    assert_eq!(cache.len(), 4);
    let mut session = Session::builder(config("handoff", "[1, 2]"))
        .seed(42)
        .shared_cache(cache)
        .build()
        .unwrap();
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 4, "warm from the daemon's work");
}

#[test]
fn session_progress_tap_works_without_a_service() {
    // The builder's progress tap is usable directly (the daemon is just
    // one consumer): count scenario events through a recording tap.
    use hpcadvisor::telemetry::{EventTap, TraceEvent};
    use std::sync::Mutex;
    #[derive(Default)]
    struct Kinds(Mutex<Vec<String>>);
    impl EventTap for Kinds {
        fn on_event(&self, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.kind.clone());
        }
    }
    let tap = Arc::new(Kinds::default());
    let mut session = Session::builder(config("tap", "[1, 2]"))
        .seed(42)
        .progress(tap.clone())
        .build()
        .unwrap();
    session
        .collect_with(&CollectPlan::new().workers(2))
        .unwrap();
    let kinds = tap.0.lock().unwrap().clone();
    assert_eq!(
        kinds.iter().filter(|k| *k == "scenario_end").count(),
        4,
        "{kinds:?}"
    );
}
