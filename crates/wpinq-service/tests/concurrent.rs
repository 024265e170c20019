//! Concurrency properties of the measurement service, exercised over real TCP loopback
//! connections and in-process threads.
//!
//! These are the service-level privacy invariants of the paper's agent model under
//! concurrency:
//!
//! * budgets never over-debit, no matter how many analyst threads hammer one grant —
//!   the check-and-hold of the two-phase debit is atomic per grant;
//! * multi-dataset debits are all-or-nothing — interleaved requests that touch the same
//!   grants in different orders can neither deadlock nor leave a partial charge;
//! * an identical repeated request is answered from the measurement cache
//!   byte-identically with **zero** additional ε — including when the identical
//!   requests race on a cold cache (single-flight: exactly one evaluation, one charge).

use std::sync::Arc;

use wpinq::plan::executor_for_threads;
use wpinq::{Expr, Plan, PrivacyBudget, WeightedDataset};
use wpinq_expr::Json;
use wpinq_service::{
    serve_tcp, Client, ClientError, InProcess, MeasureRequest, MeasurementService,
    ResponseEncoding, Tcp, MAX_LINE_BYTES,
};

fn edge_data() -> WeightedDataset<(u32, u32)> {
    let undirected = [(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)];
    WeightedDataset::from_records(undirected.iter().flat_map(|&(a, b)| [(a, b), (b, a)]))
}

/// A cheap multiplicity-1 plan over one named edge source.
fn degree_plan(dataset: &str) -> Plan<u64> {
    Plan::<(u32, u32)>::source_expr(dataset)
        .select_expr::<u32>(Expr::input().field(0))
        .shave_const(1.0)
        .select_expr::<u64>(Expr::input().field(1))
}

/// Budgets never over-debit: 8 TCP client threads race 10 debits of 0.5 each against a
/// 10.0 grant. Exactly 20 can win; the losers are rejected with `budget_exceeded`; the
/// final expenditure is exactly the grant. The cache is disabled so every request is a
/// genuine fresh debit.
#[test]
fn concurrent_tcp_clients_never_over_debit_one_grant() {
    let service = Arc::new(MeasurementService::new().with_measurement_cache(false));
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("hammer", "edges", PrivacyBudget::new(10.0))
        .unwrap();
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 8).expect("loopback server");
    let addr = server.local_addr().to_string();

    let plan = degree_plan("edges");
    let outcomes: Vec<Result<(), ClientError>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let plan = &plan;
                scope.spawn(move || {
                    let client = Client::new(Tcp::new(addr), "hammer");
                    (0..10)
                        .map(|_| client.measure::<u64>(plan, 0.5).map(|_| ()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });

    let successes = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(successes, 20, "exactly the affordable debits succeed");
    for outcome in &outcomes {
        if let Err(error) = outcome {
            assert!(
                matches!(error, ClientError::Rejected { code, .. } if code == "budget_exceeded"),
                "losers must be clean budget rejections, got {error}"
            );
        }
    }
    let remaining = service.remaining("hammer", "edges").unwrap();
    assert!(
        remaining.abs() < 1e-9,
        "grant must be exactly exhausted, never over-debited: {remaining} left"
    );
    server.shutdown();
}

/// Interleaved multi-dataset requests neither deadlock nor leave partial charges. Two
/// plans touch grants (a, b) — one phrased a-then-b, the other b-then-a — while the `b`
/// grant is the scarce one. Reservation order is canonical (sorted dataset names), so
/// the race completes; rollback on the scarce grant's rejection keeps both grants'
/// expenditures in lock-step.
#[test]
fn interleaved_multi_dataset_requests_are_all_or_nothing() {
    let service = Arc::new(MeasurementService::new().with_measurement_cache(false));
    service.register("a", &edge_data()).unwrap();
    service.register("b", &edge_data()).unwrap();
    // `a` is ample (it never rejects, so the win count is deterministic); `b` is scarce.
    // Every rejection therefore happens on `b`, *after* a hold was taken on `a` — the
    // hold must roll back, or the two expenditures drift apart.
    service.grant("x", "a", PrivacyBudget::new(100.0)).unwrap();
    service.grant("x", "b", PrivacyBudget::new(2.0)).unwrap();

    // Each request touches both datasets at multiplicity 1 ⇒ costs 0.5 from each grant.
    let ab = Plan::<(u32, u32)>::source_expr("a").union(&Plan::<(u32, u32)>::source_expr("b"));
    let ba = Plan::<(u32, u32)>::source_expr("b").union(&Plan::<(u32, u32)>::source_expr("a"));

    let successes: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let service = service.clone();
                let plan = if i % 2 == 0 { ab.clone() } else { ba.clone() };
                scope.spawn(move || {
                    let client = Client::new(InProcess::new(service), "x");
                    (0..3)
                        .filter(|_| client.measure::<(u32, u32)>(&plan, 0.5).is_ok())
                        .count()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });

    // The scarce grant admits exactly 4 × (2 × 0.5); each success debits both grants.
    assert_eq!(successes, 4, "the scarce grant bounds the wins");
    let spent_a = 100.0 - service.remaining("x", "a").unwrap();
    let spent_b = 2.0 - service.remaining("x", "b").unwrap();
    assert!(
        (spent_a - spent_b).abs() < 1e-9,
        "partial charge detected: a spent {spent_a}, b spent {spent_b}"
    );
    assert!(
        (spent_b - 2.0).abs() < 1e-9,
        "b exactly exhausted: {spent_b}"
    );
}

/// A repeated identical request is byte-identical with zero extra ε — across executors,
/// and with the very same bytes over TCP and in-process (one shared cache).
#[test]
fn cached_repeat_is_byte_identical_and_free_across_executors() {
    for threads in [1usize, 2, 8] {
        let service =
            Arc::new(MeasurementService::new().with_executor(executor_for_threads(threads)));
        service.register("edges", &edge_data()).unwrap();
        service
            .grant("alice", "edges", PrivacyBudget::new(1.0))
            .unwrap();
        let server = serve_tcp(service.clone(), "127.0.0.1:0", 2).expect("loopback server");

        let tcp = Client::new(Tcp::new(server.local_addr().to_string()), "alice");
        let plan = degree_plan("edges");
        let first = tcp
            .measure_with_id(&plan, 0.25, Some("q".into()))
            .expect("cold measurement");
        let spent_once = 1.0 - service.remaining("alice", "edges").unwrap();
        assert!((spent_once - 0.25).abs() < 1e-12);

        let second = tcp
            .measure_with_id(&plan, 0.25, Some("q".into()))
            .expect("cached repeat over TCP");
        assert_eq!(
            first.raw, second.raw,
            "{threads}-thread executor: repeat must be byte-identical"
        );

        // The same request through a different transport hits the same cache entry.
        let inproc = Client::new(InProcess::new(service.clone()), "alice");
        let third = inproc
            .measure_with_id(&plan, 0.25, Some("q".into()))
            .expect("cached repeat in-process");
        assert_eq!(first.raw, third.raw, "transport leaves no fingerprint");

        let spent_after_repeats = 1.0 - service.remaining("alice", "edges").unwrap();
        assert!(
            (spent_after_repeats - spent_once).abs() < 1e-12,
            "replays must charge zero epsilon"
        );
        assert_eq!(service.cache_stats().hits, 2);
        assert_eq!(service.cache_stats().misses, 1);
        // The audit log records the replays.
        let replays = service
            .audit_log()
            .iter()
            .filter(|entry| entry.contains("replayed cached measurement"))
            .count();
        assert_eq!(replays, 2);
        server.shutdown();
    }
}

/// Identical requests racing on a **cold** cache single-flight: one evaluation, one
/// charge, and every racer gets the same bytes.
#[test]
fn racing_identical_requests_charge_exactly_once() {
    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(1.0))
        .unwrap();
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 8).expect("loopback server");
    let addr = server.local_addr().to_string();

    let plan = degree_plan("edges");
    let raws: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let plan = &plan;
                scope.spawn(move || {
                    let client = Client::new(Tcp::new(addr), "alice");
                    client
                        .measure_with_id::<u64>(plan, 0.5, Some("race".into()))
                        .expect("racing measurement")
                        .raw
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert!(
        raws.iter().all(|raw| *raw == raws[0]),
        "all racers must receive identical bytes"
    );
    let spent = 1.0 - service.remaining("alice", "edges").unwrap();
    assert!(
        (spent - 0.5).abs() < 1e-12,
        "exactly one charge despite 8 racers: spent {spent}"
    );
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "single-flight: one evaluation");
    assert_eq!(stats.hits, 7);
    server.shutdown();
}

/// A total cost that overflows f64 (`multiplicity × ε = ∞`) is a clean
/// `invalid_parameter` rejection — not a panic that would poison the grant's lock,
/// wedge the cache slot, and kill the serving worker. The server runs a *single*
/// worker so a dead worker could not hide behind the pool.
#[test]
fn overflowing_total_cost_is_rejected_not_a_panic() {
    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(1.0))
        .unwrap();
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 1).expect("loopback server");
    let client = Client::new(Tcp::new(server.local_addr().to_string()), "alice");

    // Two distinct chains over the same source: multiplicity 2, so 2 × 1e308 = ∞.
    let edges = Plan::<(u32, u32)>::source_expr("edges");
    let twice = edges
        .select_expr::<u32>(Expr::input().field(0))
        .union(&edges.select_expr::<u32>(Expr::input().field(1)));
    let err = client.measure::<u32>(&twice, 1e308).unwrap_err();
    assert!(
        matches!(&err, ClientError::Rejected { code, .. } if code == "invalid_parameter"),
        "overflowing cost must be a clean parameter rejection, got {err}"
    );
    assert!(
        (service.remaining("alice", "edges").unwrap() - 1.0).abs() < 1e-12,
        "nothing may be charged"
    );

    // The worker, the grant, and the cache key all survive: the same connection
    // serves a normal measurement (and its cached repeat) afterwards.
    let plan = degree_plan("edges");
    let first = client
        .measure_with_id::<u64>(&plan, 0.5, None)
        .expect("service must stay healthy after the rejection");
    let repeat = client
        .measure_with_id::<u64>(&plan, 0.5, None)
        .expect("cache must stay healthy too");
    assert_eq!(first.raw, repeat.raw);
    server.shutdown();
}

/// Re-registering a dataset invalidates its cache entries: the memoized release was
/// computed over data that no longer exists, so the same request afterwards is a
/// fresh — and freshly charged — measurement of the new data, and caching then
/// resumes normally at the new generation.
#[test]
fn re_registering_a_dataset_invalidates_its_cache_entries() {
    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(5.0))
        .unwrap();
    let client = Client::new(InProcess::new(service.clone()), "alice");
    let plan = degree_plan("edges");

    let first = client.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    let replay = client.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    assert_eq!(first.raw, replay.raw, "same data: the repeat replays");
    assert!((service.remaining("alice", "edges").unwrap() - 4.5).abs() < 1e-12);

    let replaced = WeightedDataset::from_records([(0u32, 1u32), (1, 0), (1, 2), (2, 1)]);
    service.register("edges", &replaced).unwrap();

    let fresh = client.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    assert!(
        (service.remaining("alice", "edges").unwrap() - 4.0).abs() < 1e-12,
        "a measurement of the replaced data must be charged like any fresh one"
    );
    let stats = service.cache_stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (2, 1),
        "the repeat after re-registration recomputes"
    );
    // At the new generation the cache works as usual again.
    let fresh_replay = client.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    assert_eq!(fresh.raw, fresh_replay.raw);
    assert!((service.remaining("alice", "edges").unwrap() - 4.0).abs() < 1e-12);
}

/// The cache's capacity bound holds at the service level: with room for one entry, a
/// second distinct request evicts the first, whose repeat then recomputes (and pays
/// again — eviction is privacy-neutral, it only forfeits the reuse discount).
#[test]
fn cache_capacity_bounds_residency() {
    let service = Arc::new(MeasurementService::new().with_cache_capacity(1));
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(5.0))
        .unwrap();
    let client = Client::new(InProcess::new(service.clone()), "alice");
    let plan = degree_plan("edges");

    client.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    client.measure_with_id::<u64>(&plan, 0.25, None).unwrap(); // distinct key: evicts
    client.measure_with_id::<u64>(&plan, 0.5, None).unwrap(); // evicted: recomputes
    let stats = service.cache_stats();
    assert_eq!((stats.misses, stats.hits), (3, 0));
    assert!(stats.evictions >= 1);
    assert!(
        (service.remaining("alice", "edges").unwrap() - 3.75).abs() < 1e-12,
        "every recomputation pays"
    );
}

/// Distinct cache keys stay distinct: a different analyst, a different ε, or a
/// different plan each pays its own way (no cross-analyst or cross-ε leakage).
#[test]
fn cache_keys_separate_analysts_epsilons_and_plans() {
    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(5.0))
        .unwrap();
    service
        .grant("bob", "edges", PrivacyBudget::new(5.0))
        .unwrap();

    let alice = Client::new(InProcess::new(service.clone()), "alice");
    let bob = Client::new(InProcess::new(service.clone()), "bob");
    let plan = degree_plan("edges");

    let a1 = alice.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    let b1 = bob.measure_with_id::<u64>(&plan, 0.5, None).unwrap();
    let a2 = alice.measure_with_id::<u64>(&plan, 0.25, None).unwrap();
    assert_ne!(a1.raw, b1.raw, "per-analyst noise must differ");
    assert_ne!(a1.raw, a2.raw, "per-epsilon releases must differ");
    assert_eq!(service.cache_stats().misses, 3);
    assert_eq!(service.cache_stats().hits, 0);
    assert!((service.remaining("alice", "edges").unwrap() - 4.25).abs() < 1e-12);
    assert!((service.remaining("bob", "edges").unwrap() - 4.5).abs() < 1e-12);
}

/// A request line longer than `MAX_LINE_BYTES` gets one `wire` error line and its
/// connection is closed, instead of growing the worker's buffer without bound. The
/// single worker then serves a normal measurement on a new connection.
#[test]
fn an_over_long_request_line_is_a_wire_error_and_closes_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    service
        .grant("alice", "edges", PrivacyBudget::new(1.0))
        .unwrap();
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 1).expect("loopback server");
    let addr = server.local_addr().to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let patience = std::time::Duration::from_secs(10);
    stream.set_read_timeout(Some(patience)).unwrap();
    stream
        .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
        .expect("the server reads the whole over-long line");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("one response line");
    let response = wpinq_expr::Json::parse(line.trim_end()).expect("response is JSON");
    let code = response.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(wpinq_expr::Json::as_str), Some("wire"));
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    let client = Client::new(Tcp::new(addr), "alice");
    client
        .measure_with_id::<u64>(&degree_plan("edges"), 0.5, None)
        .expect("the worker keeps serving");
    server.shutdown();
}

/// Parsing is linear in line length, so `MAX_LINE_BYTES` bounds one request's time: a
/// request line just under the cap, almost all of it one JSON string, is answered
/// within seconds, and an analyst on the other worker is served all the while.
#[test]
fn a_request_line_near_the_cap_is_answered_promptly_and_starves_no_one() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    let service = Arc::new(MeasurementService::new());
    service.register("edges", &edge_data()).unwrap();
    for analyst in ["alice", "bob"] {
        service
            .grant(analyst, "edges", PrivacyBudget::new(1.0))
            .unwrap();
    }
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 2).expect("loopback server");
    let addr = server.local_addr().to_string();

    // A valid request padded by an unknown member holding one ~4 MiB string.
    let request = MeasureRequest {
        analyst: "alice".into(),
        epsilon: 0.5,
        spec: degree_plan("edges").to_spec().unwrap(),
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    };
    // Multi-byte characters and escapes throughout, so every path of the string scan runs.
    let unit = "padding é\\\" ";
    let unit_bytes = Json::str(unit).to_compact().len() - 2;
    let padded = |units: usize| {
        let Json::Obj(mut members) = request.to_json() else {
            unreachable!("a request envelope is an object")
        };
        members.push(("padding".into(), Json::str(unit.repeat(units))));
        Json::Obj(members).to_compact()
    };
    let mut line = padded((MAX_LINE_BYTES - padded(0).len()) / unit_bytes);
    assert!(line.len() > MAX_LINE_BYTES - unit_bytes && line.len() <= MAX_LINE_BYTES);
    line.push('\n');

    let patience = Duration::from_secs(10);
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(patience)).unwrap();
    let started = Instant::now();
    stream
        .write_all(line.as_bytes())
        .expect("send the long line");

    // Bob, on the other worker, is answered while alice's line is in hand.
    let bob = Client::new(Tcp::new(addr), "bob");
    bob.measure_with_id::<u64>(&degree_plan("edges"), 0.5, None)
        .expect("the other worker keeps serving");

    let mut response = String::new();
    if let Err(error) = BufReader::new(stream).read_line(&mut response) {
        // Shutting down would join the stalled worker and hang instead of failing.
        std::mem::forget(server);
        panic!("no answer to the long line within {patience:?}: {error}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < patience, "answered after {elapsed:?}");
    let response = Json::parse(response.trim_end()).expect("response is JSON");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert!((service.remaining("alice", "edges").unwrap() - 0.5).abs() < 1e-12);
    server.shutdown();
}
