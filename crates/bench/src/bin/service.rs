//! Measurement-service throughput benchmark: concurrent analysts over both transports.
//!
//! Times the whole serving path of the concurrent measurement server — envelope parse,
//! session budget debit, plan optimisation, batch evaluation, noise, and encode — at
//! 1/2/4/8 concurrent analyst threads, over the in-process transport and real TCP
//! loopback connections, cold (every request is a fresh ε-charged measurement), traced
//! (the cold workload with `"trace": true` on every request, so each response carries
//! its per-request telemetry trace), and cached (identical repeats answered from the
//! cross-request measurement cache with zero extra ε). A fourth leg replays large
//! cached releases over TCP: the 4,178-record joint degree distribution of the CA-GrQc
//! stand-in, about 120 KB as JSON (`svc-large-json`) and 134 KB as base64 colwire
//! (`svc-large-columnar`), so its time is the transport's block reads and the client's
//! linear parse of one long line. Along the way it asserts the service invariants the
//! numbers depend on: cached repeats come back byte-identical, the cold path charges
//! exactly the ε it was asked for, and traced responses carry the trace.
//!
//! Results are printed as a table and written to `BENCH_service.json` as
//! machine-readable rows keyed `(workload, executor, shards)` —
//! `svc-cold`/`svc-traced`/`svc-cached` × `inproc`/`tcp` × analyst count, plus the
//! `svc-large-*` legs (labelled `tcp-large`) — which `bench --bin gate` compares against
//! the committed baseline. `wall_ms` is the gated figure; `req_per_s` rides along for
//! the human reader. The `svc-cold` rows *are* the tracing-off leg: telemetry must be
//! free when disabled, so the gate bounds any tracing-off overhead regression exactly
//! like any other slowdown, while the `svc-traced` rows price the tracing-on path next
//! to it (their traced/cold overhead ratio is printed per cell).
//!
//! Flags: `--scale full` for more requests per cell, `--seed N` for the noise seed,
//! `--out PATH` to write the JSON somewhere other than the committed baseline (CI
//! writes a fresh file and feeds both to the gate).

use std::sync::Arc;
use std::time::Instant;

use bench::report::{fmt_f, heading, Table};
use bench::smallsets::grqc_small;
use bench::HarnessArgs;
use wpinq::{Expr, ExprRecord, Plan, PrivacyBudget, WeightedDataset};
use wpinq_analyses::edges::{symmetric_edge_dataset, EDGES_DATASET};
use wpinq_analyses::jdd::jdd_plan_expr;
use wpinq_service::{
    serve_tcp, Client, InProcess, MeasurementService, ResponseEncoding, Tcp, Transport,
};

/// One measured cell of the matrix.
struct Row {
    workload: &'static str,
    transport: &'static str,
    analysts: usize,
    wall_ms: f64,
    requests: usize,
    req_per_s: f64,
}

/// A graph big enough that evaluation dominates envelope overhead in the cold rows: a
/// deterministic circulant graph (each node links to its next `DEGREE` neighbours).
fn bench_edges(nodes: u32, degree: u32) -> WeightedDataset<(u32, u32)> {
    WeightedDataset::from_records((0..nodes).flat_map(|a| {
        (1..=degree).flat_map(move |k| {
            let b = (a + k) % nodes;
            [(a, b), (b, a)]
        })
    }))
}

/// What a cell measures: a plan over the edge source, its ε multiplier, and the
/// release encoding the analysts ask for.
struct Leg<R: ExprRecord> {
    plan: Plan<R>,
    multiplicity: f64,
    encoding: ResponseEncoding,
}

/// The cold, traced and cached workload: the degree-CCDF plan (multiplicity 1).
fn degree_leg() -> Leg<u64> {
    Leg {
        plan: Plan::<(u32, u32)>::source_expr(EDGES_DATASET)
            .select_expr::<u32>(Expr::input().field(0))
            .shave_const(1.0)
            .select_expr::<u64>(Expr::input().field(1)),
        multiplicity: 1.0,
        encoding: ResponseEncoding::Json,
    }
}

/// The transport label of the large-release rows. It is TCP, but the gate normalises
/// machine speed per `(executor, shards)` group, and these rows' baseline was recorded
/// on another machine than the `tcp` rows': a group mixing two machines' baselines
/// misreads the scale and flags whichever rows scale differently.
const LARGE_TRANSPORT: &str = "tcp-large";

/// The large-release workload: the joint degree distribution (multiplicity 4).
fn jdd_leg(encoding: ResponseEncoding) -> Leg<(u64, u64)> {
    Leg {
        plan: jdd_plan_expr(&Plan::source_expr(EDGES_DATASET)),
        multiplicity: 4.0,
        encoding,
    }
}

/// A fresh service with one registered dataset and an ample per-analyst grant for each
/// of `analysts` client threads (`analyst-0` … `analyst-{n-1}`).
fn build_service(
    analysts: usize,
    seed: u64,
    edges: &WeightedDataset<(u32, u32)>,
) -> Arc<MeasurementService> {
    let service = Arc::new(MeasurementService::new().with_noise_seed(seed));
    service
        .register(EDGES_DATASET, edges)
        .expect("dataset registers");
    for a in 0..analysts {
        service
            .grant(
                &format!("analyst-{a}"),
                EDGES_DATASET,
                PrivacyBudget::new(1e9),
            )
            .expect("grant");
    }
    service
}

/// Runs `requests` measurements of `leg` per analyst thread through `make_transport`
/// and returns the wall time of the whole concurrent burst.
///
/// Cold mode gives every request its own ε (a distinct cache key, so each one is a
/// genuine fresh evaluation and debit); cached mode primes one entry per analyst first,
/// then times identical repeats, asserting every repeat is byte-identical to the prime.
/// Traced mode is cold mode with `"trace": true` stamped on every request (the
/// tracing-on leg), asserting each response actually carries its trace.
fn run_cell<R, T, F>(
    service: &Arc<MeasurementService>,
    leg: &Leg<R>,
    analysts: usize,
    requests: usize,
    cached: bool,
    traced: bool,
    make_transport: F,
) -> f64
where
    R: ExprRecord,
    T: Transport + 'static,
    F: Fn() -> T + Sync,
{
    let spent = || -> f64 {
        (0..analysts)
            .map(|a| {
                1e9 - service
                    .remaining(&format!("analyst-{a}"), EDGES_DATASET)
                    .unwrap()
            })
            .sum()
    };
    let client = |a: usize| {
        Client::new(make_transport(), format!("analyst-{a}"))
            .with_tracing(traced)
            .with_encoding(leg.encoding)
    };
    let spent_before = spent();
    let primes: Vec<Option<String>> = (0..analysts)
        .map(|a| {
            if !cached {
                return None;
            }
            let release = client(a)
                .measure_with_id(&leg.plan, 0.5, Some("bench".into()))
                .expect("prime measurement");
            Some(release.raw)
        })
        .collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..analysts)
            .map(|a| {
                let primes = &primes;
                let client = &client;
                scope.spawn(move || {
                    let client = client(a);
                    for k in 0..requests {
                        if cached {
                            let release = client
                                .measure_with_id(&leg.plan, 0.5, Some("bench".into()))
                                .expect("cached measurement");
                            assert_eq!(
                                Some(&release.raw),
                                primes[a].as_ref(),
                                "cached repeat must be byte-identical"
                            );
                        } else {
                            // A distinct ε per request ⇒ a distinct cache key ⇒ a
                            // genuine cold evaluation and debit every time.
                            let epsilon = 0.5 + (k as f64 + 1.0) * 1e-6;
                            let release = client
                                .measure_with_id(&leg.plan, epsilon, None)
                                .expect("cold measurement");
                            if traced && k == 0 {
                                assert!(
                                    release.raw.contains("\"trace\":"),
                                    "traced response must carry the trace"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("analyst thread");
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let burst_spent = spent() - spent_before;
    let epsilon_per_analyst = if cached {
        // The prime paid 0.5; the timed repeats are free.
        0.5
    } else {
        (0..requests).map(|k| 0.5 + (k as f64 + 1.0) * 1e-6).sum()
    };
    let expected = epsilon_per_analyst * analysts as f64 * leg.multiplicity;
    assert!(
        (burst_spent - expected).abs() < 1e-6,
        "unexpected ε accounting: spent {burst_spent}, expected {expected}"
    );
    wall_ms
}

/// [`run_cell`] over loopback TCP: one server worker per analyst (at least two).
fn run_tcp_cell<R: ExprRecord>(
    service: &Arc<MeasurementService>,
    leg: &Leg<R>,
    analysts: usize,
    requests: usize,
    cached: bool,
    traced: bool,
) -> f64 {
    let server =
        serve_tcp(service.clone(), "127.0.0.1:0", analysts.max(2)).expect("loopback server");
    let addr = server.local_addr().to_string();
    let wall = run_cell(
        service,
        leg,
        analysts,
        requests,
        cached,
        traced,
        move || Tcp::new(addr.clone()),
    );
    server.shutdown();
    wall
}

fn write_json(path: &str, mode: &str, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"generated_by\": \"bench::service\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"hardware_threads\": {},",
        wpinq::plan::available_threads()
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        writeln!(
            f,
            "    {{\"workload\": \"{}\", \"executor\": \"{}\", \"shards\": {}, \
             \"wall_ms\": {:.3}, \"requests\": {}, \"req_per_s\": {:.1}}}{}",
            row.workload,
            row.transport,
            row.analysts,
            row.wall_ms,
            row.requests,
            row.req_per_s,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let args = HarnessArgs::from_env();
    let mode = if args.full_scale { "full" } else { "quick" };
    let requests = if args.full_scale { 200 } else { 40 };
    let edges = if args.full_scale {
        bench_edges(2_000, 8)
    } else {
        bench_edges(500, 4)
    };
    heading(&format!(
        "Measurement-service throughput ({mode}: {} weighted edge records, {requests} \
         requests per analyst)",
        edges.len()
    ));

    let analyst_counts = [1usize, 2, 4, 8];
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new([
        "workload".to_string(),
        "transport".to_string(),
        "analysts".to_string(),
        "wall ms".to_string(),
        "req/s".to_string(),
    ]);

    let mut record =
        |workload: &'static str, transport: &'static str, analysts: usize, wall_ms: f64| {
            let total = analysts * requests;
            let req_per_s = total as f64 / (wall_ms / 1e3);
            table.row([
                workload.to_string(),
                transport.to_string(),
                analysts.to_string(),
                fmt_f(wall_ms, 2),
                fmt_f(req_per_s, 1),
            ]);
            rows.push(Row {
                workload,
                transport,
                analysts,
                wall_ms,
                requests: total,
                req_per_s,
            });
        };

    let degree = degree_leg();
    for workload in ["svc-cold", "svc-traced", "svc-cached"] {
        let cached = workload == "svc-cached";
        let traced = workload == "svc-traced";
        for transport in ["inproc", "tcp"] {
            for &analysts in &analyst_counts {
                // A fresh service per cell: cache state and budgets never leak between
                // cells, so every cold row is genuinely cold.
                let service = build_service(analysts, args.seed, &edges);
                let wall_ms = if transport == "inproc" {
                    let svc = service.clone();
                    run_cell(
                        &service,
                        &degree,
                        analysts,
                        requests,
                        cached,
                        traced,
                        move || InProcess::new(svc.clone()),
                    )
                } else {
                    run_tcp_cell(&service, &degree, analysts, requests, cached, traced)
                };
                record(workload, transport, analysts, wall_ms);
            }
        }
    }

    let grqc = symmetric_edge_dataset(&grqc_small());
    for (workload, encoding) in [
        ("svc-large-json", ResponseEncoding::Json),
        ("svc-large-columnar", ResponseEncoding::Columnar),
    ] {
        let jdd = jdd_leg(encoding);
        for &analysts in &analyst_counts {
            let service = build_service(analysts, args.seed, &grqc);
            let wall_ms = run_tcp_cell(&service, &jdd, analysts, requests, true, false);
            record(workload, LARGE_TRANSPORT, analysts, wall_ms);
        }
    }
    table.print();

    // The traced/cold ratio per cell, for the human reader: what attaching the
    // per-request trace costs on top of the identical cold workload. (The gate bounds
    // both legs against the committed baseline; this is just the side-by-side view.)
    println!("\ntracing-on overhead (svc-traced / svc-cold wall time):");
    for transport in ["inproc", "tcp"] {
        for &analysts in &analyst_counts {
            let wall = |workload: &str| {
                rows.iter()
                    .find(|r| {
                        r.workload == workload && r.transport == transport && r.analysts == analysts
                    })
                    .map(|r| r.wall_ms)
            };
            if let (Some(cold), Some(traced)) = (wall("svc-cold"), wall("svc-traced")) {
                println!(
                    "  {transport:<8} {analysts} analysts: {:.3}x",
                    traced / cold
                );
            }
        }
    }

    let out = args.out.as_deref().unwrap_or("BENCH_service.json");
    match write_json(out, mode, &rows) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
