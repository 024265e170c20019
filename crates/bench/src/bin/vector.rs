//! Vectorized-expression benchmark: typed closures vs the row-at-a-time expression
//! interpreter vs the columnar `ExprProgram` kernels, over the dynamic plan path.
//!
//! Each workload is built twice — once with hand-written closures (the typed baseline)
//! and once with expression payloads. The expression form is shipped through its
//! `PlanSpec` wire bytes and rebuilt over dynamic `Value` records exactly as the
//! measurement service does, then evaluated with the columnar kernels forced off
//! (`expr-row`: the scalar interpreter clones a `Value` per operator per record) and
//! forced on (`expr-columnar`: one compiled register program per operator, run
//! column-at-a-time). All three legs are asserted bitwise-identical before timing is
//! reported, so the speedup never comes at the cost of a single output bit.
//!
//! Flags: `--scale full` for the larger dataset (default: quick mode — the CI smoke
//! configuration), `--out PATH` to write the JSON somewhere other than the committed
//! `BENCH_vector.json` baseline (CI writes a fresh file and feeds both to
//! `bench --bin gate`).

use std::sync::Arc;
use std::time::Instant;

use bench::report::{fmt_f, heading, Table};
use bench::HarnessArgs;
use wpinq::column::ColumnBatch;
use wpinq::expr::set_columnar_override;
use wpinq::plan::{
    dataset_to_values, plan_from_spec, DynPlan, OptimizeLevel, PlanBindings, SequentialExecutor,
};
use wpinq::value::Value;
use wpinq::{Expr, Plan, ReduceSpec, WeightedDataset};

type Rec = (u64, u64);

/// One workload: the hand-closure typed plan and its expression-built twin, sharing one
/// source and one dataset.
struct Workload {
    name: &'static str,
    typed: Plan<Rec>,
    typed_bindings: PlanBindings,
    dynamic: DynPlan,
    dyn_bindings: PlanBindings,
}

/// A deterministic pair dataset (multiplicative-congruential stream, unit weights).
fn pair_dataset(len: usize) -> WeightedDataset<Rec> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    WeightedDataset::from_records((0..len).map(|_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 100_000, (state >> 17) % 1_000)
    }))
}

/// Builds one workload from a typed plan and its expression twin: the expression form
/// is pushed through its wire bytes and rebuilt over `Value` records, both sources are
/// bound to the same data.
fn workload(
    name: &'static str,
    data: &WeightedDataset<Rec>,
    source: Plan<Rec>,
    typed: Plan<Rec>,
    expr_form: Plan<Rec>,
) -> Workload {
    let spec = expr_form.to_spec().expect("expression plans serialize");
    let dynamic = plan_from_spec(&spec).expect("wire bytes rebuild");
    let mut typed_bindings = PlanBindings::new();
    typed_bindings.bind(&source, data.clone());
    let mut dyn_bindings = PlanBindings::new();
    let values = Arc::new(dataset_to_values(data));
    for dyn_source in &dynamic.sources {
        dyn_bindings.bind_shared(&dyn_source.plan, values.clone());
    }
    Workload {
        name,
        typed,
        typed_bindings,
        dynamic,
        dyn_bindings,
    }
}

fn workloads(data: &WeightedDataset<Rec>) -> Vec<Workload> {
    let x = Expr::input;
    let mut out = Vec::new();

    // A chain of six projections alternating arithmetic with modular bucketing (the
    // shape of the degree/JDD measurement pipelines, where projections merge records).
    // The closure twin mirrors the expression semantics exactly (wrapping arithmetic).
    {
        let source = Plan::<Rec>::source_expr("records");
        let mut typed = source.clone();
        let mut expr_form = source.clone();
        for (mul, modulo) in [(3u64, 8192u64), (5, 2048), (7, 512)] {
            typed = typed
                .select(move |r: &Rec| {
                    (
                        r.0.wrapping_mul(mul)
                            .wrapping_add(r.1)
                            .wrapping_mul(2654435761)
                            .wrapping_add(r.0 / 65536),
                        r.1.wrapping_mul(31).wrapping_add(r.0 / 3).wrapping_add(7),
                    )
                })
                .select(move |r: &Rec| (r.0 % modulo, r.1 % 64));
            expr_form = expr_form
                .select_expr::<Rec>(Expr::tuple(vec![
                    x().field(0)
                        .mul(Expr::u64(mul))
                        .add(x().field(1))
                        .mul(Expr::u64(2654435761))
                        .add(x().field(0).div(Expr::u64(65536))),
                    x().field(1)
                        .mul(Expr::u64(31))
                        .add(x().field(0).div(Expr::u64(3)))
                        .add(Expr::u64(7)),
                ]))
                .select_expr::<Rec>(Expr::tuple(vec![
                    x().field(0).rem(Expr::u64(modulo)),
                    x().field(1).rem(Expr::u64(64)),
                ]));
        }
        out.push(workload("select-chain", data, source, typed, expr_form));
    }

    // Five filters with compound arithmetic predicates then a swap: the predicate-heavy
    // case (each predicate compiles to a handful of vectorized kernels and one mask).
    {
        let source = Plan::<Rec>::source_expr("records");
        let mut typed = source.clone();
        let mut expr_form = source.clone();
        for k in [3u64, 5, 7, 11, 13] {
            typed = typed.filter(move |r: &Rec| {
                !r.0.wrapping_mul(r.1).is_multiple_of(k) && !r.0.wrapping_add(r.1).is_multiple_of(3)
            });
            expr_form = expr_form.filter_expr(
                x().field(0)
                    .mul(x().field(1))
                    .rem(Expr::u64(k))
                    .ne(Expr::u64(0))
                    .and(
                        x().field(0)
                            .add(x().field(1))
                            .rem(Expr::u64(3))
                            .ne(Expr::u64(0)),
                    ),
            );
        }
        typed = typed.select(|r: &Rec| (r.1, r.0));
        expr_form = expr_form.select_expr::<Rec>(Expr::tuple(vec![x().field(1), x().field(0)]));
        out.push(workload("filter-chain", data, source, typed, expr_form));
    }

    // Compound boolean predicates (And/Or trees over comparisons) between projections.
    {
        let source = Plan::<Rec>::source_expr("records");
        let mut typed = source.clone();
        let mut expr_form = source.clone();
        for k in [2u64, 3, 4] {
            typed = typed
                .filter(move |r: &Rec| {
                    (!r.0.is_multiple_of(k) && !r.1.is_multiple_of(3)) || r.0 < r.1
                })
                .select(|r: &Rec| (r.0.wrapping_add(r.1), r.1));
            expr_form = expr_form
                .filter_expr(
                    x().field(0)
                        .rem(Expr::u64(k))
                        .ne(Expr::u64(0))
                        .and(x().field(1).rem(Expr::u64(3)).ne(Expr::u64(0)))
                        .or(x().field(0).lt(x().field(1))),
                )
                .select_expr::<Rec>(Expr::tuple(vec![
                    x().field(0).add(x().field(1)),
                    x().field(1),
                ]));
        }
        out.push(workload("mask-ops", data, source, typed, expr_form));
    }

    // Modular group-by with a count reducer: exercises the columnar partition + key
    // evaluation (the reducer itself only reads group sizes).
    {
        let source = Plan::<Rec>::source_expr("records");
        let typed = source
            .group_by(|r: &Rec| r.0 % 1024, |g: &[Rec]| g.len() as u64)
            .select(|p: &(u64, u64)| *p);
        let expr_form = source
            .group_by_expr::<u64, u64>(
                x().field(0).rem(Expr::u64(1024)),
                ReduceSpec::CountThen(Expr::input()),
            )
            .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]));
        out.push(workload("group-count", data, source, typed, expr_form));
    }

    // A modular-key hash join: columnar key evaluation feeding the shared build/probe
    // core (per-match result emission stays scalar).
    {
        let source = Plan::<Rec>::source_expr("records");
        let left = source.filter(|r: &Rec| r.0.is_multiple_of(2));
        let left_e = source.filter_expr(x().field(0).rem(Expr::u64(2)).eq(Expr::u64(0)));
        let right = source.filter(|r: &Rec| !r.1.is_multiple_of(2));
        let right_e = source.filter_expr(x().field(1).rem(Expr::u64(2)).eq(Expr::u64(1)));
        let typed = left.join(&right, |a| a.0 % 4096, |b| b.0 % 4096, |a, b| (a.0, b.1));
        let expr_form = left_e.join_expr::<Rec, u64, Rec>(
            &right_e,
            x().field(0).rem(Expr::u64(4096)),
            x().field(0).rem(Expr::u64(4096)),
            Expr::tuple(vec![x().field(0).field(0), x().field(1).field(1)]),
        );
        out.push(workload("hash-join", data, source, typed, expr_form));
    }

    // A hash join whose *result* records are five-leaf tuples — one leaf past the packed
    // width — so the columnar path must take the borrowing-probe fallback (one reused
    // scratch row per probe instead of a materialized `Value` per match attempt). A
    // final projection folds the wide record back to a pair.
    {
        let source = Plan::<Rec>::source_expr("records");
        let left = source.filter(|r: &Rec| r.0.is_multiple_of(2));
        let left_e = source.filter_expr(x().field(0).rem(Expr::u64(2)).eq(Expr::u64(0)));
        let right = source.filter(|r: &Rec| !r.1.is_multiple_of(2));
        let right_e = source.filter_expr(x().field(1).rem(Expr::u64(2)).eq(Expr::u64(1)));
        type Wide = ((u64, u64), (u64, u64, u64));
        let typed = left
            .join(
                &right,
                |a| a.0 % 4096,
                |b| b.0 % 4096,
                |a, b| ((a.0, a.1), (b.0, b.1, a.0.wrapping_add(b.1))),
            )
            .select(|r: &Wide| (r.0 .0.wrapping_add(r.1 .0), r.1 .2));
        let expr_form = left_e
            .join_expr::<Rec, u64, Wide>(
                &right_e,
                x().field(0).rem(Expr::u64(4096)),
                x().field(0).rem(Expr::u64(4096)),
                Expr::tuple(vec![
                    Expr::tuple(vec![x().field(0).field(0), x().field(0).field(1)]),
                    Expr::tuple(vec![
                        x().field(1).field(0),
                        x().field(1).field(1),
                        x().field(0).field(0).add(x().field(1).field(1)),
                    ]),
                ]),
            )
            .select_expr::<Rec>(Expr::tuple(vec![
                x().field(0).field(0).add(x().field(1).field(0)),
                x().field(1).field(2),
            ]));
        out.push(workload("hash-join-wide", data, source, typed, expr_form));
    }

    out
}

/// A weighted `Value` dataset as sorted `(record, weight-bits)` rows for bitwise
/// comparison independent of hash-map order.
fn canon(data: &WeightedDataset<Value>) -> Vec<(Value, u64)> {
    let mut rows: Vec<(Value, u64)> = data
        .iter()
        .map(|(record, weight)| (record.clone(), weight.to_bits()))
        .collect();
    rows.sort();
    rows
}

fn timed<F: FnOnce() -> R, R>(best: &mut f64, run: F) -> R {
    let started = Instant::now();
    let out = run();
    *best = best.min(started.elapsed().as_secs_f64() * 1e3);
    out
}

struct Row {
    workload: &'static str,
    executor: &'static str,
    wall_ms: f64,
    speedup_vs_row: f64,
}

fn json_escape_free(value: &str) -> &str {
    assert!(value.chars().all(|c| c.is_ascii_graphic() && c != '"'));
    value
}

fn write_json(path: &str, mode: &str, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"generated_by\": \"bench::vector\",")?;
    writeln!(f, "  \"mode\": \"{}\",", json_escape_free(mode))?;
    writeln!(
        f,
        "  \"hardware_threads\": {},",
        wpinq::plan::available_threads()
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        writeln!(
            f,
            "    {{\"workload\": \"{}\", \"executor\": \"{}\", \"shards\": 1, \
             \"wall_ms\": {:.3}, \"speedup_vs_expr_row\": {:.3}}}{}",
            json_escape_free(row.workload),
            json_escape_free(row.executor),
            row.wall_ms,
            row.speedup_vs_row,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// Kernel-granularity resolve microbench: one collapsing projection (the whole plan is a
/// single merge of duplicate-heavy contributions), timed under hash accumulation (row
/// interpreter) and radix partition + per-partition sort (the columnar path; the merge
/// is far above the radix threshold). Both are asserted bitwise identical before timing
/// is reported.
fn resolve_microbench(data: &WeightedDataset<Rec>, reps: usize, rows: &mut Vec<Row>) {
    let x = Expr::input;
    let source = Plan::<Rec>::source_expr("records");
    let expr_form = source.select_expr::<Rec>(Expr::tuple(vec![
        x().field(0).rem(Expr::u64(512)),
        x().field(1).rem(Expr::u64(64)),
    ]));
    let w = workload("resolve-merge", data, source.clone(), source, expr_form);

    let leg = |columnar: bool| {
        set_columnar_override(Some(columnar));
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..reps {
            out = Some(timed(&mut best, || {
                w.dynamic
                    .plan
                    .eval_opt(&w.dyn_bindings, &SequentialExecutor, OptimizeLevel::None)
            }));
        }
        set_columnar_override(None);
        (best, canon(&out.expect("at least one rep")))
    };
    let (hash_ms, hash_out) = leg(false);
    let (radix_ms, radix_out) = leg(true);
    assert_eq!(
        radix_out, hash_out,
        "resolve-merge: radix diverged from hash"
    );

    let mut table = Table::new([
        "resolve strategy".to_string(),
        "wall ms".to_string(),
        "speedup vs hash".to_string(),
    ]);
    for (name, ms) in [("hash", hash_ms), ("radix", radix_ms)] {
        table.row(vec![
            name.to_string(),
            fmt_f(ms, 2),
            format!("{:.2}x", hash_ms / ms),
        ]);
        rows.push(Row {
            workload: "resolve-merge",
            executor: name,
            wall_ms: ms,
            speedup_vs_row: hash_ms / ms,
        });
    }
    table.print();
    println!();
}

/// Colwire codec microbench: encode and decode the whole dataset as one frame, reporting
/// wall time and wire density (bytes per row; the JSON release form is ~an order of
/// magnitude wider). The decode is asserted bit-exact against the input rows.
fn colwire_microbench(data: &WeightedDataset<Rec>, reps: usize, rows: &mut Vec<Row>) {
    let pairs: Vec<(Value, f64)> = dataset_to_values(data)
        .iter()
        .map(|(record, weight)| (record.clone(), weight))
        .collect();
    let ty = pairs.first().expect("non-empty dataset").0.type_of();
    let mut encode_ms = f64::INFINITY;
    let mut decode_ms = f64::INFINITY;
    let (mut frame, mut back) = (None, None);
    for _ in 0..reps {
        frame = Some(timed(&mut encode_ms, || {
            let batch = ColumnBatch::from_pairs(ty.clone(), pairs.iter().map(|(v, w)| (v, *w)));
            wpinq::colwire::encode_batch(&batch.expect("shape-consistent rows"))
        }));
        let bytes = frame.as_ref().unwrap();
        back = Some(timed(&mut decode_ms, || {
            wpinq::colwire::decode_batch(bytes)
                .expect("self-decode")
                .to_pairs()
        }));
    }
    let frame = frame.expect("at least one rep");
    let back = back.expect("at least one rep");
    assert_eq!(back.len(), pairs.len(), "colwire dropped rows");
    for ((v0, w0), (v1, w1)) in pairs.iter().zip(&back) {
        assert_eq!(v0, v1, "colwire perturbed a record");
        assert_eq!(w0.to_bits(), w1.to_bits(), "colwire perturbed weight bits");
    }
    let bytes_per_row = frame.len() as f64 / pairs.len() as f64;

    let mut table = Table::new([
        "colwire".to_string(),
        "wall ms".to_string(),
        "bytes/row".to_string(),
    ]);
    table.row(vec![
        "encode".to_string(),
        fmt_f(encode_ms, 2),
        fmt_f(bytes_per_row, 1),
    ]);
    table.row(vec![
        "decode".to_string(),
        fmt_f(decode_ms, 2),
        fmt_f(bytes_per_row, 1),
    ]);
    table.print();
    println!();

    rows.push(Row {
        workload: "colwire-codec",
        executor: "encode",
        wall_ms: encode_ms,
        speedup_vs_row: 1.0,
    });
    rows.push(Row {
        workload: "colwire-codec",
        executor: "decode",
        wall_ms: decode_ms,
        speedup_vs_row: 1.0,
    });
}

fn main() {
    let args = HarnessArgs::from_env();
    let mode = if args.full_scale { "full" } else { "quick" };
    let reps = if args.full_scale { 3 } else { 5 };
    let len = if args.full_scale { 400_000 } else { 60_000 };
    let data = pair_dataset(len);
    heading(&format!(
        "Vectorized expression evaluation ({mode}: {} records; best of {reps})",
        data.len()
    ));

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new([
        "workload".to_string(),
        "closure ms".to_string(),
        "expr-row ms".to_string(),
        "expr-columnar ms".to_string(),
        "columnar speedup".to_string(),
    ]);

    for w in workloads(&data) {
        // Interleave the three legs inside each rep so they sample the same machine
        // state: per-leg best-of over sequential blocks lets a load spike during one
        // leg masquerade as a speedup (or regression) of another.
        let mut closure_ms = f64::INFINITY;
        let mut row_ms = f64::INFINITY;
        let mut col_ms = f64::INFINITY;
        let (mut typed_out, mut row_out, mut col_out) = (None, None, None);
        for _ in 0..reps {
            typed_out = Some(timed(&mut closure_ms, || {
                w.typed
                    .eval_opt(&w.typed_bindings, &SequentialExecutor, OptimizeLevel::None)
            }));
            set_columnar_override(Some(false));
            row_out = Some(timed(&mut row_ms, || {
                w.dynamic
                    .plan
                    .eval_opt(&w.dyn_bindings, &SequentialExecutor, OptimizeLevel::None)
            }));
            set_columnar_override(Some(true));
            col_out = Some(timed(&mut col_ms, || {
                w.dynamic
                    .plan
                    .eval_opt(&w.dyn_bindings, &SequentialExecutor, OptimizeLevel::None)
            }));
            set_columnar_override(None);
        }
        let (typed_out, row_out, col_out) = (
            typed_out.expect("at least one rep"),
            row_out.expect("at least one rep"),
            col_out.expect("at least one rep"),
        );

        let reference = canon(&dataset_to_values(&typed_out));
        assert_eq!(
            canon(&row_out),
            reference,
            "{}: expr-row diverged from closures",
            w.name
        );
        assert_eq!(
            canon(&col_out),
            reference,
            "{}: expr-columnar diverged from closures",
            w.name
        );

        let speedup = row_ms / col_ms;
        rows.push(Row {
            workload: w.name,
            executor: "closure",
            wall_ms: closure_ms,
            speedup_vs_row: row_ms / closure_ms,
        });
        rows.push(Row {
            workload: w.name,
            executor: "expr-row",
            wall_ms: row_ms,
            speedup_vs_row: 1.0,
        });
        rows.push(Row {
            workload: w.name,
            executor: "expr-columnar",
            wall_ms: col_ms,
            speedup_vs_row: speedup,
        });
        table.row(vec![
            w.name.to_string(),
            fmt_f(closure_ms, 2),
            fmt_f(row_ms, 2),
            fmt_f(col_ms, 2),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();
    println!();

    resolve_microbench(&data, reps, &mut rows);
    colwire_microbench(&data, reps, &mut rows);

    let path = args.out.as_deref().unwrap_or("BENCH_vector.json");
    match write_json(path, mode, &rows) {
        Ok(()) => println!("wrote {path} ({} rows)", rows.len()),
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
    println!("All engines returned bitwise-identical datasets (asserted per workload).");
}
