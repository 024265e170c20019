//! Property + scale tests: the packed-key resolvers of the columnar engine are **bitwise
//! invisible**.
//!
//! The columnar engine resolves contribution rows into canonical per-record totals over
//! packed `[u64; N]` keys, by size: a radix partition + per-partition sort for merges of
//! at least ~8k rows, a global packed-key sort-merge below that. The row interpreter
//! resolves the same contributions by hash-map accumulation. Both columnar resolutions
//! must produce the row interpreter's weighted dataset down to the last float bit, over
//! random plan shapes, duplicate-heavy keys, negative and negligible weights, across
//! executors {sequential, 2 shards, 8 shards}.
//!
//! The random-plan property stays small, so its merges take the sort-merge; the scale
//! test pushes tens of thousands of rows through one merge so the radix partitioner
//! really runs. Each asserts through `wpinq_resolved_rows_total{strategy}` that its
//! resolver actually ran.

use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;

use wpinq::expr::{set_columnar_override, STRATEGY_HASH, STRATEGY_RADIX, STRATEGY_SORT_MERGE};
use wpinq::plan::{
    dataset_to_values, plan_from_spec, Executor, OptimizeLevel, PlanBindings, SequentialExecutor,
    ShardedExecutor,
};
use wpinq::{Expr, Plan, ReduceSpec, Value, WeightedDataset};

type Rec = (u64, u64);

/// Restores the process-wide columnar override on scope exit, including the early
/// returns `prop_assert!` failures take.
struct OverrideGuard;

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_columnar_override(None);
    }
}

/// Rows resolved so far by one `wpinq_resolved_rows_total` strategy, process-wide.
fn resolved_rows(strategy: &str) -> u64 {
    wpinq_telemetry::registry()
        .counter_value_with(wpinq::expr::RESOLVED_ROWS_METRIC, &[("strategy", strategy)])
        .unwrap_or(0)
}

/// A random delta-built dataset: duplicate-heavy low-cardinality keys, weights that are
/// negative, positive, occasionally huge, and occasionally so small that totals land
/// below the negligibility threshold and must be dropped identically by every resolver.
fn skewed_dataset() -> impl Strategy<Value = WeightedDataset<Rec>> {
    // (selector, raw) maps to the weight regime: mostly moderate, sometimes a
    // sub-negligibility sliver, sometimes huge.
    let delta = (0u8..6, -2.0f64..2.0).prop_map(|(selector, raw)| match selector {
        4 => raw * 5e-14,
        5 => raw * 5e5,
        _ => raw,
    });
    proptest::collection::vec(((0u64..8, 0u64..4), delta), 1..60).prop_map(|deltas| {
        let mut data = WeightedDataset::new();
        for (record, delta) in deltas {
            data.add_weight(record, delta);
        }
        data
    })
}

fn canon(data: &WeightedDataset<Value>) -> Vec<(Value, u64)> {
    let mut rows: Vec<(Value, u64)> = data
        .iter()
        .map(|(record, weight)| (record.clone(), weight.to_bits()))
        .collect();
    rows.sort();
    rows
}

/// A join/group-by plan whose packed-key merges carry every weight the operators can
/// produce: rescaled join weights, grouped counts, negated branches.
fn resolver_heavy_plan(source: &Plan<Rec>, k: u64) -> Plan<Rec> {
    let x = Expr::input;
    let joined = source.join_expr::<Rec, u64, Rec>(
        source,
        x().field(0).rem(Expr::u64(1 + k)),
        x().field(1).rem(Expr::u64(1 + k)),
        Expr::tuple(vec![x().field(0).field(0), x().field(1).field(1)]),
    );
    let grouped = joined
        .group_by_expr::<u64, u64>(
            x().field(0).rem(Expr::u64(2 + k)),
            ReduceSpec::CountThen(Expr::input()),
        )
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]));
    grouped.except(&source.filter_expr(x().field(0).rem(Expr::u64(2)).eq(Expr::u64(0))))
}

/// Serializes evaluations: the columnar override and the strategy counters are
/// process-wide, and the tests of this binary run in parallel.
static ENGINE: Mutex<()> = Mutex::new(());

/// Evaluates `plan` over `data` through the columnar kernels (`columnar`) or the row
/// interpreter (hash accumulation everywhere). Returns the bitwise-comparable rows and
/// how many contribution rows `strategy` resolved during this evaluation (exact, since
/// every evaluation in this binary holds [`ENGINE`]).
fn run(
    plan: &Plan<Rec>,
    data: &WeightedDataset<Rec>,
    executor: &dyn Executor,
    columnar: bool,
    strategy: &str,
) -> (Vec<(Value, u64)>, u64) {
    let spec = plan.to_spec().expect("expression-built plans serialize");
    let rebuilt = plan_from_spec(&spec).expect("validated spec rebuilds");
    let mut bindings = PlanBindings::new();
    for dyn_source in &rebuilt.sources {
        bindings.bind_shared(
            &dyn_source.plan,
            std::sync::Arc::new(dataset_to_values(data)),
        );
    }
    let _engine = ENGINE.lock().unwrap_or_else(PoisonError::into_inner);
    let before = resolved_rows(strategy);
    set_columnar_override(Some(columnar));
    let out = rebuilt
        .plan
        .eval_opt(&bindings, executor, OptimizeLevel::Full);
    set_columnar_override(None);
    (canon(&out), resolved_rows(strategy) - before)
}

/// Random plans through the columnar kernels match the row interpreter bitwise. Driven
/// by `run_property` directly (the body of `proptest!`) so the sort-merge count can be
/// checked once after every case has run: a single case may resolve nothing (its data
/// can cancel to empty).
#[test]
fn radix_sort_merge_and_hash_resolutions_are_bitwise_identical() {
    let _restore = OverrideGuard;
    let mut sort_merged = 0;
    proptest::run_property("packed_resolutions", 32, |rng, _| {
        let k = (0u64..5).generate(rng);
        let data = skewed_dataset().generate(rng);
        let source = Plan::<Rec>::source_expr("records");
        let plan = resolver_heavy_plan(&source, k);

        let sharded2 = ShardedExecutor::new(2);
        let sharded8 = ShardedExecutor::new(8);
        let executors: [&dyn Executor; 3] = [&SequentialExecutor, &sharded2, &sharded8];
        for executor in executors {
            let (columnar, rows) = run(&plan, &data, executor, true, STRATEGY_SORT_MERGE);
            sort_merged += rows;
            prop_assert_eq!(
                columnar,
                run(&plan, &data, executor, false, STRATEGY_HASH).0,
                "columnar resolution drifted from hash accumulation ({} shards)",
                executor.shard_count()
            );
        }
    });
    assert!(
        sort_merged > 0,
        "the property must exercise the packed sort-merge"
    );
}

/// Enough rows through one merge that the radix partitioner actually engages (its
/// threshold is ~8k rows per merge): a 30k-row dataset with duplicate-heavy keys,
/// sign-mixed weights, and exact-cancellation pairs whose totals must be dropped as
/// negligible by every resolver.
#[test]
fn radix_partitioner_is_bitwise_invisible_at_scale() {
    let _restore = OverrideGuard;
    let mut data = WeightedDataset::new();
    for i in 0u64..30_000 {
        let record = (i % 4096, i % 7);
        let weight = match i % 5 {
            0 => 1.25,
            1 => -0.75,
            2 => 1e-14,
            3 => (i % 97) as f64 * 0.5,
            _ => -((i % 89) as f64) * 0.25,
        };
        data.add_weight(record, weight);
        if i % 11 == 0 {
            // An exact-cancellation pair: this record's total must vanish identically.
            data.add_weight((i % 4096 + 5000, i % 7), 2.0);
            data.add_weight((i % 4096 + 5000, i % 7), -2.0);
        }
    }

    let source = Plan::<Rec>::source_expr("records");
    let x = Expr::input;
    // Select + group-by keeps one merge large (no key-space collapse before merging).
    let plan = source
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]))
        .group_by_expr::<u64, u64>(x().field(0), ReduceSpec::CountThen(Expr::input()))
        .select_expr::<Rec>(Expr::tuple(vec![x().field(0), x().field(1)]));

    let sharded2 = ShardedExecutor::new(2);
    let executors: [&dyn Executor; 2] = [&SequentialExecutor, &sharded2];
    for executor in executors {
        let (hash, _) = run(&plan, &data, executor, false, STRATEGY_HASH);
        let (radix, radixed) = run(&plan, &data, executor, true, STRATEGY_RADIX);
        assert!(
            radixed > 0,
            "the dataset must be large enough that the radix partitioner actually runs"
        );
        assert_eq!(
            radix,
            hash,
            "radix drifted from hash at scale ({} shards)",
            executor.shard_count()
        );
    }
}
