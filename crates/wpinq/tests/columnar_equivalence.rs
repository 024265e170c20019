//! Property test: the columnar expression kernels are **bitwise invisible**.
//!
//! Random expression-built plans are run three ways over the same random dataset —
//! typed closures over `(u64, u64)` records, the dynamic `Value` path with the
//! row-at-a-time expression interpreter (`WPINQ_COLUMNAR` forced off), and the dynamic
//! path with the vectorized `ExprProgram` kernels (forced on) — across executors
//! {sequential, 2 shards, 8 shards} and optimize levels {none, full}. All three must
//! produce the same weighted dataset down to the last float bit: the columnar kernels
//! feed the same canonical accumulators the same contribution multisets, so any
//! divergence is a kernel bug, not noise.

use proptest::prelude::*;

use wpinq::expr::set_columnar_override;
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

/// A random delta-built dataset of pair records.
fn pair_dataset() -> impl Strategy<Value = WeightedDataset<Rec>> {
    proptest::collection::vec(((0u64..12, 0u64..6), -2.0f64..2.0), 1..40).prop_map(|deltas| {
        let mut data = WeightedDataset::new();
        for (record, delta) in deltas {
            data.add_weight(record, delta);
        }
        data
    })
}

/// One instruction of the random expression-plan builder (stack machine over
/// `Plan<(u64, u64)>`, every payload an expression).
#[derive(Debug, Clone)]
enum ExprOp {
    PushSource,
    Dup,
    Swap,
    AddConst(u64),
    Filter(u64),
    SelectMany,
    GroupBy(u64),
    Shave,
    Join(u64),
    Union,
    Intersect,
    Concat,
    Except,
}

fn expr_op() -> impl Strategy<Value = ExprOp> {
    (0u8..13, 1u64..5).prop_map(|(op, k)| match op {
        0 => ExprOp::PushSource,
        1 => ExprOp::Dup,
        2 => ExprOp::Swap,
        3 => ExprOp::AddConst(k),
        4 => ExprOp::Filter(k),
        5 => ExprOp::SelectMany,
        6 => ExprOp::GroupBy(k),
        7 => ExprOp::Shave,
        8 => ExprOp::Join(k),
        9 => ExprOp::Union,
        10 => ExprOp::Intersect,
        11 => ExprOp::Concat,
        _ => ExprOp::Except,
    })
}

fn build_plan(source: &Plan<Rec>, program: &[ExprOp]) -> Plan<Rec> {
    let x = Expr::input;
    let mut stack: Vec<Plan<Rec>> = vec![source.clone()];
    for op in program {
        match op {
            ExprOp::PushSource => stack.push(source.clone()),
            ExprOp::Dup => {
                let top = stack.last().expect("stack never empties").clone();
                stack.push(top);
            }
            ExprOp::Swap => {
                let top = stack.pop().unwrap();
                stack.push(top.select_expr::<Rec>(Expr::tuple(vec![x().field(1), x().field(0)])));
            }
            ExprOp::AddConst(k) => {
                let top = stack.pop().unwrap();
                stack.push(top.select_expr::<Rec>(Expr::tuple(vec![
                    x().field(0).add(Expr::u64(*k)),
                    x().field(1),
                ])));
            }
            ExprOp::Filter(k) => {
                let top = stack.pop().unwrap();
                stack.push(top.filter_expr(x().field(0).rem(Expr::u64(1 + *k)).ne(Expr::u64(0))));
            }
            ExprOp::SelectMany => {
                let top = stack.pop().unwrap();
                stack.push(top.select_many_unit_expr::<Rec>(vec![
                    Expr::tuple(vec![x().field(0), Expr::u64(0)]),
                    Expr::tuple(vec![x().field(1), Expr::u64(1)]),
                ]));
            }
            ExprOp::GroupBy(k) => {
                let top = stack.pop().unwrap();
                stack.push(top.group_by_expr::<u64, u64>(
                    x().field(0).rem(Expr::u64(1 + *k)),
                    ReduceSpec::CountThen(Expr::input()),
                ));
            }
            ExprOp::Shave => {
                let top = stack.pop().unwrap();
                stack.push(
                    top.shave_const(0.5)
                        .select_expr::<Rec>(Expr::tuple(vec![x().field(0).field(0), x().field(1)])),
                );
            }
            ExprOp::Join(k) => {
                if stack.len() < 2 {
                    continue;
                }
                let right = stack.pop().unwrap();
                let left = stack.pop().unwrap();
                stack.push(left.join_expr::<Rec, u64, Rec>(
                    &right,
                    x().field(0).rem(Expr::u64(1 + *k)),
                    x().field(0).rem(Expr::u64(1 + *k)),
                    Expr::tuple(vec![x().field(0).field(0), x().field(1).field(1)]),
                ));
            }
            ExprOp::Union | ExprOp::Intersect | ExprOp::Concat | ExprOp::Except => {
                if stack.len() < 2 {
                    continue;
                }
                let right = stack.pop().unwrap();
                let left = stack.pop().unwrap();
                stack.push(match op {
                    ExprOp::Union => left.union(&right),
                    ExprOp::Intersect => left.intersect(&right),
                    ExprOp::Concat => left.concat(&right),
                    _ => left.except(&right),
                });
            }
        }
    }
    stack.pop().expect("stack never empties")
}

/// A weighted dataset as sorted `(record, weight-bits)` rows: equality here is bitwise
/// equality of the dataset, independent of hash-map iteration order.
fn canon(data: &WeightedDataset<Value>) -> Vec<(Value, u64)> {
    let mut rows: Vec<(Value, u64)> = data
        .iter()
        .map(|(record, weight)| (record.clone(), weight.to_bits()))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn columnar_row_and_typed_evaluations_are_bitwise_identical(
        program in proptest::collection::vec(expr_op(), 1..10),
        data in pair_dataset(),
    ) {
        let _restore = OverrideGuard;

        let source = Plan::<Rec>::source_expr("records");
        let plan = build_plan(&source, &program);
        let spec = plan.to_spec().expect("expression-built plans serialize");
        let rebuilt = plan_from_spec(&spec).expect("validated spec rebuilds");

        let mut typed_bindings = PlanBindings::new();
        typed_bindings.bind(&source, data.clone());
        let mut dyn_bindings = PlanBindings::new();
        for dyn_source in &rebuilt.sources {
            dyn_bindings.bind_shared(
                &dyn_source.plan,
                std::sync::Arc::new(dataset_to_values(&data)),
            );
        }

        let sharded2 = ShardedExecutor::new(2);
        let sharded8 = ShardedExecutor::new(8);
        let executors: [&dyn Executor; 3] = [&SequentialExecutor, &sharded2, &sharded8];
        for executor in executors {
            for level in [OptimizeLevel::None, OptimizeLevel::Full] {
                // The typed plan carries expressions too, but its records are not
                // `Value`-shaped, so it always runs the closure row path.
                let typed = plan.eval_opt(&typed_bindings, executor, level);
                let reference = canon(&dataset_to_values(&typed));

                set_columnar_override(Some(false));
                let row = rebuilt.plan.eval_opt(&dyn_bindings, executor, level);
                set_columnar_override(Some(true));
                let columnar = rebuilt.plan.eval_opt(&dyn_bindings, executor, level);
                set_columnar_override(None);

                prop_assert_eq!(
                    canon(&row), reference.clone(),
                    "row interpreter drifted from typed closures ({} shards, {level})",
                    executor.shard_count()
                );
                prop_assert_eq!(
                    canon(&columnar), reference,
                    "columnar kernels drifted from typed closures ({} shards, {level})",
                    executor.shard_count()
                );
            }
        }
    }
}
