//! Columnar operator kernels for `Value`-typed datasets: batch-at-a-time twins of the
//! row-at-a-time operator kernels in `wpinq-core`, driven by compiled [`ExprProgram`]s.
//!
//! Every kernel here is **bitwise-neutral by construction**: it produces exactly the same
//! multiset of `(record, weight)` contributions as its row twin, and resolves them through
//! the same canonical accumulation (`wpinq_core::accumulate`), whose results depend only
//! on that multiset. Concretely:
//!
//! - [`select`] pushes one contribution per input row into a [`Contributions`] — the same
//!   multiset `batch::select` pushes record-at-a-time.
//! - [`filter`] re-adds the (globally unique) passing input rows with untouched weights.
//! - [`select_many_unit`] reproduces the per-record production *dataset* of the row path:
//!   productions are deduplicated per row and contribute `count · weight / max(1, k)`
//!   (`k` productions sum to an exact integer norm, so the scale is bit-identical).
//! - [`group_by`] evaluates keys columnar but keeps the row kernel's canonical group
//!   order (weight-descending, record-ascending) and prefix-halving emission verbatim.
//! - [`join`] evaluates both key columns columnar and reuses the row kernel's
//!   asymmetric build/probe core and two-level canonical accumulation.
//!
//! The sharded variants mirror the exchange discipline of `wpinq_core::shard`, but move
//! [`ColumnBatch`] segments (struct-of-arrays slices) between workers where the row path
//! moves `Vec<(Value, f64)>` buckets; destinations fold segments into the same canonical
//! accumulators, so shard results stay bitwise identical too.
//!
//! Kernels return `None` whenever the columnar representation cannot hold the data (an
//! empty dataset with no shape to infer, a shape-inconsistent dataset, a compile
//! failure); the caller falls back to the row path, so enabling the columnar path can
//! change performance but never results.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashMap;

use wpinq_core::accumulate::{canonical_norm, Contributions};
use wpinq_core::column::{cmp_rows, ColumnBatch, ColumnData};
use wpinq_core::dataset::WeightedDataset;
use wpinq_core::operators::{join_build_probe, key_accumulator};
use wpinq_core::shard::{shard_of, ShardedDataset, WorkerPool};
use wpinq_core::value::{Value, ValueType};
use wpinq_core::weights;
use wpinq_telemetry::metrics::Counter;
use wpinq_telemetry::registry;

use crate::expr::Expr;
use crate::program::ExprProgram;
use crate::spec::ReduceSpec;

/// Environment toggle for the columnar path: set to `0` to force row-at-a-time
/// evaluation everywhere (any other value, or unset, leaves it on).
pub const COLUMNAR_ENV: &str = "WPINQ_COLUMNAR";

/// Process-wide override: 0 = defer to the environment, 1 = forced off, 2 = forced on.
static COLUMNAR_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the [`COLUMNAR_ENV`] toggle for this process (`None` restores deference to
/// the environment). Lets tests and benches flip paths without racing on `set_var`.
pub fn set_columnar_override(enabled: Option<bool>) {
    let code = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    COLUMNAR_OVERRIDE.store(code, Ordering::Relaxed);
}

/// Whether `Value`-typed expression operators should try the columnar kernels.
pub fn columnar_enabled() -> bool {
    match COLUMNAR_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var(COLUMNAR_ENV).map_or(true, |v| v != "0"),
    }
}

/// Registry name of the counter of `(record, weight)` contribution rows resolved into
/// canonical per-record totals, labeled by `strategy="radix" | "sort_merge" | "hash"`.
pub const RESOLVED_ROWS_METRIC: &str = "wpinq_resolved_rows_total";

/// Resolution strategy label: radix partition + per-partition grouping.
pub const STRATEGY_RADIX: &str = "radix";
/// Resolution strategy label: full packed-key sort + run scan.
pub const STRATEGY_SORT_MERGE: &str = "sort_merge";
/// Resolution strategy label: hash-based `Contributions` accumulation (the fallback for
/// shapes with no packed form).
pub const STRATEGY_HASH: &str = "hash";

/// The process-global counter handle for one `wpinq_resolved_rows_total` strategy
/// series, created on first use. Exposed so per-operator tracing can snapshot the
/// series with an atomic load instead of a locked registry lookup per frame.
pub fn resolved_rows_counter(strategy: &'static str) -> &'static Arc<Counter> {
    static RADIX: OnceLock<Arc<Counter>> = OnceLock::new();
    static SORT_MERGE: OnceLock<Arc<Counter>> = OnceLock::new();
    static HASH: OnceLock<Arc<Counter>> = OnceLock::new();
    let slot = match strategy {
        STRATEGY_RADIX => &RADIX,
        STRATEGY_SORT_MERGE => &SORT_MERGE,
        _ => &HASH,
    };
    slot.get_or_init(|| {
        registry().counter(
            RESOLVED_ROWS_METRIC,
            &[("strategy", strategy)],
            "Weighted contribution rows resolved into canonical record totals, by resolution strategy",
        )
    })
}

fn note_resolved_rows(strategy: &'static str, rows: usize) {
    if rows > 0 {
        resolved_rows_counter(strategy).add(rows as u64);
    }
}

/// Compiles `expr` against the shape of `data`'s records. `None` when the dataset is
/// empty (no shape), shape-inconsistent, or the expression does not type-check against
/// the observed shape.
fn batch_and_program(
    data: &WeightedDataset<Value>,
    expr: &Expr,
) -> Option<(ColumnBatch, ExprProgram)> {
    let batch = ColumnBatch::from_dataset(data)?;
    let program = ExprProgram::compile(expr, batch.ty()).ok()?;
    Some((batch, program))
}

// ---------------------------------------------------------------------------------------
// Packed-key canonical merge
// ---------------------------------------------------------------------------------------

/// Maximum number of primitive leaves a record shape may have for the packed-key
/// canonical merge; wider shapes fall back to hash-based accumulation.
const MAX_PACKED_LEAVES: usize = 4;

/// Number of packable leaves in `ty` (`Unit` leaves carry no data and pack to nothing);
/// `None` when the shape is too wide to pack.
fn packed_leaves(ty: &ValueType) -> Option<usize> {
    let n = match ty {
        ValueType::Unit => 0,
        ValueType::Bool | ValueType::U64 | ValueType::I64 => 1,
        ValueType::Tuple(items) => {
            let mut total = 0usize;
            for item in items {
                total += packed_leaves(item)?;
            }
            total
        }
    };
    (n <= MAX_PACKED_LEAVES).then_some(n)
}

/// Per-leaf scalar kind — the rebuild-side mirror of [`LeafCol`].
#[derive(Clone, Copy)]
enum LeafKind {
    Bool,
    U64,
    I64,
}

/// Rebuilds one leaf `Value` from its packed key word (inverting the pack-side remap:
/// `i64` ← offset binary, `bool` ← 0/1).
fn leaf_value(kind: LeafKind, word: u64) -> Value {
    match kind {
        LeafKind::Bool => Value::Bool(word != 0),
        LeafKind::U64 => Value::U64(word),
        LeafKind::I64 => Value::I64((word ^ (1u64 << 63)) as i64),
    }
}

/// Precomputed rebuild plan for one merge: flat shapes — a scalar, or a tuple of
/// scalars, the norm on the wire path — turn each group key back into a `Value` with
/// straight-line code; nested shapes fall back to the recursive [`unpack_row`].
enum Rebuild<'a> {
    Unit,
    Scalar(LeafKind),
    FlatTuple(Vec<LeafKind>),
    General(&'a ValueType),
}

impl<'a> Rebuild<'a> {
    fn of(ty: &'a ValueType) -> Self {
        fn scalar_kind(ty: &ValueType) -> Option<LeafKind> {
            match ty {
                ValueType::Bool => Some(LeafKind::Bool),
                ValueType::U64 => Some(LeafKind::U64),
                ValueType::I64 => Some(LeafKind::I64),
                ValueType::Unit | ValueType::Tuple(_) => None,
            }
        }
        match ty {
            ValueType::Unit => Rebuild::Unit,
            ValueType::Tuple(items) => match items.iter().map(scalar_kind).collect() {
                Some(kinds) => Rebuild::FlatTuple(kinds),
                None => Rebuild::General(ty),
            },
            _ => match scalar_kind(ty) {
                Some(kind) => Rebuild::Scalar(kind),
                None => Rebuild::General(ty),
            },
        }
    }

    fn value(&self, key: &[u64]) -> Value {
        match self {
            Rebuild::Unit => Value::Unit,
            Rebuild::Scalar(kind) => leaf_value(*kind, key[0]),
            Rebuild::FlatTuple(kinds) => Value::Tuple(
                kinds
                    .iter()
                    .zip(key)
                    .map(|(&kind, &word)| leaf_value(kind, word))
                    .collect(),
            ),
            Rebuild::General(ty) => {
                let mut slot = 0;
                unpack_row(ty, key, &mut slot)
            }
        }
    }
}

/// `f64` bits remapped so ascending `u64` order is exactly [`f64::total_cmp`] order.
fn weight_order_key(weight: f64) -> u64 {
    let bits = weight.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

/// Inverse of [`weight_order_key`] — the remap is a bijection on the weight's bits, so
/// the sort key carries the weight itself and the scan never indexes back into the
/// (post-sort, randomly permuted) source segments.
fn weight_from_order_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key ^ (1u64 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// Rebuilds a record of shape `ty` from its packed preorder leaves — the inverse of
/// the per-leaf pack loops in [`merge_packed`]. Every packable leaf round-trips
/// exactly (`Unit` carries no bits).
fn unpack_row(ty: &ValueType, key: &[u64], slot: &mut usize) -> Value {
    match ty {
        ValueType::Unit => Value::Unit,
        ValueType::Bool => {
            let v = key[*slot] != 0;
            *slot += 1;
            Value::Bool(v)
        }
        ValueType::U64 => {
            let v = key[*slot];
            *slot += 1;
            Value::U64(v)
        }
        ValueType::I64 => {
            let v = (key[*slot] ^ (1u64 << 63)) as i64;
            *slot += 1;
            Value::I64(v)
        }
        ValueType::Tuple(items) => Value::Tuple(
            items
                .iter()
                .map(|item| unpack_row(item, key, slot))
                .collect(),
        ),
    }
}

/// Canonically merges `(record, weight)` contributions held as column segments into a
/// [`WeightedDataset`], bitwise-equal to pushing every row through [`Contributions`]:
/// rows sort by packed record key then by weight in `total_cmp` order, so each
/// equal-record run sums its weights starting from `0.0` in exactly the
/// `canonical_sum` order, negligible totals are dropped exactly as `into_dataset`
/// drops them, and only one `Value` materializes per distinct record — no per-row
/// allocation or hashing. Both halves of the sort item are invertible, so the scan is a
/// single sequential pass with no random access back into the segments. `None` when the
/// shape is too wide to pack (the caller keeps the hash-based accumulator).
fn merge_segments_canonical(
    ty: &ValueType,
    parts: &[(&ColumnData, &[f64])],
) -> Option<WeightedDataset<Value>> {
    let leaves = packed_leaves(ty)?;
    let total: usize = parts.iter().map(|(_, weights)| weights.len()).sum();
    // Monomorphize on the key width: most record shapes pack into one or two words, and
    // narrow sort items roughly halve the dominant sort cost.
    match leaves {
        0 | 1 => Some(merge_packed::<1>(ty, parts, total)),
        2 => Some(merge_packed::<2>(ty, parts, total)),
        _ => Some(merge_packed::<MAX_PACKED_LEAVES>(ty, parts, total)),
    }
}

/// One packable leaf column, flattened out of the nested [`ColumnData`] shape so the
/// pack loop runs per-leaf over primitive slices instead of re-walking the shape tree
/// per row. Leaves fill their key slots in preorder, each remapped so ascending `u64`
/// order matches the leaf's `Value` order (`i64` → offset binary, `bool` → 0/1); all
/// rows of a batch share one shape, so lexicographic comparison of packed keys orders
/// records exactly and equal keys imply equal records.
enum LeafCol<'a> {
    Bool(&'a [bool]),
    U64(&'a [u64]),
    I64(&'a [i64]),
}

fn collect_leaf_cols<'a>(cols: &'a ColumnData, out: &mut Vec<LeafCol<'a>>) {
    match cols {
        ColumnData::Unit => {}
        ColumnData::Bool(col) => out.push(LeafCol::Bool(col)),
        ColumnData::U64(col) => out.push(LeafCol::U64(col)),
        ColumnData::I64(col) => out.push(LeafCol::I64(col)),
        ColumnData::Tuple(items) => {
            for item in items {
                collect_leaf_cols(item, out);
            }
        }
    }
}

/// Number of radix buckets the partitioner scatters packed rows into (2^11 keeps the
/// whole bucket table in L1/L2 while cutting per-bucket sorts to ~rows/2048 elements).
const RADIX_BUCKETS: usize = 1 << 11;

/// Below this row count the counting pass plus bucket-table traversal costs more than
/// the saved comparisons; small merges keep the plain sort.
const RADIX_MIN_ROWS: usize = 4 * RADIX_BUCKETS;

thread_local! {
    /// Reused bucket tables of the radix partitioner (counts and the head/end cursors of
    /// the in-place permutation): a per-thread scratch arena, so steady-state
    /// partitioning allocates nothing.
    static RADIX_SCRATCH: RefCell<RadixScratch> = RefCell::new(RadixScratch::default());
}

#[derive(Default)]
struct RadixScratch {
    counts: Vec<usize>,
    heads: Vec<usize>,
    ends: Vec<usize>,
}

/// The bucket of one packed key: a rotate-fold of all key words, masked to the **low**
/// bits. Low bits because real key distributions (`x % 4096` bench keys, small graph
/// node ids) often have constant high words, which would degenerate a high-bits digit
/// into a single bucket; the fold keeps multi-word keys spread too. Equal keys fold
/// equally, so a key group can never straddle buckets — the only property correctness
/// needs.
#[inline]
fn radix_bucket<const N: usize>(key: &[u64; N]) -> usize {
    let mut folded = 0u64;
    let mut i = 0;
    while i < N {
        folded ^= key[i].rotate_left(23 * i as u32);
        i += 1;
    }
    (folded as usize) & (RADIX_BUCKETS - 1)
}

/// Groups `rows` so that every equal-key run is contiguous and internally sorted by
/// `(key, weight order key)` — exactly what the canonical scan consumes — without a full
/// O(n log n) sort: one counting pass, one in-place American-flag permutation into
/// [`RADIX_BUCKETS`] buckets, then an unstable sort of each (much shorter) bucket.
///
/// Cross-bucket order differs from a full sort (buckets are fold order, not key order),
/// which is invisible downstream: groups are emitted into hash-keyed datasets and every
/// consumer of dataset iteration order re-canonicalizes or sorts before anything is
/// released, so released bytes depend only on the group *totals* — and those are
/// bitwise identical because each group is resolved by the very same scan.
fn radix_group<const N: usize>(rows: &mut [([u64; N], u64)]) {
    RADIX_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let RadixScratch {
            counts,
            heads,
            ends,
        } = &mut *scratch;
        counts.clear();
        counts.resize(RADIX_BUCKETS, 0);
        for row in rows.iter() {
            counts[radix_bucket(&row.0)] += 1;
        }
        heads.clear();
        ends.clear();
        let mut offset = 0usize;
        for &count in counts.iter() {
            heads.push(offset);
            offset += count;
            ends.push(offset);
        }
        // In-place permutation: within bucket `b`, repeatedly route the row at the head
        // cursor to its home bucket's head. Every swap finalizes one row, so the loop is
        // O(n) swaps total; when bucket `b` completes, all earlier buckets already have.
        for b in 0..RADIX_BUCKETS {
            while heads[b] < ends[b] {
                let i = heads[b];
                let dest = radix_bucket(&rows[i].0);
                if dest == b {
                    heads[b] += 1;
                } else {
                    rows.swap(i, heads[dest]);
                    heads[dest] += 1;
                }
            }
        }
        let mut start = 0usize;
        for &end in ends.iter() {
            if end - start > 1 {
                rows[start..end].sort_unstable();
            }
            start = end;
        }
    });
}

/// Makes every equal-key run of `rows` contiguous and internally weight-ordered: the
/// radix partitioner when the input is large enough to amortize its bucket table, the
/// plain packed-key sort otherwise. Both orderings feed the scan identical
/// groups with identical within-group weight order, so the choice is invisible in
/// results.
fn group_packed_rows<const N: usize>(rows: &mut [([u64; N], u64)]) {
    if rows.len() >= RADIX_MIN_ROWS {
        radix_group(rows);
        note_resolved_rows(STRATEGY_RADIX, rows.len());
    } else {
        rows.sort_unstable();
        note_resolved_rows(STRATEGY_SORT_MERGE, rows.len());
    }
}

/// The canonical run scan over grouped packed rows: each equal-key run sums its weights
/// starting from `0.0` in `total_cmp` order, a single contribution keeps its raw bits
/// (mirroring `Contribution::One`), and negligible totals are dropped exactly as
/// `Contributions::into_dataset` drops them. Calls `emit(key, total)` once per surviving
/// group.
fn scan_packed_groups<const N: usize>(
    rows: &[([u64; N], u64)],
    mut emit: impl FnMut(&[u64; N], f64),
) {
    let mut start = 0;
    while start < rows.len() {
        let key = rows[start].0;
        let mut end = start;
        let mut sum = 0.0f64;
        while end < rows.len() && rows[end].0 == key {
            sum += weight_from_order_key(rows[end].1);
            end += 1;
        }
        // A single contribution resolves to its own bits (`Contribution::One` skips the
        // `0.0`-seeded canonical fold; the two differ for `-0.0`, which is negligible
        // anyway, but mirror the row path exactly).
        if end == start + 1 {
            sum = weight_from_order_key(rows[start].1);
        }
        if !weights::is_negligible(sum) {
            emit(&key, sum);
        }
        start = end;
    }
}

fn merge_packed<const N: usize>(
    ty: &ValueType,
    parts: &[(&ColumnData, &[f64])],
    total: usize,
) -> WeightedDataset<Value> {
    let mut rows: Vec<([u64; N], u64)> = vec![([0u64; N], 0u64); total];
    let mut leaves: Vec<LeafCol<'_>> = Vec::new();
    let mut base = 0;
    for (cols, weights) in parts {
        leaves.clear();
        collect_leaf_cols(cols, &mut leaves);
        let segment = &mut rows[base..base + weights.len()];
        for (slot, leaf) in leaves.iter().enumerate() {
            match leaf {
                LeafCol::Bool(col) => {
                    for (row, &v) in segment.iter_mut().zip(*col) {
                        row.0[slot] = v as u64;
                    }
                }
                LeafCol::U64(col) => {
                    for (row, &v) in segment.iter_mut().zip(*col) {
                        row.0[slot] = v;
                    }
                }
                LeafCol::I64(col) => {
                    for (row, &v) in segment.iter_mut().zip(*col) {
                        row.0[slot] = (v as u64) ^ (1u64 << 63);
                    }
                }
            }
        }
        for (row, &weight) in segment.iter_mut().zip(*weights) {
            row.1 = weight_order_key(weight);
        }
        base += weights.len();
    }
    group_packed_rows(&mut rows);
    // Size the output table to the distinct-key count (one neighbor scan of the grouped
    // rows): merging stages shrink the domain sharply, and a table sized to the input
    // row count scatters its inserts across mostly-cold cache lines.
    let groups = if rows.is_empty() {
        0
    } else {
        1 + rows.windows(2).filter(|w| w[0].0 != w[1].0).count()
    };
    let rebuild = Rebuild::of(ty);
    let mut out = WeightedDataset::with_capacity(groups);
    scan_packed_groups(&rows, |key, sum| {
        out.set_weight(rebuild.value(key), sum);
    });
    out
}

// ---------------------------------------------------------------------------------------
// Batch kernels
// ---------------------------------------------------------------------------------------

/// Columnar `Select` (see `wpinq_core::operators::select`).
pub fn select(data: &WeightedDataset<Value>, expr: &Expr) -> Option<WeightedDataset<Value>> {
    if data.is_empty() {
        return Some(WeightedDataset::new());
    }
    let (batch, program) = batch_and_program(data, expr)?;
    let out = program.eval_batch(&batch);
    if let Some(merged) = merge_segments_canonical(program.out_ty(), &[(&out, batch.weights())]) {
        return Some(merged);
    }
    note_resolved_rows(STRATEGY_HASH, batch.len());
    let mut acc = Contributions::with_capacity(batch.len());
    for (i, &weight) in batch.weights().iter().enumerate() {
        acc.push(out.value_at(i), weight);
    }
    Some(acc.into_dataset())
}

/// Columnar `Where` (see `wpinq_core::operators::filter`): the predicate runs as a
/// selection mask; passing rows keep their identity and weight.
pub fn filter(data: &WeightedDataset<Value>, expr: &Expr) -> Option<WeightedDataset<Value>> {
    if data.is_empty() {
        return Some(WeightedDataset::new());
    }
    let (batch, program) = batch_and_program(data, expr)?;
    let mask = program.eval_mask(batch.columns(), batch.len());
    // Input records are distinct, so the output size is exactly the mask's pass count;
    // sizing the table to the input would scatter inserts across mostly-cold lines.
    let passing = mask.iter().filter(|&&keep| keep).count();
    let mut out = WeightedDataset::with_capacity(passing);
    for (i, &keep) in mask.iter().enumerate() {
        if keep {
            out.add_weight(batch.value_at(i), batch.weights()[i]);
        }
    }
    Some(out)
}

/// Deduplicated productions of one row: for each distinct produced value, the index of
/// its first producing program and its multiplicity.
fn distinct_productions(out_cols: &[ColumnData], row: usize, scratch: &mut Vec<(usize, f64)>) {
    scratch.clear();
    'produced: for j in 0..out_cols.len() {
        for &mut (first, ref mut count) in scratch.iter_mut() {
            if cmp_rows(&out_cols[j], row, &out_cols[first], row).is_eq() {
                *count += 1.0;
                continue 'produced;
            }
        }
        scratch.push((j, 1.0));
    }
}

/// Columnar `SelectMany` over unit-weight productions (see
/// `wpinq_core::operators::select_many_unit`): each of the `k` expressions produces one
/// record per row; the row path builds a per-record dataset (deduplicating productions)
/// of exact integer norm `k`, so each distinct production contributes
/// `count · weight / max(1, k)` — reproduced here without materializing the dataset.
pub fn select_many_unit(
    data: &WeightedDataset<Value>,
    exprs: &[Expr],
) -> Option<WeightedDataset<Value>> {
    if exprs.is_empty() {
        // The row path normalises an empty production away entirely.
        return Some(WeightedDataset::new());
    }
    if data.is_empty() {
        return Some(WeightedDataset::new());
    }
    let batch = ColumnBatch::from_dataset(data)?;
    let programs = exprs
        .iter()
        .map(|e| ExprProgram::compile(e, batch.ty()).ok())
        .collect::<Option<Vec<_>>>()?;
    let out_cols: Vec<ColumnData> = programs.iter().map(|p| p.eval_batch(&batch)).collect();
    let norm = exprs.len() as f64;
    let mut acc = Contributions::with_capacity(batch.len());
    let mut distinct: Vec<(usize, f64)> = Vec::with_capacity(exprs.len());
    let mut pushed = 0usize;
    for (i, &weight) in batch.weights().iter().enumerate() {
        distinct_productions(&out_cols, i, &mut distinct);
        let scale = weight / norm.max(1.0);
        for &(j, count) in &distinct {
            acc.push(out_cols[j].value_at(i), count * scale);
        }
        pushed += distinct.len();
    }
    note_resolved_rows(STRATEGY_HASH, pushed);
    Some(acc.into_dataset())
}

/// Columnar `GroupBy` (see `wpinq_core::operators::group_by`): keys evaluate columnar;
/// partitioning, the canonical within-group order, and the prefix-halving emission are
/// verbatim the row kernel's. The dynamic reducer only inspects the prefix *length*, so
/// no prefix records are materialized at all.
pub fn group_by(
    data: &WeightedDataset<Value>,
    key: &Expr,
    reduce: &ReduceSpec,
) -> Option<WeightedDataset<(Value, Value)>> {
    if data.is_empty() {
        return Some(WeightedDataset::new());
    }
    let (batch, program) = batch_and_program(data, key)?;
    let keys = program.eval_batch(&batch);
    let mut parts: FxHashMap<Value, Vec<(usize, f64)>> = FxHashMap::default();
    for (i, &weight) in batch.weights().iter().enumerate() {
        if weight <= 0.0 {
            continue;
        }
        parts.entry(keys.value_at(i)).or_default().push((i, weight));
    }
    let mut out = WeightedDataset::new();
    for (k, mut members) in parts {
        // Non-increasing weight order; ties broken by record order (compared in place).
        members.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| cmp_rows(batch.columns(), a.0, batch.columns(), b.0))
        });
        for i in 0..members.len() {
            let next_weight = members.get(i + 1).map(|m| m.1).unwrap_or(0.0);
            let emitted = (members[i].1 - next_weight) / 2.0;
            if emitted > 0.0 && !weights::is_negligible(emitted) {
                let reduced = reduce.eval_count((i + 1) as u64);
                out.add_weight((k.clone(), reduced), emitted);
            }
        }
    }
    Some(out)
}

/// Columnar `Join` (see `wpinq_core::operators::join`): both key columns evaluate
/// columnar; the asymmetric build/probe core, per-key canonical denominators, and
/// two-level canonical accumulation are shared with the row kernel.
pub fn join(
    a: &WeightedDataset<Value>,
    b: &WeightedDataset<Value>,
    key_left: &Expr,
    key_right: &Expr,
    result: &Expr,
) -> Option<WeightedDataset<Value>> {
    if a.is_empty() || b.is_empty() {
        return Some(WeightedDataset::new());
    }
    let (batch_a, prog_a) = batch_and_program(a, key_left)?;
    let (batch_b, prog_b) = batch_and_program(b, key_right)?;
    // The result expression is checked once here (against the pair shape) so the
    // per-match scalar evaluation below can never fail.
    result
        .infer(&ValueType::Tuple(vec![
            batch_a.ty().clone(),
            batch_b.ty().clone(),
        ]))
        .ok()?;
    let mut out = Contributions::new();
    join_columnar_core(
        &batch_a,
        &prog_a,
        &batch_b,
        &prog_b,
        result,
        &mut |record, total| {
            out.push(record, total);
        },
    );
    Some(out.into_dataset())
}

/// Chunk size of the packed join's gather/eval loop: matches are buffered, gathered into
/// reused pair columns, and evaluated this many rows at a time, so each match costs a few
/// primitive pushes instead of a per-match `Value` tree build plus interpreter walk.
const JOIN_CHUNK: usize = 4096;

/// The shared columnar join core: evaluates keys for both batches, picks the smaller
/// side as the build side (exactly as the row kernels do), and feeds the resolved
/// per-(key, record) canonical totals to `sink` — the row kernel's level-1 accumulation,
/// with level 2 left to the caller.
///
/// When the key shape and the result shape both pack into `[u64]` words, the entire
/// build/probe/accumulate pipeline runs over packed words ([`join_packed`]): the hash
/// table is keyed by the words themselves and no `Value` materializes per probe or per
/// match. Otherwise the borrowing-probe fallback ([`join_fallback`]) runs the row
/// kernel's `join_build_probe` with one scratch row per matching probe record.
fn join_columnar_core(
    batch_a: &ColumnBatch,
    prog_a: &ExprProgram,
    batch_b: &ColumnBatch,
    prog_b: &ExprProgram,
    result: &Expr,
    sink: &mut dyn FnMut(Value, f64),
) {
    let keys_a_cols = prog_a.eval_batch(batch_a);
    let keys_b_cols = prog_b.eval_batch(batch_b);
    let pair_ty = ValueType::Tuple(vec![batch_a.ty().clone(), batch_b.ty().clone()]);
    // The caller type-checked `result` against the pair shape, so this cannot fail.
    let result_prog =
        ExprProgram::compile(result, &pair_ty).expect("result expression checked by caller");
    let build_is_a = batch_a.len() <= batch_b.len();
    let (build, probe) = if build_is_a {
        (batch_a, batch_b)
    } else {
        (batch_b, batch_a)
    };
    // Packed keys are only sound when both sides key by the *same* shape (distinct
    // shapes can collide after the order-preserving remap, where `Value`s never do).
    let packed_keys = (prog_a.out_ty() == prog_b.out_ty())
        .then(|| packed_leaves(prog_a.out_ty()))
        .flatten();
    if let Some(nk) = packed_keys {
        let keys_a = pack_rows(&keys_a_cols, batch_a.len());
        let keys_b = pack_rows(&keys_b_cols, batch_b.len());
        let (keys_build, keys_probe) = if build_is_a {
            (&keys_a, &keys_b)
        } else {
            (&keys_b, &keys_a)
        };
        if let Some(nr) = packed_leaves(result_prog.out_ty()) {
            // Monomorphize on the combined (key ‖ result) width; unused trailing words
            // stay zero and never perturb grouping.
            match nk + nr {
                0 | 1 => join_packed::<1>(
                    build,
                    keys_build,
                    probe,
                    keys_probe,
                    nk,
                    &result_prog,
                    build_is_a,
                    sink,
                ),
                2 => join_packed::<2>(
                    build,
                    keys_build,
                    probe,
                    keys_probe,
                    nk,
                    &result_prog,
                    build_is_a,
                    sink,
                ),
                3 | 4 => join_packed::<4>(
                    build,
                    keys_build,
                    probe,
                    keys_probe,
                    nk,
                    &result_prog,
                    build_is_a,
                    sink,
                ),
                _ => join_packed::<8>(
                    build,
                    keys_build,
                    probe,
                    keys_probe,
                    nk,
                    &result_prog,
                    build_is_a,
                    sink,
                ),
            }
            return;
        }
        // Keys pack but the result shape does not: probe the packed words, evaluate
        // results row-at-a-time through the borrowing probe.
        join_fallback(
            build, probe, keys_build, keys_probe, build_is_a, result, sink,
        );
        return;
    }
    let keys_a = materialize_rows(&keys_a_cols, batch_a.len());
    let keys_b = materialize_rows(&keys_b_cols, batch_b.len());
    let (keys_build, keys_probe) = if build_is_a {
        (&keys_a, &keys_b)
    } else {
        (&keys_b, &keys_a)
    };
    join_fallback(
        build, probe, keys_build, keys_probe, build_is_a, result, sink,
    );
}

/// Packs every row of a (≤ [`MAX_PACKED_LEAVES`]-leaf) column into fixed-width key words
/// in the order-preserving leaf remap of [`merge_packed`]; unused slots stay zero.
fn pack_rows(cols: &ColumnData, len: usize) -> Vec<[u64; MAX_PACKED_LEAVES]> {
    let mut out = vec![[0u64; MAX_PACKED_LEAVES]; len];
    let mut leaves: Vec<LeafCol<'_>> = Vec::new();
    collect_leaf_cols(cols, &mut leaves);
    for (slot, leaf) in leaves.iter().enumerate() {
        match leaf {
            LeafCol::Bool(col) => {
                for (row, &v) in out.iter_mut().zip(*col) {
                    row[slot] = v as u64;
                }
            }
            LeafCol::U64(col) => {
                for (row, &v) in out.iter_mut().zip(*col) {
                    row[slot] = v;
                }
            }
            LeafCol::I64(col) => {
                for (row, &v) in out.iter_mut().zip(*col) {
                    row[slot] = (v as u64) ^ (1u64 << 63);
                }
            }
        }
    }
    out
}

/// The fully packed join pipeline. Replicates `join_build_probe` word-for-word — build
/// side indexed by key, probe streamed twice, per-key canonical denominators
/// `‖build_k‖ + ‖probe_k‖` kept only when positive, per-match weight
/// `w_build · w_probe / denominator` — but the hash table probes the packed key words
/// directly and matches accumulate as packed `(key ‖ result, weight)` rows resolved by
/// the radix/sort scan, so grouping by packed row equals the row kernel's grouping by
/// `(key, record)` and every group total comes out bit-identical.
#[allow(clippy::too_many_arguments)]
fn join_packed<const NT: usize>(
    build: &ColumnBatch,
    keys_build: &[[u64; MAX_PACKED_LEAVES]],
    probe: &ColumnBatch,
    keys_probe: &[[u64; MAX_PACKED_LEAVES]],
    nk: usize,
    result_prog: &ExprProgram,
    build_is_left: bool,
    sink: &mut dyn FnMut(Value, f64),
) {
    let mut parts: FxHashMap<[u64; MAX_PACKED_LEAVES], Vec<u32>> = FxHashMap::default();
    for (i, key) in keys_build.iter().enumerate() {
        parts.entry(*key).or_default().push(i as u32);
    }
    if parts.is_empty() {
        return;
    }
    // Pass 1 over the probe side: per-key weight multisets, only for keys the build side
    // can match; then each key's canonical denominator.
    let mut probe_weights: FxHashMap<[u64; MAX_PACKED_LEAVES], Vec<f64>> = FxHashMap::default();
    for (i, key) in keys_probe.iter().enumerate() {
        if parts.contains_key(key) {
            probe_weights
                .entry(*key)
                .or_default()
                .push(probe.weights()[i]);
        }
    }
    let denominators: FxHashMap<[u64; MAX_PACKED_LEAVES], f64> = probe_weights
        .into_iter()
        .filter_map(|(key, weights)| {
            let build_part = &parts[&key];
            let denominator =
                canonical_norm(build_part.iter().map(|&i| build.weights()[i as usize]))
                    + canonical_norm(weights);
            (denominator > 0.0).then_some((key, denominator))
        })
        .collect();
    // Pass 2: chunked gather/eval. Each match appends one packed row up front (key words
    // and weight; result words are back-filled per chunk), and one (build, probe) index
    // pair into the chunk. At JOIN_CHUNK matches the pair columns gather from both
    // batches into a reused scratch arena and the result program evaluates the whole
    // chunk at once.
    let pair_ty = ValueType::Tuple(vec![
        if build_is_left { build } else { probe }.ty().clone(),
        if build_is_left { probe } else { build }.ty().clone(),
    ]);
    let mut pair_cols = ColumnData::with_capacity(&pair_ty, JOIN_CHUNK);
    let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(JOIN_CHUNK);
    let mut rows: Vec<([u64; NT], u64)> = Vec::new();
    for (pi, key) in keys_probe.iter().enumerate() {
        let Some(&denominator) = denominators.get(key) else {
            continue;
        };
        let w_probe = probe.weights()[pi];
        for &bi in &parts[key] {
            let weight = build.weights()[bi as usize] * w_probe / denominator;
            let mut row = [0u64; NT];
            row[..nk].copy_from_slice(&key[..nk]);
            rows.push((row, weight_order_key(weight)));
            chunk.push((bi, pi as u32));
            if chunk.len() == JOIN_CHUNK {
                flush_join_chunk(
                    build,
                    probe,
                    build_is_left,
                    result_prog,
                    nk,
                    &mut chunk,
                    &mut pair_cols,
                    &mut rows,
                );
            }
        }
    }
    flush_join_chunk(
        build,
        probe,
        build_is_left,
        result_prog,
        nk,
        &mut chunk,
        &mut pair_cols,
        &mut rows,
    );
    // Resolve per-(key, record) groups — level 1 of the row kernel's two-level canonical
    // accumulation — and hand each surviving total to the caller (level 2).
    group_packed_rows(&mut rows);
    let rebuild = Rebuild::of(result_prog.out_ty());
    scan_packed_groups(&rows, |key, sum| {
        sink(rebuild.value(&key[nk..]), sum);
    });
}

/// Gathers the buffered chunk's pair rows into the reused scratch columns, evaluates the
/// result program over the whole chunk, and back-fills the packed result words of the
/// chunk's tail of `rows`.
#[allow(clippy::too_many_arguments)]
fn flush_join_chunk<const NT: usize>(
    build: &ColumnBatch,
    probe: &ColumnBatch,
    build_is_left: bool,
    result_prog: &ExprProgram,
    nk: usize,
    chunk: &mut Vec<(u32, u32)>,
    pair_cols: &mut ColumnData,
    rows: &mut [([u64; NT], u64)],
) {
    if chunk.is_empty() {
        return;
    }
    pair_cols.clear();
    {
        let ColumnData::Tuple(children) = &mut *pair_cols else {
            unreachable!("pair columns are a two-field tuple group");
        };
        let (left, right) = children.split_at_mut(1);
        let (left, right) = (&mut left[0], &mut right[0]);
        for &(bi, pi) in chunk.iter() {
            let (l_batch, li, r_batch, ri) = if build_is_left {
                (build, bi as usize, probe, pi as usize)
            } else {
                (probe, pi as usize, build, bi as usize)
            };
            left.push_row_from(l_batch.columns(), li);
            right.push_row_from(r_batch.columns(), ri);
        }
    }
    let out = result_prog.eval(pair_cols, chunk.len());
    let tail = rows.len() - chunk.len();
    let segment = &mut rows[tail..];
    let mut leaves: Vec<LeafCol<'_>> = Vec::new();
    collect_leaf_cols(&out, &mut leaves);
    for (offset, leaf) in leaves.iter().enumerate() {
        let slot = nk + offset;
        match leaf {
            LeafCol::Bool(col) => {
                for (row, &v) in segment.iter_mut().zip(*col) {
                    row.0[slot] = v as u64;
                }
            }
            LeafCol::U64(col) => {
                for (row, &v) in segment.iter_mut().zip(*col) {
                    row.0[slot] = v;
                }
            }
            LeafCol::I64(col) => {
                for (row, &v) in segment.iter_mut().zip(*col) {
                    row.0[slot] = (v as u64) ^ (1u64 << 63);
                }
            }
        }
    }
    chunk.clear();
}

/// The borrowing-probe fallback for shapes with no packed form: the row kernel's
/// `join_build_probe` over precomputed keys, with only the (smaller) build side's values
/// materialized up front. Each matching probe record materializes **one** scratch row,
/// reused across all of that record's matches — never a full probe-side row
/// materialization.
fn join_fallback<K: Clone + Eq + std::hash::Hash>(
    build: &ColumnBatch,
    probe: &ColumnBatch,
    keys_build: &[K],
    keys_probe: &[K],
    build_is_left: bool,
    result: &Expr,
    sink: &mut dyn FnMut(Value, f64),
) {
    let rows_build: Vec<usize> = (0..build.len()).collect();
    let rows_probe: Vec<usize> = (0..probe.len()).collect();
    let vals_build = materialize_rows(build.columns(), build.len());
    let mut per_key: FxHashMap<K, Contributions<Value>> = FxHashMap::default();
    let mut matches = 0usize;
    join_build_probe(
        rows_build.iter().map(|i| (i, build.weights()[*i])),
        rows_probe.iter().map(|i| (i, probe.weights()[*i])),
        &|i: &usize| keys_build[*i].clone(),
        &|i: &usize| keys_probe[*i].clone(),
        |key, part, pi, w_probe, denominator| {
            let probe_val = probe.value_at(*pi);
            let acc = key_accumulator(&mut per_key, key);
            for (bi, w_build) in part {
                let pair = if build_is_left {
                    Value::Tuple(vec![vals_build[**bi].clone(), probe_val.clone()])
                } else {
                    Value::Tuple(vec![probe_val.clone(), vals_build[**bi].clone()])
                };
                acc.push(result.eval(&pair), w_build * w_probe / denominator);
            }
            matches += part.len();
        },
    );
    note_resolved_rows(STRATEGY_HASH, matches);
    for (_, contributions) in per_key {
        for (record, total) in contributions.into_dataset() {
            sink(record, total);
        }
    }
}

fn materialize_rows(col: &ColumnData, len: usize) -> Vec<Value> {
    (0..len).map(|i| col.value_at(i)).collect()
}

// ---------------------------------------------------------------------------------------
// Sharded kernels
// ---------------------------------------------------------------------------------------

/// The record shape of a sharded dataset, from its first record (`None` when empty).
fn sharded_ty(data: &ShardedDataset<Value>) -> Option<ValueType> {
    data.shards()
        .iter()
        .flat_map(|s| s.records())
        .next()
        .map(Value::type_of)
}

fn empty_shards<T: wpinq_core::Record>(n: usize) -> ShardedDataset<T> {
    ShardedDataset::from_shards(vec![WeightedDataset::new(); n])
}

/// Builds one columnar batch per shard (in shard iteration order); `None` when any shard
/// holds a record that does not match `ty`.
fn shard_batches(data: &ShardedDataset<Value>, ty: &ValueType) -> Option<Vec<ColumnBatch>> {
    data.shards()
        .iter()
        .map(|shard| ColumnBatch::from_pairs(ty.clone(), shard.iter()))
        .collect()
}

/// Transposes per-producer column segments and canonically accumulates each destination
/// shard — the columnar twin of the row exchange, fed by struct-of-arrays segments
/// instead of `Vec<(Value, f64)>` buckets.
fn exchange_segments(routed: Vec<Vec<ColumnBatch>>, pool: &WorkerPool) -> ShardedDataset<Value> {
    let n = routed.first().map(Vec::len).expect("at least one producer");
    let mut by_dest: Vec<Vec<ColumnBatch>> = (0..n).map(|_| Vec::new()).collect();
    for producer in routed {
        debug_assert_eq!(producer.len(), n);
        for (dest, segment) in producer.into_iter().enumerate() {
            by_dest[dest].push(segment);
        }
    }
    let shards = pool.map(by_dest, |_, segments| {
        if let Some(ty) = segments.first().map(|s| s.ty().clone()) {
            let parts: Vec<(&ColumnData, &[f64])> = segments
                .iter()
                .map(|s| (s.columns(), s.weights()))
                .collect();
            if let Some(merged) = merge_segments_canonical(&ty, &parts) {
                return merged;
            }
        }
        note_resolved_rows(
            STRATEGY_HASH,
            segments.iter().map(ColumnBatch::len).sum::<usize>(),
        );
        let mut acc = Contributions::new();
        for segment in &segments {
            for i in 0..segment.len() {
                acc.push(segment.value_at(i), segment.weights()[i]);
            }
        }
        acc.into_dataset()
    });
    ShardedDataset::from_shards(shards)
}

/// Transposes per-producer row buckets and canonically accumulates each destination (the
/// row exchange, for kernels whose outputs are not plain `Value` records).
fn exchange_rows<T: wpinq_core::Record>(
    routed: Vec<Vec<Vec<(T, f64)>>>,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    let n = routed.first().map(Vec::len).expect("at least one producer");
    let mut by_dest: Vec<Vec<Vec<(T, f64)>>> = (0..n).map(|_| Vec::new()).collect();
    for producer in routed {
        debug_assert_eq!(producer.len(), n);
        for (dest, bucket) in producer.into_iter().enumerate() {
            by_dest[dest].push(bucket);
        }
    }
    let shards = pool.map(by_dest, |_, buckets| {
        let mut acc = Contributions::new();
        for bucket in buckets {
            for (record, weight) in bucket {
                acc.push(record, weight);
            }
        }
        acc.into_dataset()
    });
    ShardedDataset::from_shards(shards)
}

/// Sharded columnar `Select`: each worker evaluates its shard's program column, routes
/// output rows by output-record hash into per-destination [`ColumnBatch`] segments, and
/// the exchange folds segments into canonical accumulators.
pub fn select_sharded(
    data: &ShardedDataset<Value>,
    expr: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<Value>> {
    let n = data.num_shards();
    let Some(ty) = sharded_ty(data) else {
        return Some(empty_shards(n));
    };
    let program = ExprProgram::compile(expr, &ty).ok()?;
    let batches = shard_batches(data, &ty)?;
    let out_ty = program.out_ty().clone();
    let routed = pool.for_each(n, |index| {
        let batch = &batches[index];
        let out = program.eval_batch(batch);
        let mut segments: Vec<ColumnBatch> =
            (0..n).map(|_| ColumnBatch::new(out_ty.clone())).collect();
        for (i, &weight) in batch.weights().iter().enumerate() {
            let value = out.value_at(i);
            segments[shard_of(&value, n)].push_projected(&out, i, weight);
        }
        segments
    });
    Some(exchange_segments(routed, pool))
}

/// Sharded columnar `Where`: masks are shard-local (record identity survives), so the
/// partitioning is preserved and no exchange happens — exactly like the row path.
pub fn filter_sharded(
    data: &ShardedDataset<Value>,
    expr: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<Value>> {
    let n = data.num_shards();
    let Some(ty) = sharded_ty(data) else {
        return Some(empty_shards(n));
    };
    let program = ExprProgram::compile(expr, &ty).ok()?;
    let batches = shard_batches(data, &ty)?;
    let shards = pool.for_each(n, |index| {
        let batch = &batches[index];
        let mask = program.eval_mask(batch.columns(), batch.len());
        let mut out = WeightedDataset::with_capacity(batch.len());
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                out.add_weight(batch.value_at(i), batch.weights()[i]);
            }
        }
        out
    });
    Some(ShardedDataset::from_shards(shards))
}

/// Sharded columnar `SelectMany`: per-shard columnar production with per-row
/// deduplication (see [`select_many_unit`]), routed by output hash as column segments.
pub fn select_many_unit_sharded(
    data: &ShardedDataset<Value>,
    exprs: &[Expr],
    pool: &WorkerPool,
) -> Option<ShardedDataset<Value>> {
    let n = data.num_shards();
    if exprs.is_empty() {
        return Some(empty_shards(n));
    }
    let Some(ty) = sharded_ty(data) else {
        return Some(empty_shards(n));
    };
    let programs = exprs
        .iter()
        .map(|e| ExprProgram::compile(e, &ty).ok())
        .collect::<Option<Vec<_>>>()?;
    let out_ty = programs[0].out_ty().clone();
    if programs.iter().any(|p| p.out_ty() != &out_ty) {
        return None;
    }
    let batches = shard_batches(data, &ty)?;
    let norm = exprs.len() as f64;
    let routed = pool.for_each(n, |index| {
        let batch = &batches[index];
        let out_cols: Vec<ColumnData> = programs.iter().map(|p| p.eval_batch(batch)).collect();
        let mut segments: Vec<ColumnBatch> =
            (0..n).map(|_| ColumnBatch::new(out_ty.clone())).collect();
        let mut distinct: Vec<(usize, f64)> = Vec::with_capacity(programs.len());
        for (i, &weight) in batch.weights().iter().enumerate() {
            distinct_productions(&out_cols, i, &mut distinct);
            let scale = weight / norm.max(1.0);
            for &(j, count) in &distinct {
                let value = out_cols[j].value_at(i);
                segments[shard_of(&value, n)].push_projected(&out_cols[j], i, count * scale);
            }
        }
        segments
    });
    Some(exchange_segments(routed, pool))
}

/// Sharded columnar `GroupBy`: inputs are exchanged by columnar-evaluated **key** hash as
/// column segments, each destination runs the batch kernel on its complete key groups,
/// and outputs are exchanged by record hash — the row path's discipline throughout.
pub fn group_by_sharded(
    data: &ShardedDataset<Value>,
    key: &Expr,
    reduce: &ReduceSpec,
    pool: &WorkerPool,
) -> Option<ShardedDataset<(Value, Value)>> {
    let n = data.num_shards();
    let Some(ty) = sharded_ty(data) else {
        return Some(empty_shards(n));
    };
    let program = ExprProgram::compile(key, &ty).ok()?;
    let batches = shard_batches(data, &ty)?;
    // Exchange inputs by key hash (each record moves with its exact weight; records are
    // globally unique, so no accumulation happens and segments concatenate losslessly).
    let routed = pool.for_each(n, |index| {
        let batch = &batches[index];
        let keys = program.eval_batch(batch);
        let mut segments: Vec<ColumnBatch> = (0..n).map(|_| ColumnBatch::new(ty.clone())).collect();
        for i in 0..batch.len() {
            segments[shard_of(&keys.value_at(i), n)].push_row_from(batch, i);
        }
        segments
    });
    let mut by_dest: Vec<Vec<ColumnBatch>> = (0..n).map(|_| Vec::new()).collect();
    for producer in routed {
        for (dest, segment) in producer.into_iter().enumerate() {
            by_dest[dest].push(segment);
        }
    }
    // Each worker reduces its complete key groups, then routes outputs by record hash.
    let produced = pool.map(by_dest, |_, segments| {
        let part = WeightedDataset::from_pairs(
            segments
                .iter()
                .flat_map(|s| (0..s.len()).map(move |i| (s.value_at(i), s.weights()[i]))),
        );
        let grouped = group_by(&part, key, reduce).expect("shape verified by segment build");
        let mut routes: Vec<Vec<((Value, Value), f64)>> = (0..n).map(|_| Vec::new()).collect();
        for (record, weight) in grouped {
            routes[shard_of(&record, n)].push((record, weight));
        }
        routes
    });
    Some(exchange_rows(produced, pool))
}

/// Sharded columnar `Join`: both inputs are exchanged by columnar-evaluated key hash as
/// column segments; each destination joins its complete key groups through the shared
/// build/probe core; outputs are exchanged by record hash.
pub fn join_sharded(
    a: &ShardedDataset<Value>,
    b: &ShardedDataset<Value>,
    key_left: &Expr,
    key_right: &Expr,
    result: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<Value>> {
    let n = a.num_shards();
    if n != b.num_shards() {
        return None;
    }
    if a.is_empty() || b.is_empty() {
        return Some(empty_shards(n));
    }
    let (ty_a, ty_b) = (sharded_ty(a)?, sharded_ty(b)?);
    let prog_a = ExprProgram::compile(key_left, &ty_a).ok()?;
    let prog_b = ExprProgram::compile(key_right, &ty_b).ok()?;
    result
        .infer(&ValueType::Tuple(vec![ty_a.clone(), ty_b.clone()]))
        .ok()?;

    // Route one side's rows to destinations by key hash, as column segments.
    let route_side = |data: &ShardedDataset<Value>,
                      ty: &ValueType,
                      program: &ExprProgram|
     -> Option<Vec<ColumnBatch>> {
        let batches = shard_batches(data, ty)?;
        let routed = pool.for_each(n, |index| {
            let batch = &batches[index];
            let keys = program.eval_batch(batch);
            let mut segments: Vec<ColumnBatch> =
                (0..n).map(|_| ColumnBatch::new(ty.clone())).collect();
            for i in 0..batch.len() {
                segments[shard_of(&keys.value_at(i), n)].push_row_from(batch, i);
            }
            segments
        });
        // Concatenate per-destination segments (producer order, like the row path's
        // bucket `extend`) into one batch per destination.
        let mut by_dest: Vec<ColumnBatch> = (0..n).map(|_| ColumnBatch::new(ty.clone())).collect();
        for producer in routed {
            for (dest, segment) in producer.into_iter().enumerate() {
                for i in 0..segment.len() {
                    by_dest[dest].push_row_from(&segment, i);
                }
            }
        }
        Some(by_dest)
    };
    let a_by_key = route_side(a, &ty_a, &prog_a)?;
    let b_by_key = route_side(b, &ty_b, &prog_b)?;

    let produced = pool.map(
        a_by_key.into_iter().zip(b_by_key).collect::<Vec<_>>(),
        |_, (batch_a, batch_b)| {
            let mut routes: Vec<Vec<(Value, f64)>> = (0..n).map(|_| Vec::new()).collect();
            join_columnar_core(
                &batch_a,
                &prog_a,
                &batch_b,
                &prog_b,
                result,
                &mut |record, total| {
                    routes[shard_of(&record, n)].push((record, total));
                },
            );
            routes
        },
    );
    Some(exchange_rows(produced, pool))
}
