//! # wpinq-dataflow — incremental query evaluation for wPINQ
//!
//! Section 4.3 of the paper describes the engine that makes MCMC-based probabilistic
//! inference practical: every wPINQ query is compiled into a data-parallel dataflow whose
//! operators respond to *small changes* in their inputs by emitting small changes in their
//! outputs, so an MCMC step (one edge swap in a candidate graph) costs a delta-update
//! rather than a from-scratch re-execution.
//!
//! This crate provides:
//!
//! * [`Delta`] — a `(record, ±weight)` change, plus helpers to consolidate batches of them.
//! * [`operators`] — incremental implementations of every wPINQ transformation. Stateless
//!   operators (`Select`, `Where`, `SelectMany`, `Concat`, `Except`) map deltas directly;
//!   keyed stateful operators (`Join`, `GroupBy`, `Shave`, `Union`, `Intersect`) index
//!   their inputs by key and recompute only the affected keys, exactly the "data-parallel,
//!   only changed parts are reprocessed" strategy of Appendix B.
//! * [`stream`] — a small push-based dataflow builder ([`Stream`]) that wires those
//!   operators into a DAG mirroring a wPINQ query, with [`CollectedOutput`] sinks and
//!   [`L1Scorer`] sinks that maintain `‖Q(A) − m‖₁` incrementally (the quantity the MCMC
//!   acceptance test needs).
//! * [`sharded`] — the hash-partitioned parallel twin of [`stream`]: [`ShardedStream`]
//!   carries delta batches partitioned by record hash, stateful operators shard their
//!   state by key hash and recompute affected keys on the long-lived
//!   [`wpinq_core::shard::WorkerPool`] (channel-fed workers; zero thread spawns in steady
//!   state), and deltas are exchanged only at `GroupBy`/`Join` boundaries. Batches below
//!   a per-operator cutover ([`sharded::DEFAULT_INLINE_CUTOVER`], calibrated by the plan
//!   lowering) run inline. Propagation is **bitwise identical** to the sequential graph
//!   (canonical consolidation at every exchange, canonical `L1Scorer` batch merges), so
//!   the MCMC walk can switch engines freely.
//!
//! Correctness contract: pushing any sequence of deltas through a dataflow leaves every
//! sink equal to the corresponding *batch* operator applied to the accumulated input. The
//! property tests in `tests/equivalence.rs` check this against the `wpinq-core` kernels
//! for every operator, for composed pipelines, and for random multi-operator `Plan`s from
//! the `wpinq` IR (whose incremental lowering targets this crate's [`Stream`] graph).
//!
//! Layering note: this crate depends only on `wpinq-core` (data model + batch kernels).
//! Analysts normally do not wire `Stream`s by hand; they define a `wpinq::plan::Plan`
//! once and lower it here, which guarantees the incremental computation runs the same
//! query the batch evaluator (and the privacy accountant) saw.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod operators;
pub mod scorer;
pub mod sharded;
pub mod stream;

pub use delta::{consolidate, diff_datasets, Delta};
pub use scorer::L1Scorer;
pub use sharded::{
    ShardedDeltas, ShardedInput, ShardedStream, DEFAULT_INLINE_CUTOVER, EXCHANGES_METRIC,
};
pub use stream::{CollectedOutput, DataflowInput, ScorerHandle, Stream};
