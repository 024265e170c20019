//! The pluggable backend layer: *how* a plan is executed, separated from *what* it
//! computes.
//!
//! A [`Plan`](super::Plan) is pure IR; privacy accounting flows from its structure and is
//! independent of the engine that folds it over data (compare ProvSQL's split between
//! semiring annotation and evaluation). The seam is **two-sided**, because a plan has two
//! execution modes:
//!
//! * **Batch evaluation** plugs in through [`Executor`]:
//!   [`SequentialExecutor`] (the reference single-threaded fold through
//!   `wpinq_core::operators`) or [`ShardedExecutor`] (hash-partitioned shard-parallel
//!   kernels, `wpinq_core::shard`, dispatching on the process-shared
//!   [`WorkerPool`](wpinq_core::shard::WorkerPool) for its shard count).
//! * **Incremental lowering** plugs in through [`IncrementalEngine`]: the sequential
//!   `wpinq_dataflow::Stream` graph, or the hash-partitioned
//!   [`ShardedStream`](wpinq_dataflow::ShardedStream) engine whose per-operator delta
//!   kernels exchange deltas only at GroupBy/Join boundaries.
//!
//! [`Backend`] pairs the two sides, so front ends ([`Queryable`](crate::Queryable), the
//! MCMC `SynthesisConfig`) carry *one* strategy handle covering both the measurement
//! phase and the synthesis walk. Every strategy on both sides is **bitwise identical** to
//! its sequential reference, so callers can switch backends freely — including
//! mid-experiment — without perturbing released measurements or scorer trajectories.
//! Future backends named by the ROADMAP (a persisted/off-core state store) land behind
//! this same trait.
//!
//! Defaults come from environment variables: `WPINQ_THREADS` (batch side, via
//! [`default_executor`]) and `WPINQ_INC_SHARDS` (incremental side, via
//! [`IncrementalEngine::from_env`]); [`default_backend`] pairs both.

use std::sync::Arc;

/// Environment variable selecting the default shard/thread count (`1` = sequential).
pub const THREADS_ENV: &str = "WPINQ_THREADS";

/// Environment variable selecting the default incremental engine: unset or `0` is the
/// sequential `Stream` graph, `n ≥ 1` is the sharded engine with `n` state shards (`1`
/// exercises the sharded machinery single-shard).
pub const INC_SHARDS_ENV: &str = "WPINQ_INC_SHARDS";

/// A batch execution strategy for plans.
///
/// The trait is object-safe so front ends can hold `Arc<dyn Executor>`; the plan walker
/// dispatches on [`shard_count`](Executor::shard_count) (1 = the sequential fold, n > 1 =
/// the shard-parallel path). Strategies that cannot be expressed as a shard count will
/// extend this trait when they land; today the shard count *is* the strategy.
pub trait Executor: std::fmt::Debug + Send + Sync {
    /// How many hash shards (= worker threads) this executor evaluates over.
    fn shard_count(&self) -> usize;

    /// Short human-readable strategy name for logs and diagnostics.
    fn name(&self) -> &'static str;
}

/// The single-threaded reference strategy: folds the operator DAG through the sequential
/// batch kernels, one node at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn shard_count(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// The shard-parallel strategy: hash-partitions sources into `n` shards and evaluates
/// every operator on `n` worker threads, producing bitwise-identical results to
/// [`SequentialExecutor`].
///
/// Every evaluation dispatches onto the process-shared
/// [`WorkerPool`](wpinq_core::shard::WorkerPool) for the shard count, so steady-state
/// query evaluation spawns zero threads.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    shards: usize,
}

/// Upper bound on shard counts ([`ShardedExecutor::new`] clamps to it). Each shard is a
/// pool worker thread, so a typo like `WPINQ_THREADS=200000` must degrade to a
/// large-but-survivable fan-out instead of aborting at the OS thread limit. Deliberate
/// oversharding (more shards than cores, as the equivalence tests do) stays possible.
pub const MAX_SHARDS: usize = 256;

impl ShardedExecutor {
    /// Creates an executor with the given shard count (clamped to `1..=`[`MAX_SHARDS`]).
    /// Single-shard executors take the sequential evaluation path.
    pub fn new(shards: usize) -> Self {
        ShardedExecutor {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// Reads the shard count from [`THREADS_ENV`], following the same opt-in policy as
    /// [`default_executor`]: when the variable is unset or unparsable the count is 1 (a
    /// single-shard evaluation — parallelism never switches on silently). Callers that
    /// explicitly want every core can pass [`available_threads`] to [`new`](Self::new).
    pub fn from_env() -> Self {
        ShardedExecutor::new(threads_from_env().unwrap_or(1))
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Executor for ShardedExecutor {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

// ---------------------------------------------------------------------------------------
// The incremental side of the seam
// ---------------------------------------------------------------------------------------

/// Which incremental engine a plan lowers onto — the second side of the [`Backend`] seam.
///
/// Both engines propagate delta batches **bitwise identically** (canonical consolidation
/// at every exchange, canonical `L1Scorer` batch merges), so the choice only affects
/// wall-clock time and memory layout — never a score or a release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalEngine {
    /// The single-threaded `wpinq_dataflow::Stream` graph (the reference engine).
    Sequential,
    /// The hash-partitioned [`ShardedStream`](wpinq_dataflow::ShardedStream) engine with
    /// the given number of state shards (clamped to `1..=`[`MAX_SHARDS`]).
    Sharded(usize),
}

impl IncrementalEngine {
    /// The engine selected by [`INC_SHARDS_ENV`]: unset, unparsable or `0` is
    /// [`Sequential`](Self::Sequential) (parallelism never switches on silently),
    /// `n ≥ 1` is [`Sharded`](Self::Sharded)`(n)`.
    pub fn from_env() -> Self {
        match std::env::var(INC_SHARDS_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => IncrementalEngine::Sharded(n.min(MAX_SHARDS)),
            _ => IncrementalEngine::Sequential,
        }
    }

    /// The engine for an explicit shard-count knob: `0` defers to the environment
    /// ([`from_env`](Self::from_env)), `n ≥ 1` is the sharded engine with `n` shards.
    /// (Use [`IncrementalEngine::Sequential`] directly for the sequential graph.)
    pub fn for_shards(shards: usize) -> Self {
        match shards {
            0 => IncrementalEngine::from_env(),
            n => IncrementalEngine::Sharded(n.min(MAX_SHARDS)),
        }
    }

    /// How many state shards the engine keeps (1 for the sequential graph).
    pub fn shard_count(&self) -> usize {
        match self {
            IncrementalEngine::Sequential => 1,
            IncrementalEngine::Sharded(n) => (*n).clamp(1, MAX_SHARDS),
        }
    }

    /// Short human-readable engine name for logs and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            IncrementalEngine::Sequential => "seq-inc",
            IncrementalEngine::Sharded(_) => "sharded-inc",
        }
    }
}

/// A two-sided execution backend: a batch [`Executor`] strategy paired with an
/// [`IncrementalEngine`] lowering strategy.
///
/// Object-safe so front ends can hold `Arc<dyn Backend>`. The two canonical executors
/// implement it directly (pairing each batch strategy with its incremental twin at the
/// same shard count); [`PairedBackend`] mixes and matches.
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// The batch-evaluation side.
    fn executor(&self) -> Arc<dyn Executor>;

    /// The incremental-lowering side.
    fn incremental(&self) -> IncrementalEngine;

    /// Short human-readable backend name.
    fn name(&self) -> &'static str;
}

impl Backend for SequentialExecutor {
    fn executor(&self) -> Arc<dyn Executor> {
        Arc::new(SequentialExecutor)
    }

    fn incremental(&self) -> IncrementalEngine {
        IncrementalEngine::Sequential
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

impl Backend for ShardedExecutor {
    fn executor(&self) -> Arc<dyn Executor> {
        Arc::new(self.clone())
    }

    fn incremental(&self) -> IncrementalEngine {
        IncrementalEngine::Sharded(self.shards)
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

/// An explicit pairing of a batch executor with an incremental engine, for callers that
/// want the two sides configured independently (e.g. sharded batch measurement feeding a
/// sequential MCMC walk).
#[derive(Debug, Clone)]
pub struct PairedBackend {
    batch: Arc<dyn Executor>,
    incremental: IncrementalEngine,
}

impl PairedBackend {
    /// Pairs the given strategies.
    pub fn new(batch: Arc<dyn Executor>, incremental: IncrementalEngine) -> Self {
        PairedBackend { batch, incremental }
    }
}

impl Backend for PairedBackend {
    fn executor(&self) -> Arc<dyn Executor> {
        self.batch.clone()
    }

    fn incremental(&self) -> IncrementalEngine {
        self.incremental
    }

    fn name(&self) -> &'static str {
        "paired"
    }
}

/// The process-default backend: [`default_executor`] (`WPINQ_THREADS`) on the batch side
/// paired with [`IncrementalEngine::from_env`] (`WPINQ_INC_SHARDS`) on the incremental
/// side.
pub fn default_backend() -> Arc<dyn Backend> {
    Arc::new(PairedBackend::new(
        default_executor(),
        IncrementalEngine::from_env(),
    ))
}

/// The machine's available hardware parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-default executor: [`ShardedExecutor`] with `WPINQ_THREADS` shards when the
/// variable requests more than one, [`SequentialExecutor`] otherwise (including when the
/// variable is unset — parallelism is opt-in so single-measurement workloads never pay
/// thread-spawn overhead silently).
pub fn default_executor() -> Arc<dyn Executor> {
    match threads_from_env() {
        Some(n) if n > 1 => Arc::new(ShardedExecutor::new(n)),
        _ => Arc::new(SequentialExecutor),
    }
}

/// An executor for an explicit thread-count knob: `0` defers to [`default_executor`]
/// (i.e. `WPINQ_THREADS`), `1` is sequential, `n > 1` is `n`-way sharded.
pub fn executor_for_threads(threads: usize) -> Arc<dyn Executor> {
    match threads {
        0 => default_executor(),
        1 => Arc::new(SequentialExecutor),
        n => Arc::new(ShardedExecutor::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_are_clamped_and_reported() {
        assert_eq!(SequentialExecutor.shard_count(), 1);
        assert_eq!(ShardedExecutor::new(0).shard_count(), 1);
        assert_eq!(ShardedExecutor::new(8).shard_count(), 8);
        assert_eq!(Executor::name(&ShardedExecutor::new(8)), "sharded");
        // A fat-fingered thread count degrades instead of exhausting OS threads.
        assert_eq!(ShardedExecutor::new(200_000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn backends_pair_batch_and_incremental_sides() {
        assert_eq!(
            Backend::incremental(&SequentialExecutor),
            IncrementalEngine::Sequential
        );
        assert_eq!(
            Backend::incremental(&ShardedExecutor::new(4)),
            IncrementalEngine::Sharded(4)
        );
        assert_eq!(Backend::executor(&ShardedExecutor::new(4)).shard_count(), 4);
        let mixed = PairedBackend::new(
            Arc::new(ShardedExecutor::new(2)),
            IncrementalEngine::Sequential,
        );
        assert_eq!(mixed.executor().shard_count(), 2);
        assert_eq!(mixed.incremental(), IncrementalEngine::Sequential);
        assert_eq!(mixed.name(), "paired");
        assert_eq!(
            IncrementalEngine::for_shards(3),
            IncrementalEngine::Sharded(3)
        );
        assert_eq!(
            IncrementalEngine::Sharded(500_000).shard_count(),
            MAX_SHARDS
        );
        assert_eq!(IncrementalEngine::Sequential.shard_count(), 1);
        assert_ne!(
            IncrementalEngine::Sequential.name(),
            IncrementalEngine::Sharded(2).name()
        );
    }

    #[test]
    fn explicit_thread_knob_maps_to_strategies() {
        assert_eq!(executor_for_threads(1).shard_count(), 1);
        assert_eq!(executor_for_threads(4).shard_count(), 4);
        assert_eq!(executor_for_threads(4).name(), "sharded");
        // 0 defers to the environment; whatever it resolves to is a valid executor.
        assert!(executor_for_threads(0).shard_count() >= 1);
    }
}
