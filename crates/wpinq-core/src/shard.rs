//! Hash-sharded datasets and shard-parallel batch kernels.
//!
//! [`ShardedDataset<T>`] splits a [`WeightedDataset`] into `n` shards by a stable hash of
//! the record, with the invariant that **every record lives in the shard
//! `shard_of(record, n)` with its full, exactly-accumulated weight**. Each operator here
//! mirrors one sequential kernel in [`crate::operators`], evaluating shard-wise on worker
//! threads and *exchanging* (re-routing) records only where the operator requires it:
//!
//! * `Where` preserves record identity, so it runs shard-local with no exchange.
//! * The element-wise binary operators (`Union`, `Intersect`, `Concat`, `Except`) consume
//!   two datasets co-partitioned by the same record hash, so they also run shard-local.
//! * `Select`, `SelectMany` and `Shave` change the record, so their outputs are routed to
//!   the output record's shard.
//! * `GroupBy` and `Join` are the true exchange boundaries: inputs are first re-routed by
//!   *key* hash so each worker sees every record of its keys, then outputs are routed by
//!   output-record hash.
//!
//! Per-shard work runs on a [`WorkerPool`]: N long-lived workers, each owning its shard
//! index, fed lifetime-erased closures over `std::sync::mpsc` channels with results
//! returned on per-call reply channels. Steady-state dispatch spawns **zero** threads,
//! which is what makes sharding profitable for the tiny delta batches of the MCMC walk.
//!
//! Where contributions from different shards can collide on one output record (`Select`,
//! `SelectMany`, `Join`), they are resolved through the canonical accumulation order of
//! [`crate::accumulate`], and the sequential kernels use the same canonicalisation — so a
//! sharded evaluation is **bitwise identical** to a sequential one, for every shard
//! count. This is checked operator-by-operator by the tests below and end-to-end by the
//! plan property tests in the `wpinq` crate.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

use wpinq_telemetry::{registry, Counter};

use rustc_hash::FxHasher;

use crate::accumulate::Contributions;
use crate::dataset::WeightedDataset;
use crate::operators as batch;
use crate::record::Record;

/// The shard index of a value under a stable (seedless) hash.
///
/// Uses the deterministic `FxHasher`, so the assignment is reproducible across runs,
/// threads and machines of the same endianness/width.
pub fn shard_of<T: Hash + ?Sized>(value: &T, nshards: usize) -> usize {
    debug_assert!(nshards > 0, "shard_of requires at least one shard");
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    (hasher.finish() % nshards as u64) as usize
}

/// A weighted dataset hash-partitioned into `n` record-disjoint shards.
///
/// Invariant: record `r` appears only in shard [`shard_of`]`(r, n)`, carrying the same
/// weight it would carry in the unsharded dataset. [`merged`](Self::merged) is therefore a
/// lossless inverse of [`partition`](Self::partition).
#[derive(Debug, Clone)]
pub struct ShardedDataset<T: Record> {
    shards: Vec<WeightedDataset<T>>,
}

impl<T: Record> ShardedDataset<T> {
    /// Partitions a dataset into `nshards` (clamped to at least 1) record-hash shards.
    pub fn partition(data: &WeightedDataset<T>, nshards: usize) -> Self {
        let n = nshards.max(1);
        let mut shards = vec![WeightedDataset::new(); n];
        for (record, weight) in data.iter() {
            shards[shard_of(record, n)].set_weight(record.clone(), weight);
        }
        ShardedDataset { shards }
    }

    /// Assembles a sharded dataset from already-partitioned shards.
    ///
    /// The caller owns the type invariant: record `r` must live only in shard
    /// [`shard_of`]`(r, shards.len())`. Exposed for the columnar kernels in `wpinq-expr`,
    /// whose exchanges produce per-destination shards directly.
    pub fn from_shards(shards: Vec<WeightedDataset<T>>) -> Self {
        debug_assert!(!shards.is_empty());
        ShardedDataset { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, indexed by [`shard_of`].
    pub fn shards(&self) -> &[WeightedDataset<T>] {
        &self.shards
    }

    /// Total number of records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(WeightedDataset::len).sum()
    }

    /// Returns `true` when no shard holds any record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(WeightedDataset::is_empty)
    }

    /// Reassembles the single-map dataset (shards are record-disjoint, so no weight
    /// arithmetic happens here — weights are moved bit-for-bit).
    pub fn merged(&self) -> WeightedDataset<T> {
        let mut out = WeightedDataset::with_capacity(self.len());
        for shard in &self.shards {
            for (record, weight) in shard.iter() {
                out.set_weight(record.clone(), weight);
            }
        }
        out
    }

    /// [`merged`](Self::merged), consuming the shards to avoid cloning records.
    pub fn into_merged(self) -> WeightedDataset<T> {
        let mut out = WeightedDataset::with_capacity(self.len());
        for shard in self.shards {
            for (record, weight) in shard {
                out.set_weight(record, weight);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------------------
// Worker scaffolding
// ---------------------------------------------------------------------------------------

/// Registry name of the counter of OS threads spawned by [`WorkerPool`] construction,
/// cumulative over the process (pool *dispatches* spawn nothing and do not count). The
/// MCMC bench snapshots this series to prove the pooled engine spawns zero threads per
/// step in steady state: read it with
/// `wpinq_telemetry::registry().counter_value(THREADS_SPAWNED_METRIC)`.
pub const THREADS_SPAWNED_METRIC: &str = "wpinq_threads_spawned_total";

/// Registry name of the counter of multi-shard batches dispatched onto [`WorkerPool`]s
/// (single-shard batches run inline and are not counted), cumulative over the process.
pub const POOL_DISPATCHES_METRIC: &str = "wpinq_pool_dispatches_total";

fn threads_spawned_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            THREADS_SPAWNED_METRIC,
            &[],
            "OS threads spawned by shard worker pool construction",
        )
    })
}

fn pool_dispatches_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            POOL_DISPATCHES_METRIC,
            &[],
            "Multi-shard batches dispatched onto worker pools",
        )
    })
}

/// A work item shipped to a pool worker. Jobs constructed by [`WorkerPool::map`] catch
/// their own panics and always answer on their reply channel, so workers never die.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of long-lived shard workers fed over `mpsc` channels.
///
/// Worker `i` owns shard index `i` (batch `k` of a dispatch runs on worker
/// `k % workers`), so repeated dispatches touch the same per-shard state from the same
/// OS thread. Results come back on per-call reply channels; [`map`](Self::map) blocks
/// until every reply has arrived, which is also what makes shipping non-`'static`
/// closures to the workers sound. Dropping the pool closes the job channels and joins
/// every worker.
///
/// A panic inside `f` is caught on the worker, shipped back, and re-raised from
/// [`map`](Self::map) on the calling thread *after* all other replies have been drained —
/// so the pool itself survives and stays usable.
pub struct WorkerPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` (clamped to ≥ 1) long-lived shard workers.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (sender, receiver) = mpsc::channel::<Job>();
            threads_spawned_counter().inc();
            let handle = std::thread::Builder::new()
                .name(format!("wpinq-shard-{index}"))
                .spawn(move || {
                    while let Ok(job) = receiver.recv() {
                        // Jobs built by `map` catch panics internally; this outer guard
                        // keeps the worker alive even for future job kinds that do not.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("failed to spawn shard worker");
            senders.push(sender);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The process-wide shared pool for a given worker count, created on first use.
    ///
    /// Pools live for the rest of the process (like a global thread pool), so every
    /// executor, dataflow graph and MCMC trajectory asking for the same shard count
    /// shares one set of workers and the spawn count stays flat after warm-up.
    pub fn shared(workers: usize) -> Arc<WorkerPool> {
        static SHARED: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let workers = workers.max(1);
        let registry = SHARED.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = registry.lock().expect("worker-pool registry poisoned");
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers)))
            .clone()
    }

    /// Runs `f(shard_index, input)` for every input on the pool's workers (batch `k` on
    /// worker `k % workers`), returning results in shard order. Single-input calls run
    /// inline, bitwise-identically and without touching the channels.
    #[allow(unsafe_code)]
    pub fn map<I: Send, R: Send>(
        &self,
        inputs: Vec<I>,
        f: impl Fn(usize, I) -> R + Sync,
    ) -> Vec<R> {
        if inputs.is_empty() {
            return Vec::new();
        }
        if inputs.len() == 1 {
            let input = inputs.into_iter().next().expect("one input");
            return vec![f(0, input)];
        }
        pool_dispatches_counter().inc();
        let f = &f;
        let workers = self.senders.len();
        let mut replies = Vec::with_capacity(inputs.len());
        for (index, input) in inputs.into_iter().enumerate() {
            let (reply_tx, reply_rx) = mpsc::channel::<std::thread::Result<R>>();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(index, input)));
                // The caller may already be unwinding a panic from an earlier batch and
                // have dropped the receiver; that is not this job's problem.
                let _ = reply_tx.send(result);
            });
            // SAFETY: the job borrows `f` from this stack frame, which is not `'static`,
            // but the channel (and the worker thread's signature) require `'static`.
            // Erasing the lifetime is sound because this function does not return until
            // the loop below has received on EVERY reply channel, and a reply channel
            // only yields (a value or a disconnect) once its job has run to completion
            // — or been destroyed unexecuted — on the worker. Either way no borrow held
            // by any job outlives this call.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.senders[index % workers]
                .send(job)
                .expect("shard worker pool has shut down");
            replies.push(reply_rx);
        }
        let mut results = Vec::with_capacity(replies.len());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for reply in replies {
            match reply.recv() {
                Ok(Ok(value)) => results.push(Some(value)),
                Ok(Err(payload)) => {
                    results.push(None);
                    panic.get_or_insert(payload);
                }
                // The job was dropped without running (worker shut down mid-call); every
                // remaining reply channel is drained all the same before raising.
                Err(mpsc::RecvError) => {
                    results.push(None);
                    panic.get_or_insert(Box::new("shard worker dropped a job without running it"));
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every worker replied"))
            .collect()
    }

    /// Runs `f(shard_index)` for `0..n` on the pool's workers.
    pub fn for_each<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        self.map((0..n).collect::<Vec<_>>(), |_, index| f(index))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels makes every worker's `recv` fail, ending its loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // Workers only exit via channel disconnect; a join error would mean a job
            // escaped both catch_unwind guards. Never double-panic inside drop.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} workers)", self.workers())
    }
}

/// Routing buffers produced by one worker: one `(record, weight)` bucket per destination.
type Routed<T> = Vec<Vec<(T, f64)>>;

fn empty_routes<T>(n: usize) -> Routed<T> {
    (0..n).map(|_| Vec::new()).collect()
}

/// Transposes per-producer routing buffers and canonically accumulates each destination
/// shard in parallel. Collisions between contributions (same output record reached from
/// several producers, or several times from one) are resolved in canonical order.
fn exchange<U: Record>(routed: Vec<Routed<U>>, pool: &WorkerPool) -> ShardedDataset<U> {
    let n = routed.first().map(Vec::len).expect("at least one producer");
    let mut by_dest: Vec<Vec<Vec<(U, f64)>>> = (0..n).map(|_| Vec::new()).collect();
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

/// Routes a locally-computed dataset to destination buckets by output-record hash.
fn route_dataset<U: Record>(data: WeightedDataset<U>, n: usize) -> Routed<U> {
    let mut routes = empty_routes(n);
    for (record, weight) in data {
        routes[shard_of(&record, n)].push((record, weight));
    }
    routes
}

// ---------------------------------------------------------------------------------------
// Sharded operator kernels
// ---------------------------------------------------------------------------------------

/// Shard-parallel `Select` (see [`batch::select`]).
pub fn select<T, U, F>(data: &ShardedDataset<T>, f: &F, pool: &WorkerPool) -> ShardedDataset<U>
where
    T: Record,
    U: Record,
    F: Fn(&T) -> U + Sync + ?Sized,
{
    let n = data.num_shards();
    let routed = pool.for_each(n, |index| {
        let mut routes = empty_routes(n);
        for (record, weight) in data.shards[index].iter() {
            let out = f(record);
            routes[shard_of(&out, n)].push((out, weight));
        }
        routes
    });
    exchange(routed, pool)
}

/// Shard-parallel `Where` (see [`batch::filter`]); record identity is preserved, so the
/// partitioning survives and no exchange happens.
pub fn filter<T, P>(data: &ShardedDataset<T>, predicate: &P, pool: &WorkerPool) -> ShardedDataset<T>
where
    T: Record,
    P: Fn(&T) -> bool + Sync + ?Sized,
{
    let shards = pool.for_each(data.num_shards(), |index| {
        batch::filter(&data.shards[index], predicate)
    });
    ShardedDataset::from_shards(shards)
}

/// Shard-parallel `SelectMany` (see [`batch::select_many`]).
pub fn select_many<T, U, F>(data: &ShardedDataset<T>, f: &F, pool: &WorkerPool) -> ShardedDataset<U>
where
    T: Record,
    U: Record,
    F: Fn(&T) -> WeightedDataset<U> + Sync + ?Sized,
{
    let n = data.num_shards();
    let routed = pool.for_each(n, |index| {
        let mut routes = empty_routes(n);
        for (record, weight) in data.shards[index].iter() {
            let produced = f(record);
            let norm = produced.norm();
            if norm == 0.0 {
                continue;
            }
            let scale = weight / norm.max(1.0);
            for (out, w) in produced.iter() {
                routes[shard_of(out, n)].push((out.clone(), w * scale));
            }
        }
        routes
    });
    exchange(routed, pool)
}

/// Shard-parallel `Shave` (see [`batch::shave`]). Outputs `(record, index)` are unique per
/// input record, so the exchange only re-routes — no cross-shard collisions exist.
pub fn shave<T, F, I>(
    data: &ShardedDataset<T>,
    schedule: &F,
    pool: &WorkerPool,
) -> ShardedDataset<(T, u64)>
where
    T: Record,
    F: Fn(&T) -> I + Sync + ?Sized,
    I: IntoIterator<Item = f64>,
{
    let n = data.num_shards();
    let routed = pool.for_each(n, |index| {
        route_dataset(batch::shave(&data.shards[index], schedule), n)
    });
    exchange(routed, pool)
}

/// Shard-parallel `GroupBy` (see [`batch::group_by`]): records are exchanged by **key**
/// hash so each worker owns complete groups, then each worker runs the sequential kernel
/// (whose within-group order is already canonical) and routes its outputs.
pub fn group_by<T, K, R, KF, RF>(
    data: &ShardedDataset<T>,
    key: &KF,
    reduce: &RF,
    pool: &WorkerPool,
) -> ShardedDataset<(K, R)>
where
    T: Record,
    K: Record,
    R: Record,
    KF: Fn(&T) -> K + Sync + ?Sized,
    RF: Fn(&[T]) -> R + Sync + ?Sized,
{
    let n = data.num_shards();
    // Exchange inputs by key hash (each record moves with its exact weight; records are
    // globally unique, so no accumulation happens).
    let routed = pool.for_each(n, |index| {
        let mut routes = empty_routes(n);
        for (record, weight) in data.shards[index].iter() {
            routes[shard_of(&key(record), n)].push((record.clone(), weight));
        }
        routes
    });
    let mut by_dest: Vec<Vec<(T, f64)>> = (0..n).map(|_| Vec::new()).collect();
    for producer in routed {
        for (dest, bucket) in producer.into_iter().enumerate() {
            by_dest[dest].extend(bucket);
        }
    }
    // Each worker reduces its complete key groups, then routes outputs by record hash.
    let produced = pool.map(by_dest, |_, records| {
        let part = WeightedDataset::from_pairs(records);
        route_dataset(batch::group_by(&part, key, reduce), n)
    });
    exchange(produced, pool)
}

/// Shard-parallel weight-rescaling `Join` (see [`batch::join`]): both inputs are exchanged
/// by key hash, each worker joins its complete key groups with canonically-ordered
/// normalising denominators, and the output contributions are exchanged by record hash.
pub fn join<A, B, K, R, KA, KB, RF>(
    a: &ShardedDataset<A>,
    b: &ShardedDataset<B>,
    key_a: &KA,
    key_b: &KB,
    result: &RF,
    pool: &WorkerPool,
) -> ShardedDataset<R>
where
    A: Record,
    B: Record,
    K: Clone + Eq + Hash,
    R: Record,
    KA: Fn(&A) -> K + Sync + ?Sized,
    KB: Fn(&B) -> K + Sync + ?Sized,
    RF: Fn(&A, &B) -> R + Sync + ?Sized,
{
    let n = a.num_shards();
    assert_eq!(
        n,
        b.num_shards(),
        "join requires co-sharded inputs (same shard count)"
    );

    fn route_by_key<T: Record, K, KF>(
        data: &ShardedDataset<T>,
        key: &KF,
        n: usize,
        pool: &WorkerPool,
    ) -> Vec<Vec<(T, f64)>>
    where
        KF: Fn(&T) -> K + Sync + ?Sized,
        K: Hash,
    {
        let routed = pool.for_each(n, |index| {
            let mut routes = empty_routes(n);
            for (record, weight) in data.shards[index].iter() {
                routes[shard_of(&key(record), n)].push((record.clone(), weight));
            }
            routes
        });
        let mut by_dest: Vec<Vec<(T, f64)>> = (0..n).map(|_| Vec::new()).collect();
        for producer in routed {
            for (dest, bucket) in producer.into_iter().enumerate() {
                by_dest[dest].extend(bucket);
            }
        }
        by_dest
    }

    let a_by_key = route_by_key(a, key_a, n, pool);
    let b_by_key = route_by_key(b, key_b, n, pool);

    let produced = pool.map(
        a_by_key.into_iter().zip(b_by_key).collect::<Vec<_>>(),
        |_, (recs_a, recs_b)| {
            // Each worker owns complete key groups; the asymmetric build-small/probe-large
            // core (shared with the batch kernel) emits bitwise-identical contributions
            // whichever side is indexed, so the per-worker choice is purely a cost call.
            // Matching the sequential kernel's two-level accumulation, contributions are
            // resolved per key *before* routing; the exchange then canonically sums the
            // per-key totals of records matched under keys on different workers.
            use rustc_hash::FxHashMap;
            let mut per_key: FxHashMap<K, Contributions<R>> = FxHashMap::default();
            if recs_a.len() <= recs_b.len() {
                batch::join_build_probe(
                    recs_a.iter().map(|(r, w)| (r, *w)),
                    recs_b.iter().map(|(r, w)| (r, *w)),
                    key_a,
                    key_b,
                    |key, part, rb, w_probe, denominator| {
                        let acc = batch::key_accumulator(&mut per_key, key);
                        for (ra, w_build) in part {
                            acc.push(result(ra, rb), w_build * w_probe / denominator);
                        }
                    },
                );
            } else {
                batch::join_build_probe(
                    recs_b.iter().map(|(r, w)| (r, *w)),
                    recs_a.iter().map(|(r, w)| (r, *w)),
                    key_b,
                    key_a,
                    |key, part, ra, w_probe, denominator| {
                        let acc = batch::key_accumulator(&mut per_key, key);
                        for (rb, w_build) in part {
                            acc.push(result(ra, rb), w_build * w_probe / denominator);
                        }
                    },
                );
            }
            let mut routes = empty_routes(n);
            for (_, contributions) in per_key {
                for (record, total) in contributions.into_dataset() {
                    routes[shard_of(&record, n)].push((record, total));
                }
            }
            routes
        },
    );
    exchange(produced, pool)
}

/// Shard-parallel element-wise `Union` (co-sharded inputs, shard-local, no exchange).
pub fn union<T: Record>(
    a: &ShardedDataset<T>,
    b: &ShardedDataset<T>,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    binary(a, b, batch::union, pool)
}

/// Shard-parallel element-wise `Intersect` (co-sharded inputs, shard-local, no exchange).
pub fn intersect<T: Record>(
    a: &ShardedDataset<T>,
    b: &ShardedDataset<T>,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    binary(a, b, batch::intersect, pool)
}

/// Shard-parallel element-wise `Concat` (co-sharded inputs, shard-local, no exchange).
pub fn concat<T: Record>(
    a: &ShardedDataset<T>,
    b: &ShardedDataset<T>,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    binary(a, b, batch::concat, pool)
}

/// Shard-parallel element-wise `Except` (co-sharded inputs, shard-local, no exchange).
pub fn except<T: Record>(
    a: &ShardedDataset<T>,
    b: &ShardedDataset<T>,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    binary(a, b, batch::except, pool)
}

fn binary<T: Record>(
    a: &ShardedDataset<T>,
    b: &ShardedDataset<T>,
    op: impl Fn(&WeightedDataset<T>, &WeightedDataset<T>) -> WeightedDataset<T> + Sync,
    pool: &WorkerPool,
) -> ShardedDataset<T> {
    assert_eq!(
        a.num_shards(),
        b.num_shards(),
        "element-wise operators require co-sharded inputs (same shard count)"
    );
    let shards = pool.for_each(a.num_shards(), |index| {
        op(&a.shards[index], &b.shards[index])
    });
    ShardedDataset::from_shards(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedDataset<(u32, u32)> {
        WeightedDataset::from_pairs(
            (0u32..40)
                .flat_map(|i| (0u32..(i % 7)).map(move |j| ((i, j), 0.25 + (i + j) as f64 * 0.5))),
        )
    }

    fn assert_bitwise_eq<T: Record>(sharded: &ShardedDataset<T>, sequential: &WeightedDataset<T>) {
        let merged = sharded.merged();
        assert_eq!(merged.len(), sequential.len(), "record sets differ");
        for (record, weight) in sequential.iter() {
            assert_eq!(
                weight.to_bits(),
                merged.weight(record).to_bits(),
                "weight of {record:?} differs bitwise"
            );
        }
    }

    /// Runs `check` on the shared pool for shard counts {1, 2, 8}.
    fn for_all_shard_counts(check: impl Fn(usize, &WorkerPool)) {
        for n in [1usize, 2, 8] {
            check(n, &WorkerPool::shared(n));
        }
    }

    #[test]
    fn partition_and_merge_round_trip_exactly() {
        let data = sample();
        for n in [1, 2, 3, 8] {
            let sharded = ShardedDataset::partition(&data, n);
            assert_eq!(sharded.num_shards(), n);
            assert_eq!(sharded.len(), data.len());
            assert_bitwise_eq(&sharded, &data);
            // Every record sits in its hash shard.
            for (index, shard) in sharded.shards().iter().enumerate() {
                for (record, _) in shard.iter() {
                    assert_eq!(shard_of(record, n), index);
                }
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let sharded = ShardedDataset::partition(&sample(), 0);
        assert_eq!(sharded.num_shards(), 1);
    }

    #[test]
    fn select_matches_sequential_bitwise() {
        let data = sample();
        // Deliberately collapse many records onto few outputs to force collisions.
        let f = |r: &(u32, u32)| r.0 % 5;
        let sequential = batch::select(&data, f);
        for_all_shard_counts(|n, pool| {
            let sharded = select(&ShardedDataset::partition(&data, n), &f, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn filter_matches_sequential_bitwise() {
        let data = sample();
        let p = |r: &(u32, u32)| !(r.0 + r.1).is_multiple_of(3);
        let sequential = batch::filter(&data, p);
        for_all_shard_counts(|n, pool| {
            let sharded = filter(&ShardedDataset::partition(&data, n), &p, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn select_many_matches_sequential_bitwise() {
        let data = sample();
        let f =
            |r: &(u32, u32)| WeightedDataset::from_records((0..(r.0 % 4)).map(|k| (r.0 + k) % 9));
        let sequential = batch::select_many(&data, f);
        for_all_shard_counts(|n, pool| {
            let sharded = select_many(&ShardedDataset::partition(&data, n), &f, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn shave_matches_sequential_bitwise() {
        let data = sample();
        let schedule = |_: &(u32, u32)| std::iter::repeat(0.4);
        let sequential = batch::shave(&data, schedule);
        for_all_shard_counts(|n, pool| {
            let sharded = shave(&ShardedDataset::partition(&data, n), &schedule, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn group_by_matches_sequential_bitwise() {
        let data = sample();
        let key = |r: &(u32, u32)| r.0 % 6;
        let reduce = |group: &[(u32, u32)]| group.len() as u64;
        let sequential = batch::group_by(&data, key, reduce);
        for_all_shard_counts(|n, pool| {
            let sharded = group_by(&ShardedDataset::partition(&data, n), &key, &reduce, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn join_matches_sequential_bitwise() {
        let data = sample();
        let ka = |r: &(u32, u32)| r.0 % 8;
        let kb = |r: &(u32, u32)| (r.0 + r.1) % 8;
        // Collapse outputs so contributions collide across keys.
        let res = |x: &(u32, u32), y: &(u32, u32)| (x.1 % 3, y.1 % 3);
        let sequential = batch::join(&data, &data, ka, kb, res);
        for_all_shard_counts(|n, pool| {
            let sharded_data = ShardedDataset::partition(&data, n);
            let sharded = join(&sharded_data, &sharded_data, &ka, &kb, &res, pool);
            assert_bitwise_eq(&sharded, &sequential);
        });
    }

    #[test]
    fn set_operators_match_sequential_bitwise() {
        let a = sample();
        let b = batch::select(&a, |r: &(u32, u32)| ((r.0 + 1) % 13, r.1));
        for_all_shard_counts(|n, pool| {
            let sa = ShardedDataset::partition(&a, n);
            let sb = ShardedDataset::partition(&b, n);
            assert_bitwise_eq(&union(&sa, &sb, pool), &batch::union(&a, &b));
            assert_bitwise_eq(&intersect(&sa, &sb, pool), &batch::intersect(&a, &b));
            assert_bitwise_eq(&concat(&sa, &sb, pool), &batch::concat(&a, &b));
            assert_bitwise_eq(&except(&sa, &sb, pool), &batch::except(&a, &b));
        });
    }

    // -----------------------------------------------------------------------------------
    // WorkerPool behaviour
    // -----------------------------------------------------------------------------------

    #[test]
    fn pool_map_matches_sequential_map_including_oversubscription() {
        let pool = WorkerPool::new(2);
        let f = |i: usize, x: u64| (i as u64) * 1000 + x * 3;
        for len in [0usize, 1, 2, 3, 8, 17] {
            let inputs: Vec<u64> = (0..len as u64).collect();
            let sequential: Vec<u64> = inputs.iter().enumerate().map(|(i, &x)| f(i, x)).collect();
            assert_eq!(pool.map(inputs, f), sequential, "length {len}");
        }
    }

    #[test]
    fn pool_construction_counts_spawns_and_dispatches() {
        let spawned_before = registry().counter_value(THREADS_SPAWNED_METRIC);
        let pool = WorkerPool::new(3);
        assert!(registry().counter_value(THREADS_SPAWNED_METRIC) >= spawned_before + 3);
        let dispatches_before = registry().counter_value(POOL_DISPATCHES_METRIC);
        let _ = pool.map(vec![1, 2, 3], |_, x| x);
        assert!(registry().counter_value(POOL_DISPATCHES_METRIC) > dispatches_before);
        // Single-input batches run inline: no dispatch is recorded by *this* call
        // (other tests may dispatch concurrently, so only the monotone bound is exact).
        let _ = pool.map(vec![7], |_, x| x);
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u32, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("boom in shard worker");
                }
                x
            })
        }));
        assert!(outcome.is_err(), "panic must propagate to the caller");
        // All four jobs were drained, so the pool is clean and reusable.
        let again = pool.map(vec![10u32, 20, 30], |_, x| x + 1);
        assert_eq!(again, vec![11, 21, 31]);
    }

    #[test]
    fn pool_drops_cleanly_even_twice_through_shared_handles() {
        // Dropping an owned pool joins its workers without hanging or panicking.
        let owned = WorkerPool::new(2);
        let _ = owned.map(vec![1, 2], |_, x| x);
        drop(owned);

        // Two handles to one shared pool: dropping both must be safe, and the pool
        // itself keeps serving other handles for the rest of the process.
        let first = WorkerPool::shared(2);
        let second = WorkerPool::shared(2);
        assert!(Arc::ptr_eq(&first, &second), "registry must share pools");
        let _ = first.map(vec![1, 2, 3], |_, x| x);
        drop(first);
        drop(second);
        let third = WorkerPool::shared(2);
        assert_eq!(third.map(vec![5, 6], |_, x| x * 2), vec![10, 12]);
    }

    #[test]
    fn pool_survives_panic_then_drops_cleanly() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u32, 1], |_, _| -> u32 {
                panic!("both workers blow up")
            })
        }));
        assert!(outcome.is_err());
        drop(pool); // must join, not hang or double-panic
    }

    #[test]
    fn kernels_share_one_pool_across_calls() {
        let data = sample();
        let pool = WorkerPool::shared(8);
        let spawned_after_warmup = {
            // Warm the pool, then prove repeated kernel dispatches spawn nothing more
            // *from this pool* (global counter may move if other tests spawn — use the
            // dispatch counter, which only pools bump, as the steady-state signal).
            let _ = filter(
                &ShardedDataset::partition(&data, 8),
                &|_: &(u32, u32)| true,
                &pool,
            );
            registry().counter_value(POOL_DISPATCHES_METRIC)
        };
        let _ = select(
            &ShardedDataset::partition(&data, 8),
            &|r: &(u32, u32)| r.0,
            &pool,
        );
        assert!(
            registry().counter_value(POOL_DISPATCHES_METRIC) > spawned_after_warmup,
            "select dispatched on the pool"
        );
    }
}
