//! The `synth-seq` and `synth-shard2` workloads: the paper's measure → seed → MCMC
//! synthesis pipeline (Section 5) on the GrQc stand-in, phase by phase through the
//! public API, in the order `wpinq_mcmc::synthesize` runs it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wpinq::plan::{
    Executor, IncrementalEngine, OptimizeLevel, PairedBackend, SequentialExecutor, ShardedExecutor,
};
use wpinq::PrivacyBudget;
use wpinq_analyses::degree::DegreeMeasurements;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_graph::{stats, EdgeSwap, Graph};
use wpinq_mcmc::scorers::tbi_scorer;
use wpinq_mcmc::seed::seed_graph_from_measurements;
use wpinq_mcmc::{
    CandidateState, GraphCandidate, MetropolisHastings, StepOutcome, SynthesisConfig, TriangleQuery,
};

use crate::report::{Metrics, Outcome};
use crate::stats::{median, remainder, tail, TAIL_LADDER};
use crate::{derive_seed, peak_rss_mb, Fail};

/// Per-measurement ε of the pipeline (the paper's headline setting).
pub const EPSILON: f64 = 0.1;
/// The MCMC focusing exponent (the paper's setting).
pub const POW: f64 = 10_000.0;
/// Walk steps per pipeline run.
pub const STEPS: u64 = 500;
/// The bound `GraphCandidate::scorer_drift` must stay below.
pub const MAX_DRIFT: f64 = 1e-6;
/// Pipeline runs per benchmark run, at least, whatever the time budget.
const MIN_PIPELINES: usize = 3;

/// Which backend a synth workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SequentialExecutor` for batch work, `IncrementalEngine::Sequential` for the walk.
    Sequential,
    /// `ShardedExecutor::new(2)` for batch work, `IncrementalEngine::Sharded(2)` for the walk.
    Sharded2,
}

impl Engine {
    fn executor(self) -> Arc<dyn Executor> {
        match self {
            Engine::Sequential => Arc::new(SequentialExecutor),
            Engine::Sharded2 => Arc::new(ShardedExecutor::new(2)),
        }
    }

    fn incremental(self) -> IncrementalEngine {
        match self {
            Engine::Sequential => IncrementalEngine::Sequential,
            Engine::Sharded2 => IncrementalEngine::Sharded(2),
        }
    }

    fn other(self) -> Engine {
        match self {
            Engine::Sequential => Engine::Sharded2,
            Engine::Sharded2 => Engine::Sequential,
        }
    }

    /// The `synthesize` configuration that selects the same backend.
    fn synthesis_config(self, steps: u64) -> SynthesisConfig {
        let (threads, inc_shards) = match self {
            Engine::Sequential => (1, 0),
            Engine::Sharded2 => (2, 2),
        };
        SynthesisConfig {
            epsilon: EPSILON,
            pow: POW,
            mcmc_steps: steps,
            record_every: 0,
            triangle_query: TriangleQuery::TbI,
            score_degrees: false,
            threads,
            inc_shards,
        }
    }
}

/// Times a `GraphCandidate` walk from outside: every `CandidateState` call the
/// Metropolis–Hastings step makes is delegated, and propose, apply and undo are timed.
struct TimedCandidate<'a> {
    inner: &'a mut GraphCandidate,
    propose: Duration,
    apply: Duration,
    undo: Duration,
    proposals: u64,
    rejections: u64,
}

impl CandidateState for TimedCandidate<'_> {
    type Move = EdgeSwap;

    fn propose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<EdgeSwap> {
        let started = Instant::now();
        let mv = self.inner.propose(rng);
        self.propose += started.elapsed();
        mv
    }

    fn apply(&mut self, mv: &EdgeSwap) -> f64 {
        let started = Instant::now();
        let energy = self.inner.apply(mv);
        self.apply += started.elapsed();
        self.proposals += 1;
        energy
    }

    fn undo(&mut self, mv: &EdgeSwap) {
        let started = Instant::now();
        self.inner.undo(mv);
        self.undo += started.elapsed();
        self.rejections += 1;
    }

    fn energy(&self) -> f64 {
        self.inner.energy()
    }
}

/// Counter snapshot of the worker-pool and exchange layers (registry totals).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    spawns: u64,
    dispatches: u64,
    exchanges: u64,
}

impl Counters {
    fn now() -> Counters {
        let registry = wpinq_telemetry::registry();
        Counters {
            spawns: registry.counter_value(wpinq::shard::THREADS_SPAWNED_METRIC),
            dispatches: registry.counter_value(wpinq::shard::POOL_DISPATCHES_METRIC),
            exchanges: registry.counter_value(wpinq_dataflow::EXCHANGES_METRIC),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            spawns: self.spawns - before.spawns,
            dispatches: self.dispatches - before.dispatches,
            exchanges: self.exchanges - before.exchanges,
        }
    }
}

/// The walk-phase layer times of a traced pipeline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkLayers {
    pub propose_s: f64,
    pub apply_s: f64,
    pub undo_s: f64,
    pub proposals: u64,
    pub rejections: u64,
}

/// Everything one pipeline run measured.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Measure through the last walk step.
    pub synth_s: f64,
    pub degree_measure_s: f64,
    pub seed_s: f64,
    pub tbi_measure_s: f64,
    /// `GraphCandidate::with_engine`: scorer lowering plus bulk load.
    pub setup_s: f64,
    /// Time inside the `build_scorers` closure.
    pub lower_s: f64,
    pub walk_s: f64,
    /// Wall time of each `MetropolisHastings::step` call.
    pub step_s: Vec<f64>,
    pub energy0: f64,
    pub final_energy: f64,
    pub final_edges: Vec<(u32, u32)>,
    pub accepted: u64,
    pub no_proposal: u64,
    pub drift: f64,
    pub walk_spawns: u64,
    pub walk_dispatches: u64,
    pub walk_exchanges: u64,
    pub layers: Option<WalkLayers>,
}

/// Runs the pipeline once on `engine` with a fresh RNG seeded by `seed`, checking the
/// per-run invariants. `traced` times the walk's `CandidateState` calls.
pub fn run_pipeline(
    secret: &Graph,
    engine: Engine,
    steps: u64,
    seed: u64,
    traced: bool,
) -> Result<PipelineRun, Fail> {
    let config = engine.synthesis_config(steps);
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = PrivacyBudget::new(config.total_privacy_cost() + 1e-9);
    let edges = GraphEdges::new(secret, budget);
    let backend = PairedBackend::new(engine.executor(), engine.incremental());
    let queryable = edges
        .queryable()
        .with_backend(&backend)
        .with_optimize_level(OptimizeLevel::Full);

    let started = Instant::now();
    let degree = DegreeMeasurements::measure(&queryable, EPSILON, &mut rng)
        .map_err(|e| Fail(format!("degree measurements: {e}")))?;
    let degree_done = Instant::now();
    let seed_graph = seed_graph_from_measurements(&degree, &mut rng);
    let seed_done = Instant::now();
    let tbi = TbiMeasurement::measure(&queryable, EPSILON, &mut rng)
        .map_err(|e| Fail(format!("TbI measurement: {e}")))?;
    let tbi_done = Instant::now();

    let spent = edges.budget().spent();
    let expected = 7.0 * EPSILON;
    if spent != expected {
        return Err(Fail(format!(
            "epsilon spent {spent:?} is not exactly 7 x {EPSILON} = {expected:?}"
        )));
    }

    let mut lower = Duration::ZERO;
    let mut candidate =
        GraphCandidate::with_engine(seed_graph.clone(), queryable.incremental_engine(), |flow| {
            let started = Instant::now();
            let sinks = vec![tbi_scorer(flow, &tbi)];
            lower = started.elapsed();
            sinks
        });
    let setup_done = Instant::now();
    let energy0 = candidate.energy();

    let mh = MetropolisHastings::new(EPSILON, POW);
    let mut step_s = Vec::with_capacity(steps as usize);
    let (mut accepted, mut no_proposal) = (0u64, 0u64);
    let before = Counters::now();
    let mut tally = |outcome: StepOutcome| match outcome {
        StepOutcome::Accepted => accepted += 1,
        StepOutcome::Rejected => {}
        StepOutcome::NoProposal => no_proposal += 1,
    };
    let layers = if traced {
        let mut timed = TimedCandidate {
            inner: &mut candidate,
            propose: Duration::ZERO,
            apply: Duration::ZERO,
            undo: Duration::ZERO,
            proposals: 0,
            rejections: 0,
        };
        for _ in 0..steps {
            let t = Instant::now();
            let outcome = mh.step(&mut timed, &mut rng);
            step_s.push(t.elapsed().as_secs_f64());
            tally(outcome);
        }
        Some(WalkLayers {
            propose_s: timed.propose.as_secs_f64(),
            apply_s: timed.apply.as_secs_f64(),
            undo_s: timed.undo.as_secs_f64(),
            proposals: timed.proposals,
            rejections: timed.rejections,
        })
    } else {
        for _ in 0..steps {
            let t = Instant::now();
            let outcome = mh.step(&mut candidate, &mut rng);
            step_s.push(t.elapsed().as_secs_f64());
            tally(outcome);
        }
        None
    };
    let finished = Instant::now();
    let walk = Counters::now().since(before);

    if walk.spawns != 0 {
        return Err(Fail(format!(
            "the walk spawned {} threads; the worker pool must be reused",
            walk.spawns
        )));
    }
    let drift = candidate.scorer_drift();
    if drift.is_nan() || drift >= MAX_DRIFT {
        return Err(Fail(format!(
            "scorer drift {drift} is not below {MAX_DRIFT}"
        )));
    }
    if stats::degree_sequence(candidate.graph()) != stats::degree_sequence(&seed_graph) {
        return Err(Fail(
            "the walk changed the seed graph's degree sequence".into(),
        ));
    }

    Ok(PipelineRun {
        synth_s: (finished - started).as_secs_f64(),
        degree_measure_s: (degree_done - started).as_secs_f64(),
        seed_s: (seed_done - degree_done).as_secs_f64(),
        tbi_measure_s: (tbi_done - seed_done).as_secs_f64(),
        setup_s: (setup_done - tbi_done).as_secs_f64(),
        lower_s: lower.as_secs_f64(),
        walk_s: (finished - setup_done).as_secs_f64(),
        step_s,
        energy0,
        final_energy: candidate.energy(),
        final_edges: candidate.graph().sorted_edges(),
        accepted,
        no_proposal,
        drift,
        walk_spawns: walk.spawns,
        walk_dispatches: walk.dispatches,
        walk_exchanges: walk.exchanges,
        layers,
    })
}

/// The checks that compare one pipeline run against other ways of computing it: the
/// other engine must reach a bitwise-equal final energy and edge list, and
/// `wpinq_mcmc::synthesize` with the same configuration and seed the same final graph.
pub fn cross_check(
    secret: &Graph,
    engine: Engine,
    steps: u64,
    seed: u64,
    run: &PipelineRun,
) -> Result<(), Fail> {
    let other = run_pipeline(secret, engine.other(), steps, seed, false)?;
    if other.final_energy.to_bits() != run.final_energy.to_bits() {
        return Err(Fail(format!(
            "{:?} and {:?} reached different final energies: {:?} vs {:?}",
            engine,
            engine.other(),
            run.final_energy,
            other.final_energy
        )));
    }
    if other.final_edges != run.final_edges {
        return Err(Fail(format!(
            "{engine:?} and {:?} reached different final graphs",
            engine.other()
        )));
    }
    let config = engine.synthesis_config(steps);
    let whole =
        wpinq_mcmc::synthesis::synthesize(secret, &config, &mut StdRng::seed_from_u64(seed))
            .map_err(|e| Fail(format!("synthesize: {e}")))?;
    if whole.synthetic.sorted_edges() != run.final_edges {
        return Err(Fail(
            "the phase-by-phase pipeline and synthesize() reached different final graphs".into(),
        ));
    }
    let last = whole.trajectory.last().map(|p| p.energy);
    if last.map(f64::to_bits) != Some(run.final_energy.to_bits()) {
        return Err(Fail(format!(
            "synthesize() ended at energy {last:?}, the pipeline at {:?}",
            run.final_energy
        )));
    }
    Ok(())
}

/// Runs a synth workload for `seconds`: pipeline runs back to back (at least
/// [`MIN_PIPELINES`]), each on its own derived seed. With `trace`, runs alternate
/// untraced and traced on the same seed and the per-layer figures come from the traced
/// ones.
pub fn run(
    secret: &Graph,
    engine: Engine,
    steps: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, Fail> {
    let started = Instant::now();
    let mut plain: Vec<PipelineRun> = Vec::new();
    let mut traced: Vec<PipelineRun> = Vec::new();
    let mut i = 0u64;
    while plain.len() < MIN_PIPELINES || started.elapsed().as_secs_f64() < seconds {
        let pipeline_seed = derive_seed(seed, i);
        let run = run_pipeline(secret, engine, steps, pipeline_seed, false)?;
        if trace {
            let t = run_pipeline(secret, engine, steps, pipeline_seed, true)?;
            if t.final_energy.to_bits() != run.final_energy.to_bits()
                || t.final_edges != run.final_edges
            {
                return Err(Fail(
                    "the traced walk diverged from the untraced walk".into(),
                ));
            }
            traced.push(t);
        }
        plain.push(run);
        i += 1;
    }
    let peak_rss = peak_rss_mb();
    cross_check(secret, engine, steps, derive_seed(seed, 0), &plain[0])?;

    let per_pipeline =
        |f: fn(&PipelineRun) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    let mut context = vec![
        ("workload".to_string(), format!("{engine:?}")),
        (
            "hardware_threads".to_string(),
            wpinq::plan::available_threads().to_string(),
        ),
        ("pipelines".to_string(), plain.len().to_string()),
        ("steps_per_pipeline".to_string(), steps.to_string()),
        (
            "cold_phase_s".to_string(),
            format!(
                "{:.4}",
                per_pipeline(|r| r.degree_measure_s + r.seed_s + r.tbi_measure_s)
            ),
        ),
    ];
    if trace {
        layer_metrics(&plain, &traced, &mut metrics);
    } else {
        // Step latencies are summarised per pipeline and then across pipelines, so a
        // burst of machine noise moves one pipeline's figures, not the run's.
        let mut step_tails = Vec::with_capacity(plain.len());
        let mut step_p50s = Vec::with_capacity(plain.len());
        for run in &plain {
            let ms: Vec<f64> = run.step_s.iter().map(|s| s * 1e3).collect();
            let t = tail(&ms, &TAIL_LADDER)
                .ok_or_else(|| Fail("too few walk steps for a tail".into()))?;
            step_tails.push(t);
            step_p50s.push(median(&ms));
        }
        context.push((
            "warm_tail".to_string(),
            format!(
                "p{}_of_{}_steps_median_of_{}_pipelines",
                step_tails[0].percentile,
                step_tails[0].samples,
                plain.len()
            ),
        ));
        metrics.push(
            "throughput_per_s",
            per_pipeline(|r| r.step_s.len() as f64 / r.walk_s),
            "1/s",
        );
        metrics.push("cold_p50_ms", per_pipeline(|r| r.synth_s) * 1e3, "ms");
        metrics.push("warm_p50_ms", median(&step_p50s), "ms");
        metrics.push(
            "warm_tail_ms",
            median(&step_tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            "ms",
        );
        metrics.push(
            "quality_ratio",
            per_pipeline(|r| r.final_energy / r.energy0),
            "ratio",
        );
        metrics.push("setup_s", per_pipeline(|r| r.setup_s), "s");
        metrics.push("peak_rss_mb", peak_rss, "MB");
    }
    Ok(Outcome {
        attempted: steps * plain.len() as u64,
        failed: 0,
        metrics,
        context,
    })
}

fn sum(runs: &[PipelineRun], f: impl Fn(&PipelineRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Per-layer figures of the traced pipeline runs, plus the trace overhead against the
/// untraced runs on the same seeds.
fn layer_metrics(plain: &[PipelineRun], traced: &[PipelineRun], metrics: &mut Metrics) {
    let walk = |f: fn(&WalkLayers) -> f64| -> f64 {
        traced
            .iter()
            .map(|r| f(r.layers.as_ref().expect("traced run has layer times")))
            .sum()
    };
    let steps = sum(traced, |r| r.step_s.len() as f64);
    let proposals = walk(|l| l.proposals as f64);
    let rejections = walk(|l| l.rejections as f64);
    let (propose_s, apply_s, undo_s) = (
        walk(|l| l.propose_s),
        walk(|l| l.apply_s),
        walk(|l| l.undo_s),
    );
    let walk_s = sum(traced, |r| r.walk_s);
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    metrics.push("mcmc.propose_us", per(propose_s, steps) * 1e6, "us");
    metrics.push("mcmc.apply_us", per(apply_s, proposals) * 1e6, "us");
    metrics.push("mcmc.undo_us", per(undo_s, rejections) * 1e6, "us");
    metrics.push(
        "mcmc.unattributed_us",
        per(remainder(walk_s, &[propose_s, apply_s, undo_s]), steps) * 1e6,
        "us",
    );
    metrics.push(
        "mcmc.accept_ratio",
        per(sum(traced, |r| r.accepted as f64), proposals),
        "ratio",
    );
    metrics.push(
        "mcmc.no_proposal_frac",
        per(sum(traced, |r| r.no_proposal as f64), steps),
        "ratio",
    );
    metrics.push(
        "mcmc.scorer_drift",
        traced.iter().map(|r| r.drift).fold(0.0, f64::max),
        "energy",
    );
    metrics.push(
        "mcmc.fit_energy_ratio",
        median(
            &traced
                .iter()
                .map(|r| r.final_energy / r.energy0)
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    let n = traced.len() as f64;
    metrics.push("dataflow.lower_s", sum(traced, |r| r.lower_s) / n, "s");
    metrics.push(
        "dataflow.bulk_load_s",
        sum(traced, |r| r.setup_s - r.lower_s) / n,
        "s",
    );
    metrics.push(
        "shard.pool_dispatches_per_step",
        per(sum(traced, |r| r.walk_dispatches as f64), steps),
        "count",
    );
    metrics.push(
        "dataflow.exchanges_per_step",
        per(sum(traced, |r| r.walk_exchanges as f64), steps),
        "count",
    );
    metrics.push(
        "shard.walk_spawns",
        sum(traced, |r| r.walk_spawns as f64),
        "count",
    );
    metrics.push(
        "analyses.degree_measure_s",
        sum(traced, |r| r.degree_measure_s) / n,
        "s",
    );
    metrics.push(
        "analyses.tbi_measure_s",
        sum(traced, |r| r.tbi_measure_s) / n,
        "s",
    );
    metrics.push("mcmc.seed_s", sum(traced, |r| r.seed_s) / n, "s");
    let synth_s = sum(traced, |r| r.synth_s);
    metrics.push(
        "synth.unattributed_s",
        remainder(
            synth_s,
            &[
                sum(traced, |r| r.degree_measure_s),
                sum(traced, |r| r.seed_s),
                sum(traced, |r| r.tbi_measure_s),
                sum(traced, |r| r.lower_s),
                sum(traced, |r| r.setup_s - r.lower_s),
                propose_s,
                apply_s,
                undo_s,
            ],
        ) / n,
        "s",
    );
    metrics.push(
        "telemetry.trace_overhead",
        synth_s / sum(plain, |r| r.synth_s),
        "ratio",
    );
}
