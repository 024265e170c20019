//! The benchmark's own tests: its inputs, its metric lists, and a small smoke run of
//! every workload. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_analyses::edges::symmetric_edge_dataset;
use wpinq_expr::Json;
use wpinq_graph::{generators, Graph};

use perfbench::analyst::{self, Kind, Request, Schedule, FRESH_ONE_IN, PAIRS};
use perfbench::report::{Metrics, END_TO_END, PER_LAYER};
use perfbench::synth::{self, Engine};
use perfbench::{derive_seed, WORKLOADS};

/// Workload runs read process-wide registry counters, so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_graph() -> Graph {
    generators::powerlaw_cluster(120, 3, 0.6, &mut StdRng::seed_from_u64(5))
}

fn requests(seed: u64, analyst: usize, n: usize) -> Vec<Request> {
    Schedule::new(seed, analyst).take(n).collect()
}

#[test]
fn the_seed_changes_the_inputs_and_nothing_else() {
    // The fresh prelude, then 100 groups of four: every block the schedule draws from
    // is whole.
    let n = PAIRS + 400;
    let a = requests(1, 0, n);
    assert_eq!(
        a,
        requests(1, 0, n),
        "the same seed gives the same requests"
    );
    let b = requests(2, 0, n);
    assert_ne!(a, b, "another seed gives other requests");
    assert_ne!(a, requests(1, 1, n), "each analyst has its own sequence");

    for r in [&a, &b] {
        let fresh = r.iter().filter(|q| q.fresh).count();
        assert_eq!((fresh - PAIRS) * FRESH_ONE_IN as usize, n - PAIRS);
        assert!(r[..PAIRS].iter().all(|q| q.fresh));
        for kind in Kind::ALL {
            for columnar in [false, true] {
                let count = |fresh: bool| {
                    r.iter()
                        .filter(|q| q.kind == kind && q.columnar == columnar && q.fresh == fresh)
                        .count()
                };
                assert_eq!(count(true), fresh / 10, "{kind:?} fresh");
                assert_eq!(count(false), (n - fresh) / 10, "{kind:?} replayed");
            }
        }
        // So both seeds send the same mix of kinds, fresh requests and encodings.

        // A replay repeats an earlier fresh request of this analyst.
        for (i, q) in r.iter().enumerate().filter(|(_, q)| !q.fresh) {
            assert!(r[..i]
                .iter()
                .any(|p| p.fresh && p.kind == q.kind && p.epsilon == q.epsilon));
        }
    }
    let mut schedule = Schedule::new(1, 0);
    for sent in 0..n {
        let block = FRESH_ONE_IN as usize * PAIRS;
        assert_eq!(
            schedule.at_block_boundary(),
            sent >= PAIRS && (sent - PAIRS).is_multiple_of(block)
        );
        schedule.next();
    }
    assert!(schedule.at_block_boundary());

    // Pipeline `i` of a run gets seed `derive_seed(seed, i)`.
    let seeds_a: Vec<u64> = (0..4).map(|i| derive_seed(1, i)).collect();
    let seeds_b: Vec<u64> = (0..4).map(|i| derive_seed(2, i)).collect();
    assert!(seeds_a.iter().all(|s| !seeds_b.contains(s)));

    let _serial = serial();
    // Two pipeline seeds: other noise and another seed graph, but the same secret
    // graph, the same budget and the same number of steps.
    let secret = small_graph();
    let x = synth::run_pipeline(&secret, Engine::Sequential, 5, seeds_a[0], false).unwrap();
    let y = synth::run_pipeline(&secret, Engine::Sequential, 5, seeds_a[1], false).unwrap();
    assert_ne!(x.final_edges, y.final_edges);
    assert_eq!(x.step_s.len(), y.step_s.len());
}

#[test]
fn metric_lists_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str, with_unit: bool| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                let unit = if with_unit {
                    m.get("unit").and_then(Json::as_str).unwrap().to_string()
                } else {
                    String::new()
                };
                (name, unit)
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end", true), own(&END_TO_END));
    assert_eq!(names("per_layer", true), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads", false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn missing_layers_read_zero_and_missing_end_to_end_metrics_fail() {
    let mut m = Metrics::default();
    m.push("cache.hit_ratio", 0.75, "ratio");
    let layers = m.complete(&PER_LAYER, true).unwrap();
    assert_eq!(layers.0.len(), PER_LAYER.len());
    assert_eq!(layers.get("cache.hit_ratio"), Some(0.75));
    assert_eq!(layers.get("mcmc.apply_us"), Some(0.0));
    assert!(m.complete(&END_TO_END, false).is_err());
    let mut wrong_unit = Metrics::default();
    wrong_unit.push("setup_s", 1.0, "ms");
    assert!(wrong_unit.complete(&END_TO_END, true).is_err());
}

fn check(
    outcome: &perfbench::report::Outcome,
    list: &[(&'static str, &'static str)],
    zero_missing: bool,
) {
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let metrics = outcome.metrics.complete(list, zero_missing).unwrap();
    for m in &metrics.0 {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn synth_workloads_run_small() {
    let _serial = serial();
    let secret = small_graph();
    for engine in [Engine::Sequential, Engine::Sharded2] {
        let plain = synth::run(&secret, engine, 40, 7, 0.0, false).unwrap();
        check(&plain, &END_TO_END, false);
        for m in &plain.metrics.0 {
            assert!(m.value > 0.0, "{engine:?}: {} is zero", m.name);
        }
        let traced = synth::run(&secret, engine, 40, 7, 0.0, true).unwrap();
        check(&traced, &PER_LAYER, true);
        let get = |name| traced.metrics.get(name).unwrap();
        assert_eq!(get("shard.walk_spawns"), 0.0);
        assert!(get("mcmc.apply_us") > 0.0);
        assert!(get("telemetry.trace_overhead") > 0.0);
        // Only the sharded engine dispatches onto the worker pool.
        assert_eq!(
            get("shard.pool_dispatches_per_step") > 0.0,
            engine == Engine::Sharded2
        );
        assert!(traced.metrics.get("service.parse_us").is_none());
    }
}

#[test]
fn analyst_mix_runs_small() {
    let _serial = serial();
    let edges = symmetric_edge_dataset(&small_graph());
    let plain = analyst::run(&edges, 3, 2.0, false).unwrap();
    check(&plain, &END_TO_END, false);
    for m in &plain.metrics.0 {
        assert!(m.value > 0.0, "{} is zero", m.name);
    }
    // The released noise, in units of its Laplace scale.
    let noise = plain.metrics.get("quality_ratio").unwrap();
    assert!((noise - 1.0).abs() < 0.1, "noise ratio {noise}");
    let traced = analyst::run(&edges, 3, 2.0, true).unwrap();
    check(&traced, &PER_LAYER, true);
    let get = |name| traced.metrics.get(name).unwrap();
    assert!(get("plan.execute_us") > 0.0);
    assert!(get("cache.hit_ratio") > 0.5 && get("cache.hit_ratio") < 1.0);
    assert!(traced.metrics.get("mcmc.apply_us").is_none());
}
