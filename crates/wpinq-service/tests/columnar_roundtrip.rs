//! Service-level columnar equivalence: the same wire-shipped measurement request,
//! handled once with the columnar kernels forced off and once forced on, must return
//! **byte-identical** release JSON and debit **identical** ε from the analyst's grant —
//! and both must match the closure-built typed plan measured locally. The engine toggle
//! is invisible at the privacy boundary: same bytes out, same budget gone.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wpinq::plan::{PlanBindings, SequentialExecutor};
use wpinq::prelude::*;
use wpinq_analyses::degree::{degree_ccdf_plan, degree_ccdf_plan_expr};
use wpinq_analyses::edges::{symmetric_edge_dataset, EDGES_DATASET};
use wpinq_analyses::jdd::{jdd_plan, jdd_plan_expr};
use wpinq_analyses::squares::{sbd_plan, sbd_plan_expr};
use wpinq_analyses::triangles::{tbd_plan, tbd_plan_expr};
use wpinq_expr::{set_columnar_override, Json};
use wpinq_graph::Graph;
use wpinq_service::{release_to_json, MeasureRequest, MeasurementService, ResponseEncoding};

const SEED: u64 = 2014;
const EPSILON: f64 = 0.25;

/// Restores the process-wide columnar override when the test scope exits.
struct OverrideGuard;

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_columnar_override(None);
    }
}

fn toy_graph() -> Graph {
    Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
}

/// Handles `plan`'s wire form on a fresh single-grant service and returns the release
/// JSON plus the total ε charged.
fn measure<T: ExprRecord>(graph: &Graph, plan: &Plan<T>) -> (String, f64) {
    let analyst = "analyst";
    let service = MeasurementService::new();
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(graph))
        .unwrap();
    service
        .grant(analyst, EDGES_DATASET, PrivacyBudget::new(50.0))
        .unwrap();
    let request = MeasureRequest {
        analyst: analyst.to_string(),
        epsilon: EPSILON,
        spec: plan.to_spec().expect("expression plans serialize"),
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    };
    let response = service.handle_json(&request.to_json_string(), &mut StdRng::seed_from_u64(SEED));
    let parsed = Json::parse(&response).expect("response is JSON");
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "request rejected: {response}"
    );
    let release = parsed.get("release").expect("release present").to_compact();
    let charged: f64 = parsed
        .get("charged")
        .and_then(Json::as_arr)
        .expect("charged present")
        .iter()
        .map(|pair| pair.as_arr().unwrap()[1].as_f64().unwrap())
        .sum();
    (release, charged)
}

/// The closure-built typed twin, measured locally (never columnar-eligible).
fn local_release<T: ExprRecord>(
    plan: &Plan<T>,
    source: &Plan<(u32, u32)>,
    graph: &Graph,
) -> String {
    let mut bindings = PlanBindings::new();
    bindings.bind(source, symmetric_edge_dataset(graph));
    let counts = plan.noisy_count(EPSILON).release_with(
        &bindings,
        &SequentialExecutor,
        &mut StdRng::seed_from_u64(SEED),
    );
    release_to_json(&counts)
}

fn check<T: ExprRecord>(name: &str, graph: &Graph, plan: &Plan<T>, typed_reference: &str) {
    set_columnar_override(Some(false));
    let (row_release, row_charged) = measure(graph, plan);
    set_columnar_override(Some(true));
    let (col_release, col_charged) = measure(graph, plan);
    set_columnar_override(None);
    assert_eq!(
        col_release, row_release,
        "{name}: columnar release bytes drifted from the row interpreter"
    );
    assert_eq!(
        col_charged.to_bits(),
        row_charged.to_bits(),
        "{name}: columnar path charged a different budget"
    );

    assert_eq!(
        row_release, typed_reference,
        "{name}: dynamic release drifted from the typed closure plan"
    );
    assert!(row_charged > 0.0, "{name}: measurement charged nothing");
}

#[test]
fn columnar_and_row_service_paths_release_identical_bytes_and_debits() {
    let _restore = OverrideGuard;
    let graph = toy_graph();
    let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);

    // Select/filter/group-by/join-heavy analyses: every columnar kernel participates.
    check(
        "degree_ccdf",
        &graph,
        &degree_ccdf_plan_expr(&source),
        &local_release(&degree_ccdf_plan(&source), &source, &graph),
    );
    check(
        "tbd",
        &graph,
        &tbd_plan_expr(&source, 2),
        &local_release(&tbd_plan(&source, 2), &source, &graph),
    );
    check(
        "jdd",
        &graph,
        &jdd_plan_expr(&source),
        &local_release(&jdd_plan(&source), &source, &graph),
    );
    check(
        "sbd",
        &graph,
        &sbd_plan_expr(&source),
        &local_release(&sbd_plan(&source), &source, &graph),
    );
}
