//! The `analyst-mix` workload: two analysts in a closed loop, each with its own
//! connection to a `serve_tcp` measurement server on loopback, sending a seeded mix of
//! fresh measurements (cold evaluation and an ε debit) and replays of their own earlier
//! requests (answered from the measurement cache), in sessions of a fixed length, each
//! on a fresh service.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wpinq::plan::{OptimizeLevel, SequentialExecutor};
use wpinq::{ExprRecord, Plan, PlanBindings, PrivacyBudget, Value, WeightedDataset};
use wpinq_analyses::degree::{degree_ccdf_plan_expr, degree_sequence_plan_expr};
use wpinq_analyses::edges::{edge_count_plan_expr, Edge, EdgeSource, EDGES_DATASET};
use wpinq_analyses::jdd::jdd_plan_expr;
use wpinq_analyses::nodes::node_count_plan_expr;
use wpinq_expr::Json;
use wpinq_service::{
    serve_tcp, Client, ClientError, MeasureRequest, MeasureResponse, MeasurementService,
    ResponseEncoding, ServerHandle, Tcp, Transport, TypedRelease, REQUEST_LATENCY_METRIC,
};
use wpinq_telemetry::LATENCY_BUCKETS_MS;

use crate::report::{Metrics, Outcome};
use crate::stats::{geomean, mean, median, remainder, tail, Tail, SHORT_TAIL_LADDER};
use crate::{derive_seed, peak_rss_mb, Fail};

/// Concurrent analysts, each one client thread with one connection.
pub const ANALYSTS: usize = 2;
/// `serve_tcp` worker threads. A connection holds a worker for its whole life, so
/// there must be at least as many workers as connections.
pub const SERVER_WORKERS: usize = 2;
/// Service set-ups before each session; `setup_s` is the median over the run. Set-up
/// takes a few milliseconds, and its time drifts with the machine from one tenth of a
/// second to the next, so the set-ups are spread over the run's sessions.
pub const SETUPS_PER_SESSION: usize = 7;
/// One request in this many is fresh; the rest replay an earlier request.
pub const FRESH_ONE_IN: u32 = 4;
/// Blocks each analyst sends in a session after its prelude. A session is one service
/// and one schedule per analyst, and a run repeats sessions until its time is up, so the
/// service's cache and the benchmark's record of first answers are the same size
/// however fast the program runs: `peak_rss_mb` does not grow with throughput.
pub const SESSION_BLOCKS: u64 = 4;
/// Each analyst's budget on the edge dataset.
const GRANT: f64 = 1e4;
/// How many standard errors the released noise may stray from its scale (see
/// [`check_noise`]).
const NOISE_SIGMAS: f64 = 6.0;

const _: () = assert!(
    ANALYSTS <= SERVER_WORKERS,
    "every connection needs a worker"
);

/// The expression-form analyses the analysts draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    DegreeCcdf,
    DegreeSequence,
    NodeCount,
    EdgeCount,
    Jdd,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::DegreeCcdf,
        Kind::DegreeSequence,
        Kind::NodeCount,
        Kind::EdgeCount,
        Kind::Jdd,
    ];

    /// How many times the plan uses the edge dataset (its ε multiplier).
    pub fn multiplicity(self) -> u32 {
        match self {
            Kind::Jdd => 4,
            _ => 1,
        }
    }
}

/// One analyst request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub epsilon: f64,
    pub columnar: bool,
    /// A new (kind, ε) pair, so a cold evaluation; otherwise a replay of an earlier one.
    pub fresh: bool,
}

/// The seeded request sequence of one analyst. The first [`PAIRS`] requests are fresh,
/// one of each (kind, encoding) pair; after them requests come in groups of
/// [`FRESH_ONE_IN`], one of them (at a seeded position) fresh and the rest replays.
/// Fresh requests and replays each draw their (kind, encoding) pair from shuffled blocks
/// of all ten pairs, so the mix is the same from seed to seed; a fresh request gets a new
/// ε, and a replay repeats a uniformly chosen earlier request of its kind.
pub struct Schedule {
    rng: StdRng,
    sent: u64,
    fresh_at: u64,
    fresh_block: Vec<(Kind, bool)>,
    replay_block: Vec<(Kind, bool)>,
    history: Vec<(Kind, f64)>,
}

impl Schedule {
    pub fn new(seed: u64, analyst: usize) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(derive_seed(seed, 1_000 + analyst as u64)),
            sent: 0,
            fresh_at: 0,
            fresh_block: Vec::new(),
            replay_block: Vec::new(),
            history: Vec::new(),
        }
    }
}

/// The number of (kind, encoding) pairs.
pub const PAIRS: usize = 2 * Kind::ALL.len();

impl Schedule {
    /// Whether every block drawn so far is complete: the prelude and a whole number of
    /// fresh and replay blocks.
    pub fn at_block_boundary(&self) -> bool {
        let block = u64::from(FRESH_ONE_IN) * PAIRS as u64;
        self.sent
            .checked_sub(PAIRS as u64)
            .is_some_and(|grouped| grouped.is_multiple_of(block))
    }
}

/// Pops the next (kind, columnar) pair of a block, refilling it shuffled when empty.
fn draw(block: &mut Vec<(Kind, bool)>, rng: &mut StdRng) -> (Kind, bool) {
    if block.is_empty() {
        block.extend(Kind::ALL.iter().flat_map(|&k| [(k, false), (k, true)]));
        block.shuffle(rng);
    }
    block.pop().expect("refilled above")
}

impl Iterator for Schedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let group = u64::from(FRESH_ONE_IN);
        let grouped = self.sent.checked_sub(PAIRS as u64);
        if let Some(i) = grouped.filter(|i| i.is_multiple_of(group)) {
            self.fresh_at = i + self.rng.gen_range(0..group);
        }
        let fresh = grouped.is_none_or(|i| i == self.fresh_at);
        self.sent += 1;
        let (kind, columnar, epsilon) = if fresh {
            let (kind, columnar) = draw(&mut self.fresh_block, &mut self.rng);
            let epsilon = 0.05 + 1e-6 * self.history.len() as f64;
            self.history.push((kind, epsilon));
            (kind, columnar, epsilon)
        } else {
            let (kind, columnar) = draw(&mut self.replay_block, &mut self.rng);
            let earlier: Vec<f64> = self
                .history
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, e)| *e)
                .collect();
            (
                kind,
                columnar,
                earlier[self.rng.gen_range(0..earlier.len())],
            )
        };
        Some(Request {
            kind,
            epsilon,
            columnar,
            fresh,
        })
    }
}

/// One analyst's plans, built over one named edge source.
struct Plans {
    source: EdgeSource,
    ccdf: Plan<u64>,
    sequence: Plan<u64>,
    nodes: Plan<()>,
    edges: Plan<()>,
    jdd: Plan<(u64, u64)>,
}

impl Plans {
    fn new() -> Plans {
        let source = EdgeSource::named();
        let edges = source.plan().clone();
        Plans {
            ccdf: degree_ccdf_plan_expr(&edges),
            sequence: degree_sequence_plan_expr(&edges),
            nodes: node_count_plan_expr(&edges),
            edges: edge_count_plan_expr(&edges),
            jdd: jdd_plan_expr(&edges),
            source,
        }
    }
}

/// Release records with their counts as bits, for exact comparison.
type Records = Vec<(Value, u64)>;

/// Each kind's exact (noiseless) output, by record.
type Exact = HashMap<Kind, HashMap<Value, f64>>;

/// Evaluates every kind's plan on `edges` without noise, as the service does before it
/// adds noise (same executor and optimizer level, which give bitwise-equal weights).
fn exact_outputs(edges: &WeightedDataset<Edge>) -> Exact {
    fn eval<R: ExprRecord>(plan: &Plan<R>, bindings: &PlanBindings) -> HashMap<Value, f64> {
        plan.eval_opt(bindings, &SequentialExecutor, OptimizeLevel::Full)
            .iter()
            .map(|(r, w)| (r.to_value(), w))
            .collect()
    }
    let plans = Plans::new();
    let mut bindings = PlanBindings::new();
    bindings.bind(plans.source.plan(), edges.clone());
    Kind::ALL
        .iter()
        .map(|&kind| {
            let exact = match kind {
                Kind::DegreeCcdf => eval(&plans.ccdf, &bindings),
                Kind::DegreeSequence => eval(&plans.sequence, &bindings),
                Kind::NodeCount => eval(&plans.nodes, &bindings),
                Kind::EdgeCount => eval(&plans.edges, &bindings),
                Kind::Jdd => eval(&plans.jdd, &bindings),
            };
            (kind, exact)
        })
        .collect()
}

/// The start, end and request line of a connection's latest round trip.
struct RoundTrip {
    began: Instant,
    ended: Instant,
    line: String,
}

/// One analyst's connection. It notes when its latest round trip began and ended, and
/// in a traced pass the request line it carried, so that a request's time splits into
/// client encode, round trip and client decode.
struct Connection {
    tcp: Tcp,
    keep_line: bool,
    last: Mutex<Option<RoundTrip>>,
}

/// The transport of one analyst's JSON and columnar clients: both share its connection.
#[derive(Clone)]
struct SharedConnection(Arc<Connection>);

impl Transport for SharedConnection {
    fn roundtrip(&self, request_line: &str) -> Result<String, ClientError> {
        let connection = &self.0;
        let line = if connection.keep_line {
            request_line.to_string()
        } else {
            String::new()
        };
        let began = Instant::now();
        let reply = connection.tcp.roundtrip(request_line);
        let ended = Instant::now();
        *connection
            .last
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(RoundTrip { began, ended, line });
        reply
    }
}

/// A running service with its server.
struct Service {
    service: Arc<MeasurementService>,
    server: ServerHandle,
}

/// Analyst `i`'s name.
fn analyst_name(i: usize) -> String {
    format!("analyst-{i}")
}

/// Builds the service with every setting pinned, registers the edges, grants each
/// analyst its budget, and starts the server.
fn start_service(edges: &WeightedDataset<Edge>, noise_seed: u64) -> Result<Service, Fail> {
    let service = Arc::new(
        MeasurementService::new()
            .with_executor(Arc::new(SequentialExecutor))
            .with_optimize_level(OptimizeLevel::Full)
            .with_measurement_cache(true)
            .with_noise_seed(noise_seed),
    );
    service
        .register(EDGES_DATASET, edges)
        .map_err(|e| Fail(format!("register: {e}")))?;
    for i in 0..ANALYSTS {
        service
            .grant(&analyst_name(i), EDGES_DATASET, PrivacyBudget::new(GRANT))
            .map_err(|e| Fail(format!("grant: {e}")))?;
    }
    let server = serve_tcp(service.clone(), "127.0.0.1:0", SERVER_WORKERS)
        .map_err(|e| Fail(format!("serve_tcp: {e}")))?;
    Ok(Service { service, server })
}

/// The layer times of one traced request: the client's own phases, the round trip, the
/// server's trace spans, and the bench-side re-runs of the server's parse and encode.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    client_encode: f64,
    roundtrip: f64,
    client_decode: f64,
    parse: f64,
    validate: f64,
    bind: f64,
    optimize: f64,
    reserve: f64,
    execute: f64,
    noise: f64,
    commit: f64,
    encode: f64,
    bytes: usize,
}

/// What one request produced.
struct Answer {
    records: Records,
    charged: f64,
    layers: Option<Layers>,
}

/// One analyst: its connection, a JSON and a columnar `Client` over it, and its plans.
struct Analyst {
    connection: Arc<Connection>,
    json: Client<SharedConnection>,
    columnar: Client<SharedConnection>,
    plans: Plans,
}

impl Analyst {
    /// Analyst `index` on a new connection to `addr`. When `traced`, both clients ask
    /// for the server's trace (`Client::with_tracing`).
    fn connect(addr: &str, index: usize, traced: bool) -> Analyst {
        let connection = Arc::new(Connection {
            tcp: Tcp::new(addr),
            keep_line: traced,
            last: Mutex::new(None),
        });
        let client = |encoding| {
            Client::new(SharedConnection(connection.clone()), analyst_name(index))
                .with_tracing(traced)
                .with_encoding(encoding)
        };
        Analyst {
            json: client(ResponseEncoding::Json),
            columnar: client(ResponseEncoding::Columnar),
            connection,
            plans: Plans::new(),
        }
    }

    /// Sends `request`; returns the answer and its latency in seconds.
    fn send(&self, request: &Request) -> Result<(Answer, f64), ClientError> {
        match request.kind {
            Kind::DegreeCcdf => self.measure(&self.plans.ccdf, request),
            Kind::DegreeSequence => self.measure(&self.plans.sequence, request),
            Kind::NodeCount => self.measure(&self.plans.nodes, request),
            Kind::EdgeCount => self.measure(&self.plans.edges, request),
            Kind::Jdd => self.measure(&self.plans.jdd, request),
        }
    }

    fn measure<R: ExprRecord>(
        &self,
        plan: &Plan<R>,
        request: &Request,
    ) -> Result<(Answer, f64), ClientError> {
        let client = if request.columnar {
            &self.columnar
        } else {
            &self.json
        };
        let started = Instant::now();
        let release = client.measure_with_id(plan, request.epsilon, None)?;
        let finished = Instant::now();
        // The latency ends here; what follows is the benchmark's own work.
        let records: Records = release
            .records
            .iter()
            .map(|(r, v)| (r.to_value(), v.to_bits()))
            .collect();
        let layers = if self.connection.keep_line {
            Some(self.layers(started, finished, &release, &records)?)
        } else {
            None
        };
        let answer = Answer {
            charged: release.charged.iter().map(|(_, e)| e).sum(),
            records,
            layers,
        };
        Ok((answer, (finished - started).as_secs_f64()))
    }

    /// Splits one traced request that ran from `started` to `finished`.
    fn layers<R: ExprRecord>(
        &self,
        started: Instant,
        finished: Instant,
        release: &TypedRelease<R>,
        records: &Records,
    ) -> Result<Layers, ClientError> {
        let trip = self
            .connection
            .last
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or_else(|| ClientError::Transport("no round trip was recorded".into()))?;
        // Re-run the server's request parse and envelope encode on the same line and
        // release, to price those two phases.
        let t = Instant::now();
        let parsed = MeasureRequest::from_json(&trip.line)?;
        let parse = t.elapsed().as_secs_f64();
        let response = MeasureResponse {
            epsilon: release.epsilon,
            output_type: R::value_type(),
            release: records
                .iter()
                .map(|(v, bits)| (v.clone(), f64::from_bits(*bits)))
                .collect(),
            charged: release.charged.clone(),
            remaining: release.remaining.clone(),
            explain: release.explain.clone(),
        };
        let t = Instant::now();
        let envelope = response
            .to_json_envelope(None, None, None, parsed.encoding)
            .to_compact();
        let encode = t.elapsed().as_secs_f64();

        let raw = Json::parse(&release.raw).map_err(|e| ClientError::Transport(e.to_string()))?;
        let spans = span_times(&raw);
        let span = |name: &str| spans.get(name).copied().unwrap_or(0.0);
        Ok(Layers {
            client_encode: (trip.began - started).as_secs_f64(),
            roundtrip: (trip.ended - trip.began).as_secs_f64(),
            client_decode: (finished - trip.ended).as_secs_f64(),
            parse,
            validate: span("validate"),
            bind: span("bind"),
            optimize: span("optimize"),
            reserve: span("reserve"),
            execute: span("execute"),
            noise: span("noise"),
            commit: span("commit"),
            encode,
            bytes: envelope.len(),
        })
    }
}

/// One analyst's side of a run.
#[derive(Default)]
struct AnalystLog {
    /// `(request, latency in seconds)` of every answered request.
    answered: Vec<(Request, f64)>,
    failed: u64,
    /// ε charged by the fresh requests, as the responses report it.
    charged: f64,
    /// ε the fresh requests should cost: multiplicity × ε.
    asked: f64,
    layers: Vec<(Request, Layers)>,
}

/// The self times of the server's trace spans, summed by name (`execute` excludes its
/// `noise` child).
fn span_times(response: &Json) -> HashMap<String, f64> {
    let mut times: HashMap<String, f64> = HashMap::new();
    let spans = response
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_arr)
        .unwrap_or_default();
    for span in spans {
        let name = span.get("name").and_then(Json::as_str).unwrap_or("");
        let us = span.get("dur_us").and_then(Json::as_u64).unwrap_or(0) as f64;
        *times.entry(name.to_string()).or_default() += us * 1e-6;
    }
    if let Some(noise) = times.get("noise").copied() {
        *times.entry("execute".into()).or_default() -= noise;
    }
    times
}

/// One analyst's closed loop for one session, or until `deadline`: send, wait for the
/// reply, check it, send the next. Every replay must return the records of the first
/// answer to that request.
fn analyst_loop(
    addr: &str,
    index: usize,
    seed: u64,
    deadline: Instant,
    traced: bool,
    first: &mut HashMap<(Kind, u64), Records>,
) -> Result<AnalystLog, Fail> {
    let name = analyst_name(index);
    let analyst = Analyst::connect(addr, index, traced);
    let mut log = AnalystLog::default();
    let mut schedule = Schedule::new(seed, index);
    let block = u64::from(FRESH_ONE_IN) * PAIRS as u64;
    // Past the deadline, finish the current block so every session sends whole blocks.
    for _ in 0..PAIRS as u64 + SESSION_BLOCKS * block {
        if schedule.at_block_boundary() && Instant::now() >= deadline {
            break;
        }
        let request = schedule.next().expect("the schedule never ends");
        let (answer, latency) = match analyst.send(&request) {
            Ok(ok) => ok,
            Err(_) => {
                log.failed += 1;
                continue;
            }
        };
        let key = (request.kind, request.epsilon.to_bits());
        if request.fresh {
            log.charged += answer.charged;
            log.asked += f64::from(request.kind.multiplicity()) * request.epsilon;
            first.insert(key, answer.records);
        } else if first.get(&key) != Some(&answer.records) {
            return Err(Fail(format!(
                "{name}: a replay of {:?} at epsilon {} returned different records",
                request.kind, request.epsilon
            )));
        }
        if let Some(layers) = answer.layers {
            log.layers.push((request, layers));
        }
        log.answered.push((request, latency));
    }
    Ok(log)
}

/// Everything one pass (sessions until the deadline) produced.
#[derive(Default)]
struct Pass {
    /// Each analyst's requests over every session, in order.
    logs: Vec<AnalystLog>,
    sessions: usize,
    /// Seconds each timed service set-up took.
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Server time inside `handle_line` (the request-latency histogram).
    handle_s: f64,
    kernel_rows: u64,
    /// Measurement-cache hits and misses.
    hits: u64,
    misses: u64,
    /// Summed |released − exact| × ε, and the released records it sums over.
    noise_sum: f64,
    noise_records: usize,
}

fn registry_handle_s() -> f64 {
    wpinq_telemetry::registry()
        .histogram(REQUEST_LATENCY_METRIC, &[], "", &LATENCY_BUCKETS_MS)
        .sum()
        * 1e-3
}

/// Runs sessions for `seconds`, each on a seed derived from `seed`; the last one ends
/// at the first block boundary past the deadline.
fn pass(
    edges: &WeightedDataset<Edge>,
    exact: &Exact,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Pass, Fail> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut pass = Pass {
        logs: (0..ANALYSTS).map(|_| AnalystLog::default()).collect(),
        ..Pass::default()
    };
    while pass.sessions == 0 || Instant::now() < deadline {
        let seed = derive_seed(seed, 3_000 + pass.sessions as u64);
        pass.setup_s.extend(timed_setups(edges, seed)?);
        session(edges, exact, seed, deadline, traced, &mut pass)?;
        pass.sessions += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    check_noise(pass.noise_sum, pass.noise_records)?;
    Ok(pass)
}

/// One session: a fresh service, both analysts on their own schedules, then the
/// service-side checks. Adds what it measured to `pass`.
fn session(
    edges: &WeightedDataset<Edge>,
    exact: &Exact,
    seed: u64,
    deadline: Instant,
    traced: bool,
    pass: &mut Pass,
) -> Result<(), Fail> {
    let svc = start_service(edges, derive_seed(seed, 2_000))?;
    let addr = svc.server.local_addr().to_string();
    let handle_before = registry_handle_s();
    let rows_before = wpinq_telemetry::registry().counter_value(wpinq::plan::KERNEL_ROWS_METRIC);
    let mut firsts: Vec<HashMap<(Kind, u64), Records>> = vec![HashMap::new(); ANALYSTS];
    let logs = std::thread::scope(|scope| {
        let threads: Vec<_> = firsts
            .iter_mut()
            .enumerate()
            .map(|(i, first)| {
                let addr = &addr;
                scope.spawn(move || analyst_loop(addr, i, seed, deadline, traced, first))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .map_err(|_| Fail("an analyst thread panicked".into()))?
            })
            .collect::<Result<Vec<_>, Fail>>()
    })?;
    pass.handle_s += registry_handle_s() - handle_before;
    pass.kernel_rows +=
        wpinq_telemetry::registry().counter_value(wpinq::plan::KERNEL_ROWS_METRIC) - rows_before;
    let cache = svc.service.cache_stats();

    let repeats: u64 = logs
        .iter()
        .map(|l| l.answered.iter().filter(|(r, _)| !r.fresh).count() as u64)
        .sum();
    let checked = check_encodings(&svc, &logs, &firsts)?;
    let all_hits = svc.service.cache_stats().hits;
    if cache.hits != repeats || all_hits != repeats + checked {
        return Err(Fail(format!(
            "the cache reports {all_hits} hits, but {} repeats were sent",
            repeats + checked
        )));
    }
    check_debits(&svc, &logs)?;
    let (noise_sum, noise_records) = noise_sums(&firsts, exact)?;
    svc.server.shutdown();

    pass.hits += cache.hits;
    pass.misses += cache.misses;
    pass.noise_sum += noise_sum;
    pass.noise_records += noise_records;
    for (all, log) in pass.logs.iter_mut().zip(logs) {
        all.answered.extend(log.answered);
        all.layers.extend(log.layers);
        all.failed += log.failed;
    }
    Ok(())
}

/// For one cached request of each analyst, a JSON and a columnar replay must decode to
/// the first answer's records. Returns the number of replays sent.
fn check_encodings(
    svc: &Service,
    logs: &[AnalystLog],
    firsts: &[HashMap<(Kind, u64), Records>],
) -> Result<u64, Fail> {
    let addr = svc.server.local_addr().to_string();
    let mut sent = 0;
    for (i, log) in logs.iter().enumerate() {
        let Some((request, _)) = log.answered.iter().find(|(r, _)| r.fresh) else {
            continue;
        };
        let analyst = Analyst::connect(&addr, i, false);
        let expected = &firsts[i][&(request.kind, request.epsilon.to_bits())];
        for encoding in [false, true] {
            let replay = Request {
                columnar: encoding,
                fresh: false,
                ..*request
            };
            let (answer, _) = analyst
                .send(&replay)
                .map_err(|e| Fail(format!("encoding check: {e}")))?;
            sent += 1;
            if &answer.records != expected {
                return Err(Fail(format!(
                    "the {} reply to a cached {:?} request decodes to other records",
                    if encoding { "columnar" } else { "JSON" },
                    request.kind
                )));
            }
        }
    }
    Ok(sent)
}

/// The ε each grant lost must equal what the fresh requests cost (replays are free),
/// both as the client computes it and as the responses report it.
fn check_debits(svc: &Service, logs: &[AnalystLog]) -> Result<(), Fail> {
    for (i, log) in logs.iter().enumerate() {
        let remaining = svc
            .service
            .remaining(&analyst_name(i), EDGES_DATASET)
            .ok_or_else(|| Fail("grant vanished".into()))?;
        let debited = GRANT - remaining;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        if !close(debited, log.asked) || !close(log.charged, log.asked) {
            return Err(Fail(format!(
                "{}: debited {debited}, responses charged {}, fresh requests cost {}",
                analyst_name(i),
                log.charged,
                log.asked
            )));
        }
    }
    Ok(())
}

/// Summed |released − exact| × ε over every record of every fresh release, and the
/// number of records. A release whose records are not exactly those of the exact output
/// fails.
fn noise_sums(
    firsts: &[HashMap<(Kind, u64), Records>],
    exact: &Exact,
) -> Result<(f64, usize), Fail> {
    let (mut sum, mut records) = (0.0, 0usize);
    for ((kind, epsilon), released) in firsts.iter().flatten() {
        let (exact, epsilon) = (&exact[kind], f64::from_bits(*epsilon));
        if released.len() != exact.len() {
            return Err(Fail(format!(
                "a {kind:?} release has {} records, the exact output {}",
                released.len(),
                exact.len()
            )));
        }
        for (value, noisy) in released {
            let truth = exact.get(value).ok_or_else(|| {
                Fail(format!(
                    "a {kind:?} release has a record {value:?} the exact output lacks"
                ))
            })?;
            sum += (f64::from_bits(*noisy) - truth).abs() * epsilon;
        }
        records += released.len();
    }
    Ok((sum, records))
}

/// The released noise in units of its scale: the mean of |released − exact| × ε.
/// `NoisyCount` adds Laplace(1/ε) noise to each record, whose absolute value has mean
/// 1/ε and standard deviation 1/ε, so a calibrated mechanism reads 1 within a few
/// multiples of 1/√records. Anything further off fails.
fn check_noise(sum: f64, records: usize) -> Result<f64, Fail> {
    let ratio = sum / records.max(1) as f64;
    if records == 0 || (ratio - 1.0).abs() > NOISE_SIGMAS / (records as f64).sqrt() {
        return Err(Fail(format!(
            "released noise is {ratio} times its Laplace scale over {records} records"
        )));
    }
    Ok(ratio)
}

/// Starts and stops [`SETUPS_PER_SESSION`] services, timing each set-up.
fn timed_setups(edges: &WeightedDataset<Edge>, seed: u64) -> Result<Vec<f64>, Fail> {
    (0..SETUPS_PER_SESSION)
        .map(|_| {
            let started = Instant::now();
            let svc = start_service(edges, derive_seed(seed, 2_000))?;
            let time = started.elapsed().as_secs_f64();
            svc.server.shutdown();
            Ok(time)
        })
        .collect()
}

/// The latencies (ms) of one (kind, encoding) class: fresh requests and replays.
#[derive(Default)]
struct Class {
    fresh: Vec<f64>,
    replayed: Vec<f64>,
}

/// The answered requests split into the [`PAIRS`] (kind, encoding) classes.
fn classes(logs: &[AnalystLog]) -> Result<Vec<Class>, Fail> {
    let mut classes: HashMap<(Kind, bool), Class> = HashMap::new();
    for (request, latency) in logs.iter().flat_map(|l| &l.answered) {
        let class = classes.entry((request.kind, request.columnar)).or_default();
        let ms = latency * 1e3;
        if request.fresh {
            class.fresh.push(ms);
        } else {
            class.replayed.push(ms);
        }
    }
    if classes.len() != PAIRS {
        return Err(Fail(
            "some (kind, encoding) class was never answered".into(),
        ));
    }
    Ok(classes.into_values().collect())
}

/// The tails of `pick`'s latencies of the classes that have one, on the short ladder (a
/// class holds tens to about a hundred samples of a kind per run).
fn class_tails(classes: &[Class], pick: fn(&Class) -> &Vec<f64>) -> Vec<Tail> {
    classes
        .iter()
        .filter_map(|c| tail(pick(c), &SHORT_TAIL_LADDER))
        .collect()
}

/// The geometric mean of class tails, with the percentiles and the fewest samples it
/// rests on: `p<lowest>-p<highest>_of_<fewest>+_per_class_geomean_of_<classes>=<ms>ms`.
fn describe(tails: &[Tail]) -> String {
    if tails.is_empty() {
        return "none".to_string();
    }
    let percentiles = tails.iter().map(|t| t.percentile);
    let lowest = percentiles.clone().fold(f64::INFINITY, f64::min);
    let highest = percentiles.fold(0.0, f64::max);
    let fewest = tails.iter().map(|t| t.samples).min().unwrap_or(0);
    let value = geomean(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    format!(
        "p{lowest}-p{highest}_of_{fewest}+_per_class_geomean_of_{}={value:.3}ms",
        tails.len()
    )
}

/// Runs `analyst-mix` sessions for `seconds`, then lets each analyst finish its current
/// block of requests. With `trace`, the time is split between an untraced pass and a
/// traced pass with the same sessions.
pub fn run(
    edges: &WeightedDataset<Edge>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, Fail> {
    let mut context = vec![
        ("workload".to_string(), "analyst-mix".to_string()),
        (
            "hardware_threads".to_string(),
            wpinq::plan::available_threads().to_string(),
        ),
        ("clients".to_string(), ANALYSTS.to_string()),
        ("connections".to_string(), ANALYSTS.to_string()),
        ("server_workers".to_string(), SERVER_WORKERS.to_string()),
    ];
    let mut metrics = Metrics::default();
    let exact = exact_outputs(edges);
    let (attempted, failed) = if trace {
        let plain = pass(edges, &exact, seed, seconds / 2.0, false)?;
        let traced = pass(edges, &exact, seed, seconds / 2.0, true)?;
        layer_metrics(&plain, &traced, &mut metrics);
        counts(&[&plain, &traced])
    } else {
        let run = pass(edges, &exact, seed, seconds, false)?;
        let peak = peak_rss_mb();
        let classes = classes(&run.logs)?;
        let summary =
            |f: &dyn Fn(&Class) -> f64| geomean(&classes.iter().map(f).collect::<Vec<_>>());
        // The cold tails go on the context line only, so classes without one are left
        // out there; the warm tail is a metric and needs every class.
        let cold_tails = class_tails(&classes, |c| &c.fresh);
        let warm_tails = class_tails(&classes, |c| &c.replayed);
        if warm_tails.len() != PAIRS {
            return Err(Fail("too few replays of a class for a tail".into()));
        }
        let answered = run.logs.iter().map(|l| l.answered.len()).sum::<usize>();
        context.extend([
            (
                "requests_per_s".to_string(),
                format!("{:.3}", answered as f64 / run.wall_s),
            ),
            ("cold_tail".to_string(), describe(&cold_tails)),
            ("warm_tail".to_string(), describe(&warm_tails)),
            ("sessions".to_string(), run.sessions.to_string()),
            ("noise_records".to_string(), run.noise_records.to_string()),
        ]);
        // Each (kind, encoding) class is summarised on its own and the classes are
        // combined by their geometric mean, so every class's relative change weighs
        // alike, however slow the class.
        let mean_latency_s = summary(&|c| mean(&[&c.fresh[..], &c.replayed[..]].concat())) * 1e-3;
        metrics.push("throughput_per_s", ANALYSTS as f64 / mean_latency_s, "1/s");
        metrics.push("cold_p50_ms", summary(&|c| median(&c.fresh)), "ms");
        metrics.push("warm_p50_ms", summary(&|c| median(&c.replayed)), "ms");
        metrics.push(
            "warm_tail_ms",
            geomean(&warm_tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            "ms",
        );
        metrics.push(
            "quality_ratio",
            run.noise_sum / run.noise_records as f64,
            "ratio",
        );
        metrics.push("setup_s", median(&run.setup_s), "s");
        metrics.push("peak_rss_mb", peak, "MB");
        counts(&[&run])
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        context,
    })
}

fn counts(passes: &[&Pass]) -> (u64, u64) {
    let failed: u64 = passes.iter().flat_map(|p| &p.logs).map(|l| l.failed).sum();
    let answered: u64 = passes
        .iter()
        .flat_map(|p| &p.logs)
        .map(|l| l.answered.len() as u64)
        .sum();
    (answered + failed, failed)
}

/// Per-layer figures of the traced pass. Each request's latency splits into client
/// encode, transport (round trip minus the server's `handle_line` time), the server
/// phases, client decode, and the `service.unattributed_us` remainder.
fn layer_metrics(plain: &Pass, traced: &Pass, metrics: &mut Metrics) {
    let rows: Vec<&(Request, Layers)> = traced.logs.iter().flat_map(|l| &l.layers).collect();
    let n = rows.len().max(1) as f64;
    let cold: Vec<&Layers> = rows
        .iter()
        .filter(|(r, _)| r.fresh)
        .map(|(_, l)| l)
        .collect();
    let ncold = cold.len().max(1) as f64;
    let total = |f: fn(&Layers) -> f64| rows.iter().map(|(_, l)| f(l)).sum::<f64>();
    let of_encoding = |columnar: bool, f: fn(&Layers) -> f64| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(r, _)| r.columnar == columnar)
            .map(|(_, l)| f(l))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let us = 1e6;
    metrics.push("service.parse_us", total(|l| l.parse) / n * us, "us");
    metrics.push(
        "service.encode_json_us",
        of_encoding(false, |l| l.encode) * us,
        "us",
    );
    metrics.push(
        "service.encode_columnar_us",
        of_encoding(true, |l| l.encode) * us,
        "us",
    );
    metrics.push(
        "release.bytes_json",
        of_encoding(false, |l| l.bytes as f64),
        "bytes",
    );
    metrics.push(
        "release.bytes_columnar",
        of_encoding(true, |l| l.bytes as f64),
        "bytes",
    );
    metrics.push("service.validate_us", total(|l| l.validate) / n * us, "us");
    metrics.push("service.bind_us", total(|l| l.bind) / n * us, "us");
    metrics.push("plan.optimize_us", total(|l| l.optimize) / n * us, "us");
    let per_cold = |f: fn(&Layers) -> f64| cold.iter().map(|l| f(l)).sum::<f64>() / ncold * us;
    metrics.push("budget.reserve_us", per_cold(|l| l.reserve), "us");
    metrics.push("plan.execute_us", per_cold(|l| l.execute), "us");
    metrics.push("core.noise_us", per_cold(|l| l.noise), "us");
    metrics.push("budget.commit_us", per_cold(|l| l.commit), "us");
    metrics.push(
        "plan.kernel_rows",
        traced.kernel_rows as f64 / ncold,
        "count",
    );
    metrics.push(
        "cache.hit_ratio",
        traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
        "ratio",
    );
    let roundtrip = total(|l| l.roundtrip);
    let transport = roundtrip - traced.handle_s;
    metrics.push(
        "client.encode_us",
        total(|l| l.client_encode) / n * us,
        "us",
    );
    metrics.push("transport.roundtrip_us", transport / n * us, "us");
    metrics.push(
        "client.decode_us",
        total(|l| l.client_decode) / n * us,
        "us",
    );
    let latency: f64 = traced
        .logs
        .iter()
        .flat_map(|l| &l.answered)
        .map(|(_, s)| s)
        .sum();
    let rest = remainder(
        latency,
        &[
            total(|l| l.client_encode),
            transport,
            total(|l| l.parse),
            total(|l| l.validate),
            total(|l| l.bind),
            total(|l| l.optimize),
            total(|l| l.reserve),
            total(|l| l.execute),
            total(|l| l.noise),
            total(|l| l.commit),
            total(|l| l.encode),
            total(|l| l.client_decode),
        ],
    );
    metrics.push("service.unattributed_us", rest / n * us, "us");
    metrics.push(
        "telemetry.trace_overhead",
        paired_latency(traced, plain) / paired_latency(plain, traced),
        "ratio",
    );
}

/// Summed latency of `a`'s requests over the schedule prefix both passes answered
/// (the schedules are identical, so the prefixes are the same requests).
fn paired_latency(a: &Pass, b: &Pass) -> f64 {
    a.logs
        .iter()
        .zip(&b.logs)
        .map(|(x, y)| {
            let k = x.answered.len().min(y.answered.len());
            x.answered[..k].iter().map(|(_, s)| s).sum::<f64>()
        })
        .sum()
}
