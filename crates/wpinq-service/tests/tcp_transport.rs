//! The TCP client transport against the in-process one. Releases several times larger
//! than the client's read buffer arrive byte-identical, one connection carries many round
//! trips, and a connection the server drops mid-response is replaced by a clean one: the
//! half-read response never leaks into the next round trip.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::{Plan, PrivacyBudget};
use wpinq_analyses::edges::{edge_count_plan_expr, symmetric_edge_dataset, Edge, EDGES_DATASET};
use wpinq_analyses::jdd::jdd_plan_expr;
use wpinq_graph::generators::barabasi_albert;
use wpinq_service::{
    serve_tcp, ClientError, InProcess, MeasureRequest, MeasurementService, ResponseEncoding, Tcp,
    Transport,
};

const ANALYST: &str = "alice";

/// The client's read buffer is 64 KiB; every large release here spans several fills.
const LARGE_RELEASE_BYTES: usize = 64 << 10;

/// A service over a preferential-attachment graph, whose joint-degree release holds
/// thousands of (degree, degree) records.
fn jdd_service() -> Arc<MeasurementService> {
    let graph = barabasi_albert(4_000, 6, &mut StdRng::seed_from_u64(7));
    let service = Arc::new(MeasurementService::new().with_noise_seed(11));
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&graph))
        .unwrap();
    service
        .grant(ANALYST, EDGES_DATASET, PrivacyBudget::new(10.0))
        .unwrap();
    service
}

/// JDD request lines in both encodings plus one small request, with their in-process
/// answers. Every request is answered once before the answers are taken, so each answer
/// is a cache replay carrying the grant's final remaining budget.
fn primed_requests(service: &Arc<MeasurementService>) -> Vec<(String, String)> {
    let source = Plan::<Edge>::source_expr(EDGES_DATASET);
    let jdd = jdd_plan_expr(&source).to_spec().unwrap();
    let small = edge_count_plan_expr(&source).to_spec().unwrap();
    let lines: Vec<String> = [
        (jdd.clone(), ResponseEncoding::Json, "jdd-json"),
        (jdd, ResponseEncoding::Columnar, "jdd-columnar"),
        (small, ResponseEncoding::Json, "edges"),
    ]
    .into_iter()
    .map(|(spec, encoding, id)| {
        MeasureRequest {
            analyst: ANALYST.into(),
            epsilon: 0.25,
            spec,
            id: Some(id.into()),
            trace: false,
            encoding,
        }
        .to_json_string()
    })
    .collect();
    let inproc = InProcess::new(service.clone());
    for line in &lines {
        let response = inproc.roundtrip(line).unwrap();
        assert!(response.contains("\"ok\":true"), "rejected: {response}");
    }
    lines
        .into_iter()
        .map(|line| {
            let response = inproc.roundtrip(&line).unwrap();
            (line, response)
        })
        .collect()
}

#[test]
fn large_cached_releases_arrive_over_tcp_byte_identical_to_in_process() {
    let service = jdd_service();
    let requests = primed_requests(&service);
    for (_, response) in &requests[..2] {
        assert!(
            response.len() > 2 * LARGE_RELEASE_BYTES,
            "release of {} bytes is not several read buffers long",
            response.len()
        );
    }
    let server = serve_tcp(service.clone(), "127.0.0.1:0", 1).expect("loopback server");
    let tcp = Tcp::new(server.local_addr().to_string());
    for _ in 0..3 {
        for (line, expected) in &requests {
            assert_eq!(&tcp.roundtrip(line).unwrap(), expected);
        }
    }
    assert_eq!(service.cache_stats().misses, 2, "only the primes evaluated");
    server.shutdown();
}

/// A one-client loopback server answering each request line from `service` in
/// process. Connection `i` hangs up after `cuts[i]` whole responses and the first half
/// of the next one; connections past the script are served until the client hangs up.
/// [`stop`](Self::stop) returns how many request lines each connection carried.
struct ScriptedServer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<usize>>,
}

impl ScriptedServer {
    fn start(service: Arc<MeasurementService>, cuts: Vec<usize>) -> ScriptedServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut carried = Vec::new();
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let mut stream = stream.unwrap();
                let cut = cuts.get(carried.len()).copied();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let (mut lines, mut line) = (0, String::new());
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let response = service.handle_line(line.trim_end());
                    line.clear();
                    if cut == Some(lines) {
                        lines += 1;
                        let half = &response.as_bytes()[..response.len() / 2];
                        stream.write_all(half).unwrap();
                        break; // Dropping the stream hangs up mid-response.
                    }
                    lines += 1;
                    stream
                        .write_all(format!("{response}\n").as_bytes())
                        .unwrap();
                }
                carried.push(lines);
            }
            carried
        });
        ScriptedServer { addr, stop, thread }
    }

    fn stop(self) -> Vec<usize> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        self.thread.join().expect("scripted server")
    }
}

#[test]
fn one_connection_carries_many_round_trips() {
    let service = jdd_service();
    let requests = primed_requests(&service);
    let server = ScriptedServer::start(service, Vec::new());
    let tcp = Tcp::new(server.addr.clone());
    for _ in 0..2 {
        for (line, expected) in &requests {
            assert_eq!(&tcp.roundtrip(line).unwrap(), expected);
        }
    }
    drop(tcp);
    assert_eq!(
        server.stop(),
        [6],
        "every round trip on the first connection"
    );
}

#[test]
fn a_connection_dropped_mid_response_is_replaced_cleanly() {
    let service = jdd_service();
    let requests = primed_requests(&service);
    let (columnar, columnar_response) = &requests[1];
    let (json, json_response) = &requests[0];
    let server = ScriptedServer::start(service, vec![1]);
    let tcp = Tcp::new(server.addr.clone());

    assert_eq!(&tcp.roundtrip(json).unwrap(), json_response);
    // The server writes half of this response and hangs up.
    match tcp.roundtrip(columnar) {
        Err(ClientError::Transport(message)) => {
            assert!(message.contains("closed"), "{message}")
        }
        other => panic!("a cut response must be a transport error, got {other:?}"),
    }
    // The next round trip reconnects; nothing of the cut response precedes its answer.
    assert_eq!(&tcp.roundtrip(columnar).unwrap(), columnar_response);
    assert_eq!(&tcp.roundtrip(json).unwrap(), json_response);
    drop(tcp);
    assert_eq!(server.stop(), [2, 2]);
}
