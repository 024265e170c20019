//! # wpinq-service — the measurement service of PINQ's agent model
//!
//! wPINQ (like PINQ before it) separates two roles: the **analyst**, who authors
//! queries, and the **trusted curator**, who owns the sensitive data and the privacy
//! budgets and is the only party that ever evaluates anything. Inside one process the
//! [`Queryable`](wpinq::Queryable) front end plays both roles; this crate splits them
//! across a process boundary, which the first-order expression language
//! (`wpinq-expr`) makes possible: expression-built plans serialize to the
//! [`PlanSpec`](wpinq_expr::PlanSpec) wire format, so the analyst ships *plan text* and
//! receives *noisy text* back — compiled code never crosses, raw data never leaves.
//!
//! * [`MeasurementService`] — the trusted side: registered datasets, per-analyst
//!   [`AnalystBudgets`](wpinq::budget::AnalystBudgets) grants, plan validation,
//!   optimizer-deduplicated `k·ε` accounting (two-phase and all-or-nothing across
//!   grants, safe under concurrent requests), execution under a configurable
//!   [`Executor`](wpinq::plan::Executor), an audit log of every admitted plan, the
//!   cross-request measurement [`cache`], and a JSON front door
//!   ([`MeasurementService::handle_line`]). `Send + Sync`: one
//!   `Arc<MeasurementService>` serves any number of request threads.
//! * [`Client`] — the analyst side: typed `Plan<T>` in, typed release out, generic over
//!   a [`Transport`] — the very same envelope bytes flow [`InProcess`] or over [`Tcp`]
//!   to a [`serve_tcp`] server (accept loop + worker threadpool, no async runtime).
//! * [`release`] — the canonical, bit-exact release encoding shared by both sides.
//!
//! See `PROTOCOL.md` at the repository root for the v2 envelope, the stable error
//! codes, and the cache's privacy accounting; the README's service-architecture section
//! has the layering diagram (transport → session → service → backend).
//!
//! **Determinism guarantee** (property-tested in `tests/`): for a fixed RNG state, a
//! plan measured through the service — serialize, parse, validate, rebuild dynamically,
//! optimize, evaluate, release — produces a byte-identical release to the same plan
//! measured locally in its typed form, under every executor (sequential, 2-shard,
//! 8-shard) and optimize level. Releases are a pure function of (plan, data, ε, RNG
//! state); transport and representation leave no fingerprint. The measurement cache
//! adds the service-level corollary: an identical repeated request returns the *same*
//! bytes again, with zero additional ε charged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod release;
pub mod service;
pub mod transport;

pub use cache::{
    CacheStats, MeasurementCache, CACHE_EVICTIONS_METRIC, CACHE_HITS_METRIC, CACHE_MISSES_METRIC,
};
pub use client::{Client, ClientError, ServiceClient, TypedRelease};
pub use release::{
    release_records_from_response, release_records_json, release_to_json, release_values_to_json,
};
pub use service::{
    MeasureRequest, MeasureResponse, MeasurementService, ResponseEncoding, ServiceError,
    AUDIT_DROPPED_METRIC, DEFAULT_AUDIT_CAPACITY, DEFAULT_CACHE_CAPACITY, REQUESTS_METRIC,
    REQUEST_HEADER, REQUEST_LATENCY_METRIC, REQUEST_VERSION,
};
pub use transport::{
    serve_metrics, serve_tcp, InProcess, ServerHandle, Tcp, Transport, MAX_LINE_BYTES,
};
