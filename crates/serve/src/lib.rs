//! `msrp-serve`: a concurrent, sharded replacement-path query service.
//!
//! The Bernstein–Karger-style oracle of `msrp-oracle` is read-only after construction, which
//! makes it a natural fit for a shared-nothing serving architecture: the σ sources are sharded
//! across independent [`ReplacementPathOracle`](msrp_oracle::ReplacementPathOracle)s (built in
//! parallel, one worker per shard), and queries are routed to the shard owning their source.
//! This crate turns that observation into a subsystem:
//!
//! * [`ShardedOracle`] — immutable, `Arc`-shareable shards plus a source → shard routing table;
//! * [`QueryService`] — a worker pool fed by an mpsc request queue, with a batch-query API
//!   ([`answer_batch`](QueryService::answer_batch)), pipelined submission
//!   ([`submit`](QueryService::submit)), and graceful shutdown. `ServiceConfig { workers: 0 }`
//!   is not clamped to one worker: it starts no threads and answers every batch on the
//!   submitting thread through the same code path, metrics and spans (what [`serve`]'s
//!   sessions run, each on its own connection thread);
//! * [`metrics`] — log-bucketed latency histograms (p50/p99/max) and per-shard/per-lane
//!   throughput counters;
//! * [`exposition`] — a Prometheus-style text rendering of those metrics (plus span-journal
//!   and slow-query families from `msrp-obs`), served over the wire by the `METRICS` verb;
//! * [`loadgen`] — a deterministic, seed-pinned closed-loop load generator for driving the
//!   service from N client threads;
//! * [`protocol`] — the grammar of the newline-delimited text protocol spoken on the wire;
//! * [`wire`] — bounded line reading, capping what a hostile newline-free connection can
//!   make the server buffer;
//! * [`session`] — the one implementation of the wire: [`run_session`] answers one
//!   client's lines over any reader and writer, and [`serve`] is the bounded accept loop
//!   (connection cap, idle timeout, `STOP`) that `msrpctl serve` and `serve_tcp` drive;
//! * [`snapshot`] — boot-from-snapshot paths over `msrp-snap`, so a serving process can
//!   adopt a persisted oracle instead of re-running construction.
//!
//! # Determinism
//!
//! Nothing in the service introduces nondeterminism into *answers*: shards are pure functions
//! of `(graph, sources, params, shard_count)`, each query is answered from immutable state, and
//! batches are returned in submission order. Thread scheduling only affects timings. The
//! concurrency property suite (`tests/service_properties.rs`) pins seeds and asserts that
//! service answers agree bit-for-bit with the single-threaded oracle and with brute-force
//! ground truth across worker/shard counts.
//!
//! # Quick example
//!
//! ```
//! use msrp_core::MsrpParams;
//! use msrp_graph::{generators::cycle_graph, Edge};
//! use msrp_serve::{Query, QueryService, ServiceConfig, ShardedOracle};
//!
//! let g = cycle_graph(8).freeze();
//! let oracle = ShardedOracle::build(&g, &[0, 4], &MsrpParams::default(), 2);
//! let service = QueryService::start(oracle, &ServiceConfig::default());
//! let answers = service.answer_batch(&[Query::new(0, 3, Edge::new(1, 2))]);
//! assert_eq!(answers, vec![Some(5)]);
//! let metrics = service.shutdown();
//! assert_eq!(metrics.queries_total, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod exposition;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use epoch::{Epoch, EpochOracle};
pub use exposition::{render_exposition, ObsReport};
pub use loadgen::{random_queries, run_closed_loop, run_closed_loop_on, LoadConfig, LoadReport};
pub use metrics::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServiceMetrics};
pub use protocol::{
    format_answer, format_metrics_header, format_query, format_stats, format_weighted_answer,
    format_weighted_query, parse_answer, parse_metrics_header, parse_request, parse_stats,
    parse_weighted_answer, validate_query, ProtocolError, Request, StatsReply,
};
pub use service::{
    BatchStage, ObsConfig, PendingBatch, Query, QueryService, RouteOracle, ServiceConfig, Sharded,
    ShardedOracle, WeightedShardedOracle,
};
pub use session::{
    run_session, serve, Services, SessionEnd, IDLE_TIMEOUT, MAX_BATCH, MAX_CONNECTIONS,
};
pub use wire::{read_line_bounded, LineOutcome, MAX_LINE_BYTES};
