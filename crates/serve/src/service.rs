//! The sharded oracle and the query service built on top of it: a worker pool, or, with
//! zero workers, the submitting thread.
//!
//! [`Sharded`] is generic over the metric, so the hop-metric [`ShardedOracle`] and the
//! weighted [`WeightedShardedOracle`] (whose answers are [`Weight`](msrp_graph::Weight)s instead of
//! [`Distance`]s) route and answer through the same code. The service is generic over a
//! [`RouteOracle`]: the worker pool, queueing, metrics and batch semantics are written once.
//! `QueryService` defaults its oracle parameter to `ShardedOracle`, so existing unweighted
//! callers are unaffected.
//!
//! # Untrusted ids
//!
//! Queries reaching a service may come straight off a socket. The sharded oracle treats
//! out-of-range `target`/edge ids as *unroutable* (`(None, None)`) instead of letting them
//! reach the panicking deep-layer accessors — a malformed `Q` line must never kill a worker
//! thread (the TCP front end additionally rejects such lines with an `ERR` reply before
//! they are ever enqueued; see [`protocol::validate_query`](crate::protocol::validate_query)).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msrp_core::MsrpParams;
use msrp_graph::{CsrGraph, Distance, Edge, Hop, Metric, Vertex, Weighted, WeightedCsrGraph};
use msrp_obs::{JournalSnapshot, SlowEntry, SlowLog, SpanJournal, TraceIdGen};
use msrp_oracle::{
    build_shards, build_weighted_shards, RebuildStats, ReplacementOracle, SourceSlots,
};

use crate::exposition::{render_exposition, ObsReport};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};

/// One replacement-path query: `QUERY(source, target, avoid)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// The source vertex (must be one of the oracle's sources to be routable).
    pub source: Vertex,
    /// The target vertex.
    pub target: Vertex,
    /// The failed edge to avoid.
    pub avoid: Edge,
}

impl Query {
    /// Builds a query.
    pub fn new(source: Vertex, target: Vertex, avoid: Edge) -> Self {
        Query { source, target, avoid }
    }
}

/// The oracle interface the worker pool serves from: shard-routed, immutable, and safe
/// under arbitrary (including out-of-range) query ids.
///
/// Implementations answer with their own distance type — `Distance` for the hop metric,
/// [`Weight`](msrp_graph::Weight) for the weighted metric — and must *never panic* on a hostile [`Query`]:
/// out-of-range ids are reported as unroutable, which is what keeps a serving worker alive
/// when a malformed line slips past the protocol boundary.
pub trait RouteOracle: Send + Sync + 'static {
    /// The distance type answers are reported in.
    type Answer: Copy + Send + std::fmt::Debug + 'static;

    /// Number of shards (sizes the per-shard metrics counters).
    fn shard_count(&self) -> usize;

    /// Number of vertices of the underlying graph (the bound protocol-level validation
    /// checks ids against).
    fn vertex_count(&self) -> usize;

    /// Answers one query and reports the shard it was routed to (`None, None` when the
    /// source is unroutable or any id is out of range).
    fn query_routed(&self, q: Query) -> (Option<usize>, Option<Self::Answer>);

    /// Answers a whole batch, one `(shard, answer)` pair per query in order.
    ///
    /// This is the granularity at which a worker consults the oracle, and the hook that
    /// makes epoch-swap serving coherent: an implementation holding mutable-behind-`Arc`
    /// state (like [`EpochOracle`](crate::EpochOracle)) overrides it to resolve that state
    /// **once per batch**, so every answer in a batch comes from the same oracle snapshot
    /// even while a swap lands mid-batch. The default simply routes query by query, which
    /// is correct for immutable oracles.
    fn query_batch_routed(&self, queries: &[Query]) -> Vec<(Option<usize>, Option<Self::Answer>)> {
        queries.iter().map(|&q| self.query_routed(q)).collect()
    }
}

/// Immutable oracle shards under the metric `M` plus a dense source → shard routing table.
///
/// Each shard is a [`ReplacementOracle`] covering a contiguous slice of the sources (the
/// partition of `msrp_oracle::shard_sources`, which every sharded build uses), so shards
/// share nothing and can be queried from any number of threads concurrently — the
/// `Send + Sync` assertions in `msrp-oracle` guarantee this stays true.
#[derive(Clone, Debug)]
pub struct Sharded<M: Metric> {
    shards: Vec<ReplacementOracle<M>>,
    /// Dense `vertex → shard` routing table.
    route: SourceSlots,
}

/// Hop-metric oracle shards, answering in [`Distance`]s.
pub type ShardedOracle = Sharded<Hop>;

/// Weighted oracle shards, answering in [`Weight`](msrp_graph::Weight)s from Dijkstra trees.
pub type WeightedShardedOracle = Sharded<Weighted>;

impl<M: Metric> Sharded<M> {
    /// Wraps pre-built shards (which must cover disjoint source sets).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or two shards share a source.
    pub fn from_shards(shards: Vec<ReplacementOracle<M>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard is required");
        let pairs =
            shards.iter().enumerate().flat_map(|(i, s)| s.sources().iter().map(move |&v| (v, i)));
        let route = SourceSlots::new(shards[0].vertex_count(), pairs)
            .expect("shards must cover disjoint sources");
        Sharded { shards, route }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices of the underlying graph (every shard sees the same graph).
    pub fn vertex_count(&self) -> usize {
        self.shards[0].vertex_count()
    }

    /// All sources, in ascending order.
    pub fn sources(&self) -> Vec<Vertex> {
        let mut sources: Vec<Vertex> =
            self.shards.iter().flat_map(|s| s.sources()).copied().collect();
        sources.sort_unstable();
        sources
    }

    /// Index of the shard owning `source`, or `None` when no shard covers it.
    pub fn shard_for(&self, source: Vertex) -> Option<usize> {
        self.route.get(source)
    }

    /// Answers one query by routing it to its shard (`None` when the source is unroutable;
    /// `Some(M::INFINITY)` when the failure disconnects the target).
    pub fn query(&self, q: Query) -> Option<M::Dist> {
        self.query_routed(q).1
    }

    /// Like [`query`](Self::query), but also reports which shard the query was routed to —
    /// one routing lookup serves both the answer and the per-shard accounting.
    ///
    /// A query whose `target` or avoided-edge endpoints are out of range for the graph is
    /// reported as unroutable (`(None, None)`) instead of reaching the oracle's panicking
    /// array accesses: this is the line that keeps a worker thread alive when a hostile
    /// `Q 0 999999999 0 1` arrives over the wire (the regression in `examples/serve_tcp.rs`).
    pub fn query_routed(&self, q: Query) -> (Option<usize>, Option<M::Dist>) {
        if !query_ids_in_range(&q, self.vertex_count()) {
            return (None, None);
        }
        match self.shard_for(q.source) {
            Some(shard) => {
                (Some(shard), self.shards[shard].replacement_distance(q.source, q.target, q.avoid))
            }
            None => (None, None),
        }
    }

    /// Fault-free distance from `source` to `target` (`None` when `source` is unroutable or
    /// `target` unreachable or out of range).
    pub fn distance(&self, source: Vertex, target: Vertex) -> Option<M::Dist> {
        // The shard's `distance` indexes its tree's distance array with `target`, and a
        // hostile id must answer `None`, not panic.
        if target >= self.vertex_count() {
            return None;
        }
        let shard = self.shard_for(source)?;
        self.shards[shard].distance(source, target)
    }

    /// The shards, in routing order (read-only; what the snapshot encoder persists, and what
    /// churn drivers compare shard-for-shard against a from-scratch build).
    pub fn shards(&self) -> &[ReplacementOracle<M>] {
        &self.shards
    }
}

impl ShardedOracle {
    /// Builds `shard_count` shards in parallel (one construction worker per shard, every
    /// worker traversing the caller's frozen view through a shared reference) and wires up
    /// the routing table. `shard_count` is clamped to `[1, σ]`.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`ReplacementPathOracle::build`](msrp_oracle::ReplacementPathOracle::build) rejects (empty, duplicate, or
    /// out-of-range sources) and if a construction worker panics.
    pub fn build(
        g: &CsrGraph,
        sources: &[Vertex],
        params: &MsrpParams,
        shard_count: usize,
    ) -> Self {
        Self::from_shards(build_shards(g, sources, params, shard_count))
    }

    /// Builds `shard_count` shards with the real Bernstein–Karger preprocessing
    /// (`msrp_oracle::build_bk_shards`: one multi-seed search per tree-edge cut,
    /// one construction worker per shard over the caller's frozen view) and wires up the
    /// routing table. Serves bit-for-bit the same answers as [`build`](Self::build)
    /// and the `build_exact` route — only the preprocessing cost differs. `shard_count` is
    /// clamped to `[1, σ]`.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`ReplacementPathOracle::build_bk`](msrp_oracle::ReplacementPathOracle::build_bk) rejects (empty, duplicate,
    /// or out-of-range sources) and if a construction worker panics.
    pub fn build_bk_csr(g: &CsrGraph, sources: &[Vertex], shard_count: usize) -> Self {
        Self::from_shards(msrp_oracle::build_bk_shards(g, sources, shard_count))
    }

    /// Rebuilds every shard for `g_new` — the served graph with the single edge `changed`
    /// added or removed — through the incremental Bernstein–Karger path
    /// ([`ReplacementPathOracle::rebuild_bk`](msrp_oracle::ReplacementPathOracle::rebuild_bk)), reusing every per-source table the
    /// change provably does not touch. Routing is unchanged (the sources are the same); the
    /// merged [`RebuildStats`] quantify the work saved over a from-scratch
    /// [`build_bk_csr`](Self::build_bk_csr).
    ///
    /// # Panics
    ///
    /// Panics if `g_new` changes the vertex count or `changed` is out of range.
    pub fn rebuild_bk_csr(&self, g_new: &CsrGraph, changed: Edge) -> (Self, RebuildStats) {
        let mut stats = RebuildStats::default();
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let (next, s) = shard.rebuild_bk(g_new, changed);
                stats.merge(&s);
                next
            })
            .collect();
        (Sharded { shards, route: self.route.clone() }, stats)
    }
}

impl WeightedShardedOracle {
    /// Builds `shard_count` weighted shards in parallel (one construction worker per shard,
    /// all traversing the caller's frozen weighted view) and wires up the routing table.
    /// `shard_count` is clamped to `[1, σ]`.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`WeightedReplacementOracle::build`](msrp_oracle::WeightedReplacementOracle::build) rejects (empty, duplicate,
    /// or out-of-range sources) and if a construction worker panics.
    pub fn build(g: &WeightedCsrGraph, sources: &[Vertex], shard_count: usize) -> Self {
        Self::from_shards(build_weighted_shards(g, sources, shard_count))
    }
}

/// `true` when every id the oracle will index with is in range. The *source* needs no check:
/// routing is a table lookup, and an out-of-range source is simply not in the table.
fn query_ids_in_range(q: &Query, vertex_count: usize) -> bool {
    // Edge endpoints are normalized (lo < hi), so checking hi covers both.
    q.target < vertex_count && q.avoid.hi() < vertex_count
}

impl<M: Metric> RouteOracle for Sharded<M> {
    type Answer = M::Dist;

    fn shard_count(&self) -> usize {
        Sharded::shard_count(self)
    }

    fn vertex_count(&self) -> usize {
        Sharded::vertex_count(self)
    }

    fn query_routed(&self, q: Query) -> (Option<usize>, Option<M::Dist>) {
        Sharded::query_routed(self, q)
    }
}

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of worker threads answering batches. `0` starts no threads: every batch is
    /// answered on the thread that submits it, with the same metrics, spans and slow-log
    /// entries a pool worker records (see [`QueryService`]).
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 2 }
    }
}

/// Observability configuration of a [`QueryService`], separate from [`ServiceConfig`] so
/// the many existing construction sites stay untouched: tracing is opt-in via
/// [`QueryService::start_observed`], and the default (all off) is what plain
/// [`QueryService::start`] uses.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Capacity of the span journal ring buffer; `0` disables span tracing entirely.
    pub journal_capacity: usize,
    /// Batches at least this slow are captured — full `(s, t, e)` queries included — in
    /// the slow-query log; `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
    /// Entries the slow-query log retains (most recent win).
    pub slow_log_capacity: usize,
    /// Seed of the batch trace-id sequence: ids depend only on `(seed, submission index)`,
    /// so a seed-pinned workload produces the same trace ids on every run.
    pub trace_seed: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            journal_capacity: 0,
            slow_query_threshold: None,
            slow_log_capacity: 64,
            trace_seed: 0,
        }
    }
}

impl ObsConfig {
    /// `true` when any observability feature is on.
    pub fn enabled(&self) -> bool {
        self.journal_capacity > 0 || self.slow_query_threshold.is_some()
    }
}

/// The per-batch span stages the service journals. Wire/display names are the
/// lower-snake forms (`queue_wait`, `compute`, `reply`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchStage {
    /// Submit → dequeue: time the batch sat in the mpsc queue (near zero when a
    /// zero-worker service answers on the submitting thread).
    QueueWait,
    /// Dequeue → answers ready: the oracle consultation (this is also what the
    /// `batch_latency` histogram records).
    Compute,
    /// Answers ready → reply sent on the batch's channel (or handed to the caller inline).
    Reply,
}

impl BatchStage {
    /// All stages, in batch-lifecycle order.
    pub const ALL: [BatchStage; 3] =
        [BatchStage::QueueWait, BatchStage::Compute, BatchStage::Reply];

    /// Stable journal stage code.
    pub fn code(self) -> u16 {
        match self {
            BatchStage::QueueWait => 0,
            BatchStage::Compute => 1,
            BatchStage::Reply => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u16) -> Option<BatchStage> {
        BatchStage::ALL.into_iter().find(|s| s.code() == code)
    }

    /// Display/exposition label.
    pub fn name(self) -> &'static str {
        match self {
            BatchStage::QueueWait => "queue_wait",
            BatchStage::Compute => "compute",
            BatchStage::Reply => "reply",
        }
    }
}

/// The observability state shared by the answering path and its accessors (present only
/// when [`ObsConfig::enabled`]).
#[derive(Debug)]
struct ServiceObs {
    journal: Option<SpanJournal>,
    trace_ids: TraceIdGen,
    slow: Option<SlowLog<Vec<Query>>>,
}

/// Everything answering a batch touches, shared by the pool workers and the accessors.
#[derive(Debug)]
struct Core<O: RouteOracle> {
    oracle: O,
    metrics: Arc<ServiceMetrics>,
    obs: Option<ServiceObs>,
}

impl<O: RouteOracle> Core<O> {
    /// Answers one batch: the single answering path, run by a pool worker on a dequeued
    /// batch or, with zero workers, by the submitting thread itself. `lane` is the
    /// worker whose batch counter and journal spans the batch lands in (0 when inline).
    ///
    /// `deliver` hands the answers back (a channel send, or wrapping them for the caller);
    /// its duration is the batch's reply span, and its result is returned.
    fn answer<R>(
        &self,
        lane: usize,
        queries: &[Query],
        submitted: Instant,
        trace_id: u64,
        deliver: impl FnOnce(Vec<Option<O::Answer>>) -> R,
    ) -> R {
        let start = Instant::now();
        // One oracle consultation per batch: epoch-pinning implementations rely on this
        // being the only point answers are produced. Tally routing locally and flush once
        // per batch; per-query atomics would make the workers contend (see ServiceMetrics).
        let mut shard_counts = vec![0u64; self.oracle.shard_count()];
        let mut unroutable = 0u64;
        let answers: Vec<Option<O::Answer>> = self
            .oracle
            .query_batch_routed(queries)
            .into_iter()
            .map(|(shard, answer)| {
                match shard {
                    Some(i) => shard_counts[i] += 1,
                    None => unroutable += 1,
                }
                answer
            })
            .collect();
        let computed = Instant::now();
        self.metrics.record_batch_queries(&shard_counts, unroutable);
        self.metrics.record_batch(lane, computed.duration_since(start));
        let delivered = deliver(answers);
        if let Some(obs) = &self.obs {
            if let Some(journal) = &obs.journal {
                let spans = [
                    (BatchStage::QueueWait, start.duration_since(submitted)),
                    (BatchStage::Compute, computed.duration_since(start)),
                    (BatchStage::Reply, computed.elapsed()),
                ];
                for (stage, duration) in spans {
                    journal.record(trace_id, stage.code(), lane as u32, duration);
                }
            }
            if let Some(slow) = &obs.slow {
                // Submit → reply done: the latency a waiting client sees.
                slow.observe(trace_id, submitted.elapsed(), || queries.to_vec());
            }
        }
        delivered
    }
}

/// A batch submitted to the pool together with the channel its answers travel back on.
struct Job<A> {
    queries: Vec<Query>,
    reply: Sender<Vec<Option<A>>>,
    /// When the batch was enqueued (the start of its queue-wait span).
    submitted: Instant,
    /// Seed-stable trace id (0 when observability is off).
    trace_id: u64,
}

/// The worker threads and the queue feeding them.
#[derive(Debug)]
struct Pool<A> {
    sender: Sender<Job<A>>,
    workers: Vec<JoinHandle<()>>,
}

/// A handle to a submitted batch; redeem it with [`wait`](PendingBatch::wait). The answer
/// type defaults to the unweighted [`Distance`]; a weighted service hands out
/// `PendingBatch<Weight>`.
#[must_use = "a pending batch does nothing until waited on"]
pub struct PendingBatch<A = Distance> {
    state: Pending<A>,
}

enum Pending<A> {
    /// Answered on the submitting thread (a zero-worker service).
    Ready(Vec<Option<A>>),
    /// In the pool: the answers arrive on this channel.
    Queued(Receiver<Vec<Option<A>>>),
}

impl<A> PendingBatch<A> {
    /// Blocks until the batch's answers arrive (in submission order); returns at once when
    /// the service answered the batch inline.
    ///
    /// # Panics
    ///
    /// Panics if the worker processing the batch died (a worker panic).
    pub fn wait(self) -> Vec<Option<A>> {
        match self.state {
            Pending::Ready(answers) => answers,
            Pending::Queued(reply) => reply.recv().expect("service worker dropped a batch reply"),
        }
    }
}

/// A concurrent replacement-path query service: `Arc`-shared immutable shards behind a pool of
/// worker threads fed by an mpsc request queue, or answered inline with zero workers.
///
/// Submitting a batch enqueues it; an idle worker dequeues it, answers every query against the
/// sharded oracle, records metrics, and sends the answers back on the batch's private reply
/// channel. Batches are independent, so clients on different threads get concurrency without
/// coordination; answers within a batch stay in submission order, keeping results bit-for-bit
/// deterministic regardless of worker count.
///
/// With `ServiceConfig { workers: 0 }` no thread is started: [`submit`](Self::submit)
/// answers the batch on the caller's thread through the same code a worker runs, so the
/// metrics, journal spans and slow-log entries are the same (the batch counts on lane 0,
/// and its queue-wait span is the few nanoseconds between submit and answer). This skips
/// the queue, the reply channel and the cross-thread wake-up, which is what a caller that
/// never overlaps batches wants (each session of [`serve`](crate::session::serve), whose
/// connection cap bounds the threads that compute). Callers that pipeline submissions from
/// one thread keep workers.
///
/// Dropping the service (or calling [`shutdown`](QueryService::shutdown)) closes the queue and
/// joins every worker; batches already queued are drained first.
///
/// The service is generic over its [`RouteOracle`] and defaults to the unweighted
/// [`ShardedOracle`]; `QueryService<WeightedShardedOracle>` serves the weighted metric with
/// the identical pool, queue, metrics and ordering semantics.
#[derive(Debug)]
pub struct QueryService<O: RouteOracle = ShardedOracle> {
    /// `None` for a zero-worker service, which answers on the submitting thread.
    pool: Option<Pool<O::Answer>>,
    core: Arc<Core<O>>,
}

impl<O: RouteOracle> QueryService<O> {
    /// Starts the service over the given sharded oracle, with observability off
    /// (equivalent to [`start_observed`](Self::start_observed) with `ObsConfig::default()`).
    pub fn start(oracle: O, config: &ServiceConfig) -> Self {
        Self::start_observed(oracle, config, &ObsConfig::default())
    }

    /// Starts the service with span tracing and/or slow-query logging per `obs`.
    ///
    /// When tracing is on, every batch journals three spans — queue-wait (submit →
    /// answering starts), compute (the oracle consultation), reply (handing the answers
    /// back) — under a seed-stable trace id, and batches slower than the configured
    /// threshold are captured whole in the slow-query log. When `obs` is all-off (the
    /// default), the only hot-path additions over the untraced pool are one
    /// `Instant::now()` per submit and one branch per batch (perfbench's traced runs report
    /// the armed cost as `trace.overhead_frac`).
    pub fn start_observed(oracle: O, config: &ServiceConfig, obs: &ObsConfig) -> Self {
        let metrics = ServiceMetrics::new(oracle.shard_count(), config.workers.max(1));
        let core = Arc::new(Core {
            oracle,
            metrics: Arc::new(metrics),
            obs: obs.enabled().then(|| ServiceObs {
                journal: (obs.journal_capacity > 0).then(|| SpanJournal::new(obs.journal_capacity)),
                trace_ids: TraceIdGen::new(obs.trace_seed),
                slow: obs.slow_query_threshold.map(|t| SlowLog::new(obs.slow_log_capacity, t)),
            }),
        });
        let pool = (config.workers > 0).then(|| {
            let (sender, receiver) = channel::<Job<O::Answer>>();
            let receiver = Arc::new(Mutex::new(receiver));
            let workers = (0..config.workers)
                .map(|worker_id| {
                    let receiver = Arc::clone(&receiver);
                    let core = Arc::clone(&core);
                    std::thread::spawn(move || loop {
                        // Hold the queue lock only while dequeueing, never while answering.
                        let job = match receiver.lock().expect("queue lock").recv() {
                            Ok(job) => job,
                            Err(_) => break, // queue closed: graceful shutdown
                        };
                        core.answer(worker_id, &job.queries, job.submitted, job.trace_id, |a| {
                            // The submitter may have given up waiting; that is not an error.
                            let _ = job.reply.send(a);
                        });
                    })
                })
                .collect();
            Pool { sender, workers }
        });
        QueryService { pool, core }
    }

    /// Submits a batch without waiting for it; pair with [`PendingBatch::wait`]. A
    /// zero-worker service answers it before returning.
    pub fn submit(&self, queries: &[Query]) -> PendingBatch<O::Answer> {
        let trace_id = self.core.obs.as_ref().map_or(0, |o| o.trace_ids.next_id());
        let Some(pool) = &self.pool else {
            return self.core.answer(0, queries, Instant::now(), trace_id, |answers| {
                PendingBatch { state: Pending::Ready(answers) }
            });
        };
        let (reply_tx, reply_rx) = channel();
        pool.sender
            .send(Job {
                queries: queries.to_vec(),
                reply: reply_tx,
                submitted: Instant::now(),
                trace_id,
            })
            .expect("service queue is open while the service is alive");
        PendingBatch { state: Pending::Queued(reply_rx) }
    }

    /// Answers a batch synchronously: answers arrive in submission order, one per query
    /// (`None` for unroutable sources or out-of-range ids, `Some(∞)` for disconnections).
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Option<O::Answer>> {
        self.submit(queries).wait()
    }

    /// The sharded oracle the service answers from.
    pub fn oracle(&self) -> &O {
        &self.core.oracle
    }

    /// Number of worker threads (0 when batches are answered on the submitting thread).
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers.len())
    }

    /// Live metrics snapshot (the service keeps running).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// A shared handle to the live metrics, for recorders outside the answering path (the
    /// churn driver's rebuild thread records epoch swaps through this while the service
    /// keeps serving).
    pub fn shared_metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.core.metrics)
    }

    /// Snapshot of the span journal, or `None` when tracing is off.
    pub fn journal_snapshot(&self) -> Option<JournalSnapshot> {
        self.core.obs.as_ref().and_then(|o| o.journal.as_ref()).map(|j| j.snapshot())
    }

    /// The retained slow-query entries, oldest first (empty when the log is off).
    pub fn slow_queries(&self) -> Vec<SlowEntry<Vec<Query>>> {
        self.core
            .obs
            .as_ref()
            .and_then(|o| o.slow.as_ref())
            .map(|s| s.snapshot())
            .unwrap_or_default()
    }

    /// Total batches that ever exceeded the slow-query threshold (including evicted ones).
    pub fn slow_queries_total(&self) -> u64 {
        self.core.obs.as_ref().and_then(|o| o.slow.as_ref()).map_or(0, |s| s.recorded())
    }

    /// Renders the Prometheus-style text exposition of the service's current state:
    /// the [`MetricsSnapshot`] families plus, when observability is on, the journal and
    /// slow-query families. This is what the `METRICS` wire verb serves.
    ///
    /// The returned text always ends in exactly one `\n`. The wire framing depends on
    /// this: `METRICS` announces `text.lines().count()` lines and then writes the body
    /// raw, so a missing or doubled trailing newline would desynchronize the header from
    /// the bytes a client actually has to read.
    pub fn render_metrics(&self) -> String {
        let obs_report = self.core.obs.as_ref().map(|o| ObsReport {
            journal: o.journal.as_ref().map(|j| j.snapshot()),
            slow_total: o.slow.as_ref().map_or(0, |s| s.recorded()),
            slow_threshold: o.slow.as_ref().map(|s| s.threshold()),
        });
        let mut text = render_exposition(&self.core.metrics.snapshot(), obs_report.as_ref());
        while text.ends_with('\n') {
            text.pop();
        }
        text.push('\n');
        text
    }

    /// Gracefully shuts down: closes the queue, drains queued batches, joins every worker,
    /// and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_workers();
        self.core.metrics.snapshot()
    }

    fn stop_workers(&mut self) {
        if let Some(Pool { sender, workers }) = self.pool.take() {
            drop(sender);
            for handle in workers {
                let _ = handle.join();
            }
        }
    }
}

impl<O: RouteOracle> Drop for QueryService<O> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{cycle_graph, grid_graph};
    use msrp_graph::INFINITE_DISTANCE;
    use msrp_oracle::ReplacementPathOracle;

    fn demo_service(workers: usize, shards: usize) -> (CsrGraph, QueryService) {
        let g = grid_graph(4, 4).freeze();
        let oracle = ShardedOracle::build(&g, &[0, 5, 15], &MsrpParams::default(), shards);
        (g, QueryService::start(oracle, &ServiceConfig { workers }))
    }

    #[test]
    fn sharded_oracle_routes_to_the_owning_shard() {
        let g = cycle_graph(9).freeze();
        let oracle = ShardedOracle::build(&g, &[0, 3, 6], &MsrpParams::default(), 3);
        assert_eq!(oracle.shard_count(), 3);
        assert_eq!(oracle.sources(), vec![0, 3, 6]);
        assert_eq!(oracle.shard_for(3), Some(1));
        assert_eq!(oracle.shard_for(4), None);
        assert_eq!(oracle.query(Query::new(0, 4, Edge::new(0, 1))), Some(5));
        assert_eq!(oracle.query(Query::new(4, 0, Edge::new(0, 1))), None);
        assert_eq!(oracle.distance(6, 0), Some(3));
        assert_eq!(oracle.distance(5, 0), None);
    }

    #[test]
    fn shard_count_is_clamped_to_sigma() {
        let g = cycle_graph(6).freeze();
        let oracle = ShardedOracle::build(&g, &[0, 2], &MsrpParams::default(), 64);
        assert_eq!(oracle.shard_count(), 2);
        let oracle = ShardedOracle::build(&g, &[0, 2], &MsrpParams::default(), 0);
        assert_eq!(oracle.shard_count(), 1);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_shards_are_rejected() {
        let g = cycle_graph(6).freeze();
        let a = ReplacementPathOracle::build_exact(&g, &[0, 1]);
        let b = ReplacementPathOracle::build_exact(&g, &[1]);
        let _ = ShardedOracle::from_shards(vec![a, b]);
    }

    #[test]
    fn batches_are_answered_in_submission_order() {
        let (g, service) = demo_service(3, 2);
        let queries: Vec<Query> =
            (0..g.vertex_count()).map(|t| Query::new(0, t, Edge::new(0, 1))).collect();
        let answers = service.answer_batch(&queries);
        assert_eq!(answers.len(), queries.len());
        let oracle = service.oracle().clone();
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, oracle.query(*q));
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.queries_total, g.vertex_count() as u64);
        assert_eq!(metrics.batch_latency.count, 1);
    }

    #[test]
    fn pipelined_submission_reassembles_correctly() {
        let (g, service) = demo_service(4, 3);
        let batches: Vec<Vec<Query>> = [0usize, 5, 15]
            .iter()
            .map(|&s| (0..g.vertex_count()).map(|t| Query::new(s, t, Edge::new(1, 2))).collect())
            .collect();
        let pending: Vec<PendingBatch> = batches.iter().map(|b| service.submit(b)).collect();
        for (batch, p) in batches.iter().zip(pending) {
            let answers = p.wait();
            for (q, a) in batch.iter().zip(&answers) {
                assert_eq!(*a, service.oracle().query(*q), "q={q:?}");
            }
        }
        let metrics = service.metrics();
        assert_eq!(metrics.queries_total, 3 * g.vertex_count() as u64);
        assert_eq!(metrics.worker_batches.iter().sum::<u64>(), 3);
        assert_eq!(metrics.shard_queries.len(), 3);
    }

    #[test]
    fn unroutable_and_disconnected_queries_are_distinguished() {
        let g = msrp_graph::generators::path_graph(6).freeze();
        let oracle = ShardedOracle::build(&g, &[0], &MsrpParams::default(), 1);
        let service = QueryService::start(oracle, &ServiceConfig::default());
        let answers = service.answer_batch(&[
            Query::new(0, 5, Edge::new(2, 3)), // bridge: disconnects
            Query::new(3, 5, Edge::new(2, 3)), // 3 is not a source
        ]);
        assert_eq!(answers, vec![Some(INFINITE_DISTANCE), None]);
        let metrics = service.shutdown();
        assert_eq!(metrics.unroutable_total, 1);
    }

    #[test]
    fn shutdown_drains_queued_batches() {
        let (g, service) = demo_service(1, 1);
        let pending: Vec<PendingBatch> = (0..8)
            .map(|i| service.submit(&[Query::new(0, i % g.vertex_count(), Edge::new(0, 1))]))
            .collect();
        let metrics = service.shutdown();
        for p in pending {
            assert_eq!(p.wait().len(), 1);
        }
        assert_eq!(metrics.queries_total, 8);
    }

    #[test]
    fn empty_batches_are_legal() {
        let (_, service) = demo_service(2, 1);
        assert_eq!(service.answer_batch(&[]), Vec::<Option<Distance>>::new());
    }

    #[test]
    fn out_of_range_queries_are_unroutable_not_panics() {
        // The headline regression: `Q 0 999999999 0 1` used to reach the tree's unchecked
        // `dist[t]` and panic the worker thread.
        let (g, service) = demo_service(2, 2);
        let n = g.vertex_count();
        let hostile = [
            Query::new(0, 999_999_999, Edge::new(0, 1)), // target out of range
            Query::new(0, 3, Edge::new(0, n + 7)),       // edge endpoint out of range
            Query::new(0, 3, Edge::new(usize::MAX - 1, usize::MAX)), // both endpoints hostile
            Query::new(999_999_999, 3, Edge::new(0, 1)), // source out of range
        ];
        for q in hostile {
            assert_eq!(service.oracle().query_routed(q), (None, None), "q={q:?}");
        }
        let answers = service.answer_batch(&hostile);
        assert_eq!(answers, vec![None; hostile.len()]);
        // The workers survived: a well-formed query still gets its exact answer.
        let good = Query::new(0, 3, Edge::new(0, 1));
        assert_eq!(service.answer_batch(&[good])[0], service.oracle().query(good));
        let metrics = service.shutdown();
        assert_eq!(metrics.unroutable_total, hostile.len() as u64);
        assert_eq!(metrics.queries_total, hostile.len() as u64 + 1);
    }

    #[test]
    fn distance_rejects_out_of_range_targets_on_both_oracles() {
        // Regression: the unweighted `distance` used to forward an unchecked `target` into
        // the tree's `dist[t]` indexing — the same shape as the PR 4 headline panic, which
        // only the weighted twin had the guard for.
        let g = cycle_graph(9).freeze();
        let oracle = ShardedOracle::build(&g, &[0, 3], &MsrpParams::default(), 2);
        assert_eq!(oracle.distance(0, usize::MAX), None);
        assert_eq!(oracle.distance(0, 9), None);
        assert_eq!(oracle.distance(0, 8), Some(1));
        let (wg, sources) = weighted_demo();
        let weighted = WeightedShardedOracle::build(&wg, &sources, 2);
        assert_eq!(weighted.distance(0, usize::MAX), None);
    }

    #[test]
    fn hostile_sources_are_unroutable_on_both_sharded_oracles() {
        let g = msrp_graph::generators::grid_graph(5, 5);
        // Scrambled so no shard's sources are sorted and shards interleave.
        let sources = [19usize, 3, 24, 0, 11, 7];
        let hop = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 3);
        let (wg, _) = weighted_demo();
        let wsources = [16usize, 0, 23, 8];
        let weighted = WeightedShardedOracle::build(&wg, &wsources, 2);
        assert_eq!(hop.sources(), vec![0, 3, 7, 11, 19, 24]);
        assert_eq!(weighted.sources(), vec![0, 8, 16, 23]);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(hop.shard_for(s), Some(i / 2), "s={s}");
        }
        let e = Edge::new(0, 1);
        // n, u32::MAX, usize::MAX and an in-range non-source (1 on both graphs).
        for s in [25, u32::MAX as usize, usize::MAX, 1] {
            assert_eq!(hop.shard_for(s), None, "s={s}");
            assert_eq!(hop.query_routed(Query::new(s, 5, e)), (None, None), "s={s}");
            assert_eq!(hop.distance(s, 5), None, "s={s}");
        }
        for s in [24, u32::MAX as usize, usize::MAX, 1] {
            assert_eq!(weighted.shard_for(s), None, "s={s}");
            assert_eq!(weighted.query_routed(Query::new(s, 5, e)), (None, None), "s={s}");
            assert_eq!(weighted.distance(s, 5), None, "s={s}");
        }
    }

    #[test]
    fn vertex_count_is_exposed() {
        let (g, service) = demo_service(1, 1);
        assert_eq!(service.oracle().vertex_count(), g.vertex_count());
    }

    fn weighted_demo() -> (msrp_graph::WeightedCsrGraph, Vec<usize>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(44);
        let g =
            msrp_graph::generators::weighted_connected_gnm(24, 60, 100, &mut rng).unwrap().freeze();
        (g, vec![0, 8, 16])
    }

    #[test]
    fn weighted_service_answers_match_the_weighted_oracle() {
        let (g, sources) = weighted_demo();
        let reference = msrp_oracle::WeightedReplacementOracle::build(&g, &sources);
        let service = QueryService::start(
            WeightedShardedOracle::build(&g, &sources, 2),
            &ServiceConfig { workers: 3 },
        );
        let edges = g.edge_vec();
        let queries: Vec<Query> = sources
            .iter()
            .flat_map(|&s| {
                edges.iter().enumerate().map(move |(i, &(e, _))| Query::new(s, i % 24, e))
            })
            .collect();
        let answers = service.answer_batch(&queries);
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, reference.replacement_distance(q.source, q.target, q.avoid), "q={q:?}");
        }
        // Unroutable and hostile queries behave exactly like the unweighted service.
        let hostile = Query::new(0, usize::MAX, Edge::new(0, 1));
        assert_eq!(service.oracle().query_routed(hostile), (None, None));
        assert_eq!(service.answer_batch(&[Query::new(3, 0, edges[0].0)]), vec![None]);
        let metrics = service.shutdown();
        assert_eq!(metrics.queries_total, queries.len() as u64 + 1);
    }

    #[test]
    fn zero_worker_services_answer_like_the_oracles() {
        let (g, service) = demo_service(0, 2);
        assert_eq!(service.worker_count(), 0);
        let queries: Vec<Query> = [0usize, 5, 15, 3]
            .iter()
            .flat_map(|&s| g.edges().map(move |e| Query::new(s, (s + 7) % 16, e)))
            .collect();
        let answers = service.answer_batch(&queries);
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, service.oracle().query(*q), "q={q:?}");
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.queries_total, queries.len() as u64);
        assert_eq!(metrics.worker_batches, vec![1], "an inline batch counts on lane 0");

        let (wg, sources) = weighted_demo();
        let reference = msrp_oracle::WeightedReplacementOracle::build(&wg, &sources);
        let weighted = QueryService::start(
            WeightedShardedOracle::build(&wg, &sources, 2),
            &ServiceConfig { workers: 0 },
        );
        assert_eq!(weighted.worker_count(), 0);
        let wqueries: Vec<Query> = sources
            .iter()
            .flat_map(|&s| wg.edge_vec().into_iter().map(move |(e, _)| Query::new(s, e.hi(), e)))
            .collect();
        let answers = weighted.answer_batch(&wqueries);
        for (q, a) in wqueries.iter().zip(&answers) {
            assert_eq!(*a, reference.replacement_distance(q.source, q.target, q.avoid), "q={q:?}");
        }
        assert_eq!(weighted.shutdown().queries_total, wqueries.len() as u64);
    }

    #[test]
    fn zero_worker_pipelined_submissions_wait_in_order() {
        let (g, service) = demo_service(0, 3);
        let batches: Vec<Vec<Query>> = (0..g.vertex_count())
            .map(|t| [0, 5, 15, 2].iter().map(|&s| Query::new(s, t, Edge::new(4, 5))).collect())
            .collect();
        let pending: Vec<PendingBatch> = batches.iter().map(|b| service.submit(b)).collect();
        for (batch, p) in batches.iter().zip(pending) {
            let expected: Vec<_> = batch.iter().map(|&q| service.oracle().query(q)).collect();
            assert_eq!(p.wait(), expected);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.queries_total, 4 * g.vertex_count() as u64);
        assert_eq!(metrics.unroutable_total, g.vertex_count() as u64);
        assert_eq!(metrics.worker_batches, vec![g.vertex_count() as u64]);
    }

    #[test]
    fn zero_worker_spans_are_journaled_before_answer_batch_returns() {
        let g = grid_graph(4, 4).freeze();
        let obs = ObsConfig {
            journal_capacity: 256,
            slow_query_threshold: Some(Duration::ZERO),
            ..ObsConfig::default()
        };
        let oracle = ShardedOracle::build(&g, &[0, 5, 15], &MsrpParams::default(), 2);
        let service = QueryService::start_observed(oracle, &ServiceConfig { workers: 0 }, &obs);
        for batch in 1..=12u64 {
            service.answer_batch(&[Query::new(5, batch as usize, Edge::new(0, 1))]);
            // No settle loop: the caller's thread journaled the spans before returning.
            let journal = service.journal_snapshot().expect("journal armed");
            assert_eq!(journal.total, 3 * batch);
            assert_eq!(journal.events.len() as u64, 3 * batch);
            let last = &journal.events[journal.events.len() - 3..];
            let stages: Vec<u16> = last.iter().map(|e| e.stage).collect();
            assert_eq!(stages, BatchStage::ALL.map(BatchStage::code));
            assert!(last.iter().all(|e| e.trace_id == last[0].trace_id && e.worker == 0));
            assert_eq!(service.slow_queries_total(), batch);
        }
        assert_eq!(service.metrics().batch_latency.count, 12);
    }

    #[test]
    fn weighted_sharded_oracle_routes_and_merges() {
        let (g, sources) = weighted_demo();
        let oracle = WeightedShardedOracle::build(&g, &sources, 3);
        assert_eq!(oracle.shard_count(), 3);
        assert_eq!(oracle.sources(), sources);
        assert_eq!(oracle.vertex_count(), 24);
        assert_eq!(oracle.shard_for(8), Some(1));
        assert_eq!(oracle.shard_for(9), None);
        assert_eq!(oracle.distance(99, 0), None);
        assert_eq!(oracle.distance(0, usize::MAX), None);
        let whole = msrp_oracle::WeightedReplacementOracle::build(&g, &sources);
        for &s in &sources {
            for t in 0..24 {
                assert_eq!(oracle.distance(s, t), whole.distance(s, t));
                for &(e, _) in g.edge_vec().iter().take(12) {
                    assert_eq!(
                        oracle.query(Query::new(s, t, e)),
                        whole.replacement_distance(s, t, e)
                    );
                }
            }
        }
    }
}
