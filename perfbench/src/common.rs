//! Pieces every workload shares: the seeded inputs, the closed-loop request loop, the
//! journal join behind the service breakdown, and the result accumulator.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use msrp::graph::generators::connected_gnm;
use msrp::graph::{BfsScratch, CsrGraph, Distance, Edge, Graph, Vertex};
use msrp::obs::{JournalSnapshot, StageProfile, TraceIdGen};
use msrp::oracle::{shard_sources, ReplacementPathOracle};
use msrp::serve::{BatchStage, ObsConfig, Query, QueryService, RouteOracle, ShardedOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vertices of every workload graph (edges: `4 * N`).
pub const N: usize = 2048;
/// Shards of every oracle: the shipped `msrpctl create` default.
pub const SHARDS: usize = 2;
/// Queries checked against avoiding-search ground truth per run.
pub const TRUTH_SAMPLE: usize = 128;
/// Requests one traced phase may issue: the span journal holds all of their spans, so a
/// traced run never drops one by wrap-around.
pub const MAX_TRACED_REQUESTS: usize = 200_000;
/// A traced run is invalid when its stages miss the traced wall by more than this share.
pub const UNACCOUNTED_BOUND: f64 = 0.10;

/// Named metric values in the order they were first set.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sets `{prefix}_p50_ns` and `{prefix}_p99_ns` from raw nanosecond samples.
    pub fn set_p50_p99_ns(&mut self, prefix: &str, samples: &[i64]) {
        self.set(format!("{prefix}_p50_ns"), quantile(samples, 0.50));
        self.set(format!("{prefix}_p99_ns"), quantile(samples, 0.99));
    }
}

/// What one run measured and how many of its operations failed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `false` when a traced run's own validity checks failed.
    pub valid: bool,
    pub metrics: Metrics,
    /// Failure and validity messages, printed to standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome { attempted: 0, failed: 0, valid: true, metrics: Metrics::default(), notes: vec![] }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("{failed} of {attempted} failed: {}", what()));
        }
    }

    pub fn invalidate(&mut self, why: String) {
        self.valid = false;
        self.notes.push(format!("invalid trace: {why}"));
    }

    /// Records the trace-validity metrics and fails the run when they are out of bounds.
    pub fn trace_validity(&mut self, unaccounted: f64, overhead: f64, dropped: u64) {
        self.metrics.set("trace.unaccounted_frac", unaccounted);
        self.metrics.set("trace.overhead_frac", overhead);
        self.metrics.set("serve.journal.dropped", dropped as f64);
        if unaccounted.abs() > UNACCOUNTED_BOUND {
            self.invalidate(format!(
                "stages miss the traced wall by {:.1}% (bound {:.0}%)",
                100.0 * unaccounted,
                100.0 * UNACCOUNTED_BOUND
            ));
        }
        if dropped > 0 {
            self.invalidate(format!("{dropped} journal spans dropped or unmatched"));
        }
    }
}

pub fn ns(d: Duration) -> i64 {
    i64::try_from(d.as_nanos()).unwrap_or(i64::MAX)
}

/// Nearest-rank quantile of unsorted samples (0 for no samples).
pub fn quantile(samples: &[i64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// An independent random stream per purpose, all derived from the run's seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// σ sources spread evenly over the vertex ids (the `msrpctl create` choice).
pub fn sources(sigma: usize) -> Vec<Vertex> {
    (0..sigma).map(|i| i * N / sigma).collect()
}

/// The seeded hop-metric workload graph.
pub fn hop_graph(seed: u64) -> Result<Graph, String> {
    connected_gnm(N, 4 * N, &mut rng(seed, 1)).map_err(|e| format!("generator: {e}"))
}

/// A query every set-up sends first: its reply ends the set-up.
pub fn probe_query(sources: &[Vertex], edges: &[Edge]) -> Query {
    Query::new(sources[0], N - 1, edges[0])
}

/// The seeded query mix and the share of its avoided edges lying on the canonical path.
pub struct Mix {
    pub queries: Vec<Query>,
    pub on_path_share: f64,
}

/// Draws `count` queries: even-indexed ones avoid a uniform edge of the canonical `s–t`
/// path (`path` asks the owning shard), odd-indexed ones a uniform edge of the graph.
pub fn query_mix(
    sources: &[Vertex],
    edges: &[Edge],
    count: usize,
    seed: u64,
    path: impl Fn(Vertex, Vertex) -> Option<Vec<Vertex>>,
) -> Mix {
    let mut rng = rng(seed, 2);
    let mut queries = Vec::with_capacity(count);
    let mut on_path = 0usize;
    for i in 0..count {
        let q = loop {
            let s = sources[rng.gen_range(0..sources.len())];
            let t = rng.gen_range(0..N);
            if i % 2 == 1 {
                break Query::new(s, t, edges[rng.gen_range(0..edges.len())]);
            }
            match path(s, t) {
                Some(p) if p.len() >= 2 => {
                    let k = rng.gen_range(0..p.len() - 1);
                    break Query::new(s, t, Edge::new(p[k], p[k + 1]));
                }
                _ => continue,
            }
        };
        let on = path(q.source, q.target)
            .is_some_and(|p| p.windows(2).any(|w| Edge::new(w[0], w[1]) == q.avoid));
        on_path += usize::from(on);
        queries.push(q);
    }
    Mix { queries, on_path_share: on_path as f64 / count.max(1) as f64 }
}

/// Queries whose expected answer disagrees with an avoiding BFS on `g`.
pub fn hop_truth_misses(g: &CsrGraph, queries: &[Query], expected: &[Option<Distance>]) -> u64 {
    let mut bfs = BfsScratch::new();
    let misses = queries.iter().zip(expected).filter(|&(q, want)| {
        bfs.run_avoiding(g, q.source, q.avoid);
        Some(bfs.dist()[q.target]) != *want
    });
    misses.count() as u64
}

/// Peak resident set (`VmHWM`) of a process (`"self"` or a pid), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Wall times of each set-up phase, one entry per repetition.
#[derive(Default)]
pub struct SetupTimes {
    pub setup: Vec<f64>,
    pub build: Vec<f64>,
    pub boot: Vec<f64>,
    pub encode: Vec<f64>,
    pub decode: Vec<f64>,
}

impl SetupTimes {
    /// Records the medians: the end-to-end set-up metrics and the codec stages.
    pub fn report(&self, m: &mut Metrics) {
        m.set("setup_s", median(&self.setup));
        m.set("build_s", median(&self.build));
        m.set("boot_s", median(&self.boot));
        m.set("snap.encode_ms", 1e3 * median(&self.encode));
        m.set("snap.decode_ms", 1e3 * median(&self.decode));
    }
}

/// Per-request timings of closed-loop requests, in ns. `enqueue` and `wait` (`submit` and
/// `PendingBatch::wait`) are filled only when traced.
#[derive(Default)]
pub struct Requests {
    pub wall: Vec<i64>,
    pub enqueue: Vec<i64>,
    pub wait: Vec<i64>,
}

impl Requests {
    pub fn append(&mut self, mut other: Requests) {
        self.wall.append(&mut other.wall);
        self.enqueue.append(&mut other.enqueue);
        self.wait.append(&mut other.wait);
    }
}

/// Sends the pool's batches of `batch` queries in order, one outstanding, until `until`.
/// `on_reply` sees each batch's index and answers after its timing ends.
pub fn closed_loop<O: RouteOracle>(
    service: &QueryService<O>,
    pool: &[Query],
    batch: usize,
    until: Instant,
    traced: bool,
    mut on_reply: impl FnMut(usize, &[Option<O::Answer>]),
) -> Requests {
    let batches = pool.len() / batch;
    let mut r = Requests::default();
    let mut i = 0usize;
    while Instant::now() < until && !(traced && r.wall.len() >= MAX_TRACED_REQUESTS) {
        let b = i % batches;
        let queries = &pool[b * batch..(b + 1) * batch];
        let answers = if traced {
            let t0 = Instant::now();
            let pending = service.submit(queries);
            let t1 = Instant::now();
            let answers = pending.wait();
            let t2 = Instant::now();
            r.enqueue.push(ns(t1 - t0));
            r.wait.push(ns(t2 - t1));
            r.wall.push(ns(t2 - t0));
            answers
        } else {
            let t0 = Instant::now();
            let answers = service.answer_batch(queries);
            r.wall.push(ns(t0.elapsed()));
            answers
        };
        on_reply(b, &answers);
        i += 1;
    }
    r
}

/// A run's measurement is split into this many blocks, each preceded by its own set-up,
/// so set-up samples and request samples both spread over the whole run.
pub fn block_seconds(args: &crate::Args, blocks: usize) -> Duration {
    Duration::from_secs_f64(args.seconds / blocks as f64)
}

/// A traced run alternates untraced (even) and traced (odd) blocks.
pub fn block_traced(args: &crate::Args, block: usize) -> bool {
    args.trace && block % 2 == 1
}

/// The journal options of a traced service: room for every span of a traced block.
pub fn traced_obs(trace_seed: u64) -> ObsConfig {
    ObsConfig { journal_capacity: 3 * MAX_TRACED_REQUESTS + 64, trace_seed, ..ObsConfig::default() }
}

/// The service's journal once it holds `spans` spans (workers journal after replying, so
/// the last batch's spans may trail its reply briefly).
fn settled_journal<O: RouteOracle>(service: &QueryService<O>, spans: usize) -> JournalSnapshot {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let snap = service.journal_snapshot().expect("traced services journal spans");
        if snap.total as usize >= spans || Instant::now() >= deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Traced requests joined with the pool's span journal, accumulated over traced blocks.
#[derive(Default)]
pub struct ServiceTrace {
    pub reqs: Requests,
    /// `queue_wait`, `compute`, `reply` (journaled) and `wakeup` (`wait` minus the three).
    stages: [Vec<i64>; 4],
    /// Spans dropped, torn, or missing for some request.
    lost: u64,
}

impl ServiceTrace {
    /// Joins one traced block's requests to `service`'s journal: the i-th `submit` of a
    /// service carries the i-th id of `TraceIdGen::new(trace_seed)`.
    pub fn add<O: RouteOracle>(
        &mut self,
        service: &QueryService<O>,
        trace_seed: u64,
        reqs: Requests,
    ) {
        let journal = settled_journal(service, 3 * reqs.wait.len());
        let mut spans: HashMap<u64, ([i64; 3], usize)> = HashMap::new();
        for e in &journal.events {
            let Some(stage) = BatchStage::from_code(e.stage) else { continue };
            let slot = BatchStage::ALL.iter().position(|&s| s == stage).expect("stage is in ALL");
            let entry = spans.entry(e.trace_id).or_default();
            entry.0[slot] = ns(e.duration);
            entry.1 += 1;
        }
        let ids = TraceIdGen::new(trace_seed);
        for &wait in &reqs.wait {
            match spans.get(&ids.next_id()) {
                Some(&(s, 3)) => {
                    for (k, &d) in s.iter().enumerate() {
                        self.stages[k].push(d);
                    }
                    self.stages[3].push(wait - s.iter().sum::<i64>());
                }
                _ => self.lost += 1,
            }
        }
        self.lost += journal.dropped + journal.skipped;
        self.reqs.append(reqs);
    }

    /// Sets the `serve.service.*` metrics, the client's request latency, and the trace
    /// validity metrics (`plain`: the untraced blocks' requests; `unaccounted`: the share
    /// of the traced wall no stage span covers).
    pub fn report(&self, out: &mut Outcome, plain: &Requests, unaccounted: f64) {
        let m = &mut out.metrics;
        m.set_p50_p99_ns("client.request", &plain.wall);
        m.set_p50_p99_ns("serve.service.enqueue", &self.reqs.enqueue);
        let names = ["queue_wait", "compute", "reply", "wakeup"];
        for (name, samples) in names.iter().zip(&self.stages) {
            m.set_p50_p99_ns(&format!("serve.service.{name}"), samples);
        }
        let overhead = quantile(&self.reqs.wall, 0.5) / quantile(&plain.wall, 0.5) - 1.0;
        out.trace_validity(unaccounted, overhead, self.lost);
    }

    /// Share of the traced wall the client-side spans of in-process requests miss.
    pub fn unaccounted_share(&self) -> f64 {
        let wall: i64 = self.reqs.wall.iter().sum();
        let staged: i64 = self.reqs.enqueue.iter().chain(&self.reqs.wait).sum();
        (wall - staged) as f64 / wall.max(1) as f64
    }
}

/// Per-query `query_routed` times over the pool, each including one clock read.
pub fn lookup_ns<O: RouteOracle>(oracle: &O, pool: &[Query]) -> Vec<i64> {
    pool.iter()
        .map(|&q| {
            let t0 = Instant::now();
            black_box(oracle.query_routed(black_box(q)));
            ns(t0.elapsed())
        })
        .collect()
}

/// Rebuilds `reference` with the profiled Bernstein–Karger build, one scoped worker per
/// shard chunk as the shipped build does, and sets the `oracle.bk.*` stage metrics (each
/// summed over the shard workers). Returns whether every row equals the untraced build's.
pub fn bk_profile(
    m: &mut Metrics,
    g: &CsrGraph,
    sources: &[Vertex],
    reference: &ShardedOracle,
) -> bool {
    let built: Vec<(ReplacementPathOracle, StageProfile)> = std::thread::scope(|scope| {
        let workers: Vec<_> = shard_sources(sources, SHARDS)
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut profile = StageProfile::new();
                    (ReplacementPathOracle::build_bk_csr_profiled(g, chunk, &mut profile), profile)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("profiled build worker panicked")).collect()
    });
    let mut profile = StageProfile::new();
    let shards: Vec<ReplacementPathOracle> = built
        .into_iter()
        .map(|(shard, p)| {
            profile.merge(&p);
            shard
        })
        .collect();
    let t0 = Instant::now();
    let traced = ShardedOracle::from_shards(shards);
    let merge = t0.elapsed();
    for stage in ["tree", "cover", "rows", "cuts"] {
        let total = profile.get(stage).map_or(Duration::ZERO, |s| s.total);
        m.set(format!("oracle.bk.{stage}_ms"), 1e3 * total.as_secs_f64());
    }
    m.set("oracle.bk.merge_ms", 1e3 * merge.as_secs_f64());
    traced.shard_count() == reference.shard_count()
        && traced
            .shards()
            .iter()
            .zip(reference.shards())
            .all(|(a, b)| a.per_source() == b.per_source())
}
