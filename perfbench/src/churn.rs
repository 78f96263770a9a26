//! `churn_sigma16`: reads beside writes. An open-loop writer toggles seeded edges (fail or
//! repair) at a fixed rate, each event an incremental `rebuild_bk_csr` plus `publish`,
//! while a closed-loop reader sends 16-query batches to a `QueryService<EpochOracle>`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use msrp::graph::{Distance, Edge, Graph};
use msrp::oracle::RebuildStats;
use msrp::serve::{EpochOracle, Query, QueryService, ServiceConfig, ShardedOracle};
use rand::Rng;

use crate::common::{
    self, ns, Mix, Outcome, Requests, ServiceTrace, SetupTimes, SHARDS, TRUTH_SAMPLE,
};
use crate::Args;

/// Blocks per run, each a set-up then a measured stretch; `setup_s`, `build_s` and
/// `boot_s` are medians over the blocks' set-ups.
const BLOCKS: usize = 10;
const SIGMA: usize = 16;
const BATCH: usize = 16;
/// Queries in the reader's pool: small enough that the writer can record every epoch's
/// expected answers for all of it.
const POOL: usize = 4096;
/// Writer events per second, well below rebuild capacity.
const RATE: f64 = 20.0;

/// A seeded toggle sequence: `(edge, repair)`, where a repair re-adds a failed edge.
fn toggles(g: &Graph, count: usize, seed: u64) -> Vec<(Edge, bool)> {
    let mut g = g.clone();
    let mut rng = common::rng(seed, 3);
    let mut down: Vec<Edge> = Vec::new();
    (0..count)
        .map(|_| {
            if !down.is_empty() && rng.gen_range(0..3usize) == 0 {
                let e = down.swap_remove(rng.gen_range(0..down.len()));
                g.add_edge(e.lo(), e.hi()).expect("a failed edge can be repaired");
                (e, true)
            } else {
                let edges = g.edge_vec();
                let e = edges[rng.gen_range(0..edges.len())];
                g.remove_edge(e.lo(), e.hi()).expect("a present edge can fail");
                down.push(e);
                (e, false)
            }
        })
        .collect()
}

fn answers_hash(answers: &[Option<Distance>]) -> u64 {
    let mut h = DefaultHasher::new();
    answers.hash(&mut h);
    h.finish()
}

/// The hash of every pool batch's answers under one epoch's oracle.
fn batch_hashes(oracle: &ShardedOracle, pool: &[Query]) -> Vec<u64> {
    let answers =
        |batch: &[Query]| batch.iter().map(|&q| oracle.query_routed(q).1).collect::<Vec<_>>();
    pool.chunks_exact(BATCH).map(|batch| answers_hash(&answers(batch))).collect()
}

/// What the writer measured over one phase.
#[derive(Default)]
struct Writes {
    /// Event due → `publish` returned, per event.
    staleness: Vec<i64>,
    publish: Vec<i64>,
    stats: RebuildStats,
}

impl Writes {
    fn append(&mut self, mut other: Writes) {
        self.staleness.append(&mut other.staleness);
        self.publish.append(&mut other.publish);
        self.stats.merge(&other.stats);
    }
}

/// Runs the reader and the writer against `service` for `block`, checks every reader
/// batch against the epochs it may have been answered by, and checks the final epoch.
#[allow(clippy::too_many_arguments)]
fn phase(
    out: &mut Outcome,
    service: &QueryService<EpochOracle>,
    graph: &Graph,
    sources: &[usize],
    events: &[(Edge, bool)],
    pool: &[Query],
    block: Duration,
    traced: bool,
) -> (Requests, Writes) {
    let start = Instant::now();
    let until = start + block;
    let first_table = batch_hashes(&service.oracle().current().oracle, pool);
    let mut log: Vec<(usize, u64, u64, u64)> = Vec::new();
    let (reads, final_graph, writes, tables) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut g = graph.clone();
            let mut writes = Writes::default();
            let mut tables = vec![first_table];
            for (i, &(e, repair)) in events.iter().enumerate() {
                let due = start + Duration::from_secs_f64((i + 1) as f64 / RATE);
                if due >= until {
                    break;
                }
                if let Some(early) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(early);
                }
                let toggled =
                    if repair { g.add_edge(e.lo(), e.hi()) } else { g.remove_edge(e.lo(), e.hi()) };
                toggled.expect("events toggle edges of the current graph");
                let csr = g.freeze();
                let (next, stats) = service.oracle().current().oracle.rebuild_bk_csr(&csr, e);
                let p0 = Instant::now();
                let epoch = service.oracle().publish(next);
                let p1 = Instant::now();
                writes.staleness.push(ns(p1 - due));
                writes.publish.push(ns(p1 - p0));
                writes.stats.merge(&stats);
                tables.push(batch_hashes(&epoch.oracle, pool));
            }
            (g, writes, tables)
        });
        let mut seen = service.oracle().epoch_id();
        let reads = common::closed_loop(service, pool, BATCH, until, traced, |b, answers| {
            let now = service.oracle().epoch_id();
            log.push((b, seen, now, answers_hash(answers)));
            seen = now;
        });
        let (g, writes, tables) = writer.join().expect("churn writer panicked");
        (reads, g, writes, tables)
    });

    // Each batch is answered by one epoch published between the reads around it.
    let stale =
        log.iter().filter(|&&(b, lo, hi, h)| !(lo..=hi).any(|k| tables[k as usize][b] == h));
    let stale = stale.count() as u64;
    out.tally(log.len() as u64, stale, || {
        "reader batches match no epoch they could have seen".into()
    });
    let applied = writes.staleness.len() as u64;
    let epoch = service.oracle().current();
    out.check(epoch.id == applied, || format!("final epoch {} after {applied} events", epoch.id));
    let final_csr = final_graph.freeze();
    let scratch = ShardedOracle::build_bk_csr(&final_csr, sources, SHARDS);
    let same = epoch
        .oracle
        .shards()
        .iter()
        .zip(scratch.shards())
        .all(|(a, b)| a.per_source() == b.per_source());
    out.check(same, || "final epoch differs from a from-scratch build".into());
    let sample = &pool[..TRUTH_SAMPLE];
    let answers: Vec<_> = sample.iter().map(|&q| epoch.oracle.query_routed(q).1).collect();
    let misses = common::hop_truth_misses(&final_csr, sample, &answers);
    out.tally(TRUTH_SAMPLE as u64, misses, || "final epoch differs from avoiding-BFS truth".into());
    (reads, writes)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let graph = common::hop_graph(args.seed)?;
    let csr = graph.freeze();
    let edges = graph.edge_vec();
    let sources = common::sources(SIGMA);
    let probe = common::probe_query(&sources, &edges);
    let config = ServiceConfig::default();
    let block = common::block_seconds(args, BLOCKS);
    let events = toggles(&graph, (block.as_secs_f64() * RATE).ceil() as usize + 1, args.seed);
    let mut out = Outcome::new();
    let mut times = SetupTimes::default();
    let mut inputs: Option<Mix> = None;
    let (mut plain, mut trace, mut writes) =
        (Requests::default(), ServiceTrace::default(), Writes::default());
    let mut last = None;
    for b in 0..BLOCKS {
        drop(last.take());
        let traced = common::block_traced(args, b);
        let t0 = Instant::now();
        let oracle = ShardedOracle::build_bk_csr(&csr, &sources, SHARDS);
        let t1 = Instant::now();
        let bytes = oracle.to_snapshot(&csr);
        let t2 = Instant::now();
        let (_, booted) = ShardedOracle::from_snapshot(&bytes).map_err(|e| format!("boot: {e}"))?;
        let t3 = Instant::now();
        let service = match traced {
            true => QueryService::start_observed(
                EpochOracle::new(booted),
                &config,
                &common::traced_obs(args.seed),
            ),
            false => QueryService::start(EpochOracle::new(booted), &config),
        };
        let first = service.answer_batch(&[probe]);
        let t4 = Instant::now();
        out.check(first[0] == oracle.query(probe), || "set-up probe reply".into());
        times.setup.push((t4 - t0).as_secs_f64());
        times.build.push((t1 - t0).as_secs_f64());
        times.encode.push((t2 - t1).as_secs_f64());
        times.decode.push((t3 - t2).as_secs_f64());
        times.boot.push((t4 - t2).as_secs_f64());

        let mix = inputs.get_or_insert_with(|| {
            let mix = common::query_mix(&sources, &edges, POOL, args.seed, |s, t| {
                oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
            });
            let sample = &mix.queries[..TRUTH_SAMPLE];
            let expected: Vec<_> = sample.iter().map(|&q| oracle.query(q)).collect();
            let misses = common::hop_truth_misses(&csr, sample, &expected);
            out.tally(TRUTH_SAMPLE as u64, misses, || {
                "oracle answers differ from avoiding-BFS truth".into()
            });
            mix
        });
        let (reads, w) =
            phase(&mut out, &service, &graph, &sources, &events, &mix.queries, block, traced);
        writes.append(w);
        match traced {
            true => trace.add(&service, args.seed, reads),
            false => plain.append(reads),
        }
        last = Some((oracle, bytes.len(), service));
    }
    let (oracle, snapshot_len, service) = last.expect("BLOCKS > 0");
    let mix = inputs.expect("BLOCKS > 0");
    times.report(&mut out.metrics);
    if !args.trace {
        out.metrics.set("request_p50_us", common::quantile(&plain.wall, 0.5) / 1e3);
        out.metrics.set(
            "peak_rss_mb",
            common::peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?,
        );
        out.metrics.set("snapshot_mb", snapshot_len as f64 / 1e6);
        return Ok(out);
    }
    trace.report(&mut out, &plain, trace.unaccounted_share());
    let m = &mut out.metrics;
    m.set_p50_p99_ns(
        "oracle.lookup",
        &common::lookup_ns(&service.oracle().current().oracle, &mix.queries),
    );
    m.set("oracle.on_path_share", mix.on_path_share);
    let per_event = |x: f64| x / writes.staleness.len().max(1) as f64;
    let s = &writes.stats;
    for (rung, _, time) in s.rungs() {
        m.set(format!("oracle.incremental.{rung}_ms"), per_event(1e3 * time.as_secs_f64()));
    }
    m.set("oracle.incremental.sources_reused", per_event(s.sources_reused as f64));
    m.set("oracle.incremental.sources_patched", per_event(s.sources_patched as f64));
    m.set("oracle.incremental.sources_rebuilt", per_event(s.sources_rebuilt as f64));
    m.set(
        "oracle.incremental.cuts_recomputed_ratio",
        s.cuts_recomputed as f64 / s.cuts_total.max(1) as f64,
    );
    m.set_p50_p99_ns("serve.epoch.publish", &writes.publish);
    m.set("serve.epoch.staleness_p50_ms", common::quantile(&writes.staleness, 0.50) / 1e6);
    m.set("serve.epoch.staleness_p90_ms", common::quantile(&writes.staleness, 0.90) / 1e6);
    let same = common::bk_profile(m, &csr, &sources, &oracle);
    out.check(same, || "profiled build differs from the untraced build".into());
    Ok(out)
}
