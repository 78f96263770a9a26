//! `batch_sigma512` and `weighted_sigma64`: one closed-loop thread sending fixed-size
//! batches through `answer_batch` of a service booted from a snapshot.

use std::fmt::Debug;
use std::time::Instant;

use msrp::graph::generators::weighted_connected_gnm;
use msrp::graph::{CsrGraph, DijkstraScratch, Edge, Vertex, Weight, WeightedCsrGraph};
use msrp::serve::{QueryService, RouteOracle, ServiceConfig, ShardedOracle, WeightedShardedOracle};

use crate::common::{
    self, Metrics, Mix, Outcome, Requests, ServiceTrace, SetupTimes, N, TRUTH_SAMPLE,
};
use crate::Args;

/// Queries in a workload's pool; runs cycle through it.
const POOL: usize = 1 << 16;
/// Largest edge weight of the weighted graph (weights are 1..=MAX_WEIGHT).
const MAX_WEIGHT: Weight = 1000;

/// What differs between the hop-metric and the weighted workload.
pub trait Flavor {
    const SIGMA: usize;
    const BATCH: usize;
    /// Blocks per run, each a set-up then a measured stretch; `setup_s`, `build_s` and
    /// `boot_s` are medians over the blocks' set-ups.
    const BLOCKS: usize;
    /// Metric prefix of the per-query lookup times.
    const LOOKUP: &'static str;
    type Graph: Sync;
    type Answer: Copy + PartialEq + Send + Debug + 'static;
    type Oracle: RouteOracle<Answer = Self::Answer> + Clone;

    /// The seeded graph and its edge list.
    fn generate(seed: u64) -> Result<(Self::Graph, Vec<Edge>), String>;
    fn build(g: &Self::Graph, sources: &[Vertex]) -> Self::Oracle;
    fn encode(oracle: &Self::Oracle, g: &Self::Graph) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self::Oracle, String>;
    /// The canonical path on the shard owning `s`.
    fn path(oracle: &Self::Oracle, s: Vertex, t: Vertex) -> Option<Vec<Vertex>>;
    /// Queries whose expected answer disagrees with an avoiding search on `g`.
    fn truth_misses(
        g: &Self::Graph,
        queries: &[msrp::serve::Query],
        expected: &[Option<Self::Answer>],
    ) -> u64;
    /// Sets the build-stage metrics; returns whether a profiled rebuild equals `reference`.
    fn build_stages(
        m: &mut Metrics,
        g: &Self::Graph,
        sources: &[Vertex],
        reference: &Self::Oracle,
        times: &SetupTimes,
    ) -> bool;
}

/// The hop-metric oracle at σ = 512 with 256-query batches.
pub struct Hop;

impl Flavor for Hop {
    const SIGMA: usize = 512;
    const BATCH: usize = 256;
    const BLOCKS: usize = 5;
    const LOOKUP: &'static str = "oracle.lookup";
    type Graph = CsrGraph;
    type Answer = msrp::graph::Distance;
    type Oracle = ShardedOracle;

    fn generate(seed: u64) -> Result<(CsrGraph, Vec<Edge>), String> {
        let g = common::hop_graph(seed)?;
        let edges = g.edge_vec();
        Ok((g.freeze(), edges))
    }

    fn build(g: &CsrGraph, sources: &[Vertex]) -> ShardedOracle {
        ShardedOracle::build_bk_csr(g, sources, common::SHARDS)
    }

    fn encode(oracle: &ShardedOracle, g: &CsrGraph) -> Vec<u8> {
        oracle.to_snapshot(g)
    }

    fn decode(bytes: &[u8]) -> Result<ShardedOracle, String> {
        ShardedOracle::from_snapshot(bytes).map(|(_, o)| o).map_err(|e| format!("boot: {e}"))
    }

    fn path(oracle: &ShardedOracle, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
        oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
    }

    fn truth_misses(
        g: &CsrGraph,
        queries: &[msrp::serve::Query],
        expected: &[Option<Self::Answer>],
    ) -> u64 {
        common::hop_truth_misses(g, queries, expected)
    }

    fn build_stages(
        m: &mut Metrics,
        g: &CsrGraph,
        sources: &[Vertex],
        reference: &ShardedOracle,
        _: &SetupTimes,
    ) -> bool {
        common::bk_profile(m, g, sources, reference)
    }
}

/// The weighted oracle at σ = 64 with 64-query batches.
pub struct Weighted;

impl Flavor for Weighted {
    const SIGMA: usize = 64;
    const BATCH: usize = 64;
    const BLOCKS: usize = 7;
    const LOOKUP: &'static str = "oracle.weighted.lookup";
    type Graph = WeightedCsrGraph;
    type Answer = Weight;
    type Oracle = WeightedShardedOracle;

    fn generate(seed: u64) -> Result<(WeightedCsrGraph, Vec<Edge>), String> {
        let g = weighted_connected_gnm(N, 4 * N, MAX_WEIGHT, &mut common::rng(seed, 1))
            .map_err(|e| format!("generator: {e}"))?
            .freeze();
        let edges = g.edge_vec().into_iter().map(|(e, _)| e).collect();
        Ok((g, edges))
    }

    fn build(g: &WeightedCsrGraph, sources: &[Vertex]) -> WeightedShardedOracle {
        WeightedShardedOracle::build(g, sources, common::SHARDS)
    }

    fn encode(oracle: &WeightedShardedOracle, g: &WeightedCsrGraph) -> Vec<u8> {
        oracle.to_snapshot(g)
    }

    fn decode(bytes: &[u8]) -> Result<WeightedShardedOracle, String> {
        WeightedShardedOracle::from_snapshot(bytes)
            .map(|(_, o)| o)
            .map_err(|e| format!("boot: {e}"))
    }

    fn path(oracle: &WeightedShardedOracle, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
        oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
    }

    fn truth_misses(
        g: &WeightedCsrGraph,
        queries: &[msrp::serve::Query],
        expected: &[Option<Weight>],
    ) -> u64 {
        let mut dijkstra = DijkstraScratch::new();
        let misses = queries.iter().zip(expected).filter(|&(q, want)| {
            dijkstra.run_avoiding(g, q.source, q.avoid);
            Some(dijkstra.dist()[q.target]) != *want
        });
        misses.count() as u64
    }

    fn build_stages(
        m: &mut Metrics,
        _: &WeightedCsrGraph,
        _: &[Vertex],
        _: &WeightedShardedOracle,
        times: &SetupTimes,
    ) -> bool {
        // The weighted build has no stage profiler: its whole wall is one stage.
        m.set("oracle.weighted.build_ms", 1e3 * common::median(&times.build));
        true
    }
}

pub fn run<F: Flavor>(args: &Args) -> Result<Outcome, String> {
    let (g, edges) = F::generate(args.seed)?;
    let sources = common::sources(F::SIGMA);
    let probe = common::probe_query(&sources, &edges);
    let config = ServiceConfig::default();
    let block = common::block_seconds(args, F::BLOCKS);
    let mut out = Outcome::new();
    let mut times = SetupTimes::default();
    let mut inputs: Option<(Mix, Vec<Option<F::Answer>>)> = None;
    let (mut plain, mut trace) = (Requests::default(), ServiceTrace::default());
    let (mut batches, mut mismatched) = (0u64, 0u64);
    let mut last = None;
    for b in 0..F::BLOCKS {
        drop(last.take());
        let traced = common::block_traced(args, b);
        let t0 = Instant::now();
        let oracle = F::build(&g, &sources);
        let t1 = Instant::now();
        let bytes = F::encode(&oracle, &g);
        let t2 = Instant::now();
        let booted = F::decode(&bytes)?;
        let t3 = Instant::now();
        let service = match traced {
            true => QueryService::start_observed(booted, &config, &common::traced_obs(args.seed)),
            false => QueryService::start(booted, &config),
        };
        let first = service.answer_batch(&[probe]);
        let t4 = Instant::now();
        out.check(first[0] == oracle.query_routed(probe).1, || "set-up probe reply".into());
        times.setup.push((t4 - t0).as_secs_f64());
        times.build.push((t1 - t0).as_secs_f64());
        times.encode.push((t2 - t1).as_secs_f64());
        times.decode.push((t3 - t2).as_secs_f64());
        times.boot.push((t4 - t2).as_secs_f64());

        let (mix, expected) = inputs.get_or_insert_with(|| {
            let mix =
                common::query_mix(&sources, &edges, POOL, args.seed, |s, t| F::path(&oracle, s, t));
            let expected: Vec<_> = mix.queries.iter().map(|&q| oracle.query_routed(q).1).collect();
            let sample = &mix.queries[..TRUTH_SAMPLE];
            let misses = F::truth_misses(&g, sample, &expected[..TRUTH_SAMPLE]);
            out.tally(TRUTH_SAMPLE as u64, misses, || {
                "oracle answers differ from avoiding-search truth".into()
            });
            (mix, expected)
        });
        let check = |i: usize, answers: &[Option<F::Answer>]| {
            mismatched += u64::from(answers != &expected[i * F::BATCH..(i + 1) * F::BATCH]);
        };
        let reqs = common::closed_loop(
            &service,
            &mix.queries,
            F::BATCH,
            Instant::now() + block,
            traced,
            check,
        );
        let (served, sent) =
            (service.metrics().queries_total, 1 + (reqs.wall.len() * F::BATCH) as u64);
        out.check(served == sent, || {
            format!("service counted {served} queries, client sent {sent}")
        });
        batches += reqs.wall.len() as u64;
        match traced {
            true => trace.add(&service, args.seed, reqs),
            false => plain.append(reqs),
        }
        last = Some((oracle, bytes.len(), service));
    }
    out.tally(batches, mismatched, || "batches differ from the in-process oracle".into());
    let (oracle, snapshot_len, service) = last.expect("F::BLOCKS > 0");
    let (mix, _) = inputs.expect("F::BLOCKS > 0");
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
    m.set_p50_p99_ns(F::LOOKUP, &common::lookup_ns(service.oracle(), &mix.queries));
    m.set("oracle.on_path_share", mix.on_path_share);
    let same = F::build_stages(m, &g, &sources, &oracle, &times);
    out.check(same, || "profiled build differs from the untraced build".into());
    Ok(out)
}
