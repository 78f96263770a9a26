//! Concurrency-correctness property suite (seed-pinned, see `DESIGN.md`).
//!
//! The service must be an *invisible* layer: answers routed through sharded oracles, worker
//! pools, and mpsc queues must agree bit-for-bit with the single-threaded
//! `ReplacementPathOracle` and with `single_source_brute_force` ground truth, for every pinned
//! seed and every worker/shard combination.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_core::MsrpParams;
use msrp_graph::generators::connected_gnm;
use msrp_graph::{Graph, ShortestPathTree, Vertex, INFINITE_DISTANCE};
use msrp_oracle::ReplacementPathOracle;
use msrp_rpath::single_source_brute_force;
use msrp_serve::{
    random_queries, run_closed_loop, LoadConfig, Query, QueryService, ServiceConfig, ShardedOracle,
};

/// A random connected instance plus a distinct source set, pinned by `seed`.
fn random_case(seed: u64) -> (Graph, Vec<Vertex>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(16..40);
    let m = rng.gen_range(2 * n..4 * n);
    let g = connected_gnm(n, m, &mut rng).expect("valid instance parameters");
    let sigma = rng.gen_range(2..6);
    let mut sources: Vec<Vertex> = Vec::new();
    while sources.len() < sigma {
        let s = rng.gen_range(0..n);
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    (g, sources)
}

#[test]
fn service_agrees_with_oracle_and_brute_force_on_pinned_seeds() {
    for case in 0..5u64 {
        let (g, sources) = random_case(0xC0FFEE + case);
        let params = MsrpParams::default().with_seed(case);
        let csr = g.freeze();
        let single = ReplacementPathOracle::build(&csr, &sources, &params);
        let brute: Vec<_> = sources
            .iter()
            .map(|&s| {
                let tree = ShortestPathTree::build(&csr, s);
                let distances = single_source_brute_force(&csr, &tree);
                (tree, distances)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let workload = random_queries(&g, &sources, 300, &mut rng);

        for (workers, shards) in [(0usize, 2usize), (1, 1), (2, 2), (4, 3)] {
            let service = QueryService::start(
                ShardedOracle::build(&csr, &sources, &params, shards),
                &ServiceConfig { workers },
            );
            // Split the workload into batches so several jobs are in flight.
            let pending: Vec<_> = workload.chunks(32).map(|b| service.submit(b)).collect();
            let answers: Vec<_> = pending.into_iter().flat_map(|p| p.wait()).collect();
            assert_eq!(answers.len(), workload.len());
            for (q, &answer) in workload.iter().zip(&answers) {
                let expected = single.replacement_distance(q.source, q.target, q.avoid);
                assert_eq!(
                    answer, expected,
                    "case={case} workers={workers} shards={shards} q={q:?} \
                     disagrees with the single-threaded oracle"
                );
                let src_idx = sources.iter().position(|&s| s == q.source).unwrap();
                let (tree, distances) = &brute[src_idx];
                let truth = if tree.is_reachable(q.target) {
                    distances.distance_avoiding(tree, q.target, q.avoid)
                } else {
                    INFINITE_DISTANCE
                };
                assert_eq!(
                    answer,
                    Some(truth),
                    "case={case} workers={workers} shards={shards} q={q:?} \
                     disagrees with single_source_brute_force ground truth"
                );
            }
            service.shutdown();
        }
    }
}

#[test]
fn answers_and_checksums_are_invariant_across_worker_and_shard_counts() {
    let (g, sources) = random_case(0xDEADBEEF);
    let params = MsrpParams::default();
    let load = LoadConfig { clients: 3, batches_per_client: 6, batch_size: 16, seed: 99 };
    let mut checksums = Vec::new();
    for (workers, shards) in [(0usize, 2usize), (1, 1), (1, 3), (3, 1), (4, 2)] {
        let service = QueryService::start(
            ShardedOracle::build(&g.freeze(), &sources, &params, shards),
            &ServiceConfig { workers },
        );
        let report = run_closed_loop(&service, &g, &load);
        checksums.push(report.checksum);
        let metrics = service.shutdown();
        assert_eq!(metrics.queries_total, report.total_queries);
        assert_eq!(metrics.shard_queries.iter().sum::<u64>(), report.total_queries);
        assert_eq!(metrics.unroutable_total, 0);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksums {checksums:?} must not depend on worker or shard count"
    );
}

#[test]
fn non_source_queries_are_unroutable_everywhere() {
    let (g, sources) = random_case(0xBADCAFE);
    let non_source = (0..g.vertex_count()).find(|v| !sources.contains(v)).unwrap();
    let service = QueryService::start(
        ShardedOracle::build(&g.freeze(), &sources, &MsrpParams::default(), 2),
        &ServiceConfig { workers: 2 },
    );
    let e = g.edge_vec()[0];
    let answers = service.answer_batch(&[Query::new(non_source, 0, e)]);
    assert_eq!(answers, vec![None]);
    let metrics = service.shutdown();
    assert_eq!(metrics.unroutable_total, 1);
}
