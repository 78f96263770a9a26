//! Experiment E11 (Criterion variant): the cost of keeping a service current under churn.
//!
//! Three questions, matching `EXPERIMENTS.md` §E11 and the `BENCH_churn.json` snapshot:
//!
//! * what does a from-scratch shard rebuild cost after one edge toggle (the baseline an
//!   epoch swap would otherwise pay)?
//! * how much of that does the incremental path (`ShardedOracle::rebuild_bk_csr`) save, on
//!   the two interesting toggle shapes — a non-tree edge (tables patched in place) and a
//!   tree edge (some sources rebuilt outright)?
//! * what does an epoch publish + fully-loaded batch cost end to end while swaps land?

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_serve::{random_queries, EpochOracle, QueryService, ServiceConfig, ShardedOracle};

const SIGMA: usize = 8;

/// Picks a tree edge of the first source's BFS tree and a non-tree edge (if any).
fn toggle_edges(g: &msrp_graph::Graph, sources: &[usize]) -> (msrp_graph::Edge, msrp_graph::Edge) {
    let csr = g.freeze();
    let tree = msrp_graph::ShortestPathTree::build(&csr, sources[0]);
    let mut tree_edge = None;
    let mut nontree_edge = None;
    for e in g.edges() {
        if tree.is_tree_edge(e) {
            tree_edge.get_or_insert(e);
        } else {
            nontree_edge.get_or_insert(e);
        }
    }
    (
        tree_edge.expect("connected graph has tree edges"),
        nontree_edge.unwrap_or_else(|| tree_edge.unwrap()),
    )
}

fn bench_rebuild_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_rebuild");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let n = 192;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let sources = evenly_spaced_sources(n, SIGMA);
    let (tree_e, nontree_e) = toggle_edges(&g, &sources);
    let base = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2);
    for (label, e) in [("nontree_edge", nontree_e), ("tree_edge", tree_e)] {
        let mut g2 = g.clone();
        let (u, v) = e.endpoints();
        g2.remove_edge(u, v).unwrap();
        let csr2 = g2.freeze();
        group.bench_with_input(BenchmarkId::new("full_rebuild", label), &csr2, |b, csr2| {
            b.iter(|| ShardedOracle::build_bk_csr(csr2, &sources, 2))
        });
        group.bench_with_input(BenchmarkId::new("incremental_rebuild", label), &csr2, |b, csr2| {
            b.iter(|| base.rebuild_bk_csr(csr2, e))
        });
    }
    group.finish();
}

fn bench_swap_under_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_serving");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let n = 192;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let sources = evenly_spaced_sources(n, SIGMA);
    let (_, nontree_e) = toggle_edges(&g, &sources);
    let oracle_a = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2);
    let mut g2 = g.clone();
    let (u, v) = nontree_e.endpoints();
    g2.remove_edge(u, v).unwrap();
    let oracle_b = ShardedOracle::build_bk_csr(&g2.freeze(), &sources, 2);
    let service =
        QueryService::start(EpochOracle::new(oracle_a.clone()), &ServiceConfig { workers: 2 });
    let mut rng = StdRng::seed_from_u64(5);
    let queries = random_queries(&g, &sources, 256, &mut rng);
    // Each iteration publishes a new epoch (alternating the two prebuilt shard sets) and
    // answers a 256-query batch through it: the steady-state cost of serving under churn.
    let mut flip = false;
    group.bench_function("publish_swap_plus_256_query_batch", |b| {
        b.iter(|| {
            flip = !flip;
            let next = if flip { oracle_b.clone() } else { oracle_a.clone() };
            let epoch = service.oracle().publish(next);
            (epoch.id, service.answer_batch(&queries).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rebuild_paths, bench_swap_under_load);
criterion_main!(benches);
