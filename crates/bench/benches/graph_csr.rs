//! The payoff measurement for the CSR traversal core: BFS, Dijkstra and the brute-force
//! `build_exact` loop on [`CsrGraph`] versus the seed adjacency-list / `Vec<Vec<…>>`
//! representations.
//!
//! Three comparisons, mirroring the three rewrites:
//!
//! * **BFS** — `bfs(&Graph)` (pointer-chasing `Vec<Vec<Vertex>>`, fresh buffers per run)
//!   versus `bfs_csr(&CsrGraph)` (flat arrays, fresh buffers) versus a reused
//!   [`BfsScratch`] (flat arrays, `O(visited)` reset);
//! * **Dijkstra** — a local copy of the seed `Vec<Vec<(usize, Weight)>>` search versus
//!   [`WeightedCsr::dijkstra`] on the frozen edge list (plus the build+search totals for
//!   both, since the solver builds each auxiliary graph exactly once);
//! * **build_exact** — a local copy of the seed oracle construction (one allocating BFS per
//!   tree edge per source) versus [`ReplacementPathOracle::build_exact`], which freezes once
//!   and shares one scratch.
//!
//! Snapshot the numbers into `BENCH_csr.json` with
//! `CRITERION_SUMMARY=bench.jsonl cargo bench -p msrp-bench --bench graph_csr`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use msrp_bench::workloads::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_graph::{
    bfs, bfs_avoiding_edge, bfs_csr, BfsScratch, Edge, Graph, ShortestPathTree, Vertex, Weight,
    WeightedDigraph, INFINITE_WEIGHT,
};
use msrp_oracle::ReplacementPathOracle;
use msrp_rpath::SourceReplacementDistances;

/// The seed representation of the auxiliary digraphs: one heap-allocated `Vec` per node.
/// Kept verbatim (modulo naming) from the pre-CSR `WeightedDigraph` as the baseline side of
/// the `dijkstra` comparison.
struct SeedDigraph {
    adj: Vec<Vec<(usize, Weight)>>,
}

impl SeedDigraph {
    fn from_edges(n: usize, edges: &[(usize, usize, Weight)]) -> Self {
        let mut adj: Vec<Vec<(usize, Weight)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            adj[u].push((v, w));
        }
        SeedDigraph { adj }
    }

    fn dijkstra(&self, source: usize) -> Vec<Weight> {
        let n = self.adj.len();
        let mut dist = vec![INFINITE_WEIGHT; n];
        let mut heap: BinaryHeap<Reverse<(Weight, usize)>> = BinaryHeap::new();
        dist[source] = 0;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for &(w, wt) in &self.adj[v] {
                let nd = d.saturating_add(wt);
                if nd < dist[w] {
                    dist[w] = nd;
                    heap.push(Reverse((nd, w)));
                }
            }
        }
        dist
    }
}

/// The seed `build_exact`: BFS trees over the adjacency lists and one fresh-allocation BFS
/// per tree edge per source (what `ReplacementPathOracle::build_exact` did before the CSR
/// core).
fn seed_build_exact(g: &Graph, sources: &[Vertex]) -> Vec<SourceReplacementDistances> {
    let n = g.vertex_count();
    sources
        .iter()
        .map(|&s| {
            let tree = ShortestPathTree::from_bfs(bfs(g, s));
            let mut out = SourceReplacementDistances::new(&tree);
            for c in 0..n {
                let p = match tree.parent(c) {
                    Some(p) => p,
                    None => continue,
                };
                let e = Edge::new(p, c);
                let pos = tree.distance_or_infinite(c) as usize - 1;
                let alt = bfs_avoiding_edge(g, s, e);
                for t in 0..n {
                    if tree.is_reachable(t) && tree.is_ancestor(c, t) {
                        out.set(t, pos, alt.dist[t]);
                    }
                }
            }
            out
        })
        .collect()
}

/// A deterministic weighted digraph shaped like the solver's auxiliary graphs: a star of
/// base edges from node 0 plus layered cross edges.
fn aux_digraph_edges(n: usize) -> Vec<(usize, usize, Weight)> {
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v, (v % 17) as Weight));
    }
    for v in 1..n {
        // A few forward edges per node, deterministic and acyclic-ish like pair-node layers.
        for k in 1..=3usize {
            let t = v + k * 7;
            if t < n {
                edges.push((v, t, ((v * k) % 11 + 1) as Weight));
            }
        }
    }
    edges
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_csr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // n = 1024 stays cache-resident (representation effects are within code-layout noise
    // there; see BENCH_csr.json _meta); n = 16384 is the memory-bound regime the CSR layout
    // exists for.
    for n in [1024usize, 16384] {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 3);
        let csr = g.freeze();
        group.bench_with_input(BenchmarkId::new("bfs_seed_adjacency", n), &n, |b, _| {
            b.iter(|| bfs(&g, 0))
        });
        group.bench_with_input(BenchmarkId::new("bfs_csr_fresh", n), &n, |b, _| {
            b.iter(|| bfs_csr(&csr, 0))
        });
        let mut scratch = BfsScratch::new();
        group.bench_with_input(BenchmarkId::new("bfs_csr_scratch", n), &n, |b, _| {
            b.iter(|| {
                scratch.run(&csr, 0);
                scratch.dist()[n / 2]
            })
        });
        let avoid = g.edge_vec()[0];
        group.bench_with_input(BenchmarkId::new("bfs_avoid_seed_adjacency", n), &n, |b, _| {
            b.iter(|| bfs_avoiding_edge(&g, 0, avoid))
        });
        group.bench_with_input(BenchmarkId::new("bfs_avoid_csr_scratch", n), &n, |b, _| {
            b.iter(|| {
                scratch.run_avoiding(&csr, 0, avoid);
                scratch.dist()[n / 2]
            })
        });
    }
    group.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_csr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    for n in [4096usize, 16384] {
        let edges = aux_digraph_edges(n);
        let seed = SeedDigraph::from_edges(n, &edges);
        let mut builder = WeightedDigraph::new(n);
        for &(u, v, w) in &edges {
            builder.add_edge(u, v, w);
        }
        let frozen = builder.freeze();
        // Sanity: both sides must compute the same distances.
        assert_eq!(seed.dijkstra(0), frozen.dijkstra(0).dist);

        group.bench_with_input(BenchmarkId::new("dijkstra_seed_vecvec_run", n), &n, |b, _| {
            b.iter(|| seed.dijkstra(0))
        });
        group.bench_with_input(BenchmarkId::new("dijkstra_csr_run", n), &n, |b, _| {
            b.iter(|| frozen.dijkstra(0))
        });
        group.bench_with_input(
            BenchmarkId::new("dijkstra_seed_vecvec_build_and_run", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let g = SeedDigraph::from_edges(n, &edges);
                    g.dijkstra(0)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("dijkstra_csr_build_and_run", n), &n, |b, _| {
            b.iter(|| {
                let mut g = WeightedDigraph::new(n);
                for &(u, v, w) in &edges {
                    g.add_edge(u, v, w);
                }
                g.dijkstra(0)
            })
        });
    }
    group.finish();
}

fn bench_build_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_csr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    for n in [256usize, 512] {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 3);
        let csr = g.freeze();
        let sources = evenly_spaced_sources(g.vertex_count(), 2);
        // Sanity: the CSR construction must agree with the seed construction entry-for-entry
        // (a handful of targets per source is plenty for a bench-time check).
        {
            let seed_out = seed_build_exact(&g, &sources);
            let oracle = ReplacementPathOracle::build_exact(&csr, &sources);
            for (s_idx, &s) in sources.iter().enumerate() {
                let tree = ShortestPathTree::build(&csr, s);
                for t in (0..g.vertex_count()).step_by(g.vertex_count() / 8) {
                    if !tree.is_reachable(t) {
                        continue;
                    }
                    for e in g.edges() {
                        assert_eq!(
                            oracle.replacement_distance(s, t, e),
                            Some(seed_out[s_idx].distance_avoiding(&tree, t, e)),
                            "s={s} t={t} e={e}"
                        );
                    }
                }
            }
        }
        group.bench_with_input(
            BenchmarkId::new("build_exact_seed_per_bfs_alloc", n),
            &n,
            |b, _| b.iter(|| seed_build_exact(&g, &sources)),
        );
        group.bench_with_input(BenchmarkId::new("build_exact_csr_scratch", n), &n, |b, _| {
            b.iter(|| ReplacementPathOracle::build_exact(&csr, &sources))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_dijkstra, bench_build_exact);
criterion_main!(benches);
