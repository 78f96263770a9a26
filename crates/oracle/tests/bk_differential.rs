//! Differential battery for the Bernstein–Karger preprocessing: on every seeded workload
//! family, the BK construction, the per-tree-edge brute force behind
//! [`ReplacementPathOracle::build_exact`], and the independent
//! [`single_source_brute_force`] rows must agree **bit for bit** — same rows, same query
//! answers, for every source-set size σ ∈ {1, ⌈√n⌉, n/4}.
//!
//! Everything is seed-pinned (`DESIGN.md`, "Determinism policy"): a failure reproduces
//! exactly, and the asserted equalities are tree and table equality (`==` on the trees and
//! on [`SourceReplacementDistances`]), not sampled spot checks. A second layer re-checks the
//! query surface itself (on-path, off-path, non-tree and disconnecting edges) so a future
//! change to the query algebra cannot pass on table equality alone.

use msrp_graph::generators::{
    barabasi_albert, connected_gnm, cycle_graph, gnm, grid_graph, star_graph,
};
use msrp_graph::{CsrGraph, Graph, ShortestPathTree, Vertex};
use msrp_oracle::{bk_replacement_distances, BkScratch, ReplacementPathOracle};
use msrp_rpath::single_source_brute_force;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// σ ∈ {1, ⌈√n⌉, n/4}, deduplicated and clamped to [1, n].
fn sigma_ladder(n: usize) -> Vec<usize> {
    let mut sigmas = vec![1, (n as f64).sqrt().ceil() as usize, n / 4];
    for s in &mut sigmas {
        *s = (*s).clamp(1, n);
    }
    sigmas.dedup();
    sigmas
}

/// σ distinct sources drawn from a seeded shuffle of the vertex set (so source sets are
/// scattered, not the evenly-spaced ones the benches use).
fn seeded_sources(n: usize, sigma: usize, seed: u64) -> Vec<Vertex> {
    let mut ids: Vec<Vertex> = (0..n).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids.truncate(sigma);
    ids
}

/// The battery: for every σ in the ladder, BK rows == exact rows == independent brute-force
/// rows, and the three query surfaces agree on a seeded mix of on-path, off-path, non-tree
/// and out-of-tree queries.
fn differential_battery(name: &str, g: &Graph, seed: u64) {
    let n = g.vertex_count();
    let csr: CsrGraph = g.freeze();
    let edges = g.edge_vec();
    for (i, &sigma) in sigma_ladder(n).iter().enumerate() {
        let sources = seeded_sources(n, sigma, seed ^ (i as u64).wrapping_mul(0x9E37));
        let bk = ReplacementPathOracle::build_bk(&csr, &sources);
        let exact = ReplacementPathOracle::build_exact(&csr, &sources);
        // Layer 1: the whole answer state, tree for tree and row for row, bit for bit.
        assert_eq!(bk.trees(), exact.trees(), "{name}: sigma={sigma}");
        assert_eq!(bk.per_source(), exact.per_source(), "{name}: sigma={sigma}");
        assert_eq!(bk.entry_count(), exact.entry_count(), "{name}: sigma={sigma}");
        // Layer 2: an independent derivation of the same rows (fresh trees, fresh scratch),
        // so the equality above cannot be satisfied by a shared bug.
        let mut scratch = BkScratch::new();
        for (idx, &s) in sources.iter().enumerate() {
            let tree = ShortestPathTree::build(&csr, s);
            let brute = single_source_brute_force(&csr, &tree);
            assert_eq!(
                bk_replacement_distances(&csr, &tree, &mut scratch),
                brute,
                "{name}: sigma={sigma} s={s}"
            );
            assert_eq!(&bk.trees()[idx], &tree, "{name}: sigma={sigma} s={s}");
            assert_eq!(&bk.per_source()[idx], &brute, "{name}: sigma={sigma} s={s}");
        }
        // Layer 3: the query surface. Every edge (tree or not, on the canonical path or
        // not) against a seeded slice of targets — answers must match between the two
        // oracles, including `Some(∞)` disconnections and `None` for non-sources.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(sigma as u64));
        let step = (n / 12).max(1);
        for &s in &sources {
            for t in (0..n).step_by(step) {
                for _ in 0..8.min(edges.len()) {
                    let e = edges[rng.gen_range(0..edges.len())];
                    assert_eq!(
                        bk.replacement_distance(s, t, e),
                        exact.replacement_distance(s, t, e),
                        "{name}: sigma={sigma} s={s} t={t} e={e}"
                    );
                }
            }
        }
        let non_source = (0..n).find(|v| !sources.contains(v));
        if let Some(v) = non_source {
            assert_eq!(bk.replacement_distance(v, 0, edges[0]), None, "{name}");
        }
    }
}

use rand::Rng;

#[test]
fn differential_gnm() {
    let mut rng = StdRng::seed_from_u64(101);
    let g = connected_gnm(48, 120, &mut rng).unwrap();
    differential_battery("gnm", &g, 1);
}

#[test]
fn differential_barabasi_albert() {
    let mut rng = StdRng::seed_from_u64(202);
    let g = barabasi_albert(44, 3, &mut rng).unwrap();
    differential_battery("barabasi-albert", &g, 2);
}

#[test]
fn differential_grid() {
    differential_battery("grid", &grid_graph(6, 7), 3);
}

#[test]
fn differential_cycle() {
    differential_battery("cycle", &cycle_graph(30), 4);
}

#[test]
fn differential_star() {
    differential_battery("star", &star_graph(33), 5);
}

#[test]
fn differential_disconnected() {
    // A sparse gnm draw (several components, isolated vertices) plus a deliberately
    // engineered two-component graph with bridges.
    let mut rng = StdRng::seed_from_u64(303);
    let g = gnm(40, 28, &mut rng).unwrap();
    differential_battery("gnm-disconnected", &g, 6);
    let h = Graph::from_edges(
        14,
        &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (7, 8), (8, 9), (9, 7), (9, 10)],
    )
    .unwrap();
    differential_battery("two-components", &h, 7);
}

/// Per-source rows from one shared scratch, each checked `==` against the independent brute
/// force: the scratch's per-source relabel must leave nothing behind for the next source.
fn rows_match_brute_force(name: &str, g: &Graph, sources: &[Vertex], scratch: &mut BkScratch) {
    let csr = g.freeze();
    for &s in sources {
        let tree = ShortestPathTree::build(&csr, s);
        assert_eq!(
            bk_replacement_distances(&csr, &tree, scratch),
            single_source_brute_force(&csr, &tree),
            "{name}: s={s}"
        );
    }
}

/// `g` plus `chords` seeded random non-edges between vertices `0..among`.
fn with_chords(mut g: Graph, chords: usize, among: usize, rng: &mut StdRng) -> Graph {
    let mut added = 0;
    while added < chords {
        let (u, v) = (rng.gen_range(0..among), rng.gen_range(0..among));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).unwrap();
            added += 1;
        }
    }
    g
}

#[test]
fn one_scratch_serves_graphs_of_every_size() {
    // Large → small → large through one scratch. The small graph has a second component
    // and isolated vertices (4 and 8), and sources in each of them.
    let mut rng = StdRng::seed_from_u64(505);
    let large = connected_gnm(120, 300, &mut rng).unwrap();
    let small =
        Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (2, 3), (5, 6), (6, 7), (7, 5)]).unwrap();
    let larger = barabasi_albert(150, 2, &mut rng).unwrap();
    let mut scratch = BkScratch::new();
    rows_match_brute_force("large", &large, &[0, 57, 119], &mut scratch);
    rows_match_brute_force("small", &small, &[0, 3, 4, 6, 8], &mut scratch);
    rows_match_brute_force("larger", &larger, &[149, 1, 75], &mut scratch);
    rows_match_brute_force("small-again", &small, &[8, 7, 2], &mut scratch);
}

#[test]
fn wide_seed_spreads_and_deep_subtrees() {
    // Long cycles with a few chords: the subtree below a cut deep in one arm is a long
    // chain whose seeds come from chords and the far arm, so they are far from tight and
    // far apart. A path with a dense head: deep subtrees hanging off a cluster whose
    // crossing edges seed at several depths at once.
    let mut scratch = BkScratch::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let n = 90 + 20 * seed as usize;
        let ring = with_chords(cycle_graph(n), 2 + seed as usize, n, &mut rng);
        let sources = seeded_sources(n, 4, seed);
        rows_match_brute_force("cycle+chords", &ring, &sources, &mut scratch);
        differential_battery("cycle+chords", &ring, seed);

        // A 60-edge tail hanging off vertex head − 1 of a 12-vertex cluster with 30 of its
        // 66 possible edges.
        let head = 12;
        let tail = Graph::from_edges(
            head + 60,
            &(head..head + 60).map(|v| (v - 1, v)).collect::<Vec<_>>(),
        )
        .unwrap();
        let g = with_chords(tail, 30, head, &mut rng);
        let sources = [0, head - 1, head + 30, head + 59];
        rows_match_brute_force("dense-head path", &g, &sources, &mut scratch);
        differential_battery("dense-head path", &g, seed);
    }
}

#[test]
fn bk_sharded_parallel_builds_stay_bit_identical() {
    // The sharded BK build (what `msrp-serve` consumes) merged back together must equal the
    // sequential build row for row, at every thread count.
    let mut rng = StdRng::seed_from_u64(404);
    let g = connected_gnm(40, 100, &mut rng).unwrap();
    let csr = g.freeze();
    let sources = seeded_sources(40, 10, 11);
    let whole = ReplacementPathOracle::build_bk(&csr, &sources);
    for threads in [1usize, 2, 3, 10] {
        let merged = ReplacementPathOracle::from_shards(msrp_oracle::build_bk_shards(
            &csr, &sources, threads,
        ));
        assert_eq!(merged.trees(), whole.trees(), "threads={threads}");
        assert_eq!(merged.per_source(), whole.per_source(), "threads={threads}");
        assert_eq!(merged.sources(), whole.sources());
    }
}

#[test]
fn bk_equals_exact_at_the_serving_benchmark_shape() {
    // The benchmark's graph shape (n = 2048, m = 4n sparse random), far above the
    // batteries' sizes: deep cuts, wide frontiers and long seed spreads all occur here.
    let mut rng = StdRng::seed_from_u64(2048);
    let csr = connected_gnm(2048, 8192, &mut rng).unwrap().freeze();
    let sources: Vec<Vertex> = (0..4).map(|i| i * 512).collect();
    let bk = ReplacementPathOracle::build_bk(&csr, &sources);
    let exact = ReplacementPathOracle::build_exact(&csr, &sources);
    assert_eq!(bk.trees(), exact.trees());
    assert_eq!(bk.per_source(), exact.per_source());
}

#[test]
fn bk_flattened_oracle_agrees_with_exact_flattened_oracle() {
    // The cuckoo-flattened view built from BK tables must behave exactly like the one built
    // from the brute-force tables (same keys, same values, same misses).
    let g = grid_graph(5, 5).freeze();
    let sources = [0usize, 12, 24];
    let bk = ReplacementPathOracle::build_bk(&g, &sources).flatten();
    let exact = ReplacementPathOracle::build_exact(&g, &sources).flatten();
    assert_eq!(bk.len(), exact.len());
    for &s in &sources {
        for t in 0..25 {
            for e in g.edges() {
                assert_eq!(bk.query(s, t, e), exact.query(s, t, e), "s={s} t={t} e={e}");
            }
        }
    }
}
