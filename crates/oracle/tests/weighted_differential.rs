//! Differential battery for the weighted cut kernel — the weighted counterpart of
//! `bk_differential.rs`. On every seeded workload family, the crossing-edge kernel behind
//! [`WeightedReplacementOracle::build`], the per-tree-edge brute force behind
//! [`WeightedReplacementOracle::build_exact`], and independent
//! [`single_source_brute_force_with_scratch`] rows (one Dijkstra per tree edge) must agree
//! **bit for bit**, for every source-set size σ ∈ {1, ⌈√n⌉, n/4}, and so must every sharded
//! build merged back.
//!
//! Each topology runs under three weightings: weights drawn from {0, 1, 2} (zero-weight
//! edges and many distance ties), all weights equal (many shortest paths of equal length),
//! and uniform weights in 1..=1000 (the benchmark's distribution). Everything is
//! seed-pinned, and every asserted equality is tree and table equality (`==` on the trees
//! and on [`WeightedReplacementDistances`]), not a sampled spot check.

use msrp_graph::generators::{
    barabasi_albert, connected_gnm, cycle_graph, gnm, grid_graph, star_graph,
};
use msrp_graph::{DijkstraScratch, Graph, Vertex, Weight, WeightedGraph, WeightedTree};
use msrp_oracle::{build_weighted_shards, WeightedReplacementOracle};
use msrp_rpath::{single_source_brute_force_with_scratch, WeightedReplacementDistances};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// σ ∈ {1, ⌈√n⌉, n/4}, deduplicated and clamped to [1, n].
fn sigma_ladder(n: usize) -> Vec<usize> {
    let mut sigmas = vec![1, (n as f64).sqrt().ceil() as usize, n / 4];
    for s in &mut sigmas {
        *s = (*s).clamp(1, n);
    }
    sigmas.dedup();
    sigmas
}

/// σ distinct sources drawn from a seeded shuffle of the vertex set.
fn seeded_sources(n: usize, sigma: usize, seed: u64) -> Vec<Vertex> {
    let mut ids: Vec<Vertex> = (0..n).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids.truncate(sigma);
    ids
}

/// The three weightings of one topology, each with a name for failure messages.
fn weightings(g: &Graph, seed: u64) -> Vec<(&'static str, WeightedGraph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ties = WeightedGraph::from_graph(g, |_| rng.gen_range(0..=2));
    let equal = WeightedGraph::from_graph(g, |_| 7);
    let uniform = WeightedGraph::from_graph(g, |_| rng.gen_range(1..=1000));
    vec![("weights{0,1,2}", ties), ("weights=7", equal), ("weights1..=1000", uniform)]
}

/// Fresh trees and their rows from a fresh scratch: an independent derivation, so an
/// equality against it cannot be satisfied by a bug the oracle's two routes share.
fn brute_force(
    g: &WeightedGraph,
    sources: &[Vertex],
) -> (Vec<WeightedTree>, Vec<WeightedReplacementDistances>) {
    let csr = g.freeze();
    let mut scratch = DijkstraScratch::new();
    let trees: Vec<_> = sources.iter().map(|&s| WeightedTree::build(&csr, s)).collect();
    let rows = trees
        .iter()
        .map(|t| single_source_brute_force_with_scratch(&csr, t, &mut scratch))
        .collect();
    (trees, rows)
}

/// The battery: for every weighting and every σ in the ladder, solver rows == brute-force
/// rows == independent rows, every sharded build merged back equals the unsharded one, and
/// the query surfaces agree on a seeded mix of edges.
fn differential_battery(name: &str, topology: &Graph, seed: u64) {
    let n = topology.vertex_count();
    for (weighting, g) in weightings(topology, seed) {
        let csr = g.freeze();
        let edges = g.edge_vec();
        for (i, &sigma) in sigma_ladder(n).iter().enumerate() {
            let at = format!("{name} {weighting}: sigma={sigma}");
            let sources = seeded_sources(n, sigma, seed ^ (i as u64).wrapping_mul(0x9E37));
            let solved = WeightedReplacementOracle::build(&csr, &sources);
            let exact = WeightedReplacementOracle::build_exact(&csr, &sources);
            // Layer 1: the whole answer state, tree for tree and row for row, bit for bit.
            // Row shapes are hop depths, so equal rows alone do not pin the trees' weights.
            let (trees, rows) = brute_force(&g, &sources);
            assert_eq!(solved.trees(), exact.trees(), "{at}");
            assert_eq!(solved.trees(), &trees[..], "{at}");
            assert_eq!(solved.per_source(), exact.per_source(), "{at}");
            assert_eq!(solved.per_source(), &rows[..], "{at}");
            // Layer 2: shards merged back in order equal the unsharded build.
            for threads in [0, 1, 2, sigma + 3] {
                let merged = WeightedReplacementOracle::from_shards(build_weighted_shards(
                    &csr, &sources, threads,
                ));
                assert_eq!(merged.sources(), &sources[..], "{at} threads={threads}");
                assert_eq!(merged.trees(), solved.trees(), "{at} threads={threads}");
                assert_eq!(merged.per_source(), solved.per_source(), "{at} threads={threads}");
            }
            // Layer 3: the query surface, every kind of edge against a slice of targets.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(sigma as u64));
            for &s in &sources {
                for t in (0..n).step_by((n / 12).max(1)) {
                    for _ in 0..8.min(edges.len()) {
                        let (e, _): (_, Weight) = edges[rng.gen_range(0..edges.len())];
                        assert_eq!(
                            solved.replacement_distance(s, t, e),
                            exact.replacement_distance(s, t, e),
                            "{at} s={s} t={t} e={e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn weighted_differential_gnm() {
    let mut rng = StdRng::seed_from_u64(101);
    differential_battery("gnm", &connected_gnm(48, 120, &mut rng).unwrap(), 1);
}

#[test]
fn weighted_differential_barabasi_albert() {
    let mut rng = StdRng::seed_from_u64(202);
    differential_battery("barabasi-albert", &barabasi_albert(44, 3, &mut rng).unwrap(), 2);
}

#[test]
fn weighted_differential_grid() {
    differential_battery("grid", &grid_graph(6, 7), 3);
}

#[test]
fn weighted_differential_cycle() {
    differential_battery("cycle", &cycle_graph(30), 4);
}

#[test]
fn weighted_differential_star() {
    differential_battery("star", &star_graph(33), 5);
}

#[test]
fn weighted_differential_disconnected() {
    // A sparse gnm draw (several components, isolated vertices) plus an engineered
    // two-component graph with bridges and isolated vertices 6, 11, 12 and 13.
    let mut rng = StdRng::seed_from_u64(303);
    differential_battery("gnm-disconnected", &gnm(40, 28, &mut rng).unwrap(), 6);
    let h = Graph::from_edges(
        14,
        &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (7, 8), (8, 9), (9, 7), (9, 10)],
    )
    .unwrap();
    differential_battery("two-components", &h, 7);
}
