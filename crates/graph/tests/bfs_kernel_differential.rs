//! Differential property suite for the BFS kernels.
//!
//! The contract this file pins: the CSR top-down [`BfsScratch`] and the 64-way
//! bit-parallel [`MultiBfsScratch`] compute *the same function* as the adjacency-list
//! [`bfs`] / [`bfs_avoiding_edge`], an independent implementation over a different graph
//! representation. On every seeded workload family (connected gnm, preferential attachment,
//! dense cores with pendant tails, grid, star, disconnected graphs, and a single vertex)
//! and for both the plain and the edge-avoiding variants, `dist`, `parent` and `order` must
//! equal the reference bit for bit. The wave produces distances per lane; its tree route
//! [`bfs_trees_wave`] must produce the reference trees. Hostile avoided edges (absent
//! edges, edges with out-of-range endpoints, edges touching the source) must be survivable
//! at the kernel level with identical answers, not just at the protocol boundary.

use msrp_graph::generators::{barabasi_albert, connected_gnm, gnm, grid_graph, star_graph};
use msrp_graph::{
    bfs, bfs_avoiding_edge, bfs_trees_wave, BfsScratch, CsrGraph, Edge, Graph, MultiBfsScratch,
    ShortestPathTree, Vertex, WAVE_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense random core (50 vertices, 500 edges) with a ten-vertex pendant path. From a core
/// source the first two levels hold most of the graph, then the tail adds one vertex per
/// level, so one search mixes wide frontiers with a run of singleton ones.
fn dense_core_with_tail(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let core = connected_gnm(50, 500, &mut rng).unwrap();
    let mut edges: Vec<(Vertex, Vertex)> = core.edges().map(|e| e.endpoints()).collect();
    edges.extend((49..59).map(|u| (u, u + 1)));
    Graph::from_edges(60, &edges).unwrap()
}

/// The seeded families the suite sweeps, sized so the whole suite stays test-suite fast.
fn families() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 92] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push((format!("gnm/{seed}"), connected_gnm(96, 4 * 96, &mut rng).unwrap()));
        let mut rng = StdRng::seed_from_u64(seed);
        out.push((format!("ba/{seed}"), barabasi_albert(80, 3, &mut rng).unwrap()));
        let mut rng = StdRng::seed_from_u64(seed);
        // Sparse gnm below the connectivity threshold: several components plus isolated
        // vertices, so unreachable handling is exercised on every kernel.
        out.push((format!("disconnected/{seed}"), gnm(70, 40, &mut rng).unwrap()));
        out.push((format!("dense-core/{seed}"), dense_core_with_tail(seed)));
    }
    out.push(("grid".into(), grid_graph(9, 11)));
    out.push(("star".into(), star_graph(60)));
    out.push(("lone".into(), Graph::new(1)));
    out
}

fn sample_sources(n: usize) -> Vec<Vertex> {
    [0, 1, n / 3, n / 2, n - 1].into_iter().filter(|&s| s < n).collect()
}

/// Edges worth avoiding in the differential: every tree edge of the source (the brute-force
/// loop's shape), a few non-tree edges, and the hostile shapes the protocol layer normally
/// filters — absent edges between real vertices, edges with one or both endpoints out of
/// range, and an edge incident to the source itself.
fn avoided_edges(g: &CsrGraph, s: Vertex, tree: &ShortestPathTree) -> Vec<Edge> {
    let n = g.vertex_count();
    let mut edges: Vec<Edge> = (0..n)
        .filter_map(|c| tree.parent(c).map(|p| Edge::new(p, c)))
        .take(WAVE_LANES - 8)
        .collect();
    edges.extend(g.edge_vec().into_iter().take(4));
    // Hostile: an absent edge between in-range vertices (if one exists), out-of-range
    // endpoints on one or both sides, and the first incident edge of the source.
    if let Some(w) = (0..n).find(|&w| w != s && !g.has_edge(s, w)) {
        edges.push(Edge::new(s, w));
    }
    edges.push(Edge::new(0, n + 3));
    edges.push(Edge::new(n, n + 7));
    edges.push(Edge::new(n - 1, usize::MAX - 1));
    if let Some(&w) = g.neighbor_row(s).first() {
        edges.push(Edge::new(s, w as usize));
    }
    edges.truncate(WAVE_LANES);
    edges
}

#[test]
fn all_three_kernels_agree_on_every_family() {
    let mut td = BfsScratch::new();
    let mut wave = MultiBfsScratch::new();
    for (name, g) in families() {
        let csr = g.freeze();
        let n = csr.vertex_count();
        let sources = sample_sources(n);
        // Plain runs: one wave over all sampled sources, the scratch kernel per source.
        wave.run_wave(&csr, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            let reference = bfs(&g, s);
            td.run(&csr, s);
            assert_eq!(td.to_result(), reference, "{name}: top-down s={s}");
            assert_eq!(wave.lane_dist_vec(lane), reference.dist, "{name}: wave dist s={s}");
        }
        // Tree route of the wave kernel: bit-identical trees, not just distances.
        let trees = bfs_trees_wave(&csr, &sources, &mut wave);
        for (tree, &s) in trees.iter().zip(&sources) {
            let reference = ShortestPathTree::from_bfs(bfs(&g, s));
            assert_eq!(tree, &reference, "{name}: wave tree s={s}");
        }
    }
}

#[test]
fn parent_is_min_frontier_position_not_min_id() {
    // From source 0: level 1 is [1, 2]; vertex 1 (position 0) discovers 4, 6, 7 before
    // vertex 2 (position 1) discovers 3, so level 2 is [4, 6, 7, 3] and the lowest-id
    // level-2 vertex holds the highest frontier position. Vertex 5 neighbours 3 and 4, so
    // its parent is 4 (minimum position), not 3 (minimum id, and first in 5's sorted row).
    let g = Graph::from_edges(
        8,
        &[
            (0, 1),
            (0, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (1, 6),
            (1, 7),
            (4, 5),
            (3, 5),
            (3, 4),
            (4, 6),
            (4, 7),
            (6, 7),
            (3, 6),
            (3, 7),
        ],
    )
    .unwrap();
    let csr = g.freeze();
    let reference = bfs(&g, 0);
    assert_eq!(reference.order, [0, 1, 2, 4, 6, 7, 3, 5]);
    assert_eq!(reference.parent[5], Some(4));
    let mut td = BfsScratch::new();
    td.run(&csr, 0);
    assert_eq!(td.to_result(), reference, "top-down");
    let sources: Vec<Vertex> = (0..8).collect();
    for (tree, &s) in
        bfs_trees_wave(&csr, &sources, &mut MultiBfsScratch::new()).iter().zip(&sources)
    {
        assert_eq!(tree, &ShortestPathTree::from_bfs(bfs(&g, s)), "wave tree s={s}");
    }
}

#[test]
fn avoiding_runs_agree_including_hostile_edges() {
    let mut td = BfsScratch::new();
    let mut wave = MultiBfsScratch::new();
    for (name, g) in families() {
        let csr = g.freeze();
        let n = csr.vertex_count();
        for &s in &sample_sources(n)[..2.min(n)] {
            let tree = ShortestPathTree::from_bfs(bfs(&g, s));
            let edges = avoided_edges(&csr, s, &tree);
            wave.run_avoiding_wave(&csr, s, &edges);
            for (lane, &e) in edges.iter().enumerate() {
                let reference = bfs_avoiding_edge(&g, s, e);
                td.run_avoiding(&csr, s, e);
                assert_eq!(td.to_result(), reference, "{name}: top-down s={s} e={e}");
                assert_eq!(wave.lane_dist_vec(lane), reference.dist, "{name}: wave s={s} e={e}");
            }
        }
    }
}

#[test]
fn avoiding_an_absent_or_out_of_range_edge_equals_the_plain_run() {
    // Hostile avoided edges must be inert: no kernel may skip a single real edge.
    let g = grid_graph(5, 6);
    let csr = g.freeze();
    let n = csr.vertex_count();
    let mut td = BfsScratch::new();
    let mut wave = MultiBfsScratch::new();
    let hostile = [Edge::new(0, 7), Edge::new(n, n + 1), Edge::new(3, n + 9)];
    assert!(!csr.has_edge(0, 7), "premise: {} is absent", hostile[0]);
    for s in [0usize, n - 1] {
        let plain = bfs(&g, s);
        wave.run_avoiding_wave(&csr, s, &hostile);
        for (lane, &e) in hostile.iter().enumerate() {
            assert_eq!(bfs_avoiding_edge(&g, s, e), plain, "adjacency list s={s} e={e}");
            td.run_avoiding(&csr, s, e);
            assert_eq!(td.to_result(), plain, "top-down s={s} e={e}");
            assert_eq!(wave.lane_dist_vec(lane), plain.dist, "wave s={s} e={e}");
        }
    }
}

#[test]
#[should_panic(expected = "self loops")]
fn duplicate_endpoint_edges_are_rejected_before_any_kernel_sees_them() {
    // A degenerate "avoid (u, u)" request cannot reach a kernel: `Edge` refuses to
    // represent duplicate endpoints, so every kernel shares one rejection point.
    let _ = Edge::new(4, 4);
}
