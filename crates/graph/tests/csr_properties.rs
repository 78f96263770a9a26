//! Property suite for the CSR traversal core: seeded `connected_gnm` and `barabasi_albert`
//! instances must freeze/thaw round-trip exactly, and every traversal over [`CsrGraph`] must
//! agree bit-for-bit (dist, parent, order) with the seed [`Graph`] implementation — the
//! determinism guarantee the oracle, the serving layer and every pinned experiment rely on.
//! The solver's auxiliary-digraph Dijkstra ([`WeightedDigraph`]) is held to the same bar
//! against the independent [`DijkstraScratch`] over [`WeightedCsrGraph`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_graph::generators::{barabasi_albert, connected_gnm, weighted_connected_gnm};
use msrp_graph::{
    bfs, bfs_avoiding_edge, bfs_csr, bfs_csr_avoiding_edge, BfsScratch, DijkstraScratch, Graph,
    ShortestPathTree, WeightedCsrGraph, WeightedDigraph,
};

/// The seeded instances every property below runs on.
fn seeded_instances() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for seed in [1u64, 7, 42] {
        for (n, m) in [(20usize, 30usize), (40, 90), (64, 200)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = connected_gnm(n, m, &mut rng).unwrap();
            out.push((format!("gnm(n={n}, m={m}, seed={seed})"), g));
        }
        for (n, k) in [(30usize, 2usize), (60, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = barabasi_albert(n, k, &mut rng).unwrap();
            out.push((format!("ba(n={n}, k={k}, seed={seed})"), g));
        }
    }
    out
}

#[test]
fn freeze_thaw_round_trips_exactly() {
    for (name, g) in seeded_instances() {
        let csr = g.freeze();
        assert_eq!(csr.thaw(), g, "{name}: freeze/thaw must be the identity");
        // Freezing is deterministic: two freezes of the same graph are equal.
        assert_eq!(csr, g.freeze(), "{name}: freeze must be deterministic");
        // And the frozen view reports the same structure.
        assert_eq!(csr.vertex_count(), g.vertex_count(), "{name}");
        assert_eq!(csr.edge_count(), g.edge_count(), "{name}");
        assert_eq!(csr.edge_vec(), g.edge_vec(), "{name}");
        for v in g.vertices() {
            assert_eq!(csr.degree(v), g.degree(v), "{name}: degree({v})");
            assert_eq!(
                csr.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v),
                "{name}: neighbors({v})"
            );
        }
    }
}

#[test]
fn csr_bfs_agrees_with_seed_bfs_bit_for_bit() {
    for (name, g) in seeded_instances() {
        let csr = g.freeze();
        for source in g.vertices() {
            let seed = bfs(&g, source);
            let frozen = bfs_csr(&csr, source);
            assert_eq!(frozen.dist, seed.dist, "{name}: dist from {source}");
            assert_eq!(frozen.parent, seed.parent, "{name}: parent from {source}");
            assert_eq!(frozen.order, seed.order, "{name}: order from {source}");
        }
    }
}

#[test]
fn csr_edge_avoiding_bfs_agrees_with_seed() {
    for (name, g) in seeded_instances().into_iter().take(6) {
        let csr = g.freeze();
        for e in g.edges() {
            let seed = bfs_avoiding_edge(&g, 0, e);
            let frozen = bfs_csr_avoiding_edge(&csr, 0, e);
            assert_eq!(frozen, seed, "{name}: avoiding {e}");
        }
    }
}

#[test]
fn shared_scratch_is_equivalent_to_fresh_buffers() {
    // One scratch across every instance and every source: the O(visited) reset must leave no
    // stale state behind, even when the vertex count changes between runs.
    let mut scratch = BfsScratch::new();
    for (name, g) in seeded_instances() {
        let csr = g.freeze();
        for source in g.vertices().step_by(3) {
            scratch.run(&csr, source);
            let fresh = bfs(&g, source);
            assert_eq!(scratch.to_result(), fresh, "{name}: scratch from {source}");
        }
        for e in g.edge_vec().into_iter().step_by(5) {
            scratch.run_avoiding(&csr, 0, e);
            assert_eq!(scratch.to_result(), bfs_avoiding_edge(&g, 0, e), "{name}: avoid {e}");
        }
    }
}

#[test]
fn trees_built_over_csr_match_trees_built_over_graph() {
    for (name, g) in seeded_instances().into_iter().take(8) {
        let csr = g.freeze();
        let mut scratch = BfsScratch::new();
        for source in [0, g.vertex_count() / 2, g.vertex_count() - 1] {
            let seed = ShortestPathTree::from_bfs(bfs(&g, source));
            let frozen = ShortestPathTree::build(&csr, source);
            let scratched = ShortestPathTree::build_with_scratch(&csr, source, &mut scratch);
            for v in g.vertices() {
                assert_eq!(frozen.distance(v), seed.distance(v), "{name}: dist({source}, {v})");
                assert_eq!(frozen.parent(v), seed.parent(v), "{name}: parent({source}, {v})");
                assert_eq!(scratched.distance(v), seed.distance(v), "{name}");
                assert_eq!(scratched.parent(v), seed.parent(v), "{name}");
                assert_eq!(
                    frozen.path_from_source(v),
                    seed.path_from_source(v),
                    "{name}: canonical path to {v}"
                );
            }
            assert_eq!(frozen.order(), seed.order(), "{name}: BFS order");
        }
    }
}

#[test]
fn has_edge_agrees_with_a_naive_neighbor_scan_on_every_pair() {
    // `has_edge` binary-searches the smaller of the two sorted CSR rows; the ground truth
    // is a linear scan of the row. Sweep every (u, v) pair — present, absent, and
    // out-of-range — so both the hit and the miss paths of the search are pinned.
    for (name, g) in seeded_instances() {
        let csr = g.freeze();
        let n = csr.vertex_count();
        for u in 0..n {
            for v in 0..n {
                let naive = u != v && csr.neighbor_row(u).contains(&(v as u32));
                assert_eq!(csr.has_edge(u, v), naive, "{name}: has_edge({u}, {v})");
                assert_eq!(csr.has_edge(v, u), naive, "{name}: has_edge({v}, {u})");
            }
            assert!(!csr.has_edge(u, n), "{name}: out-of-range second endpoint");
            assert!(!csr.has_edge(n + 5, u), "{name}: out-of-range first endpoint");
        }
    }
}

#[test]
fn auxiliary_digraph_dijkstra_agrees_with_the_weighted_scratch() {
    // Thousands of nodes with weights in 1..=8, so equal distances are common and the
    // predecessor tie-breaking is exercised. Each undirected edge is stored both ways, row by
    // row in sorted order, so both searches relax the same arcs in the same order and must
    // agree on the predecessors as well as the distances.
    let mut rng = StdRng::seed_from_u64(4096);
    let g: WeightedCsrGraph = weighted_connected_gnm(4096, 4 * 4096, 8, &mut rng).unwrap().freeze();
    let mut aux = WeightedDigraph::new(g.vertex_count());
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            aux.add_edge(u, v, w);
        }
    }
    let frozen = aux.freeze();
    assert_eq!(frozen.edge_count(), 2 * g.edge_count());
    let mut scratch = DijkstraScratch::new();
    for source in [0, 1, 2047, 4095] {
        let searched = frozen.dijkstra(source);
        scratch.run(&g, source);
        assert_eq!(&searched.dist[..], scratch.dist(), "dist from {source}");
        assert_eq!(&searched.pred[..], scratch.parent(), "pred from {source}");
    }
}
