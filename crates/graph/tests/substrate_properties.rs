//! Property-based tests of the graph substrate: BFS/shortest-path-tree invariants, bridge
//! detection vs. its definition, and the cuckoo map vs. a model.
//!
//! Each property is checked over a fixed number of cases generated from a pinned
//! `StdRng` seed, so a failure is reproducible from the case index alone (the suite used
//! to rely on `proptest`, whose default configuration reruns with fresh entropy).

use std::collections::HashMap;

use msrp_graph::{
    analyze_connectivity, bfs, bfs_avoiding_edge, CuckooHashMap, Edge, Graph, ShortestPathTree,
    INFINITE_DISTANCE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

/// A random simple graph on 2..=24 vertices built from a random edge list (possibly
/// disconnected).
fn arbitrary_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(2usize..=24);
    let mut g = Graph::new(n);
    for _ in 0..rng.gen_range(0..3 * n) {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            let _ = g.add_edge_if_absent(u, v);
        }
    }
    g
}

#[test]
fn bfs_distances_satisfy_the_triangle_property() {
    let mut rng = StdRng::seed_from_u64(0xB1F5);
    for case in 0..CASES {
        let g = arbitrary_graph(&mut rng);
        let r = bfs(&g, 0);
        for e in g.edges() {
            let (u, v) = e.endpoints();
            if r.dist[u] != INFINITE_DISTANCE && r.dist[v] != INFINITE_DISTANCE {
                assert!(
                    r.dist[u].abs_diff(r.dist[v]) <= 1,
                    "case {case}: adjacent vertices differ by more than one BFS level"
                );
            }
        }
        for v in 0..g.vertex_count() {
            if let Some(p) = r.parent[v] {
                assert_eq!(r.dist[v], r.dist[p] + 1, "case {case}");
                assert!(g.has_edge(v, p), "case {case}");
            }
        }
    }
}

#[test]
fn tree_paths_are_real_shortest_paths() {
    let mut rng = StdRng::seed_from_u64(0x7EE5);
    for case in 0..CASES {
        let g = arbitrary_graph(&mut rng);
        let tree = ShortestPathTree::build(&g.freeze(), 0);
        for t in 0..g.vertex_count() {
            if let Some(path) = tree.path_from_source(t) {
                assert_eq!(path.len() as u32 - 1, tree.distance(t).unwrap(), "case {case}");
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "case {case}");
                }
                for (i, e) in tree.path_edges(t).iter().enumerate() {
                    assert_eq!(tree.edge_position_on_path(t, *e), Some(i), "case {case}");
                    assert!(tree.path_contains_edge(t, *e), "case {case}");
                }
            }
        }
    }
}

#[test]
fn bridges_are_exactly_the_disconnecting_edges() {
    let mut rng = StdRng::seed_from_u64(0xB41D6E);
    for case in 0..CASES {
        let g = arbitrary_graph(&mut rng);
        let report = analyze_connectivity(&g.freeze());
        for e in g.edges() {
            let (u, v) = e.endpoints();
            let disconnects = bfs_avoiding_edge(&g, u, e).dist[v] == INFINITE_DISTANCE;
            assert_eq!(report.is_bridge(e), disconnects, "case {case}: edge {e}");
        }
    }
}

#[test]
fn removing_an_edge_never_shrinks_distances() {
    let mut rng = StdRng::seed_from_u64(0x5421);
    for case in 0..CASES {
        let g = arbitrary_graph(&mut rng);
        let base = bfs(&g, 0);
        let first_edge = g.edges().next();
        if let Some(e) = first_edge {
            let alt = bfs_avoiding_edge(&g, 0, e);
            for v in 0..g.vertex_count() {
                assert!(alt.dist[v] >= base.dist[v], "case {case}");
            }
        }
    }
}

#[test]
fn cuckoo_map_behaves_like_the_std_hashmap() {
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    for case in 0..CASES {
        let mut cuckoo: CuckooHashMap<u16, u32> = CuckooHashMap::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        for _ in 0..rng.gen_range(0usize..400) {
            let k = rng.gen_range(0u16..64);
            let v = rng.gen_range(0u32..1000);
            if rng.gen_bool(0.5) {
                assert_eq!(cuckoo.remove(&k), model.remove(&k), "case {case}");
            } else {
                assert_eq!(cuckoo.insert(k, v), model.insert(k, v), "case {case}");
            }
            assert_eq!(cuckoo.len(), model.len(), "case {case}");
        }
        for (k, v) in &model {
            assert_eq!(cuckoo.get(k), Some(v), "case {case}");
        }
    }
}

#[test]
fn edge_normalization_is_an_involution() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let mut checked = 0;
    while checked < CASES {
        let u = rng.gen_range(0usize..100);
        let v = rng.gen_range(0usize..100);
        if u == v {
            continue;
        }
        checked += 1;
        let e = Edge::new(u, v);
        assert_eq!(e, Edge::new(v, u));
        assert_eq!(e.other(u), Some(v));
        assert_eq!(e.other(v), Some(u));
        assert!(e.lo() < e.hi());
    }
}
