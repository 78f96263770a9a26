//! Edge-case coverage the seed suites miss: generator validity (connectivity of
//! `connected_gnm`, degree bounds of `barabasi_albert`) and `Edge` canonicalization.
//!
//! All randomness is pinned through `StdRng::seed_from_u64` so every run is reproducible.

use msrp_graph::generators::{barabasi_albert, connected_gnm, gnm};
use msrp_graph::Edge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- Generator validity. ---

#[test]
fn connected_gnm_is_connected_across_densities_and_seeds() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Spanning tree only, mid density, and complete graph.
        for &(n, m) in &[(2, 1), (17, 16), (40, 39), (40, 100), (12, 66)] {
            let g = connected_gnm(n, m, &mut rng).unwrap();
            assert_eq!(g.vertex_count(), n, "seed {seed}, n {n}, m {m}");
            assert_eq!(g.edge_count(), m, "seed {seed}, n {n}, m {m}");
            assert!(g.is_connected(), "seed {seed}, n {n}, m {m} is disconnected");
        }
    }
}

#[test]
fn connected_gnm_handles_degenerate_sizes() {
    let mut rng = StdRng::seed_from_u64(1);
    assert_eq!(connected_gnm(0, 0, &mut rng).unwrap().vertex_count(), 0);
    let single = connected_gnm(1, 0, &mut rng).unwrap();
    assert_eq!(single.vertex_count(), 1);
    assert_eq!(single.edge_count(), 0);
    assert!(single.is_connected());
    // m below the spanning-tree bound or above the simple-graph bound must fail.
    assert!(connected_gnm(5, 3, &mut rng).is_err());
    assert!(connected_gnm(5, 11, &mut rng).is_err());
}

#[test]
fn connected_gnm_is_deterministic_per_seed() {
    let a = connected_gnm(60, 140, &mut StdRng::seed_from_u64(9)).unwrap();
    let b = connected_gnm(60, 140, &mut StdRng::seed_from_u64(9)).unwrap();
    let c = connected_gnm(60, 140, &mut StdRng::seed_from_u64(10)).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c, "different seeds produced identical 60/140 graphs");
}

#[test]
fn gnm_handles_empty_and_tiny_graphs() {
    let mut rng = StdRng::seed_from_u64(4);
    assert_eq!(gnm(0, 0, &mut rng).unwrap().vertex_count(), 0);
    assert_eq!(gnm(5, 0, &mut rng).unwrap().edge_count(), 0);
    assert_eq!(gnm(1, 0, &mut rng).unwrap().edge_count(), 0);
    assert!(gnm(1, 1, &mut rng).is_err());
    // Dense regime goes through the shuffle path; exact count must still hold.
    let dense = gnm(16, 100, &mut rng).unwrap();
    assert_eq!(dense.edge_count(), 100);
}

#[test]
fn barabasi_albert_degree_bounds_hold() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for &(n, k) in &[(30, 1), (60, 2), (120, 5)] {
            let g = barabasi_albert(n, k, &mut rng).unwrap();
            assert_eq!(g.vertex_count(), n);
            assert!(g.is_connected(), "seed {seed}, n {n}, k {k} is disconnected");
            let clique = k + 1;
            // Seed-clique vertices start with degree k; every later vertex attaches to
            // exactly k distinct earlier vertices, so degree >= k holds for all.
            for v in 0..n {
                assert!(
                    g.degree(v) >= k,
                    "seed {seed}, n {n}, k {k}: vertex {v} has degree {}",
                    g.degree(v)
                );
            }
            // Edge count: the seed clique plus k edges per later vertex.
            assert_eq!(g.edge_count(), clique * (clique - 1) / 2 + (n - clique) * k);
        }
    }
}

#[test]
fn barabasi_albert_attaches_to_distinct_targets() {
    let g = barabasi_albert(50, 3, &mut StdRng::seed_from_u64(77)).unwrap();
    // Simple graph: no duplicate edges means each later vertex found 3 distinct targets.
    let mut seen = std::collections::HashSet::new();
    for e in g.edges() {
        assert!(seen.insert(e), "duplicate edge {e}");
    }
}

// --- Edge canonicalization. ---

#[test]
fn edge_ordering_is_lexicographic_on_normalized_endpoints() {
    let mut edges = [Edge::new(5, 1), Edge::new(0, 9), Edge::new(2, 1), Edge::new(0, 2)];
    edges.sort_unstable();
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| e.endpoints()).collect();
    assert_eq!(pairs, vec![(0, 2), (0, 9), (1, 2), (1, 5)]);
}

#[test]
fn edge_equality_survives_hashing() {
    let mut set = std::collections::HashSet::new();
    for u in 0..20usize {
        for v in 0..20usize {
            if u != v {
                set.insert(Edge::new(u, v));
            }
        }
    }
    // Both orientations collapse to one canonical edge.
    assert_eq!(set.len(), 20 * 19 / 2);
    assert!(set.contains(&Edge::new(19, 0)));
    assert!(set.contains(&Edge::new(0, 19)));
}

#[test]
fn edge_incidence_against_random_pairs() {
    let mut rng = StdRng::seed_from_u64(0xED6E2);
    for _ in 0..200 {
        let u = rng.gen_range(0usize..500);
        let v = rng.gen_range(0usize..500);
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        assert_eq!(e.lo(), u.min(v));
        assert_eq!(e.hi(), u.max(v));
        assert!(e.is_incident(u) && e.is_incident(v));
        assert!(!e.is_incident(u.max(v) + 1));
        assert_eq!(e.other(u), Some(v));
        assert_eq!(e.other(v), Some(u));
        assert_eq!(e.other(u.max(v) + 1), None);
        assert!(e.shares_endpoint(&e));
    }
}
