//! Deterministic, seedable graph generators for tests, examples and the benchmark harness.
//!
//! The paper evaluates nothing empirically, so the workloads used by the reproduction's
//! experiments are standard synthetic families: Erdős–Rényi graphs (sparse, `m ≈ c·n`), grids
//! and tori (high diameter, exercises the far-edge machinery), preferential-attachment graphs
//! (skewed degrees), random geometric graphs (locality), and structured graphs (paths, cycles,
//! stars, hypercubes, complete-bipartite graphs) for edge cases.
//!
//! All generators take an explicit RNG so that a seed fully determines the instance.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dijkstra::Weight;
use crate::error::GraphError;
use crate::graph::{Graph, Vertex};
use crate::weighted::WeightedGraph;

/// Generates a uniform random graph with exactly `m` edges (`G(n, m)`).
///
/// # Errors
///
/// Returns an error if `m` exceeds the number of possible edges `n·(n-1)/2`.
pub fn gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<Graph, GraphError> {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_edges {
        return Err(GraphError::InvalidParameters {
            reason: format!("m = {m} exceeds the maximum of {max_edges} for n = {n}"),
        });
    }
    let mut g = Graph::new(n);
    let mut added = 0;
    // Rejection sampling is fine for the sparse graphs used in the experiments; fall back to
    // explicit enumeration when the requested density is high.
    if (m as f64) < 0.4 * max_edges as f64 {
        while added < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            if g.add_edge_if_absent(u, v)? {
                added += 1;
            }
        }
    } else {
        let mut all: Vec<(usize, usize)> = Vec::with_capacity(max_edges);
        for u in 0..n {
            for v in (u + 1)..n {
                all.push((u, v));
            }
        }
        all.shuffle(rng);
        for &(u, v) in all.iter().take(m) {
            g.add_edge(u, v)?;
        }
    }
    Ok(g)
}

/// Generates a *connected* random graph with `n` vertices and exactly `m` edges by combining a
/// uniform random spanning tree (random-walk / random parent construction) with extra uniformly
/// random edges.
///
/// This is the default workload of the benchmark harness: the MSRP problem is only interesting
/// for targets that are reachable, and disconnection would make runtimes incomparable.
///
/// # Errors
///
/// Returns an error if `m < n - 1` (cannot be connected) or `m` exceeds `n(n-1)/2`.
pub fn connected_gnm<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Ok(Graph::new(0));
    }
    let max_edges = n * (n - 1) / 2;
    if m + 1 < n {
        return Err(GraphError::InvalidParameters {
            reason: format!("m = {m} is too small to connect {n} vertices"),
        });
    }
    if m > max_edges {
        return Err(GraphError::InvalidParameters {
            reason: format!("m = {m} exceeds the maximum of {max_edges} for n = {n}"),
        });
    }
    let mut g = Graph::new(n);
    // Random spanning tree: attach each vertex (in a random order) to a random earlier vertex.
    let mut order: Vec<Vertex> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(order[i], order[j])?;
    }
    let mut added = n - 1;
    while added < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if g.add_edge_if_absent(u, v)? {
            added += 1;
        }
    }
    Ok(g)
}

/// A path graph `0 - 1 - ... - (n-1)`. Every edge is a bridge, so no replacement path exists
/// for any failure: a useful worst case for the test-suite.
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i).expect("path edges are simple");
    }
    g
}

/// A cycle on `n ≥ 3` vertices. Every replacement path is "the long way around".
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle_graph(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut g = path_graph(n);
    g.add_edge(n - 1, 0).expect("closing edge is new");
    g
}

/// A star with `n - 1` leaves around vertex 0.
pub fn star_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0, i).expect("star edges are simple");
    }
    g
}

/// The complete bipartite graph `K_{a,b}` (vertices `0..a` on one side, `a..a+b` on the other).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::new(a + b);
    for u in 0..a {
        for v in 0..b {
            g.add_edge(u, a + v).expect("bipartite edges are simple");
        }
    }
    g
}

/// An `rows × cols` grid graph (4-neighbour connectivity).
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(idx(r, c), idx(r, c + 1)).expect("grid edges are simple");
            }
            if r + 1 < rows {
                g.add_edge(idx(r, c), idx(r + 1, c)).expect("grid edges are simple");
            }
        }
    }
    g
}

/// An `rows × cols` torus (grid with wrap-around edges). Requires `rows, cols ≥ 3` so that the
/// wrap-around edges do not duplicate grid edges.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3`.
pub fn torus_graph(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus requires both dimensions >= 3");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut g = grid_graph(rows, cols);
    for r in 0..rows {
        g.add_edge(idx(r, cols - 1), idx(r, 0)).expect("wrap edges are new");
    }
    for c in 0..cols {
        g.add_edge(idx(rows - 1, c), idx(0, c)).expect("wrap edges are new");
    }
    g
}

/// The `d`-dimensional hypercube (`2^d` vertices).
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if v < w {
                g.add_edge(v, w).expect("hypercube edges are simple");
            }
        }
    }
    g
}

/// A Barabási–Albert-style preferential-attachment graph: starts from a small clique and
/// attaches each new vertex to `k` distinct existing vertices chosen proportionally to degree.
///
/// # Errors
///
/// Returns an error if `k == 0` or `k >= n`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 || k >= n.max(1) {
        return Err(GraphError::InvalidParameters {
            reason: format!("preferential attachment needs 0 < k < n (k = {k}, n = {n})"),
        });
    }
    let mut g = Graph::new(n);
    let seed = (k + 1).min(n);
    for u in 0..seed {
        for v in (u + 1)..seed {
            g.add_edge(u, v)?;
        }
    }
    // Repeated-endpoint list: each edge contributes both endpoints, so sampling uniformly from
    // the list is sampling proportionally to degree.
    let mut endpoints: Vec<Vertex> = Vec::new();
    for u in 0..seed {
        for v in (u + 1)..seed {
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in seed..n {
        let mut targets = Vec::with_capacity(k);
        let mut guard = 0;
        while targets.len() < k && guard < 50 * k + 100 {
            guard += 1;
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        // Fall back to arbitrary earlier vertices if degree-proportional sampling stalls.
        let mut fallback = 0;
        while targets.len() < k {
            if fallback >= v {
                break;
            }
            if !targets.contains(&fallback) {
                targets.push(fallback);
            }
            fallback += 1;
        }
        for &t in &targets {
            g.add_edge(v, t)?;
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    Ok(g)
}

/// A random geometric graph: `n` points in the unit square, edges between pairs closer than
/// `radius` (plus a path over the points sorted by x-coordinate when `ensure_connected` is set,
/// to avoid isolated vertices in sparse regimes).
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    ensure_connected: bool,
    rng: &mut R,
) -> Graph {
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let mut g = Graph::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = points[u].0 - points[v].0;
            let dy = points[u].1 - points[v].1;
            if dx * dx + dy * dy <= r2 {
                g.add_edge(u, v).expect("geometric edges are simple");
            }
        }
    }
    if ensure_connected && n > 1 {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| points[a].0.partial_cmp(&points[b].0).expect("finite coords"));
        for w in order.windows(2) {
            let _ = g.add_edge_if_absent(w[0], w[1]);
        }
    }
    g
}

/// Lifts `g` to a weighted graph with independent uniform weights in `1..=max_weight`.
///
/// Edges are visited in normalized sorted order, so a seeded RNG fully determines the
/// weighting — the weighted analogue of the "explicit RNG" contract every generator here
/// follows.
///
/// # Panics
///
/// Panics if `max_weight` is 0 (zero-weight edges are legal in a [`WeightedGraph`], but a
/// degenerate all-zero weighting is never what a caller wants from a *random* weighting)
/// or `INFINITE_WEIGHT` (the reserved "no path" sentinel, which no edge may carry).
pub fn random_weights<R: Rng + ?Sized>(
    g: &Graph,
    max_weight: Weight,
    rng: &mut R,
) -> WeightedGraph {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    assert!(
        max_weight < crate::INFINITE_WEIGHT,
        "max_weight must stay below the INFINITE_WEIGHT sentinel"
    );
    WeightedGraph::from_graph(g, |_| rng.gen_range(1..=max_weight))
}

/// A connected `G(n, m)` topology (see [`connected_gnm`]) with uniform random weights in
/// `1..=max_weight`; the weighted workload of perfbench and experiment E9.
///
/// # Errors
///
/// Returns the same errors as [`connected_gnm`].
pub fn weighted_connected_gnm<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    max_weight: Weight,
    rng: &mut R,
) -> Result<WeightedGraph, GraphError> {
    let g = connected_gnm(n, m, rng)?;
    Ok(random_weights(&g, max_weight, rng))
}

/// A preferential-attachment topology (see [`barabasi_albert`]) with uniform random weights
/// in `1..=max_weight` (skewed degrees under a weighted metric).
///
/// # Errors
///
/// Returns the same errors as [`barabasi_albert`].
pub fn weighted_barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    max_weight: Weight,
    rng: &mut R,
) -> Result<WeightedGraph, GraphError> {
    let g = barabasi_albert(n, k, rng)?;
    Ok(random_weights(&g, max_weight, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnm_produces_exact_edge_counts() {
        for &(n, m) in &[(10, 9), (30, 60), (12, 66)] {
            let g = gnm(n, m, &mut rng(3)).unwrap();
            assert_eq!(g.vertex_count(), n);
            assert_eq!(g.edge_count(), m);
        }
        assert!(gnm(5, 11, &mut rng(3)).is_err());
    }

    #[test]
    fn connected_gnm_is_connected_with_exact_size() {
        for seed in 0..5u64 {
            let g = connected_gnm(50, 120, &mut rng(seed)).unwrap();
            assert_eq!(g.vertex_count(), 50);
            assert_eq!(g.edge_count(), 120);
            assert!(g.is_connected());
        }
        assert!(connected_gnm(10, 5, &mut rng(0)).is_err());
        assert!(connected_gnm(4, 100, &mut rng(0)).is_err());
        assert_eq!(connected_gnm(0, 0, &mut rng(0)).unwrap().vertex_count(), 0);
    }

    #[test]
    fn structured_graph_sizes() {
        assert_eq!(path_graph(10).edge_count(), 9);
        assert_eq!(cycle_graph(10).edge_count(), 10);
        assert_eq!(star_graph(10).edge_count(), 9);
        assert_eq!(complete_bipartite(3, 4).edge_count(), 12);
        assert_eq!(grid_graph(4, 5).edge_count(), 4 * 4 + 5 * 3);
        assert_eq!(torus_graph(4, 5).edge_count(), 2 * 4 * 5);
        assert_eq!(hypercube(4).edge_count(), 16 * 4 / 2);
    }

    #[test]
    fn structured_graphs_are_connected() {
        assert!(path_graph(17).is_connected());
        assert!(cycle_graph(9).is_connected());
        assert!(star_graph(9).is_connected());
        assert!(grid_graph(6, 7).is_connected());
        assert!(torus_graph(3, 3).is_connected());
        assert!(hypercube(5).is_connected());
        assert!(complete_bipartite(2, 5).is_connected());
    }

    #[test]
    fn grid_degrees_are_correct() {
        let g = grid_graph(3, 3);
        assert_eq!(g.degree(4), 4); // center
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge midpoint
        let t = torus_graph(3, 3);
        for v in 0..9 {
            assert_eq!(t.degree(v), 4);
        }
    }

    #[test]
    fn barabasi_albert_shapes() {
        let g = barabasi_albert(100, 3, &mut rng(11)).unwrap();
        assert_eq!(g.vertex_count(), 100);
        assert!(g.is_connected());
        // Every vertex added after the seed has degree at least k.
        for v in 4..100 {
            assert!(g.degree(v) >= 3, "vertex {v} has degree {}", g.degree(v));
        }
        assert!(barabasi_albert(10, 0, &mut rng(0)).is_err());
        assert!(barabasi_albert(5, 5, &mut rng(0)).is_err());
    }

    #[test]
    fn barabasi_albert_has_skewed_degrees() {
        let g = barabasi_albert(300, 2, &mut rng(5)).unwrap();
        let max_deg = (0..300).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg >= 10, "expected a hub, max degree was {max_deg}");
    }

    #[test]
    fn random_geometric_connectivity_helper() {
        let g = random_geometric(60, 0.05, true, &mut rng(2));
        assert!(g.is_connected());
        let sparse = random_geometric(60, 0.0, false, &mut rng(2));
        assert_eq!(sparse.edge_count(), 0);
    }

    #[test]
    fn random_weights_are_seeded_and_in_range() {
        let g = connected_gnm(30, 70, &mut rng(5)).unwrap();
        let a = random_weights(&g, 10, &mut rng(9));
        let b = random_weights(&g, 10, &mut rng(9));
        assert_eq!(a, b, "a seed must fully determine the weighting");
        assert_eq!(a.edge_count(), g.edge_count());
        assert!(a.edges().all(|(_, w)| (1..=10).contains(&w)));
        let c = random_weights(&g, 10, &mut rng(10));
        assert_ne!(a, c, "different seeds must (overwhelmingly) differ");
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn random_weights_rejects_the_sentinel_bound() {
        let g = path_graph(3);
        let _ = random_weights(&g, Weight::MAX, &mut rng(0));
    }

    #[test]
    fn weighted_generators_match_their_topologies() {
        let w = weighted_connected_gnm(40, 90, 100, &mut rng(3)).unwrap();
        assert_eq!(w.vertex_count(), 40);
        assert_eq!(w.edge_count(), 90);
        assert!(w.freeze().is_connected());
        let w2 = weighted_connected_gnm(40, 90, 100, &mut rng(3)).unwrap();
        assert_eq!(w, w2);
        let ba = weighted_barabasi_albert(50, 2, 7, &mut rng(4)).unwrap();
        assert!(ba.freeze().is_connected());
        assert!(ba.edges().all(|(_, wt)| (1..=7).contains(&wt)));
        assert!(weighted_connected_gnm(10, 5, 3, &mut rng(0)).is_err());
        assert!(weighted_barabasi_albert(5, 5, 3, &mut rng(0)).is_err());
    }

    #[test]
    fn hypercube_neighbours_differ_in_one_bit() {
        let g = hypercube(3);
        for v in 0..8usize {
            for &w in g.neighbors(v) {
                assert_eq!((v ^ w).count_ones(), 1);
            }
        }
    }
}
