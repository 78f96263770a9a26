//! The classical `Õ(m + n)` single-pair replacement-path routine for undirected unweighted
//! graphs (Malik–Mittal–Gupta 1989; Hershberger–Suri 2001; Nardelli–Proietti–Widmayer 2003).
//!
//! # The cut formula
//!
//! Fix a source `s`, a target `t`, the BFS tree `T_s` and the canonical path
//! `P = v_0 v_1 … v_k` (`v_0 = s`, `v_k = t`). For the `i`-th path edge `e_i = (v_i, v_{i+1})`
//! let `S_i` be the component of `T_s \ {e_i}` containing `s`. Then
//!
//! ```text
//! |st ⋄ e_i| = min { d(s, x) + 1 + d(y, t) :  (x, y) ∈ E \ {e_i},  x ∈ S_i,  y ∉ S_i }.
//! ```
//!
//! *Lower bound direction.* Any `e_i`-avoiding `s–t` path starts in `S_i` and ends outside it
//! (the tree path to `t` uses `e_i`), so it crosses the cut at some edge `(x, y) ≠ e_i`; its
//! length is at least `d(s, x) + 1 + d(y, t)`.
//!
//! *Upper bound direction.* For the minimising `(x, y)`: the tree path `s → x` avoids `e_i`
//! (that is what `x ∈ S_i` means) and has length `d(s, x)`. It remains to argue that *some*
//! shortest `y–t` path avoids `e_i`. Suppose every shortest `y–t` path used `e_i`. Orientation
//! `v_{i+1} → v_i` is impossible: it would give `d(y, t) = d(y, v_{i+1}) + 1 + (k - i)` while the
//! triangle inequality gives `d(y, t) ≤ d(y, v_{i+1}) + (k - i - 1)`. Orientation
//! `v_i → v_{i+1}` forces `d(y, v_{i+1}) = d(y, v_i) + 1`; writing `ℓ` for the length of the tree
//! path from `v_{i+1}` down to `y` (so `d(s, y) = i + 1 + ℓ` and `d(y, v_{i+1}) = ℓ`) we get
//! `d(y, v_i) = ℓ - 1` and hence `d(s, y) ≤ d(s, v_i) + d(v_i, y) = i + ℓ - 1 < i + 1 + ℓ`,
//! a contradiction. Hence the concatenation is an `e_i`-avoiding walk of the claimed length.
//!
//! # The sweep
//!
//! For every vertex `x` let `a(x)` be the *branch index*: the index of the last path vertex on
//! the tree path from `s` to `x`. Then `x ∈ S_i ⇔ i ≥ a(x)`, so an edge `(x, y)` is a crossing
//! edge exactly for `i ∈ [a(x), a(y) - 1]` (in that orientation). Every edge therefore
//! contributes one candidate value to one contiguous interval of positions per orientation, and
//! a single sweep with a multiset of active values answers all `k` positions in
//! `O((m + k) log m)` time.

use std::collections::BTreeMap;

use msrp_graph::{dist_add, CsrGraph, Distance, ShortestPathTree, Vertex, INFINITE_DISTANCE};

/// Computes `|st ⋄ e_i|` for every edge `e_i` on the canonical path from the tree root to `t`.
///
/// * `g` — the frozen CSR view of the graph (freeze once with
///   [`Graph::freeze`](msrp_graph::Graph::freeze) and amortize over many targets);
/// * `tree` — the BFS tree of the source (`T_s`), which defines the canonical path;
/// * `dist_to_t` — BFS distances *from `t`* to every vertex (undirected, so these equal the
///   distances *to* `t`).
///
/// Returns a vector of length `d(s, t)` (empty when `t` is unreachable or equals the source);
/// entry `i` is `INFINITE_DISTANCE` when removing `e_i` disconnects `t` from `s`.
///
/// # Panics
///
/// Panics if `dist_to_t` has the wrong length.
pub fn single_pair_replacement_paths(
    g: &CsrGraph,
    tree: &ShortestPathTree,
    t: Vertex,
    dist_to_t: &[Distance],
) -> Vec<Distance> {
    let n = g.vertex_count();
    assert_eq!(dist_to_t.len(), n, "dist_to_t must have one entry per vertex");
    let path = match tree.path_from_source(t) {
        Some(p) if p.len() >= 2 => p,
        _ => return Vec::new(),
    };
    let k = path.len() - 1;

    // Branch indices a(x): index of the last path vertex on the tree path from s to x.
    let mut path_index: Vec<Option<u32>> = vec![None; n];
    for (i, &v) in path.iter().enumerate() {
        path_index[v] = Some(i as u32);
    }
    let mut branch: Vec<u32> = vec![0; n];
    for &v in tree.order() {
        let v = v as usize;
        if let Some(i) = path_index[v] {
            branch[v] = i;
        } else if let Some(p) = tree.parent(v) {
            branch[v] = branch[p];
        }
    }

    // Interval contributions: (start, end_inclusive, value).
    let mut starts: Vec<Vec<Distance>> = vec![Vec::new(); k];
    let mut ends: Vec<Vec<Distance>> = vec![Vec::new(); k];
    let push = |l: u32,
                r: u32,
                val: Distance,
                starts: &mut Vec<Vec<Distance>>,
                ends: &mut Vec<Vec<Distance>>| {
        if val == INFINITE_DISTANCE || l > r {
            return;
        }
        starts[l as usize].push(val);
        ends[r as usize].push(val);
    };

    for e in g.edges() {
        let (x, y) = e.endpoints();
        if !tree.is_reachable(x) || !tree.is_reachable(y) {
            continue;
        }
        // Skip the path edges themselves: e_i must not be its own crossing candidate, and any
        // other path edge only ever covers its own (different) position anyway.
        if let (Some(ix), Some(iy)) = (path_index[x], path_index[y]) {
            if ix.abs_diff(iy) == 1 {
                continue;
            }
        }
        let ax = branch[x];
        let ay = branch[y];
        if ax < ay {
            let val = dist_add(dist_add(tree.distance_or_infinite(x), 1), dist_to_t[y]);
            push(ax, ay - 1, val, &mut starts, &mut ends);
        } else if ay < ax {
            let val = dist_add(dist_add(tree.distance_or_infinite(y), 1), dist_to_t[x]);
            push(ay, ax - 1, val, &mut starts, &mut ends);
        }
    }

    // Sweep positions 0..k with a multiset of active candidate values.
    let mut active: BTreeMap<Distance, usize> = BTreeMap::new();
    let mut result = vec![INFINITE_DISTANCE; k];
    for i in 0..k {
        for &v in &starts[i] {
            *active.entry(v).or_insert(0) += 1;
        }
        if let Some((&best, _)) = active.iter().next() {
            result[i] = best;
        }
        for &v in &ends[i] {
            match active.get_mut(&v) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    active.remove(&v);
                }
                None => unreachable!("every interval end was previously started"),
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::single_source_brute_force;
    use msrp_graph::generators::{
        complete_bipartite, connected_gnm, cycle_graph, grid_graph, hypercube, path_graph,
    };
    use msrp_graph::{bfs_distances, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_against_brute_force(g: &Graph, s: Vertex) {
        let csr = g.freeze();
        let tree = ShortestPathTree::build(&csr, s);
        let truth = single_source_brute_force(&csr, &tree);
        for t in 0..g.vertex_count() {
            let dist_to_t = bfs_distances(g, t);
            let fast = single_pair_replacement_paths(&csr, &tree, t, &dist_to_t);
            assert_eq!(fast.len(), truth.row(t).len(), "row length for target {t}");
            for (i, &v) in fast.iter().enumerate() {
                assert_eq!(
                    Some(v),
                    truth.get(t, i),
                    "mismatch at target {t}, edge index {i} (source {s})"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_cycles_and_paths() {
        check_against_brute_force(&cycle_graph(9), 0);
        check_against_brute_force(&cycle_graph(10), 4);
        check_against_brute_force(&path_graph(8), 0);
        check_against_brute_force(&path_graph(8), 3);
    }

    #[test]
    fn matches_brute_force_on_grids() {
        check_against_brute_force(&grid_graph(4, 4), 0);
        check_against_brute_force(&grid_graph(3, 6), 7);
    }

    #[test]
    fn matches_brute_force_on_dense_graphs() {
        check_against_brute_force(&hypercube(4), 3);
        check_against_brute_force(&complete_bipartite(3, 5), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..6 {
            let n = 20 + trial * 5;
            let m = 2 * n;
            let g = connected_gnm(n, m, &mut rng).unwrap();
            check_against_brute_force(&g, trial % n);
        }
    }

    #[test]
    fn unreachable_target_yields_empty_vector() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let tree = ShortestPathTree::build(&g.freeze(), 0);
        let dist_to_2 = bfs_distances(&g, 2);
        assert!(single_pair_replacement_paths(&g.freeze(), &tree, 2, &dist_to_2).is_empty());
    }

    #[test]
    fn target_equal_to_source_yields_empty_vector() {
        let g = cycle_graph(5);
        let tree = ShortestPathTree::build(&g.freeze(), 1);
        let dist = bfs_distances(&g, 1);
        assert!(single_pair_replacement_paths(&g.freeze(), &tree, 1, &dist).is_empty());
    }

    #[test]
    fn bridge_positions_are_infinite() {
        // Two triangles joined by a bridge 2-3.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
            .unwrap();
        let tree = ShortestPathTree::build(&g.freeze(), 0);
        let dist_to_5 = bfs_distances(&g, 5);
        let r = single_pair_replacement_paths(&g.freeze(), &tree, 5, &dist_to_5);
        // Canonical path 0-1? depends on tree; use positions via path edges.
        let edges = tree.path_edges(5);
        let bridge_pos = edges.iter().position(|e| *e == msrp_graph::Edge::new(2, 3)).unwrap();
        assert_eq!(r[bridge_pos], INFINITE_DISTANCE);
        for (i, &v) in r.iter().enumerate() {
            if i != bridge_pos {
                assert_ne!(v, INFINITE_DISTANCE, "non-bridge edge {i} should have a replacement");
            }
        }
    }
}
