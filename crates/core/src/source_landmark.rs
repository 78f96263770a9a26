//! The source→landmark replacement tables `d(s, r, e)`.
//!
//! The preprocessing phase of the paper's algorithm stores, for every source `s ∈ S`, every
//! landmark `r ∈ L` and every edge `e` on the canonical `s–r` path, the replacement distance
//! `d(s, r, e)`. For `σ = 1` the paper obtains these with the classical single-pair routine
//! ([`SourceLandmarkTable::exact`]); for general `σ` Section 8's path-cover machinery builds the
//! same table within the `Õ(m√(nσ) + σn²)` budget (see the `multi_source` module).

use msrp_graph::{CsrGraph, Distance, Edge, ShortestPathTree, INFINITE_DISTANCE};
use msrp_rpath::single_pair_replacement_paths;

use crate::preprocess::BfsIndex;

/// Replacement distances from every source to every landmark, indexed by the position of the
/// avoided edge on the canonical source→landmark path.
#[derive(Clone, Debug)]
pub struct SourceLandmarkTable {
    /// `rows[s_idx][r_idx][pos]` = `d(s, r, e_pos)`.
    rows: Vec<Vec<Vec<Distance>>>,
}

impl SourceLandmarkTable {
    /// Creates a table from raw rows (used by the path-cover construction).
    pub fn from_rows(rows: Vec<Vec<Vec<Distance>>>) -> Self {
        SourceLandmarkTable { rows }
    }

    /// Builds the table with the classical `Õ(m + n)` routine per (source, landmark) pair
    /// (`Õ((m + n)·σ·|L|)` total) — exact, no randomness. Runs over the frozen CSR view.
    pub fn exact(g: &CsrGraph, source_trees: &[ShortestPathTree], landmarks: &BfsIndex) -> Self {
        let mut rows = Vec::with_capacity(source_trees.len());
        for tree_s in source_trees {
            let mut per_landmark = Vec::with_capacity(landmarks.len());
            for r_idx in 0..landmarks.len() {
                let r = landmarks.vertices()[r_idx];
                let dist_from_r = landmarks.tree(r_idx).distances();
                per_landmark.push(single_pair_replacement_paths(g, tree_s, r, dist_from_r));
            }
            rows.push(per_landmark);
        }
        SourceLandmarkTable { rows }
    }

    /// Number of sources covered.
    pub fn source_count(&self) -> usize {
        self.rows.len()
    }

    /// Raw row for a (source, landmark) pair.
    pub fn row(&self, s_idx: usize, r_idx: usize) -> &[Distance] {
        &self.rows[s_idx][r_idx]
    }

    /// Total number of stored entries.
    pub fn entry_count(&self) -> usize {
        self.rows.iter().flat_map(|per_l| per_l.iter().map(|r| r.len())).sum()
    }

    /// A borrowed view for one source, usable by the per-target phases.
    pub fn view<'a>(
        &'a self,
        s_idx: usize,
        source_tree: &'a ShortestPathTree,
        landmarks: &'a BfsIndex,
    ) -> SourceLandmarkView<'a> {
        SourceLandmarkView { source_tree, landmarks, rows: &self.rows[s_idx] }
    }
}

/// A per-source view of the table answering "what is `d(s, r, e)`" for arbitrary edges `e`.
#[derive(Clone, Copy, Debug)]
pub struct SourceLandmarkView<'a> {
    source_tree: &'a ShortestPathTree,
    landmarks: &'a BfsIndex,
    rows: &'a [Vec<Distance>],
}

impl SourceLandmarkView<'_> {
    /// `d(s, r, e)` for the `r_idx`-th landmark: the stored entry when `e` lies on the canonical
    /// `s–r` path, and the ordinary distance `d(s, r)` otherwise (the canonical path then avoids
    /// `e`, so the ordinary distance is attainable).
    pub fn replacement(&self, r_idx: usize, e: Edge) -> Distance {
        let r = self.landmarks.vertices()[r_idx];
        match self.source_tree.edge_position_on_path(r, e) {
            Some(pos) => self.rows[r_idx].get(pos).copied().unwrap_or(INFINITE_DISTANCE),
            None => self.source_tree.distance_or_infinite(r),
        }
    }

    /// The ordinary distance from the source to the `r_idx`-th landmark.
    pub fn base_distance(&self, r_idx: usize) -> Distance {
        self.source_tree.distance_or_infinite(self.landmarks.vertices()[r_idx])
    }

    /// The landmark index this view resolves against.
    pub fn landmarks(&self) -> &BfsIndex {
        self.landmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{connected_gnm, cycle_graph};
    use msrp_rpath::replacement_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_table_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_gnm(24, 48, &mut rng).unwrap();
        let csr = g.freeze();
        let sources = [0usize, 5];
        let landmark_vertices: Vec<usize> = vec![2, 7, 11, 19, 23];
        let landmarks = BfsIndex::build(&csr, &landmark_vertices);
        let trees: Vec<_> = sources.iter().map(|&s| ShortestPathTree::build(&csr, s)).collect();
        let table = SourceLandmarkTable::exact(&csr, &trees, &landmarks);
        assert_eq!(table.source_count(), 2);
        assert!(table.entry_count() > 0);
        for (s_idx, &s) in sources.iter().enumerate() {
            let view = table.view(s_idx, &trees[s_idx], &landmarks);
            for (r_idx, &r) in landmark_vertices.iter().enumerate() {
                let edges = trees[s_idx].path_edges(r);
                for (pos, e) in edges.iter().enumerate() {
                    let expected = replacement_distance(&g, s, r, *e);
                    assert_eq!(table.row(s_idx, r_idx)[pos], expected);
                    assert_eq!(view.replacement(r_idx, *e), expected);
                }
            }
        }
    }

    #[test]
    fn view_falls_back_to_base_distance_off_path() {
        let g = cycle_graph(8);
        let csr = g.freeze();
        let landmarks = BfsIndex::build(&csr, &[3]);
        let tree = ShortestPathTree::build(&csr, 0);
        let table = SourceLandmarkTable::exact(&csr, std::slice::from_ref(&tree), &landmarks);
        let view = table.view(0, &tree, &landmarks);
        // Edge (5, 6) is not on the canonical path 0-1-2-3.
        assert_eq!(view.replacement(0, Edge::new(5, 6)), 3);
        assert_eq!(view.base_distance(0), 3);
        // Edge on the path: the replacement goes the other way round (length 5).
        assert_eq!(view.replacement(0, Edge::new(1, 2)), 5);
        assert_eq!(view.landmarks().len(), 1);
    }
}
