//! Output types of the SSRP and MSRP solvers.

use msrp_graph::{Distance, Edge, ShortestPathTree, Vertex};
use msrp_rpath::SourceReplacementDistances;

use crate::stats::AlgorithmStats;

/// Result of the single-source solver ([`crate::solve_ssrp`], Theorem 14).
#[derive(Clone, Debug)]
pub struct SsrpOutput {
    /// The source vertex.
    pub source: Vertex,
    /// The canonical BFS tree of the source (defines which `(t, e)` pairs exist).
    pub tree: ShortestPathTree,
    /// Replacement distances for every target and every edge on its canonical path.
    pub distances: SourceReplacementDistances,
    /// Sizes and timings collected while solving.
    pub stats: AlgorithmStats,
}

impl SsrpOutput {
    /// Convenience query: `|st ⋄ e|` for an arbitrary edge (ordinary distance when `e` is not on
    /// the canonical path).
    pub fn distance_avoiding(&self, t: Vertex, e: Edge) -> Distance {
        self.distances.distance_avoiding(&self.tree, t, e)
    }
}

/// Result of the multi-source solver ([`crate::solve_msrp`], Theorem 1 / 26).
#[derive(Clone, Debug)]
pub struct MsrpOutput {
    /// The sources, in the order they were given.
    pub sources: Vec<Vertex>,
    /// Canonical BFS tree per source.
    pub trees: Vec<ShortestPathTree>,
    /// Replacement distances per source.
    pub per_source: Vec<SourceReplacementDistances>,
    /// Sizes and timings collected while solving.
    pub stats: AlgorithmStats,
}

impl MsrpOutput {
    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Index of a source vertex, if it is one of the sources.
    pub fn source_index(&self, s: Vertex) -> Option<usize> {
        self.sources.iter().position(|&x| x == s)
    }

    /// Convenience query for source `s`: `|st ⋄ e|` (ordinary distance when `e` is off-path).
    ///
    /// Returns `None` when `s` is not one of the sources.
    pub fn distance_avoiding(&self, s: Vertex, t: Vertex, e: Edge) -> Option<Distance> {
        let i = self.source_index(s)?;
        Some(self.per_source[i].distance_avoiding(&self.trees[i], t, e))
    }

    /// Total number of `(s, t, e)` entries produced.
    pub fn entry_count(&self) -> usize {
        self.per_source.iter().map(|d| d.entry_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_msrp, solve_ssrp, MsrpParams};
    use msrp_graph::generators::cycle_graph;

    #[test]
    fn ssrp_output_queries() {
        let g = cycle_graph(8).freeze();
        let out = solve_ssrp(&g, 0, &MsrpParams::default());
        assert_eq!(out.source, 0);
        assert_eq!(out.distance_avoiding(3, Edge::new(0, 1)), 5);
        assert_eq!(out.distance_avoiding(3, Edge::new(4, 5)), 3);
    }

    #[test]
    fn msrp_output_queries() {
        let g = cycle_graph(8).freeze();
        let out = solve_msrp(&g, &[0, 4], &MsrpParams::default());
        assert_eq!(out.source_count(), 2);
        assert_eq!(out.source_index(4), Some(1));
        assert_eq!(out.source_index(3), None);
        assert_eq!(out.distance_avoiding(4, 6, Edge::new(4, 5)), Some(6));
        assert_eq!(out.distance_avoiding(3, 6, Edge::new(4, 5)), None);
        assert!(out.entry_count() > 0);
    }
}
