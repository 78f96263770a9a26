//! Preprocessing shared by every phase: BFS trees from a set of special vertices
//! (landmarks or centers) with an index for constant-time lookups.

use std::collections::HashMap;

use msrp_graph::{BfsScratch, CsrGraph, Distance, ShortestPathTree, Vertex};

/// BFS trees rooted at a list of special vertices (landmarks in Section 5, centers in
/// Section 8), plus a vertex → index map.
#[derive(Clone, Debug)]
pub struct BfsIndex {
    vertices: Vec<Vertex>,
    index_of: HashMap<Vertex, usize>,
    trees: Vec<ShortestPathTree>,
}

impl BfsIndex {
    /// Runs BFS from every vertex in `vertices` (`O(|vertices|·(m + n))` total) over the CSR
    /// view, sharing one set of scratch buffers across all the searches.
    pub fn build(g: &CsrGraph, vertices: &[Vertex]) -> Self {
        let mut scratch = BfsScratch::new();
        let mut index_of = HashMap::with_capacity(vertices.len());
        let mut trees = Vec::with_capacity(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            index_of.insert(v, i);
            trees.push(ShortestPathTree::build_with_scratch(g, v, &mut scratch));
        }
        BfsIndex { vertices: vertices.to_vec(), index_of, trees }
    }

    /// The special vertices, in index order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Number of special vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The index of `v` among the special vertices, if it is one.
    pub fn index(&self, v: Vertex) -> Option<usize> {
        self.index_of.get(&v).copied()
    }

    /// The BFS tree rooted at the `i`-th special vertex.
    pub fn tree(&self, i: usize) -> &ShortestPathTree {
        &self.trees[i]
    }

    /// The BFS tree rooted at `v`, if `v` is a special vertex.
    pub fn tree_of(&self, v: Vertex) -> Option<&ShortestPathTree> {
        self.index(v).map(|i| &self.trees[i])
    }

    /// Distance from the `i`-th special vertex to `t` (`INFINITE_DISTANCE` if unreachable).
    pub fn distance(&self, i: usize, t: Vertex) -> Distance {
        self.trees[i].distance_or_infinite(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::cycle_graph;

    #[test]
    fn builds_one_tree_per_vertex() {
        let g = cycle_graph(10).freeze();
        let idx = BfsIndex::build(&g, &[0, 3, 7]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.vertices(), &[0, 3, 7]);
        assert_eq!(idx.index(3), Some(1));
        assert_eq!(idx.index(4), None);
        assert_eq!(idx.tree(1).source(), 3);
        assert_eq!(idx.tree_of(7).unwrap().source(), 7);
        assert!(idx.tree_of(5).is_none());
    }

    #[test]
    fn distances_match_bfs() {
        let g = cycle_graph(12).freeze();
        let idx = BfsIndex::build(&g, &[2, 9]);
        assert_eq!(idx.distance(0, 8), 6);
        assert_eq!(idx.distance(1, 0), 3);
    }

    #[test]
    fn empty_index_is_fine() {
        let g = cycle_graph(5).freeze();
        let idx = BfsIndex::build(&g, &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }
}
