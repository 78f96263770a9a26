//! Heavy-path cover decomposition of shortest-path trees.
//!
//! The Bernstein–Karger single-fault preprocessing (`msrp-oracle::bk`) does not run one
//! avoiding search per tree edge; it walks each source's BFS tree *path by path*. This module
//! provides the decomposition: the reachable vertices of a [`ShortestPathTree`] are partitioned
//! into **vertex-disjoint descending chains** (a *path cover*), built by always following the
//! child with the largest subtree (the classical heavy-path rule of Sleator–Tarjan). Every tree
//! edge `(parent(c), c)` belongs to exactly one cover path — the path owning its deeper
//! endpoint `c` — so iterating the cover paths top-to-bottom enumerates each tree edge exactly
//! once, with the nested-subtree context the per-edge replacement computation needs.
//!
//! Two structural facts make the cover useful:
//!
//! * **Contiguous subtrees.** The decomposition fixes a heavy-first DFS preorder, under which
//!   the descendants of any vertex form a contiguous slice ([`descendants`]
//!   (TreePathCover::descendants)). Enumerating the subtree below a failed edge is therefore
//!   `O(|subtree|)`, never an `O(n)` scan — this is what makes the BK construction
//!   output-sensitive.
//! * **Logarithmic crossing bound.** Any root→`t` tree path intersects at most
//!   `⌊log₂ n⌋ + 1` distinct cover paths (each light edge at least halves the subtree size),
//!   the bound Bernstein–Karger charge their per-path tables against. The property suite
//!   (`tests/path_cover_properties.rs`) pins this on seeded random trees.

use crate::edge::Edge;
use crate::graph::Vertex;
use crate::tree::ShortestPathTree;

/// Sentinel for "not covered" (`path_of`/`pre` of unreachable vertices).
const NONE: u32 = u32::MAX;

/// A heavy-path cover of a rooted [`ShortestPathTree`]: vertex-disjoint descending chains
/// covering every reachable vertex, plus the heavy-first preorder that makes every subtree a
/// contiguous slice.
///
/// ```
/// use msrp_graph::{Graph, ShortestPathTree, TreePathCover};
///
/// # fn main() -> Result<(), msrp_graph::GraphError> {
/// // A path 0-1-2-3 with a pendant 4 off vertex 1.
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)])?;
/// let tree = ShortestPathTree::build(&g, 0);
/// let cover = TreePathCover::build(&tree);
/// // Two chains: the heavy spine 0-1-2-3 and the pendant 4.
/// assert_eq!(cover.path_count(), 2);
/// assert_eq!(cover.path(0), &[0, 1, 2, 3]);
/// assert_eq!(cover.path(1), &[4]);
/// // Subtrees are contiguous preorder slices.
/// assert_eq!(cover.descendants(1), &[1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TreePathCover {
    /// Heavy-first DFS preorder of the reachable vertices (root first). Chains are contiguous
    /// in this order, and so is every subtree.
    preorder: Vec<Vertex>,
    /// Position of each vertex in `preorder` (`NONE` for unreachable vertices).
    pre: Vec<u32>,
    /// Subtree size (self included) of each reachable vertex; 0 for unreachable vertices.
    size: Vec<u32>,
    /// Cover-path id of each reachable vertex (`NONE` for unreachable vertices).
    path_of: Vec<u32>,
    /// 0-based position of each reachable vertex within its cover path (0 = head).
    index_in_path: Vec<u32>,
    /// `(preorder index of the head, chain length)` per cover path, in discovery order
    /// (path 0 contains the root). Chains are contiguous preorder slices.
    paths: Vec<(u32, u32)>,
}

impl TreePathCover {
    /// Decomposes `tree` into its heavy-path cover.
    ///
    /// Deterministic: subtree-size ties between children are broken toward the child first in
    /// BFS-discovery order (ascending vertex id, since BFS scans sorted adjacency rows).
    pub fn build(tree: &ShortestPathTree) -> Self {
        let n = tree.vertex_count();
        let children = tree.children();
        // Subtree sizes: reverse BFS order finishes every child before its parent, which
        // then accumulates the child's completed size.
        let mut size = vec![0u32; n];
        for &v in tree.bfs_order().iter().rev() {
            size[v] += 1;
            if let Some(p) = tree.parent(v) {
                size[p] += size[v];
            }
        }
        // Heavy-first DFS: descend the heavy child first so every chain (and every subtree)
        // is contiguous in preorder.
        let mut preorder = Vec::with_capacity(tree.bfs_order().len());
        let mut pre = vec![NONE; n];
        let mut path_of = vec![NONE; n];
        let mut index_in_path = vec![0u32; n];
        let mut paths: Vec<(u32, u32)> = Vec::new();
        if n > 0 {
            let root = tree.source();
            // Stack of (vertex, continues-parent's-chain); light children are pushed in
            // reverse so the lowest-id light child is visited first.
            let mut stack: Vec<(Vertex, bool)> = vec![(root, false)];
            while let Some((v, continues)) = stack.pop() {
                let path_id = if continues {
                    let id = path_of[tree.parent(v).expect("chain vertex has a parent")];
                    paths[id as usize].1 += 1;
                    id
                } else {
                    paths.push((preorder.len() as u32, 1));
                    (paths.len() - 1) as u32
                };
                path_of[v] = path_id;
                index_in_path[v] = paths[path_id as usize].1 - 1;
                pre[v] = preorder.len() as u32;
                preorder.push(v);
                // Heavy child: the first maximum (lowest id, deterministic). Not
                // `max_by_key`, which keeps the *last* maximum.
                let kids = children.of(v);
                let heavy = kids.iter().copied().reduce(|b, c| {
                    if size[b as usize] >= size[c as usize] {
                        b
                    } else {
                        c
                    }
                });
                for &c in kids.iter().rev() {
                    if Some(c) != heavy {
                        stack.push((c as Vertex, false));
                    }
                }
                if let Some(h) = heavy {
                    stack.push((h as Vertex, true));
                }
            }
        }
        TreePathCover { preorder, pre, size, path_of, index_in_path, paths }
    }

    /// Number of cover paths (equals the number of leaves of the tree).
    #[inline]
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// The vertices of cover path `i`, top (shallowest) to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `i >= path_count()`.
    #[inline]
    pub fn path(&self, i: usize) -> &[Vertex] {
        let (start, len) = self.paths[i];
        &self.preorder[start as usize..(start + len) as usize]
    }

    /// Cover path owning `v` (`None` for unreachable vertices).
    #[inline]
    pub fn path_of(&self, v: Vertex) -> Option<usize> {
        (self.path_of[v] != NONE).then_some(self.path_of[v] as usize)
    }

    /// 0-based position of `v` within its cover path (meaningful only when
    /// [`path_of`](Self::path_of) is `Some`).
    #[inline]
    pub fn index_in_path(&self, v: Vertex) -> usize {
        self.index_in_path[v] as usize
    }

    /// The heavy-first DFS preorder (reachable vertices, root first).
    #[inline]
    pub fn preorder(&self) -> &[Vertex] {
        &self.preorder
    }

    /// Number of descendants of `v`, itself included (0 for unreachable vertices).
    #[inline]
    pub fn subtree_size(&self, v: Vertex) -> usize {
        self.size[v] as usize
    }

    /// The descendants of `v` (itself included) as a contiguous preorder slice; empty for
    /// unreachable vertices.
    #[inline]
    pub fn descendants(&self, v: Vertex) -> &[Vertex] {
        if self.pre[v] == NONE {
            return &[];
        }
        let start = self.pre[v] as usize;
        &self.preorder[start..start + self.size[v] as usize]
    }

    /// `true` when `v` lies in the subtree of `a` (`a` included) — an `O(1)` interval test on
    /// the heavy-first preorder, equivalent to
    /// [`ShortestPathTree::is_ancestor`]`(a, v)` for reachable vertices.
    #[inline]
    pub fn in_subtree(&self, a: Vertex, v: Vertex) -> bool {
        let (pa, pv) = (self.pre[a], self.pre[v]);
        pa != NONE && pv != NONE && pa <= pv && pv < pa + self.size[a]
    }

    /// `true` when either endpoint of `e` lies in the subtree of `a` — two `O(1)` interval
    /// tests.
    ///
    /// This is the membership query incremental rebuilds hang invalidation on: the
    /// replacement table of the cut below `a` is a function of the seeds and the subtree-
    /// internal search, i.e. only of edges with at least one endpoint inside the subtree of
    /// `a`. An edge for which this returns `false` cannot change that cut's rows.
    ///
    /// # Panics
    ///
    /// Panics if `a` or an endpoint of `e` is at least the tree's vertex count (same
    /// contract as [`in_subtree`](Self::in_subtree)).
    #[inline]
    pub fn edge_touches_subtree(&self, a: Vertex, e: Edge) -> bool {
        self.in_subtree(a, e.lo()) || self.in_subtree(a, e.hi())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn cover_of(g: &Graph, s: Vertex) -> (ShortestPathTree, TreePathCover) {
        let tree = ShortestPathTree::build(g, s);
        let cover = TreePathCover::build(&tree);
        (tree, cover)
    }

    #[test]
    fn single_vertex_tree_is_one_path() {
        let (_, cover) = cover_of(&Graph::new(1), 0);
        assert_eq!(cover.path_count(), 1);
        assert_eq!(cover.path(0), &[0]);
        assert_eq!(cover.path_of(0), Some(0));
        assert_eq!(cover.descendants(0), &[0]);
        assert_eq!(cover.subtree_size(0), 1);
    }

    #[test]
    fn spine_follows_the_heavy_child() {
        // Root 0 with a heavy chain 0-1-2-3 and a light pendant 4 off the root.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]).unwrap();
        let (_, cover) = cover_of(&g, 0);
        assert_eq!(cover.path_count(), 2);
        assert_eq!(cover.path(0), &[0, 1, 2, 3]);
        assert_eq!(cover.path(1), &[4]);
        assert_eq!(cover.index_in_path(2), 2);
        assert_eq!(cover.index_in_path(4), 0);
    }

    #[test]
    fn star_decomposes_into_center_spine_plus_singletons() {
        let g = crate::generators::star_graph(6);
        let (tree, cover) = cover_of(&g, 0);
        // All leaves have subtree size 1; the tie-break picks the lowest id as heavy.
        assert_eq!(cover.path_count(), 5);
        assert_eq!(cover.path(0), &[0, 1]);
        for leaf in 2..6 {
            assert_eq!(cover.path(cover.path_of(leaf).unwrap()), &[leaf]);
        }
        assert_eq!(cover.descendants(0).len(), tree.vertex_count());
    }

    #[test]
    fn subtree_slices_match_ancestry() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (2, 5), (5, 6)])
            .unwrap();
        let (tree, cover) = cover_of(&g, 0);
        for a in 0..7 {
            let slice: Vec<Vertex> = cover.descendants(a).to_vec();
            let expected: Vec<Vertex> =
                (0..7).filter(|&v| tree.is_reachable(v) && tree.is_ancestor(a, v)).collect();
            let mut sorted = slice.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected, "a={a}");
            for v in 0..7 {
                assert_eq!(
                    cover.in_subtree(a, v),
                    tree.is_reachable(v) && tree.is_reachable(a) && tree.is_ancestor(a, v),
                    "a={a} v={v}"
                );
            }
        }
    }

    #[test]
    fn unreachable_vertices_are_uncovered() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (_, cover) = cover_of(&g, 0);
        assert_eq!(cover.preorder().len(), 3);
        for v in [3, 4] {
            assert_eq!(cover.path_of(v), None);
            assert!(cover.descendants(v).is_empty());
            assert_eq!(cover.subtree_size(v), 0);
            assert!(!cover.in_subtree(0, v));
            assert!(!cover.in_subtree(v, v));
        }
    }

    #[test]
    fn edge_membership_matches_endpoint_ancestry() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (2, 5), (5, 6)])
            .unwrap();
        let (tree, cover) = cover_of(&g, 0);
        for a in 0..7 {
            for e in g.edges() {
                let expected = [e.lo(), e.hi()].iter().any(|&v| {
                    tree.is_reachable(v) && tree.is_reachable(a) && tree.is_ancestor(a, v)
                });
                assert_eq!(cover.edge_touches_subtree(a, e), expected, "a={a} e={e:?}");
            }
        }
        // An edge fully outside a deep subtree never touches it.
        assert!(!cover.edge_touches_subtree(5, crate::Edge::new(0, 1)));
    }

    #[test]
    fn chains_are_parent_child_runs() {
        let g = crate::generators::grid_graph(4, 4);
        let (tree, cover) = cover_of(&g, 0);
        for i in 0..cover.path_count() {
            let chain = cover.path(i);
            for w in chain.windows(2) {
                assert_eq!(tree.parent(w[1]), Some(w[0]), "chain {i} must descend parent→child");
            }
        }
    }
}
