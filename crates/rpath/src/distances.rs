//! The output representation shared by every replacement-path algorithm in the workspace.

use msrp_graph::{CanonicalTree, Edge, Hop, Metric, Vertex, Weighted};

use crate::rows::FlatRows;

/// Replacement distances from a single source to every target under the metric `M`, indexed
/// by the position of the avoided edge on the canonical shortest path.
///
/// For a target `t` at depth `k` in the source's canonical tree, `row(t)` has length `k`; its
/// `i`-th entry is `|st ⋄ e_i|`, the length of the shortest `s–t` path avoiding the `i`-th edge
/// of the canonical path (`M::INFINITY` when removing that edge disconnects `t` from `s`).
/// Unreachable targets (and the source itself) have empty rows.
///
/// This matches the problem statement in the paper: replacement paths are only asked for edges
/// *on* the `st` path, and the total output size is `Θ(Σ_t depth(t))`, which is the source of
/// the `σ n²` term in the paper's running time. All rows are stored back to back in one
/// buffer, cut by the prefix sum of the row lengths, so reading an entry touches no per-row
/// allocation. Fault-free distances are the tree's: `distance_avoiding` takes the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplacementDistances<M: Metric> {
    source: Vertex,
    rows: FlatRows<M::Dist>,
}

/// Hop-metric replacement distances over a BFS tree (row length = hop distance).
pub type SourceReplacementDistances = ReplacementDistances<Hop>;

/// Weighted replacement distances over a Dijkstra tree (row length = hop depth).
pub type WeightedReplacementDistances = ReplacementDistances<Weighted>;

impl<M: Metric> ReplacementDistances<M> {
    /// Creates a table with every entry initialised to `M::INFINITY`, sized according to the
    /// canonical tree `tree` (which must be rooted at the source).
    pub fn new(tree: &CanonicalTree<M>) -> Self {
        ReplacementDistances {
            source: tree.source(),
            rows: FlatRows::filled(tree.vertex_count(), |t| tree.depth(t), M::INFINITY),
        }
    }

    /// Creates a table with every entry of row `t` initialised to the fault-free distance
    /// `d(t)`, sized according to the canonical tree `tree` (which must be rooted at the
    /// source): the starting point of a construction that writes only the entries a
    /// failure changes.
    pub fn fault_free(tree: &CanonicalTree<M>) -> Self {
        ReplacementDistances {
            source: tree.source(),
            rows: FlatRows::filled_per_row(
                tree.vertex_count(),
                |t| tree.depth(t),
                |t| tree.distance_or_infinite(t),
            ),
        }
    }

    /// Builds the table directly from a flat row stream: row `t` takes the next
    /// `tree.depth(t)` entries (empty for unreachable targets), in vertex order.
    /// The stream is the table's own buffer layout, so the table adopts `flat` as it is,
    /// instead of [`new`](Self::new) followed by per-entry [`set`](Self::set).
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not hold exactly the entries the tree's row shapes
    /// require.
    pub fn from_flat_rows(tree: &CanonicalTree<M>, flat: Vec<M::Dist>) -> Self {
        ReplacementDistances {
            source: tree.source(),
            rows: FlatRows::from_flat(tree.vertex_count(), |t| tree.depth(t), flat),
        }
    }

    /// [`from_flat_rows`](Self::from_flat_rows) with the row offsets supplied: `offsets`
    /// (`n + 1` words) must be the prefix sum of `tree.depth(t)`, which the caller computed
    /// while it filled `flat`. Only the ends are checked, so the table adopts both buffers
    /// without another pass over the tree: the snapshot decoder writes the offsets as it
    /// expands each row.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` holds `tree.vertex_count() + 1` words from 0 to `flat.len()`.
    pub fn from_flat_parts(tree: &CanonicalTree<M>, offsets: Vec<u32>, flat: Vec<M::Dist>) -> Self {
        ReplacementDistances {
            source: tree.source(),
            rows: FlatRows::from_parts(tree.vertex_count(), offsets, flat),
        }
    }

    /// The source vertex.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Number of vertices in the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.rows.row_count()
    }

    /// The replacement distance avoiding the `i`-th edge of the canonical path to `t`.
    ///
    /// Returns `None` when `t` or `i` is out of range (including unreachable targets); returns
    /// `Some(M::INFINITY)` when the entry exists but no replacement path does.
    pub fn get(&self, t: Vertex, i: usize) -> Option<M::Dist> {
        self.rows.get(t, i)
    }

    /// The row of replacement distances for target `t` (may be empty).
    pub fn row(&self, t: Vertex) -> &[M::Dist] {
        self.rows.row(t)
    }

    /// Sets the entry for `(t, i)` unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for `t`.
    pub fn set(&mut self, t: Vertex, i: usize, d: M::Dist) {
        self.rows.row_mut(t)[i] = d;
    }

    /// Lowers the entry for `(t, i)` to `d` if `d` is smaller; returns whether it changed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for `t`.
    pub fn relax(&mut self, t: Vertex, i: usize, d: M::Dist) -> bool {
        let entry = &mut self.rows.row_mut(t)[i];
        if d < *entry {
            *entry = d;
            true
        } else {
            false
        }
    }

    /// Replacement distance for an arbitrary edge: if `e` lies on the canonical path to `t` the
    /// stored entry is returned, otherwise the failure does not affect the canonical path and
    /// the tree's distance is returned. This is the query the fault-tolerant oracles expose;
    /// `tree` must be the one the table was built over.
    pub fn distance_avoiding(&self, tree: &CanonicalTree<M>, t: Vertex, e: Edge) -> M::Dist {
        match tree.edge_position_on_path(t, e) {
            Some(i) => self.rows.row(t)[i],
            None => tree.distance_or_infinite(t),
        }
    }

    /// Every entry, row after row (row 0, row 1, …): the snapshot's row stream for this
    /// source.
    pub fn values(&self) -> &[M::Dist] {
        self.rows.values()
    }

    /// Total number of `(target, edge)` entries stored.
    pub fn entry_count(&self) -> usize {
        self.rows.values().len()
    }

    /// Number of entries that are still `M::INFINITY`.
    pub fn infinite_entry_count(&self) -> usize {
        self.rows.values().iter().filter(|&&d| d == M::INFINITY).count()
    }

    /// Iterates over `(target, edge_index, distance)` for every stored entry, in vertex
    /// order and then edge order (the snapshot's row-stream order).
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, usize, M::Dist)> + '_ {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{cycle_graph, path_graph};
    use msrp_graph::{Distance, Graph, ShortestPathTree, INFINITE_DISTANCE};

    fn tree_of(g: &Graph, s: Vertex) -> ShortestPathTree {
        ShortestPathTree::build(&g.freeze(), s)
    }

    #[test]
    fn sizes_follow_tree_depths() {
        let g = cycle_graph(7);
        let tree = tree_of(&g, 0);
        let d = SourceReplacementDistances::new(&tree);
        assert_eq!(d.source(), 0);
        assert_eq!(d.vertex_count(), 7);
        assert_eq!(d.row(0).len(), 0);
        assert_eq!(d.row(3).len(), 3);
        assert_eq!(d.row(5).len(), 2);
        assert_eq!(d.entry_count(), 1 + 2 + 3 + 3 + 2 + 1);
        assert_eq!(d.infinite_entry_count(), d.entry_count());
        let f = SourceReplacementDistances::fault_free(&tree);
        assert_eq!(f.entry_count(), d.entry_count());
        assert!(f.iter().all(|(t, _, x)| tree.distance(t) == Some(x)));
    }

    #[test]
    fn unreachable_targets_have_empty_rows() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let tree = tree_of(&g, 0);
        let d = SourceReplacementDistances::new(&tree);
        assert!(d.row(2).is_empty());
        assert_eq!(d.get(2, 0), None);
        assert_eq!(d.distance_avoiding(&tree, 2, Edge::new(0, 1)), INFINITE_DISTANCE);
        assert_eq!(d.distance_avoiding(&tree, 1, Edge::new(2, 3)), 1);
    }

    #[test]
    fn set_relax_and_get() {
        let g = cycle_graph(5);
        let tree = tree_of(&g, 0);
        let mut d = SourceReplacementDistances::new(&tree);
        assert_eq!(d.get(2, 0), Some(INFINITE_DISTANCE));
        d.set(2, 0, 9);
        assert_eq!(d.get(2, 0), Some(9));
        assert!(d.relax(2, 0, 4));
        assert!(!d.relax(2, 0, 7));
        assert_eq!(d.get(2, 0), Some(4));
        assert_eq!(d.get(2, 5), None);
    }

    #[test]
    fn distance_avoiding_off_path_edges_returns_base() {
        let g = cycle_graph(6);
        let tree = tree_of(&g, 0);
        let mut d = SourceReplacementDistances::new(&tree);
        d.set(2, 0, 4);
        d.set(2, 1, 4);
        // Edge (3, 4) is not on the canonical path 0-1-2.
        assert_eq!(d.distance_avoiding(&tree, 2, Edge::new(3, 4)), 2);
        assert_eq!(d.distance_avoiding(&tree, 2, Edge::new(0, 1)), 4);
    }

    /// A 20-vertex random component plus 4 isolated vertices (empty rows), and its
    /// brute-force table from source 3.
    fn filled_table() -> (ShortestPathTree, SourceReplacementDistances) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let core = msrp_graph::generators::connected_gnm(20, 40, &mut rng).unwrap();
        let mut g = Graph::new(24);
        for e in core.edges() {
            let (u, v) = e.endpoints();
            g.add_edge(u, v).unwrap();
        }
        let tree = tree_of(&g, 3);
        let table = crate::single_source_brute_force(&g.freeze(), &tree);
        (tree, table)
    }

    #[test]
    fn get_is_none_past_the_rows_and_past_each_row() {
        let (tree, d) = filled_table();
        let n = d.vertex_count();
        for t in [n, n + 1, u32::MAX as usize, usize::MAX] {
            assert_eq!(d.get(t, 0), None, "t={t}");
        }
        for t in 0..n {
            let len = d.row(t).len();
            assert_eq!(len, tree.distance(t).map_or(0, |x| x as usize), "t={t}");
            assert_eq!(d.get(t, len), None, "t={t}");
            assert_eq!(d.get(t, usize::MAX), None, "t={t}");
            if len > 0 {
                assert_eq!(d.get(t, len - 1), Some(d.row(t)[len - 1]));
            }
        }
    }

    #[test]
    fn flat_rows_round_trip_in_row_stream_order() {
        let (tree, d) = filled_table();
        // The snapshot encoder's row stream: row 0, row 1, … concatenated.
        let stream: Vec<Distance> = (0..d.vertex_count()).flat_map(|t| d.row(t).to_vec()).collect();
        let booted = SourceReplacementDistances::from_flat_rows(&tree, stream.clone());
        let fresh = SourceReplacementDistances::new(&tree);
        for t in 0..d.vertex_count() {
            assert_eq!(booted.row(t).len(), fresh.row(t).len(), "t={t}");
        }
        assert_eq!(booted, d);
        assert_eq!(booted.entry_count(), stream.len());
        assert_eq!(d.values(), stream);
        // `iter` walks the same stream: targets ascending, edge positions ascending.
        let entries: Vec<_> = d.iter().collect();
        assert_eq!(entries.iter().map(|&(_, _, x)| x).collect::<Vec<_>>(), stream);
        assert!(entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn flat_parts_adopt_the_row_offsets() {
        let (tree, d) = filled_table();
        let mut offsets = vec![0u32];
        for t in 0..d.vertex_count() {
            offsets.push(offsets[t] + d.row(t).len() as u32);
        }
        let booted =
            SourceReplacementDistances::from_flat_parts(&tree, offsets, d.values().to_vec());
        assert_eq!(booted, d);
    }

    #[test]
    #[should_panic(expected = "row shapes")]
    fn flat_parts_whose_offsets_miss_the_stream_are_rejected() {
        let (tree, d) = filled_table();
        let offsets = vec![0; d.vertex_count() + 1];
        let _ = SourceReplacementDistances::from_flat_parts(&tree, offsets, d.values().to_vec());
    }

    #[test]
    #[should_panic(expected = "row shapes")]
    fn short_row_streams_are_rejected() {
        let (tree, d) = filled_table();
        let _ = SourceReplacementDistances::from_flat_rows(&tree, vec![0; d.entry_count() - 1]);
    }

    #[test]
    fn iterator_covers_every_entry() {
        let g = path_graph(4);
        let tree = tree_of(&g, 0);
        let d = SourceReplacementDistances::new(&tree);
        let entries: Vec<_> = d.iter().collect();
        assert_eq!(entries.len(), d.entry_count());
        assert!(entries.contains(&(3, 2, INFINITE_DISTANCE)));
    }
}
