//! Weighted-metric checks of the generic brute force and replacement-distance table: the
//! same routines the hop tests exercise, instantiated at [`msrp_graph::Weighted`].

mod tests {
    use crate::{single_source_brute_force, WeightedReplacementDistances};
    use msrp_graph::generators::cycle_graph;
    use msrp_graph::{
        Edge, Vertex, Weight, WeightedCsrGraph, WeightedGraph, WeightedTree, INFINITE_DISTANCE,
        INFINITE_WEIGHT,
    };

    /// A weighted 6-cycle with per-edge weights 1..=6 (edge {i, i+1} has weight i + 1).
    fn weighted_cycle() -> WeightedGraph {
        let mut g = WeightedGraph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, (i + 1) as Weight).unwrap();
        }
        g
    }

    /// The replacement weight `|st ⋄ e|` by one edge-avoiding Dijkstra.
    fn avoiding_weight(g: &WeightedCsrGraph, s: Vertex, t: Vertex, e: Edge) -> Weight {
        g.dijkstra_avoiding_edge(s, e).dist[t]
    }

    #[test]
    fn cycle_replacements_take_the_complementary_arc() {
        let g = weighted_cycle().freeze();
        let tree = WeightedTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        // d(0, 2) = 1 + 2 = 3 via 0-1-2; avoiding either path edge forces the arc
        // 0-5-4-3-2 of weight 6 + 5 + 4 + 3 = 18.
        assert_eq!(tree.distance(2), Some(3));
        assert_eq!(out.get(2, 0), Some(18));
        assert_eq!(out.get(2, 1), Some(18));
        assert_eq!(out.get(2, 2), None);
        // The same values fall out of a one-shot edge-avoiding Dijkstra.
        assert_eq!(avoiding_weight(&g, 0, 2, Edge::new(0, 1)), 18);
        assert_eq!(avoiding_weight(&g, 0, 2, Edge::new(3, 4)), 3);
    }

    #[test]
    fn bridges_have_no_weighted_replacement() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        g.add_edge(2, 3, 4).unwrap();
        let csr = g.freeze();
        let tree = WeightedTree::build(&csr, 0);
        let out = single_source_brute_force(&csr, &tree);
        for t in 1..4 {
            for i in 0..out.row(t).len() {
                assert_eq!(out.get(t, i), Some(INFINITE_WEIGHT));
            }
        }
        assert_eq!(out.infinite_entry_count(), out.entry_count());
        assert_eq!(out.entry_count(), 1 + 2 + 3);
    }

    #[test]
    fn distance_avoiding_matches_per_query_recomputation() {
        let g = weighted_cycle().freeze();
        let tree = WeightedTree::build(&g, 0);
        let out = single_source_brute_force(&g, &tree);
        for t in 0..6 {
            for (e, _) in g.edge_vec() {
                assert_eq!(
                    out.distance_avoiding(&tree, t, e),
                    avoiding_weight(&g, 0, t, e),
                    "t={t} e={e}"
                );
            }
        }
    }

    #[test]
    fn unit_weights_agree_with_the_unweighted_brute_force() {
        let topo = cycle_graph(8);
        let weighted = WeightedGraph::from_graph(&topo, |_| 1).freeze();
        let wtree = WeightedTree::build(&weighted, 0);
        let wout = single_source_brute_force(&weighted, &wtree);
        let topo = topo.freeze();
        let utree = msrp_graph::ShortestPathTree::build(&topo, 0);
        let uout = single_source_brute_force(&topo, &utree);
        for t in 0..8 {
            assert_eq!(wout.row(t).len(), uout.row(t).len(), "t={t}");
            for i in 0..wout.row(t).len() {
                let w = wout.get(t, i).unwrap();
                let u = uout.get(t, i).unwrap();
                if u == INFINITE_DISTANCE {
                    assert_eq!(w, INFINITE_WEIGHT);
                } else {
                    assert_eq!(w, u as Weight, "t={t} i={i}");
                }
            }
        }
    }

    /// A weighted 20-vertex random component plus 4 isolated vertices (empty rows), and
    /// its brute-force table from source 3.
    fn filled_table() -> (WeightedTree, WeightedReplacementDistances) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let core = msrp_graph::generators::weighted_connected_gnm(20, 40, 30, &mut rng).unwrap();
        let mut g = WeightedGraph::new(24);
        for (e, w) in core.freeze().edge_vec() {
            let (u, v) = e.endpoints();
            g.add_edge(u, v, w).unwrap();
        }
        let csr = g.freeze();
        let tree = WeightedTree::build(&csr, 3);
        let table = single_source_brute_force(&csr, &tree);
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
            assert_eq!(len, tree.depth(t), "t={t}");
            assert_eq!(d.get(t, len), None, "t={t}");
            assert_eq!(d.get(t, usize::MAX), None, "t={t}");
        }
    }

    #[test]
    fn flat_rows_round_trip_in_row_stream_order() {
        let (tree, d) = filled_table();
        let stream: Vec<Weight> = (0..d.vertex_count()).flat_map(|t| d.row(t).to_vec()).collect();
        let booted = WeightedReplacementDistances::from_flat_rows(&tree, stream.clone());
        let fresh = WeightedReplacementDistances::new(&tree);
        for t in 0..d.vertex_count() {
            assert_eq!(booted.row(t).len(), fresh.row(t).len(), "t={t}");
        }
        assert_eq!(booted, d);
        let entries: Vec<_> = d.iter().collect();
        assert_eq!(entries.iter().map(|&(_, _, x)| x).collect::<Vec<_>>(), stream);
        assert!(entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn table_accessors_and_relaxation() {
        let g = weighted_cycle().freeze();
        let tree = WeightedTree::build(&g, 0);
        let mut d = WeightedReplacementDistances::new(&tree);
        assert_eq!(d.source(), 0);
        assert_eq!(d.vertex_count(), 6);
        assert_eq!(d.distance_avoiding(&tree, 2, Edge::new(3, 4)), 3);
        assert_eq!(d.get(2, 0), Some(INFINITE_WEIGHT));
        d.set(2, 0, 20);
        assert!(d.relax(2, 0, 18));
        assert!(!d.relax(2, 0, 19));
        assert_eq!(d.get(2, 0), Some(18));
        assert_eq!(d.get(2, 9), None);
        assert_eq!(d.iter().count(), d.entry_count());
    }
}
