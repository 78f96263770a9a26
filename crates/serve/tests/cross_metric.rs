//! Cross-metric serving: with every edge weight 1, the weighted sharded oracle must answer
//! every `(s, t, e)` exactly as the Bernstein–Karger-built hop-metric one does, before and
//! after a snapshot round trip of each.
//!
//! The answer is `d_{G∖e}(s, t)` whichever canonical tree a metric picks, so this pins the
//! two instantiations of the one generic oracle, codec and routing path against each other.

use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_graph::generators::{barabasi_albert, connected_gnm, gnm, grid_graph};
use msrp_graph::{Edge, Graph, Weight, WeightedGraph, INFINITE_DISTANCE, INFINITE_WEIGHT};
use msrp_serve::{Query, ShardedOracle, WeightedShardedOracle};

fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(101);
    let g_gnm = connected_gnm(48, 120, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(202);
    let g_ba = barabasi_albert(44, 3, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(303);
    let g_disc = gnm(40, 28, &mut rng).unwrap();
    vec![
        ("gnm", g_gnm),
        ("barabasi-albert", g_ba),
        ("grid", grid_graph(6, 7)),
        ("gnm-disconnected", g_disc),
    ]
}

/// Every graph edge plus the first non-edge in vertex order.
fn avoided_edges(g: &Graph) -> Vec<Edge> {
    let n = g.vertex_count();
    let non_edge = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .map(|(u, v)| Edge::new(u, v))
        .expect("a non-edge");
    g.edges().chain([non_edge]).collect()
}

/// Checks every `(s, t, e)` of the pair; returns the number of queries checked.
fn assert_agree(
    label: &str,
    hop: &ShardedOracle,
    weighted: &WeightedShardedOracle,
    edges: &[Edge],
) -> usize {
    assert_eq!(hop.sources(), weighted.sources(), "{label}");
    let mut checked = 0;
    for s in hop.sources() {
        for t in 0..hop.vertex_count() {
            for &e in edges {
                let q = Query::new(s, t, e);
                let want = hop.query(q).map(|d| {
                    if d == INFINITE_DISTANCE {
                        INFINITE_WEIGHT
                    } else {
                        Weight::from(d)
                    }
                });
                assert_eq!(weighted.query(q), want, "{label}: s={s} t={t} e={e}");
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn unit_weight_oracle_answers_like_the_hop_oracle_before_and_after_a_snapshot() {
    let mut checked = 0;
    for (name, g) in families() {
        let n = g.vertex_count();
        let csr = g.freeze();
        let wcsr = WeightedGraph::from_graph(&g, |_| 1).freeze();
        let edges = avoided_edges(&g);
        for sigma in [1, 7, n / 4] {
            let sources: Vec<usize> = (0..sigma).map(|i| i * n / sigma).collect();
            for shards in [1, 3] {
                let label = format!("{name} σ={sigma} shards={shards}");
                let hop = ShardedOracle::build_bk_csr(&csr, &sources, shards);
                let weighted = WeightedShardedOracle::build(&wcsr, &sources, shards);
                checked += assert_agree(&label, &hop, &weighted, &edges);

                let (hop_graph, hop_booted) =
                    ShardedOracle::from_snapshot(&hop.to_snapshot(&csr)).expect("hop boot");
                let (weighted_graph, weighted_booted) =
                    WeightedShardedOracle::from_snapshot(&weighted.to_snapshot(&wcsr))
                        .expect("weighted boot");
                assert_eq!((hop_graph, weighted_graph), (csr.clone(), wcsr.clone()), "{label}");
                checked += assert_agree(&label, &hop_booted, &weighted_booted, &edges);
            }
        }
    }
    assert_eq!(checked, 1_190_576, "every (s, t, e) of every case is checked");
}
