//! Standard synthetic workloads used by the experiment harness.

use rand::rngs::StdRng;
use rand::SeedableRng;

use msrp_graph::generators::{
    barabasi_albert, connected_gnm, grid_graph, random_weights, torus_graph,
};
use msrp_graph::{Graph, Vertex, Weight, WeightedGraph};

/// The graph families used across the experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Connected Erdős–Rényi graph with `m ≈ 4n` (the default workload).
    SparseRandom,
    /// Connected Erdős–Rényi graph with `m ≈ n·sqrt(n)/4` (denser regime).
    DenseRandom,
    /// Square grid (high diameter: exercises the far-edge machinery).
    Grid,
    /// Square torus.
    Torus,
    /// Preferential attachment with `k = 3` (skewed degrees).
    PreferentialAttachment,
}

impl WorkloadKind {
    /// All kinds, in display order.
    pub fn all() -> [WorkloadKind; 5] {
        [
            WorkloadKind::SparseRandom,
            WorkloadKind::DenseRandom,
            WorkloadKind::Grid,
            WorkloadKind::Torus,
            WorkloadKind::PreferentialAttachment,
        ]
    }

    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::SparseRandom => "sparse-random",
            WorkloadKind::DenseRandom => "dense-random",
            WorkloadKind::Grid => "grid",
            WorkloadKind::Torus => "torus",
            WorkloadKind::PreferentialAttachment => "pref-attach",
        }
    }
}

/// A named graph instance together with a source set.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (`kind/n/σ`).
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// The sources.
    pub sources: Vec<Vertex>,
}

/// Builds the standard graph of the given kind with roughly `n` vertices.
pub fn standard_graph(kind: WorkloadKind, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        WorkloadKind::SparseRandom => {
            connected_gnm(n, 4 * n, &mut rng).expect("valid sparse parameters")
        }
        WorkloadKind::DenseRandom => {
            let m = ((n as f64).powf(1.5) / 4.0).ceil() as usize;
            connected_gnm(n, m.max(2 * n), &mut rng).expect("valid dense parameters")
        }
        WorkloadKind::Grid => {
            let side = (n as f64).sqrt().round().max(2.0) as usize;
            grid_graph(side, side)
        }
        WorkloadKind::Torus => {
            let side = (n as f64).sqrt().round().max(3.0) as usize;
            torus_graph(side, side)
        }
        WorkloadKind::PreferentialAttachment => {
            barabasi_albert(n, 3, &mut rng).expect("valid preferential-attachment parameters")
        }
    }
}

/// The standard graph of the given kind lifted to uniform random weights in
/// `1..=max_weight`; the weighting is drawn from a sub-seed of `seed`, so
/// `(kind, n, seed, max_weight)` fully determines the instance (used by experiment E9).
pub fn standard_weighted_graph(
    kind: WorkloadKind,
    n: usize,
    seed: u64,
    max_weight: Weight,
) -> WeightedGraph {
    let g = standard_graph(kind, n, seed);
    // Split-mix style sub-seed: the topology and the weighting draw from distinct streams.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    random_weights(&g, max_weight, &mut rng)
}

/// `sigma` sources spread evenly over `0..n`.
pub fn evenly_spaced_sources(n: usize, sigma: usize) -> Vec<Vertex> {
    let sigma = sigma.clamp(1, n.max(1));
    (0..sigma).map(|i| i * n / sigma).collect()
}

impl Workload {
    /// Builds a workload of the given kind, size and source count.
    pub fn new(kind: WorkloadKind, n: usize, sigma: usize, seed: u64) -> Self {
        let graph = standard_graph(kind, n, seed);
        let actual_n = graph.vertex_count();
        let sources = evenly_spaced_sources(actual_n, sigma);
        Workload {
            name: format!("{}/n={}/sigma={}", kind.label(), actual_n, sources.len()),
            graph,
            sources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_produce_connected_graphs() {
        for kind in WorkloadKind::all() {
            let g = standard_graph(kind, 64, 1);
            assert!(g.is_connected(), "{} must be connected", kind.label());
            assert!(g.vertex_count() >= 49);
        }
    }

    #[test]
    fn sources_are_distinct_and_in_range() {
        for sigma in [1usize, 2, 5, 16] {
            let s = evenly_spaced_sources(100, sigma);
            assert_eq!(s.len(), sigma);
            let mut d = s.clone();
            d.dedup();
            assert_eq!(d.len(), sigma);
            assert!(s.iter().all(|&v| v < 100));
        }
        assert_eq!(evenly_spaced_sources(5, 100).len(), 5);
    }

    #[test]
    fn workload_names_are_descriptive() {
        let w = Workload::new(WorkloadKind::Grid, 49, 3, 0);
        assert!(w.name.contains("grid"));
        assert!(w.name.contains("sigma=3"));
        assert_eq!(w.sources.len(), 3);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = Workload::new(WorkloadKind::SparseRandom, 50, 2, 9);
        let b = Workload::new(WorkloadKind::SparseRandom, 50, 2, 9);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn weighted_workloads_are_deterministic_and_weight_bounded() {
        let a = standard_weighted_graph(WorkloadKind::SparseRandom, 64, 7, 100);
        let b = standard_weighted_graph(WorkloadKind::SparseRandom, 64, 7, 100);
        assert_eq!(a, b);
        assert_eq!(a.topology(), standard_graph(WorkloadKind::SparseRandom, 64, 7));
        assert!(a.edges().all(|(_, w)| (1..=100).contains(&w)));
        let c = standard_weighted_graph(WorkloadKind::SparseRandom, 64, 8, 100);
        assert_ne!(a, c);
    }
}
