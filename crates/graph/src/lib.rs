//! Graph substrate for the Multiple Source Replacement Path (MSRP) reproduction.
//!
//! The paper (Gupta, Jain, Modi, *Multiple Source Replacement Path Problem*, 2020) works with
//! undirected, unweighted graphs and relies on a small number of classical building blocks:
//!
//! * breadth-first search and shortest-path trees (Section 5), with `O(1)` ancestry and
//!   subtree-interval queries from Euler times,
//! * a hash table with worst-case constant lookups (Lemma 5, Pagh–Rodler cuckoo hashing),
//! * Dijkstra's algorithm on the weighted *auxiliary* graphs built in Sections 7 and 8.
//!
//! This crate provides all of those substrates plus deterministic, seedable graph generators
//! used by the test-suite and the benchmark harness.
//!
//! # Quick example
//!
//! ```
//! use msrp_graph::{Graph, ShortestPathTree};
//!
//! # fn main() -> Result<(), msrp_graph::GraphError> {
//! // A 5-cycle: 0-1-2-3-4-0.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?.freeze();
//! let tree = ShortestPathTree::build(&g, 0);
//! assert_eq!(tree.distance(2), Some(2));
//! assert_eq!(tree.path_from_source(3), Some(vec![0, 4, 3]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
mod connectivity;
mod csr;
mod cuckoo;
mod dijkstra;
mod distance;
mod edge;
mod error;
mod graph;
mod metric;
mod metrics;
mod multi_bfs;
mod tree;
mod weighted;

pub mod generators;

pub use bfs::{bfs, bfs_avoiding_edge, bfs_distances, BfsResult};
pub use connectivity::{analyze_connectivity, ConnectivityReport};
pub use csr::{bfs_csr, bfs_csr_avoiding_edge, BfsScratch, CsrGraph, NO_PARENT};
pub use cuckoo::CuckooHashMap;
pub use dijkstra::{DijkstraResult, Weight, WeightedCsr, WeightedDigraph, INFINITE_WEIGHT};
pub use distance::{dist_add, dist_add3, dist_min, is_finite, Distance, INFINITE_DISTANCE};
pub use edge::Edge;
pub use error::GraphError;
pub use graph::{Graph, Vertex};
pub use metric::{Hop, Metric, Weighted};
pub use metrics::{diameter_lower_bound, graph_metrics, GraphMetrics};
pub use multi_bfs::{bfs_trees_wave, MultiBfsScratch, WAVE_LANES};
pub use tree::{CanonicalTree, ShortestPathTree};
pub use weighted::{DijkstraScratch, WeightedCsrGraph, WeightedGraph, WeightedTree};
