//! The paper's algorithms: Single Source Replacement Paths (SSRP, Theorem 14) and Multiple
//! Source Replacement Paths (MSRP, Theorems 1 and 26) for undirected, unweighted graphs.
//!
//! Reproduction of Gupta, Jain, Modi, *Multiple Source Replacement Path Problem*
//! (PODC 2020 / arXiv:2005.09262). Given a graph `G`, a set of sources `S` (`|S| = σ`) and, for
//! every source `s` and target `t`, the canonical shortest `s–t` path, the solvers report the
//! length of the shortest `s–t` path avoiding each edge of that path, in
//! `Õ(m·sqrt(nσ) + σn²)` expected time.
//!
//! # Crate layout
//!
//! | module | paper section | content |
//! |---|---|---|
//! | [`params`] | Definitions 3, 5, constants | sampling probabilities, near/far thresholds |
//! | [`sampling`] | Definition 3, Section 8 | landmark and center hierarchies |
//! | [`preprocess`] | Section 5 | BFS trees from landmarks / centers |
//! | [`source_landmark`] | Sections 3, 8 | the `d(s, r, e)` tables |
//! | [`near_small`] | Section 7.1 | auxiliary graph for small near-edge replacement paths |
//! | [`near_large`] | Section 7.2 | Algorithm 4 |
//! | [`far`] | Section 6 | Algorithm 3 |
//! | [`multi_source`] | Section 8 | centers, intervals, MTC, bottleneck edges |
//! | [`ssrp`] / [`msrp`] | Theorems 14, 26 | the end-to-end solvers |
//! | [`verify`] | — | comparison against the brute-force ground truth |
//!
//! # Example
//!
//! ```
//! use msrp_core::{solve_msrp, MsrpParams};
//! use msrp_graph::generators::grid_graph;
//! use msrp_graph::Edge;
//!
//! let g = grid_graph(4, 4).freeze();
//! let out = solve_msrp(&g, &[0, 15], &MsrpParams::default());
//! // Losing the first edge of the canonical path from 0 to 3 costs a detour of 2.
//! let d = out.distance_avoiding(0, 3, Edge::new(0, 1)).unwrap();
//! assert_eq!(d, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod far;
pub mod msrp;
pub mod multi_source;
pub mod near_large;
pub mod near_small;
pub mod output;
pub mod params;
pub mod preprocess;
pub mod sampling;
pub mod source_landmark;
pub mod ssrp;
pub mod stats;
pub mod verify;
pub mod weighted;

pub use msrp::solve_msrp;
pub use output::{MsrpOutput, SsrpOutput};
pub use params::{MsrpParams, SourceToLandmarkStrategy};
pub use sampling::SampledLevels;
pub use source_landmark::SourceLandmarkTable;
pub use ssrp::solve_ssrp;
pub use stats::AlgorithmStats;
pub use weighted::{solve_msrp_weighted, WeightedMsrpOutput};
