//! Classical replacement-path building blocks and ground-truth baselines.
//!
//! The MSRP paper builds on "the classical result of [Malik–Mittal–Gupta 1989, Hershberger–Suri
//! 2001, Nardelli–Proietti–Widmayer 2003] that can find the replacement path from `s` to `t` in
//! `Õ(m + n)` time" (Section 3). This crate provides:
//!
//! * [`replacement_distance`] / [`single_source_brute_force`] — the exhaustive ground truth
//!   (remove the edge, rerun BFS), used to validate every other algorithm in the workspace;
//! * [`single_pair_replacement_paths`] — the classical `Õ(m + n)` single-pair routine, the
//!   building block the paper invokes for source→landmark replacement paths when `σ = 1`;
//! * [`single_source_via_single_pair`] — the "inefficient algorithm" of Section 3 that runs the
//!   classical routine for every target (`Õ(mn)`), used as the main baseline in the benches;
//! * [`SourceReplacementDistances`] — the output representation shared by all algorithms;
//! * [`compare`] — mismatch reporting between two solutions, used by tests and experiment E3.
//!
//! # Example
//!
//! ```
//! use msrp_graph::{generators::cycle_graph, ShortestPathTree};
//! use msrp_rpath::single_source_brute_force;
//!
//! let g = cycle_graph(6).freeze();
//! let tree = ShortestPathTree::build(&g, 0);
//! let truth = single_source_brute_force(&g, &tree);
//! // Avoiding the first edge on the path 0-1-2 forces the path 0-5-4-3-2 of length 4.
//! assert_eq!(truth.get(2, 0), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute_force;
mod compare;
mod distances;
mod most_vital;
mod rows;
mod single_pair;
mod ssrp_baseline;
mod weighted;

pub use brute_force::{
    replacement_distance, single_source_brute_force, single_source_brute_force_wave,
    single_source_brute_force_with_scratch,
};
pub use compare::{compare, ComparisonReport, Mismatch};
pub use distances::{
    ReplacementDistances, SourceReplacementDistances, WeightedReplacementDistances,
};
pub use most_vital::{most_vital_edge, most_vital_edges, VitalEdge};
pub use single_pair::single_pair_replacement_paths;
pub use ssrp_baseline::single_source_via_single_pair;
pub use weighted::{
    replacement_weight, single_source_brute_force_weighted,
    single_source_brute_force_weighted_with_scratch,
};
