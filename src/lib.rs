//! Umbrella crate for the *Multiple Source Replacement Path* (MSRP) reproduction.
//!
//! This crate simply re-exports the workspace members so that examples and downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — graph substrate (graphs, BFS trees, Dijkstra, generators).
//! * [`rpath`] — classical replacement-path building blocks and ground-truth baselines.
//! * [`core`] — the paper's SSRP (Theorem 14) and MSRP (Theorem 1/26) algorithms.
//! * [`oracle`] — single-fault distance oracles with `O(1)` queries.
//! * [`bmm`] — Boolean matrix multiplication and the Theorem 2 reduction.
//! * [`netsim`] — link-failure simulation and Vickrey pricing applications.
//! * [`obs`] — observability plane: span journal, stage profiler, metrics exposition.
//! * [`snap`] — versioned, checksummed binary snapshots of frozen graphs and oracles.
//! * [`serve`] — the concurrent, sharded replacement-path query service.
//!
//! # Quickstart
//!
//! ```
//! use msrp::core::{solve_ssrp, MsrpParams};
//! use msrp::graph::generators::cycle_graph;
//!
//! let g = cycle_graph(8).freeze();
//! let out = solve_ssrp(&g, 0, &MsrpParams::default());
//! // Avoiding the first edge of the canonical path from 0 to 2 forces the long way round.
//! assert_eq!(out.distances.get(2, 0), Some(6));
//! ```

pub use msrp_bmm as bmm;
pub use msrp_core as core;
pub use msrp_graph as graph;
pub use msrp_netsim as netsim;
pub use msrp_obs as obs;
pub use msrp_oracle as oracle;
pub use msrp_rpath as rpath;
pub use msrp_serve as serve;
pub use msrp_snap as snap;

/// Compiles and runs the README's Rust examples as doctests, so they cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
