//! Applications of replacement paths: link-failure recovery simulation and Vickrey pricing.
//!
//! The replacement-path literature the paper builds on is motivated by two applications:
//! restoration of MPLS paths after a link failure (Afek et al., cited as \[1\] in the paper) and
//! Vickrey pricing of edges owned by selfish agents (Hershberger–Suri; Nisan–Ronen). This crate
//! provides both on top of the `msrp-oracle` query interface:
//!
//! * [`vickrey`] — VCG payments for the edges of a shortest path;
//! * [`simulation`] — a seeded single-link-failure simulation comparing oracle-based recovery
//!   against recomputation from scratch (experiment E7), with each failure's query batch
//!   answered in process or through a `msrp-serve` query service (E8). It runs over
//!   unweighted graphs; the weighted oracle's entries are checked against Dijkstra
//!   recomputation by `msrp-oracle`'s `weighted_differential` battery;
//! * [`churn`] — the live-churn driver (experiment E11): failure/repair events streamed at a
//!   running epoch-swapping service, with every batch validated against per-epoch ground
//!   truth and incremental rebuilds differentially pinned to from-scratch builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod simulation;
pub mod vickrey;

pub use churn::{run_churn, ChurnConfig, ChurnReport};
pub use simulation::{
    run_simulation, run_simulation_with_service, FailureEvent, SimulationConfig, SimulationReport,
};
pub use vickrey::{vickrey_prices, EdgePrice};
