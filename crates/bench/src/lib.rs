//! Shared infrastructure for the experiment harness:
//! standard workloads, timing helpers and plain-text table output.
//!
//! The paper has no empirical section, so the "tables and figures" regenerated here are the
//! derived experiments E1–E7 defined in `DESIGN.md` / `EXPERIMENTS.md`: runtime-shape studies
//! validating the complexity claims (Theorems 1, 14, 26), the exactness rate of the randomized
//! algorithm, the BMM reduction (Theorem 2/28), oracle query latency, and the application-level
//! simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;
pub mod timing;
pub mod workloads;

pub use table::Table;
pub use timing::{time, time_secs};
pub use workloads::{
    evenly_spaced_sources, standard_graph, standard_weighted_graph, Workload, WorkloadKind,
};
