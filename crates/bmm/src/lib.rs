//! Boolean matrix multiplication and the combinatorial reduction BMM → MSRP
//! (Section 9 of the paper, Theorems 2 and 28).
//!
//! The reduction shows the conditional lower bound: a combinatorial MSRP algorithm running in
//! `T(n, m)` time yields a combinatorial BMM algorithm running in `O(sqrt(n/σ)·T(O(n), O(m)))`
//! time, so under the combinatorial-BMM conjecture the paper's `Õ(m·sqrt(nσ))` term is near
//! optimal. This crate implements:
//!
//! * [`BoolMatrix`] — bit-packed boolean matrices with a naive (cubic, combinatorial) product;
//! * [`multiply_via_msrp`] — the gadget construction of Theorem 28: split the rows of `A` into
//!   `sqrt(n/σ)` batches, build one gadget graph per batch with `σ` source spines, run the MSRP
//!   solver, and decode the product from the replacement distances;
//! * [`reduction`] — the gadget builder and decoder, exposed for the tests.
//!
//! The exact spine/gadget distances in the paper's prose have off-by-one slips; the derivation
//! used here is written out in [`reduction`] and verified against the naive product.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod reduction;

pub use matrix::BoolMatrix;
pub use reduction::{multiply_via_msrp, GadgetGraph, ReductionPlan};
