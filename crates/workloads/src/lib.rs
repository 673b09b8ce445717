//! Workload generators for the evaluation.
//!
//! - [`dnn`] — fully-connected-layer weight matrices of the seven networks
//!   of Fig. 9 (synthetic stand-ins with the real layer dimensions and
//!   deployment-typical sparsities; see DESIGN.md for the substitution
//!   rationale).
//! - [`suite`] — SuiteSparse-profile matrices (§4 mentions the Texas A&M
//!   collection at > 90 % sparsity; the paper omits those numbers for
//!   space, we provide the same class of inputs).
//! - [`conv`] — pruned convolution layers lowered to SpMV via im2col (the
//!   paper's conclusion lists convolution among the accelerated kernels).

pub mod conv;
pub mod dnn;
pub mod suite;
