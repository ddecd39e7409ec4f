//! # dkc-baselines
//!
//! Centralized ground-truth algorithms and prior-art comparators used by the
//! test suite and the experiment harness:
//!
//! * [`coreness`] — exact k-core decomposition: the Batagelj–Zaversnik `O(m)`
//!   bucket algorithm for unit weights and heap-based peeling for weighted
//!   graphs.
//! * [`montresor`] — the distributed *exact* coreness protocol of Montresor,
//!   De Pellegrini and Miorandi (run to convergence; its round complexity is
//!   **not** diameter-independent, which is the comparison point of
//!   experiment E8).
//! * [`orientation`] — centralized orientation baselines (greedy load
//!   balancing, peeling-based 2-approximation) and the Barenboim–Elkin-style
//!   two-phase distributed scheme that achieves `2(2+ε)` given a density
//!   estimate (the prior art the paper improves on).
//!
//! The densest-subset comparisons use the exact flow-based
//! `dkc_flow::densest_subgraph`, so this crate has no densest baseline.

#![deny(deprecated)]

pub mod coreness;
pub mod montresor;
pub mod orientation;

pub use coreness::{unweighted_coreness, weighted_coreness, weighted_coreness_csr};
pub use montresor::{
    montresor_exact_coreness, montresor_exact_coreness_with_faults, MontresorOutcome,
};
pub use orientation::{
    barenboim_elkin_orientation, greedy_orientation, peeling_orientation, OrientationBaseline,
};
