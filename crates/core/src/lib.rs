//! # dkc-core
//!
//! The paper's contribution: distributed `O(log n)`-round,
//! diameter-independent approximation algorithms for
//!
//! 1. **coreness values / maximal densities** (Theorem I.1) — the compact
//!    elimination procedure ([`compact`], Algorithms 2–3) whose surviving
//!    number `β^T(v)` is a `2·n^{1/T}`-approximation of both `c(v)` and `r(v)`;
//! 2. the **min-max edge orientation problem** (Theorem I.2) — the same
//!    procedure augmented with per-node in-neighbour sets `N_v`
//!    ([`orientation`]), a primal-dual `2·n^{1/T}`-approximation;
//! 3. the **weak densest subset problem** (Theorem I.3) — a four-phase
//!    `O(log_{1+ε} n)`-round protocol ([`densest`], Algorithms 4–6).
//!
//! Everything is expressed as [`dkc_distsim::NodeProgram`]s executed on the
//! synchronous LOCAL-model simulator, with exact round and message accounting.
//!
//! ## Running compact elimination
//!
//! There are three ways in:
//!
//! * [`approximate_coreness`]`(g, ε)` — Theorem I.1 as stated:
//!   `⌈log_{1+ε} n⌉` rounds over Λ = ℝ, fault-free.
//! * [`run_compact_elimination`]`(g, &spec)` — any [`RunSpec`]: round budget,
//!   threshold set, execution mode, fault plan, shard partition, and
//!   checkpointing.
//! * [`resume_compact_elimination`] — finishes a checkpointed run; its
//!   parameters come back from the checkpoint as a [`RunSpec`].
//!
//! ## Quick start
//!
//! ```
//! use dkc_core::api::approximate_coreness;
//! use dkc_graph::generators::complete_graph;
//!
//! let g = complete_graph(16);
//! let approx = approximate_coreness(&g, 0.1);
//! // Every node of K_16 has coreness 15; the approximation is within 2(1+ε).
//! for &b in &approx.values {
//!     assert!(b >= 15.0 && b <= 2.0 * 1.1 * 15.0);
//! }
//! ```

#![deny(deprecated)]

pub mod api;
pub mod bfs;
pub mod checkpoint;
pub mod compact;
pub mod densest;
pub mod orientation;
pub mod ratio;
pub mod surviving;
pub mod threshold;
pub mod tree_elim;
pub mod update;

pub use api::{
    approximate_coreness, approximate_orientation, rounds_for_epsilon, rounds_for_gamma,
    weak_densest_subsets, CorenessApproximation, OrientationApproximation,
};
pub use checkpoint::{
    graph_fingerprint, resume_compact_elimination, CheckpointConfig, ResumedRun, RunPreamble,
};
pub use compact::{
    run_compact_elimination, CompactOutcome, RunError, RunSpec, ShardedCompactArena,
};
pub use densest::{WeakCluster, WeakDensestResult};
pub use ratio::ApproxRatio;
pub use threshold::ThresholdSet;

/// The execution paths unit tests compare: each activation on one thread
/// and on four.
#[cfg(test)]
pub(crate) mod test_legs {
    use dkc_distsim::ExecutionMode::{self, Auto, Dense};

    /// Dense and frontier rounds, each on one thread and on four.
    pub(crate) const LEGS: [(ExecutionMode, usize); 4] =
        [(Dense, 1), (Dense, 4), (Auto, 1), (Auto, 4)];

    /// Runs `f` in a rayon pool of `threads` threads, the count the
    /// executor's data-parallel rounds read.
    pub(crate) fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }
}
