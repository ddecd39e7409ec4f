//! # dkc — Distributed approximate k-core decomposition, min-max edge
//! orientation, and weak densest subsets
//!
//! A Rust reproduction of
//!
//! > T-H. Hubert Chan, Mauro Sozio, Bintao Sun.
//! > *Distributed Approximate k-Core Decomposition and Min-Max Edge
//! > Orientation: Breaking the Diameter Barrier.* IEEE IPDPS 2019.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`graph`] ([`dkc_graph`]) — weighted-graph substrate, generators, I/O.
//! * [`distsim`] ([`dkc_distsim`]) — synchronous LOCAL/CONGEST simulator.
//! * [`flow`] ([`dkc_flow`]) — exact ground truth (max-flow, densest subgraph,
//!   dense decomposition, exact orientation).
//! * [`core`] ([`dkc_core`]) — the paper's algorithms and public API.
//! * [`baselines`] ([`dkc_baselines`]) — centralized and prior-art baselines.
//!
//! ## Quick start
//!
//! ```
//! use dkc::prelude::*;
//!
//! // A social-network-like graph.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = dkc::graph::generators::barabasi_albert(500, 3, &mut rng);
//!
//! // 2(1+ε)-approximate coreness of every node, in O(log_{1+ε} n) rounds,
//! // independent of the graph diameter.
//! let approx = approximate_coreness(&g, 0.1);
//! assert_eq!(approx.values.len(), 500);
//!
//! // Compare against the exact coreness.
//! let exact = dkc::baselines::weighted_coreness(&g);
//! let ratio = ApproxRatio::compute(&approx.values, &exact);
//! assert!(ratio.max <= 2.0 * 1.1 + 1e-9);
//! assert_eq!(ratio.lower_bound_violations, 0);
//!
//! // Any other round budget, threshold set, fault plan, shard partition or
//! // checkpointing: describe the run as a `RunSpec`.
//! let spec = RunSpec::new(12).threshold_set(ThresholdSet::power_grid(0.1));
//! let run = run_compact_elimination(&g, &spec).expect("a legal T and no checkpoint");
//! assert_eq!(run.surviving.len(), 500);
//! ```

#![deny(deprecated)]

pub use dkc_baselines as baselines;
pub use dkc_core as core;
pub use dkc_distsim as distsim;
pub use dkc_flow as flow;
pub use dkc_graph as graph;

/// Commonly used items for applications built on the library.
pub mod prelude {
    pub use dkc_core::{
        approximate_coreness, approximate_orientation, rounds_for_epsilon, rounds_for_gamma,
        run_compact_elimination, weak_densest_subsets, ApproxRatio, CorenessApproximation,
        OrientationApproximation, RunSpec, ThresholdSet,
    };
    pub use dkc_distsim::ExecutionMode;
    pub use dkc_graph::{GraphBuilder, NodeId, WeightedGraph};
    pub use rand::SeedableRng;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs() {
        let mut g = WeightedGraph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        g.add_unit_edge(NodeId(2), NodeId(0));
        g.add_unit_edge(NodeId(2), NodeId(3));
        let approx = approximate_coreness(&g, 0.5);
        assert_eq!(approx.values.len(), 4);
        assert!(approx.values[3] >= 1.0);
    }
}
