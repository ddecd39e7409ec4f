//! The size of a checkpoint image, per arc and per node of its graph.
//!
//! Under Λ = ℝ with unit weights every surviving number is an integer or
//! +∞, so a node's payload is a varint degree, last update and cut, one
//! code byte for `b` and for each neighbour value (while the values stay
//! below 254), and its update order at one byte per entry up to 256
//! neighbours, two up to 65,536. The test checkpoints a 3,000-node
//! Barabási–Albert graph plus a hub of 1,000 neighbours, which takes the
//! two-byte order. The image measures about 2.04 B per arc plus 4 B per
//! node plus its head, and resumes to the state that wrote it; the v4
//! layout, with `u32` counts, `f64` values and `u32` positions, took 12 B
//! per arc plus 20 B per node.

use dkc::core::checkpoint::{resume_compact_elimination, CheckpointConfig};
use dkc::core::compact::{run_compact_elimination, RunSpec};
use dkc::graph::generators::barabasi_albert;
use dkc::prelude::*;

/// The most image bytes per directed arc.
const MAX_BYTES_PER_ARC: f64 = 2.1;
/// The most image bytes per node, beside its arcs.
const MAX_BYTES_PER_NODE: f64 = 4.2;
/// The bytes of the image that are no node's: the container head, the
/// run's preamble, the fault plan and 136 B of history per round.
const MAX_HEAD_BYTES: f64 = 2048.0;

#[test]
fn a_unit_weight_image_takes_about_two_bytes_per_arc() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut g = barabasi_albert(3000, 4, &mut rng);
    let hub = g.add_node();
    for v in (0..3000).step_by(3) {
        g.add_unit_edge(hub, NodeId::new(v));
    }
    assert!(g.unweighted_degree(hub) > 256, "the hub needs a wide order");
    let arcs = 2 * g.num_plain_edges();
    let nodes = g.num_nodes();

    let path =
        std::env::temp_dir().join(format!("dkc-checkpoint-size-{}.dkck", std::process::id()));
    let rounds = 8;
    let spec = RunSpec::new(rounds)
        .mode(ExecutionMode::Dense)
        .checkpoint(CheckpointConfig {
            path: path.clone(),
            every: rounds,
        });
    let outcome = run_compact_elimination(&g, &spec).unwrap();
    let len = std::fs::metadata(&path).unwrap().len() as f64;
    // Every payload, the hub's two-byte order and varints past one byte
    // included, reads back to the state that wrote it.
    let resumed = resume_compact_elimination(&g, &path, None);
    std::fs::remove_file(&path).unwrap();
    let resumed = resumed.unwrap().outcome;
    assert_eq!(resumed.surviving, outcome.surviving);
    assert_eq!(resumed.in_neighbors, outcome.in_neighbors);

    let bound =
        MAX_BYTES_PER_ARC * arcs as f64 + MAX_BYTES_PER_NODE * nodes as f64 + MAX_HEAD_BYTES;
    assert!(
        len <= bound,
        "a {len} B image for {arcs} arcs and {nodes} nodes, more than {bound}"
    );
}
