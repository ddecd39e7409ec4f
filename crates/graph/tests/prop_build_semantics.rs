//! Property test: every way of building a graph is bit-identical to a model
//! of the merge semantics — sum each pair's copies in input order starting
//! from `0.0`, then insert the merged edges in ascending pair order and the
//! self-loops in ascending node order.
//!
//! Pinned per random edge list (sparse ids, duplicates in both orientations,
//! repeated self-loops, weights `0`, `-0`, quarter-integers and values whose
//! sums depend on their order, a `# nodes:` header with isolated nodes):
//! * `read_dataset` on the edge list matches the model on the file's order,
//!   including the id map;
//! * `GraphBuilder` fed the same edges shuffled matches the model on the
//!   shuffled order;
//! * METIS and binary round trips reproduce the graph exactly.
//!
//! Weights, self-loops and totals are compared with `to_bits()`. The random
//! generators are pinned to fingerprints of their output at fixed seeds.

use dkc_graph::generators::{
    barabasi_albert, chung_lu_power_law, erdos_renyi, planted_dense_community, random_regular,
    watts_strogatz,
};
use dkc_graph::ingest::{read_dataset, write_dataset, Dataset, DatasetFormat};
use dkc_graph::{GraphBuilder, NodeId, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A case's own directory, directly under the temp directory; the case
/// removes it when it ends.
fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dkc_prop_build_semantics-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Zero, negative zero, quarter-integers, and values whose sums depend on
/// the order they are added in.
const WEIGHTS: [f64; 12] = [
    0.0,
    -0.0,
    0.25,
    1.5,
    3.75,
    1.0,
    0.1,
    0.2,
    0.3,
    0.7,
    0.001,
    1.0 / 3.0,
];

/// Scatters a small index into a ~30-bit id space (injective below `M`).
fn sparse_id(i: u64) -> u64 {
    const M: u64 = 1_000_000_007;
    i * 736_481_777 % M
}

/// The merge semantics, modelled with ordered maps.
fn model(n: usize, edges: &[(NodeId, NodeId, f64)]) -> WeightedGraph {
    let mut pairs: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    let mut loops: BTreeMap<NodeId, f64> = BTreeMap::new();
    for &(u, v, w) in edges {
        if u == v {
            *loops.entry(u).or_insert(0.0) += w;
        } else {
            *pairs.entry((u.min(v), u.max(v))).or_insert(0.0) += w;
        }
    }
    let mut g = WeightedGraph::new(n);
    for (&(u, v), &w) in &pairs {
        g.add_edge(u, v, w);
    }
    for (&v, &w) in &loops {
        g.add_self_loop(v, w);
    }
    g
}

fn assert_same_graph(got: &WeightedGraph, want: &WeightedGraph, what: &str) {
    assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
    assert_eq!(
        got.num_plain_edges(),
        want.num_plain_edges(),
        "{what}: edge count"
    );
    let bits = |g: &WeightedGraph, v| -> Vec<(NodeId, u64)> {
        g.neighbors(v)
            .iter()
            .map(|&(u, w)| (u, w.to_bits()))
            .collect()
    };
    for v in want.nodes() {
        assert_eq!(bits(got, v), bits(want, v), "{what}: adjacency of {v:?}");
        assert_eq!(
            got.self_loop(v).to_bits(),
            want.self_loop(v).to_bits(),
            "{what}: self-loop of {v:?}"
        );
    }
    assert_eq!(
        got.total_edge_weight().to_bits(),
        want.total_edge_weight().to_bits(),
        "{what}: total weight"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_build_matches_the_merge_model(
        raw in collection::vec((0u64..30, 0u64..30, 0usize..12, 0u8..8), 0..150),
        extra_nodes in 0usize..5,
        shuffle_seed in 0u64..1_000_000,
    ) {
        // One edge in eight is a self-loop; 30 ids make duplicates common.
        let edges: Vec<(u64, u64, f64)> = raw
            .iter()
            .map(|&(u, v, w, kind)| {
                let v = if kind == 0 { u } else { v };
                (sparse_id(u), sparse_id(v), WEIGHTS[w])
            })
            .collect();
        // Ids in first-seen order, then fresh ids past the largest for the
        // isolated nodes the header declares.
        let mut externals: Vec<u64> = Vec::new();
        let mut internal: HashMap<u64, u32> = HashMap::new();
        for &(u, v, _) in &edges {
            for x in [u, v] {
                internal.entry(x).or_insert_with(|| {
                    externals.push(x);
                    externals.len() as u32 - 1
                });
            }
        }
        let declared = externals.len() + extra_nodes;
        let mut fresh = externals.iter().max().map_or(0, |&m| m + 1);
        while externals.len() < declared {
            externals.push(fresh);
            fresh += 1;
        }
        let dense: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .map(|&(u, v, w)| (NodeId(internal[&u]), NodeId(internal[&v]), w))
            .collect();

        let mut text = format!("# nodes: {declared}\n");
        for &(u, v, w) in &edges {
            let _ = writeln!(text, "{u} {v} {w}");
        }
        let dir = case_dir();
        let path = dir.join("g.edges");
        std::fs::write(&path, &text).unwrap();
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        prop_assert_eq!(ds.ids.externals(), &externals[..]);
        assert_same_graph(&ds.graph, &model(declared, &dense), "edge list");

        let mut shuffled = dense.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let mut builder = GraphBuilder::new(declared);
        for &(u, v, w) in &shuffled {
            builder.add_edge(u, v, w);
        }
        assert_same_graph(&builder.build(), &model(declared, &shuffled), "shuffled builder");

        for fmt in [DatasetFormat::Metis, DatasetFormat::Binary] {
            let path = dir.join(format!("g.{}", fmt.name()));
            write_dataset(&ds, &path, fmt).unwrap();
            let back: Dataset = read_dataset(&path, fmt).unwrap();
            assert_same_graph(&back.graph, &ds.graph, fmt.name());
            if fmt == DatasetFormat::Binary {
                prop_assert_eq!(back.ids.externals(), ds.ids.externals());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// FNV-1a over the node count, every adjacency list in order (neighbour
/// and weight bits), every self-loop and the total weight.
fn fingerprint(g: &WeightedGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(g.num_nodes() as u64);
    for v in g.nodes() {
        eat(g.unweighted_degree(v) as u64);
        for &(u, w) in g.neighbors(v) {
            eat(u.0 as u64);
            eat(w.to_bits());
        }
        eat(g.self_loop(v).to_bits());
    }
    eat(g.total_edge_weight().to_bits());
    hash
}

#[test]
fn generators_are_pinned_at_fixed_seeds() {
    // Sizes at which the Watts–Strogatz, random-regular and planted
    // generators each meet pairs they have already added.
    let rng = |seed| StdRng::seed_from_u64(seed);
    let got = [
        fingerprint(&barabasi_albert(2000, 3, &mut rng(1))),
        fingerprint(&chung_lu_power_law(2000, 2.5, 8.0, &mut rng(2))),
        fingerprint(&watts_strogatz(200, 10, 0.5, &mut rng(3))),
        fingerprint(&random_regular(300, 6, &mut rng(4))),
        fingerprint(&planted_dense_community(300, 30, 0.02, 0.8, &mut rng(5)).graph),
        fingerprint(&erdos_renyi(2000, 0.004, &mut rng(6))),
    ];
    // Any change to a generator, or to the builder's merge, that moves an
    // edge, its position in an adjacency list, or a weight bit moves these.
    let pinned: [u64; 6] = [
        0x5413_f217_c11f_1e08,
        0x0348_68a9_f238_545b,
        0x0d69_bfdf_482a_bd5b,
        0x0910_ef53_56d8_b029,
        0xfac1_41d2_62a7_6833,
        0xfc46_368f_3351_77bf,
    ];
    assert_eq!(got, pinned, "got {got:#018x?}");
}
