//! Random graph models used as workload substitutes for the real-world graphs
//! of the paper's full-version experiments.

use crate::builder::GraphBuilder;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Erdős–Rényi `G(n, p)`: every pair becomes a unit edge independently with
/// probability `p`.
///
/// Uses geometric skipping so the cost is `O(n + m)` rather than `O(n²)` when
/// `p` is small.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> WeightedGraph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let mut g = WeightedGraph::new(n);
    if n < 2 || p == 0.0 {
        return g;
    }
    if p >= 1.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_unit_edge(NodeId::new(i), NodeId::new(j));
            }
        }
        return g;
    }
    // Geometric skipping over the lexicographic enumeration of pairs (i, j), i<j.
    let log_q = (1.0 - p).ln();
    let mut i = 1usize;
    let mut j: i64 = -1;
    while i < n {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_q).floor() as i64;
        j += 1 + skip;
        while j >= i as i64 && i < n {
            j -= i as i64;
            i += 1;
        }
        if i < n {
            g.add_unit_edge(NodeId::new(j as usize), NodeId::new(i));
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m_attach + 1` nodes, then every new node attaches to `m_attach` distinct
/// existing nodes chosen proportionally to their degree.
///
/// The resulting degree distribution is heavy-tailed and the coreness
/// distribution is concentrated around `m_attach`, which mirrors the structure
/// of the social graphs used in the paper's experiments.
pub fn barabasi_albert<R: Rng>(n: usize, m_attach: usize, rng: &mut R) -> WeightedGraph {
    assert!(m_attach >= 1, "attachment parameter must be >= 1");
    assert!(
        n > m_attach,
        "need more nodes ({n}) than the attachment parameter ({m_attach})"
    );
    let mut builder = GraphBuilder::new(n);
    // Repeated-endpoint list: each edge contributes both endpoints, so sampling a
    // uniform element is sampling proportionally to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    let seed = m_attach + 1;
    for i in 0..seed {
        for j in (i + 1)..seed {
            builder.add_unit_edge(NodeId::new(i), NodeId::new(j));
            endpoints.push(NodeId::new(i));
            endpoints.push(NodeId::new(j));
        }
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(m_attach);
    for v in seed..n {
        chosen.clear();
        // Rejection sampling for distinct targets; the endpoint list is long
        // relative to m_attach so this terminates quickly.
        while chosen.len() < m_attach {
            let cand = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&cand) {
                chosen.push(cand);
            }
        }
        for &t in &chosen {
            builder.add_unit_edge(NodeId::new(v), t);
            endpoints.push(NodeId::new(v));
            endpoints.push(t);
        }
    }
    builder.build()
}

/// Chung-Lu power-law model: node `i` gets target weight `w_i ∝ (i+1)^{-1/(α-1)}`
/// and each pair `{i, j}` is connected with probability
/// `min(1, w_i·w_j / Σw)`. `alpha` is the power-law exponent (typically 2–3).
pub fn chung_lu_power_law<R: Rng>(
    n: usize,
    alpha: f64,
    average_degree: f64,
    rng: &mut R,
) -> WeightedGraph {
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    assert!(average_degree > 0.0);
    let exponent = 1.0 / (alpha - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();
    let sum: f64 = weights.iter().sum();
    // Rescale so that weights are *expected degrees* with the requested mean
    // (the standard Chung-Lu convention: p_ij = w_i w_j / Σw).
    let scale = average_degree * n as f64 / sum;
    for w in &mut weights {
        *w *= scale;
    }
    let total: f64 = weights.iter().sum();
    let mut builder = GraphBuilder::new(n);
    // For heavy nodes the probability saturates; a simple O(n^2 p) loop with
    // per-row geometric skipping keeps this practical for the sizes we use.
    for i in 0..n {
        let mut j = i + 1;
        while j < n {
            let p = (weights[i] * weights[j] / total).min(1.0);
            if p >= 1.0 {
                builder.add_unit_edge(NodeId::new(i), NodeId::new(j));
                j += 1;
                continue;
            }
            if p <= 0.0 {
                break;
            }
            // Skip ahead geometrically using the current probability as an
            // upper bound for the (decreasing) probabilities of later js.
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = (r.ln() / (1.0 - p).ln()).floor() as usize;
            j += skip;
            if j >= n {
                break;
            }
            let p_actual = (weights[i] * weights[j] / total).min(1.0);
            if rng.gen_bool(p_actual / p) {
                builder.add_unit_edge(NodeId::new(i), NodeId::new(j));
            }
            j += 1;
        }
    }
    builder.build()
}

/// Watts–Strogatz small-world graph: ring lattice where each node connects to
/// its `k/2` nearest neighbours on each side, then each edge is rewired with
/// probability `beta`.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> WeightedGraph {
    assert!(k.is_multiple_of(2), "k must be even");
    assert!(k < n, "k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta));
    let mut builder = GraphBuilder::new(n);
    // The pairs added so far, for membership tests only.
    let mut added: HashSet<(usize, usize)> = HashSet::new();
    for i in 0..n {
        for d in 1..=(k / 2) {
            let j = (i + d) % n;
            let mut target = j;
            if rng.gen_bool(beta) {
                // Rewire: pick a random target distinct from i, avoiding an
                // existing edge when possible (bounded retries keep this O(1)).
                let mut pick = rng.gen_range(0..n);
                let mut tries = 0;
                while (pick == i || added.contains(&(i.min(pick), i.max(pick)))) && tries < 16 {
                    pick = rng.gen_range(0..n);
                    tries += 1;
                }
                if pick != i {
                    target = pick;
                }
            }
            builder.add_unit_edge(NodeId::new(i), NodeId::new(target));
            added.insert((i.min(target), i.max(target)));
        }
    }
    builder.build()
}

/// Random `d`-regular-ish graph via the configuration model with rejection of
/// self-loops and duplicate edges (so some nodes may end up with degree
/// slightly below `d`).
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> WeightedGraph {
    assert!(d < n, "degree must be smaller than n");
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    let mut stubs: Vec<NodeId> = (0..n)
        .flat_map(|i| std::iter::repeat_n(NodeId::new(i), d))
        .collect();
    stubs.shuffle(rng);
    let mut builder = GraphBuilder::new(n);
    // The pairs added so far, for membership tests only.
    let mut added: HashSet<(NodeId, NodeId)> = HashSet::new();
    for pair in stubs.chunks(2) {
        if pair.len() == 2
            && pair[0] != pair[1]
            && added.insert((pair[0].min(pair[1]), pair[0].max(pair[1])))
        {
            builder.add_unit_edge(pair[0], pair[1]);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_edge_count_is_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 500;
        let p = 0.02;
        let g = erdos_renyi(n, p, &mut rng);
        g.check_consistency();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 0.3 * expected,
            "edge count {m} too far from expectation {expected}"
        );
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(2);
        let empty = erdos_renyi(50, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(20, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 190);
    }

    #[test]
    fn barabasi_albert_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 300;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng);
        g.check_consistency();
        assert_eq!(g.num_nodes(), n);
        // seed clique: C(m+1, 2) edges; each of the remaining n-m-1 nodes adds
        // m edges (some may merge, but with distinct targets they never do).
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.num_edges(), expected);
        // Every node has degree >= m.
        for v in g.nodes() {
            assert!(g.unweighted_degree(v) >= m, "node {v} has degree < m");
        }
    }

    #[test]
    fn barabasi_albert_has_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = barabasi_albert(2000, 2, &mut rng);
        let max_deg = g.nodes().map(|v| g.unweighted_degree(v)).max().unwrap();
        assert!(max_deg > 20, "expected a hub, max degree was {max_deg}");
    }

    #[test]
    fn chung_lu_average_degree_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 2000;
        let g = chung_lu_power_law(n, 2.5, 8.0, &mut rng);
        g.check_consistency();
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        assert!(
            avg > 3.0 && avg < 16.0,
            "average degree {avg} out of plausible range"
        );
    }

    #[test]
    fn watts_strogatz_counts() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = watts_strogatz(200, 6, 0.1, &mut rng);
        g.check_consistency();
        assert_eq!(g.num_nodes(), 200);
        // At most n*k/2 edges (rewiring may merge a few).
        assert!(g.num_edges() <= 600);
        assert!(g.num_edges() > 500);
    }

    #[test]
    fn random_regular_degrees_close_to_d() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_regular(100, 4, &mut rng);
        g.check_consistency();
        for v in g.nodes() {
            assert!(g.unweighted_degree(v) <= 4);
        }
        let avg = 2.0 * g.num_edges() as f64 / 100.0;
        assert!(avg > 3.0, "too many rejected stubs, avg degree {avg}");
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = barabasi_albert(100, 2, &mut StdRng::seed_from_u64(42));
        let g2 = barabasi_albert(100, 2, &mut StdRng::seed_from_u64(42));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }
}
