//! Structural graph properties: BFS distances, hop-diameter, and degree
//! statistics.
//!
//! The hop-diameter is central to the paper's motivation: the protocols' round
//! complexity must be *independent* of it, so the experiment harness reports it
//! for every workload.

use crate::csr::CsrGraph;
use crate::node::NodeId;
use std::collections::VecDeque;

/// BFS hop distances from `source`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &CsrGraph, source: NodeId) -> Vec<usize> {
    let n = g.num_nodes();
    let mut dist = vec![usize::MAX; n];
    if source.index() >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &u in g.neighbors(v) {
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Exact hop diameter of the graph (the maximum eccentricity over all nodes,
/// restricted to each connected component; `0` for the empty graph).
///
/// Runs a BFS from every node — `O(n·m)` — so intended for the small and
/// medium workloads of the experiments. Use [`diameter_double_sweep`] for a
/// fast lower bound on large graphs.
pub fn diameter_exact(g: &CsrGraph) -> usize {
    let n = g.num_nodes();
    let mut best = 0usize;
    for s in 0..n {
        let dist = bfs_distances(g, NodeId::new(s));
        for &d in &dist {
            if d != usize::MAX && d > best {
                best = d;
            }
        }
    }
    best
}

/// Double-sweep lower bound on the hop diameter: BFS from `start`, then BFS
/// again from the farthest node found. Exact on trees, a lower bound in
/// general.
pub fn diameter_double_sweep(g: &CsrGraph, start: NodeId) -> usize {
    if g.num_nodes() == 0 {
        return 0;
    }
    let d1 = bfs_distances(g, start);
    let far = d1
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != usize::MAX)
        .max_by_key(|&(_, &d)| d)
        .map(|(i, _)| NodeId::new(i))
        .unwrap_or(start);
    let d2 = bfs_distances(g, far);
    d2.iter()
        .filter(|&&d| d != usize::MAX)
        .copied()
        .max()
        .unwrap_or(0)
}

/// Summary degree statistics of a graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum weighted degree.
    pub min: f64,
    /// Maximum weighted degree.
    pub max: f64,
    /// Mean weighted degree.
    pub mean: f64,
}

/// Computes weighted-degree statistics (`min = max = mean = 0` for the empty
/// graph).
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_nodes();
    if n == 0 {
        return DegreeStats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
        };
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    for v in g.nodes() {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    DegreeStats {
        min,
        max,
        mean: sum / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle_graph, grid_graph, path_graph};
    use crate::weighted::WeightedGraph;

    #[test]
    fn bfs_on_path() {
        let g = CsrGraph::from(&path_graph(5));
        let dist = bfs_distances(&g, NodeId(0));
        assert_eq!(dist, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = WeightedGraph::new(4);
        g.add_unit_edge(NodeId(0), NodeId(1));
        let csr = CsrGraph::from(&g);
        let dist = bfs_distances(&csr, NodeId(0));
        assert_eq!(dist[1], 1);
        assert_eq!(dist[2], usize::MAX);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter_exact(&CsrGraph::from(&path_graph(10))), 9);
        assert_eq!(diameter_exact(&CsrGraph::from(&cycle_graph(10))), 5);
        assert_eq!(diameter_exact(&CsrGraph::from(&grid_graph(3, 4))), 5);
    }

    #[test]
    fn double_sweep_is_exact_on_paths() {
        let g = CsrGraph::from(&path_graph(17));
        assert_eq!(diameter_double_sweep(&g, NodeId(8)), 16);
    }

    #[test]
    fn double_sweep_lower_bounds_exact() {
        let g = CsrGraph::from(&grid_graph(4, 7));
        let exact = diameter_exact(&g);
        let lb = diameter_double_sweep(&g, NodeId(0));
        assert!(lb <= exact);
        assert!(lb >= exact / 2);
    }

    #[test]
    fn degree_statistics() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(1), NodeId(2), 4.0);
        let stats = degree_stats(&CsrGraph::from(&g));
        assert_eq!(stats.min, 2.0);
        assert_eq!(stats.max, 6.0);
        assert!((stats.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degree_statistics_empty() {
        let stats = degree_stats(&CsrGraph::from(&WeightedGraph::new(0)));
        assert_eq!(stats.max, 0.0);
    }
}
