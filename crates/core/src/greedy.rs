//! The centralized greedy algorithm (Section 5.4).
//!
//! Edges are processed in order of decreasing weight; an edge `(u, v)` is
//! included if both endpoints still have residual capacity, in which case
//! both residuals are decremented.  The result is always feasible and is a
//! ½-approximation of the maximum-weight b-matching (Theorem 2); the
//! triangle instance in the paper's appendix shows the bound is tight.

use smr_graph::{BipartiteGraph, Capacities, Matching};

/// Runs the centralized greedy algorithm.
///
/// Ties between equal-weight edges are broken by edge id so the result is
/// deterministic.
pub fn greedy_matching(graph: &BipartiteGraph, caps: &Capacities) -> Matching {
    assert!(
        caps.matches(graph),
        "capacities were built for a different graph"
    );
    let mut order: Vec<usize> = (0..graph.num_edges()).collect();
    order.sort_by(|&a, &b| {
        graph
            .edge(b)
            .weight
            .partial_cmp(&graph.edge(a).weight)
            .expect("edge weights are finite")
            .then(a.cmp(&b))
    });

    let mut item_residual: Vec<u64> = caps.item_capacities().to_vec();
    let mut consumer_residual: Vec<u64> = caps.consumer_capacities().to_vec();
    let mut matching = Matching::new(graph.num_edges());

    for e in order {
        let edge = graph.edge(e);
        let ti = edge.item.index();
        let ci = edge.consumer.index();
        if item_residual[ti] > 0 && consumer_residual[ci] > 0 {
            item_residual[ti] -= 1;
            consumer_residual[ci] -= 1;
            matching.insert(e);
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_graph::{ConsumerId, Edge, ItemId};

    /// The tightness example from the paper's appendix, adapted to a
    /// bipartite setting: greedy picks the single heaviest edge and blocks
    /// the two unit edges that together are worth more.
    ///
    /// The triangle becomes the path t0–c0 (1+δ), t0–c1 (1.0), t1–c0 (1.0)
    /// with unit capacities: greedy takes t0–c0 alone, the optimum takes
    /// the two unit edges.
    fn path_graph(delta: f64) -> (BipartiteGraph, Capacities) {
        let g = BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0 + delta),
                Edge::new(ItemId(0), ConsumerId(1), 1.0),
                Edge::new(ItemId(1), ConsumerId(0), 1.0),
            ],
        );
        let caps = Capacities::from_vectors(vec![1, 1], vec![1, 1]);
        (g, caps)
    }

    #[test]
    fn greedy_is_feasible_and_deterministic() {
        let (g, caps) = path_graph(0.1);
        let m1 = greedy_matching(&g, &caps);
        let m2 = greedy_matching(&g, &caps);
        assert_eq!(m1, m2);
        assert!(m1.is_feasible(&g, &caps));
    }

    #[test]
    fn greedy_takes_the_heaviest_edge_first() {
        let (g, caps) = path_graph(0.5);
        let m = greedy_matching(&g, &caps);
        // Heaviest edge (t0, c0) is taken; it blocks (t0, c1)? No:
        // b(t0) = 1, so after taking edge 0, t0 is saturated and c0 is
        // saturated; edge 1 (t0) and edge 2 (c0) are both blocked.
        assert_eq!(m.to_edge_vec(), vec![0]);
        assert!((m.value(&g) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_matches_everything_when_capacities_allow() {
        let (g, caps0) = path_graph(0.5);
        let caps = Capacities::from_vectors(vec![2, 1], caps0.consumer_capacities().to_vec());
        let m = greedy_matching(&g, &caps);
        assert_eq!(m.len(), 2);
        assert!(m.is_feasible(&g, &caps));
    }

    #[test]
    fn tie_breaking_is_by_edge_id() {
        let g = BipartiteGraph::from_edges(
            1,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 1.0),
            ],
        );
        let caps = Capacities::from_vectors(vec![1], vec![1, 1]);
        let m = greedy_matching(&g, &caps);
        assert_eq!(m.to_edge_vec(), vec![0]);
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = BipartiteGraph::from_edges(2, 2, vec![]);
        let caps = Capacities::uniform(&g, 1, 1);
        let m = greedy_matching(&g, &caps);
        assert!(m.is_empty());
    }

    #[test]
    fn greedy_never_exceeds_half_pessimism_on_small_instances() {
        // On the worst-case style instance greedy still achieves at least
        // half of the best possible value (checked here against the obvious
        // optimum of the small instance).
        let (g, caps) = path_graph(0.01);
        let m = greedy_matching(&g, &caps);
        let optimal = 2.0; // edges 1 and 2 (both weight 1.0)
        assert!(m.value(&g) >= 0.5 * optimal - 1e-12);
    }
}
