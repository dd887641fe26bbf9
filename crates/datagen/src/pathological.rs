//! Adversarial instances from the paper.

use smr_graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId};

/// The GreedyMR worst case of Section 5.4: a path
/// `u1u2, u2u3, …, u_{k−1}u_k` with non-decreasing weights.  GreedyMR faces
/// a chain of cascading updates and needs a number of rounds linear in the
/// path length.
///
/// The path alternates items and consumers so it fits the bipartite
/// setting: `t0 − c0 − t1 − c1 − …`, with unit capacities everywhere.
pub fn increasing_weight_path(length: usize) -> (BipartiteGraph, Capacities) {
    assert!(length >= 2, "a path needs at least two nodes");
    let num_items = length.div_ceil(2);
    let num_consumers = length / 2;
    let mut edges = Vec::with_capacity(length - 1);
    // Node i of the path is item i/2 when i is even, consumer i/2 when odd.
    for i in 0..length - 1 {
        let weight = (i + 1) as f64;
        let (item, consumer) = if i % 2 == 0 {
            (ItemId((i / 2) as u32), ConsumerId((i / 2) as u32))
        } else {
            (ItemId((i / 2 + 1) as u32), ConsumerId((i / 2) as u32))
        };
        edges.push(Edge::new(item, consumer, weight));
    }
    let graph = BipartiteGraph::from_edges(num_items, num_consumers, edges);
    let caps = Capacities::uniform(&graph, 1, 1);
    (graph, caps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_has_the_right_shape() {
        let (g, caps) = increasing_weight_path(9);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_nodes(), 9);
        assert!(caps.matches(&g));
        // Weights strictly increase along the path.
        for w in g.edges().windows(2) {
            assert!(w[1].weight > w[0].weight);
        }
        // Interior nodes have degree 2, endpoints degree 1.
        let degree_one = g.nodes().filter(|&v| g.degree(v) == 1).count();
        assert_eq!(degree_one, 2);
    }

    #[test]
    fn path_even_length_also_works() {
        let (g, _) = increasing_weight_path(8);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.num_nodes(), 8);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn degenerate_path_is_rejected() {
        increasing_weight_path(1);
    }
}
