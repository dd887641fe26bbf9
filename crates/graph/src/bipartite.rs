//! The weighted bipartite graph of Problem 1.

use crate::ids::{ConsumerId, ItemId, NodeId};

/// Index of an edge in a [`BipartiteGraph`].
pub type EdgeId = usize;

/// A weighted edge between an item and a consumer.
///
/// Weights are the relevance scores `w(t, c) > 0` of the paper (for the
/// social-content application they are tf·idf dot products produced by the
/// similarity join).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The item endpoint.
    pub item: ItemId,
    /// The consumer endpoint.
    pub consumer: ConsumerId,
    /// The positive relevance score of delivering `item` to `consumer`.
    pub weight: f64,
}

impl Edge {
    /// Creates an edge.
    pub fn new(item: ItemId, consumer: ConsumerId, weight: f64) -> Self {
        Edge {
            item,
            consumer,
            weight,
        }
    }

    /// The endpoint opposite to `node`.
    ///
    /// # Panics
    /// Panics in debug builds if `node` is not an endpoint of this edge.
    pub fn other_endpoint(&self, node: NodeId) -> NodeId {
        match node {
            NodeId::Item(t) => {
                debug_assert_eq!(t, self.item);
                NodeId::Consumer(self.consumer)
            }
            NodeId::Consumer(c) => {
                debug_assert_eq!(c, self.consumer);
                NodeId::Item(self.item)
            }
        }
    }

    /// Whether `node` is an endpoint of this edge.
    pub fn touches(&self, node: NodeId) -> bool {
        match node {
            NodeId::Item(t) => t == self.item,
            NodeId::Consumer(c) => c == self.consumer,
        }
    }
}

/// The undirected bipartite graph `G = (T, C, E)` with positive edge
/// weights.
///
/// The edge list is the primary representation; the incidence (every
/// node's incident edge indices, ascending) is built once at construction,
/// one compressed array per side, so that both the centralized algorithms
/// and the node-centric MapReduce jobs can iterate over neighbourhoods
/// cheaply.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    num_items: usize,
    num_consumers: usize,
    edges: Vec<Edge>,
    /// The edges incident to each item.
    item_edges: Incidence,
    /// The edges incident to each consumer.
    consumer_edges: Incidence,
}

/// One side's incidence in compressed sparse row form: node `v`'s
/// incident edge indices are `edges[offsets[v]..offsets[v + 1]]`,
/// ascending.
#[derive(Debug, Clone)]
struct Incidence {
    offsets: Vec<usize>,
    edges: Vec<EdgeId>,
}

impl Incidence {
    /// The incidence of `nodes` nodes, where `endpoint` names each edge's
    /// node on this side: one pass counts the degrees, one places the
    /// edge ids.
    fn new(nodes: usize, edges: &[Edge], endpoint: impl Fn(&Edge) -> usize) -> Self {
        let mut offsets = vec![0; nodes + 1];
        for e in edges {
            offsets[endpoint(e)] += 1;
        }
        // Running sums: `offsets[v]` is where node `v`'s run ends.
        for v in 1..=nodes {
            offsets[v] += offsets[v - 1];
        }
        // Placed back to front, each run fills from its end, so it ends up
        // ascending and `offsets[v]` ends at the run's start.
        let mut ids = vec![0; edges.len()];
        for (idx, e) in edges.iter().enumerate().rev() {
            let v = endpoint(e);
            offsets[v] -= 1;
            ids[offsets[v]] = idx;
        }
        Incidence {
            offsets,
            edges: ids,
        }
    }

    /// The edges incident to node `v`.
    fn of(&self, v: usize) -> &[EdgeId] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl BipartiteGraph {
    /// Builds a graph from explicit side sizes and an edge list.
    ///
    /// # Panics
    /// Panics if an edge references a node outside the declared sides or
    /// has a non-positive / non-finite weight.
    pub fn from_edges(num_items: usize, num_consumers: usize, edges: Vec<Edge>) -> Self {
        for (idx, e) in edges.iter().enumerate() {
            assert!(
                e.item.index() < num_items,
                "edge {idx} references item {} outside 0..{num_items}",
                e.item
            );
            assert!(
                e.consumer.index() < num_consumers,
                "edge {idx} references consumer {} outside 0..{num_consumers}",
                e.consumer
            );
            assert!(
                e.weight.is_finite() && e.weight > 0.0,
                "edge {idx} has non-positive or non-finite weight {}",
                e.weight
            );
        }
        BipartiteGraph {
            item_edges: Incidence::new(num_items, &edges, |e| e.item.index()),
            consumer_edges: Incidence::new(num_consumers, &edges, |e| e.consumer.index()),
            num_items,
            num_consumers,
            edges,
        }
    }

    /// Number of items `|T|`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of consumers `|C|`.
    pub fn num_consumers(&self) -> usize {
        self.num_consumers
    }

    /// Number of nodes `|T| + |C|`.
    pub fn num_nodes(&self) -> usize {
        self.num_items + self.num_consumers
    }

    /// Number of edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge with the given index.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// All edges, in index order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices of the edges incident to `node`, ascending.
    pub fn incident_edges(&self, node: NodeId) -> &[EdgeId] {
        match node {
            NodeId::Item(t) => self.item_edges.of(t.index()),
            NodeId::Consumer(c) => self.consumer_edges.of(c.index()),
        }
    }

    /// Degree of `node` (number of incident candidate edges).
    pub fn degree(&self, node: NodeId) -> usize {
        self.incident_edges(node).len()
    }

    /// Iterator over every node of the graph (items first).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_items as u32)
            .map(NodeId::item)
            .chain((0..self.num_consumers as u32).map(NodeId::consumer))
    }

    /// Maximum edge weight (`w_max`), or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.weight)
            .max_by(|a, b| a.partial_cmp(b).expect("weights are finite"))
    }

    /// Minimum edge weight (`w_min`), or `None` for an edgeless graph.
    pub fn min_weight(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.weight)
            .min_by(|a, b| a.partial_cmp(b).expect("weights are finite"))
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Returns a new graph containing only the edges with weight `>= sigma`.
    ///
    /// This is the σ-thresholding of Section 4 used to sweep the number of
    /// candidate edges in the experiments.  Node sets are kept unchanged so
    /// that capacities remain comparable across thresholds.
    pub fn filter_by_threshold(&self, sigma: f64) -> BipartiteGraph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| e.weight >= sigma)
            .collect();
        BipartiteGraph::from_edges(self.num_items, self.num_consumers, edges)
    }

    /// The edge-weight values, useful for similarity-distribution plots.
    pub fn weights(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> BipartiteGraph {
        // 2 items, 3 consumers, 4 edges.
        BipartiteGraph::from_edges(
            2,
            3,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 0.5),
                Edge::new(ItemId(1), ConsumerId(1), 2.0),
                Edge::new(ItemId(1), ConsumerId(2), 0.25),
            ],
        )
    }

    #[test]
    fn counts_and_adjacency() {
        let g = sample_graph();
        assert_eq!(g.num_items(), 2);
        assert_eq!(g.num_consumers(), 3);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::item(0)), 2);
        assert_eq!(g.degree(NodeId::item(1)), 2);
        assert_eq!(g.degree(NodeId::consumer(1)), 2);
        assert_eq!(g.degree(NodeId::consumer(2)), 1);
        assert_eq!(g.incident_edges(NodeId::consumer(1)), &[1, 2]);
    }

    #[test]
    fn weight_extremes_and_total() {
        let g = sample_graph();
        assert_eq!(g.max_weight(), Some(2.0));
        assert_eq!(g.min_weight(), Some(0.25));
        assert!((g.total_weight() - 3.75).abs() < 1e-12);
        let empty = BipartiteGraph::from_edges(1, 1, vec![]);
        assert_eq!(empty.max_weight(), None);
        assert_eq!(empty.min_weight(), None);
    }

    #[test]
    fn threshold_filtering_keeps_nodes_and_drops_light_edges() {
        let g = sample_graph();
        let filtered = g.filter_by_threshold(0.5);
        assert_eq!(filtered.num_items(), 2);
        assert_eq!(filtered.num_consumers(), 3);
        assert_eq!(filtered.num_edges(), 3);
        assert!(filtered.edges().iter().all(|e| e.weight >= 0.5));
        // Filtering with a threshold below the minimum keeps everything.
        assert_eq!(g.filter_by_threshold(0.0).num_edges(), 4);
        // Filtering above the maximum removes everything.
        assert_eq!(g.filter_by_threshold(3.0).num_edges(), 0);
    }

    #[test]
    fn edge_endpoint_helpers() {
        let e = Edge::new(ItemId(3), ConsumerId(7), 1.5);
        assert_eq!(e.other_endpoint(NodeId::item(3)), NodeId::consumer(7));
        assert_eq!(e.other_endpoint(NodeId::consumer(7)), NodeId::item(3));
        assert!(e.touches(NodeId::item(3)));
        assert!(e.touches(NodeId::consumer(7)));
        assert!(!e.touches(NodeId::item(4)));
    }

    #[test]
    fn nodes_iterator_lists_items_then_consumers() {
        let g = sample_graph();
        let nodes: Vec<NodeId> = g.nodes().collect();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[0], NodeId::item(0));
        assert_eq!(nodes[2], NodeId::consumer(0));
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_weight_edges_are_rejected() {
        BipartiteGraph::from_edges(1, 1, vec![Edge::new(ItemId(0), ConsumerId(0), 0.0)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_edges_are_rejected() {
        BipartiteGraph::from_edges(1, 1, vec![Edge::new(ItemId(5), ConsumerId(0), 1.0)]);
    }
}
