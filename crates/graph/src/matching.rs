//! b-matching solutions.
//!
//! A b-matching is a subset of the edges such that at most `b(v)` selected
//! edges are incident to every node `v`.  The algorithms in `smr-matching`
//! produce [`Matching`] values; this module knows how to score them
//! (total weight), check feasibility, and compute the *average capacity
//! violation* ε′ that Figure 4 of the paper reports for StackMR:
//!
//! ```text
//! ε′ = 1/|V| · Σ_v max(|M(v)| − b(v), 0) / b(v)
//! ```

use crate::bipartite::{BipartiteGraph, EdgeId};
use crate::capacity::Capacities;
use crate::ids::NodeId;

/// A (possibly infeasible) set of selected edges of a specific graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    selected: Vec<bool>,
    num_selected: usize,
}

impl Matching {
    /// Creates an empty matching over a graph with `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        Matching {
            selected: vec![false; num_edges],
            num_selected: 0,
        }
    }

    /// Creates a matching from an explicit list of selected edge ids.
    pub fn from_edges(num_edges: usize, edges: impl IntoIterator<Item = EdgeId>) -> Self {
        let mut m = Matching::new(num_edges);
        for e in edges {
            m.insert(e);
        }
        m
    }

    /// Number of selected edges.
    pub fn len(&self) -> usize {
        self.num_selected
    }

    /// Whether no edge is selected.
    pub fn is_empty(&self) -> bool {
        self.num_selected == 0
    }

    /// Whether edge `e` is selected.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.selected[e]
    }

    /// Selects edge `e`.  Returns `true` if the edge was newly inserted.
    pub fn insert(&mut self, e: EdgeId) -> bool {
        if self.selected[e] {
            false
        } else {
            self.selected[e] = true;
            self.num_selected += 1;
            true
        }
    }

    /// Unselects edge `e`.  Returns `true` if the edge was present.
    pub fn remove(&mut self, e: EdgeId) -> bool {
        if self.selected[e] {
            self.selected[e] = false;
            self.num_selected -= 1;
            true
        } else {
            false
        }
    }

    /// Iterator over the selected edge ids in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.selected
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| if s { Some(i) } else { None })
    }

    /// Total weight of the selected edges.
    pub fn value(&self, graph: &BipartiteGraph) -> f64 {
        self.edges().map(|e| graph.edge(e).weight).sum()
    }

    /// Number of selected edges incident to `node` (`|M(v)|`).
    pub fn degree(&self, graph: &BipartiteGraph, node: NodeId) -> usize {
        graph
            .incident_edges(node)
            .iter()
            .filter(|&&e| self.selected[e])
            .count()
    }

    /// Whether every node respects its capacity.
    pub fn is_feasible(&self, graph: &BipartiteGraph, caps: &Capacities) -> bool {
        graph
            .nodes()
            .all(|v| self.degree(graph, v) as u64 <= caps.of(v))
    }

    /// Nodes whose capacity is exceeded, with their overflow `|M(v)| − b(v)`.
    pub fn violated_nodes(&self, graph: &BipartiteGraph, caps: &Capacities) -> Vec<(NodeId, u64)> {
        graph
            .nodes()
            .filter_map(|v| {
                let deg = self.degree(graph, v) as u64;
                let cap = caps.of(v);
                if deg > cap {
                    Some((v, deg - cap))
                } else {
                    None
                }
            })
            .collect()
    }

    /// The paper's average capacity violation ε′ (Section 6):
    /// `1/|V| · Σ_v max(|M(v)| − b(v), 0) / b(v)`.
    pub fn average_violation(&self, graph: &BipartiteGraph, caps: &Capacities) -> f64 {
        let num_nodes = graph.num_nodes();
        if num_nodes == 0 {
            return 0.0;
        }
        let sum: f64 = graph
            .nodes()
            .map(|v| {
                let deg = self.degree(graph, v) as f64;
                let cap = caps.of(v) as f64;
                ((deg - cap).max(0.0)) / cap
            })
            .sum();
        sum / num_nodes as f64
    }

    /// The worst single-node relative violation
    /// `max_v (|M(v)| − b(v))⁺ / b(v)`; StackMR guarantees this is at most
    /// ε.
    pub fn max_violation(&self, graph: &BipartiteGraph, caps: &Capacities) -> f64 {
        graph
            .nodes()
            .map(|v| {
                let deg = self.degree(graph, v) as f64;
                let cap = caps.of(v) as f64;
                ((deg - cap).max(0.0)) / cap
            })
            .fold(0.0, f64::max)
    }

    /// Returns the selected edges as a sorted vector (convenient for tests
    /// and serialization).
    pub fn to_edge_vec(&self) -> Vec<EdgeId> {
        self.edges().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::Edge;
    use crate::ids::{ConsumerId, ItemId};

    /// 2 items × 2 consumers complete bipartite graph.
    fn k22() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 2.0),
                Edge::new(ItemId(1), ConsumerId(0), 3.0),
                Edge::new(ItemId(1), ConsumerId(1), 4.0),
            ],
        )
    }

    #[test]
    fn insert_remove_and_len() {
        let mut m = Matching::new(4);
        assert!(m.is_empty());
        assert!(m.insert(2));
        assert!(!m.insert(2));
        assert!(m.contains(2));
        assert_eq!(m.len(), 1);
        assert!(m.remove(2));
        assert!(!m.remove(2));
        assert!(m.is_empty());
    }

    #[test]
    fn value_and_degree() {
        let g = k22();
        let m = Matching::from_edges(4, [0, 3]);
        assert!((m.value(&g) - 5.0).abs() < 1e-12);
        assert_eq!(m.degree(&g, NodeId::item(0)), 1);
        assert_eq!(m.degree(&g, NodeId::item(1)), 1);
        assert_eq!(m.degree(&g, NodeId::consumer(0)), 1);
        assert_eq!(m.degree(&g, NodeId::consumer(1)), 1);
    }

    #[test]
    fn feasibility_respects_capacities() {
        let g = k22();
        let caps1 = Capacities::uniform(&g, 1, 1);
        let perfect = Matching::from_edges(4, [1, 2]); // t0-c1, t1-c0
        assert!(perfect.is_feasible(&g, &caps1));
        let overloaded = Matching::from_edges(4, [0, 1]); // both edges of t0
        assert!(!overloaded.is_feasible(&g, &caps1));
        let caps2 = Capacities::uniform(&g, 2, 1);
        assert!(overloaded.is_feasible(&g, &caps2));
    }

    #[test]
    fn violation_measures() {
        let g = k22();
        let caps = Capacities::uniform(&g, 1, 1);
        // All four edges selected: every node has degree 2, capacity 1.
        let all = Matching::from_edges(4, [0, 1, 2, 3]);
        let violated = all.violated_nodes(&g, &caps);
        assert_eq!(violated.len(), 4);
        assert!(violated.iter().all(|&(_, overflow)| overflow == 1));
        // Every node overflows by 1/1 = 1.0, so the average is 1.0.
        assert!((all.average_violation(&g, &caps) - 1.0).abs() < 1e-12);
        assert!((all.max_violation(&g, &caps) - 1.0).abs() < 1e-12);
        // A feasible matching has zero violation.
        let ok = Matching::from_edges(4, [1, 2]);
        assert_eq!(ok.average_violation(&g, &caps), 0.0);
        assert_eq!(ok.max_violation(&g, &caps), 0.0);
        assert!(ok.violated_nodes(&g, &caps).is_empty());
    }

    #[test]
    fn empty_graph_has_zero_violation() {
        let g = BipartiteGraph::from_edges(0, 0, vec![]);
        let caps = Capacities::from_vectors(vec![], vec![]);
        let m = Matching::new(0);
        assert_eq!(m.average_violation(&g, &caps), 0.0);
        assert!(m.is_feasible(&g, &caps));
    }
}
