//! The centralized stack (primal-dual) algorithm of Section 5.2.
//!
//! The algorithm maintains one dual variable `y_v` per node.  In the *push*
//! phase edges are pushed on a stack: pushing `e = (u, v)` raises both of
//! its dual variables by
//!
//! ```text
//! δ(e) = (w(e) − y_u/b(u) − y_v/b(v)) / 2
//! ```
//!
//! Edges whose dual constraint becomes (weakly) satisfied are deleted from
//! the graph; the push phase ends when no edge is left.  In the *pop* phase
//! edges are popped in reverse order and included in the solution whenever
//! feasibility is maintained, so the centralized algorithm never violates
//! capacities.
//!
//! The MapReduce variant ([`crate::stack_mr`]) pushes whole *layers*
//! (maximal b-matchings) instead of single edges and allows bounded
//! capacity violations; this sequential version is simpler, always
//! feasible, and is used as a reference implementation in tests.

use smr_graph::{BipartiteGraph, Capacities, Matching, NodeId};

use crate::config::assert_valid_epsilon;

/// Dual variables for every node of a bipartite graph.
#[derive(Debug, Clone)]
pub(crate) struct DualVariables {
    item_y: Vec<f64>,
    consumer_y: Vec<f64>,
}

impl DualVariables {
    pub(crate) fn new(graph: &BipartiteGraph) -> Self {
        DualVariables {
            item_y: vec![0.0; graph.num_items()],
            consumer_y: vec![0.0; graph.num_consumers()],
        }
    }

    pub(crate) fn get(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Item(t) => self.item_y[t.index()],
            NodeId::Consumer(c) => self.consumer_y[c.index()],
        }
    }

    pub(crate) fn add(&mut self, node: NodeId, delta: f64) {
        match node {
            NodeId::Item(t) => self.item_y[t.index()] += delta,
            NodeId::Consumer(c) => self.consumer_y[c.index()] += delta,
        }
    }

    /// The left-hand side of the dual constraint of an edge:
    /// `y_u/b(u) + y_v/b(v)`.
    pub(crate) fn constraint_lhs(&self, caps: &Capacities, u: NodeId, v: NodeId) -> f64 {
        self.get(u) / caps.of(u) as f64 + self.get(v) / caps.of(v) as f64
    }

    /// Sum of all dual variables — an upper bound on the optimum primal
    /// value (weak duality), handy for approximation checks in tests.
    pub(crate) fn objective(&self) -> f64 {
        self.item_y.iter().sum::<f64>() + self.consumer_y.iter().sum::<f64>()
    }
}

/// The increment δ(e) applied to both dual variables when pushing an edge.
pub(crate) fn delta(weight: f64, lhs: f64) -> f64 {
    (weight - lhs) / 2.0
}

/// Whether an edge is weakly covered (Definition 1):
/// `y_u/b(u) + y_v/b(v) ≥ w(e) / (3 + 2ε)`.
pub(crate) fn is_weakly_covered(weight: f64, lhs: f64, epsilon: f64) -> bool {
    lhs >= weight / (3.0 + 2.0 * epsilon) - 1e-15
}

/// Runs the centralized stack algorithm.
///
/// `epsilon` plays the same role as in StackMR: it controls how quickly
/// edges become weakly covered during the push phase (larger ε ⇒ fewer
/// pushes).  The result is always feasible.
pub fn stack_matching(graph: &BipartiteGraph, caps: &Capacities, epsilon: f64) -> Matching {
    assert!(
        caps.matches(graph),
        "capacities were built for a different graph"
    );
    assert_valid_epsilon(epsilon);

    let mut duals = DualVariables::new(graph);
    let mut live: Vec<bool> = vec![true; graph.num_edges()];
    let mut live_count = graph.num_edges();
    let mut stack: Vec<usize> = Vec::new();

    // Push phase: sweep the live edges, pushing each and raising duals;
    // weakly covered edges leave the graph.  Every push raises the
    // constraint of the pushed edge by a constant fraction of its gap, so
    // the number of sweeps is O(b_max) in the worst case.
    while live_count > 0 {
        let mut removed_this_pass = 0usize;
        for (e, edge_live) in live.iter_mut().enumerate() {
            if !*edge_live {
                continue;
            }
            let edge = graph.edge(e);
            let u = NodeId::Item(edge.item);
            let v = NodeId::Consumer(edge.consumer);
            let lhs = duals.constraint_lhs(caps, u, v);
            if is_weakly_covered(edge.weight, lhs, epsilon) {
                *edge_live = false;
                removed_this_pass += 1;
                continue;
            }
            let d = delta(edge.weight, lhs);
            duals.add(u, d);
            duals.add(v, d);
            stack.push(e);
        }
        live_count -= removed_this_pass;
        // Nothing was removed in a full pass only if every remaining edge
        // was pushed; pushing strictly increases every pushed edge's
        // constraint so progress is guaranteed — but guard against float
        // stagnation anyway.
        if removed_this_pass == 0 && live_count > 0 && stack.len() > graph.num_edges() * 64 {
            // Extremely defensive: declare the remaining edges covered.
            live.fill(false);
            live_count = 0;
        }
    }

    // Pop phase: include edges popped from the stack whenever feasibility
    // is maintained.
    let mut item_residual: Vec<u64> = caps.item_capacities().to_vec();
    let mut consumer_residual: Vec<u64> = caps.consumer_capacities().to_vec();
    let mut matching = Matching::new(graph.num_edges());
    while let Some(e) = stack.pop() {
        if matching.contains(e) {
            continue;
        }
        let edge = graph.edge(e);
        let ti = edge.item.index();
        let ci = edge.consumer.index();
        if item_residual[ti] > 0 && consumer_residual[ci] > 0 {
            item_residual[ti] -= 1;
            consumer_residual[ci] -= 1;
            matching.insert(e);
        }
    }
    // Weak duality sanity check: scaling the duals by (3 + 2ε) makes them
    // feasible (every edge is at least weakly covered when it leaves the
    // graph), so (3 + 2ε)·Σy upper-bounds every feasible primal solution.
    debug_assert!(
        matching.value(graph) <= (3.0 + 2.0 * epsilon) * duals.objective() * (1.0 + 1e-9) + 1e-9
    );
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_matching;
    use smr_graph::{ConsumerId, Edge, ItemId};

    fn k33() -> (BipartiteGraph, Capacities) {
        let mut edges = Vec::new();
        let weights = [[3.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 4.0]];
        for (t, row) in weights.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                edges.push(Edge::new(ItemId(t as u32), ConsumerId(c as u32), w));
            }
        }
        let g = BipartiteGraph::from_edges(3, 3, edges);
        let caps = Capacities::uniform(&g, 1, 1);
        (g, caps)
    }

    #[test]
    fn stack_matching_is_feasible() {
        let (g, caps) = k33();
        let m = stack_matching(&g, &caps, 1.0);
        assert!(m.is_feasible(&g, &caps));
        assert!(!m.is_empty());
    }

    #[test]
    fn stack_matching_value_is_within_the_primal_dual_bound() {
        let (g, caps) = k33();
        let m = stack_matching(&g, &caps, 1.0);
        let opt = optimal_matching(&g, &caps);
        // The guarantee of the layered variant is 1/(6+ε); the sequential
        // variant does at least as well on these small instances.
        let ratio = m.value(&g) / opt.value(&g);
        assert!(
            ratio >= 1.0 / 7.0 - 1e-9,
            "approximation ratio {ratio} below guarantee"
        );
        assert!(ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn duals_upper_bound_the_matching_value() {
        // Weak duality: the dual objective after the push phase bounds the
        // optimum, hence also the produced matching value.
        let (g, caps) = k33();
        let mut duals = DualVariables::new(&g);
        // Simulate a couple of pushes by hand.
        for e in 0..g.num_edges() {
            let edge = g.edge(e);
            let u = NodeId::Item(edge.item);
            let v = NodeId::Consumer(edge.consumer);
            let lhs = duals.constraint_lhs(&caps, u, v);
            if !is_weakly_covered(edge.weight, lhs, 1.0) {
                let d = delta(edge.weight, lhs);
                duals.add(u, d);
                duals.add(v, d);
            }
        }
        assert!(duals.objective() > 0.0);
    }

    #[test]
    fn weak_coverage_threshold_scales_with_epsilon() {
        // lhs = 0.25, weight 1.0: covered for ε=1 (threshold 0.2) but not
        // for ε small (threshold ≈ 1/3).
        assert!(is_weakly_covered(1.0, 0.25, 1.0));
        assert!(!is_weakly_covered(1.0, 0.25, 0.01));
    }

    #[test]
    fn delta_halves_the_remaining_gap() {
        assert!((delta(1.0, 0.0) - 0.5).abs() < 1e-12);
        assert!((delta(1.0, 0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_returns_empty_matching() {
        let g = BipartiteGraph::from_edges(2, 2, vec![]);
        let caps = Capacities::uniform(&g, 1, 1);
        assert!(stack_matching(&g, &caps, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn infinite_epsilon_is_rejected() {
        let (g, caps) = k33();
        stack_matching(&g, &caps, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn nan_epsilon_is_rejected() {
        let (g, caps) = k33();
        stack_matching(&g, &caps, f64::NAN);
    }

    #[test]
    fn larger_capacities_allow_more_matched_edges() {
        let (g, caps1) = k33();
        let caps3 = Capacities::uniform(&g, 3, 3);
        let small = stack_matching(&g, &caps1, 1.0);
        let large = stack_matching(&g, &caps3, 1.0);
        assert!(large.len() >= small.len());
        assert!(large.value(&g) >= small.value(&g));
        assert!(large.is_feasible(&g, &caps3));
    }
}
