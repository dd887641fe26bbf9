//! Property-based tests for the graph-side data structures: matchings,
//! capacities, threshold filtering and histograms.

use proptest::prelude::*;
use smr_graph::stats::similarity_histogram;
use smr_graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId, Matching, NodeId};

/// A random bipartite graph with deduplicated edges.
fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..7, 1usize..7)
        .prop_flat_map(|(items, consumers)| {
            let edges = proptest::collection::vec(
                (0..items as u32, 0..consumers as u32, 0.01f64..1.0),
                0..(items * consumers + 1),
            );
            (Just(items), Just(consumers), edges)
        })
        .prop_map(|(items, consumers, raw)| {
            let mut seen = std::collections::HashSet::new();
            let edges: Vec<Edge> = raw
                .into_iter()
                .filter(|(t, c, _)| seen.insert((*t, *c)))
                .map(|(t, c, w)| Edge::new(ItemId(t), ConsumerId(c), w))
                .collect();
            BipartiteGraph::from_edges(items, consumers, edges)
        })
}

/// Checks the incidence against the edge list: every node lists exactly
/// the edges that touch it, ascending, and the degrees sum to `2|E|`.
fn incidence_matches_the_edge_list(graph: &BipartiteGraph) -> Result<(), TestCaseError> {
    for v in graph.nodes() {
        let touching: Vec<usize> = (0..graph.num_edges())
            .filter(|&e| graph.edge(e).touches(v))
            .collect();
        prop_assert_eq!(graph.incident_edges(v), &touching[..]);
    }
    let degree_sum: usize = graph.nodes().map(|v| graph.degree(v)).sum();
    prop_assert_eq!(degree_sum, 2 * graph.num_edges());
    Ok(())
}

#[test]
fn an_edgeless_graph_has_an_empty_incidence() {
    for (items, consumers) in [(0, 0), (3, 0), (0, 2), (3, 2)] {
        let graph = BipartiteGraph::from_edges(items, consumers, vec![]);
        incidence_matches_the_edge_list(&graph).unwrap();
        assert!(graph.nodes().all(|v| graph.incident_edges(v).is_empty()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incidence_lists_each_nodes_edges_ascending(graph in graph_strategy(), sigma in 0.0f64..1.0) {
        // Two more nodes per side that no edge touches, past the ones the
        // strategy leaves isolated.
        let padded = BipartiteGraph::from_edges(
            graph.num_items() + 2,
            graph.num_consumers() + 2,
            graph.edges().to_vec(),
        );
        incidence_matches_the_edge_list(&padded)?;
        incidence_matches_the_edge_list(&padded.filter_by_threshold(sigma))?;
    }

    #[test]
    fn adjacency_lists_the_same_edges_as_the_edge_list(graph in graph_strategy()) {
        // Every edge appears in exactly two adjacency lists (its item's and
        // its consumer's) and degrees sum to 2|E|.
        let degree_sum: usize = graph.nodes().map(|v| graph.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * graph.num_edges());
        for (id, edge) in graph.edges().iter().enumerate() {
            prop_assert!(graph.incident_edges(NodeId::Item(edge.item)).contains(&id));
            prop_assert!(graph.incident_edges(NodeId::Consumer(edge.consumer)).contains(&id));
        }
    }

    #[test]
    fn threshold_filtering_is_monotone_and_preserves_nodes(
        graph in graph_strategy(),
        sigma_lo in 0.0f64..0.5,
        delta in 0.0f64..0.5,
    ) {
        let sigma_hi = sigma_lo + delta;
        let lo = graph.filter_by_threshold(sigma_lo);
        let hi = graph.filter_by_threshold(sigma_hi);
        prop_assert!(hi.num_edges() <= lo.num_edges());
        prop_assert_eq!(lo.num_items(), graph.num_items());
        prop_assert_eq!(hi.num_consumers(), graph.num_consumers());
        prop_assert!(hi.edges().iter().all(|e| e.weight >= sigma_hi));
    }

    #[test]
    fn matching_insert_remove_roundtrip(
        graph in graph_strategy(),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..10),
    ) {
        if graph.num_edges() == 0 {
            return Ok(());
        }
        let mut matching = Matching::new(graph.num_edges());
        let mut reference = std::collections::BTreeSet::new();
        for pick in picks {
            let e = pick.index(graph.num_edges());
            if reference.contains(&e) {
                prop_assert!(!matching.insert(e));
                prop_assert!(matching.remove(e));
                reference.remove(&e);
            } else {
                prop_assert!(matching.insert(e));
                reference.insert(e);
            }
        }
        prop_assert_eq!(matching.len(), reference.len());
        prop_assert_eq!(matching.to_edge_vec(), reference.iter().copied().collect::<Vec<_>>());
        // Value equals the sum of the selected edges' weights.
        let expected: f64 = reference.iter().map(|&e| graph.edge(e).weight).sum();
        prop_assert!((matching.value(&graph) - expected).abs() < 1e-9);
    }

    #[test]
    fn degrees_never_exceed_capacity_when_feasible(
        graph in graph_strategy(),
        cap in 1u64..4,
    ) {
        let caps = Capacities::uniform(&graph, cap, cap);
        // Select edges greedily under the capacity, then check the
        // feasibility predicate agrees with the construction.
        let mut matching = Matching::new(graph.num_edges());
        let mut item_used = vec![0u64; graph.num_items()];
        let mut consumer_used = vec![0u64; graph.num_consumers()];
        for (id, edge) in graph.edges().iter().enumerate() {
            if item_used[edge.item.index()] < cap && consumer_used[edge.consumer.index()] < cap {
                item_used[edge.item.index()] += 1;
                consumer_used[edge.consumer.index()] += 1;
                matching.insert(id);
            }
        }
        prop_assert!(matching.is_feasible(&graph, &caps));
        prop_assert_eq!(matching.average_violation(&graph, &caps), 0.0);
        prop_assert!(matching.violated_nodes(&graph, &caps).is_empty());
    }

    #[test]
    fn similarity_histogram_counts_every_edge(graph in graph_strategy()) {
        let histogram = similarity_histogram(&graph, 8);
        let counted: u64 = histogram.counts.iter().sum::<u64>() + histogram.underflow;
        prop_assert_eq!(counted, graph.num_edges() as u64);
    }
}
