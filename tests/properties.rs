//! Property-based tests (proptest) for the core invariants of the
//! reproduction:
//!
//! * the centralized greedy and GreedyMR always produce feasible matchings
//!   worth at least half of the optimum,
//! * GreedyMR's rounds — matching, round count, any-time trace, records
//!   shuffled — equal a direct simulation of the paper's Algorithm 3, and
//!   on the increasing-weight path of Section 5.4 it needs one round per
//!   edge and still equals the centralized greedy,
//! * StackMR never violates capacities by more than the (1+ε) factor and
//!   achieves its 1/(6+ε) guarantee,
//! * the exact solver dominates every approximation,
//! * the MapReduce engine computes the same result as a sequential
//!   reference regardless of task/thread configuration,
//! * sparse-vector algebra behaves like algebra.

use proptest::prelude::*;

use social_content_matching::datagen::pathological::increasing_weight_path;
use social_content_matching::graph::{
    BipartiteGraph, Capacities, ConsumerId, Edge, EdgeId, ItemId, Matching, NodeId,
};
use social_content_matching::mapreduce::prelude::*;
use social_content_matching::matching::{
    greedy_matching, optimal_matching, stack_matching, GreedyMr, GreedyMrConfig, StackMr,
    StackMrConfig,
};
use social_content_matching::text::{SparseVector, TermId};

/// A random small b-matching instance: a bipartite graph with up to
/// 6 × 6 nodes, random edges with positive weights, and random capacities.
fn instance_strategy() -> impl Strategy<Value = (BipartiteGraph, Capacities)> {
    instance_strategy_with(false)
}

/// [`instance_strategy`] where, when `ties`, every third instance carries
/// one weight on all edges, so only the edge-id tie-break orders them.
/// (Capacities start at 1: [`Capacities`] rejects zero by construction.)
fn instance_strategy_with(ties: bool) -> impl Strategy<Value = (BipartiteGraph, Capacities)> {
    (2usize..6, 2usize..6, 0u8..if ties { 3 } else { 1 })
        .prop_flat_map(move |(items, consumers, tie)| {
            let edge_strategy = proptest::collection::vec(
                (0..items as u32, 0..consumers as u32, 0.01f64..1.0),
                1..(items * consumers + 1),
            );
            let item_caps = proptest::collection::vec(1u64..4, items);
            let consumer_caps = proptest::collection::vec(1u64..4, consumers);
            (
                Just((items, consumers, tie == 2)),
                edge_strategy,
                item_caps,
                consumer_caps,
            )
        })
        .prop_map(
            |((items, consumers, tied), raw_edges, item_caps, consumer_caps)| {
                // Deduplicate parallel edges to keep instances clean.
                let mut seen = std::collections::HashSet::new();
                let mut edges = Vec::new();
                for (t, c, w) in raw_edges {
                    if seen.insert((t, c)) {
                        let w = if tied { 0.5 } else { w };
                        edges.push(Edge::new(ItemId(t), ConsumerId(c), w));
                    }
                }
                let graph = BipartiteGraph::from_edges(items, consumers, edges);
                let caps = Capacities::from_vectors(item_caps, consumer_caps);
                (graph, caps)
            },
        )
}

/// The instances of the Algorithm-3 oracle: three in four are
/// [`instance_strategy_with`]`(true)`; the fourth is GreedyMR's worst case
/// of Section 5.4, the increasing-weight path over `k ∈ 2..=64` nodes,
/// returned with its `k`.
fn algorithm_3_instance_strategy(
) -> impl Strategy<Value = (BipartiteGraph, Capacities, Option<usize>)> {
    (instance_strategy_with(true), 0u8..4, 2usize..=64).prop_map(|((graph, caps), arm, k)| {
        if arm == 0 {
            let (graph, caps) = increasing_weight_path(k);
            (graph, caps, Some(k))
        } else {
            (graph, caps, None)
        }
    })
}

/// What a GreedyMR run must report, from a direct simulation of the
/// paper's Algorithm 3 on the whole graph.
struct GreedyModel {
    matching: Matching,
    value_per_round: Vec<f64>,
    /// Per round: the notes that cross the shuffle — one per proposal.
    /// The node records stay in their state partitions, and retirements
    /// reach the neighbours as the driver's side data, not as notes.
    shuffle_records: Vec<u64>,
}

/// Per round: every live node proposes its `b(v)` heaviest live edges
/// (ties to the lower edge id); an edge proposed from both ends matches;
/// an edge whose other end is saturated or has retired drops; a node left
/// without capacity or without edges retires.
fn simulate_algorithm_3(graph: &BipartiteGraph, caps: &Capacities) -> GreedyModel {
    use std::collections::BTreeMap;
    // A live node: (residual capacity, live edges heaviest first).
    let mut live: BTreeMap<NodeId, (u64, Vec<EdgeId>)> = graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .map(|v| {
            let mut edges = graph.incident_edges(v).to_vec();
            edges.sort_by(|&a, &b| {
                let (wa, wb) = (graph.edge(a).weight, graph.edge(b).weight);
                wb.partial_cmp(&wa).unwrap().then(a.cmp(&b))
            });
            (v, (caps.of(v), edges))
        })
        .collect();
    let mut model = GreedyModel {
        matching: Matching::new(graph.num_edges()),
        value_per_round: Vec::new(),
        shuffle_records: Vec::new(),
    };
    while !live.is_empty() {
        let proposals: u64 = live
            .values()
            .map(|(cap, edges)| edges.len().min(*cap as usize) as u64)
            .sum();
        model.shuffle_records.push(proposals);
        let proposes = |v: NodeId, e: EdgeId| {
            live.get(&v)
                .is_some_and(|(cap, edges)| edges.iter().take(*cap as usize).any(|&p| p == e))
        };
        let mut next = BTreeMap::new();
        for (&v, (cap, edges)) in &live {
            let mut left = *cap;
            let mut kept = Vec::new();
            for &e in edges {
                let u = graph.edge(e).other_endpoint(v);
                // The other end still lists the edge, or it has retired.
                let Some((cap_u, _)) = live.get(&u).filter(|(_, es)| es.contains(&e)) else {
                    continue;
                };
                if proposes(v, e) && proposes(u, e) {
                    model.matching.insert(e);
                    left -= 1;
                } else if *cap > 0 && *cap_u > 0 {
                    kept.push(e);
                }
            }
            if left > 0 && !kept.is_empty() {
                next.insert(v, (left, kept));
            }
        }
        live = next;
        model.value_per_round.push(model.matching.value(graph));
    }
    model
}

fn single_thread_job(name: &str) -> JobConfig {
    JobConfig::named(name).with_threads(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_is_feasible_and_half_optimal((graph, caps) in instance_strategy()) {
        let greedy = greedy_matching(&graph, &caps);
        let optimal = optimal_matching(&graph, &caps);
        prop_assert!(greedy.is_feasible(&graph, &caps));
        prop_assert!(optimal.is_feasible(&graph, &caps));
        prop_assert!(greedy.value(&graph) <= optimal.value(&graph) + 1e-9);
        prop_assert!(greedy.value(&graph) >= 0.5 * optimal.value(&graph) - 1e-9);
    }

    #[test]
    fn greedy_mr_is_feasible_and_half_optimal((graph, caps) in instance_strategy()) {
        let run = GreedyMr::new(GreedyMrConfig::default())
            .run(&graph, &caps, &FlowContext::new(single_thread_job("prop-greedy-mr")));
        let optimal = optimal_matching(&graph, &caps);
        prop_assert!(run.matching.is_feasible(&graph, &caps));
        prop_assert!(run.value(&graph) <= optimal.value(&graph) + 1e-9);
        prop_assert!(run.value(&graph) >= 0.5 * optimal.value(&graph) - 1e-9);
        // The any-time trace never decreases.
        for window in run.value_per_round.windows(2) {
            prop_assert!(window[1] >= window[0] - 1e-12);
        }
    }

    #[test]
    fn greedy_mr_rounds_equal_a_simulation_of_algorithm_3(
        (graph, caps, path) in algorithm_3_instance_strategy(),
        threads in 1usize..3,
        spill in any::<bool>(),
    ) {
        // A 64-byte budget puts every state partition of these small
        // instances in a run file (4 KiB would hold them all in RAM);
        // the model holds either way.
        let budget = spill.then_some(64);
        let job = JobConfig::named("prop-greedy-model")
            .with_threads(threads)
            .with_memory_budget(budget);
        let run = GreedyMr::new(GreedyMrConfig::default())
            .run(&graph, &caps, &FlowContext::new(job));
        let model = simulate_algorithm_3(&graph, &caps);
        prop_assert_eq!(run.matching.to_edge_vec(), model.matching.to_edge_vec());
        prop_assert_eq!(run.rounds, model.shuffle_records.len());
        prop_assert_eq!(&run.value_per_round, &model.value_per_round);
        let shuffled: Vec<u64> = run.job_metrics.iter().map(|m| m.shuffle_records).collect();
        prop_assert_eq!(shuffled, model.shuffle_records);
        prop_assert!(run.matching.is_feasible(&graph, &caps));
        // The worst case: cascading updates cost one round per edge, and
        // the result is still the centralized greedy's.
        if let Some(k) = path {
            prop_assert_eq!(run.rounds, k - 1);
            prop_assert_eq!(&run.matching, &greedy_matching(&graph, &caps));
        }
    }

    #[test]
    fn stack_mr_respects_violation_bound_and_guarantee((graph, caps) in instance_strategy()) {
        let epsilon = 1.0;
        let run = StackMr::new(StackMrConfig::default().with_epsilon(epsilon).with_seed(99))
            .run(&graph, &caps, &FlowContext::new(single_thread_job("prop-stack-mr")));
        let optimal = optimal_matching(&graph, &caps);
        prop_assert!(run.matching.max_violation(&graph, &caps) <= epsilon + 1e-9);
        prop_assert!(
            run.value(&graph) >= optimal.value(&graph) / (6.0 + epsilon) - 1e-9,
            "StackMR value {} below guarantee of optimum {}",
            run.value(&graph),
            optimal.value(&graph)
        );
    }

    #[test]
    fn centralized_stack_is_feasible_and_dominated_by_the_optimum((graph, caps) in instance_strategy()) {
        let stack = stack_matching(&graph, &caps, 1.0);
        let optimal = optimal_matching(&graph, &caps);
        prop_assert!(stack.is_feasible(&graph, &caps));
        prop_assert!(stack.value(&graph) <= optimal.value(&graph) + 1e-9);
        prop_assert!(stack.value(&graph) >= optimal.value(&graph) / 7.0 - 1e-9);
    }

    #[test]
    fn engine_aggregation_is_configuration_independent(
        values in proptest::collection::vec((0u32..20, 1u64..100), 1..60),
        map_tasks in 1usize..6,
        reduce_tasks in 1usize..5,
        threads in 1usize..4,
    ) {
        struct Identity;
        impl Mapper for Identity {
            type InKey = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = u64;
            fn map(&self, k: &u32, v: &u64, out: &mut Emitter<u32, u64>) {
                out.emit(*k, *v);
            }
        }
        struct Sum;
        impl Reducer for Sum {
            type Key = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = u64;
            fn reduce(&self, k: &u32, vs: &[u64], out: &mut Emitter<u32, u64>) {
                out.emit(*k, vs.iter().sum());
            }
        }
        // Sequential reference.
        let mut expected = std::collections::BTreeMap::new();
        for (k, v) in &values {
            *expected.entry(*k).or_insert(0u64) += v;
        }
        let job = Job::new(
            JobConfig::named("prop-engine")
                .with_map_tasks(map_tasks)
                .with_reduce_tasks(reduce_tasks)
                .with_threads(threads),
        );
        let result = job.run(&Identity, &Sum, values);
        let got: std::collections::BTreeMap<u32, u64> = result.output.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sparse_vector_algebra_behaves(
        a in proptest::collection::vec((0u32..30, -2.0f64..2.0), 0..15),
        b in proptest::collection::vec((0u32..30, -2.0f64..2.0), 0..15),
    ) {
        let va = SparseVector::from_entries(a.iter().map(|&(t, w)| (TermId(t), w)));
        let vb = SparseVector::from_entries(b.iter().map(|&(t, w)| (TermId(t), w)));
        // Dot product is symmetric.
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
        // Cauchy–Schwarz.
        prop_assert!(va.dot(&vb).abs() <= va.norm() * vb.norm() + 1e-9);
        // Normalization yields unit (or zero) norm and preserves direction.
        let na = va.normalized();
        if va.norm() > 0.0 {
            prop_assert!((na.norm() - 1.0).abs() < 1e-9);
            prop_assert!(na.dot(&va) >= -1e-9);
        } else {
            prop_assert!(na.is_empty());
        }
    }

    #[test]
    fn matching_violation_is_zero_iff_feasible((graph, caps) in instance_strategy()) {
        let run = GreedyMr::new(GreedyMrConfig::default())
            .run(&graph, &caps, &FlowContext::new(single_thread_job("prop-violation")));
        let feasible = run.matching.is_feasible(&graph, &caps);
        let avg = run.matching.average_violation(&graph, &caps);
        let max = run.matching.max_violation(&graph, &caps);
        prop_assert_eq!(feasible, max == 0.0);
        prop_assert!(avg <= max + 1e-12);
    }
}
