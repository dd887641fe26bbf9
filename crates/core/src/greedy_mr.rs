//! GreedyMR: the MapReduce adaptation of the greedy algorithm
//! (Section 5.4, Algorithm 3).
//!
//! Every round is one MapReduce job over the node-centric graph
//! representation, kept as partition-resident state
//! ([`smr_mapreduce::RoundState`]): a node's record stays in its partition and never
//! crosses the shuffle.
//!
//! * **notes** — only proposals cross the shuffle ([`RoundMsg`]): every
//!   live node `v` sends one across each of its `b(v)` heaviest live
//!   edges.  A live neighbour's edge that `v` does not propose gets no
//!   note, so a round shuffles `Σ min(b(v), deg v)` proposals, not one
//!   note per live adjacency entry.  The notes of round 1 come from a map
//!   pass over the seeded records; every later round's notes are emitted
//!   by the reducer that wrote the record the round before;
//! * **retirements** — a node retires once its matched degree reaches
//!   `b(v)`.  The driver counts each node's unmatched capacity down from
//!   `b(v)` over the matched edges each round reports, in a [`NodeTable`]
//!   the next round's reducer reads by reference: a neighbour at 0 has
//!   retired.  That is one entry per node in driver RAM, outside the
//!   memory budget, instead of a note across every edge the node still
//!   lists;
//! * **reduce** — every node gets its own record beside its notes and
//!   reads its capacity, adjacency and own proposals off the record (its
//!   `b(v)` heaviest live entries are kept in order at the front of its
//!   adjacency, so the proposals are that prefix; the rest is in no
//!   particular order); it holds each edge against the neighbour's note:
//!   edges proposed by *both* endpoints enter the solution (emitted as
//!   side output), the node's residual capacity is decreased
//!   accordingly, matched edges and edges whose neighbour retired are
//!   dropped from the adjacency, edges without a note stay, and the node
//!   keeps its record — and proposes again — or retires, once it has no
//!   capacity or no edge left.
//!
//! The algorithm stops when no live edge remains.  The solution grows
//! monotonically and is feasible after every round, which is the *any-time*
//! property highlighted in the paper (Figure 5): the run can be stopped at
//! any round and still return a valid b-matching.
//!
//! The run is a plain loop over [`smr_mapreduce::RoundState::round`] on a
//! [`FlowContext`], one round per [`FlowContext::mark_round`], so the
//! caller-provided flow of [`GreedyMr::run`] folds the rounds into a
//! larger pipeline's [`smr_mapreduce::FlowReport`].

use smr_graph::{BipartiteGraph, Capacities, EdgeId, Matching, NodeId};
use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::{Emitter, StateReducer};

use crate::config::GreedyMrConfig;
use crate::result::{AlgorithmKind, MatchingRun};
use crate::state::{build_node_records, peer_notes, NodeRecord, NodeTable, RoundMsg};

/// The message of a GreedyMR round: a neighbour's proposal of one edge,
/// one of its `b(v)` heaviest live edges (the note itself is the
/// payload).
type GreedyMsg = RoundMsg<()>;

/// The notes of a GreedyMR round about `record`: a proposal across each
/// of the node's `b(v)` heaviest live edges — the adjacency's prefix
/// that [`NodeRecord::select_heaviest`] put in order.
fn propose(_node: &NodeId, record: &NodeRecord, out: &mut Emitter<NodeId, GreedyMsg>) {
    for adj in &record.adjacency[..record.proposal_count()] {
        out.emit(adj.other, RoundMsg::new(adj.edge, ()));
    }
}

/// The reduce function of a GreedyMR round; its side output is the
/// matched edges, each reported by both endpoints.  It drops the edges
/// to the neighbours without unmatched capacity, which have retired, and
/// a node it keeps proposes for the next round.
struct IntersectReducer<'a> {
    /// Every node's capacity left unmatched by the end of the round before.
    unmatched: &'a NodeTable<u64>,
}

impl StateReducer for IntersectReducer<'_> {
    type Key = NodeId;
    type State = NodeRecord;
    type Note = GreedyMsg;
    type OutKey = EdgeId;
    type OutValue = ();

    fn reduce(
        &self,
        node: &NodeId,
        mut record: NodeRecord,
        msgs: &[GreedyMsg],
        out: &mut Emitter<EdgeId, ()>,
        next: &mut Emitter<NodeId, GreedyMsg>,
    ) -> Option<NodeRecord> {
        let capacity = record.capacity;
        let proposals = record.proposal_count();
        let received = peer_notes(msgs);

        let mut idx = 0;
        let mut matched = 0;
        let mut kept_proposals = 0;
        // Deletion keeps the relative order, so the proposals that stay
        // are still the heaviest entries, in order, at the front.
        record.adjacency.retain(|adj| {
            let proposed = idx < proposals;
            idx += 1;
            let keep = if self.unmatched[adj.other] == 0 {
                // The neighbour has retired: drop the edge.
                false
            } else if proposed && received.contains(adj.edge) {
                out.emit(adj.edge, ());
                matched += 1;
                false
            } else {
                // A live neighbour, proposing the edge or not: it stays,
                // unless this node has no capacity to match it.
                capacity > 0
            };
            kept_proposals += usize::from(proposed && keep);
            keep
        });
        record.capacity = capacity - matched;
        // A node whose capacity reached zero retires, and its neighbours
        // read that from the driver's table next round; a node without
        // edges retires too.
        if record.capacity == 0 || record.is_isolated() {
            return None;
        }
        // Refill the proposals the round matched or dropped from the
        // unordered rest.
        record.select_heaviest(kept_proposals);
        propose(node, &record, next);
        Some(record)
    }
}

/// The GreedyMR algorithm.
#[derive(Debug, Clone, Default)]
pub struct GreedyMr {
    config: GreedyMrConfig,
}

impl GreedyMr {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: GreedyMrConfig) -> Self {
        GreedyMr { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GreedyMrConfig {
        &self.config
    }

    /// Runs GreedyMR with every round's job built through `flow`: the
    /// flow's `JobConfig` governs the engine (threads, shuffle mode,
    /// reduce tasks) and every round reports into the flow's
    /// [`smr_mapreduce::FlowReport`], unified with whatever other jobs the
    /// surrounding pipeline ran.
    ///
    /// Between rounds the surviving node records stay in their
    /// partitions of a [`smr_mapreduce::RoundState`] — in RAM within the memory budget's
    /// share per reduce task, in run files above it — and matched-out
    /// nodes retire from it as their reducers decide.  The driver keeps
    /// each node's unmatched capacity beside the state, one entry per
    /// node, updated from every round's matched edges.
    pub fn run(
        &self,
        graph: &BipartiteGraph,
        caps: &Capacities,
        flow: &FlowContext,
    ) -> MatchingRun {
        let mut state = flow.round_state("greedy-rounds");
        state.seed(
            build_node_records(graph, caps, |_| true)
                .into_iter()
                .map(|(node, mut record)| {
                    // Only the first proposals are put in order; each
                    // round refills the ones it takes away.
                    record.select_heaviest(0);
                    (node, record)
                })
                .collect(),
        );
        state.map(propose);

        // An edgeless graph runs zero rounds (and zero jobs).
        let jobs_start = flow.num_jobs();
        let mut matching = Matching::new(graph.num_edges());
        let mut unmatched = NodeTable::for_graph(graph, 0);
        for v in graph.nodes() {
            unmatched[v] = caps.of(v);
        }
        // The matched edge ids, ascending: summing their weights in this
        // order makes `Matching::value`'s additions in O(|M|), not O(|E|).
        let mut matched: Vec<EdgeId> = Vec::new();
        let mut value_per_round = Vec::new();
        while !state.is_empty() && value_per_round.len() < self.config.max_rounds {
            flow.mark_round();
            let round = value_per_round.len();
            let sorted = matched.len();
            // Progress is guaranteed: the globally heaviest live edge is
            // the heaviest live edge of both of its endpoints, so both
            // propose it and it is matched.
            let reducer = IntersectReducer {
                unmatched: &unmatched,
            };
            for (edge, ()) in state.round(format!("round-{round}"), reducer) {
                // Both endpoints report the edge; count it once.
                if matching.insert(edge) {
                    matched.push(edge);
                    let edge = graph.edge(edge);
                    for v in [NodeId::Item(edge.item), NodeId::Consumer(edge.consumer)] {
                        unmatched[v] -= 1;
                    }
                }
            }
            // Two ascending runs: the stable sort merges them in one pass.
            matched[sorted..].sort_unstable();
            matched.sort();
            value_per_round.push(matched.iter().map(|&e| graph.edge(e).weight).sum());
        }

        let rounds = value_per_round.len();
        MatchingRun {
            algorithm: AlgorithmKind::GreedyMr,
            matching,
            mr_jobs: rounds,
            rounds,
            value_per_round,
            job_metrics: flow.jobs_from(jobs_start),
            max_round_state_bytes: state.max_state_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_matching;
    use crate::greedy::greedy_matching;
    use crate::state::AdjEdge;
    use smr_graph::{ConsumerId, Edge, GraphBuilder, ItemId};
    use smr_mapreduce::JobConfig;

    fn job() -> JobConfig {
        JobConfig::named("greedy-mr-test").with_threads(2)
    }

    /// Test helper: run under a throwaway flow.
    fn run(alg: GreedyMr, g: &BipartiteGraph, caps: &Capacities) -> MatchingRun {
        alg.run(g, caps, &FlowContext::new(job()))
    }

    fn small_instance() -> (BipartiteGraph, Capacities) {
        let g = BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 2.0),
                Edge::new(ItemId(1), ConsumerId(0), 3.0),
                Edge::new(ItemId(1), ConsumerId(1), 1.0),
            ],
        );
        let caps = Capacities::uniform(&g, 1, 1);
        (g, caps)
    }

    #[test]
    fn greedy_mr_finds_the_same_value_as_centralized_greedy_on_unique_weights() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        let centralized = greedy_matching(&g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        // With all-distinct weights both algorithms pick the same edges.
        assert_eq!(run.matching.to_edge_vec(), centralized.to_edge_vec());
        assert!((run.value(&g) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_mr_is_feasible_and_half_optimal_on_a_larger_instance() {
        let mut b = GraphBuilder::new();
        let items: Vec<ItemId> = (0..6).map(|i| b.add_item(format!("t{i}"))).collect();
        let consumers: Vec<ConsumerId> = (0..8).map(|i| b.add_consumer(format!("c{i}"))).collect();
        // Deterministic pseudo-random weights.
        let mut w = 0.37_f64;
        for (ti, &t) in items.iter().enumerate() {
            for (ci, &c) in consumers.iter().enumerate() {
                if (ti + ci) % 3 != 0 {
                    w = (w * 997.0 + 0.123).fract().max(0.01);
                    b.add_edge(t, c, w);
                }
            }
        }
        let g = b.build();
        let caps = Capacities::uniform(&g, 3, 2);
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        let opt = optimal_matching(&g, &caps);
        assert!(
            run.value(&g) >= 0.5 * opt.value(&g) - 1e-9,
            "GreedyMR value {} below half of optimal {}",
            run.value(&g),
            opt.value(&g)
        );
    }

    #[test]
    fn matches_centralized_greedy_when_degrees_outgrow_the_proposals() {
        // Degrees of 60 and 40 against capacities of 4 and 2: a node
        // proposes from a short ordered prefix of a long unordered
        // adjacency, and re-selects the proposals a round takes away.
        let mut b = GraphBuilder::new();
        let items: Vec<ItemId> = (0..40).map(|i| b.add_item(format!("t{i}"))).collect();
        let consumers: Vec<ConsumerId> = (0..60).map(|i| b.add_consumer(format!("c{i}"))).collect();
        let mut w = 0.61_f64;
        for &t in &items {
            for &c in &consumers {
                // Eight weight levels: many ties, broken by edge id.
                w = (w * 997.0 + 0.123).fract();
                b.add_edge(t, c, 0.125 + (w * 8.0).floor() / 8.0);
            }
        }
        let g = b.build();
        let caps = Capacities::uniform(&g, 4, 2);
        // Bounded, so a round that stops making progress fails the test
        // instead of running forever.
        let config = GreedyMrConfig::default().with_max_rounds(500);
        let run = run(GreedyMr::new(config), &g, &caps);
        assert!(run.rounds < 500);
        assert_eq!(run.matching, greedy_matching(&g, &caps));
    }

    #[test]
    fn value_trace_is_monotone_and_any_time() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert!(!run.value_per_round.is_empty());
        for pair in run.value_per_round.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12, "value decreased across rounds");
        }
        assert!((run.value_per_round.last().unwrap() - run.value(&g)).abs() < 1e-12);
    }

    #[test]
    fn rounds_and_jobs_are_counted() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert!(run.rounds >= 1);
        assert_eq!(run.mr_jobs, run.rounds);
        assert_eq!(run.job_metrics.len(), run.mr_jobs);
        assert!(run.total_shuffled_records() > 0);
    }

    #[test]
    fn empty_graph_finishes_without_rounds() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]);
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert_eq!(run.rounds, 0);
        assert!(run.matching.is_empty());
    }

    #[test]
    fn increasing_weight_path_needs_many_rounds() {
        // The worst-case instance of Section 5.4: a path with increasing
        // weights causes a chain of cascading updates.
        let n = 12usize;
        let mut builder = GraphBuilder::new();
        let items: Vec<ItemId> = (0..n).map(|i| builder.add_item(format!("t{i}"))).collect();
        let consumers: Vec<ConsumerId> = (0..n)
            .map(|i| builder.add_consumer(format!("c{i}")))
            .collect();
        // Path t0 - c0 - t1 - c1 - t2 ... with strictly increasing weights.
        let mut weight = 1.0;
        for i in 0..n {
            builder.add_edge(items[i], consumers[i], weight);
            weight += 1.0;
            if i + 1 < n {
                builder.add_edge(items[i + 1], consumers[i], weight);
                weight += 1.0;
            }
        }
        let g = builder.build();
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        // The number of rounds grows with the path length (not O(1)).
        assert!(
            run.rounds >= n / 2,
            "expected at least {} rounds on the adversarial path, got {}",
            n / 2,
            run.rounds
        );
    }

    #[test]
    fn shared_flow_reports_every_round_of_the_run() {
        use smr_mapreduce::flow::FlowContext;
        let (g, caps) = small_instance();
        let baseline = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);

        let flow = FlowContext::new(job());
        let run = GreedyMr::new(GreedyMrConfig::default()).run(&g, &caps, &flow);

        // Same result as the self-contained entry point…
        assert_eq!(run.matching.to_edge_vec(), baseline.matching.to_edge_vec());
        assert_eq!(run.rounds, baseline.rounds);
        assert_eq!(
            run.total_shuffled_records(),
            baseline.total_shuffled_records()
        );
        // …and every round's job visible in the shared flow report.
        let report = flow.report();
        assert_eq!(report.num_jobs(), run.mr_jobs);
        assert_eq!(
            report.total_shuffled_records(),
            run.total_shuffled_records()
        );
        assert_eq!(report.jobs[0].job_name, "greedy-mr-test-round-0");
    }

    #[test]
    fn spilled_and_in_memory_runs_agree_on_the_matching() {
        let (g, caps) = small_instance();
        let in_memory = GreedyMr::new(GreedyMrConfig::default()).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(None)),
        );
        let spilled = GreedyMr::new(GreedyMrConfig::default()).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(Some(64))),
        );
        assert_eq!(
            spilled.matching.to_edge_vec(),
            in_memory.matching.to_edge_vec()
        );
        assert_eq!(spilled.rounds, in_memory.rounds);
        assert_eq!(
            spilled.total_shuffled_records(),
            in_memory.total_shuffled_records(),
            "every emitted note is shuffled, so spilling must not change the record flow"
        );
        assert!(
            spilled.job_metrics.iter().map(|m| m.disk_runs).sum::<u64>() > 0,
            "a 64-byte budget must force disk runs"
        );
    }

    /// The unmatched capacities of a round-state test: `retired` at 0,
    /// every other node of a 2×2 graph live at 1.
    fn unmatched_table(retired: &[NodeId]) -> NodeTable<u64> {
        let mut table = NodeTable::new(2, 2, 1);
        for &v in retired {
            table[v] = 0;
        }
        table
    }

    #[test]
    fn a_saturated_node_retires_and_its_neighbours_drop_the_edge_in_the_same_round() {
        // Item 0 saturated in an earlier round: it has no record left, and
        // the driver's table holds no capacity for it.  Consumer 0 still
        // lists edge 0 to it, the heavier of its two edges.
        let (t0, t1, c0) = (NodeId::item(0), NodeId::item(1), NodeId::consumer(0));
        let unmatched = unmatched_table(&[t0]);
        let records = vec![
            (t1, NodeRecord::new(1, vec![AdjEdge::new(1, c0, 1.0)])),
            (
                c0,
                NodeRecord::new(1, vec![AdjEdge::new(0, t0, 2.0), AdjEdge::new(1, t1, 1.0)]),
            ),
        ];
        // The round by hand: every node's notes, routed to their
        // receivers, then every node's reducer over its own record.
        let mut sent: std::collections::BTreeMap<NodeId, Vec<GreedyMsg>> = Default::default();
        for (node, record) in &records {
            let mut out = Emitter::new();
            propose(node, record, &mut out);
            for (to, note) in out.into_pairs() {
                sent.entry(to).or_default().push(note);
            }
        }
        // Item 1 and consumer 0 propose their heaviest edges, 1 and 0;
        // consumer 0's edge 1 gets no note, and no note says that item 0
        // retired.
        assert_eq!(sent[&c0], vec![RoundMsg::new(1, ())]);
        assert_eq!(sent[&t0], vec![RoundMsg::new(0, ())]);
        assert!(!sent.contains_key(&t1));
        let mut matched = Emitter::new();
        let mut proposals = Emitter::new();
        let reducer = IntersectReducer {
            unmatched: &unmatched,
        };
        let next: Vec<Option<NodeRecord>> = records
            .iter()
            .map(|(node, record)| {
                let own = sent.get(node).map_or(&[][..], Vec::as_slice);
                reducer.reduce(node, record.clone(), own, &mut matched, &mut proposals)
            })
            .collect();
        assert_eq!(
            next,
            vec![
                Some(NodeRecord::new(1, vec![AdjEdge::new(1, c0, 1.0)])),
                // Consumer 0 proposed edge 0 in vain; edge 1 lives on.
                Some(NodeRecord::new(1, vec![AdjEdge::new(1, t1, 1.0)])),
            ]
        );
        assert!(matched.is_empty());
        // The kept nodes propose edge 1 to each other for the next round.
        assert_eq!(
            proposals.into_pairs(),
            vec![(c0, RoundMsg::new(1, ())), (t1, RoundMsg::new(1, ()))]
        );

        // Through the engine: the 2 proposals cross the shuffle (the one
        // to item 0 finds no record), the records do not, and both nodes
        // stay.
        let flow = FlowContext::new(job());
        let mut state = flow.round_state("saturated");
        state.seed(records);
        state.map(propose);
        assert!(state.round("r", reducer).is_empty());
        assert_eq!(state.len(), 2);
        assert_eq!(flow.report().total_shuffled_records(), 2);
    }

    #[test]
    fn a_retired_neighbour_is_dropped_without_a_note() {
        // Consumer 0 (capacity 2) proposes both its edges, and item 1
        // proposes edge 1 back.  Item 0 has retired and sent no
        // note: edge 0 is dropped unmatched, edge 1 is matched.
        let (t0, t1, c0) = (NodeId::item(0), NodeId::item(1), NodeId::consumer(0));
        let record = NodeRecord::new(2, vec![AdjEdge::new(0, t0, 2.0), AdjEdge::new(1, t1, 1.0)]);
        let mut matched = Emitter::new();
        let mut next = Emitter::new();
        let kept = IntersectReducer {
            unmatched: &unmatched_table(&[t0]),
        }
        .reduce(
            &c0,
            record.clone(),
            &[RoundMsg::new(1, ())],
            &mut matched,
            &mut next,
        );
        assert_eq!(kept, None, "no edge left");
        assert_eq!(matched.into_pairs(), vec![(1, ())]);
        assert!(next.is_empty(), "an isolated node proposes nothing");

        // With item 0 live, the same notes keep edge 0 for the next round.
        let mut matched = Emitter::new();
        let mut next = Emitter::new();
        let kept = IntersectReducer {
            unmatched: &unmatched_table(&[]),
        }
        .reduce(
            &c0,
            record,
            &[RoundMsg::new(1, ())],
            &mut matched,
            &mut next,
        );
        assert_eq!(
            kept,
            Some(NodeRecord::new(1, vec![AdjEdge::new(0, t0, 2.0)]))
        );
        assert_eq!(matched.into_pairs(), vec![(1, ())]);
        assert_eq!(next.into_pairs(), vec![(t0, RoundMsg::new(0, ()))]);
    }

    #[test]
    fn a_node_that_saturates_retires_without_a_note() {
        // Item 0 (capacity 1) and consumer 0 propose edge 0 to each other
        // and match it; item 0 is then saturated but still lists edge 1,
        // which consumer 1 proposed.  It retires and sends nothing: the
        // driver counts its capacity down from the matched edge.
        let (t0, c0, c1) = (NodeId::item(0), NodeId::consumer(0), NodeId::consumer(1));
        let t0_record =
            NodeRecord::new(1, vec![AdjEdge::new(0, c0, 2.0), AdjEdge::new(1, c1, 1.0)]);
        let mut matched = Emitter::new();
        let mut next = Emitter::new();
        let kept = IntersectReducer {
            unmatched: &unmatched_table(&[]),
        }
        .reduce(
            &t0,
            t0_record,
            &[RoundMsg::new(1, ()), RoundMsg::new(0, ())],
            &mut matched,
            &mut next,
        );
        assert_eq!(kept, None);
        assert_eq!(matched.into_pairs(), vec![(0, ())]);
        assert!(next.is_empty());
    }

    #[test]
    fn respects_round_budget() {
        let (g, caps) = small_instance();
        let run = run(
            GreedyMr::new(GreedyMrConfig::default().with_max_rounds(1)),
            &g,
            &caps,
        );
        assert_eq!(run.rounds, 1);
        // Still feasible (any-time property).
        assert!(run.matching.is_feasible(&g, &caps));
    }

    #[test]
    fn capacities_above_degree_match_every_edge() {
        let (g, _) = small_instance();
        let caps = Capacities::uniform(&g, 10, 10);
        let run = run(GreedyMr::new(GreedyMrConfig::default()), &g, &caps);
        assert_eq!(run.matching.len(), g.num_edges());
    }
}
