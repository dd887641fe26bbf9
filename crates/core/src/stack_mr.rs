//! StackMR and StackGreedyMR: the primal-dual stack algorithm in MapReduce
//! (Sections 5.2 and 5.3, Algorithm 2).
//!
//! The algorithm maintains a dual variable `y_v` per node and a distributed
//! stack of *layers*.  Each **push round**:
//!
//! 1. removes every edge that has become *weakly covered*
//!    (`y_u/b(u) + y_v/b(v) ≥ w(e)/(3+2ε)`, Definition 1) — one MapReduce
//!    job;
//! 2. computes a maximal b-matching of the remaining graph with per-node
//!    capacity `max(1, ⌈ε·b(v)⌉)` using the four-stage randomized algorithm
//!    of [`crate::maximal`] — four MapReduce jobs per Garrido iteration;
//! 3. pushes the matching on the stack as a new layer and raises the dual
//!    variables of its edges by `δ(e) = (w(e) − y_u/b(u) − y_v/b(v))/2` —
//!    one MapReduce job.
//!
//! When no edge is left, the **pop phase** pops layers from the top; the
//! edges of a layer are included in the solution in parallel provided both
//! endpoints still have residual capacity; nodes whose capacity is
//! exhausted (or exceeded) drop out together with their remaining stacked
//! edges — one MapReduce job per layer.
//!
//! Because a popped layer can add up to `⌈ε·b(v)⌉` edges to a node that
//! still had one unit of residual capacity, capacities can be violated by a
//! factor of at most `(1+ε)`; the approximation guarantee is `1/(6+ε)`
//! (Theorem 1).  With the paper's experimental setting ε = 1, observed
//! violations stay in the single-digit percent range (Figure 4).
//!
//! Every job is a round over partition-resident state
//! ([`smr_mapreduce::RoundState`]) of [`NodeRecord`]s: the push rounds
//! over each node's capacity `b(v)` and live edges, the maximal matcher
//! over its working records, the pop rounds over each node's residual
//! capacity and stacked edges.  A node's record stays in its partition,
//! and its reducer gets it beside the notes its neighbours sent across
//! their shared edges.
//!
//! **Which notes travel.**  Both tests of the push phase read the ratio
//! `y_u/b(u)` of the neighbour across each live edge.  That is a fact
//! about the neighbour, not the edge, so it does not travel as a note
//! per edge, and the dual is not in the record either: a push reducer
//! whose dual rose reports its new `y_v` as side output, and the driver
//! writes it into a [`NodeTable`] of duals and `y_v/b(v)` into one of
//! ratios, which the next coverage and push reducers read by reference,
//! their own ratio included.  Every dual starts at 0, so every entry
//! starts at 0.0, and a dual changes only in a push round, so the ratios
//! a push reads are exactly the ones the coverage round before it tested.
//! The tables are |V| entries each in driver RAM, outside the memory
//! budget, like the edge-indexed `layer_of`, and every push-phase job
//! shuffles nothing.  The pop rounds send nominations across the popped
//! layer's edges only, over a pop state that holds the stacked edges
//! alone: a node with none has no record.
//!
//! The coverage test is symmetric — both ends add the same two ratios,
//! `+` on `f64` is commutative, and both compare against the same
//! threshold — so an edge is dropped at both ends in the same round, and
//! a node retires only once all its edges are gone at both ends.

use smr_graph::{BipartiteGraph, Capacities, EdgeId, Matching, NodeId};
use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::{Emitter, StateReducer};

use crate::config::{assert_valid_epsilon, MarkingStrategy, StackMrConfig, STACK_MR_ROUND_BOUND};
use crate::maximal::MaximalMatcher;
use crate::result::{AlgorithmKind, MatchingRun};
use crate::state::{build_node_records, peer_notes, NodeRecord, NodeTable, RoundMsg};

/// The layer of an edge on no layer of the stack.
const UNSTACKED: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Push phase: the state is each node's capacity `b(v)`, which never
// changes there, and its live (not yet weakly covered) edges.
// ---------------------------------------------------------------------------

/// Reducer of the coverage job: drops weakly covered edges, each tested
/// against the two ends' ratios in `ratios`, retires a node left without
/// edges, and emits every other node's record, at its layer capacity, as
/// the maximal-matching input.  It sends no notes.
struct CoverageReducer<'a> {
    config: &'a StackMrConfig,
    /// Every node's `y_v / b(v)`.
    ratios: &'a NodeTable<f64>,
}

impl StateReducer for CoverageReducer<'_> {
    type Key = NodeId;
    type State = NodeRecord;
    type Note = ();
    type OutKey = NodeId;
    type OutValue = NodeRecord;

    fn reduce(
        &self,
        node: &NodeId,
        mut record: NodeRecord,
        msgs: &[()],
        out: &mut Emitter<NodeId, NodeRecord>,
        _next: &mut Emitter<NodeId, ()>,
    ) -> Option<NodeRecord> {
        debug_assert!(msgs.is_empty(), "a coverage round is sent no notes");
        let own_ratio = self.ratios[*node];
        let weak_factor = self.config.weak_coverage_factor();
        record.adjacency.retain(|adj| {
            let lhs = own_ratio + self.ratios[adj.other];
            let weakly_covered = lhs >= adj.weight * weak_factor - 1e-15;
            !weakly_covered
        });
        if record.adjacency.is_empty() {
            return None;
        }
        let layer_capacity = self.config.layer_capacity(record.capacity);
        out.emit(
            *node,
            NodeRecord::new(layer_capacity, record.adjacency.clone()),
        );
        Some(record)
    }
}

/// Reducer of the push job: raises `y_v` by `Σ δ(e)` over the node's edges
/// on the pushed `layer`, each `δ(e)` from the two ends' ratios in
/// `ratios` — the ones the coverage round before tested, as no dual has
/// moved since — and, if the dual rose, reports the node's new `y_v` as
/// side output, for the driver to write into the tables.  It neither
/// receives nor sends notes, and leaves the record as it is.
struct PushReducer<'a> {
    layer_of: &'a [u32],
    layer: u32,
    duals: &'a NodeTable<f64>,
    ratios: &'a NodeTable<f64>,
}

impl StateReducer for PushReducer<'_> {
    type Key = NodeId;
    type State = NodeRecord;
    type Note = ();
    type OutKey = NodeId;
    type OutValue = f64;

    fn reduce(
        &self,
        node: &NodeId,
        record: NodeRecord,
        msgs: &[()],
        out: &mut Emitter<NodeId, f64>,
        _next: &mut Emitter<NodeId, ()>,
    ) -> Option<NodeRecord> {
        debug_assert!(msgs.is_empty(), "a push round is sent no notes");
        let own_ratio = self.ratios[*node];
        let mut increase = 0.0;
        for adj in &record.adjacency {
            if self.layer_of[adj.edge] != self.layer {
                continue;
            }
            // δ(e) = (w(e) − y_u/b(u) − y_v/b(v)) / 2, computed with the
            // dual values both endpoints held at the start of the round.
            let delta = (adj.weight - own_ratio - self.ratios[adj.other]) / 2.0;
            if delta > 0.0 {
                increase += delta;
            }
        }
        if increase > 0.0 {
            out.emit(*node, self.duals[*node] + increase);
        }
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// Pop phase: the state is each node's residual capacity and the edges it
// has on the stack.  A layer can include up to `⌈ε·b(v)⌉` edges at a node
// with one unit left, the paper's (1+ε) violation; the residual then stops
// at 0, since all the phase asks of it is whether it is positive.
// ---------------------------------------------------------------------------

/// Message of a pop job ([`RoundMsg`]): a neighbour's nomination of one
/// edge (the note itself is the payload).
type NominateMsg = RoundMsg<()>;

/// The notes of a pop round: an active node nominates its stacked edges
/// of `layer` to the neighbour across each.
fn nominate(
    layer_of: &[u32],
    layer: u32,
    record: &NodeRecord,
    out: &mut Emitter<NodeId, NominateMsg>,
) {
    if record.capacity > 0 {
        for adj in record
            .adjacency
            .iter()
            .filter(|adj| layer_of[adj.edge] == layer)
        {
            out.emit(adj.other, RoundMsg::new(adj.edge, ()));
        }
    }
}

/// Reducer of a pop job: an edge of the popped layer is included when
/// *both* endpoints nominated it (i.e. both were still active) — the
/// node holds its own nominations against the notes.  Included edges are
/// the side output, reported by both endpoints, and leave the node's
/// adjacency; then the node nominates its edges of the next layer down,
/// if any.
#[derive(Clone, Copy)]
struct PopLayer<'a> {
    layer_of: &'a [u32],
    layer: u32,
}

impl StateReducer for PopLayer<'_> {
    type Key = NodeId;
    type State = NodeRecord;
    type Note = NominateMsg;
    type OutKey = EdgeId;
    type OutValue = ();

    fn reduce(
        &self,
        _node: &NodeId,
        mut record: NodeRecord,
        msgs: &[NominateMsg],
        out: &mut Emitter<EdgeId, ()>,
        next: &mut Emitter<NodeId, NominateMsg>,
    ) -> Option<NodeRecord> {
        let nominated_by_other = peer_notes(msgs);
        let active = record.capacity > 0;
        let mut included = 0;
        record.adjacency.retain(|adj| {
            let include = active
                && self.layer_of[adj.edge] == self.layer
                && nominated_by_other.contains(adj.edge);
            if include {
                out.emit(adj.edge, ());
                included += 1;
            }
            !include
        });
        record.capacity = record.capacity.saturating_sub(included);
        if let Some(below) = self.layer.checked_sub(1) {
            nominate(self.layer_of, below, &record, next);
        }
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// The algorithm driver
// ---------------------------------------------------------------------------

/// StackMR (and, with heaviest-first marking, StackGreedyMR).
#[derive(Debug, Clone, Default)]
pub struct StackMr {
    config: StackMrConfig,
}

impl StackMr {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: StackMrConfig) -> Self {
        StackMr { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StackMrConfig {
        &self.config
    }

    /// Runs the algorithm with every job of every phase — coverage, the
    /// four maximal-matching stages, push, pop — built through `flow`:
    /// the flow's `JobConfig` governs the engine and all jobs report into
    /// the flow's [`smr_mapreduce::FlowReport`].
    ///
    /// Between rounds the surviving node records stay in their
    /// partitions of [`smr_mapreduce::RoundState`]s — in RAM within the
    /// memory budget's share per reduce task, in run files above it — and
    /// covered-out nodes retire from them as their reducers decide.
    ///
    /// # Panics
    /// Panics if the configuration's `epsilon` is not finite and strictly
    /// positive.
    pub fn run(
        &self,
        graph: &BipartiteGraph,
        caps: &Capacities,
        flow: &FlowContext,
    ) -> MatchingRun {
        assert_valid_epsilon(self.config.epsilon);
        let algorithm = match self.config.marking {
            MarkingStrategy::HeaviestFirst => AlgorithmKind::StackGreedyMr,
            _ => AlgorithmKind::StackMr,
        };
        let jobs_start = flow.num_jobs();
        let mut value_per_round = Vec::new();
        let mut rounds = 0usize;
        let mut max_round_state_bytes = 0u64;

        // ------------------------------------------------------------------
        // Push phase.  Every dual starts at 0, so every ratio does too.
        // ------------------------------------------------------------------
        let mut push_state = flow.round_state("stack-push");
        push_state.seed(build_node_records(graph, caps, |_| true));
        // Every node's y_v and y_v / b(v), written from each push's side
        // output.
        let mut duals = NodeTable::for_graph(graph, 0.0);
        let mut ratios = NodeTable::for_graph(graph, 0.0);
        // Each edge's top layer, UNSTACKED for an edge on none.  An edge
        // pushed again moves up to its new layer: only there can the pop
        // phase include it, since an endpoint that cannot take it on its
        // top layer has no residual capacity left below.
        let mut layer_of = vec![UNSTACKED; graph.num_edges()];
        let mut num_layers = 0u32;

        for push_round in 0..STACK_MR_ROUND_BOUND {
            flow.mark_round();
            // (1) Remove weakly covered edges; covered-out nodes retire.
            // The survivors at their layer capacities max(1, ⌈ε·b(v)⌉)
            // are the maximal matcher's input.
            let matcher_input = push_state.round(
                format!("coverage-{push_round}"),
                CoverageReducer {
                    config: &self.config,
                    ratios: &ratios,
                },
            );
            if push_state.is_empty() {
                break;
            }
            rounds += 1;
            value_per_round.push(0.0);

            // (2) Maximal b-matching of the surviving graph.
            let matcher = MaximalMatcher::new(
                self.config.marking,
                self.config.seed.wrapping_add(push_round as u64),
            );
            let maximal = matcher.compute(&matcher_input, flow, &format!("maximal-{push_round}"));
            max_round_state_bytes = max_round_state_bytes.max(maximal.max_round_state_bytes);
            if maximal.edges.is_empty() {
                // No further progress is possible (should not happen while
                // live edges remain, but guards against degenerate inputs).
                break;
            }

            // (3) Push the layer: raise the duals of its edges.
            let layer = num_layers;
            for &edge in &maximal.edges {
                layer_of[edge] = layer;
            }
            num_layers += 1;
            let push = PushReducer {
                layer_of: &layer_of,
                layer,
                duals: &duals,
                ratios: &ratios,
            };
            for (node, dual) in push_state.round(format!("push-{push_round}"), push) {
                duals[node] = dual;
                ratios[node] = dual / caps.of(node) as f64;
            }
        }
        max_round_state_bytes = max_round_state_bytes.max(push_state.max_state_bytes());
        drop(push_state);

        // ------------------------------------------------------------------
        // Pop phase: one job per layer, from the top of the stack, over the
        // nodes with a stacked edge.
        // ------------------------------------------------------------------
        let mut matching = Matching::new(graph.num_edges());
        let mut pop_state = flow.round_state("stack-pop");
        // The pop phase's seed: the stacked edges alone.
        pop_state.seed(build_node_records(graph, caps, |e| {
            layer_of[e] != UNSTACKED
        }));
        if let Some(top) = num_layers.checked_sub(1) {
            pop_state.map(|_, record, out| nominate(&layer_of, top, record, out));
        }

        for layer in (0..num_layers).rev() {
            flow.mark_round();
            let pop_layer = PopLayer {
                layer_of: &layer_of,
                layer,
            };
            for (edge, ()) in pop_state.round(format!("pop-{layer}"), pop_layer) {
                matching.insert(edge);
            }
            rounds += 1;
            value_per_round.push(matching.value(graph));
        }
        max_round_state_bytes = max_round_state_bytes.max(pop_state.max_state_bytes());

        let job_metrics = flow.jobs_from(jobs_start);
        let mr_jobs = job_metrics.len();
        MatchingRun {
            algorithm,
            matching,
            mr_jobs,
            rounds,
            value_per_round,
            job_metrics,
            max_round_state_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_matching;
    use crate::maximal::maximal_b_matching_centralized;
    use crate::state::AdjEdge;
    use smr_graph::{ConsumerId, Edge, GraphBuilder, ItemId};
    use smr_mapreduce::JobConfig;

    fn test_config(seed: u64) -> StackMrConfig {
        StackMrConfig::default().with_seed(seed)
    }

    fn job() -> JobConfig {
        JobConfig::named("stack-mr-test").with_threads(2)
    }

    /// Test helper: run under a throwaway flow.
    fn run(alg: StackMr, g: &BipartiteGraph, caps: &Capacities) -> MatchingRun {
        alg.run(g, caps, &FlowContext::new(job()))
    }

    fn random_graph(items: usize, consumers: usize, keep_mod: usize) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        let its: Vec<ItemId> = (0..items).map(|i| b.add_item(format!("t{i}"))).collect();
        let cons: Vec<ConsumerId> = (0..consumers)
            .map(|i| b.add_consumer(format!("c{i}")))
            .collect();
        let mut w = 0.61_f64;
        for (ti, &t) in its.iter().enumerate() {
            for (ci, &c) in cons.iter().enumerate() {
                if (ti * 7 + ci * 3) % keep_mod != 0 {
                    w = (w * 53.17 + 0.31).fract().max(0.02);
                    b.add_edge(t, c, w);
                }
            }
        }
        b.build()
    }

    #[test]
    fn produces_a_matching_within_the_violation_bound() {
        let g = random_graph(6, 8, 3);
        let caps = Capacities::uniform(&g, 2, 2);
        let config = test_config(13);
        let run = run(StackMr::new(config.clone()), &g, &caps);
        assert!(!run.matching.is_empty());
        // Per-node violation is bounded by ε = 1: degree ≤ (1+ε)·b = 2b.
        let max_violation = run.matching.max_violation(&g, &caps);
        assert!(
            max_violation <= config.epsilon + 1e-9,
            "violation {max_violation} exceeds epsilon {}",
            config.epsilon
        );
    }

    #[test]
    fn achieves_the_approximation_guarantee_on_small_instances() {
        let g = random_graph(5, 6, 4);
        let caps = Capacities::uniform(&g, 2, 1);
        let run = run(StackMr::new(test_config(7)), &g, &caps);
        let opt = optimal_matching(&g, &caps);
        let guarantee = 1.0 / (6.0 + 1.0);
        assert!(
            run.value(&g) >= guarantee * opt.value(&g) - 1e-9,
            "StackMR value {} below 1/(6+ε) of optimum {}",
            run.value(&g),
            opt.value(&g)
        );
    }

    #[test]
    fn stack_greedy_variant_reports_its_own_algorithm_kind() {
        let g = random_graph(4, 4, 5);
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(StackMr::new(test_config(3).stack_greedy()), &g, &caps);
        assert_eq!(run.algorithm, AlgorithmKind::StackGreedyMr);
        assert!(!run.matching.is_empty());
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let g = random_graph(5, 5, 3);
        let caps = Capacities::uniform(&g, 2, 2);
        let a = run(StackMr::new(test_config(21)), &g, &caps);
        let b = run(StackMr::new(test_config(21)), &g, &caps);
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!(a.mr_jobs, b.mr_jobs);
    }

    #[test]
    fn shared_flow_reports_every_job_of_every_phase() {
        let g = random_graph(5, 6, 3);
        let caps = Capacities::uniform(&g, 2, 2);
        let baseline = run(StackMr::new(test_config(17)), &g, &caps);

        let flow = FlowContext::new(job());
        let run = StackMr::new(test_config(17)).run(&g, &caps, &flow);

        assert_eq!(run.matching.to_edge_vec(), baseline.matching.to_edge_vec());
        assert_eq!(run.mr_jobs, baseline.mr_jobs);
        let report = flow.report();
        assert_eq!(report.num_jobs(), run.mr_jobs);
        assert_eq!(
            report.total_shuffled_records(),
            run.total_shuffled_records()
        );
        // Coverage, maximal stages, push and pop all surface by name.
        let names = report.job_names().join(",");
        for phase in ["coverage-0", "maximal-0-mark-0", "push-0", "pop-"] {
            assert!(names.contains(phase), "missing {phase} in {names}");
        }
    }

    #[test]
    fn the_push_phase_shuffles_nothing() {
        let g = random_graph(6, 8, 3);
        let caps = Capacities::uniform(&g, 2, 2);
        let config = test_config(17);
        let flow = FlowContext::new(job());
        let run = StackMr::new(config).run(&g, &caps, &flow);
        let report = flow.report();
        // Shuffled records per job, keyed by stage name.
        let shuffled: Vec<(&str, u64)> = report
            .jobs
            .iter()
            .map(|m| {
                let stage = m.job_name.strip_prefix("stack-mr-test-").unwrap();
                (stage, m.shuffle_records)
            })
            .collect();
        // Every ratio a coverage or push round reads is in the driver's
        // table, so no job of the push phase has a note to shuffle.
        let push_phase: Vec<(&str, u64)> = shuffled
            .iter()
            .copied()
            .filter(|(stage, _)| stage.starts_with("coverage-") || stage.starts_with("push-"))
            .collect();
        assert_eq!(push_phase.len(), 5, "three coverage rounds, two pushes");
        assert!(push_phase.iter().all(|&(_, n)| n == 0), "{push_phase:?}");
        // The protocol's notes on this instance: the maximal matcher's
        // marks, selections and drops and the pop phase's nominations,
        // 77 in all, against 163 when every raised ratio crossed the
        // shuffle once per live edge and every saturation once per edge
        // outside F.
        assert_eq!(report.total_shuffled_records(), 77);
        assert_eq!(run.total_shuffled_records(), 77);
    }

    /// Both endpoint records of one edge of weight `w` at `caps`, and the
    /// ratio table their pushes would have filled with `duals`.
    fn edge_ends(
        w: f64,
        duals: (f64, f64),
        caps: (u64, u64),
    ) -> ([(NodeId, NodeRecord); 2], NodeTable<f64>) {
        let (item, consumer) = (NodeId::item(0), NodeId::consumer(0));
        let end = |other, capacity| NodeRecord::new(capacity, vec![AdjEdge::new(0, other, w)]);
        let mut ratios = NodeTable::new(1, 1, 0.0);
        ratios[item] = duals.0 / caps.0 as f64;
        ratios[consumer] = duals.1 / caps.1 as f64;
        let ends = [(item, end(consumer, caps.0)), (consumer, end(item, caps.1))];
        (ends, ratios)
    }

    /// Whether each end keeps the edge after a coverage round.
    fn kept_at_both_ends(
        config: &StackMrConfig,
        (ends, ratios): ([(NodeId, NodeRecord); 2], NodeTable<f64>),
    ) -> [bool; 2] {
        ends.map(|(node, record)| {
            let mut out = Emitter::new();
            let mut next = Emitter::new();
            let coverage = CoverageReducer {
                config,
                ratios: &ratios,
            };
            let kept = coverage.reduce(&node, record, &[], &mut out, &mut next);
            assert!(next.is_empty(), "a coverage round sends no notes");
            kept.is_some()
        })
    }

    #[test]
    fn both_ends_of_an_edge_keep_or_drop_it_together() {
        let config = test_config(1);
        let w = 0.7;
        let threshold = w * config.weak_coverage_factor() - 1e-15;
        // The item's ratio is a dual over capacity 3, which rounds; the
        // consumer's (capacity 1) is its dual, chosen so that the two sum
        // to exactly the threshold, and one ulp either side of it (the
        // consumer's ratio is in the threshold's binade, so one ulp of it
        // is one ulp of the sum).
        let item_dual = 0.003;
        let item_ratio = item_dual / 3.0;
        let on = threshold - item_ratio;
        assert_eq!(item_ratio + on, threshold);
        assert_eq!(item_ratio + on.next_down(), threshold.next_down());
        assert_eq!(item_ratio + on.next_up(), threshold.next_up());
        for (consumer_dual, kept) in [(on.next_down(), true), (on, false), (on.next_up(), false)] {
            assert_eq!(
                kept_at_both_ends(&config, edge_ends(w, (item_dual, consumer_dual), (3, 1))),
                [kept, kept],
                "ratios {item_ratio} + {consumer_dual} against {threshold}"
            );
        }
        // All-tie weights and capacities: equal ratios at both ends of a
        // run of equal-weight edges, on the threshold and one ulp away.
        let tie = threshold / 2.0;
        for edge_dual in [tie.next_down(), tie, tie.next_up()] {
            let ends = edge_ends(w, (edge_dual * 2.0, edge_dual * 2.0), (2, 2));
            let [item_kept, consumer_kept] = kept_at_both_ends(&config, ends);
            assert_eq!(item_kept, consumer_kept, "tie dual {edge_dual}");
        }
        // The test reads the neighbour's ratio from the table alone.
        let ([(item, record), _], mut ratios) = edge_ends(w, (0.0, 0.0), (1, 1));
        ratios[NodeId::consumer(0)] = w;
        let mut out = Emitter::new();
        let mut next = Emitter::new();
        let covered = CoverageReducer {
            config: &config,
            ratios: &ratios,
        }
        .reduce(&item, record, &[], &mut out, &mut next);
        assert!(
            covered.is_none(),
            "the neighbour's new ratio covers the edge"
        );
    }

    #[test]
    fn a_push_reports_exactly_the_raised_duals() {
        let g = random_graph(6, 8, 3);
        let caps = Capacities::from_vectors(
            (0..6).map(|t| 1 + t % 3).collect(),
            (0..8).map(|c| 1 + c % 2).collect(),
        );
        let config = test_config(5);
        // The first coverage round and its maximal matching, by hand.
        let (duals, ratios) = (NodeTable::for_graph(&g, 0.0), NodeTable::for_graph(&g, 0.0));
        let mut matcher_input = Emitter::new();
        let coverage = CoverageReducer {
            config: &config,
            ratios: &ratios,
        };
        let covered: Vec<(NodeId, NodeRecord)> = build_node_records(&g, &caps, |_| true)
            .into_iter()
            .filter_map(|(node, record)| {
                let kept =
                    coverage.reduce(&node, record, &[], &mut matcher_input, &mut Emitter::new());
                kept.map(|record| (node, record))
            })
            .collect();
        let mut layer_of = vec![UNSTACKED; g.num_edges()];
        let layer = maximal_b_matching_centralized(&matcher_input.into_pairs());
        assert!(!layer.is_empty());
        for &edge in &layer {
            layer_of[edge] = 0;
        }
        // The push: every record through the reducer, unchanged.
        let push = PushReducer {
            layer_of: &layer_of,
            layer: 0,
            duals: &duals,
            ratios: &ratios,
        };
        let mut raised = Emitter::new();
        for (node, record) in covered {
            let kept = push.reduce(&node, record.clone(), &[], &mut raised, &mut Emitter::new());
            assert_eq!(kept, Some(record), "{node}");
        }
        // Every ratio was 0, so each layer edge raises both ends by w/2,
        // summed in adjacency order: exactly the layer endpoints report,
        // each once, with exactly that dual.
        let expected: Vec<(NodeId, f64)> = g
            .nodes()
            .filter_map(|v| {
                let on_layer = g.incident_edges(v).iter().filter(|&&e| layer_of[e] == 0);
                let mut increase = 0.0;
                for &e in on_layer {
                    increase += g.edge(e).weight / 2.0;
                }
                (increase > 0.0).then_some((v, increase))
            })
            .collect();
        let bits = |pairs: Vec<(NodeId, f64)>| {
            let mut bits: Vec<(NodeId, u64)> = pairs
                .into_iter()
                .map(|(v, dual)| (v, dual.to_bits()))
                .collect();
            bits.sort_unstable();
            bits
        };
        assert_eq!(bits(raised.into_pairs()), bits(expected));
    }

    #[test]
    fn a_layer_that_overshoots_the_residual_leaves_the_node_inactive() {
        // Item 0 has one unit left and two edges on the top layer 1, both
        // nominated by their other ends, and one edge on layer 0.
        let t0 = NodeId::item(0);
        let record = NodeRecord::new(
            1,
            (0..3)
                .map(|e| AdjEdge::new(e, NodeId::consumer(e as u32), 1.0))
                .collect(),
        );
        let layer_of = [1, 1, 0];
        let top = PopLayer {
            layer_of: &layer_of,
            layer: 1,
        };
        let mut included = Emitter::new();
        let mut below = Emitter::new();
        let nominations = [RoundMsg::new(1, ()), RoundMsg::new(0, ())];
        let kept = top.reduce(&t0, record, &nominations, &mut included, &mut below);
        // Both edges enter the solution, a (1+ε) overshoot; the residual
        // stops at 0 and the node nominates nothing on layer 0.
        assert_eq!(included.into_pairs(), vec![(0, ()), (1, ())]);
        let kept = kept.expect("a node keeps its record through the pop phase");
        assert_eq!(kept.capacity, 0);
        assert_eq!(
            kept.adjacency,
            vec![AdjEdge::new(2, NodeId::consumer(2), 1.0)]
        );
        assert!(below.is_empty(), "an inactive node nominates nothing");
        // Nor does it include the edge below when its neighbour nominates it.
        let bottom = PopLayer {
            layer_of: &layer_of,
            layer: 0,
        };
        let mut included = Emitter::new();
        let kept = bottom.reduce(
            &t0,
            kept,
            &[RoundMsg::new(2, ())],
            &mut included,
            &mut Emitter::new(),
        );
        assert!(included.is_empty());
        assert_eq!(kept.map(|record| record.capacity), Some(0));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn infinite_epsilon_set_on_the_field_is_rejected() {
        let g = random_graph(3, 3, 4);
        let caps = Capacities::uniform(&g, 1, 1);
        let mut config = test_config(1);
        config.epsilon = f64::INFINITY;
        run(StackMr::new(config), &g, &caps);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn nan_epsilon_set_on_the_field_is_rejected() {
        let g = random_graph(3, 3, 4);
        let caps = Capacities::uniform(&g, 1, 1);
        let mut config = test_config(1);
        config.epsilon = f64::NAN;
        run(StackMr::new(config), &g, &caps);
    }

    #[test]
    fn spilled_and_in_memory_runs_agree_on_the_matching() {
        let g = random_graph(6, 7, 3);
        let caps = Capacities::uniform(&g, 2, 2);
        let in_memory = StackMr::new(test_config(21)).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(None)),
        );
        let spilled = StackMr::new(test_config(21)).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(Some(256))),
        );
        assert_eq!(
            spilled.matching.to_edge_vec(),
            in_memory.matching.to_edge_vec()
        );
        assert_eq!(spilled.mr_jobs, in_memory.mr_jobs);
        assert_eq!(
            spilled.total_shuffled_records(),
            in_memory.total_shuffled_records()
        );
        assert!(
            spilled.job_metrics.iter().map(|m| m.disk_runs).sum::<u64>() > 0,
            "a 256-byte budget must force disk runs across the phases"
        );
    }

    #[test]
    fn counts_jobs_for_every_phase() {
        let g = random_graph(4, 5, 3);
        let caps = Capacities::uniform(&g, 1, 2);
        let run = run(StackMr::new(test_config(5)), &g, &caps);
        // At least one coverage job, four maximal-matching jobs, one push
        // job and one pop job.
        assert!(
            run.mr_jobs >= 7,
            "expected at least 7 jobs, got {}",
            run.mr_jobs
        );
        assert_eq!(run.job_metrics.len(), run.mr_jobs);
        assert!(run.rounds >= 2);
        assert!(run.total_shuffled_records() > 0);
    }

    #[test]
    fn empty_graph_terminates_with_no_layers() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]);
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(StackMr::new(test_config(1)), &g, &caps);
        assert!(run.matching.is_empty());
        assert_eq!(run.rounds, 0);
    }

    #[test]
    fn smaller_epsilon_never_violates_more() {
        let g = random_graph(6, 6, 4);
        let caps = Capacities::uniform(&g, 3, 3);
        let loose = run(StackMr::new(test_config(9).with_epsilon(1.0)), &g, &caps);
        let tight = run(StackMr::new(test_config(9).with_epsilon(0.25)), &g, &caps);
        let loose_violation = loose.matching.max_violation(&g, &caps);
        let tight_violation = tight.matching.max_violation(&g, &caps);
        assert!(loose_violation <= 1.0 + 1e-9);
        assert!(tight_violation <= 0.25 + 1e-9 + 1.0 / 3.0); // ⌈εb⌉ rounding slack for b=3
    }

    #[test]
    fn single_edge_graph_matches_it() {
        let g = BipartiteGraph::from_edges(1, 1, vec![Edge::new(ItemId(0), ConsumerId(0), 5.0)]);
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(StackMr::new(test_config(2)), &g, &caps);
        assert_eq!(run.matching.to_edge_vec(), vec![0]);
        assert!((run.value(&g) - 5.0).abs() < 1e-9);
    }
}
