//! Maximal b-matching (the subroutine of StackMR).
//!
//! StackMR needs, in every push round, a *maximal* b-matching of the
//! remaining graph: a b-matching not properly contained in any other
//! b-matching (note: maximal, not maximum).  The paper uses the randomized
//! parallel algorithm of Garrido, Jarominek, Lingas and Rytter, which runs
//! in `O(log³ n)` rounds in expectation.  Each iteration has four stages,
//! each of which is one MapReduce job here (Section 5.3):
//!
//! 1. **marking** — every node `v` marks `⌈c(v)/2⌉` of its incident edges
//!    (uniformly at random for StackMR, heaviest-first for StackGreedyMR);
//! 2. **selection** — every node selects up to `max(⌊c(v)/2⌋, 1)` edges
//!    among those marked by its *neighbours*; selected edges form the set
//!    `F`;
//! 3. **matching** — a node with capacity 1 and two incident edges in `F`
//!    drops one of them, making `F` a valid b-matching;
//! 4. **cleanup** — `F` is added to the result and removed from the
//!    working graph, capacities are decreased, and saturated nodes are
//!    removed together with their incident edges.
//!
//! The iteration repeats until the working graph has no edges left.
//!
//! The working records are the partition-resident state of a
//! [`smr_mapreduce::RoundState`]: in the first three stages a node sends a
//! flag across each edge the flag is *true* for — marked, selected or
//! dropped from F — and nothing across the others, and the stage's
//! reducer holds the node's own record against its neighbours' flags,
//! reading a missing flag as false.  So a stage shuffles the node's
//! `⌈c(v)/2⌉` marks or its selections or drops, not one flag per live
//! edge.  The reducer of one stage makes the node's choice for the next —
//! its marks, selections or drops, each drawn once from the node's seeded
//! generator — records it and emits the next stage's flags, so no stage
//! re-reads the state in a map pass; only the first marks come from one.
//! A working record keeps only what outlives a stage: the node's capacity
//! and, per live edge, whether it is in F.  It does not name its node:
//! the generator is seeded from the key the reducer gets beside it, and a
//! neighbour's marks are read from the notes where they are used.
//!
//! "F saturates me" is a fact about a node, not an edge: the matching
//! stage reports each node F saturates as side output, the driver marks
//! it in a [`NodeTable`] — one flag per node in driver RAM, outside the
//! memory budget — and cleanup reads the neighbours' flags from there,
//! so the cleanup job shuffles nothing.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use smr_graph::{EdgeId, NodeId};
use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::{Emitter, StateReducer};
use smr_storage::impl_codec_struct;

use crate::config::{MarkingStrategy, STACK_MR_ROUND_BOUND};
use crate::state::{peer_notes, select_heaviest_prefix, AdjEdge, NodeRecord, NodeTable, RoundMsg};

/// A per-edge annotation inside the working records of the matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkEdge {
    /// Global edge id.
    pub edge: EdgeId,
    /// The other endpoint.
    pub other: NodeId,
    /// Edge weight.
    pub weight: f64,
    /// Whether the edge is currently in the candidate set `F`.
    pub in_f: bool,
}

impl_codec_struct!(WorkEdge {
    edge,
    other,
    weight,
    in_f
});

impl WorkEdge {
    fn from_adj(adj: &AdjEdge) -> Self {
        WorkEdge {
            edge: adj.edge,
            other: adj.other,
            weight: adj.weight,
            in_f: false,
        }
    }
}

/// The working record of one node during the maximal-matching
/// computation, keyed by the node like a [`NodeRecord`] and, like it,
/// without the node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkRecord {
    /// Remaining capacity `c(v)` inside this computation.
    pub capacity: u64,
    /// Live edges of the working graph.
    pub edges: Vec<WorkEdge>,
}

impl_codec_struct!(WorkRecord { capacity, edges });

/// The message of the stage jobs ([`RoundMsg`]): a neighbour's
/// stage-specific flag for one edge (marked / selected / dropped from F),
/// sent only when it is true, so the note itself is the flag.
type FlagMsg = RoundMsg<()>;

/// Result of one maximal b-matching computation.
#[derive(Debug, Clone, Default)]
pub struct MaximalResult {
    /// The edges of the maximal b-matching.
    pub edges: Vec<EdgeId>,
    /// Number of Garrido-style iterations executed, each four MapReduce
    /// jobs.
    pub iterations: usize,
    /// Largest encoded size the working records reached.
    pub max_round_state_bytes: u64,
}

/// Deterministic per-node RNG: the same `(seed, iteration, node)` triple
/// always produces the same stream, which makes the randomized algorithm
/// reproducible and independent of scheduling.
fn node_rng(seed: u64, iteration: u64, node: NodeId) -> StdRng {
    let node_code = match node {
        NodeId::Item(t) => (t.0 as u64) << 1,
        NodeId::Consumer(c) => ((c.0 as u64) << 1) | 1,
    };
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ iteration.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ node_code.wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

/// Picks `k` indices out of `candidates` according to the strategy.
fn pick_edges(
    strategy: MarkingStrategy,
    rng: &mut StdRng,
    candidates: &[(usize, f64)],
    k: usize,
) -> Vec<usize> {
    if k == 0 || candidates.is_empty() {
        return Vec::new();
    }
    let k = k.min(candidates.len());
    match strategy {
        MarkingStrategy::Random => {
            let mut idx: Vec<usize> = candidates.iter().map(|&(i, _)| i).collect();
            idx.shuffle(rng);
            idx.truncate(k);
            idx
        }
        MarkingStrategy::HeaviestFirst => {
            let mut ordered: Vec<(usize, f64)> = candidates.to_vec();
            select_heaviest_prefix(&mut ordered, 0, k, |&(i, weight)| (weight, i));
            ordered[..k].iter().map(|&(i, _)| i).collect()
        }
    }
}

/// `len` flags, set at the `picked` indices.
fn flags(len: usize, picked: Vec<usize>) -> Vec<bool> {
    let mut flags = vec![false; len];
    for i in picked {
        flags[i] = true;
    }
    flags
}

/// Raises the flag of `e` at its other end.
fn flag(e: &WorkEdge, out: &mut Emitter<NodeId, FlagMsg>) {
    out.emit(e.other, RoundMsg::new(e.edge, ()));
}

/// The side output of the marking and selection stages, which emit none,
/// and of cleanup: the edges entering the matching.
type Matched = Emitter<EdgeId, ()>;

// ---------------------------------------------------------------------------
// Stage 1: marking
// ---------------------------------------------------------------------------

/// The notes of the marking stage: the node marks `⌈c(v)/2⌉` of its
/// edges and flags each marked edge to its neighbour.  A node's own marks
/// matter only to its neighbours.
fn mark_notes(
    strategy: MarkingStrategy,
    seed: u64,
    iteration: u64,
    node: NodeId,
    record: &WorkRecord,
    out: &mut Emitter<NodeId, FlagMsg>,
) {
    let mut rng = node_rng(seed, iteration, node);
    let to_mark = ((record.capacity as f64 / 2.0).ceil() as usize).max(1);
    let candidates: Vec<(usize, f64)> = record
        .edges
        .iter()
        .enumerate()
        .map(|(i, e)| (i, e.weight))
        .collect();
    for i in pick_edges(strategy, &mut rng, &candidates, to_mark) {
        flag(&record.edges[i], out);
    }
}

/// Records the neighbours' marks; then every node selects up to
/// `max(⌊c(v)/2⌋, 1)` of the edges its neighbours marked, puts them in F
/// and flags each selected edge to its neighbour.
#[derive(Clone, Copy)]
struct Mark {
    seed: u64,
    iteration: u64,
}

impl StateReducer for Mark {
    type Key = NodeId;
    type State = WorkRecord;
    type Note = FlagMsg;
    type OutKey = EdgeId;
    type OutValue = ();

    fn reduce(
        &self,
        node: &NodeId,
        mut record: WorkRecord,
        msgs: &[FlagMsg],
        _out: &mut Matched,
        next: &mut Emitter<NodeId, FlagMsg>,
    ) -> Option<WorkRecord> {
        let marks = peer_notes(msgs);
        let mut rng = node_rng(self.seed, self.iteration.wrapping_add(0x5e1ec7), *node);
        let quota = ((record.capacity / 2) as usize).max(1);
        let candidates: Vec<(usize, f64)> = record
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| marks.contains(e.edge))
            .map(|(i, e)| (i, e.weight))
            .collect();
        // The selection stage of Garrido et al. picks uniformly at random
        // among the neighbour-marked edges regardless of the marking
        // strategy.
        let selected = pick_edges(MarkingStrategy::Random, &mut rng, &candidates, quota);
        let selected = flags(record.edges.len(), selected);
        for (e, selected) in record.edges.iter_mut().zip(selected) {
            e.in_f = selected;
            if selected {
                flag(e, next);
            }
        }
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// Stage 2: selection
// ---------------------------------------------------------------------------

/// An edge enters F when either end selected it; then a node of capacity
/// 1 keeps one of its F edges at random, drops the rest and flags each
/// dropped edge to its neighbour.  A dropped edge leaves F at both ends.
#[derive(Clone, Copy)]
struct Select {
    seed: u64,
    iteration: u64,
}

impl StateReducer for Select {
    type Key = NodeId;
    type State = WorkRecord;
    type Note = FlagMsg;
    type OutKey = EdgeId;
    type OutValue = ();

    fn reduce(
        &self,
        node: &NodeId,
        mut record: WorkRecord,
        msgs: &[FlagMsg],
        _out: &mut Matched,
        next: &mut Emitter<NodeId, FlagMsg>,
    ) -> Option<WorkRecord> {
        let by_other = peer_notes(msgs);
        for e in &mut record.edges {
            e.in_f |= by_other.contains(e.edge);
        }
        let mut rng = node_rng(self.seed, self.iteration.wrapping_add(0xf1f1f1), *node);
        let f_indices: Vec<usize> = record
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.in_f)
            .map(|(i, _)| i)
            .collect();
        let dropped = if record.capacity == 1 && f_indices.len() > 1 {
            let keep = f_indices[rng.gen_range(0..f_indices.len())];
            f_indices.into_iter().filter(|&i| i != keep).collect()
        } else {
            Vec::new()
        };
        let dropped = flags(record.edges.len(), dropped);
        for (e, dropped) in record.edges.iter_mut().zip(dropped) {
            if dropped {
                flag(e, next);
                e.in_f = false;
            }
        }
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// Stage 3: matching (capacity-1 conflict resolution)
// ---------------------------------------------------------------------------

/// Edges a neighbour dropped leave F, which is now the same at both ends
/// of every edge; then a node that F saturates reports itself as side
/// output, and its neighbours drop their other edges to it at cleanup.
#[derive(Clone, Copy)]
struct MatchFix;

impl StateReducer for MatchFix {
    type Key = NodeId;
    type State = WorkRecord;
    type Note = FlagMsg;
    type OutKey = NodeId;
    type OutValue = ();

    fn reduce(
        &self,
        node: &NodeId,
        mut record: WorkRecord,
        msgs: &[FlagMsg],
        out: &mut Emitter<NodeId, ()>,
        _next: &mut Emitter<NodeId, FlagMsg>,
    ) -> Option<WorkRecord> {
        // A note means "the sender dropped this edge from F".
        let dropped_by_other = peer_notes(msgs);
        for e in &mut record.edges {
            if dropped_by_other.contains(e.edge) {
                e.in_f = false;
            }
        }
        let matched = record.edges.iter().filter(|e| e.in_f).count() as u64;
        if record.capacity <= matched {
            out.emit(*node, ());
        }
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// Stage 4: cleanup
// ---------------------------------------------------------------------------

/// F enters the matching (side output, reported by both ends), capacities
/// drop by the node's F edges, saturated nodes retire with their edges
/// and the others drop their edges to the neighbours `saturated` marks;
/// a node that stays marks for the next iteration.
#[derive(Clone, Copy)]
struct Cleanup<'a> {
    strategy: MarkingStrategy,
    seed: u64,
    iteration: u64,
    /// The nodes F has saturated, this iteration or an earlier one.
    saturated: &'a NodeTable<bool>,
}

impl StateReducer for Cleanup<'_> {
    type Key = NodeId;
    type State = WorkRecord;
    type Note = FlagMsg;
    type OutKey = EdgeId;
    type OutValue = ();

    fn reduce(
        &self,
        node: &NodeId,
        mut record: WorkRecord,
        msgs: &[FlagMsg],
        out: &mut Matched,
        next: &mut Emitter<NodeId, FlagMsg>,
    ) -> Option<WorkRecord> {
        debug_assert!(msgs.is_empty(), "a cleanup round is sent no notes");
        let mut matched = 0;
        for e in record.edges.iter().filter(|e| e.in_f) {
            out.emit(e.edge, ());
            matched += 1;
        }
        record.capacity = record.capacity.saturating_sub(matched);
        if record.capacity == 0 {
            return None;
        }
        record.edges.retain(|e| !e.in_f && !self.saturated[e.other]);
        if record.edges.is_empty() {
            return None;
        }
        mark_notes(
            self.strategy,
            self.seed,
            self.iteration + 1,
            *node,
            &record,
            next,
        );
        Some(record)
    }
}

// ---------------------------------------------------------------------------
// The matcher driver
// ---------------------------------------------------------------------------

/// Computes maximal b-matchings with the four-stage MapReduce algorithm.
#[derive(Debug, Clone)]
pub struct MaximalMatcher {
    /// Edge-selection strategy of the marking stage.
    pub strategy: MarkingStrategy,
    /// Seed for the per-node pseudo-random generators.
    pub seed: u64,
}

impl MaximalMatcher {
    /// Creates a matcher.
    pub fn new(strategy: MarkingStrategy, seed: u64) -> Self {
        MaximalMatcher { strategy, seed }
    }

    /// Computes a maximal b-matching of the subgraph described by
    /// `records` (node, capacity `c(v)`, live adjacency), with every
    /// iteration's four stage jobs run through `flow` as rounds over the
    /// working records (mark → select → match → cleanup), kept in a
    /// [`smr_mapreduce::RoundState`] from which finished nodes retire, and
    /// the nodes F saturates marked in a table beside it.  `stage_prefix`
    /// namespaces the job names when the matcher runs inside a larger
    /// flow (StackMR passes `maximal-{push_round}`); an empty prefix names
    /// jobs `{flow}-mark-{i}` etc.
    ///
    /// Every edge a record of capacity > 0 lists must be listed by its
    /// other endpoint's record too, at capacity > 0, as the records of a
    /// graph (or of StackMR's coverage survivors) are: a flag that is not
    /// sent reads as false, so the two ends of an edge decide it together.
    pub fn compute(
        &self,
        records: &[(NodeId, NodeRecord)],
        flow: &FlowContext,
        stage_prefix: &str,
    ) -> MaximalResult {
        let stage = |name: &str, iteration: u64| -> String {
            if stage_prefix.is_empty() {
                format!("{name}-{iteration}")
            } else {
                format!("{stage_prefix}-{name}-{iteration}")
            }
        };

        debug_assert!(
            lists_every_edge_at_both_ends(records),
            "a maximal matcher's input lists an edge at one end only"
        );
        let mut state = flow.round_state("maximal-work");
        state.seed(
            records
                .iter()
                .filter(|(_, r)| !r.adjacency.is_empty() && r.capacity > 0)
                .map(|(n, r)| {
                    let edges = r.adjacency.iter().map(WorkEdge::from_adj).collect();
                    let capacity = r.capacity;
                    (*n, WorkRecord { capacity, edges })
                })
                .collect(),
        );

        let (strategy, seed) = (self.strategy, self.seed);
        state.map(|node, record, out| mark_notes(strategy, seed, 0, *node, record, out));
        let (items, consumers) = records.iter().fold((0, 0), |(t, c), (node, _)| match node {
            NodeId::Item(i) => (t.max(i.index() + 1), c),
            NodeId::Consumer(j) => (t, c.max(j.index() + 1)),
        });
        // Every edge a live record lists ends at another record's key, so
        // the keys span every node cleanup looks up.
        let mut saturated = NodeTable::new(items, consumers, false);

        let mut result = MaximalResult::default();
        while !state.is_empty() && result.iterations < STACK_MR_ROUND_BOUND {
            let iteration = result.iterations as u64;
            // One Garrido iteration = four rounds, each named for the
            // stage whose notes it consumes.
            state.round(stage("mark", iteration), Mark { seed, iteration });
            state.round(stage("select", iteration), Select { seed, iteration });
            for (node, ()) in state.round(stage("match", iteration), MatchFix) {
                saturated[node] = true;
            }
            let cleanup = Cleanup {
                strategy,
                seed,
                iteration,
                saturated: &saturated,
            };
            let matched = state.round(stage("cleanup", iteration), cleanup);
            result
                .edges
                .extend(matched.into_iter().map(|(edge, ())| edge));
            result.iterations += 1;
        }
        result.max_round_state_bytes = state.max_state_bytes();
        result.edges.sort_unstable();
        result.edges.dedup();
        result
    }
}

/// Whether every edge of the records of capacity > 0 is listed by both of
/// its ends (see [`MaximalMatcher::compute`]).
fn lists_every_edge_at_both_ends(records: &[(NodeId, NodeRecord)]) -> bool {
    let mut ends: HashMap<EdgeId, u32> = HashMap::new();
    for (_, record) in records.iter().filter(|(_, r)| r.capacity > 0) {
        for adj in &record.adjacency {
            *ends.entry(adj.edge).or_default() += 1;
        }
    }
    ends.values().all(|&n| n == 2)
}

/// A simple centralized maximal b-matching (greedy scan) used as a
/// reference in tests: scan the live edges in id order and keep an edge
/// whenever both endpoints still have residual capacity.
pub fn maximal_b_matching_centralized(records: &[(NodeId, NodeRecord)]) -> Vec<EdgeId> {
    let mut residual: HashMap<NodeId, u64> =
        records.iter().map(|(n, r)| (*n, r.capacity)).collect();
    // Gather every live edge exactly once (it appears in both endpoint
    // records).
    let mut edges: Vec<(EdgeId, NodeId, NodeId)> = Vec::new();
    for (node, record) in records {
        for adj in &record.adjacency {
            if *node < adj.other {
                edges.push((adj.edge, *node, adj.other));
            }
        }
    }
    edges.sort_unstable_by_key(|(e, _, _)| *e);
    let mut matched = Vec::new();
    for (e, u, v) in edges {
        let ru = residual.get(&u).copied().unwrap_or(0);
        let rv = residual.get(&v).copied().unwrap_or(0);
        if ru > 0 && rv > 0 {
            residual.insert(u, ru - 1);
            residual.insert(v, rv - 1);
            matched.push(e);
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{build_node_records, total_live_edge_entries};
    use smr_graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId, Matching};
    use smr_mapreduce::JobConfig;

    fn grid_graph(items: usize, consumers: usize) -> BipartiteGraph {
        let mut edges = Vec::new();
        let mut w = 0.11_f64;
        for t in 0..items {
            for c in 0..consumers {
                if (t + c) % 2 == 0 {
                    w = (w * 31.7 + 0.7).fract().max(0.05);
                    edges.push(Edge::new(ItemId(t as u32), ConsumerId(c as u32), w));
                }
            }
        }
        BipartiteGraph::from_edges(items, consumers, edges)
    }

    /// Maximality check: every live edge must have at least one saturated
    /// endpoint, and no node may exceed its capacity.
    fn assert_maximal(graph: &BipartiteGraph, caps: &Capacities, matched_edges: &[EdgeId]) {
        let matching = Matching::from_edges(graph.num_edges(), matched_edges.iter().copied());
        for v in graph.nodes() {
            assert!(
                matching.degree(graph, v) as u64 <= caps.of(v),
                "node {v} exceeds its capacity"
            );
        }
        for e in 0..graph.num_edges() {
            if matching.contains(e) {
                continue;
            }
            let edge = graph.edge(e);
            let item_full =
                matching.degree(graph, NodeId::Item(edge.item)) as u64 >= caps.item(edge.item);
            let consumer_full = matching.degree(graph, NodeId::Consumer(edge.consumer)) as u64
                >= caps.consumer(edge.consumer);
            assert!(
                item_full || consumer_full,
                "edge {e} could still be added: the matching is not maximal"
            );
        }
    }

    fn flow() -> FlowContext {
        FlowContext::new(JobConfig::named("maximal-test").with_threads(2))
    }

    /// Test helper: run under a throwaway flow, which ran four jobs per
    /// iteration.
    fn compute(m: &MaximalMatcher, records: &[(NodeId, NodeRecord)]) -> MaximalResult {
        let flow = flow();
        let result = m.compute(records, &flow, "");
        assert_eq!(flow.num_jobs(), 4 * result.iterations);
        result
    }

    #[test]
    fn produces_a_maximal_matching_with_unit_capacities() {
        let g = grid_graph(6, 6);
        let caps = Capacities::uniform(&g, 1, 1);
        let records = build_node_records(&g, &caps, |_| true);
        let result = compute(&MaximalMatcher::new(MarkingStrategy::Random, 1), &records);
        assert_maximal(&g, &caps, &result.edges);
        assert!(result.iterations >= 1);
    }

    #[test]
    fn stages_send_only_true_flags() {
        let g = grid_graph(6, 6);
        let caps = Capacities::uniform(&g, 1, 1);
        let records = build_node_records(&g, &caps, |_| true);
        let flow = flow();
        let result = MaximalMatcher::new(MarkingStrategy::Random, 1).compute(&records, &flow, "");
        let jobs = flow.report().jobs;
        let shuffled: Vec<u64> = jobs[..4].iter().map(|m| m.shuffle_records).collect();
        let nodes = records.len() as u64;
        // Capacity 1: every node marks ⌈1/2⌉ = 1 edge, and selects at
        // most max(⌊1/2⌋, 1) = 1 of the edges marked towards it.
        assert_eq!(shuffled[0], nodes, "one mark per node");
        assert!(shuffled[1] <= nodes, "at most one selection per node");
        // A flag per live adjacency entry would be 2|E| per stage.
        let entries = total_live_edge_entries(&records) as u64;
        assert!(
            shuffled.iter().all(|&n| n < entries),
            "{shuffled:?} vs {entries}"
        );
        // Saturations are side data: no cleanup job shuffles anything.
        let cleanups: Vec<u64> = jobs
            .iter()
            .filter(|m| m.job_name.contains("-cleanup-"))
            .map(|m| m.shuffle_records)
            .collect();
        assert_eq!(cleanups.len(), result.iterations);
        assert!(cleanups.iter().all(|&n| n == 0), "{cleanups:?}");
        assert_maximal(&g, &caps, &result.edges);
    }

    #[test]
    fn leaves_drop_their_edges_to_a_centre_f_saturates_at_that_cleanup() {
        // A capacity-1 star: item 0 at the centre, consumers 0..5 around
        // it.  Every leaf marks its one edge, the centre selects one of
        // them and keeps one F edge, so F saturates it in iteration 0.
        let leaves = 5u32;
        let g = BipartiteGraph::from_edges(
            1,
            leaves as usize,
            (0..leaves)
                .map(|c| Edge::new(ItemId(0), ConsumerId(c), 1.0 + c as f64))
                .collect(),
        );
        let caps = Capacities::uniform(&g, 1, 1);
        let records = build_node_records(&g, &caps, |_| true);
        let result = compute(&MaximalMatcher::new(MarkingStrategy::Random, 4), &records);
        assert_eq!(result.edges.len(), 1);
        assert_eq!(result.iterations, 1, "every leaf is done at cleanup 0");
        assert_maximal(&g, &caps, &result.edges);

        // By hand: the matching stage reports the centre, and each
        // unmatched leaf drops its edge to it, with no note, and retires.
        let centre = NodeId::item(0);
        let work = |capacity, edges: Vec<(EdgeId, NodeId, bool)>| WorkRecord {
            capacity,
            edges: edges
                .into_iter()
                .map(|(edge, other, in_f)| WorkEdge {
                    edge,
                    other,
                    weight: 1.0,
                    in_f,
                })
                .collect(),
        };
        let centre_edges = (0..leaves)
            .map(|c| (c as EdgeId, NodeId::consumer(c), c == 2))
            .collect();
        let mut reported = Emitter::new();
        let mut next = Emitter::new();
        MatchFix.reduce(
            &centre,
            work(1, centre_edges),
            &[],
            &mut reported,
            &mut next,
        );
        assert_eq!(reported.into_pairs(), vec![(centre, ())]);
        assert!(next.is_empty(), "saturation is not a note");
        let mut saturated = NodeTable::new(1, leaves as usize, false);
        saturated[centre] = true;
        let cleanup = Cleanup {
            strategy: MarkingStrategy::Random,
            seed: 4,
            iteration: 0,
            saturated: &saturated,
        };
        for c in (0..leaves).filter(|&c| c != 2) {
            let leaf = NodeId::consumer(c);
            let mut matched = Emitter::new();
            let mut marks = Emitter::new();
            let record = work(1, vec![(c as EdgeId, centre, false)]);
            let kept = cleanup.reduce(&leaf, record, &[], &mut matched, &mut marks);
            assert_eq!(kept, None, "leaf {c} keeps no edge");
            assert!(matched.is_empty() && marks.is_empty());
        }
    }

    #[test]
    fn produces_a_maximal_matching_with_larger_capacities() {
        let g = grid_graph(5, 7);
        let caps = Capacities::uniform(&g, 3, 2);
        let records = build_node_records(&g, &caps, |_| true);
        let result = compute(&MaximalMatcher::new(MarkingStrategy::Random, 7), &records);
        assert_maximal(&g, &caps, &result.edges);
    }

    #[test]
    fn heaviest_first_marking_also_yields_maximal_matchings() {
        let g = grid_graph(6, 5);
        let caps = Capacities::uniform(&g, 2, 2);
        let records = build_node_records(&g, &caps, |_| true);
        let result = compute(
            &MaximalMatcher::new(MarkingStrategy::HeaviestFirst, 3),
            &records,
        );
        assert_maximal(&g, &caps, &result.edges);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let g = grid_graph(6, 6);
        let caps = Capacities::uniform(&g, 2, 2);
        let records = build_node_records(&g, &caps, |_| true);
        let a = compute(&MaximalMatcher::new(MarkingStrategy::Random, 99), &records);
        let b = compute(&MaximalMatcher::new(MarkingStrategy::Random, 99), &records);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.iterations, b.iterations);
        let c = compute(&MaximalMatcher::new(MarkingStrategy::Random, 100), &records);
        // A different seed is allowed to (and almost surely does) produce a
        // different maximal matching, but both must be maximal.
        assert_maximal(&g, &caps, &c.edges);
    }

    #[test]
    fn empty_input_terminates_immediately() {
        let result = compute(&MaximalMatcher::new(MarkingStrategy::Random, 0), &[]);
        assert!(result.edges.is_empty());
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn centralized_reference_is_maximal_too() {
        let g = grid_graph(6, 6);
        let caps = Capacities::uniform(&g, 2, 2);
        let records = build_node_records(&g, &caps, |_| true);
        let edges = maximal_b_matching_centralized(&records);
        assert_maximal(&g, &caps, &edges);
    }

    #[test]
    fn pick_edges_respects_the_quota_for_every_strategy() {
        let mut rng = node_rng(1, 2, NodeId::item(3));
        let candidates: Vec<(usize, f64)> = (0..10).map(|i| (i, (i + 1) as f64)).collect();
        for strategy in [MarkingStrategy::Random, MarkingStrategy::HeaviestFirst] {
            let picked = pick_edges(strategy, &mut rng, &candidates, 4);
            assert_eq!(picked.len(), 4, "{strategy:?}");
            let picked_all = pick_edges(strategy, &mut rng, &candidates, 100);
            assert_eq!(picked_all.len(), 10, "{strategy:?}");
            assert!(pick_edges(strategy, &mut rng, &candidates, 0).is_empty());
            assert!(pick_edges(strategy, &mut rng, &[], 3).is_empty());
        }
    }

    #[test]
    fn heaviest_first_picks_the_heaviest_edges() {
        let mut rng = node_rng(5, 5, NodeId::consumer(1));
        let candidates = vec![(0, 1.0), (1, 5.0), (2, 3.0)];
        let picked = pick_edges(MarkingStrategy::HeaviestFirst, &mut rng, &candidates, 2);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn node_rng_is_deterministic_and_node_dependent() {
        let a: u64 = node_rng(1, 2, NodeId::item(3)).gen();
        let b: u64 = node_rng(1, 2, NodeId::item(3)).gen();
        let c: u64 = node_rng(1, 2, NodeId::consumer(3)).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
