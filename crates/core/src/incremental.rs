//! Incremental b-matching assignment: the serving-time companion to the
//! batch algorithms.
//!
//! The batch algorithms ([`GreedyMr`][crate::GreedyMr], centralized
//! [`greedy_matching`][crate::greedy_matching]) see the whole candidate
//! graph at once.  At serving time items arrive one at a time (or in
//! micro-batches) with their candidate edges — found by a point query
//! against the standing similarity index — and the assignment must be
//! updated without re-running the batch job.
//!
//! [`IncrementalMatcher`] maintains the b-matching invariants online, in
//! the *free-disposal* model: every consumer holds at most `b(c)` assigned
//! edges at all times, and when a new edge meets a saturated consumer it
//! may *preempt* the lightest currently-assigned edge there — but only
//! when strictly heavier, so churn never trades weight away.  Preempted
//! items get their capacity back (they may still be assigned elsewhere by
//! later arrivals at shared consumers), and a dropped edge is simply
//! forgone, which is exactly the free-disposal assumption of online ad
//! allocation; greedy-with-preemption is ½-competitive there, the same
//! guarantee envelope as the batch greedy's ½-approximation.
//!
//! **Replay equivalence.**  Edges are offered heaviest-first, ties by
//! `(item, consumer)` ascending, while
//! [`greedy_matching`][crate::greedy_matching] breaks weight ties by edge
//! id.  When edge ids ascend in `(item, consumer)` order, feeding the
//! entire candidate graph to [`IncrementalMatcher::arrive_batch`] as one
//! batch therefore offers edges in exactly the centralized greedy order,
//! preemption never fires (every earlier edge at a consumer is at least
//! as heavy), and the result *equals* `greedy_matching`'s — locked by
//! tests below, whose graphs list their edges in that order.  Otherwise
//! a weight tie can go the other way: with one consumer of capacity 1
//! and edges e0 = (t1, c0, 0.5), e1 = (t0, c0, 0.5), `greedy_matching`
//! keeps e0 and `arrive_batch` keeps (t0, c0).  The join's candidate
//! graph numbers its edges in the probe job's output order, which is not
//! `(item, consumer)` order.
//! Arrival-by-arrival replay of the same graph stays within the shared
//! ½ envelope, locked against [`GreedyMr`][crate::GreedyMr].

use smr_graph::Capacities;

/// One edge currently held by a consumer.
#[derive(Debug, Clone, Copy)]
struct Assigned {
    item: usize,
    weight: f64,
    /// Arrival sequence number: among equally-light victims the most
    /// recent is preempted first, so earlier assignments are sticky —
    /// the online analogue of greedy's lowest-edge-id-wins tie break.
    seq: u64,
}

/// An online b-matching under item and consumer capacities, updated as
/// items arrive with their candidate edges.
///
/// See the [module docs][self] for the preemption rule and the guarantee.
#[derive(Debug, Clone, Default)]
pub struct IncrementalMatcher {
    item_residual: Vec<u64>,
    consumer_residual: Vec<u64>,
    /// Edges currently assigned, grouped by consumer (each inner vec holds
    /// at most the consumer's capacity).
    per_consumer: Vec<Vec<Assigned>>,
    len: usize,
    total_weight: f64,
    preemptions: u64,
    seq: u64,
}

impl IncrementalMatcher {
    /// An empty matcher over the given per-node capacities.
    pub fn new(item_capacities: Vec<u64>, consumer_capacities: Vec<u64>) -> Self {
        let per_consumer = consumer_capacities.iter().map(|_| Vec::new()).collect();
        IncrementalMatcher {
            item_residual: item_capacities,
            consumer_residual: consumer_capacities,
            per_consumer,
            ..IncrementalMatcher::default()
        }
    }

    /// An empty matcher sized for the same node sets as `caps` (the
    /// starting point for replaying a batch instance incrementally).
    pub fn from_capacities(caps: &Capacities) -> Self {
        Self::new(
            caps.item_capacities().to_vec(),
            caps.consumer_capacities().to_vec(),
        )
    }

    /// Registers a new item (e.g. a piece of content entering the system),
    /// returning its dense index.
    pub fn add_item(&mut self, capacity: u64) -> usize {
        self.item_residual.push(capacity);
        self.item_residual.len() - 1
    }

    /// Registers a new consumer, returning its dense index.
    pub fn add_consumer(&mut self, capacity: u64) -> usize {
        self.consumer_residual.push(capacity);
        self.per_consumer.push(Vec::new());
        self.consumer_residual.len() - 1
    }

    /// Offers one edge to the matching.  Returns `true` if the edge is now
    /// assigned (possibly after preempting a strictly lighter edge at a
    /// saturated consumer), `false` if it was rejected.
    ///
    /// # Panics
    /// Panics if either endpoint is unregistered or the weight is not
    /// finite.
    pub fn offer(&mut self, item: usize, consumer: usize, weight: f64) -> bool {
        assert!(weight.is_finite(), "edge weights must be finite");
        assert!(item < self.item_residual.len(), "unregistered item {item}");
        assert!(
            consumer < self.consumer_residual.len(),
            "unregistered consumer {consumer}"
        );
        if self.item_residual[item] == 0 {
            return false;
        }
        if self.consumer_residual[consumer] > 0 {
            self.consumer_residual[consumer] -= 1;
            self.accept(item, consumer, weight);
            return true;
        }
        // Consumer saturated: preempt its lightest edge, but only for a
        // strictly heavier arrival.
        let Some(slot) = self.lightest_slot(consumer) else {
            return false; // zero-capacity consumer
        };
        if weight <= self.per_consumer[consumer][slot].weight {
            return false;
        }
        self.evict(consumer, slot);
        self.preemptions += 1;
        self.accept(item, consumer, weight);
        true
    }

    /// The slot of the consumer's lightest held edge (ties: latest arrival
    /// first) — the victim order of preemption.
    fn lightest_slot(&self, consumer: usize) -> Option<usize> {
        self.per_consumer[consumer]
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.weight
                    .partial_cmp(&b.weight)
                    .expect("assigned weights are finite")
                    .then(b.seq.cmp(&a.seq))
            })
            .map(|(slot, _)| slot)
    }

    /// Removes the edge in `slot` at `consumer`, restoring the item's
    /// capacity (but **not** the consumer's residual: the preempting edge
    /// takes the freed slot).
    fn evict(&mut self, consumer: usize, slot: usize) {
        let evicted = self.per_consumer[consumer].swap_remove(slot);
        self.item_residual[evicted.item] += 1;
        self.total_weight -= evicted.weight;
        self.len -= 1;
    }

    fn accept(&mut self, item: usize, consumer: usize, weight: f64) {
        self.item_residual[item] -= 1;
        self.per_consumer[consumer].push(Assigned {
            item,
            weight,
            seq: self.seq,
        });
        self.seq += 1;
        self.total_weight += weight;
        self.len += 1;
    }

    /// One item arrives with its candidate edges (`(consumer, weight)`
    /// pairs, e.g. a serving-index point query result).  Edges are offered
    /// heaviest first (ties toward the lower consumer index) until the
    /// item's capacity is filled; returns the consumers the item was
    /// assigned to (later arrivals may still preempt them).
    pub fn arrive(&mut self, item: usize, candidates: &[(usize, f64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[b]
                .1
                .partial_cmp(&candidates[a].1)
                .expect("edge weights are finite")
                .then(candidates[a].0.cmp(&candidates[b].0))
        });
        order
            .into_iter()
            .filter(|&i| self.offer(item, candidates[i].0, candidates[i].1))
            .map(|i| candidates[i].0)
            .collect()
    }

    /// A micro-batch of edges arrives at once.  The batch is offered
    /// weight descending, ties by `(item, consumer)` ascending, so
    /// feeding the whole candidate graph as one batch reproduces
    /// [`greedy_matching`][crate::greedy_matching] exactly when the
    /// graph's edge ids ascend in `(item, consumer)` order, the order in
    /// which `greedy_matching` breaks ties (see the [module docs][self]).
    /// Returns how many edges were assigned.
    pub fn arrive_batch(&mut self, edges: &[(usize, usize, f64)]) -> usize {
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by(|&a, &b| {
            edges[b]
                .2
                .partial_cmp(&edges[a].2)
                .expect("edge weights are finite")
                .then((edges[a].0, edges[a].1).cmp(&(edges[b].0, edges[b].1)))
        });
        order
            .into_iter()
            .filter(|&i| self.offer(edges[i].0, edges[i].1, edges[i].2))
            .count()
    }

    /// The current assignment as `(item, consumer, weight)` triples,
    /// sorted by `(item, consumer)`.
    pub fn assignment(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.len);
        for (consumer, held) in self.per_consumer.iter().enumerate() {
            for edge in held {
                out.push((edge.item, consumer, edge.weight));
            }
        }
        out.sort_by_key(|&(item, consumer, _)| (item, consumer));
        out
    }

    /// Total weight of the current assignment.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of edges currently assigned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edge is currently assigned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many assignments have been preempted by heavier arrivals.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// The item's remaining capacity.
    pub fn item_residual(&self, item: usize) -> u64 {
        self.item_residual[item]
    }

    /// The consumer's remaining capacity.
    pub fn consumer_residual(&self, consumer: usize) -> u64 {
        self.consumer_residual[consumer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GreedyMrConfig;
    use crate::greedy::greedy_matching;
    use crate::greedy_mr::GreedyMr;
    use smr_graph::{BipartiteGraph, ConsumerId, Edge, ItemId};
    use smr_mapreduce::{FlowContext, JobConfig};

    /// A deterministic pseudo-random bipartite instance with deliberate
    /// weight ties, edges listed in `(item, consumer)` order so edge ids
    /// follow the incremental tie order.
    fn lcg_instance(
        items: usize,
        consumers: usize,
        seed: u64,
    ) -> (BipartiteGraph, Capacities, Vec<(usize, usize, f64)>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut edges = Vec::new();
        let mut triples = Vec::new();
        for t in 0..items {
            for c in 0..consumers {
                if next() % 100 < 40 {
                    // Coarse weights on purpose: ties are common.
                    let weight = f64::from(next() % 8 + 1) / 8.0;
                    edges.push(Edge::new(ItemId(t as u32), ConsumerId(c as u32), weight));
                    triples.push((t, c, weight));
                }
            }
        }
        let graph = BipartiteGraph::from_edges(items, consumers, edges);
        let item_caps = (0..items).map(|t| 1 + (t as u64 % 3)).collect();
        let consumer_caps = (0..consumers).map(|c| 1 + (c as u64 % 2)).collect();
        (
            graph,
            Capacities::from_vectors(item_caps, consumer_caps),
            triples,
        )
    }

    fn matching_triples(
        graph: &BipartiteGraph,
        matching: &smr_graph::Matching,
    ) -> Vec<(usize, usize, f64)> {
        let mut out: Vec<(usize, usize, f64)> = matching
            .to_edge_vec()
            .into_iter()
            .map(|e| {
                let edge = graph.edge(e);
                (edge.item.index(), edge.consumer.index(), edge.weight)
            })
            .collect();
        out.sort_by_key(|&(item, consumer, _)| (item, consumer));
        out
    }

    #[test]
    fn whole_graph_as_one_batch_equals_centralized_greedy() {
        for seed in [3, 7, 42] {
            let (graph, caps, triples) = lcg_instance(12, 9, seed);
            let batch = greedy_matching(&graph, &caps);

            let mut inc = IncrementalMatcher::from_capacities(&caps);
            inc.arrive_batch(&triples);
            assert_eq!(
                inc.assignment(),
                matching_triples(&graph, &batch),
                "seed {seed}"
            );
            assert_eq!(inc.preemptions(), 0, "descending offers never preempt");
            assert!((inc.total_weight() - batch.value(&graph)).abs() < 1e-9);
        }
    }

    #[test]
    fn arrival_by_arrival_replay_stays_in_the_greedy_envelope() {
        for seed in [5, 11] {
            let (graph, caps, triples) = lcg_instance(14, 8, seed);
            let flow = FlowContext::new(JobConfig::named("inc-envelope").with_threads(2));
            let batch = GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &flow);
            let batch_value = batch.matching.value(&graph);

            let mut inc = IncrementalMatcher::from_capacities(&caps);
            for t in 0..graph.num_items() {
                let candidates: Vec<(usize, f64)> = triples
                    .iter()
                    .filter(|(item, _, _)| *item == t)
                    .map(|&(_, c, w)| (c, w))
                    .collect();
                inc.arrive(t, &candidates);
            }

            // Feasibility invariants hold throughout (checked at the end:
            // residuals never went negative because they are unsigned and
            // every accept decrements through them).
            for (c, held) in inc.per_consumer.iter().enumerate() {
                assert!(held.len() as u64 <= caps.consumer_capacities()[c]);
            }
            let mut item_degree = vec![0u64; graph.num_items()];
            for (t, _, _) in inc.assignment() {
                item_degree[t] += 1;
            }
            for (t, d) in item_degree.iter().enumerate() {
                assert!(*d <= caps.item_capacities()[t]);
            }

            // The shared ½ guarantee envelope: the online value is at
            // least half of what the batch algorithm achieves.
            assert!(
                inc.total_weight() >= 0.5 * batch_value - 1e-9,
                "seed {seed}: online {} vs batch {batch_value}",
                inc.total_weight()
            );
        }
    }

    #[test]
    fn heavier_arrivals_preempt_saturated_consumers() {
        let mut inc = IncrementalMatcher::new(vec![1, 1, 1], vec![1]);
        assert!(inc.offer(0, 0, 0.5));
        assert!(!inc.offer(1, 0, 0.5), "equal weight never preempts");
        assert!(inc.offer(2, 0, 0.9), "strictly heavier preempts");
        assert_eq!(inc.assignment(), vec![(2, 0, 0.9)]);
        assert_eq!(inc.preemptions(), 1);
        assert_eq!(inc.item_residual(0), 1, "preempted item gets capacity back");
        assert_eq!(inc.consumer_residual(0), 0);
        assert!((inc.total_weight() - 0.9).abs() < 1e-12);
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn arrivals_respect_item_capacity_and_prefer_heavy_edges() {
        let mut inc = IncrementalMatcher::new(vec![2], vec![1, 1, 1]);
        let assigned = inc.arrive(0, &[(0, 0.2), (1, 0.8), (2, 0.5)]);
        assert_eq!(assigned, vec![1, 2], "heaviest edges first");
        assert_eq!(inc.assignment(), vec![(0, 1, 0.8), (0, 2, 0.5)]);
        assert_eq!(inc.item_residual(0), 0);
    }

    #[test]
    fn zero_capacity_consumers_never_match() {
        let mut inc = IncrementalMatcher::new(vec![1], vec![0]);
        assert!(!inc.offer(0, 0, 1.0));
        assert!(inc.is_empty());
    }

    #[test]
    fn registration_grows_both_sides() {
        let mut inc = IncrementalMatcher::new(vec![], vec![]);
        let t = inc.add_item(1);
        let c = inc.add_consumer(1);
        assert_eq!((t, c), (0, 0));
        assert!(inc.offer(t, c, 0.7));
        assert_eq!(inc.len(), 1);
        let c2 = inc.add_consumer(2);
        assert!(!inc.offer(t, c2, 0.4), "item capacity is spent");
    }
}
