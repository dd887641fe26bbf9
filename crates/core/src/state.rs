//! The node-centric graph representation shared by the MapReduce
//! algorithms (Section 5.3 of the paper).
//!
//! Every matcher's round state is one [`NodeRecord`] per node (the
//! maximal matcher's adds F to each edge, see [`crate::maximal`]), keyed
//! by the node: its residual capacity and the list of incident edges it
//! still considers live.  A record never names its own node; the key does, and
//! each reducer gets the key beside the record.  Decisions are local to a
//! node; reduce functions hold a node's record against its neighbours'
//! notes about the edges they share, yielding a consistent graph
//! representation as output.
//!
//! The records are the partition-resident state of a
//! [`smr_mapreduce::RoundState`]: a node's record never crosses the
//! shuffle, its reducer gets it beside the round's notes and sends the
//! next round's, and every round job of every matcher exchanges the same
//! note: the [`EdgeId`] of one edge, sent to the neighbour across it, which
//! the round reads as proposed, marked, selected, dropped or nominated.
//! Keyed by its receiver, a note is 13 bytes: 5 of key, 8 of edge id.  A
//! node sends a note only where it can change the neighbour's decision;
//! an edge without a note means what the protocol of the round says it
//! means (not proposed, not marked, not covered …), so the shuffle
//! carries the exceptions, not every live edge.
//!
//! A fact about a node rather than an edge — GreedyMR's unmatched
//! capacity, the maximal matcher's "F saturates me", StackMR's dual `y_v`
//! and its ratio `y_v/b(v)` — would be a
//! note across every edge the node still lists.  It travels instead as
//! side output of the round that decides it, which the driver writes into
//! a [`NodeTable`] and hands by reference to the next round's reducer.  A
//! table is |V| entries in driver RAM, outside the memory budget, like
//! StackMR's edge-indexed `layer_of`.

use std::cmp::Reverse;
use std::ops::{Index, IndexMut};

use smr_graph::{BipartiteGraph, Capacities, EdgeId, NodeId};
use smr_storage::impl_codec_struct;

/// One entry of a node's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjEdge {
    /// Global edge identifier.
    pub edge: EdgeId,
    /// The other endpoint.
    pub other: NodeId,
    /// Edge weight.
    pub weight: f64,
}

impl_codec_struct!(AdjEdge {
    edge,
    other,
    weight
});

impl AdjEdge {
    /// Creates an adjacency entry.
    pub fn new(edge: EdgeId, other: NodeId, weight: f64) -> Self {
        AdjEdge {
            edge,
            other,
            weight,
        }
    }
}

/// A node's view of the current graph state.  The node itself is the
/// record's key in the round state, so the record does not name it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Remaining capacity of the node.
    pub capacity: u64,
    /// Incident edges the node still considers live.
    pub adjacency: Vec<AdjEdge>,
}

impl_codec_struct!(NodeRecord {
    capacity,
    adjacency
});

impl NodeRecord {
    /// Creates a record.
    pub fn new(capacity: u64, adjacency: Vec<AdjEdge>) -> Self {
        NodeRecord {
            capacity,
            adjacency,
        }
    }

    /// Whether the node has no live incident edges.
    pub fn is_isolated(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Moves the node's proposals to the front of its adjacency: its
    /// [`NodeRecord::proposal_count`] heaviest entries, heaviest first,
    /// ties broken by edge id so that the order is deterministic.  The
    /// rest of the adjacency is left in an unspecified but deterministic
    /// order.  The first `sorted` entries must already be the `sorted`
    /// heaviest, in that order: deleting entries keeps that true of the
    /// ones that survive, so a round re-selects only the proposals it lost.
    ///
    /// # Panics
    /// Panics on a weight that is not finite and positive among the
    /// entries it compares, which no [`BipartiteGraph`] admits: only for
    /// those do the bit patterns order like the weights.
    pub fn select_heaviest(&mut self, sorted: usize) {
        let k = self.proposal_count();
        select_heaviest_prefix(&mut self.adjacency, sorted, k, |adj| (adj.weight, adj.edge));
    }

    /// How many edges the node proposes in a GreedyMR round: its `b(v)`
    /// heaviest live edges — after [`NodeRecord::select_heaviest`], the
    /// first so many adjacency entries.
    pub fn proposal_count(&self) -> usize {
        (self.capacity as usize).min(self.adjacency.len())
    }
}

/// Moves the `k` heaviest of `entries` to its front, heaviest first with
/// ties broken toward the lower id, where `weight_and_id` reads an entry's
/// weight and id; the rest stays in an unspecified but deterministic
/// order.  The first `sorted` entries must already be the `sorted`
/// heaviest, in that order.  Only the entries past them are compared: a
/// selection splits off the missing ones and sorts just those, so no
/// entry past the `k` heaviest is ever put in order.
///
/// # Panics
/// Panics on a compared weight that is not finite and positive.
pub(crate) fn select_heaviest_prefix<T>(
    entries: &mut [T],
    sorted: usize,
    k: usize,
    weight_and_id: impl Fn(&T) -> (f64, usize),
) {
    let k = k.min(entries.len());
    if sorted >= k {
        return;
    }
    let tail = &mut entries[sorted..];
    assert!(
        tail.iter().all(|entry| {
            let (weight, _) = weight_and_id(entry);
            weight.is_finite() && weight > 0.0
        }),
        "edge weights are finite and positive"
    );
    let heaviest_first = |entry: &T| {
        let (weight, id) = weight_and_id(entry);
        (Reverse(weight.to_bits()), id)
    };
    let missing = k - sorted;
    if missing < tail.len() {
        tail.select_nth_unstable_by_key(missing - 1, heaviest_first);
    }
    tail[..missing].sort_unstable_by_key(heaviest_first);
}

/// A node's notes of one round, looked up by edge.  A note is the id of
/// the edge the neighbour shares with the receiving node; everything
/// else about the edge (weight, the other endpoint, the node's capacity)
/// is in the receiver's own record, which the round's reducer gets beside
/// its notes.  An edge without a note means the neighbour sent none,
/// which each round's protocol reads as its default.
pub fn peer_notes(notes: &[EdgeId]) -> PeerNotes {
    let mut notes = notes.to_vec();
    notes.sort_unstable();
    PeerNotes(notes)
}

/// Edge-sorted neighbour notes (see [`peer_notes`]).
#[derive(Debug, Clone)]
pub struct PeerNotes(Vec<EdgeId>);

impl PeerNotes {
    /// Whether the neighbour sent a note about `edge`: a proposal, a mark,
    /// a selection, a drop or a nomination, whichever the round sends.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.0.binary_search(&edge).is_ok()
    }
}

/// One value per node of a graph: the side data a round reads about its
/// neighbours, filled by the driver between rounds.  Items take the first
/// slots and consumers the rest, so the table is dense.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable<T> {
    items: usize,
    values: Vec<T>,
}

impl<T: Clone> NodeTable<T> {
    /// A table over `items` items and `consumers` consumers, every entry
    /// `fill`.
    pub fn new(items: usize, consumers: usize, fill: T) -> Self {
        NodeTable {
            items,
            values: vec![fill; items + consumers],
        }
    }

    /// A table over the nodes of `graph`, every entry `fill`.
    pub fn for_graph(graph: &BipartiteGraph, fill: T) -> Self {
        NodeTable::new(graph.num_items(), graph.num_consumers(), fill)
    }
}

impl<T> NodeTable<T> {
    /// The node's slot: items first, then consumers.  An item past the
    /// table's items would land on a consumer's slot, not out of bounds.
    fn slot(&self, node: NodeId) -> usize {
        match node {
            NodeId::Item(t) => {
                debug_assert!(t.index() < self.items, "item {t} outside the table");
                t.index()
            }
            NodeId::Consumer(c) => self.items + c.index(),
        }
    }
}

impl<T> Index<NodeId> for NodeTable<T> {
    type Output = T;

    fn index(&self, node: NodeId) -> &T {
        &self.values[self.slot(node)]
    }
}

impl<T> IndexMut<NodeId> for NodeTable<T> {
    fn index_mut(&mut self, node: NodeId) -> &mut T {
        let slot = self.slot(node);
        &mut self.values[slot]
    }
}

/// Builds the seed of a matcher's round state from the edges `keep`
/// accepts: one record per node with a kept edge, in node order, at
/// capacity `b(v)`, listing its kept edges in ascending edge id (the
/// order of [`BipartiteGraph::incident_edges`]).  A node's kept edges are
/// counted before its adjacency is allocated, so it has exactly that
/// size.  The walk is over each node's incidence, not over the edge
/// array: filling from the edge array scatters every edge's consumer-side
/// write across all the consumers' lists, and took about twice as long
/// on flickr-large on a 2-vCPU box.
pub fn build_node_records(
    graph: &BipartiteGraph,
    caps: &Capacities,
    keep: impl Fn(EdgeId) -> bool,
) -> Vec<(NodeId, NodeRecord)> {
    assert!(
        caps.matches(graph),
        "capacities were built for a different graph"
    );
    graph
        .nodes()
        .filter_map(|v| {
            let kept = || graph.incident_edges(v).iter().filter(|&&e| keep(e));
            let degree = kept().count();
            (degree > 0).then(|| {
                let mut adjacency = Vec::with_capacity(degree);
                adjacency.extend(kept().map(|&e| {
                    let edge = graph.edge(e);
                    AdjEdge::new(e, edge.other_endpoint(v), edge.weight)
                }));
                (v, NodeRecord::new(caps.of(v), adjacency))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_graph::{ConsumerId, Edge, ItemId};

    fn graph() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 3.0),
                Edge::new(ItemId(1), ConsumerId(1), 2.0),
            ],
        )
    }

    #[test]
    fn build_node_records_covers_non_isolated_nodes() {
        let g = graph();
        let caps = Capacities::uniform(&g, 2, 1);
        let records = build_node_records(&g, &caps, |_| true);
        assert_eq!(records.len(), 4);
        let (_, item0) = records.iter().find(|(k, _)| *k == NodeId::item(0)).unwrap();
        assert_eq!(item0.capacity, 2);
        assert_eq!(item0.adjacency.len(), 2);
        assert_eq!(item0.adjacency[0].other, NodeId::consumer(0));
        let entries: usize = records.iter().map(|(_, r)| r.adjacency.len()).sum();
        assert_eq!(entries, 6, "2|E|: every edge at both ends");
    }

    #[test]
    fn isolated_nodes_get_no_record() {
        let g = BipartiteGraph::from_edges(2, 1, vec![Edge::new(ItemId(0), ConsumerId(0), 1.0)]);
        let caps = Capacities::uniform(&g, 1, 1);
        let records = build_node_records(&g, &caps, |_| true);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|(k, _)| *k != NodeId::item(1)));
    }

    #[test]
    fn the_filter_seeds_the_kept_edges_alone_at_exact_size() {
        let g = graph();
        let caps = Capacities::uniform(&g, 2, 1);
        let records = build_node_records(&g, &caps, |e| e != 1);
        let seeded: Vec<(NodeId, Vec<EdgeId>)> = records
            .iter()
            .map(|(node, record)| (*node, edge_ids(&record.adjacency)))
            .collect();
        assert_eq!(
            seeded,
            [
                (NodeId::item(0), vec![0]),
                (NodeId::item(1), vec![2]),
                (NodeId::consumer(0), vec![0]),
                (NodeId::consumer(1), vec![2]),
            ]
        );
        for (_, record) in &records {
            assert_eq!(record.adjacency.capacity(), record.adjacency.len());
        }
        // A node none of whose edges is kept gets no record.
        let records = build_node_records(&g, &caps, |e| e == 2);
        let nodes: Vec<NodeId> = records.iter().map(|(node, _)| *node).collect();
        assert_eq!(nodes, [NodeId::item(1), NodeId::consumer(1)]);
    }

    fn edge_ids(adjacency: &[AdjEdge]) -> Vec<EdgeId> {
        adjacency.iter().map(|adj| adj.edge).collect()
    }

    #[test]
    fn heaviest_first_orders_by_weight_then_id() {
        let g = graph();
        let caps = Capacities::uniform(&g, 2, 2);
        let mut records = build_node_records(&g, &caps, |_| true);
        // Item 0 lists edge 0 (w=1.0) before edge 1 (w=3.0).
        let (_, t0) = records
            .iter_mut()
            .find(|(k, _)| *k == NodeId::item(0))
            .unwrap();
        assert_eq!(edge_ids(&t0.adjacency), vec![0, 1]);
        t0.select_heaviest(0);
        assert_eq!(edge_ids(&t0.adjacency), vec![1, 0]);
        assert_eq!(t0.proposal_count(), 2, "capacity 2, two live edges");
        t0.capacity = 1;
        assert_eq!(t0.proposal_count(), 1);
        t0.capacity = 0;
        assert_eq!(t0.proposal_count(), 0, "a saturated node proposes nothing");
    }

    #[test]
    fn heaviest_first_breaks_weight_ties_by_edge_id_and_survives_deletion() {
        // Built in descending edge-id order so the selection has work to do.
        let mut t0 = NodeRecord::new(
            2,
            (0..4)
                .rev()
                .map(|e| AdjEdge::new(e, NodeId::consumer(e as u32), 1.0))
                .collect(),
        );
        t0.select_heaviest(0);
        // The proposals are the prefix: edges 0 and 1.
        assert_eq!(edge_ids(&t0.adjacency[..t0.proposal_count()]), vec![0, 1]);
        // Deleting an entry (a matched or dropped edge) keeps the
        // surviving proposal first; re-selecting past it refills the
        // prefix from the unordered rest: edges 1 and 2.
        t0.adjacency.remove(0);
        t0.select_heaviest(1);
        assert_eq!(edge_ids(&t0.adjacency[..t0.proposal_count()]), vec![1, 2]);
    }

    #[test]
    fn peer_notes_are_looked_up_by_edge() {
        let notes = peer_notes(&[9, 4]);
        assert!(notes.contains(9) && notes.contains(4));
        assert!(!notes.contains(5), "no note: the neighbour sent none");
        assert!(!peer_notes(&[]).contains(0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn heaviest_first_rejects_a_non_positive_weight() {
        let mut t0 = NodeRecord::new(
            1,
            vec![
                AdjEdge::new(0, NodeId::consumer(0), 1.0),
                AdjEdge::new(1, NodeId::consumer(1), -0.0),
            ],
        );
        t0.select_heaviest(0);
    }

    #[test]
    fn reselected_proposals_equal_a_full_sort_under_deletions() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Four distinct weights over up to 40 entries: many ties, so
            // the edge-id tie break decides most of the order.
            let len = rng.gen_range(0..40usize);
            let mut ids: Vec<EdgeId> = (0..len).collect();
            ids.shuffle(&mut rng);
            let adjacency: Vec<AdjEdge> = ids
                .iter()
                .map(|&e| {
                    let weight = [0.25, 0.5, 0.75, 1.0][rng.gen_range(0..4usize)];
                    AdjEdge::new(e, NodeId::consumer(e as u32), weight)
                })
                .collect();
            let mut reference = adjacency.clone();
            reference.sort_by_key(|adj| (Reverse(adj.weight.to_bits()), adj.edge));
            let mut record = NodeRecord::new(rng.gen_range(1..7u64), adjacency);

            let mut kept = 0;
            loop {
                record.select_heaviest(kept);
                let k = record.proposal_count();
                assert_eq!(record.adjacency[..k], reference[..k], "seed {seed}");
                let mut listed = edge_ids(&record.adjacency);
                listed.sort_unstable();
                let mut expected = edge_ids(&reference);
                expected.sort_unstable();
                assert_eq!(listed, expected, "seed {seed}: the same entries");
                if k == 0 {
                    break;
                }
                // A round: delete entries anywhere, proposed or not, and
                // take some capacity away.
                let mut idx = 0;
                kept = 0;
                let mut deleted = Vec::new();
                record.adjacency.retain(|adj| {
                    let proposed = idx < k;
                    idx += 1;
                    let keep = rng.gen_bool(0.7);
                    if keep {
                        kept += usize::from(proposed);
                    } else {
                        deleted.push(adj.edge);
                    }
                    keep
                });
                reference.retain(|adj| !deleted.contains(&adj.edge));
                record.capacity -= rng.gen_range(0..record.capacity.min(2) + 1);
            }
        }
    }

    #[test]
    fn node_tables_give_items_and_consumers_their_own_slots() {
        let g = graph();
        let mut table = NodeTable::for_graph(&g, 0u8);
        table[NodeId::item(1)] = 1;
        table[NodeId::consumer(0)] = 2;
        table[NodeId::consumer(1)] = 3;
        assert_eq!(
            table.values,
            vec![0, 1, 2, 3],
            "items first, then consumers"
        );
        assert_eq!(table[NodeId::consumer(1)], 3);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn mismatched_capacities_are_rejected() {
        let g = graph();
        let caps = Capacities::from_vectors(vec![1], vec![1]);
        build_node_records(&g, &caps, |_| true);
    }
}
