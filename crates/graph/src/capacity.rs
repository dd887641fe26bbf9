//! Node capacities `b : T ∪ C → N` and the capacity-assignment policies of
//! Section 4 of the paper.
//!
//! * Consumer capacities are proportional to the consumer's activity in the
//!   system: `b(c) = α · n(c)` where `n(c)` is an activity proxy (photos
//!   posted for flickr, answers written for Yahoo! Answers) and α a global
//!   knob that simulates higher or lower system activity.
//! * The total item budget is tied to the total consumer budget,
//!   `B = Σ_c b(c)`, because `B` bounds how many item deliveries can happen.
//! * Without a quality assessment all items share `B` equally:
//!   `b(t) = max(1, B / |T|)` (the Yahoo! Answers setting).
//! * With a quality score `q(t)` (normalized to sum to one) the budget is
//!   split proportionally: `b(t) = max(1, q(t)·B)` (the flickr setting,
//!   where `q` is the share of favourites a photo received).

use crate::bipartite::BipartiteGraph;
use crate::ids::{ConsumerId, ItemId, NodeId};

/// Per-node capacities for a specific bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capacities {
    item_caps: Vec<u64>,
    consumer_caps: Vec<u64>,
}

impl Capacities {
    /// Creates capacities from explicit per-node vectors.
    ///
    /// # Panics
    /// Panics if any capacity is zero — the b-matching problem is defined
    /// with capacities in `N = {1, 2, …}`; a node that must receive nothing
    /// should simply not appear in the graph.
    pub fn from_vectors(item_caps: Vec<u64>, consumer_caps: Vec<u64>) -> Self {
        assert!(
            item_caps.iter().chain(consumer_caps.iter()).all(|&b| b > 0),
            "capacities must be strictly positive"
        );
        Capacities {
            item_caps,
            consumer_caps,
        }
    }

    /// Uniform capacities: every item gets `item_cap`, every consumer gets
    /// `consumer_cap`.
    pub fn uniform(graph: &BipartiteGraph, item_cap: u64, consumer_cap: u64) -> Self {
        Capacities::from_vectors(
            vec![item_cap; graph.num_items()],
            vec![consumer_cap; graph.num_consumers()],
        )
    }

    /// Capacity of an item.
    #[inline]
    pub fn item(&self, t: ItemId) -> u64 {
        self.item_caps[t.index()]
    }

    /// Capacity of a consumer.
    #[inline]
    pub fn consumer(&self, c: ConsumerId) -> u64 {
        self.consumer_caps[c.index()]
    }

    /// Capacity of any node.
    #[inline]
    pub fn of(&self, node: NodeId) -> u64 {
        match node {
            NodeId::Item(t) => self.item(t),
            NodeId::Consumer(c) => self.consumer(c),
        }
    }

    /// Number of items covered.
    pub fn num_items(&self) -> usize {
        self.item_caps.len()
    }

    /// Number of consumers covered.
    pub fn num_consumers(&self) -> usize {
        self.consumer_caps.len()
    }

    /// Total item-side budget `Σ_t b(t)`.
    pub fn total_item_capacity(&self) -> u64 {
        self.item_caps.iter().sum()
    }

    /// Total consumer-side budget `B = Σ_c b(c)`.
    pub fn total_consumer_capacity(&self) -> u64 {
        self.consumer_caps.iter().sum()
    }

    /// All item capacities (dense by [`ItemId`]).
    pub fn item_capacities(&self) -> &[u64] {
        &self.item_caps
    }

    /// All consumer capacities (dense by [`ConsumerId`]).
    pub fn consumer_capacities(&self) -> &[u64] {
        &self.consumer_caps
    }

    /// Checks that the capacity vectors match the graph's node counts.
    pub fn matches(&self, graph: &BipartiteGraph) -> bool {
        self.item_caps.len() == graph.num_items()
            && self.consumer_caps.len() == graph.num_consumers()
    }
}

/// The capacity-assignment policies of Section 4, parameterized by the
/// activity factor α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// The activity multiplier α: higher values simulate a system in which
    /// consumers log in (and therefore can be shown content) more often.
    pub alpha: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel { alpha: 1.0 }
    }
}

impl CapacityModel {
    /// Creates a model with the given α.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        CapacityModel { alpha }
    }

    /// Consumer capacities from an activity proxy: `b(c) = max(1, round(α·n(c)))`,
    /// α·n(c) rounded to the nearest integer, halves away from zero.
    pub fn consumer_capacities(&self, activity: &[u64]) -> Vec<u64> {
        activity
            .iter()
            .map(|&n| ((self.alpha * n as f64).round() as u64).max(1))
            .collect()
    }

    /// Uniform item capacities: `b(t) = max(1, ⌊B / |T|⌋)`.
    pub fn uniform_item_capacities(&self, total_budget: u64, num_items: usize) -> Vec<u64> {
        assert!(num_items > 0, "cannot assign capacities to zero items");
        let per_item = (total_budget / num_items as u64).max(1);
        vec![per_item; num_items]
    }

    /// Quality-proportional item capacities: `b(t) = max(1, round(q(t)·B))`
    /// where `q` is normalized to sum to one.
    ///
    /// # Panics
    /// Panics if `quality` is empty or sums to zero.
    pub fn quality_item_capacities(&self, total_budget: u64, quality: &[f64]) -> Vec<u64> {
        assert!(!quality.is_empty(), "quality scores must be non-empty");
        let total: f64 = quality.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "quality scores must have a positive finite sum"
        );
        quality
            .iter()
            .map(|&q| (((q / total) * total_budget as f64).round() as u64).max(1))
            .collect()
    }

    /// The flickr policy of Section 6: consumers get activity-proportional
    /// capacities from the number of photos they posted, photos get
    /// favourite-proportional capacities:
    /// `b(p) = f(p) · Σ_u α·n(u) / Σ_q f(q)`.
    pub fn flickr(&self, photos_per_user: &[u64], favorites_per_photo: &[u64]) -> Capacities {
        let consumer_caps = self.consumer_capacities(photos_per_user);
        let budget: u64 = consumer_caps.iter().sum();
        let quality: Vec<f64> = favorites_per_photo.iter().map(|&f| f as f64).collect();
        let item_caps = if quality.iter().sum::<f64>() > 0.0 {
            self.quality_item_capacities(budget, &quality)
        } else {
            self.uniform_item_capacities(budget, favorites_per_photo.len())
        };
        Capacities::from_vectors(item_caps, consumer_caps)
    }

    /// The Yahoo! Answers policy of Section 6: consumers get
    /// activity-proportional capacities from the number of answers they
    /// wrote, and every question gets the same capacity
    /// `b(q) = Σ_u α·n(u) / |Q|`.
    pub fn answers(&self, answers_per_user: &[u64], num_questions: usize) -> Capacities {
        let consumer_caps = self.consumer_capacities(answers_per_user);
        let budget: u64 = consumer_caps.iter().sum();
        let item_caps = self.uniform_item_capacities(budget, num_questions);
        Capacities::from_vectors(item_caps, consumer_caps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::Edge;

    #[test]
    fn uniform_capacities_cover_every_node() {
        let g = BipartiteGraph::from_edges(2, 3, vec![Edge::new(ItemId(0), ConsumerId(0), 1.0)]);
        let caps = Capacities::uniform(&g, 2, 5);
        assert!(caps.matches(&g));
        assert_eq!(caps.item(ItemId(1)), 2);
        assert_eq!(caps.consumer(ConsumerId(2)), 5);
        assert_eq!(caps.of(NodeId::item(0)), 2);
        assert_eq!(caps.of(NodeId::consumer(0)), 5);
        assert_eq!(caps.total_item_capacity(), 4);
        assert_eq!(caps.total_consumer_capacity(), 15);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_capacities_are_rejected() {
        Capacities::from_vectors(vec![1, 0], vec![1]);
    }

    #[test]
    fn consumer_capacities_scale_with_alpha_and_floor_at_one() {
        let activity = vec![0, 1, 10, 100];
        let low = CapacityModel::new(0.5).consumer_capacities(&activity);
        assert_eq!(low, vec![1, 1, 5, 50]);
        let high = CapacityModel::new(2.0).consumer_capacities(&activity);
        assert_eq!(high, vec![1, 2, 20, 200]);
    }

    #[test]
    fn uniform_item_capacities_split_budget() {
        let m = CapacityModel::default();
        assert_eq!(m.uniform_item_capacities(100, 10), vec![10; 10]);
        // A tiny budget still gives every item capacity one.
        assert_eq!(m.uniform_item_capacities(3, 10), vec![1; 10]);
    }

    #[test]
    fn quality_item_capacities_are_proportional() {
        let m = CapacityModel::default();
        let caps = m.quality_item_capacities(100, &[3.0, 1.0]);
        assert_eq!(caps, vec![75, 25]);
        // Unnormalized scores are normalized internally.
        let caps2 = m.quality_item_capacities(100, &[30.0, 10.0]);
        assert_eq!(caps, caps2);
        // Items with negligible quality still get capacity one.
        let caps3 = m.quality_item_capacities(10, &[1000.0, 0.0001]);
        assert_eq!(caps3[1], 1);
    }

    #[test]
    fn flickr_policy_ties_item_budget_to_consumer_budget() {
        let m = CapacityModel::new(1.0);
        let photos_per_user = vec![4, 6]; // budget = 10
        let favorites = vec![1, 1, 8]; // photo 2 is the popular one
        let caps = m.flickr(&photos_per_user, &favorites);
        assert_eq!(caps.total_consumer_capacity(), 10);
        assert_eq!(caps.item(ItemId(2)), 8);
        assert_eq!(caps.item(ItemId(0)), 1);
        assert_eq!(caps.num_items(), 3);
    }

    #[test]
    fn flickr_policy_with_no_favorites_falls_back_to_uniform() {
        let m = CapacityModel::new(1.0);
        let caps = m.flickr(&[5, 5], &[0, 0]);
        assert_eq!(caps.item_capacities(), &[5, 5]);
    }

    #[test]
    fn answers_policy_gives_constant_question_capacity() {
        let m = CapacityModel::new(1.0);
        let caps = m.answers(&[2, 4, 6], 4); // budget = 12, 4 questions
        assert_eq!(caps.item_capacities(), &[3, 3, 3, 3]);
        assert_eq!(caps.consumer_capacities(), &[2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn non_positive_alpha_is_rejected() {
        CapacityModel::new(0.0);
    }
}
