//! Exact all-pairs similarity join, used as ground truth in tests and as
//! the no-pruning baseline in the ablation benchmarks.

use smr_graph::{BipartiteGraph, ConsumerId, Edge, ItemId};
use smr_text::Corpus;

use crate::align::AlignedCorpora;

/// Computes every item–consumer pair with dot-product similarity `>= sigma`
/// by brute force and returns the candidate-edge graph.
///
/// The two corpora are aligned over a shared vocabulary first
/// ([`AlignedCorpora::of`], the same alignment the MapReduce join
/// applies); items become the left side of the graph and consumers the
/// right side, each node at its document's position, and the edge weight
/// is the similarity.
pub fn baseline_similarity_join(items: &Corpus, consumers: &Corpus, sigma: f64) -> BipartiteGraph {
    assert!(sigma > 0.0, "threshold must be positive");
    let aligned = AlignedCorpora::of(items, consumers);
    let (items, consumers) = (aligned.item_vectors(), aligned.consumer_vectors());
    let mut edges = Vec::new();
    for (t, item) in items.iter().enumerate() {
        if item.is_empty() {
            continue;
        }
        for (c, consumer) in consumers.iter().enumerate() {
            let sim = item.dot(consumer);
            if sim >= sigma {
                edges.push(Edge::new(ItemId(t as u32), ConsumerId(c as u32), sim));
            }
        }
    }
    BipartiteGraph::from_edges(items.len(), consumers.len(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_text::{Document, TokenizerConfig};

    fn corpora() -> (Corpus, Corpus) {
        let items = Corpus::build(
            vec![
                Document::new("photo-beach", "beach sunset ocean waves"),
                Document::new("photo-city", "city skyline night lights"),
            ],
            &TokenizerConfig::tags_only(),
        );
        let consumers = Corpus::build(
            vec![
                Document::new("user-sea", "ocean beach surfing waves"),
                Document::new("user-urban", "city architecture lights"),
                Document::new("user-food", "pasta pizza cooking"),
            ],
            &TokenizerConfig::tags_only(),
        );
        (items, consumers)
    }

    #[test]
    fn finds_only_pairs_above_the_threshold() {
        let (items, consumers) = corpora();
        let g = baseline_similarity_join(&items, &consumers, 0.2);
        assert_eq!(g.num_items(), 2);
        assert_eq!(g.num_consumers(), 3);
        // beach photo matches sea user, city photo matches urban user; the
        // food user matches nothing.
        assert_eq!(g.num_edges(), 2);
        assert!(g.edges().iter().all(|e| e.weight >= 0.2));
    }

    #[test]
    fn a_higher_threshold_keeps_fewer_edges() {
        let (items, consumers) = corpora();
        let low = baseline_similarity_join(&items, &consumers, 0.05);
        let high = baseline_similarity_join(&items, &consumers, 0.6);
        assert!(high.num_edges() <= low.num_edges());
    }

    #[test]
    fn graph_nodes_are_document_positions() {
        let (items, consumers) = corpora();
        let g = baseline_similarity_join(&items, &consumers, 0.2);
        let position = |corpus: &Corpus, id: &str| {
            corpus.documents().iter().position(|d| d.id == id).unwrap() as u32
        };
        let beach = ItemId(position(&items, "photo-beach"));
        let sea = ConsumerId(position(&consumers, "user-sea"));
        assert!(g
            .edges()
            .iter()
            .any(|e| e.item == beach && e.consumer == sea));
        let food = ConsumerId(position(&consumers, "user-food"));
        assert_eq!(g.degree(smr_graph::NodeId::Consumer(food)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_is_rejected() {
        let (items, consumers) = corpora();
        baseline_similarity_join(&items, &consumers, 0.0);
    }
}
