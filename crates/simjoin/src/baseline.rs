//! Exact all-pairs similarity join, used as ground truth in tests and as
//! the no-pruning baseline in the ablation benchmarks.

use smr_graph::{BipartiteGraph, GraphBuilder};
use smr_text::Corpus;

use crate::align::AlignedCorpora;

/// Computes every item–consumer pair with dot-product similarity `>= sigma`
/// by brute force and returns the candidate-edge graph.
///
/// The two corpora are aligned over a shared vocabulary first
/// ([`AlignedCorpora::of`], the same alignment the MapReduce join
/// applies); items become the left side of the graph (labelled with their
/// document ids), consumers the right side, and the edge weight is the
/// similarity.
pub fn baseline_similarity_join(items: &Corpus, consumers: &Corpus, sigma: f64) -> BipartiteGraph {
    assert!(sigma > 0.0, "threshold must be positive");
    let aligned = AlignedCorpora::of(items, consumers);
    let mut builder = GraphBuilder::new();
    for label in aligned.item_labels() {
        builder.add_item(label);
    }
    for label in aligned.consumer_labels() {
        builder.add_consumer(label);
    }
    for (t, item) in aligned.item_vectors().iter().enumerate() {
        if item.is_empty() {
            continue;
        }
        for (c, consumer) in aligned.consumer_vectors().iter().enumerate() {
            let sim = item.dot(consumer);
            if sim >= sigma {
                builder.add_edge(
                    smr_graph::ItemId(t as u32),
                    smr_graph::ConsumerId(c as u32),
                    sim,
                );
            }
        }
    }
    builder.build()
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
    fn graph_labels_carry_document_ids() {
        let (items, consumers) = corpora();
        let g = baseline_similarity_join(&items, &consumers, 0.2);
        assert_eq!(g.item_label(smr_graph::ItemId(0)), "photo-beach");
        assert_eq!(g.consumer_label(smr_graph::ConsumerId(2)), "user-food");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_is_rejected() {
        let (items, consumers) = corpora();
        baseline_similarity_join(&items, &consumers, 0.0);
    }
}
