//! Regression test for the pipeline's `tokenizer` setter: the configured
//! tokenizer must reach the vectors that are actually joined — in batch
//! mode *and* in serving mode.  Every synthetic preset emits `tag<n>` /
//! `word<n>` tokens, on which the tags-only and the default (stop-words +
//! stemming) configurations agree, so only inflected English text can
//! tell whether the setting is honoured.

use social_content_matching::datagen::social::{ItemCapacityPolicy, SocialDataset};
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::text::{Document, TokenizerConfig};
use social_content_matching::MatchingPipeline;

const SIGMA: f64 = 0.3;

fn dataset() -> SocialDataset {
    SocialDataset {
        name: "inflected".to_string(),
        items: vec![
            Document::new("q0", "Baking breads"),
            Document::new("q1", "Restoring vintage cars"),
        ],
        consumers: vec![
            Document::new("u0", "bake bread"),
            Document::new("u1", "vintage car shows"),
            Document::new("u2", "baking breads daily"),
        ],
        item_quality: vec![1, 1],
        consumer_activity: vec![2, 2, 2],
        item_capacity_policy: ItemCapacityPolicy::Uniform,
    }
}

fn pipeline(tokenizer: &TokenizerConfig) -> MatchingPipeline {
    MatchingPipeline::new(dataset())
        .tokenizer(tokenizer.clone())
        .sigma(SIGMA)
        .job(JobConfig::named("tokenizer-test").with_threads(2))
}

/// `(item, consumer, weight bits)` of the batch candidate graph, sorted.
fn batch_edges(tokenizer: &TokenizerConfig) -> Vec<(usize, usize, u64)> {
    let candidate = pipeline(tokenizer).build_graph();
    let mut edges: Vec<_> = candidate
        .join
        .graph
        .edges()
        .iter()
        .map(|e| (e.item.index(), e.consumer.index(), e.weight.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

/// The same triples from one point query per item against `serve()`.
fn served_edges(tokenizer: &TokenizerConfig) -> Vec<(usize, usize, u64)> {
    let serving = pipeline(tokenizer).serve();
    let mut edges = Vec::new();
    for (t, doc) in dataset().items.iter().enumerate() {
        for m in serving.match_text(&doc.text, usize::MAX) {
            edges.push((t, m.consumer, m.score.to_bits()));
        }
    }
    edges.sort_unstable();
    edges
}

fn pairs(edges: &[(usize, usize, u64)]) -> Vec<(usize, usize)> {
    edges.iter().map(|&(t, c, _)| (t, c)).collect()
}

#[test]
fn the_tokenizer_setting_reaches_the_join_and_the_serving_path() {
    let raw = batch_edges(&TokenizerConfig::tags_only());
    let stemmed = batch_edges(&TokenizerConfig::default());

    // Without stemming "Baking breads" shares nothing with "bake bread"
    // (and "cars" is not "car"); with it they are the same terms.
    assert_eq!(pairs(&raw), vec![(0, 2)]);
    assert_eq!(pairs(&stemmed), vec![(0, 0), (0, 2), (1, 1)]);

    // Serving vectorizes arrivals with the same tokenizer, so its point
    // queries reproduce the batch edges — weights bit for bit — under
    // both configurations.
    assert_eq!(served_edges(&TokenizerConfig::tags_only()), raw);
    assert_eq!(served_edges(&TokenizerConfig::default()), stemmed);
}
