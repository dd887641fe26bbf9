//! Locks candidate generation to its contracts:
//!
//! * the pipeline's join is the exact one — a default `MatchingPipeline`,
//!   the [`ExactPrefixJoin`] generator and the direct
//!   `mapreduce_similarity_join_flow` call must be byte-identical, edges
//!   and counters both;
//! * the sketch generators' recall on `flickr-small` at its default σ and
//!   well-known sketch seed is pinned — DISCO and LSH are deterministic
//!   given `(seed, σ)`, so these numbers only move when the sampling
//!   math, the hash, or the dataset generator changes, and any of those
//!   must show up here as a conscious diff.

use social_content_matching::datagen::{DatasetPreset, FlickrGenerator};
use social_content_matching::graph::BipartiteGraph;
use social_content_matching::mapreduce::flow::FlowContext;
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::simjoin::mapreduce_similarity_join_flow;
use social_content_matching::sketch::{
    CandidateGenerator, DiscoSampler, ExactPrefixJoin, LshBander,
};
use social_content_matching::text::{Corpus, TokenizerConfig};
use social_content_matching::MatchingPipeline;

/// `(item, consumer, weight bits)` triples in graph order — bit-exact
/// equality, not approximate.
fn edge_bits(graph: &BipartiteGraph) -> Vec<(u32, u32, u64)> {
    graph
        .edges()
        .iter()
        .map(|e| (e.item.0, e.consumer.0, e.weight.to_bits()))
        .collect()
}

#[test]
fn default_generator_is_byte_identical_to_the_direct_join() {
    let dataset = FlickrGenerator {
        num_photos: 120,
        num_users: 40,
        vocabulary: 120,
        seed: 3,
        ..FlickrGenerator::default()
    }
    .generate();
    let sigma = 0.15;
    let quick_job = |name: &str| JobConfig::named(name).with_threads(2);

    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let direct = mapreduce_similarity_join_flow(
        &items,
        &users,
        sigma,
        &FlowContext::new(quick_job("direct")),
    );
    let generator = ExactPrefixJoin::new().generate(
        &items,
        &users,
        sigma,
        &FlowContext::new(quick_job("generator")),
    );
    let pipeline = MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(sigma)
        .job(quick_job("pipeline"))
        .build_graph();

    // The pipeline and the exact generator agree with the direct call,
    // edge for edge with bit-identical weights.
    let direct_bits = edge_bits(&direct.graph);
    assert!(!direct_bits.is_empty(), "the reference join found no edges");
    assert_eq!(edge_bits(&pipeline.graph), direct_bits);
    assert_eq!(edge_bits(&generator.graph), direct_bits);

    // And with their counters — candidate accounting, index size, shuffle
    // volume — so the default path is the old path, not merely equivalent.
    assert_eq!(pipeline.candidate_pairs, direct.candidate_pairs);
    assert_eq!(pipeline.candidates_pruned, direct.candidates_pruned);
    assert_eq!(pipeline.verify_exact, direct.verify_exact);
    assert_eq!(pipeline.verify_dot, direct.verify_dot);
    assert_eq!(pipeline.indexed_entries, direct.indexed_entries);
    assert_eq!(pipeline.shuffled_records, direct.shuffled_records);
    assert_eq!(pipeline.shuffled_bytes, direct.shuffled_bytes);
    assert_eq!(pipeline.simjoin_jobs, 1);
    assert_eq!(generator.candidate_pairs, direct.candidate_pairs);
    assert_eq!(generator.shuffled_records, direct.shuffled_records);
    assert_eq!(generator.shuffled_bytes, direct.shuffled_bytes);
    // The one job keeps the historical `-probe` suffix.
    assert_eq!(pipeline.report.job_names(), vec!["pipeline-probe"]);
}

/// The pinned frontier point per sketch generator on `flickr-small` at its
/// default σ = 0.16 and sketch seed (see EXPERIMENTS.md's frontier).
#[test]
fn sketch_recall_on_flickr_small_is_pinned() {
    let preset = DatasetPreset::FlickrSmall;
    let sigma = preset.default_sigma();
    assert_eq!(sigma, 0.16, "the pinned point moved; re-pin the guard");
    let seed = preset.sketch_seed();

    let dataset = preset.generate();
    let items = Corpus::build(dataset.items, &TokenizerConfig::tags_only());
    let consumers = Corpus::build(dataset.consumers, &TokenizerConfig::tags_only());
    let generate = |name: &str, generator: &dyn CandidateGenerator| {
        let flow = FlowContext::new(JobConfig::named(name).with_threads(2));
        generator.generate(&items, &consumers, sigma, &flow)
    };
    let exact = generate("exact", &ExactPrefixJoin::new());
    let disco = generate("disco", &DiscoSampler::new(seed, 4.0));
    let lsh = generate("lsh", &LshBander::new(seed, 16, 2));

    // The exact reference (identical to the PR 5 join regression point).
    assert_eq!(exact.graph.num_edges(), 3502);
    assert_eq!(exact.candidate_pairs, 12654);

    // DISCO at λ = 4: recall 1930/3502 ≈ 0.551 for strictly less shuffle
    // (term ids are numbered rarest first, and the sampler hashes them).
    assert_eq!(disco.graph.num_edges(), 1930);
    assert!(
        disco.shuffled_records < exact.shuffled_records,
        "DISCO must shuffle strictly fewer records than the exact join \
         ({} vs {})",
        disco.shuffled_records,
        exact.shuffled_records
    );

    // LSH at 16 bands × 2 rows: recall 1380/3502 ≈ 0.394.
    assert_eq!(lsh.graph.num_edges(), 1380);
    assert!(lsh.shuffled_records < exact.shuffled_records);

    // Both sketches stay subsets of the exact edge set with bit-identical
    // weights (exact verification is the last stage of every generator).
    let reference: std::collections::HashMap<(u32, u32), u64> = edge_bits(&exact.graph)
        .into_iter()
        .map(|(item, consumer, bits)| ((item, consumer), bits))
        .collect();
    for (name, sketch) in [("disco", &disco), ("lsh", &lsh)] {
        for (item, consumer, bits) in edge_bits(&sketch.graph) {
            assert_eq!(
                reference.get(&(item, consumer)),
                Some(&bits),
                "{name}: edge ({item}, {consumer}) is not an exact-join edge"
            );
        }
    }
}
