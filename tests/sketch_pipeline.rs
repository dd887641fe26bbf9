//! Locks the sketch candidate-generation subsystem to its contracts:
//!
//! * swapping generators is invisible when the generator is the default —
//!   a `MatchingPipeline` without `candidate_generator(...)`, one with the
//!   explicit [`ExactPrefixJoin`], and the direct
//!   `mapreduce_similarity_join_flow` call must be byte-identical, edges
//!   and counters both (the "default stays exact" acceptance criterion);
//! * the sketch generators' recall on `flickr-small` at its default σ and
//!   well-known sketch seed is pinned — DISCO and LSH are deterministic
//!   given `(seed, σ)`, so these numbers only move when the sampling
//!   math, the hash, or the dataset generator changes, and any of those
//!   must show up here as a conscious diff.

use social_content_matching::datagen::{DatasetPreset, FlickrGenerator};
use social_content_matching::mapreduce::flow::FlowContext;
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::simjoin::mapreduce_similarity_join_flow;
use social_content_matching::sketch::{DiscoSampler, ExactPrefixJoin, LshBander};
use social_content_matching::text::{Corpus, TokenizerConfig};
use social_content_matching::{CandidateGraph, MatchingPipeline};

fn quick_job(name: &str) -> JobConfig {
    JobConfig::named(name).with_threads(2)
}

/// `(item, consumer, weight bits)` triples in graph order — bit-exact
/// equality, not approximate.
fn edge_bits(candidate: &CandidateGraph) -> Vec<(u32, u32, u64)> {
    candidate
        .graph
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

    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let flow = FlowContext::new(quick_job("direct"));
    let direct = mapreduce_similarity_join_flow(&items, &users, sigma, &flow);

    let implicit = MatchingPipeline::new(dataset.clone())
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(sigma)
        .job(quick_job("implicit"))
        .build_graph();
    let explicit = MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(sigma)
        .candidate_generator(ExactPrefixJoin::new())
        .job(quick_job("explicit"))
        .build_graph();

    // Both pipeline spellings agree with the direct call, edge for edge
    // with bit-identical weights.
    let direct_bits: Vec<(u32, u32, u64)> = direct
        .graph
        .edges()
        .iter()
        .map(|e| (e.item.0, e.consumer.0, e.weight.to_bits()))
        .collect();
    assert!(!direct_bits.is_empty(), "the reference join found no edges");
    assert_eq!(edge_bits(&implicit), direct_bits);
    assert_eq!(edge_bits(&explicit), direct_bits);

    // And with its counters — candidate accounting, index size, shuffle
    // volume — so the default path is the old path, not merely equivalent.
    for candidate in [&implicit, &explicit] {
        assert_eq!(candidate.generator, direct.generator);
        assert_eq!(candidate.candidate_pairs, direct.candidate_pairs);
        assert_eq!(candidate.candidates_pruned, direct.candidates_pruned);
        assert_eq!(candidate.verify_exact, direct.verify_exact);
        assert_eq!(candidate.indexed_entries, direct.indexed_entries);
        assert_eq!(candidate.shuffled_records, direct.shuffled_records);
        assert_eq!(candidate.shuffled_bytes, direct.shuffled_bytes);
        assert_eq!(candidate.simjoin_jobs, 1);
    }
    // The one job keeps the historical `-probe` suffix.
    assert_eq!(implicit.report.job_names(), vec!["implicit-probe"]);
}

/// The pinned frontier point per sketch generator on `flickr-small` at its
/// default σ = 0.16 and sketch seed: the same numbers the `sketch`
/// experiment prints for these rows (see EXPERIMENTS.md).
#[test]
fn sketch_recall_on_flickr_small_is_pinned() {
    let preset = DatasetPreset::FlickrSmall;
    let sigma = preset.default_sigma();
    assert_eq!(sigma, 0.16, "the pinned point moved; re-pin the guard");
    let seed = preset.sketch_seed();

    let build = |name: &str| {
        MatchingPipeline::new(preset.generate())
            .tokenizer(TokenizerConfig::tags_only())
            .sigma(sigma)
            .job(quick_job(name))
    };
    let exact = build("exact").build_graph();
    let disco = build("disco")
        .candidate_generator(DiscoSampler::new(seed, 4.0))
        .build_graph();
    let lsh = build("lsh")
        .candidate_generator(LshBander::new(seed, 16, 2))
        .build_graph();

    // The exact reference (identical to the PR 5 join regression point).
    assert_eq!(exact.generator, "exact");
    assert_eq!(exact.graph.num_edges(), 3502);
    assert_eq!(exact.candidate_pairs, 12654);

    // DISCO at λ = 4: recall 1930/3502 ≈ 0.551 for strictly less shuffle
    // (term ids are numbered rarest first, and the sampler hashes them).
    assert_eq!(disco.generator, "disco-4");
    assert_eq!(disco.graph.num_edges(), 1930);
    assert!(
        disco.shuffled_records < exact.shuffled_records,
        "DISCO must shuffle strictly fewer records than the exact join \
         ({} vs {})",
        disco.shuffled_records,
        exact.shuffled_records
    );

    // LSH at 16 bands × 2 rows: recall 1380/3502 ≈ 0.394.
    assert_eq!(lsh.generator, "lsh-16x2");
    assert_eq!(lsh.graph.num_edges(), 1380);
    assert!(lsh.shuffled_records < exact.shuffled_records);

    // Both sketches stay subsets of the exact edge set with bit-identical
    // weights (exact verification is the last stage of every generator).
    let reference: std::collections::HashMap<(u32, u32), u64> = edge_bits(&exact)
        .into_iter()
        .map(|(item, consumer, bits)| ((item, consumer), bits))
        .collect();
    for sketch in [&disco, &lsh] {
        for (item, consumer, bits) in edge_bits(sketch) {
            assert_eq!(
                reference.get(&(item, consumer)),
                Some(&bits),
                "{}: edge ({item}, {consumer}) is not an exact-join edge",
                sketch.generator
            );
        }
    }
}
