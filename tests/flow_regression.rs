//! Regression tests for the `flow` API redesign: the old hand-wired entry
//! points (`mapreduce_similarity_join_flow` + `GreedyMr::run` / `StackMr::run`)
//! and the new `Dataset`-chain path behind `MatchingPipeline` must produce
//! byte-identical results, and a single `FlowReport` must reproduce the
//! per-stage job counts (1 similarity-join job, one job per GreedyMR
//! round) and total shuffled records.

use social_content_matching::datagen::FlickrGenerator;
use social_content_matching::mapreduce::flow::FlowContext;
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::matching::{
    AlgorithmKind, GreedyMr, GreedyMrConfig, StackMr, StackMrConfig,
};
use social_content_matching::simjoin::mapreduce_similarity_join_flow;
use social_content_matching::text::{Corpus, TokenizerConfig};
use social_content_matching::MatchingPipeline;

fn dataset() -> social_content_matching::datagen::SocialDataset {
    FlickrGenerator {
        num_photos: 120,
        num_users: 40,
        vocabulary: 120,
        seed: 3,
        ..FlickrGenerator::default()
    }
    .generate()
}

const SIGMA: f64 = 0.15;

fn quick_job(name: &str) -> JobConfig {
    JobConfig::named(name).with_threads(2)
}

#[test]
fn pipeline_run_is_byte_identical_to_the_pre_redesign_glue() {
    let dataset = dataset();

    // --- the pre-redesign glue, verbatim: hand-built corpora, the join
    // on a flow of its own, a self-contained GreedyMr run ---
    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let join =
        mapreduce_similarity_join_flow(&items, &users, SIGMA, &FlowContext::new(quick_job("old")));
    let caps = dataset.capacities(1.0);
    let old_flow = FlowContext::new(quick_job("old"));
    let old_matching = GreedyMr::new(GreedyMrConfig::default()).run(&join.graph, &caps, &old_flow);

    // --- the new chain ---
    let run = MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(SIGMA)
        .alpha(1.0)
        .algorithm(AlgorithmKind::GreedyMr)
        .job(quick_job("new"))
        .run();

    // Candidate graphs byte-identical: same edges in the same order with
    // bit-identical weights.
    assert_eq!(run.graph.num_edges(), join.graph.num_edges());
    for (new_edge, old_edge) in run.graph.edges().iter().zip(join.graph.edges()) {
        assert_eq!(new_edge.item, old_edge.item);
        assert_eq!(new_edge.consumer, old_edge.consumer);
        assert_eq!(new_edge.weight, old_edge.weight);
    }
    // And its counters: candidate accounting, index size, shuffle volume.
    assert_eq!(run.candidate_pairs, join.candidate_pairs);
    assert_eq!(run.candidates_pruned, join.candidates_pruned);
    assert_eq!(run.verify_exact, join.verify_exact);
    assert_eq!(run.verify_dot, join.verify_dot);
    assert_eq!(run.indexed_entries, join.indexed_entries);
    assert_eq!(run.shuffled_records, join.shuffled_records);
    assert_eq!(run.shuffled_bytes, join.shuffled_bytes);
    // The join's one job keeps the historical `-probe` suffix.
    assert_eq!(run.report.job_names()[0], "new-probe");

    // Matchings byte-identical, round for round.
    assert_eq!(
        run.matching.matching.to_edge_vec(),
        old_matching.matching.to_edge_vec()
    );
    assert_eq!(run.matching.rounds, old_matching.rounds);
    assert_eq!(run.matching.value_per_round, old_matching.value_per_round);

    // One FlowReport reproduces the paper's per-stage job counts and the
    // total communication cost of the pre-redesign path.
    assert_eq!(run.simjoin_jobs, 1, "the similarity join is one job");
    assert_eq!(
        run.matching.mr_jobs, old_matching.rounds,
        "GreedyMR runs one job per round"
    );
    assert_eq!(run.report.num_jobs(), 1 + old_matching.mr_jobs);
    let old_shuffled: u64 = join
        .job_metrics
        .iter()
        .map(|m| m.shuffle_records)
        .sum::<u64>()
        + old_matching.total_shuffled_records();
    assert_eq!(run.report.total_shuffled_records(), old_shuffled);

    // Per-job record flow identical, job by job, across both stages.
    let old_metrics: Vec<_> = join
        .job_metrics
        .iter()
        .chain(old_matching.job_metrics.iter())
        .collect();
    assert_eq!(run.report.jobs.len(), old_metrics.len());
    for (new_job, old_job) in run.report.jobs.iter().zip(old_metrics) {
        assert_eq!(new_job.map_input_records, old_job.map_input_records);
        assert_eq!(new_job.map_output_records, old_job.map_output_records);
        assert_eq!(new_job.shuffle_records, old_job.shuffle_records);
        assert_eq!(new_job.reduce_output_records, old_job.reduce_output_records);
    }
}

#[test]
fn stack_mr_through_the_pipeline_matches_the_old_wrapper() {
    let dataset = dataset();
    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let join =
        mapreduce_similarity_join_flow(&items, &users, SIGMA, &FlowContext::new(quick_job("old")));
    let caps = dataset.capacities(1.0);
    let old_flow = FlowContext::new(quick_job("old"));
    let old =
        StackMr::new(StackMrConfig::default().with_seed(13)).run(&join.graph, &caps, &old_flow);

    let run = MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(SIGMA)
        .seed(13)
        .algorithm(AlgorithmKind::StackMr)
        .job(quick_job("new"))
        .run();

    assert_eq!(
        run.matching.matching.to_edge_vec(),
        old.matching.to_edge_vec()
    );
    assert_eq!(run.matching.mr_jobs, old.mr_jobs);
    assert_eq!(run.report.num_jobs(), 1 + old.mr_jobs);
    assert_eq!(
        run.matching.total_shuffled_records(),
        old.total_shuffled_records()
    );
}
