//! Equivalence lock for the multi-process runtime over the full paper
//! pipeline: for every shard count, memory budget and matcher, the sharded
//! session must reproduce the in-process run **byte-identically** —
//! similarity-join edges, final matching, and the per-job shuffled
//! records and bytes — and an injected worker crash must retry to the
//! same bytes.
//!
//! The matrix shards ∈ {1, 2, 4} × budgets {4 KiB, ∞} × {GreedyMR,
//! StackMR} is enumerated exhaustively (one test per matcher × shard
//! count, looping the budgets) rather than sampled: process-spawning
//! tests need deterministic replay, so every `run_sharded` call a test
//! makes must happen in the same order in the worker's re-execution of
//! that test.

use social_content_matching::datagen::{FlickrGenerator, SocialDataset};
use social_content_matching::distrib::{is_worker_process, last_session_stats, ShardOptions};
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::matching::AlgorithmKind;
use social_content_matching::{MatchingPipeline, PipelineRun};

fn dataset() -> SocialDataset {
    FlickrGenerator {
        num_photos: 40,
        num_users: 15,
        vocabulary: 60,
        seed: 9,
        ..FlickrGenerator::default()
    }
    .generate()
}

fn pipeline(algorithm: AlgorithmKind, budget: Option<u64>, name: &str) -> MatchingPipeline {
    MatchingPipeline::new(dataset())
        .sigma(0.12)
        .algorithm(algorithm)
        .job(
            JobConfig::named(name)
                .with_threads(2)
                .with_map_tasks(6)
                .with_reduce_tasks(3)
                .with_memory_budget(budget),
        )
}

fn shuffle_profile(run: &PipelineRun) -> Vec<(String, u64, u64)> {
    run.report
        .jobs
        .iter()
        .map(|job| (job.job_name.clone(), job.shuffle_records, job.shuffle_bytes))
        .collect()
}

fn assert_runs_identical(local: &PipelineRun, sharded: &PipelineRun, what: &str) {
    assert_eq!(
        local.graph.edges(),
        sharded.graph.edges(),
        "{what}: similarity-join edges must be byte-identical"
    );
    assert_eq!(
        local.matching.matching, sharded.matching.matching,
        "{what}: the final matching must be identical"
    );
    assert_eq!(
        local.matching.rounds, sharded.matching.rounds,
        "{what}: the matcher must take the same number of rounds"
    );
    assert_eq!(
        shuffle_profile(local),
        shuffle_profile(sharded),
        "{what}: every job must shuffle the same records and bytes"
    );
}

/// Runs the {4 KiB, unlimited} budget pair for one matcher × shard count.
/// `test_name` must be the calling test function's name: it keys the
/// session and tells the re-invoked test binary which test to replay.
fn assert_sharded_pipeline_equivalent(algorithm: AlgorithmKind, shards: usize, test_name: &str) {
    for (tag, budget) in [("4KiB", Some(4096u64)), ("unlimited", None)] {
        let name = format!("eq-{test_name}-{tag}");
        let local = pipeline(algorithm, budget, &name).run();
        let sharded = pipeline(algorithm, budget, &name)
            .shard_options(
                ShardOptions::new(shards)
                    .with_session_key(format!("{test_name}-{tag}"))
                    .with_worker_args(["--exact", test_name, "--nocapture"]),
            )
            .run();
        assert_runs_identical(
            &local,
            &sharded,
            &format!("{algorithm:?} × {shards} shards × {tag}"),
        );
        // Coordinator-only checks: a worker spawned for a *later* session
        // replays this code too, and has no session stats of its own.
        if !is_worker_process() {
            let stats = last_session_stats().expect("a session just completed");
            assert_eq!(stats.shards, shards);
            assert_eq!(stats.respawns, 0, "fault-free run must not respawn");
            assert_eq!(
                stats.jobs, local.simjoin_jobs as u64,
                "exactly the similarity join's jobs must go through the session"
            );
        }
    }
}

#[test]
fn greedy_one_shard_is_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::GreedyMr,
        1,
        "greedy_one_shard_is_byte_identical",
    );
}

#[test]
fn greedy_two_shards_are_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::GreedyMr,
        2,
        "greedy_two_shards_are_byte_identical",
    );
}

#[test]
fn greedy_four_shards_are_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::GreedyMr,
        4,
        "greedy_four_shards_are_byte_identical",
    );
}

#[test]
fn stack_one_shard_is_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::StackMr,
        1,
        "stack_one_shard_is_byte_identical",
    );
}

#[test]
fn stack_two_shards_are_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::StackMr,
        2,
        "stack_two_shards_are_byte_identical",
    );
}

#[test]
fn stack_four_shards_are_byte_identical() {
    assert_sharded_pipeline_equivalent(
        AlgorithmKind::StackMr,
        4,
        "stack_four_shards_are_byte_identical",
    );
}

#[test]
fn killed_pipeline_worker_retries_to_the_same_bytes() {
    let test_name = "killed_pipeline_worker_retries_to_the_same_bytes";
    let local = pipeline(AlgorithmKind::GreedyMr, None, "eq-fault").run();
    let sharded = pipeline(AlgorithmKind::GreedyMr, None, "eq-fault")
        .shard_options(
            ShardOptions::new(2)
                .with_session_key(test_name)
                .with_worker_args(["--exact", test_name, "--nocapture"])
                .with_fail_shard(Some(0)),
        )
        .run();
    assert_runs_identical(&local, &sharded, "fault-injected GreedyMR × 2 shards");
    let stats = last_session_stats().expect("a session just completed");
    assert!(
        stats.respawns >= 1,
        "the injected fault must have forced a respawn, got {stats:?}"
    );
}
