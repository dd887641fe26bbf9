//! End-to-end acceptance of the out-of-core storage layer: a full
//! pipeline run (similarity join + GreedyMR rounds) under a small memory
//! budget must
//!
//! 1. produce output **byte-identical** to the unlimited-budget run — at
//!    any thread count,
//! 2. report `disk_runs > 0` and `spill_bytes > 0` in its job metrics,
//! 3. keep everything it writes under the configured spill directory and
//!    leave **no temp files behind** once the jobs (and their
//!    `SpillManager`s) and the flow are done — while `serve()`, whose
//!    standing index lives in RAM, writes nothing at all.

use social_content_matching::datagen::FlickrGenerator;
use social_content_matching::mapreduce::{FlowContext, JobConfig};
use social_content_matching::matching::AlgorithmKind;
use social_content_matching::text::{Document, SparseVector};
use social_content_matching::{MatchingPipeline, PipelineRun};

fn dataset() -> social_content_matching::datagen::SocialDataset {
    FlickrGenerator {
        num_photos: 80,
        num_users: 30,
        vocabulary: 100,
        seed: 11,
        ..FlickrGenerator::default()
    }
    .generate()
}

/// Task counts default to the thread count and the engine's determinism
/// contract is per task layout: pin the layout so only the worker pool and
/// the budget vary between runs.
fn job(name: &str, threads: usize) -> JobConfig {
    JobConfig::named(name)
        .with_threads(threads)
        .with_map_tasks(8)
        .with_reduce_tasks(8)
}

fn run_pipeline(
    threads: usize,
    budget: Option<u64>,
    spill_dir: Option<&std::path::Path>,
) -> PipelineRun {
    let mut job = job("spill-e2e", threads).with_memory_budget(budget);
    if let Some(dir) = spill_dir {
        job = job.with_spill_dir(dir);
    }
    MatchingPipeline::new(dataset())
        .sigma(0.1)
        .algorithm(AlgorithmKind::GreedyMr)
        .job(job)
        .run()
}

/// Byte-identity of everything the pipeline produces.
fn assert_same_output(run: &PipelineRun, reference: &PipelineRun) {
    assert_eq!(run.graph.edges(), reference.graph.edges());
    assert_eq!(
        run.matching.matching.to_edge_vec(),
        reference.matching.matching.to_edge_vec()
    );
    assert_eq!(run.matching.rounds, reference.matching.rounds);
    assert_eq!(
        run.report.total_shuffled_records(),
        reference.report.total_shuffled_records()
    );
}

#[test]
fn pipeline_is_byte_identical_across_threads_and_budgets() {
    let reference = run_pipeline(1, None, None);
    for (threads, budget) in [(8, None), (1, Some(4096)), (8, Some(4096))] {
        let run = run_pipeline(threads, budget, None);
        assert_same_output(&run, &reference);
        assert_eq!(
            run.report.totals.disk_runs > 0,
            budget.is_some(),
            "threads={threads} budget={budget:?} must spill exactly when budgeted"
        );
    }
}

#[test]
fn budgeted_pipeline_is_byte_identical_spills_and_cleans_up() {
    let unlimited = run_pipeline(2, None, None);
    assert_eq!(
        unlimited.report.totals.disk_runs, 0,
        "the unlimited run must not touch disk"
    );

    let spill_base = std::env::temp_dir().join(format!("smr-e2e-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_base).unwrap();
    // A 1 KiB budget across the whole pipeline: every join job and every
    // matching round spills.
    let budgeted = run_pipeline(2, Some(1024), Some(&spill_base));

    // (1) Byte-identity of everything the pipeline produces.
    assert_same_output(&budgeted, &unlimited);

    // (2) The spill path actually ran, and the metrics say so.
    assert!(
        budgeted.report.totals.disk_runs > 0,
        "disk_runs must be reported: {:?}",
        budgeted.report.totals
    );
    assert!(
        budgeted.report.totals.spill_bytes > 0,
        "spill_bytes must be reported: {:?}",
        budgeted.report.totals
    );
    // Per-job metrics carry the spill accounting too (at least one job
    // spilled; sums match the totals).
    let per_job_runs: u64 = budgeted.report.jobs.iter().map(|m| m.disk_runs).sum();
    assert_eq!(per_job_runs, budgeted.report.totals.disk_runs);

    // (3) A flow under the same spill setting roots its directory (round
    // state past its budget share) under the base too…
    {
        let flow = FlowContext::new(job("spill-e2e", 2).with_spill_dir(&spill_base));
        assert!(flow.side_store().starts_with(&spill_base));
    }
    // …and every SpillManager and flow removed its directory.
    assert_eq!(
        std::fs::read_dir(&spill_base).unwrap().count(),
        0,
        "no temp files may outlive the pipeline"
    );
    std::fs::remove_dir_all(&spill_base).unwrap();
}

#[test]
fn serve_creates_no_directory() {
    let spill_base = std::env::temp_dir().join(format!("smr-e2e-serve-{}", std::process::id()));
    std::fs::create_dir_all(&spill_base).unwrap();
    let entries = || std::fs::read_dir(&spill_base).unwrap().count();
    let dataset = dataset();
    let probe = dataset.items[0].clone();

    let mut serving = MatchingPipeline::new(dataset)
        .sigma(0.1)
        .job(
            JobConfig::named("serve")
                .with_memory_budget(Some(1024))
                .with_spill_dir(&spill_base),
        )
        .serve();
    assert_eq!(entries(), 0, "the standing index lives in RAM");
    // Queries, appends and a rebuild touch no file either.
    assert!(!serving.match_text(&probe.text, 5).is_empty());
    serving.add_consumers(&[Document::new("late", probe.text.clone())], 2);
    let heavy = SparseVector::from_entries([(serving.vectorize(&probe.text).entries()[0].0, 2.0)]);
    let _ = serving.match_vector(&heavy, 5);
    assert!(serving.rebuild());
    assert_eq!(entries(), 0, "serving holds no files");
    drop(serving);
    std::fs::remove_dir_all(&spill_base).unwrap();
}

#[test]
fn pipeline_under_the_env_budget_matches_the_unlimited_run() {
    // The CI spill job sets SMR_MEMORY_BUDGET for the whole suite; this
    // test pins the invariant it relies on — defaults (whatever the
    // environment) and an explicit unlimited budget agree bit-for-bit.
    let default_budget = MatchingPipeline::new(dataset())
        .sigma(0.1)
        .job(job("spill-env", 2))
        .run();
    let unlimited = run_pipeline(2, None, None);
    assert_eq!(
        default_budget.matching.matching.to_edge_vec(),
        unlimited.matching.matching.to_edge_vec()
    );
    assert_eq!(
        default_budget.report.total_shuffled_records(),
        unlimited.report.total_shuffled_records()
    );
}
