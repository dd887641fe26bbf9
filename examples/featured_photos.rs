//! The paper's motivating flickr scenario, end to end, through the
//! [`MatchingPipeline`] builder:
//!
//! 1. generate a synthetic photo-sharing dataset (photos with tags, users
//!    with interests, power-law activity and favourites),
//! 2. `build_graph()` runs the MapReduce prefix-filtering similarity join
//!    (threshold σ) **once** and derives capacities with the paper's
//!    formulas (`b(u) = α·n(u)`, favourite-proportional photo capacities),
//! 3. the three matching algorithms (GreedyMR, StackMR, StackGreedyMR)
//!    then run over that one candidate graph — each through its own
//!    `FlowContext`, so each algorithm's `FlowReport` covers exactly its
//!    own MapReduce jobs.
//!
//! ```text
//! cargo run --release --example featured_photos
//! ```

use social_content_matching::datagen::FlickrGenerator;
use social_content_matching::mapreduce::{FlowContext, JobConfig};
use social_content_matching::matching::runner::RunnerConfig;
use social_content_matching::matching::{
    run_algorithm, AlgorithmKind, GreedyMrConfig, StackMrConfig,
};
use social_content_matching::text::TokenizerConfig;
use social_content_matching::MatchingPipeline;

fn main() {
    // 1. Synthetic flickr-like dataset.
    let dataset = FlickrGenerator {
        num_photos: 400,
        num_users: 100,
        seed: 7,
        ..FlickrGenerator::default()
    }
    .generate();
    println!(
        "dataset: {} photos, {} users",
        dataset.num_items(),
        dataset.num_consumers()
    );

    // 2. One pipeline pass up to the candidate graph: similarity join
    //    (one MapReduce job) and capacities.
    let sigma = 0.15;
    let candidate = MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(sigma)
        .alpha(1.0)
        .build_graph();
    println!(
        "similarity join (sigma={sigma}): {} candidate edges from {} candidates \
         ({} pruned cheap, {} verified exact), {} MapReduce jobs",
        candidate.join.graph.num_edges(),
        candidate.join.candidate_pairs,
        candidate.join.candidates_pruned,
        candidate.join.verify_exact,
        candidate.join.job_metrics.len(),
    );
    println!(
        "capacities: total user budget {}, total photo budget {}",
        candidate.capacities.total_consumer_capacity(),
        candidate.capacities.total_item_capacity()
    );

    // 3. The three MapReduce matching algorithms over the shared graph.
    let runner_config = RunnerConfig {
        greedy_mr: GreedyMrConfig::default(),
        stack_mr: StackMrConfig::default().with_seed(7),
    };
    let runs: Vec<_> = [
        AlgorithmKind::GreedyMr,
        AlgorithmKind::StackMr,
        AlgorithmKind::StackGreedyMr,
    ]
    .into_iter()
    .map(|algorithm| {
        let flow = FlowContext::new(JobConfig::named(algorithm.name().to_lowercase()));
        let run = run_algorithm(
            algorithm,
            &candidate.join.graph,
            &candidate.capacities,
            &runner_config,
            &flow,
        );
        (run, flow.report())
    })
    .collect();

    println!(
        "\n{:<16} {:>10} {:>10} {:>12} {:>14}",
        "algorithm", "value", "MR jobs", "shuffled", "avg violation"
    );
    for (run, report) in &runs {
        println!(
            "{:<16} {:>10.2} {:>10} {:>12} {:>13.2}%",
            run.algorithm.name(),
            run.value(&candidate.join.graph),
            report.num_jobs(),
            report.total_shuffled_records(),
            100.0 * run.average_violation(&candidate.join.graph, &candidate.capacities)
        );
    }

    // The paper's qualitative findings, reproduced here: GreedyMR wins on
    // value, the stack algorithms keep violations tiny and their round
    // count nearly flat in the number of edges.
    let (greedy_mr, greedy_report) = &runs[0];
    assert_eq!(greedy_mr.algorithm, AlgorithmKind::GreedyMr);
    assert!(greedy_mr
        .matching
        .is_feasible(&candidate.join.graph, &candidate.capacities));
    assert_eq!(greedy_report.num_jobs(), greedy_mr.mr_jobs);
    println!("\nGreedyMR solution is feasible; StackMR violations are bounded by (1+eps).");
}
