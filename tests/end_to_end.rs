//! End-to-end integration tests spanning every crate of the workspace:
//! dataset generation → similarity join → capacities → matching, plus
//! the exact-count regression guards of the join and of GreedyMR's
//! rounds, and a golden pin of StackMR's output.

use smr_bench::{ExperimentScale, ExperimentSet};
use social_content_matching::datagen::{AnswersGenerator, DatasetPreset, FlickrGenerator};
use social_content_matching::graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId};
use social_content_matching::mapreduce::{FlowContext, JobConfig};
use social_content_matching::matching::{
    greedy_matching, optimal_matching, AlgorithmKind, GreedyMr, GreedyMrConfig, StackMr,
    StackMrConfig,
};
use social_content_matching::simjoin::{baseline_similarity_join, mapreduce_similarity_join_flow};
use social_content_matching::text::{Corpus, TokenizerConfig};

fn quick_job(name: &str) -> JobConfig {
    JobConfig::named(name).with_threads(2)
}

fn flickr_pipeline(sigma: f64) -> (social_content_matching::graph::BipartiteGraph, Capacities) {
    let dataset = FlickrGenerator {
        num_photos: 120,
        num_users: 40,
        vocabulary: 120,
        seed: 3,
        ..FlickrGenerator::default()
    }
    .generate();
    let items = Corpus::build(dataset.items.clone(), &TokenizerConfig::tags_only());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::tags_only());
    let join = mapreduce_similarity_join_flow(
        &items,
        &users,
        sigma,
        &FlowContext::new(quick_job("e2e-join")),
    );
    let caps = dataset.capacities(1.0);
    (join.graph, caps)
}

#[test]
fn flickr_pipeline_produces_a_matchable_graph() {
    let (graph, caps) = flickr_pipeline(0.15);
    assert!(
        graph.num_edges() > 0,
        "the synthetic dataset must produce candidate edges"
    );
    assert!(caps.matches(&graph));

    let run = GreedyMr::new(GreedyMrConfig::default()).run(
        &graph,
        &caps,
        &FlowContext::new(quick_job("e2e-greedy")),
    );
    assert!(run.matching.is_feasible(&graph, &caps));
    assert!(run.value(&graph) > 0.0);
    assert!(run.mr_jobs >= 1);
}

#[test]
fn greedy_mr_beats_stack_mr_on_value_and_both_respect_their_guarantees() {
    let (graph, caps) = flickr_pipeline(0.15);
    let greedy_run = GreedyMr::new(GreedyMrConfig::default()).run(
        &graph,
        &caps,
        &FlowContext::new(quick_job("cmp-greedy")),
    );
    let stack_run = StackMr::new(StackMrConfig::default().with_seed(13)).run(
        &graph,
        &caps,
        &FlowContext::new(quick_job("cmp-stack")),
    );

    // The paper's headline comparison: GreedyMR consistently achieves the
    // higher b-matching value (it has the better guarantee too).
    assert!(
        greedy_run.value(&graph) >= stack_run.value(&graph) * 0.95,
        "GreedyMR ({}) should not fall meaningfully below StackMR ({})",
        greedy_run.value(&graph),
        stack_run.value(&graph)
    );
    // GreedyMR is feasible; StackMR violates by at most a factor (1+eps).
    assert!(greedy_run.matching.is_feasible(&graph, &caps));
    assert!(stack_run.matching.max_violation(&graph, &caps) <= 1.0 + 1e-9);
}

#[test]
fn similarity_join_and_baseline_agree_on_the_answers_dataset() {
    let dataset = AnswersGenerator {
        num_questions: 60,
        num_users: 25,
        vocabulary: 150,
        num_topics: 5,
        seed: 17,
        ..AnswersGenerator::default()
    }
    .generate();
    let questions = Corpus::build(dataset.items.clone(), &TokenizerConfig::default());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::default());
    for sigma in [0.1, 0.3] {
        let mr = mapreduce_similarity_join_flow(
            &questions,
            &users,
            sigma,
            &FlowContext::new(quick_job("agree-join")),
        );
        let baseline = baseline_similarity_join(&questions, &users, sigma);
        assert_eq!(
            mr.graph.num_edges(),
            baseline.num_edges(),
            "similarity join disagrees with the baseline at sigma={sigma}"
        );
    }
}

#[test]
fn centralized_greedy_is_a_half_approximation_on_the_pipeline_graph() {
    let (graph, caps) = flickr_pipeline(0.25);
    if graph.num_edges() == 0 {
        return;
    }
    // Keep the exact solver tractable: thin the graph further if needed.
    let graph = if graph.num_edges() > 3_000 {
        graph.filter_by_threshold(0.4)
    } else {
        graph
    };
    let optimal = optimal_matching(&graph, &caps);
    let greedy = greedy_matching(&graph, &caps);
    assert!(greedy.value(&graph) >= 0.5 * optimal.value(&graph) - 1e-9);
    assert!(greedy.value(&graph) <= optimal.value(&graph) + 1e-9);
}

#[test]
fn preset_sweep_shapes_match_the_paper() {
    // On flickr-small at two densities: lowering sigma increases both the
    // number of edges and the achieved matching value (the saturation
    // behaviour described in Section 6).
    let instance = smr_bench::pipeline::DatasetInstance::generate(
        DatasetPreset::FlickrSmall,
        quick_job("sweep"),
    );
    let caps = instance.capacities(1.0);
    let sweep = instance.preset.sigma_sweep();
    let sparse_sigma = sweep[0];
    let dense_sigma = *sweep.last().unwrap();
    let sparse = instance.graph_at(sparse_sigma);
    let dense = instance.graph_at(dense_sigma);
    assert!(dense.num_edges() > sparse.num_edges());

    let run_on = |graph: &social_content_matching::graph::BipartiteGraph| {
        GreedyMr::new(GreedyMrConfig::default())
            .run(graph, &caps, &FlowContext::new(quick_job("sweep-greedy")))
            .value(graph)
    };
    let sparse_value = run_on(&sparse);
    let dense_value = run_on(&dense);
    assert!(
        dense_value >= sparse_value - 1e-9,
        "more candidate edges must not reduce the achievable value ({dense_value} vs {sparse_value})"
    );
}

#[test]
fn anytime_trace_reaches_95_percent_before_the_last_round() {
    let (graph, caps) = flickr_pipeline(0.12);
    let run = GreedyMr::new(GreedyMrConfig::default()).run(
        &graph,
        &caps,
        &FlowContext::new(quick_job("anytime")),
    );
    if run.rounds < 4 {
        // Too small to say anything meaningful.
        return;
    }
    let (_, fraction) = run.rounds_to_reach_fraction(0.95).expect("non-zero value");
    assert!(
        fraction < 1.0,
        "95% of the value should be reached before the final round (got {fraction})"
    );
}

/// CI regression guard: the streaming join's candidate accounting for
/// `flickr-small` at σ = 0.16 is deterministic (map-side pruning runs
/// on complete per-item scores, independent of threads and budgets).
/// These exact counts gate against silent regressions in the prefix
/// filter, the suffix bound or the partial-product accumulation.
#[test]
fn join_counts_regression_guard_flickr_small_sigma_016() {
    let candidate =
        social_content_matching::MatchingPipeline::new(DatasetPreset::FlickrSmall.generate())
            .tokenizer(TokenizerConfig::tags_only())
            .sigma(0.16)
            .job(JobConfig::named("join-guard").with_threads(2))
            .build_graph();
    // 12 654 candidates is also what the pre-streaming dedup probe
    // shuffled (and exactly verified) at this σ; the suffix bound now
    // prunes 2 025 of them before the shuffle.  Of the 10 629 survivors,
    // 7 677 meet their consumer's unindexed suffix and take a tail
    // product; the other 2 952 are finished from their partial score.
    // 3 502 edges matches the seed baseline in EXPERIMENTS.md, byte for
    // byte.
    assert_eq!(candidate.join.candidate_pairs, 12_654);
    assert_eq!(candidate.join.candidates_pruned, 2_025);
    assert_eq!(candidate.join.verify_exact, 10_629);
    assert_eq!(candidate.join.verify_dot, 7_677);
    assert_eq!(candidate.join.graph.num_edges(), 3_502);
}

#[test]
fn rounds_regression_guard_flickr_large_sigma_009() {
    // The densest point of the flickr-large sweep at the grown preset
    // size (4 200 photos / 640 users).  Rounds-to-convergence and the
    // total shuffle volume are exact-deterministic for GreedyMR (every
    // emitted note crosses the shuffle, so threads and memory budgets
    // move bytes around without changing what crosses it); any
    // drift here means the round semantics changed, not just the
    // schedule.
    let mut set = ExperimentSet::new(ExperimentScale::Full, 2, 2011);
    let (graph, caps) = {
        let instance = set.instance(DatasetPreset::FlickrLarge);
        (instance.graph_at(0.09), instance.capacities(1.0))
    };
    assert_eq!(graph.num_edges(), 372_730);
    let run = set.run(AlgorithmKind::GreedyMr, &graph, &caps);
    assert_eq!(run.rounds, 32);
    // A round shuffles one note per proposal, min(b(v), live degree)
    // for every live node, and nothing else: the node records stay in
    // their state partitions, and a retirement is one flag in the
    // driver's table, not a note across every edge the node had left.
    // Summed over the 32 rounds that is 269 992 notes, against 694 975
    // with the 424 983 retirement notes and 2 674 959 live adjacency
    // entries.
    assert_eq!(run.total_shuffled_records(), 269_992);
    assert!(run.matching.is_feasible(&graph, &caps));
    // Algorithm 3 ends at the centralized greedy matching (ties broken by
    // edge id on both sides): the rounds propose each node's b(v)
    // heaviest live edges, whichever order the rest of its adjacency is in.
    let greedy = greedy_matching(&graph, &caps);
    assert!(
        run.matching == greedy,
        "GreedyMR matched {} edges, the centralized greedy {}",
        run.matching.len(),
        greedy.len()
    );
}

/// The instance of `crates/core/tests/determinism.rs`: 9 items, 11
/// consumers, 74 edges.
fn determinism_instance() -> (BipartiteGraph, Capacities) {
    let mut edges = Vec::new();
    let mut weight = 0.137_f64;
    for ti in 0..9u32 {
        for ci in 0..11u32 {
            if (ti * 5 + ci * 7) % 4 != 0 {
                weight = (weight * 757.31 + 0.191).fract().max(0.01);
                edges.push(Edge::new(ItemId(ti), ConsumerId(ci), weight));
            }
        }
    }
    let graph = BipartiteGraph::from_edges(9, 11, edges);
    let caps = Capacities::uniform(&graph, 3, 2);
    (graph, caps)
}

/// A yahoo-answers-shaped smoke graph: the preset's generator at a tenth
/// of its size, joined at the preset's densest σ (8 128 edges).
fn answers_smoke_instance() -> (BipartiteGraph, Capacities) {
    let dataset = AnswersGenerator {
        num_questions: 260,
        num_users: 82,
        vocabulary: 170,
        num_topics: 8,
        seed: 2011,
        ..AnswersGenerator::default()
    }
    .generate();
    let questions = Corpus::build(dataset.items.clone(), &TokenizerConfig::default());
    let users = Corpus::build(dataset.consumers.clone(), &TokenizerConfig::default());
    let join = mapreduce_similarity_join_flow(
        &questions,
        &users,
        0.07,
        &FlowContext::new(quick_job("golden-join")),
    );
    (join.graph, dataset.capacities(1.0))
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Golden pin of StackMR and StackGreedyMR: matched edges (count and
/// FNV-1a of the ids), rounds, jobs and the any-time trace bit for bit,
/// on two fixed instances, at threads {1, 2} × budgets {∞, 4 KiB} with
/// the task layout pinned.  The values were recorded before the round
/// state became partition-resident; how the state is stored must not
/// move them.
#[test]
fn stack_mr_golden_across_threads_and_budgets() {
    // (instance, heaviest-first marking, matched, edge-id digest, rounds,
    // MapReduce jobs, trace digest)
    let golden = [
        (
            "determinism",
            false,
            22,
            0x2c72_b03b_feaf_5324,
            2,
            12,
            0xe60a_7fb9_9956_c5fc,
        ),
        (
            "determinism",
            true,
            22,
            0x92c7_f0f8_9a41_f8bf,
            2,
            16,
            0xf9eb_780a_1c84_5bdb,
        ),
        (
            "answers",
            false,
            250,
            0x21ad_ac8f_753e_87a6,
            4,
            31,
            0x9d94_e31e_63d1_9350,
        ),
        (
            "answers",
            true,
            256,
            0x3c81_fc9f_0127_e1c4,
            2,
            20,
            0x9fa5_27aa_c84c_f90d,
        ),
    ];
    let determinism = determinism_instance();
    let answers = answers_smoke_instance();
    for (instance, greedy, matched, edges, rounds, mr_jobs, trace) in golden {
        let (graph, caps) = if instance == "answers" {
            &answers
        } else {
            &determinism
        };
        for threads in [1, 2] {
            for budget in [None, Some(4096)] {
                let job = JobConfig::named("golden")
                    .with_threads(threads)
                    .with_map_tasks(4)
                    .with_reduce_tasks(4)
                    .with_memory_budget(budget);
                let config = StackMrConfig::default().with_seed(99);
                let stack = if greedy {
                    StackMr::heaviest_first(config)
                } else {
                    StackMr::new(config)
                };
                let run = stack.run(graph, caps, &FlowContext::new(job));
                let got = (
                    run.matching.len(),
                    fnv1a(run.matching.edges().map(|e| e as u64)),
                    run.rounds,
                    run.mr_jobs,
                    fnv1a(run.value_per_round.iter().map(|v| v.to_bits())),
                );
                assert_eq!(
                    got,
                    (matched, edges, rounds, mr_jobs, trace),
                    "{instance} greedy={greedy} threads={threads} budget={budget:?}"
                );
            }
        }
    }
}
