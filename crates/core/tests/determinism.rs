//! Determinism regression tests for the streaming shuffle engine.
//!
//! The executor's work-stealing map tasks must not leak scheduling
//! nondeterminism into algorithm output: the same GreedyMR job, run many
//! times under different thread counts, has to produce the identical
//! matching *and* the identical `records_shuffled` counter every time
//! (the per-task spill schedule depends only on task content, so even
//! the engine counters are scheduling-invariant).

use smr_graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId};
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{GreedyMr, GreedyMrConfig, StackMr, StackMrConfig};

/// A dense-ish deterministic instance with plenty of equal-capacity
/// contention so every round has real work to schedule.
fn instance() -> (BipartiteGraph, Capacities) {
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

#[test]
fn greedy_mr_is_deterministic_across_20_runs_with_varying_thread_counts() {
    let (graph, caps) = instance();
    let thread_counts = [1usize, 2, 3, 4, 8];
    let run_with = |threads: usize| {
        let job = JobConfig::named("determinism").with_threads(threads);
        GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::new(job))
    };
    let baseline = run_with(1);
    assert!(!baseline.matching.is_empty());
    for i in 0..20 {
        let threads = thread_counts[i % thread_counts.len()];
        let run = run_with(threads);
        assert_eq!(
            run.matching.to_edge_vec(),
            baseline.matching.to_edge_vec(),
            "matching diverged on run {i} with {threads} threads"
        );
        assert_eq!(
            run.total_shuffled_records(),
            baseline.total_shuffled_records(),
            "records_shuffled diverged on run {i} with {threads} threads"
        );
        assert_eq!(run.rounds, baseline.rounds);
        assert_eq!(run.mr_jobs, baseline.mr_jobs);
    }
}

#[test]
fn greedy_mr_per_round_shuffle_counters_are_budget_invariant() {
    // Round-by-round, a run that spills every few records to disk must
    // report exactly the record flow of the unlimited-memory run — and
    // the identical matching (every emitted record is shuffled, so the
    // spill path moves bytes without changing a single record).
    let (graph, caps) = instance();
    // The flow's JobConfig governs the rounds, so the budget override
    // (beating any SMR_MEMORY_BUDGET ambient in the environment) has to
    // live there, not only on the matcher config.
    let unlimited = JobConfig::named("ab")
        .with_threads(4)
        .with_memory_budget(None);
    let in_memory =
        GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::new(unlimited));
    let budgeted = JobConfig::named("ab")
        .with_threads(4)
        .with_memory_budget(Some(512));
    let spilled =
        GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::new(budgeted));
    assert_eq!(
        spilled.matching.to_edge_vec(),
        in_memory.matching.to_edge_vec()
    );
    assert_eq!(spilled.job_metrics.len(), in_memory.job_metrics.len());
    let mut disk_runs = 0;
    for (round, (s, m)) in spilled
        .job_metrics
        .iter()
        .zip(in_memory.job_metrics.iter())
        .enumerate()
    {
        assert_eq!(s.shuffle_records, m.shuffle_records, "round {round}");
        assert_eq!(s.map_output_records, m.map_output_records, "round {round}");
        assert_eq!(s.shuffle_bytes, m.shuffle_bytes, "round {round}");
        assert_eq!(m.disk_runs, 0, "round {round}");
        disk_runs += s.disk_runs;
    }
    assert!(disk_runs > 0, "a 512-byte budget must spill");
}

#[test]
fn seeded_stack_mr_is_deterministic_across_thread_counts() {
    let (graph, caps) = instance();
    let run_with = |threads: usize| {
        let job = JobConfig::named("determinism-stack").with_threads(threads);
        StackMr::new(StackMrConfig::default().with_seed(99)).run(
            &graph,
            &caps,
            &FlowContext::new(job),
        )
    };
    let baseline = run_with(1);
    for threads in [2usize, 4, 8] {
        let run = run_with(threads);
        assert_eq!(
            run.matching.to_edge_vec(),
            baseline.matching.to_edge_vec(),
            "StackMR matching diverged with {threads} threads"
        );
        assert_eq!(
            run.total_shuffled_records(),
            baseline.total_shuffled_records()
        );
    }
}
