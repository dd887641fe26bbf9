//! Property tests locking the streaming similarity join to the exact
//! all-pairs baseline: for random corpora, the candidate graph is
//! **byte-identical** to [`baseline_similarity_join`] — same edge set with
//! bit-identical weights — across a σ sweep × memory budgets
//! {64 B, 4 KiB, unlimited} × thread counts {1, 8}.  Suffix-bound pruning
//! and verification in the probe mapper are pure optimizations; they may
//! never change a single output bit.
//!
//! A separate determinism test pins the pruned-pair counts: 20 identical
//! runs must report identical `candidate_pairs` / `candidates_pruned` /
//! `verify_exact`, which is what lets the experiment tables (and the CI
//! regression guard) assert exact counts.

use proptest::prelude::*;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_simjoin::{
    baseline_similarity_join, mapreduce_similarity_join_flow,
    mapreduce_similarity_join_vectors_flow, SimJoinResult,
};
use smr_text::{Corpus, Document, SparseVector, TermId, TokenizerConfig};

/// Builds a corpus of synthetic tag documents; `docs[d]` lists the tag
/// indices of document `d` (duplicates collapse in tokenization).
fn corpus(side: &str, docs: &[Vec<u8>]) -> Corpus {
    let documents: Vec<Document> = docs
        .iter()
        .enumerate()
        .map(|(d, tags)| {
            let text = tags
                .iter()
                .map(|t| format!("tag{t}"))
                .collect::<Vec<_>>()
                .join(" ");
            Document::new(format!("{side}{d}"), text)
        })
        .collect();
    Corpus::build(documents, &TokenizerConfig::default())
}

/// The canonical edge list of a graph: `(item, consumer, weight)` sorted
/// by pair.  Weights are compared bit-for-bit via `to_bits`.
fn canonical_edges(graph: &smr_graph::BipartiteGraph) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<(u32, u32, u64)> = graph
        .edges()
        .iter()
        .map(|e| (e.item.0, e.consumer.0, e.weight.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

fn join_flow(budget: Option<u64>, threads: usize) -> FlowContext {
    FlowContext::new(
        JobConfig::named("join-props")
            .with_threads(threads)
            .with_memory_budget(budget),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn streaming_join_is_byte_identical_to_the_all_pairs_baseline(
        item_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..14),
        consumer_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..16),
    ) {
        let items = corpus("t", &item_docs);
        let consumers = corpus("c", &consumer_docs);
        for sigma in [0.08, 0.2, 0.45] {
            let expected = canonical_edges(&baseline_similarity_join(&items, &consumers, sigma));
            for budget in [Some(64u64), Some(4 * 1024), None] {
                for threads in [1usize, 8] {
                    let result = mapreduce_similarity_join_flow(
                        &items,
                        &consumers,
                        sigma,
                        &join_flow(budget, threads),
                    );
                    prop_assert!(
                        canonical_edges(&result.graph) == expected,
                        "join diverged from the baseline \
                         (sigma={sigma} budget={budget:?} threads={threads})"
                    );
                    // The join's candidate accounting closes under every
                    // configuration.
                    prop_assert_eq!(
                        result.candidate_pairs,
                        result.candidates_pruned + result.verify_exact
                    );
                    prop_assert!(result.verify_exact >= result.graph.num_edges());
                    // Verification happens in the probe mapper: the probe
                    // job shuffles exactly the edges.
                    prop_assert_eq!(
                        result.job_metrics[1].shuffle_records,
                        result.graph.num_edges() as u64
                    );
                }
            }
        }
    }
}

/// Deterministic pseudo-random sparse vectors with a wide weight spread —
/// wide enough that suffix-bound pruning actually fires at moderate σ.
fn synthetic_vectors(n: usize, vocab: usize, seed: u64) -> Vec<SparseVector> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..n)
        .map(|_| {
            let mut entries: Vec<(TermId, f64)> = Vec::new();
            for t in 0..vocab {
                if next() < 0.3 {
                    entries.push((TermId(t as u32), next() * 0.9 + 0.1));
                }
            }
            SparseVector::from_entries(entries).normalized()
        })
        .collect()
}

fn run_synthetic(sigma: f64, budget: Option<u64>, threads: usize) -> SimJoinResult {
    let items = synthetic_vectors(20, 16, 41);
    let consumers = synthetic_vectors(24, 16, 42);
    let names_i: Vec<String> = (0..items.len()).map(|i| format!("t{i}")).collect();
    let names_c: Vec<String> = (0..consumers.len()).map(|i| format!("c{i}")).collect();
    mapreduce_similarity_join_vectors_flow(
        &items,
        &consumers,
        &names_i,
        &names_c,
        sigma,
        &join_flow(budget, threads),
    )
}

#[test]
fn pruned_pair_counts_are_deterministic_across_20_runs() {
    let reference = run_synthetic(0.4, None, 2);
    assert!(
        reference.candidates_pruned > 0,
        "the instance must exercise pruning: {reference:?}"
    );
    let reference_edges = canonical_edges(&reference.graph);
    for run in 0..20 {
        let result = run_synthetic(0.4, None, 2);
        assert_eq!(
            result.candidate_pairs, reference.candidate_pairs,
            "run {run}"
        );
        assert_eq!(
            result.candidates_pruned, reference.candidates_pruned,
            "run {run}"
        );
        assert_eq!(result.verify_exact, reference.verify_exact, "run {run}");
        assert_eq!(canonical_edges(&result.graph), reference_edges, "run {run}");
    }
}

#[test]
fn pruned_pair_counts_are_stable_across_budgets_and_threads() {
    // Map-side pruning runs on complete per-item scores before anything
    // is emitted, so the counts cannot depend on how the engine later
    // slices the shuffle.
    let reference = run_synthetic(0.4, None, 1);
    assert!(reference.candidates_pruned > 0);
    for budget in [Some(64u64), Some(4 * 1024)] {
        for threads in [1usize, 8] {
            let result = run_synthetic(0.4, budget, threads);
            assert_eq!(result.candidates_pruned, reference.candidates_pruned);
            assert_eq!(result.candidate_pairs, reference.candidate_pairs);
            assert_eq!(result.verify_exact, reference.verify_exact);
        }
    }
}
