//! Property tests locking the streaming similarity join to the exact
//! all-pairs baseline: for random corpora, the candidate graph is
//! **byte-identical** to [`baseline_similarity_join`] — same edge set with
//! bit-identical weights — across a σ sweep × memory budgets
//! {64 B, 4 KiB, unlimited} × thread counts {1, 8}.  Suffix-bound pruning
//! and verification in the probe mapper are pure optimizations; they may
//! never change a single output bit.
//!
//! Vectors numbered any other way than a `Corpus` numbers them (rarest
//! first) still join exactly: the filter's order is then a worse one, so
//! only selectivity may suffer, never an edge or a weight bit.
//!
//! Signed weights join exactly too: the cut and the plan's maxima compare
//! magnitudes.  At σ taken from an instance's own
//! similarities — its exact bits and one ulp either side — both the batch
//! join and the serving point query return exactly the `dot ≥ σ` pairs,
//! so the prune's slack never drops a pair at σ.
//!
//! A separate determinism test pins the pruned-pair counts: 20 identical
//! runs must report identical `candidate_pairs` / `candidates_pruned` /
//! `verify_exact`, which is what lets the experiment tables (and the CI
//! regression guard) assert exact counts.

use proptest::prelude::*;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_simjoin::{
    baseline_similarity_join, mapreduce_similarity_join_flow,
    mapreduce_similarity_join_vectors_flow, ServingIndex, SimJoinResult,
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
                        result.job_metrics[0].shuffle_records,
                        result.graph.num_edges() as u64
                    );
                }
            }
        }
    }
}

/// The ids `0..n` in a seeded Fisher–Yates order.
fn shuffled_ids(n: u32, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..ids.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }
    ids
}

/// `vectors` with term `t` renamed `permutation[t]`.
fn renumbered(vectors: &[SparseVector], permutation: &[u32]) -> Vec<SparseVector> {
    vectors
        .iter()
        .map(|v| {
            SparseVector::from_entries(
                v.entries()
                    .iter()
                    .map(|&(t, w)| (TermId(permutation[t.index()]), w)),
            )
        })
        .collect()
}

/// Every pair whose dot product reaches σ, as `(item, consumer, weight
/// bits)` sorted by pair: the canonical edges an exact join must return.
fn brute_force_edges(
    items: &[SparseVector],
    consumers: &[SparseVector],
    sigma: f64,
) -> Vec<(u32, u32, u64)> {
    let mut expected = Vec::new();
    for (t, x) in items.iter().enumerate() {
        for (c, y) in consumers.iter().enumerate() {
            let dot = x.dot(y);
            if dot >= sigma {
                expected.push((t as u32, c as u32, dot.to_bits()));
            }
        }
    }
    expected
}

/// The edges [`ServingIndex::candidates`] returns for every item, in the
/// canonical form of [`brute_force_edges`].
fn served_edges(
    items: &[SparseVector],
    consumers: &[SparseVector],
    sigma: f64,
) -> Vec<(u32, u32, u64)> {
    let serving = ServingIndex::for_corpora(items, consumers, sigma);
    let mut edges = Vec::new();
    for (t, x) in items.iter().enumerate() {
        for m in serving.candidates(x) {
            edges.push((t as u32, m.consumer as u32, m.score.to_bits()));
        }
    }
    edges
}

/// Sparse vectors over a 12-term space from `(term, weight)` draws of
/// either sign, unit-normalised.
fn signed_vectors(draws: &[Vec<(u32, f64)>]) -> Vec<SparseVector> {
    draws
        .iter()
        .map(|d| SparseVector::from_entries(d.iter().map(|&(t, w)| (TermId(t), w))).normalized())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_join_over_ids_in_any_order_returns_the_brute_force_edges(
        item_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..14),
        consumer_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..16),
        seed in any::<u64>(),
    ) {
        let permutation = shuffled_ids(24, seed);
        let items = corpus("t", &item_docs);
        let consumers = corpus("c", &consumer_docs);
        let items = renumbered(items.vectors(), &permutation);
        let consumers = renumbered(consumers.vectors(), &permutation);
        for sigma in [0.08, 0.2, 0.45] {
            let expected = brute_force_edges(&items, &consumers, sigma);
            let result = mapreduce_similarity_join_vectors_flow(
                &items,
                &consumers,
                sigma,
                &join_flow(None, 2),
            );
            prop_assert!(
                canonical_edges(&result.graph) == expected,
                "renumbered join diverged from brute force (sigma={sigma})"
            );
        }
    }

    #[test]
    fn signed_weights_join_and_serve_the_brute_force_edges(
        item_draws in proptest::collection::vec(
            proptest::collection::vec((0u32..12, -1.0f64..1.0), 0..6), 1..10),
        consumer_draws in proptest::collection::vec(
            proptest::collection::vec((0u32..12, -1.0f64..1.0), 0..6), 1..12),
    ) {
        let items = signed_vectors(&item_draws);
        let consumers = signed_vectors(&consumer_draws);
        for sigma in [0.1, 0.3, 0.6] {
            let expected = brute_force_edges(&items, &consumers, sigma);
            let result = mapreduce_similarity_join_vectors_flow(
                &items,
                &consumers,
                sigma,
                &join_flow(None, 2),
            );
            prop_assert!(
                canonical_edges(&result.graph) == expected,
                "signed join diverged from brute force (sigma={sigma})"
            );
            prop_assert!(
                served_edges(&items, &consumers, sigma) == expected,
                "signed point queries diverged from brute force (sigma={sigma})"
            );
        }
    }
}

#[test]
fn a_pair_of_negative_weights_above_sigma_is_an_edge() {
    // (−0.8)(−0.9) = 0.72 ≥ 0.5 through t0 alone.  A cut that summed
    // signed products from the back (0.3·0.1, then −0.8·0.9) never
    // reached σ, indexed nothing and lost the pair.
    let items = [
        SparseVector::from_entries([(TermId(0), -0.9)]),
        SparseVector::from_entries([(TermId(1), 0.1)]),
    ];
    let consumers = [SparseVector::from_entries([
        (TermId(0), -0.8),
        (TermId(1), 0.3),
    ])];
    let sigma = 0.5;
    let expected = brute_force_edges(&items, &consumers, sigma);
    assert_eq!(expected.len(), 1);
    let result =
        mapreduce_similarity_join_vectors_flow(&items, &consumers, sigma, &join_flow(None, 2));
    assert_eq!(canonical_edges(&result.graph), expected);
    assert_eq!(served_edges(&items, &consumers, sigma), expected);
}

#[test]
fn a_pair_at_exactly_sigma_is_always_an_edge() {
    let items = synthetic_vectors(20, 16, 41);
    let consumers = synthetic_vectors(24, 16, 42);
    let mut weights: Vec<f64> = items
        .iter()
        .flat_map(|x| consumers.iter().map(move |y| x.dot(y)))
        .filter(|&dot| dot > 0.05)
        .collect();
    weights.sort_by(f64::total_cmp);
    weights.dedup();
    // Every seventh similarity of the instance, the heaviest included.
    let picks = weights.iter().rev().step_by(7).copied();
    let mut pruned = 0;
    for weight in picks {
        for sigma in [weight.next_down(), weight, weight.next_up()] {
            let expected = brute_force_edges(&items, &consumers, sigma);
            let result = mapreduce_similarity_join_vectors_flow(
                &items,
                &consumers,
                sigma,
                &join_flow(None, 2),
            );
            assert_eq!(
                canonical_edges(&result.graph),
                expected,
                "batch join at sigma {sigma:e}"
            );
            assert_eq!(
                served_edges(&items, &consumers, sigma),
                expected,
                "point queries at sigma {sigma:e}"
            );
            pruned += result.candidates_pruned;
        }
        let at = brute_force_edges(&items, &consumers, weight);
        let above = brute_force_edges(&items, &consumers, weight.next_up());
        assert!(
            at.len() > above.len(),
            "the pair at sigma {weight:e} counts"
        );
    }
    assert!(pruned > 0, "the prune must fire on the way");
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
    mapreduce_similarity_join_vectors_flow(&items, &consumers, sigma, &join_flow(budget, threads))
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
