//! Property tests locking the sketch generators to their contracts:
//!
//! 1. **Determinism** — for a fixed seed, `DiscoSampler` and `LshBander`
//!    produce identical edge sets *and* identical candidate accounting
//!    across thread counts {1, 8} × memory budgets {4 KiB, ∞}.  All of
//!    their pseudo-randomness is stateless coordinate hashing, so nothing
//!    about engine scheduling may leak into the output.
//! 2. **Subset soundness** — every sketch edge also appears in the exact
//!    prefix-filter join's edge set with a **bit-identical** weight: the
//!    sketches pick candidates differently but verify them with the same
//!    exact dot product against the same aligned vectors.
//! 3. **Verified before the shuffle** — for the exact join, DISCO and LSH
//!    alike the probe stage shuffles exactly the edges, and the candidate
//!    accounting closes.

use std::collections::HashMap;

use proptest::prelude::*;
use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::JobConfig;
use smr_simjoin::SimJoinResult;
use smr_sketch::{CandidateGenerator, DiscoSampler, ExactPrefixJoin, LshBander};
use smr_text::{Corpus, Document, TokenizerConfig};

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

/// The canonical edge list of a graph: `(item, consumer, weight_bits)`
/// sorted by pair.
fn canonical_edges(graph: &smr_graph::BipartiteGraph) -> Vec<(u32, u32, u64)> {
    let mut edges: Vec<(u32, u32, u64)> = graph
        .edges()
        .iter()
        .map(|e| (e.item.0, e.consumer.0, e.weight.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

fn run(
    generator: &dyn CandidateGenerator,
    items: &Corpus,
    consumers: &Corpus,
    sigma: f64,
    budget: Option<u64>,
    threads: usize,
) -> SimJoinResult {
    let flow = FlowContext::new(
        JobConfig::named("sketch-props")
            .with_threads(threads)
            .with_memory_budget(budget),
    );
    generator.generate(items, consumers, sigma, &flow)
}

/// The counters that must not depend on engine scheduling.
fn accounting(result: &SimJoinResult) -> (usize, usize, usize, usize, u64) {
    (
        result.candidate_pairs,
        result.candidates_pruned,
        result.verify_exact,
        result.indexed_entries,
        result.shuffled_records,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sketches_are_deterministic_and_subsets_of_the_exact_join(
        item_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..12),
        consumer_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 0..10), 1..14),
        seed in 0u64..1024,
    ) {
        let items = corpus("t", &item_docs);
        let consumers = corpus("c", &consumer_docs);
        let sigma = 0.2;

        let exact = run(&ExactPrefixJoin::new(), &items, &consumers, sigma, None, 2);
        prop_assert_eq!(exact.shuffled_records, exact.graph.num_edges() as u64);
        prop_assert_eq!(exact.candidate_pairs, exact.candidates_pruned + exact.verify_exact);
        let exact_weights: HashMap<(u32, u32), u64> = exact
            .graph
            .edges()
            .iter()
            .map(|e| ((e.item.0, e.consumer.0), e.weight.to_bits()))
            .collect();

        let sketches: Vec<Box<dyn CandidateGenerator>> = vec![
            Box::new(DiscoSampler::new(seed, 4.0)),
            Box::new(LshBander::new(seed, 8, 2)),
        ];
        for generator in &sketches {
            let reference = run(generator.as_ref(), &items, &consumers, sigma, None, 1);

            // (b) subset with bit-identical scores.
            for edge in reference.graph.edges() {
                let exact_bits = exact_weights.get(&(edge.item.0, edge.consumer.0));
                prop_assert!(
                    exact_bits == Some(&edge.weight.to_bits()),
                    "{:?}: edge ({}, {}) missing from the exact join or scored \
                     differently (sketch bits {:?}, exact bits {:?})",
                    generator,
                    edge.item.0,
                    edge.consumer.0,
                    edge.weight.to_bits(),
                    exact_bits
                );
            }

            // (a) determinism across engine configurations.
            let reference_edges = canonical_edges(&reference.graph);
            for budget in [Some(4 * 1024u64), None] {
                for threads in [1usize, 8] {
                    let result =
                        run(generator.as_ref(), &items, &consumers, sigma, budget, threads);
                    prop_assert!(
                        canonical_edges(&result.graph) == reference_edges,
                        "{generator:?}: edges changed under budget={budget:?} threads={threads}"
                    );
                    prop_assert!(
                        accounting(&result) == accounting(&reference),
                        "{generator:?}: counters changed under budget={budget:?} threads={threads}"
                    );
                }
            }

            // Closed candidate accounting, uniformly phrased for every
            // generator: generated = pruned + exactly-verified.
            prop_assert_eq!(
                reference.candidate_pairs,
                reference.candidates_pruned + reference.verify_exact
            );
            // (c) verified in the probe mapper: the probe stage shuffles
            // exactly the edges.
            prop_assert_eq!(
                reference.shuffled_records,
                reference.graph.num_edges() as u64
            );
        }
    }
}

/// A λ far beyond every posting-list length samples nothing out: DISCO
/// degenerates to the exact join, edge for edge, bit for bit.
#[test]
fn disco_with_huge_lambda_recovers_the_exact_join() {
    let items = corpus("t", &[vec![0, 1, 2], vec![2, 3, 4], vec![5, 6]]);
    let consumers = corpus(
        "c",
        &[
            vec![0, 1],
            vec![2, 3],
            vec![4, 5, 6],
            vec![7, 8],
            vec![1, 2, 3],
        ],
    );
    let sigma = 0.1;
    let exact = run(&ExactPrefixJoin::new(), &items, &consumers, sigma, None, 2);
    let disco = run(
        &DiscoSampler::new(99, 1e9),
        &items,
        &consumers,
        sigma,
        None,
        2,
    );
    assert_eq!(canonical_edges(&disco.graph), canonical_edges(&exact.graph));
    assert_eq!(disco.candidate_pairs, exact.candidate_pairs);
    assert_eq!(disco.verify_exact, exact.verify_exact);
    assert_eq!(disco.indexed_entries, exact.indexed_entries);
}

/// The uniform shuffle counters are wired for every generator: each runs
/// exactly one job, and the totals are that job's shuffle.
#[test]
fn shuffle_counters_are_uniform_across_generators() {
    let items = corpus("t", &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6]]);
    let consumers = corpus("c", &[vec![0, 1, 3], vec![2, 4, 5], vec![5, 6, 7]]);
    let generators: Vec<Box<dyn CandidateGenerator>> = vec![
        Box::new(ExactPrefixJoin::new()),
        Box::new(DiscoSampler::new(3, 4.0)),
        Box::new(LshBander::new(3, 8, 2)),
    ];
    for generator in &generators {
        let result = run(generator.as_ref(), &items, &consumers, 0.15, None, 2);
        assert_eq!(result.job_metrics.len(), 1, "{generator:?}");
        let probe = &result.job_metrics[0];
        assert_eq!(result.shuffled_records, probe.shuffle_records);
        assert_eq!(result.shuffled_bytes, probe.shuffle_bytes);
    }
}
