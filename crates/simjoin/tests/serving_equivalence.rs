//! Property tests locking the serving index to the batch join: for random
//! corpora, the point-query result for *every* item — candidates and
//! bit-identical scores — equals the batch join's candidate set restricted
//! to that item, with the batch side run under memory budgets
//! {4 KiB, unlimited}.  The serving path shares the batch join's index
//! plan, posting rule, probe walk and prune, so it may never hold a
//! different posting or return a different candidate set — at the build
//! and after appends.

use proptest::prelude::*;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_simjoin::{mapreduce_similarity_join_vectors_flow, IndexPlan, ServingIndex};
use smr_text::{SparseVector, TermId};

/// Turns a proptest-generated tag list into a normalized sparse vector
/// (tags collapse into distinct terms of a shared 24-term space).
fn vectorize(tags: &[u8]) -> SparseVector {
    let mut weights = [0.0f64; 24];
    for &t in tags {
        weights[t as usize % 24] += 1.0;
    }
    SparseVector::from_entries(
        weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(t, w)| (TermId(t as u32), *w)),
    )
    .normalized()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn match_one_equals_the_batch_join_for_every_item(
        item_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 1..10), 1..12),
        consumer_docs in proptest::collection::vec(
            proptest::collection::vec(0u8..24, 1..10), 1..14),
    ) {
        let items: Vec<SparseVector> = item_docs.iter().map(|d| vectorize(d)).collect();
        let consumers: Vec<SparseVector> =
            consumer_docs.iter().map(|d| vectorize(d)).collect();
        let names_i: Vec<String> = (0..items.len()).map(|i| format!("t{i}")).collect();
        let names_c: Vec<String> = (0..consumers.len()).map(|i| format!("c{i}")).collect();

        for sigma in [0.1, 0.35] {
            let serving =
                ServingIndex::for_corpora(&items, &consumers, sigma);

            for budget in [Some(4 * 1024u64), None] {
                let batch = mapreduce_similarity_join_vectors_flow(
                    &items,
                    &consumers,
                    &names_i,
                    &names_c,
                    sigma,
                    &FlowContext::new(
                        JobConfig::named("serving-props")
                            .with_threads(2)
                            .with_memory_budget(budget),
                    ),
                );
                // Posting-level identity with job 1: the standing index
                // holds exactly the entries the batch index job produced.
                prop_assert_eq!(serving.num_postings(), batch.indexed_entries);
                // The batch edge list restricted to each item, with
                // bit-exact weights.
                for (t, item) in items.iter().enumerate() {
                    let mut expected: Vec<(usize, u64)> = batch
                        .graph
                        .edges()
                        .iter()
                        .filter(|e| e.item.index() == t)
                        .map(|e| (e.consumer.index(), e.weight.to_bits()))
                        .collect();
                    expected.sort_unstable();
                    let got: Vec<(usize, u64)> = serving
                        .candidates(item)
                        .into_iter()
                        .map(|m| (m.consumer, m.score.to_bits()))
                        .collect();
                    prop_assert!(
                        got == expected,
                        "item {t} diverged (sigma={sigma} budget={budget:?}): \
                         serving {got:?} vs batch {expected:?}"
                    );

                    // Top-k is the k heaviest of that same set, ties toward
                    // the lower consumer index.
                    let mut ranked: Vec<(usize, u64)> = expected.clone();
                    ranked.sort_by(|a, b| {
                        f64::from_bits(b.1)
                            .partial_cmp(&f64::from_bits(a.1))
                            .unwrap()
                            .then(a.0.cmp(&b.0))
                    });
                    let k = 1 + ranked.len() / 2;
                    let top: Vec<(usize, u64)> = serving
                        .match_one(item, k)
                        .into_iter()
                        .map(|m| (m.consumer, m.score.to_bits()))
                        .collect();
                    prop_assert_eq!(&top, &ranked[..k.min(ranked.len())]);
                }
            }

            // Appending is indistinguishable from having been there at the
            // build: half the consumers indexed, the rest appended, equals
            // a from-scratch build over all of them under the same plan.
            let plan = IndexPlan::derive(&items, &consumers);
            let split = consumers.len() / 2;
            let mut appended =
                ServingIndex::build(&consumers[..split], plan.clone(), sigma);
            appended.append_batch(&consumers[split..]);
            let scratch = ServingIndex::build(&consumers, plan, sigma);
            prop_assert_eq!(appended.len(), scratch.len());
            prop_assert_eq!(appended.num_postings(), scratch.num_postings());
            prop_assert_eq!(scratch.num_postings(), serving.num_postings());
            for item in &items {
                prop_assert_eq!(appended.candidates(item), scratch.candidates(item));
            }
        }
    }
}
