//! DISCO-style sampled probing (Bosagh Zadeh & Goel, *Dimension
//! Independent Similarity Computation*).
//!
//! The exact probe accumulates one partial product per `(item, consumer)`
//! co-occurrence on an indexed term, so popular terms with `n_t` postings
//! contribute `O(n_t)` work per probing item — the probe's cost scales
//! with the dimension of the data.  DISCO's
//! observation is that popular terms are also the most *redundant*: a pair
//! that is similar shares many terms, so sampling each term's
//! contributions with probability `p_t = min(1, λ/n_t)` (and scaling the
//! surviving contributions by `1/p_t` to keep the score estimate
//! unbiased) caps every term's expected emissions at λ regardless of
//! `n_t`, making the probe's cost independent of term popularity.
//!
//! The sampled estimate only *selects* candidates; every survivor is
//! still verified with an exact dot product in the probe mapper (the
//! visitor marks its scores sampled, so
//! [`smr_simjoin::Probe::finish`] never takes them as similarities),
//! so emitted edges carry true,
//! bit-identical scores and the output is always a subset of the exact
//! join's edge set.  Recall is lost in two places: a pair whose sampled
//! contributions all miss is never seen, and a pair whose estimate
//! undershoots σ is pruned before verification.
//!
//! Sampling decisions are pure functions of `(seed, term, item, consumer)`
//! ([`crate::hash`]), so the generator is deterministic for any thread
//! count, memory budget or shard layout — the engine's determinism
//! contract holds for the sketch path exactly as for the exact path.

use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::Counters;
use smr_simjoin::{prefix_filter_join, SimJoinResult};
use smr_text::SparseVector;

use crate::hash::{hash_unit, hash_words};
use crate::CandidateGenerator;

/// The DISCO sampling generator: exact driver-built index, sampled probe
/// job, exact verification.
///
/// `lambda` is the expected number of postings sampled per term per
/// probing item: larger λ samples more (λ ≥ max posting-list length is
/// exactly the full probe), smaller λ trades recall for probe work.
#[derive(Debug, Clone, Copy)]
pub struct DiscoSampler {
    seed: u64,
    lambda: f64,
}

impl DiscoSampler {
    /// Creates a sampler with the given seed and per-term emission
    /// budget λ.
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive.
    pub fn new(seed: u64, lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        DiscoSampler { seed, lambda }
    }

    /// The sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-term emission budget λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl CandidateGenerator for DiscoSampler {
    /// The exact join's chain ([`prefix_filter_join`]) with one extra
    /// conditional in the probe visitor: a posting's contribution
    /// enters the partial score only if its coordinate hash clears the
    /// term's sampling probability, scaled by `1/p_t` when it does.
    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        let DiscoSampler { seed, lambda } = *self;
        let counters = Counters::new();
        let sampled_out = counters.clone();
        prefix_filter_join(
            "disco-",
            item_vectors,
            consumer_vectors,
            sigma,
            flow,
            counters,
            move |item, index, query, scores| {
                let mut skipped = 0u64;
                // Any term thinned below probability 1 skips or rescales.
                let mut sampled = false;
                for &(term, weight) in query {
                    let postings = index.postings(term.0);
                    if postings.is_empty() {
                        continue;
                    }
                    // The term's entire (prefix-pruned) posting list: n_t
                    // is a global property of the index.
                    let keep = (lambda / postings.len() as f64).min(1.0);
                    sampled |= keep < 1.0;
                    for i in 0..postings.len() {
                        let doc = postings.docs[i];
                        if keep < 1.0 {
                            let h = hash_words(seed, &[term.0 as u64, item as u64, doc as u64]);
                            if hash_unit(h) >= keep {
                                skipped += 1;
                                continue;
                            }
                        }
                        // Inverse-probability scaling keeps the estimate
                        // unbiased, so the σ prune is a noisy but centred
                        // version of the exact prune.
                        scores.accumulate(doc, weight * postings.weights[i] / keep);
                    }
                }
                if sampled {
                    scores.mark_sampled();
                }
                if skipped > 0 {
                    sampled_out.add(crate::counter::SAMPLED_OUT, skipped);
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_mapreduce::JobConfig;
    use smr_text::TermId;

    /// Dense-ish normalised vectors with varied weights, so every term
    /// carries many postings.
    fn vectors(n: u32, salt: u32) -> Vec<SparseVector> {
        (0..n)
            .map(|i| {
                let entries = (0..10u32)
                    .filter(|t| !(t * 5 + i * 3 + salt).is_multiple_of(4))
                    .map(|t| (TermId(t), 1.0 + ((t * 7 + i * 11 + salt) % 9) as f64));
                SparseVector::from_entries(entries).normalized()
            })
            .collect()
    }

    #[test]
    fn sampled_scores_are_never_taken_as_similarities() {
        let (items, consumers) = (vectors(20, 1), vectors(30, 2));
        let flow = FlowContext::new(JobConfig::named("disco-sampled").with_threads(2));
        let result = DiscoSampler::new(3, 1.0).generate_vectors(&items, &consumers, 0.3, &flow);
        let probe = &result.job_metrics[0];
        assert!(probe.user_counters[crate::counter::SAMPLED_OUT] > 0);
        assert!(
            result.verify_exact > 0,
            "some survivor reached verification"
        );
        assert_eq!(
            result.verify_dot, result.verify_exact,
            "every survivor of a sampled probe costs a dot product"
        );
        assert!(result.graph.num_edges() > 0);
        for edge in result.graph.edges() {
            let exact = items[edge.item.0 as usize].dot(&consumers[edge.consumer.0 as usize]);
            assert_eq!(edge.weight.to_bits(), exact.to_bits());
        }
    }
}
