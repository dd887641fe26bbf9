//! What gets indexed: the [`Posting`] record and the [`IndexPlan`] that
//! decides, for any consumer vector, which of its entries become postings.
//!
//! The index itself lives on disk as term-range partitions
//! ([`crate::store::PartitionedIndex`]); the batch join's job 1 and the
//! standing [`crate::serving::ServingIndex`] both fill it through
//! [`IndexPlan::prefix_postings`], so they index exactly the same prefix
//! entries with the same per-posting suffix remainder bound.

use serde::{Deserialize, Serialize};
use smr_storage::impl_codec_struct;
use smr_text::SparseVector;

use crate::prefix::{prefix_length, suffix_remainder_bound, term_max_weights};

/// One posting: a consumer (by dense index), the weight of the indexed
/// term in its vector, and the consumer's suffix remainder bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Posting {
    /// Dense index of the consumer document.
    pub doc: usize,
    /// Weight of the term in that document.
    pub weight: f64,
    /// Upper bound on what the document's *unindexed* suffix can add to a
    /// dot product with any item
    /// ([`suffix_remainder_bound`]), carried with
    /// every posting so partial-product verification can threshold
    /// `accumulated score + bound` without fetching the vectors.
    pub bound: f64,
}

impl_codec_struct!(Posting { doc, weight, bound });

/// The two tables prefix filtering is parameterised by: the per-term
/// maxima of the *query* (item) side the prefixes are pruned against —
/// the exactness contract of the index — and the global term order.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexPlan {
    /// `max_weights[t]`: the largest weight any query may carry on term
    /// `t` (`0.0` for terms no query carries).
    pub max_weights: Vec<f64>,
    /// `term_order_rank[t]`: the rank of term `t` in the global order,
    /// rarest first, measured by how many vectors on either side contain
    /// the term (ties toward the lower term id).
    pub term_order_rank: Vec<u32>,
}

impl IndexPlan {
    /// Derives the plan for joining `items` against `consumers` (both in
    /// one term space): the vocabulary is one past the highest term id on
    /// either side, the maxima come from the items.
    pub fn derive(items: &[SparseVector], consumers: &[SparseVector]) -> Self {
        let both = || items.iter().chain(consumers).flat_map(|v| v.entries());
        let vocab_size = both().map(|(t, _)| t.index() + 1).max().unwrap_or(0);
        let mut freq = vec![0u32; vocab_size];
        for (t, _) in both() {
            freq[t.index()] += 1;
        }
        let mut terms: Vec<usize> = (0..vocab_size).collect();
        terms.sort_by_key(|&t| (freq[t], t));
        let mut term_order_rank = vec![0u32; vocab_size];
        for (rank, t) in terms.into_iter().enumerate() {
            term_order_rank[t] = rank as u32;
        }
        IndexPlan {
            max_weights: term_max_weights(items, vocab_size),
            term_order_rank,
        }
    }

    /// Raises the query-side maxima to cover `observed` per-term query
    /// weights too (growing the vocabulary if queries carried unseen
    /// terms), so an index built from the widened plan is exact for the
    /// workload that actually arrived.  The term order is untouched:
    /// widening never reorders the terms consumers carry.
    pub fn widened(mut self, observed: &[f64]) -> Self {
        if self.max_weights.len() < observed.len() {
            self.max_weights.resize(observed.len(), 0.0);
        }
        for (max, &seen) in self.max_weights.iter_mut().zip(observed) {
            *max = max.max(seen);
        }
        self
    }

    /// Size of the term space the plan covers.
    pub fn vocab_size(&self) -> usize {
        self.max_weights.len().max(self.term_order_rank.len())
    }

    /// Emits the prefix postings of consumer `doc`: its terms in the
    /// global order, cut where the suffix bound drops below σ, every
    /// posting carrying the suffix remainder bound.
    pub fn prefix_postings(
        &self,
        doc: usize,
        vector: &SparseVector,
        sigma: f64,
        mut emit: impl FnMut(u32, Posting),
    ) {
        let ordered = vector.terms_in_order(&self.term_order_rank);
        let plen = prefix_length(vector, &ordered, &self.max_weights, sigma);
        let bound = suffix_remainder_bound(vector, &ordered, plen, &self.max_weights);
        for term in &ordered[..plen] {
            let weight = vector.weight(*term);
            emit(term.0, Posting { doc, weight, bound });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_text::TermId;

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn derive_ranks_rarest_terms_first_and_takes_maxima_from_the_items() {
        let items = vec![vec_of(&[(0, 0.5), (2, 0.1)]), vec_of(&[(0, 0.3)])];
        let consumers = vec![vec_of(&[(0, 0.9), (1, 0.9)]), vec_of(&[(1, 0.2), (2, 0.2)])];
        let plan = IndexPlan::derive(&items, &consumers);
        assert_eq!(plan.vocab_size(), 3);
        assert_eq!(plan.max_weights, vec![0.5, 0.0, 0.1]);
        // Frequencies: t0 = 3, t1 = 2, t2 = 2; ties toward the lower id.
        assert_eq!(plan.term_order_rank, vec![2, 0, 1]);
        assert_eq!(IndexPlan::derive(&[], &[]).vocab_size(), 0);
    }

    #[test]
    fn widening_raises_maxima_grows_the_vocabulary_and_is_idempotent_when_empty() {
        let items = vec![vec_of(&[(0, 0.5), (1, 0.4)])];
        let plan = IndexPlan::derive(&items, &items);
        assert_eq!(plan.clone().widened(&[]), plan);
        let wide = plan.clone().widened(&[0.6, 0.1, 0.0, 0.01]);
        assert_eq!(wide.max_weights, vec![0.6, 0.4, 0.0, 0.01]);
        assert_eq!(wide.term_order_rank, plan.term_order_rank);
        assert_eq!(wide.vocab_size(), 4);
    }

    #[test]
    fn prefix_postings_index_only_the_prefix_and_carry_the_bound() {
        let items = vec![vec_of(&[(0, 1.0), (1, 1.0), (2, 1.0)])];
        let consumer = vec_of(&[(0, 0.9), (1, 0.05)]);
        let plan = IndexPlan {
            max_weights: term_max_weights(&items, 3),
            term_order_rank: vec![0, 1, 2],
        };
        let mut postings = Vec::new();
        plan.prefix_postings(7, &consumer, 0.5, |t, p| postings.push((t, p)));
        // The 0.05-weight tail cannot reach 0.5 and is pruned into the bound.
        let expected = Posting {
            doc: 7,
            weight: 0.9,
            bound: 0.05,
        };
        assert_eq!(postings, vec![(0, expected)]);
    }
}
