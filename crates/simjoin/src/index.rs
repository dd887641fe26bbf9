//! What gets indexed and where it lives: the [`Posting`] record, the
//! [`IndexPlan`] that decides, for any consumer vector, which of its
//! entries become postings, and the in-RAM [`InvertedIndex`] that holds
//! them.
//!
//! The batch join's job 1 and the standing
//! [`crate::serving::ServingIndex`] both fill an [`InvertedIndex`] through
//! [`IndexPlan::prefix_postings`], so they index exactly the same prefix
//! entries with the same per-posting suffix remainder bound, in the same
//! order within a term.

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

/// One term's postings, borrowed from the index's column arrays.
///
/// The columns are parallel slices of equal length: posting `i` is
/// `(docs[i], weights[i], bounds[i])`.  Scan loops index the columns they
/// actually touch — the accumulate-and-prune hot loop reads `docs` and
/// `weights` every iteration but `bounds` only on a candidate's first
/// appearance, which the one-array-of-structs layout forced through the
/// cache anyway.
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    /// Dense consumer indices, in the index's deterministic doc order.
    pub docs: &'a [usize],
    /// Term weights, parallel to `docs`.
    pub weights: &'a [f64],
    /// Suffix-remainder bounds, parallel to `docs`.
    pub bounds: &'a [f64],
}

impl<'a> PostingsRef<'a> {
    /// A postings list with nothing in it.
    pub const EMPTY: PostingsRef<'static> = PostingsRef {
        docs: &[],
        weights: &[],
        bounds: &[],
    };

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Iterates the postings, materializing each.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + 'a {
        let (docs, weights, bounds) = (self.docs, self.weights, self.bounds);
        (0..docs.len()).map(move |i| Posting {
            doc: docs[i],
            weight: weights[i],
            bound: bounds[i],
        })
    }
}

/// The pruned inverted index in RAM, in struct-of-arrays layout: the
/// distinct term ids (ascending) with offsets into three parallel posting
/// columns (doc, weight, bound).  A term's postings are one contiguous
/// range of each column, so the probe's accumulate loop walks flat `f64`
/// and `usize` arrays instead of hopping across per-term `Vec<Posting>`
/// allocations — branch-light and friendly to both the prefetcher and
/// auto-vectorization.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Distinct indexed term ids, ascending.
    terms: Vec<u32>,
    /// `starts[i]..starts[i + 1]` is term `i`'s range in the columns;
    /// `terms.len() + 1` entries.
    starts: Vec<usize>,
    docs: Vec<usize>,
    weights: Vec<f64>,
    bounds: Vec<f64>,
}

impl InvertedIndex {
    /// Builds the index from raw `(term, posting)` records, such as job 1's
    /// output.
    ///
    /// The reduce output interleaves terms of different engine partitions;
    /// a *stable* sort by term restores term order while keeping each
    /// term's postings in the order they arrived (the engine's
    /// deterministic merge delivers them in doc order).
    pub fn from_records(mut records: Vec<(u32, Posting)>) -> Self {
        records.sort_by_key(|(term, _)| *term);
        let mut index = InvertedIndex {
            terms: Vec::new(),
            starts: Vec::new(),
            docs: Vec::with_capacity(records.len()),
            weights: Vec::with_capacity(records.len()),
            bounds: Vec::with_capacity(records.len()),
        };
        for (term, posting) in records {
            if index.terms.last() != Some(&term) {
                index.terms.push(term);
                index.starts.push(index.docs.len());
            }
            index.docs.push(posting.doc);
            index.weights.push(posting.weight);
            index.bounds.push(posting.bound);
        }
        index.starts.push(index.docs.len());
        index
    }

    /// Adds postings.  Old and new records are re-folded through
    /// [`InvertedIndex::from_records`]'s stable sort, so within a term the
    /// existing postings come first and the new ones follow in arrival
    /// order — the order a build over all of them in that sequence gives.
    pub fn append(&mut self, postings: Vec<(u32, Posting)>) {
        if postings.is_empty() {
            return;
        }
        let mut records = Vec::with_capacity(self.num_postings() + postings.len());
        for (i, &term) in self.terms.iter().enumerate() {
            records.extend(self.postings_at(i).iter().map(|p| (term, p)));
        }
        records.extend(postings);
        *self = InvertedIndex::from_records(records);
    }

    /// The postings of `term` (empty when the term is not indexed).
    pub fn postings(&self, term: u32) -> PostingsRef<'_> {
        self.terms
            .binary_search(&term)
            .map(|i| self.postings_at(i))
            .unwrap_or(PostingsRef::EMPTY)
    }

    /// The postings of the `i`-th distinct term (see
    /// [`InvertedIndex::term_ids`]).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn postings_at(&self, i: usize) -> PostingsRef<'_> {
        let range = self.starts[i]..self.starts[i + 1];
        PostingsRef {
            docs: &self.docs[range.clone()],
            weights: &self.weights[range.clone()],
            bounds: &self.bounds[range],
        }
    }

    /// The distinct indexed term ids, ascending — index-aligned with
    /// [`InvertedIndex::postings_at`].
    pub fn term_ids(&self) -> &[u32] {
        &self.terms
    }

    /// Number of distinct indexed terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of `(term, doc)` postings across all terms.
    pub fn num_postings(&self) -> usize {
        self.docs.len()
    }

    /// Whether the index holds no postings.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
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
        assert_eq!(plan.max_weights, vec![0.5, 0.0, 0.1]);
        // Frequencies: t0 = 3, t1 = 2, t2 = 2; ties toward the lower id.
        assert_eq!(plan.term_order_rank, vec![2, 0, 1]);
        assert_eq!(
            IndexPlan::derive(&[], &[]),
            IndexPlan {
                max_weights: vec![],
                term_order_rank: vec![]
            }
        );
    }

    #[test]
    fn widening_raises_maxima_grows_the_vocabulary_and_is_idempotent_when_empty() {
        let items = vec![vec_of(&[(0, 0.5), (1, 0.4)])];
        let plan = IndexPlan::derive(&items, &items);
        assert_eq!(plan.clone().widened(&[]), plan);
        let wide = plan.clone().widened(&[0.6, 0.1, 0.0, 0.01]);
        assert_eq!(wide.max_weights, vec![0.6, 0.4, 0.0, 0.01]);
        assert_eq!(wide.term_order_rank, plan.term_order_rank);
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

    fn posting(doc: usize, weight: f64) -> Posting {
        Posting {
            doc,
            weight,
            bound: 0.0,
        }
    }

    fn docs_of(index: &InvertedIndex, term: u32) -> Vec<usize> {
        index.postings(term).docs.to_vec()
    }

    #[test]
    fn inverted_index_groups_by_term_and_keeps_arrival_order_within_a_term() {
        let index = InvertedIndex::from_records(vec![
            (7, posting(1, 0.5)),
            (0, posting(0, 0.9)),
            (9, posting(0, 0.1)),
            (0, posting(2, 0.4)),
        ]);
        assert_eq!(index.num_postings(), 4);
        assert_eq!(index.term_ids(), [0, 7, 9]);
        assert_eq!(
            docs_of(&index, 0),
            [0, 2],
            "doc order is kept, not re-sorted"
        );
        assert_eq!(index.postings(0).weights, [0.9, 0.4]);
        assert_eq!(docs_of(&index, 9), [0]);
        assert!(index.postings(3).is_empty());
        assert!(InvertedIndex::from_records(Vec::new()).is_empty());
    }

    #[test]
    fn appended_postings_follow_the_built_ones_within_each_term() {
        let mut index =
            InvertedIndex::from_records(vec![(0, posting(3, 0.9)), (7, posting(1, 0.5))]);
        index.append(vec![
            (3, posting(4, 0.2)),
            (0, posting(5, 0.3)),
            (0, posting(2, 0.1)),
            (1234, posting(6, 0.1)),
        ]);
        index.append(Vec::new());
        assert_eq!(index.num_postings(), 6);
        assert_eq!(
            docs_of(&index, 0),
            [3, 5, 2],
            "build order, then arrival order"
        );
        assert_eq!(docs_of(&index, 3), [4]);
        assert_eq!(docs_of(&index, 1234), [6]);
        let records = vec![
            (0, posting(3, 0.9)),
            (7, posting(1, 0.5)),
            (3, posting(4, 0.2)),
            (0, posting(5, 0.3)),
            (0, posting(2, 0.1)),
            (1234, posting(6, 0.1)),
        ];
        let scratch = InvertedIndex::from_records(records);
        assert_eq!(index.term_ids(), scratch.term_ids());
        for term in scratch.term_ids() {
            let (a, b) = (index.postings(*term), scratch.postings(*term));
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        }
    }
}
