//! What gets indexed and where it lives: the [`Posting`] record, the
//! [`IndexPlan`] that decides, for any consumer vector, how many of its
//! leading entries become postings, the in-RAM [`InvertedIndex`] that
//! holds them, and the [`SuffixTable`] recording where each consumer's
//! unindexed suffix starts.  The filter's term order is ascending term id
//! (rarest first in a [`smr_text::Corpus`]): a prefix is `entries()[..plen]`.
//!
//! [`crate::serving::ServingIndex`] — the one index the batch join's probe
//! job and the serving point queries both read — fills its
//! [`InvertedIndex`] through [`IndexPlan::prefix_postings`] and keeps the
//! complementary [`SuffixTable`], cut by the same [`IndexPlan::cut`].

use smr_text::SparseVector;

use crate::prefix::{prefix_length, suffix_remainder_bound, term_max_weights};

/// One posting: a consumer (by dense index), the weight of the indexed
/// term in its vector, and the consumer's suffix remainder bound.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The table prefix filtering is parameterised by: the per-term maxima of
/// the *query* (item) side the prefixes are pruned against — the
/// exactness contract of the index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexPlan {
    /// `max_weights[t]`: the largest weight any query may carry on term
    /// `t` (`0.0` for terms no query carries).
    pub max_weights: Vec<f64>,
}

impl IndexPlan {
    /// Derives the plan for joining `items` against `consumers` (both in
    /// one term space): the vocabulary is one past the highest term id on
    /// either side, the maxima come from the items.
    pub fn derive(items: &[SparseVector], consumers: &[SparseVector]) -> Self {
        let vocab_size = items
            .iter()
            .chain(consumers)
            .filter_map(|v| v.entries().last())
            .map(|(t, _)| t.index() + 1)
            .max()
            .unwrap_or(0);
        IndexPlan {
            max_weights: term_max_weights(items, vocab_size),
        }
    }

    /// Raises the query-side maxima to cover `observed` `(term index,
    /// weight)` pairs too (growing the vocabulary if queries carried unseen
    /// terms), so an index built from the widened plan is exact for the
    /// workload that actually arrived.
    pub fn widen(&mut self, observed: impl IntoIterator<Item = (usize, f64)>) {
        for (term, weight) in observed {
            if self.max_weights.len() <= term {
                self.max_weights.resize(term + 1, 0.0);
            }
            self.max_weights[term] = self.max_weights[term].max(weight);
        }
    }

    /// The one prefix/suffix decision for a consumer vector: the length
    /// of the prefix to index, cut where the suffix bound drops below σ.
    /// `vector.entries()[..plen]` is indexed
    /// ([`IndexPlan::prefix_postings`]), `vector.entries()[plen..]` is the
    /// unindexed suffix ([`SuffixTable`]).
    pub fn cut(&self, vector: &SparseVector, sigma: f64) -> usize {
        prefix_length(vector, &self.max_weights, sigma)
    }

    /// Emits the prefix postings of consumer `doc`: the indexed part of
    /// its [`IndexPlan::cut`], every posting carrying the suffix remainder
    /// bound.
    pub fn prefix_postings(
        &self,
        doc: usize,
        vector: &SparseVector,
        sigma: f64,
        mut emit: impl FnMut(u32, Posting),
    ) {
        let plen = self.cut(vector, sigma);
        let bound = suffix_remainder_bound(vector, plen, &self.max_weights);
        for &(term, weight) in &vector.entries()[..plen] {
            emit(term.0, Posting { doc, weight, bound });
        }
    }
}

/// Where every consumer's unindexed suffix starts — one prefix length per
/// consumer, cut by [`IndexPlan::cut`]: consumer `doc`'s entries
/// `[..prefix_len(doc)]` are indexed, the rest are its suffix.
///
/// A probe's partial score for `doc` covers the item's products over
/// that prefix; [`crate::join::Probe::finish`] continues it over the
/// suffix.
#[derive(Debug, PartialEq)]
pub struct SuffixTable {
    prefix_lens: Vec<u32>,
}

impl SuffixTable {
    /// The suffixes of `consumers` (dense indices `0..`) under `plan` at σ.
    pub fn build(plan: &IndexPlan, consumers: &[SparseVector], sigma: f64) -> Self {
        let mut table = SuffixTable {
            prefix_lens: Vec::with_capacity(consumers.len()),
        };
        table.extend(plan, consumers, sigma);
        table
    }

    /// Appends the suffixes of `vectors` as the next dense indices.
    pub fn extend(&mut self, plan: &IndexPlan, vectors: &[SparseVector], sigma: f64) {
        self.prefix_lens
            .extend(vectors.iter().map(|v| plan.cut(v, sigma) as u32));
    }

    /// How many leading entries of consumer `doc` are indexed: its suffix
    /// is `entries()[prefix_len(doc)..]`.
    ///
    /// # Panics
    /// Panics when `doc` is not in the table.
    pub fn prefix_len(&self, doc: usize) -> usize {
        self.prefix_lens[doc] as usize
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
    /// One past the largest posted doc.
    num_docs: usize,
}

impl InvertedIndex {
    /// Builds the index from raw `(term, posting)` records.
    ///
    /// A *stable* sort by term restores term order while keeping each
    /// term's postings in the order they arrived (doc order, for records
    /// emitted consumer by consumer).
    pub fn from_records(mut records: Vec<(u32, Posting)>) -> Self {
        records.sort_by_key(|(term, _)| *term);
        let mut index = InvertedIndex {
            terms: Vec::new(),
            starts: Vec::new(),
            docs: Vec::with_capacity(records.len()),
            weights: Vec::with_capacity(records.len()),
            bounds: Vec::with_capacity(records.len()),
            num_docs: 0,
        };
        for (term, posting) in records {
            if index.terms.last() != Some(&term) {
                index.terms.push(term);
                index.starts.push(index.docs.len());
            }
            index.num_docs = index.num_docs.max(posting.doc + 1);
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

    /// One past the largest doc index any posting names: the size of a
    /// dense per-doc table over this index's candidates.
    pub fn num_docs(&self) -> usize {
        self.num_docs
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
    fn derive_takes_maxima_from_the_items_over_both_sides_vocabulary() {
        let items = vec![vec_of(&[(0, 0.5), (2, 0.1)]), vec_of(&[(0, 0.3)])];
        let consumers = vec![vec_of(&[(0, 0.9), (1, 0.9)]), vec_of(&[(1, 0.2), (3, 0.2)])];
        let plan = IndexPlan::derive(&items, &consumers);
        assert_eq!(plan.max_weights, vec![0.5, 0.0, 0.1, 0.0]);
        assert_eq!(
            IndexPlan::derive(&[], &[]),
            IndexPlan {
                max_weights: vec![]
            }
        );
    }

    #[test]
    fn widening_raises_maxima_grows_the_vocabulary_and_is_idempotent_when_empty() {
        let items = vec![vec_of(&[(0, 0.5), (1, 0.4)])];
        let plan = IndexPlan::derive(&items, &items);
        let mut wide = plan.clone();
        wide.widen([]);
        assert_eq!(wide, plan);
        wide.widen([0.6, 0.1, 0.0, 0.01].into_iter().enumerate());
        assert_eq!(wide.max_weights, vec![0.6, 0.4, 0.0, 0.01]);
    }

    #[test]
    fn prefix_postings_index_only_the_prefix_and_carry_the_bound() {
        let items = vec![vec_of(&[(0, 1.0), (1, 1.0), (2, 1.0)])];
        let consumer = vec_of(&[(0, 0.9), (1, 0.05)]);
        let plan = IndexPlan {
            max_weights: term_max_weights(&items, 3),
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

    #[test]
    fn the_suffix_table_starts_each_suffix_where_the_prefix_postings_end() {
        let items = vec![vec_of(&[(0, 0.8), (1, 0.6), (2, 0.5), (3, 0.4)])];
        let consumers = vec![
            vec_of(&[(0, 0.9), (1, 0.3), (3, 0.05)]),
            vec_of(&[(2, 0.1), (3, 0.1)]),
            vec_of(&[(1, 0.7), (2, 0.6)]),
        ];
        let plan = IndexPlan::derive(&items, &consumers);
        let sigma = 0.4;
        let table = SuffixTable::build(&plan, &consumers, sigma);
        for (doc, vector) in consumers.iter().enumerate() {
            let mut indexed = Vec::new();
            plan.prefix_postings(doc, vector, sigma, |t, _| indexed.push(t));
            let plen = table.prefix_len(doc);
            let prefix: Vec<u32> = vector.entries()[..plen].iter().map(|(t, _)| t.0).collect();
            assert_eq!(indexed, prefix, "doc {doc}: the postings are the prefix");
        }
        assert_eq!(table.prefix_len(0), 1, "0.3·0.6 + 0.05·0.4 < 0.4");
        // Doc 1 cannot reach σ at all: all suffix, nothing indexed.
        assert_eq!(table.prefix_len(1), 0);
        // Doc 2's last entry alone (0.6·0.5) stays below σ.
        assert_eq!(table.prefix_len(2), 1);
        // Extending is building over the concatenation.
        let mut grown = SuffixTable::build(&plan, &consumers[..1], sigma);
        grown.extend(&plan, &consumers[1..], sigma);
        assert_eq!(grown, table);
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
