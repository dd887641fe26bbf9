//! What gets indexed and where it lives: the [`Posting`] record, the
//! [`IndexPlan`] that cuts any consumer vector into an indexed prefix and
//! an unindexed suffix, the [`SuffixTable`] that records each consumer's
//! cut, and the in-RAM [`InvertedIndex`] that holds the prefixes.  The
//! filter's term order is ascending term id (rarest first in a
//! [`smr_text::Corpus`]): a prefix is `entries()[..plen]`.
//!
//! The idea (Chaudhuri et al., adapted by Baraglia et al. to MapReduce):
//! order the entries of every vector by one global term order and index
//! only a *prefix* of each consumer vector, chosen so that the remaining
//! suffix alone cannot produce a dot product of σ or more with *any*
//! query.  Every pair with similarity at least σ then shares a term
//! inside the indexed prefix, so an index probe cannot miss it.  For a
//! suffix `S` of consumer `y` that bound is `Σ_{t ∈ S} |y_t| · maxw(t)`,
//! where `maxw(t)` is the largest magnitude of term `t` in any query.
//!
//! [`crate::serving::ServingIndex`] — the one index the batch join's probe
//! job and the serving point queries both read — cuts every consumer once,
//! through [`SuffixTable::extend`], and folds the prefix postings that
//! call returns into its [`InvertedIndex`].

use smr_text::{SparseVector, TermId};

/// One posting: a consumer (by dense index) and the weight of the indexed
/// term in its vector.  What the consumer's unindexed suffix could still
/// add is a fact of the consumer, kept once in its [`SuffixTable`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// Dense index of the consumer document.
    pub doc: usize,
    /// Weight of the term in that document.
    pub weight: f64,
}

/// The table prefix filtering is parameterised by: the per-term maxima of
/// the *query* (item) side the prefixes are pruned against — the
/// exactness contract of the index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexPlan {
    /// `max_weights[t]`: the largest magnitude any query may carry on term
    /// `t` (`0.0` for terms no query carries).
    pub max_weights: Vec<f64>,
}

impl IndexPlan {
    /// Derives the plan for joining `items` against `consumers` (both in
    /// one term space): the table spans one past the highest term id on
    /// either side, and each maximum is the largest `|weight|` of the term
    /// over the items.
    pub fn derive(items: &[SparseVector], consumers: &[SparseVector]) -> Self {
        let vocab_size = items
            .iter()
            .chain(consumers)
            .filter_map(|v| v.entries().last())
            .map(|(t, _)| t.index() + 1)
            .max()
            .unwrap_or(0);
        let mut max_weights = vec![0.0_f64; vocab_size];
        for &(term, weight) in items.iter().flat_map(SparseVector::entries) {
            let max = &mut max_weights[term.index()];
            *max = max.max(weight.abs());
        }
        IndexPlan { max_weights }
    }

    /// Raises the query-side maxima to cover the magnitudes of `observed`
    /// `(term index, weight)` pairs too (growing the table if queries
    /// carried unseen terms), so an index built from the widened plan is
    /// exact for the workload that actually arrived.
    pub fn widen(&mut self, observed: impl IntoIterator<Item = (usize, f64)>) {
        for (term, weight) in observed {
            if self.max_weights.len() <= term {
                self.max_weights.resize(term + 1, 0.0);
            }
            self.max_weights[term] = self.max_weights[term].max(weight.abs());
        }
    }

    /// The query-side maximum of `term` (`0.0` beyond the table).
    pub fn max_weight(&self, term: TermId) -> f64 {
        self.max_weights.get(term.index()).copied().unwrap_or(0.0)
    }

    /// The one prefix/suffix decision for a consumer vector: `(plen,
    /// bound)`.  `vector.entries()[..plen]` is the shortest prefix whose
    /// suffix `entries()[plen..]` has a bound `Σ |w| · maxw(t)` below σ,
    /// and `bound` is that sum, in term order: an upper bound on what the
    /// unindexed suffix can add to the dot product with **any** query
    /// inside the plan (the *remainder bound* of partial-product
    /// verification).
    ///
    /// `plen` is in `0..=vector.len()`: `0` means the vector cannot
    /// reach σ with anything and is not indexed at all, `len` means every
    /// entry is indexed and nothing remains.
    pub fn cut(&self, vector: &SparseVector, sigma: f64) -> (usize, f64) {
        debug_assert!(sigma > 0.0, "threshold must be positive");
        let entries = vector.entries();
        let share = |&(term, w): &(TermId, f64)| w.abs() * self.max_weight(term);
        // The suffix bound grows from the back: once entries k.. could
        // reach the threshold on their own, entry k must be indexed and
        // everything after it may be pruned.
        let mut suffix_bound = 0.0;
        let mut plen = 0;
        for (k, entry) in entries.iter().enumerate().rev() {
            suffix_bound += share(entry);
            if suffix_bound >= sigma {
                plen = k + 1;
                break;
            }
        }
        (plen, entries[plen..].iter().map(share).sum())
    }
}

/// Every consumer's cut, by dense index: its prefix length (consumer
/// `doc`'s entries `[..prefix_len(doc)]` are indexed, the rest are its
/// suffix) and its remainder bound, both from one [`IndexPlan::cut`].
///
/// A probe prunes a candidate on its partial score plus
/// [`SuffixTable::bound`]; [`crate::join::Probe::finish`] continues a
/// survivor's score over the suffix.
#[derive(Debug, Default, PartialEq)]
pub struct SuffixTable {
    prefix_lens: Vec<u32>,
    bounds: Vec<f64>,
}

impl SuffixTable {
    /// Cuts `vectors` under `plan` at σ as the next dense indices, records
    /// each one's prefix length and remainder bound, and returns their
    /// prefix postings `(term, posting)`, consumer by consumer and in term
    /// order within one.
    pub fn extend(
        &mut self,
        plan: &IndexPlan,
        vectors: &[SparseVector],
        sigma: f64,
    ) -> Vec<(u32, Posting)> {
        self.prefix_lens.reserve(vectors.len());
        self.bounds.reserve(vectors.len());
        let mut postings = Vec::new();
        for vector in vectors {
            let doc = self.prefix_lens.len();
            let (plen, bound) = plan.cut(vector, sigma);
            postings.extend(
                vector.entries()[..plen]
                    .iter()
                    .map(|&(term, weight)| (term.0, Posting { doc, weight })),
            );
            self.prefix_lens.push(plen as u32);
            self.bounds.push(bound);
        }
        postings
    }

    /// How many leading entries of consumer `doc` are indexed: its suffix
    /// is `entries()[prefix_len(doc)..]`.
    ///
    /// # Panics
    /// Panics when `doc` is not in the table.
    pub fn prefix_len(&self, doc: usize) -> usize {
        self.prefix_lens[doc] as usize
    }

    /// Upper bound on what consumer `doc`'s unindexed suffix can add to a
    /// dot product with any query inside the plan.
    ///
    /// # Panics
    /// Panics when `doc` is not in the table.
    #[inline]
    pub fn bound(&self, doc: usize) -> f64 {
        self.bounds[doc]
    }
}

/// One term's postings, borrowed from the index's column arrays.
///
/// The columns are parallel slices of equal length: posting `i` is
/// `(docs[i], weights[i])`, so the accumulate loop walks two flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    /// Dense consumer indices, in the index's deterministic doc order.
    pub docs: &'a [usize],
    /// Term weights, parallel to `docs`.
    pub weights: &'a [f64],
}

impl<'a> PostingsRef<'a> {
    /// A postings list with nothing in it.
    pub const EMPTY: PostingsRef<'static> = PostingsRef {
        docs: &[],
        weights: &[],
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
        let (docs, weights) = (self.docs, self.weights);
        (0..docs.len()).map(move |i| Posting {
            doc: docs[i],
            weight: weights[i],
        })
    }
}

/// The pruned inverted index in RAM, in struct-of-arrays layout: the
/// distinct term ids (ascending) with offsets into two parallel posting
/// columns (doc, weight).  A term's postings are one contiguous
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
            weights: &self.weights[range],
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

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn plan_of(max_weights: &[f64]) -> IndexPlan {
        IndexPlan {
            max_weights: max_weights.to_vec(),
        }
    }

    #[test]
    fn derive_takes_maxima_from_the_items_over_both_sides_vocabulary() {
        let items = vec![vec_of(&[(0, 0.5), (2, 0.1)]), vec_of(&[(0, 0.3)])];
        let consumers = vec![vec_of(&[(0, 0.9), (1, 0.9)]), vec_of(&[(1, 0.2), (3, 0.2)])];
        let plan = IndexPlan::derive(&items, &consumers);
        assert_eq!(plan.max_weights, vec![0.5, 0.0, 0.1, 0.0]);
        assert_eq!(plan.max_weight(TermId(2)), 0.1);
        assert_eq!(plan.max_weight(TermId(9)), 0.0, "beyond the table");
        assert_eq!(
            IndexPlan::derive(&[], &[]),
            IndexPlan {
                max_weights: vec![]
            }
        );
    }

    #[test]
    fn max_weights_track_the_largest_magnitude_per_term() {
        let items = vec![
            vec_of(&[(0, 0.5), (2, -0.1)]),
            vec_of(&[(0, -0.7), (1, 0.9)]),
        ];
        let plan = IndexPlan::derive(&items, &items);
        assert_eq!(plan.max_weights, vec![0.7, 0.9, 0.1]);
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
        // A heavy negative weight widens by its magnitude.
        wide.widen([(1, -0.8)]);
        assert_eq!(wide.max_weights, vec![0.6, 0.8, 0.0, 0.01]);
    }

    #[test]
    fn prefix_is_zero_when_nothing_can_reach_the_threshold() {
        let v = vec_of(&[(0, 0.1), (1, 0.1)]);
        // Best possible dot product is 0.1*0.2 + 0.1*0.2 = 0.04 < 0.5, all
        // of it in the suffix.
        let (plen, bound) = plan_of(&[0.2, 0.2]).cut(&v, 0.5);
        assert_eq!(plen, 0);
        assert!((bound - 0.04).abs() < 1e-12);
    }

    #[test]
    fn prefix_covers_everything_when_the_last_term_alone_suffices() {
        let v = vec_of(&[(0, 1.0), (1, 1.0)]);
        // Even the final entry alone can contribute 1.0 ≥ 0.5, so the whole
        // vector must be indexed and nothing remains.
        assert_eq!(plan_of(&[1.0, 1.0]).cut(&v, 0.5), (2, 0.0));
    }

    #[test]
    fn prefix_stops_where_the_suffix_bound_falls_below_sigma() {
        // Terms in id order: t0 (heavy), t1, t2 (light tail).
        let v = vec_of(&[(0, 1.0), (1, 0.3), (2, 0.1)]);
        // Suffix {t2}: bound 0.1 < 0.5  -> prunable.
        // Suffix {t1,t2}: bound 0.4 < 0.5 -> prunable.
        // Suffix {t0,t1,t2}: bound 1.4 ≥ 0.5 -> t0 must be indexed.
        assert_eq!(plan_of(&[1.0, 1.0, 1.0]).cut(&v, 0.5).0, 1);
    }

    #[test]
    fn the_bound_sums_the_pruned_tail() {
        let v = vec_of(&[(0, 1.0), (1, 0.3), (2, 0.1)]);
        // Suffix {t1, t2}: 0.3·0.5 + 0.1·1.0.
        let (plen, bound) = plan_of(&[1.0, 0.5, 1.0]).cut(&v, 0.5);
        assert_eq!(plen, 1);
        assert!((bound - 0.25).abs() < 1e-12);
    }

    /// Small item and consumer sides sharing a four-term space.
    fn small_sides() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let items = vec![
            vec_of(&[(0, 0.9), (1, 0.2)]),
            vec_of(&[(1, 0.8), (2, 0.4)]),
            vec_of(&[(2, 0.6), (3, 0.6)]),
            vec_of(&[(0, -0.6), (3, -0.7)]),
        ];
        let consumers = vec![
            vec_of(&[(0, 0.7), (2, 0.5)]),
            vec_of(&[(1, 0.5), (3, 0.5)]),
            vec_of(&[(0, 0.1), (3, 0.9)]),
            vec_of(&[(0, -0.8), (3, -0.4)]),
        ];
        (items, consumers)
    }

    #[test]
    fn remainder_bound_dominates_every_true_suffix_contribution() {
        // For every pair: dot(x, y) ≤ (prefix part of y) + remainder(y).
        let (items, consumers) = small_sides();
        let plan = IndexPlan::derive(&items, &consumers);
        for sigma in [0.1, 0.3, 0.5] {
            for y in &consumers {
                let (plen, bound) = plan.cut(y, sigma);
                assert!(bound < sigma, "the pruned suffix can never reach sigma");
                for x in &items {
                    let prefix_part: f64 = y.entries()[..plen]
                        .iter()
                        .map(|&(t, w)| x.weight(t) * w)
                        .sum();
                    assert!(
                        prefix_part + bound >= x.dot(y) - 1e-12,
                        "partial products + remainder must bound the dot product"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_guarantee_holds_for_exhaustive_small_cases() {
        // Brute-force check of the filtering guarantee: for every pair of
        // small vectors, if dot(x, y) >= sigma then x shares a term with
        // the prefix of y (prefix cut against the item-side maxima).
        let (items, consumers) = small_sides();
        let plan = IndexPlan::derive(&items, &consumers);
        for sigma in [0.1, 0.3, 0.5] {
            for y in &consumers {
                let prefix = &y.entries()[..plan.cut(y, sigma).0];
                for x in &items {
                    if x.dot(y) >= sigma {
                        assert!(
                            prefix.iter().any(|&(t, _)| x.weight(t) != 0.0),
                            "pair above threshold shares no prefix term (sigma={sigma})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_suffix_table_records_each_cut_and_returns_the_prefix_entries() {
        let items = vec![vec_of(&[(0, 0.8), (1, 0.6), (2, 0.5), (3, 0.4)])];
        let consumers = vec![
            vec_of(&[(0, 0.9), (1, 0.3), (3, 0.05)]),
            vec_of(&[(2, 0.1), (3, 0.1)]),
            vec_of(&[(1, 0.7), (2, 0.6)]),
        ];
        let plan = IndexPlan::derive(&items, &consumers);
        let sigma = 0.4;
        let mut table = SuffixTable::default();
        let postings = table.extend(&plan, &consumers, sigma);
        for (doc, vector) in consumers.iter().enumerate() {
            let (plen, bound) = plan.cut(vector, sigma);
            assert_eq!((table.prefix_len(doc), table.bound(doc)), (plen, bound));
            let indexed: Vec<(u32, Posting)> = postings
                .iter()
                .filter(|(_, p)| p.doc == doc)
                .copied()
                .collect();
            let prefix: Vec<(u32, Posting)> = vector.entries()[..plen]
                .iter()
                .map(|&(t, weight)| (t.0, Posting { doc, weight }))
                .collect();
            assert_eq!(indexed, prefix, "doc {doc}: the postings are the prefix");
        }
        assert!(postings.windows(2).all(|w| w[0].1.doc <= w[1].1.doc));
        assert_eq!(table.prefix_len(0), 1, "0.3·0.6 + 0.05·0.4 < 0.4");
        assert!((table.bound(0) - 0.2).abs() < 1e-12);
        // Doc 1 cannot reach σ at all: all suffix, nothing indexed.
        assert_eq!(table.prefix_len(1), 0);
        // Doc 2's last entry alone (0.6·0.5) stays below σ.
        assert_eq!(table.prefix_len(2), 1);
        // Extending is cutting the concatenation: the later docs are
        // numbered on from the table's length.
        let mut grown = SuffixTable::default();
        let mut regrown = grown.extend(&plan, &consumers[..1], sigma);
        regrown.extend(grown.extend(&plan, &consumers[1..], sigma));
        assert_eq!((grown, regrown), (table, postings));
    }

    fn posting(doc: usize, weight: f64) -> Posting {
        Posting { doc, weight }
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
