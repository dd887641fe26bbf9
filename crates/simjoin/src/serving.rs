//! A standing serving index: point queries and micro-updates against the
//! similarity-join index, kept in RAM.
//!
//! The batch join builds its pruned inverted index, probes it once with
//! every item, and throws it away.  [`ServingIndex`] keeps the same
//! structure alive — the [`InvertedIndex`] plus the consumer vectors it
//! owns — and answers two requests the batch path cannot:
//!
//! * [`ServingIndex::match_one`] — "a new item just arrived: who are its
//!   candidate consumers right now?"  One query runs exactly the batch
//!   probe (partial products over shared indexed terms, the
//!   suffix-remainder prune at `σ − slack`), then verifies the survivors
//!   with exact dot products against the owned vectors.  No corpus scan:
//!   the query only touches the postings of its own terms.
//! * [`ServingIndex::append_batch`] — "these consumers just joined the
//!   corpus."  Each new vector's prefix postings join the index after the
//!   existing postings of their terms, and the vectors join the owned
//!   corpus.
//!
//! **Exactness.**  A query probes the same postings the batch probe mapper
//! would see and prunes with the same bound at the same slack, and both
//! paths accept a pair only after an exact dot product reaches σ.  So for
//! any query vector whose per-term weights stay within the query-side
//! maxima the index was built with, `match_one` returns *exactly* the
//! batch join's candidate set for that query (proptest-locked in
//! `tests/serving_equivalence.rs`).  Queries with heavier terms than the
//! declared maxima may miss pairs — the prefix bound they were indexed
//! under no longer covers such a query — which is why builders take the
//! maxima explicitly.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use smr_text::SparseVector;

use crate::index::{IndexPlan, InvertedIndex, Posting};
use crate::join::{probe_index, probe_postings};

/// One serving-time candidate: a consumer whose exact similarity with the
/// query reached σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredMatch {
    /// Dense index of the consumer in the serving corpus.
    pub consumer: usize,
    /// Exact dot product with the query (always ≥ σ).
    pub score: f64,
}

/// A standing, in-RAM similarity index over a consumer corpus it owns,
/// answering point queries and absorbing micro-batches of new consumers.
#[derive(Debug)]
pub struct ServingIndex {
    index: InvertedIndex,
    /// Every indexed consumer, by dense index.
    consumers: Vec<SparseVector>,
    sigma: f64,
    /// The term order and query-side maxima the prefixes were cut with.
    plan: IndexPlan,
    /// Queries seen so far that carried some term heavier than its
    /// build-time maximum — queries the exactness contract no longer
    /// covers (see [`ServingIndex::maxima_exceeded`]).
    maxima_exceeded: AtomicU64,
}

impl ServingIndex {
    /// Builds a serving index over a copy of `consumers` at threshold
    /// `sigma`.  `plan` fixes the global term order and
    /// the per-term upper bounds on the weight any future query may carry;
    /// the prefix of each consumer is pruned against these, so they are
    /// the exactness contract of the index.
    ///
    /// The postings indexed are the ones the batch join's job 1 indexes
    /// for the same plan ([`IndexPlan::prefix_postings`]).
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn build(consumers: &[SparseVector], plan: IndexPlan, sigma: f64) -> Self {
        Self::build_owned(consumers.to_vec(), plan, sigma)
    }

    fn build_owned(consumers: Vec<SparseVector>, plan: IndexPlan, sigma: f64) -> Self {
        assert!(sigma > 0.0, "threshold must be positive");
        let index = InvertedIndex::from_records(prefix_postings(&plan, 0, &consumers, sigma));
        ServingIndex {
            index,
            consumers,
            sigma,
            plan,
            maxima_exceeded: AtomicU64::new(0),
        }
    }

    /// Builds a serving index sized for a known query corpus: the plan is
    /// [`IndexPlan::derive`]d from `items` and `consumers` exactly as the
    /// batch join derives it, so `match_one` with any of the `items`
    /// reproduces the batch join's candidates for that item.
    pub fn for_corpora(items: &[SparseVector], consumers: &[SparseVector], sigma: f64) -> Self {
        Self::build(consumers, IndexPlan::derive(items, consumers), sigma)
    }

    /// Re-cuts every consumer's prefix under `plan` and resets the drift
    /// counter: the index a fresh [`ServingIndex::build`] over the current
    /// consumers would give, without copying them.
    pub fn reindex(&mut self, plan: IndexPlan) {
        let consumers = std::mem::take(&mut self.consumers);
        *self = ServingIndex::build_owned(consumers, plan, self.sigma);
    }

    /// The similarity threshold this index serves.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of consumers currently indexed.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// Whether the index holds no consumers.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    /// The indexed consumer vectors, by dense index.
    pub fn consumers(&self) -> &[SparseVector] {
        &self.consumers
    }

    /// Number of `(term, doc)` postings currently indexed.
    pub fn num_postings(&self) -> usize {
        self.index.num_postings()
    }

    /// Disk reads performed so far: always 0, the index and the vectors
    /// live in RAM.  Kept for readers of the serving benchmark's
    /// `disk_reads_per_query`.
    pub fn disk_reads(&self) -> u64 {
        0
    }

    /// How many queries so far carried some term **strictly heavier** than
    /// the per-term maximum the index was built with.  Such queries fall
    /// outside the exactness contract — the consumers' prefixes were cut
    /// against the declared maxima, so a heavier query may miss pairs.  A
    /// non-zero count is the signal that the workload has drifted past the
    /// build assumptions and the index should be rebuilt with fresh maxima
    /// (surfaced as `needs_rebuild` on the serving pipeline).
    pub fn maxima_exceeded(&self) -> u64 {
        self.maxima_exceeded.load(Ordering::Relaxed)
    }

    /// Whether `query` carries some term heavier than its build-time
    /// maximum (a missing vocabulary entry counts as maximum 0): the
    /// per-query predicate behind [`ServingIndex::maxima_exceeded`].
    pub fn query_exceeds_maxima(&self, query: &SparseVector) -> bool {
        let maxima = &self.plan.max_weights;
        query
            .entries()
            .iter()
            .any(|&(term, weight)| weight > maxima.get(term.index()).copied().unwrap_or(0.0))
    }

    /// Answers one point query: the top-`k` consumers whose exact dot
    /// product with `query` reaches σ, heaviest first (ties broken toward
    /// the lower consumer index, the batch join's candidate order).
    ///
    /// The query accumulates partial products per candidate over the
    /// postings of its terms, prunes candidates whose score plus
    /// suffix-remainder bound cannot reach σ, and verifies the survivors
    /// only with exact dot products.
    pub fn match_one(&self, query: &SparseVector, k: usize) -> Vec<ScoredMatch> {
        if k == 0 {
            return Vec::new();
        }
        let mut matches = self.candidates(query);
        matches.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("similarities are finite")
                .then(a.consumer.cmp(&b.consumer))
        });
        matches.truncate(k);
        matches
    }

    /// Every consumer whose exact dot product with `query` reaches σ, in
    /// consumer order — the batch join's candidate set for this query,
    /// unranked and untruncated.
    pub fn candidates(&self, query: &SparseVector) -> Vec<ScoredMatch> {
        let entries = query.entries();
        if entries.is_empty() {
            return Vec::new();
        }
        if self.query_exceeds_maxima(query) {
            self.maxima_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        // The batch probe mapper's walk and prune, so partial products
        // accumulate in the same floating-point order.
        let (survivors, _) = probe_index(&self.index, entries, self.sigma, probe_postings);
        survivors
            .into_iter()
            .map(|(doc, _)| ScoredMatch {
                consumer: doc,
                score: query.dot(&self.consumers[doc]),
            })
            .filter(|m| m.score >= self.sigma)
            .collect()
    }

    /// Absorbs a micro-batch of new consumers, returning the dense indices
    /// they were assigned.  Each vector's prefix postings join the index
    /// after the existing postings of their terms, and the vectors join
    /// the owned corpus.
    pub fn append_batch(&mut self, batch: &[SparseVector]) -> Range<usize> {
        let assigned = self.len()..self.len() + batch.len();
        if batch.is_empty() {
            return assigned;
        }
        let postings = prefix_postings(&self.plan, self.len(), batch, self.sigma);
        self.index.append(postings);
        self.consumers.extend_from_slice(batch);
        assigned
    }
}

/// The prefix postings of `vectors`, numbered as consumers `first..`.
fn prefix_postings(
    plan: &IndexPlan,
    first: usize,
    vectors: &[SparseVector],
    sigma: f64,
) -> Vec<(u32, Posting)> {
    let mut postings = Vec::new();
    for (offset, vector) in vectors.iter().enumerate() {
        plan.prefix_postings(first + offset, vector, sigma, |term, posting| {
            postings.push((term, posting))
        });
    }
    postings
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_text::TermId;

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    fn small_corpora() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let items = vec![
            vec_of(&[(0, 0.9), (1, 0.2)]),
            vec_of(&[(1, 0.8), (2, 0.4)]),
            vec_of(&[(2, 0.6), (3, 0.6)]),
        ];
        let consumers = vec![
            vec_of(&[(0, 0.7), (2, 0.5)]),
            vec_of(&[(1, 0.5), (3, 0.5)]),
            vec_of(&[(0, 0.1), (3, 0.9)]),
        ];
        (items, consumers)
    }

    #[test]
    fn point_queries_return_exactly_the_thresholded_pairs() {
        let (items, consumers) = small_corpora();
        let sigma = 0.3;
        let serving = ServingIndex::for_corpora(&items, &consumers, sigma);
        for item in &items {
            let got = serving.candidates(item);
            for m in &got {
                let exact = item.dot(&consumers[m.consumer]);
                assert!((m.score - exact).abs() < 1e-12);
                assert!(m.score >= sigma);
            }
            let expected: Vec<usize> = consumers
                .iter()
                .enumerate()
                .filter(|(_, c)| item.dot(c) >= sigma)
                .map(|(i, _)| i)
                .collect();
            let got_ids: Vec<usize> = got.iter().map(|m| m.consumer).collect();
            assert_eq!(got_ids, expected);
        }
    }

    #[test]
    fn top_k_ranks_by_score_then_consumer() {
        let consumers = vec![
            vec_of(&[(0, 0.5)]),
            vec_of(&[(0, 0.9)]),
            vec_of(&[(0, 0.9)]),
            vec_of(&[(0, 0.4)]),
        ];
        let query = vec_of(&[(0, 1.0)]);
        let serving = ServingIndex::for_corpora(std::slice::from_ref(&query), &consumers, 0.45);
        let top = serving.match_one(&query, 2);
        assert_eq!(top.len(), 2);
        // Equal scores 0.9/0.9: the lower consumer index wins.
        assert_eq!(top[0].consumer, 1);
        assert_eq!(top[1].consumer, 2);
        assert_eq!(serving.match_one(&query, 0), Vec::new());
        let all = serving.match_one(&query, usize::MAX);
        assert_eq!(all.len(), 3, "0.4 stays below sigma");
    }

    #[test]
    fn append_batch_extends_the_candidate_set_incrementally() {
        let (items, consumers) = small_corpora();
        let sigma = 0.3;
        let mut serving = ServingIndex::for_corpora(&items, &consumers, sigma);
        let query = &items[0];
        let before = serving.candidates(query).len();

        // A new consumer that strongly matches item 0 arrives.
        let newcomer = vec_of(&[(0, 0.95), (1, 0.3)]);
        let assigned = serving.append_batch(std::slice::from_ref(&newcomer));
        assert_eq!(assigned, 3..4);
        assert_eq!(serving.len(), 4);

        let after = serving.candidates(query);
        assert_eq!(after.len(), before + 1);
        let found = after.iter().find(|m| m.consumer == 3).expect("newcomer");
        assert!((found.score - query.dot(&newcomer)).abs() < 1e-12);

        // Batch-equivalence after the append: rebuilding from scratch over
        // the grown corpus yields the same candidates for every item.
        let mut grown = consumers.clone();
        grown.push(newcomer);
        let rebuilt = ServingIndex::for_corpora(&items, &grown, sigma);
        for item in &items {
            assert_eq!(serving.candidates(item), rebuilt.candidates(item));
        }
    }

    #[test]
    fn queries_beyond_the_declared_maxima_are_counted() {
        let (items, consumers) = small_corpora();
        let serving = ServingIndex::for_corpora(&items, &consumers, 0.3);
        assert_eq!(serving.maxima_exceeded(), 0);

        // Every build-corpus item is covered by construction: the maxima
        // are derived from exactly these vectors.
        for item in &items {
            assert!(!serving.query_exceeds_maxima(item));
            let _ = serving.candidates(item);
        }
        assert_eq!(serving.maxima_exceeded(), 0);

        // Term 0's maximum is 0.9 (item 0); equal weight is still covered,
        // anything strictly heavier is not.
        let at_limit = vec_of(&[(0, 0.9)]);
        let _ = serving.candidates(&at_limit);
        assert_eq!(serving.maxima_exceeded(), 0);

        let heavier = vec_of(&[(0, 0.95)]);
        assert!(serving.query_exceeds_maxima(&heavier));
        let _ = serving.candidates(&heavier);
        assert_eq!(serving.maxima_exceeded(), 1);

        // A term the build corpus never saw has maximum 0.
        let unseen_term = vec_of(&[(9, 0.01)]);
        let _ = serving.match_one(&unseen_term, 3);
        assert_eq!(serving.maxima_exceeded(), 2);

        // Covered queries keep not counting afterwards.
        let _ = serving.candidates(&items[1]);
        assert_eq!(serving.maxima_exceeded(), 2);
    }

    #[test]
    fn empty_batches_and_empty_queries_are_no_ops() {
        let (items, consumers) = small_corpora();
        let mut serving = ServingIndex::for_corpora(&items, &consumers, 0.3);
        assert_eq!(serving.append_batch(&[]), 3..3);
        assert_eq!(serving.len(), 3);
        assert!(serving.match_one(&SparseVector::default(), 5).is_empty());
        assert!(!serving.is_empty());
        assert!(serving.num_postings() > 0);
        assert_eq!(serving.disk_reads(), 0);
    }
}
