//! A standing serving index: point queries and micro-updates against the
//! similarity-join index, kept in RAM.
//!
//! [`ServingIndex`] is the pruned similarity-join index: the
//! [`InvertedIndex`], the [`SuffixTable`] of each consumer's cut (where
//! its unindexed suffix starts and what that suffix could still add), and
//! the consumer vectors.  The batch join
//! builds one on the driver over the consumer slice it was handed,
//! probes it once with every item in its one MapReduce job, and drops
//! it.  A standing index owns its vectors, keeps it alive and answers two
//! requests the batch path cannot:
//!
//! * [`ServingIndex::match_one`] — "a new item just arrived: who are its
//!   candidate consumers right now?"  One query runs the batch probe
//!   mapper's own loop, [`ServingIndex::probe`]: partial products over
//!   shared indexed terms, the prune on each candidate's score plus its
//!   consumer's remainder bound at `σ − slack`, and
//!   the finish ([`crate::join::Probe::finish`]) that continues the
//!   partial score over the tail of the consumer's vector past its
//!   indexed prefix — the exact dot product, bit for bit.  No corpus
//!   scan: the query only touches the postings of its own terms.
//! * [`ServingIndex::append_batch`] — "these consumers just joined the
//!   corpus."  Each new vector is cut once: its prefix postings join the
//!   index after the existing postings of their terms, its prefix length
//!   and remainder bound join the table, and the vectors join the corpus
//!   (which the index then owns).
//!
//! **Exactness.**  A query runs the batch probe mapper's probe over the
//! same postings, so for any query whose per-term weights stay within the
//! index's [`IndexPlan`], `match_one` returns *exactly* the batch join's
//! candidate set for it (proptest-locked in
//! `tests/serving_equivalence.rs`).  A heavier query may miss pairs.  The
//! index owns this contract: [`ServingIndex::candidates`] counts every
//! query outside the plan and folds it into one drift record, and
//! [`ServingIndex::rebuild`] re-cuts under the plan widened by it.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use smr_text::{SparseVector, TermId};

use crate::accum::ScoreAccumulator;
use crate::index::{IndexPlan, InvertedIndex, SuffixTable};
use crate::join::{probe_postings, Probe};

/// Absolute slack subtracted from σ before a candidate is pruned on its
/// partial score.
///
/// A partial score adds the products of the shared *indexed* terms in
/// ascending term order from `0.0`.  Term ids ascend in the filter's order
/// (a `Corpus` numbers its vocabulary rarest first), so every prefix id
/// lies below every suffix id and those are the first additions
/// `SparseVector::dot` performs; [`Probe::finish`] continues them over the
/// consumer's suffix.  The remainder bounds the suffix's share only in
/// exact arithmetic: rounded, `score + tail` can exceed the rounded
/// `score + remainder` the prune tests by a few ulps.  The slack keeps the
/// prune strictly conservative (a pair at exactly σ always survives to
/// verification) while remaining far below any meaningful similarity
/// difference of unit-normalized vectors.
const PRUNE_SLACK: f64 = 1e-9;

/// One serving-time candidate: a consumer whose exact similarity with the
/// query reached σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredMatch {
    /// Dense index of the consumer in the serving corpus.
    pub consumer: usize,
    /// Exact dot product with the query (always ≥ σ).
    pub score: f64,
}

/// A standing, in-RAM similarity index over a consumer corpus, answering
/// point queries and absorbing micro-batches of new consumers.
#[derive(Debug)]
pub struct ServingIndex<'a> {
    index: InvertedIndex,
    /// Every consumer's cut, by dense index: prefix length and remainder
    /// bound.
    suffixes: SuffixTable,
    /// Every indexed consumer, by dense index: borrowed from the batch
    /// join's caller, owned once appended to.
    consumers: Cow<'a, [SparseVector]>,
    sigma: f64,
    /// The query-side maxima the prefixes were cut with.
    plan: IndexPlan,
    /// Queries seen so far outside `plan` ([`ServingIndex::maxima_exceeded`]).
    maxima_exceeded: AtomicU64,
    /// The elementwise maxima of those queries' weights, which
    /// [`ServingIndex::rebuild`] widens `plan` by; only such a query locks it.
    drift: Mutex<IndexPlan>,
}

impl<'a> ServingIndex<'a> {
    /// Builds a serving index over `consumers` (borrowed or owned) at
    /// threshold `sigma`.  `plan` fixes
    /// the per-term upper bounds on the weight any future query may carry;
    /// the prefix of each consumer is pruned against these, so they are
    /// the exactness contract of the index.
    ///
    /// Every consumer is cut once ([`SuffixTable::extend`]); its prefix
    /// postings enter the index in doc order within a term.  The batch
    /// join probes the index [`ServingIndex::for_corpora`] builds.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn build(
        consumers: impl Into<Cow<'a, [SparseVector]>>,
        plan: IndexPlan,
        sigma: f64,
    ) -> Self {
        assert!(sigma > 0.0, "threshold must be positive");
        let consumers = consumers.into();
        let mut suffixes = SuffixTable::default();
        let index = InvertedIndex::from_records(suffixes.extend(&plan, &consumers, sigma));
        ServingIndex {
            index,
            suffixes,
            consumers,
            sigma,
            plan,
            maxima_exceeded: AtomicU64::new(0),
            drift: Mutex::default(),
        }
    }

    /// Builds a serving index sized for a known query corpus: the plan is
    /// [`IndexPlan::derive`]d from `items` and `consumers` exactly as the
    /// batch join derives it, so `match_one` with any of the `items`
    /// reproduces the batch join's candidates for that item.
    pub fn for_corpora(
        items: &[SparseVector],
        consumers: impl Into<Cow<'a, [SparseVector]>>,
        sigma: f64,
    ) -> Self {
        let consumers = consumers.into();
        let plan = IndexPlan::derive(items, &consumers);
        Self::build(consumers, plan, sigma)
    }

    /// Re-cuts every consumer's prefix under `plan` and resets the drift
    /// count and record: the index a fresh [`ServingIndex::build`] over
    /// the current consumers would give, without copying them.
    pub fn reindex(&mut self, plan: IndexPlan) {
        let consumers = std::mem::take(&mut self.consumers);
        *self = ServingIndex::build(consumers, plan, self.sigma);
    }

    /// Once some query fell outside the plan, re-cuts the index
    /// ([`ServingIndex::reindex`]) under the plan widened by the drift
    /// record, so every query served so far is inside the new exactness
    /// contract.  Returns whether it ran (`false` = the index is still
    /// exact for everything it served).
    pub fn rebuild(&mut self) -> bool {
        if self.maxima_exceeded() == 0 {
            return false;
        }
        let mut plan = self.plan.clone();
        let drift = self.drift.get_mut().expect("drift record lock poisoned");
        plan.widen(drift.max_weights.iter().copied().enumerate());
        self.reindex(plan);
        true
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
    /// its maximum in the plan the prefixes were cut with.  Such queries
    /// fall outside the exactness contract — a heavier query may miss
    /// pairs.  A non-zero count is the signal that the workload has
    /// drifted past the plan and [`ServingIndex::rebuild`] should run
    /// (surfaced as `needs_rebuild` on the serving pipeline); it resets to
    /// 0 with the re-cut.
    pub fn maxima_exceeded(&self) -> u64 {
        self.maxima_exceeded.load(Ordering::Relaxed)
    }

    /// Whether `query` carries some term whose magnitude exceeds its
    /// maximum in the plan (a missing vocabulary entry counts as maximum
    /// 0): the per-query predicate behind
    /// [`ServingIndex::maxima_exceeded`].
    pub fn query_exceeds_maxima(&self, query: &SparseVector) -> bool {
        query
            .entries()
            .iter()
            .any(|&(term, weight)| weight.abs() > self.plan.max_weight(term))
    }

    /// Answers one point query: the top-`k` consumers whose exact dot
    /// product with `query` reaches σ, heaviest first (ties broken toward
    /// the lower consumer index, the batch join's candidate order).
    ///
    /// The query accumulates partial products per candidate over the
    /// postings of its terms, prunes candidates whose score plus
    /// suffix-remainder bound cannot reach σ, and finishes the survivors
    /// exactly ([`crate::join::Probe::finish`]).
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
    /// unranked and untruncated.  A query outside the plan is counted
    /// ([`ServingIndex::maxima_exceeded`]) and its weights join the drift
    /// record [`ServingIndex::rebuild`] widens the plan by.
    pub fn candidates(&self, query: &SparseVector) -> Vec<ScoredMatch> {
        let entries = query.entries();
        if entries.is_empty() {
            return Vec::new();
        }
        if self.query_exceeds_maxima(query) {
            self.maxima_exceeded.fetch_add(1, Ordering::Relaxed);
            let mut drift = self.drift.lock().expect("drift record lock poisoned");
            drift.widen(entries.iter().map(|&(term, weight)| (term.index(), weight)));
        }
        let mut matches = Vec::new();
        self.probe(query, probe_postings, |consumer, score| {
            matches.push(ScoredMatch { consumer, score })
        });
        matches
    }

    /// The one probe loop of the candidate stage, shared by the batch
    /// join's probe mapper and [`ServingIndex::candidates`]: hands the
    /// index, the query's entries (sorted by term id) and a score table
    /// sized by [`InvertedIndex::num_docs`] to `visit`, which folds partial
    /// products into the table (the exact visitor is [`probe_postings`]).
    /// Then it prunes every candidate whose `score + bound < σ − slack`,
    /// `bound` being its consumer's [`SuffixTable::bound`] — the one prune
    /// test of the candidate stage — finishes every survivor by
    /// [`Probe::finish`] and hands `(consumer, similarity)` to `emit` for
    /// each whose similarity reaches σ, in consumer order.
    ///
    /// Returns the probe, with how many survivors took a product beyond
    /// their partial score.  All of a query's products accumulate in this
    /// one call, in ascending term order, so the floating-point sums are
    /// scheduling-independent, every path gets the same bits and the prune
    /// runs on *complete* scores.
    pub fn probe(
        &self,
        query: &SparseVector,
        visit: impl FnOnce(&InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator),
        mut emit: impl FnMut(usize, f64),
    ) -> (Probe, u64) {
        let (mut survivors, sampled) = if self.index.is_empty() || query.is_empty() {
            (Vec::new(), false)
        } else {
            let mut scores = ScoreAccumulator::for_docs(self.index.num_docs());
            visit(&self.index, query.entries(), &mut scores);
            scores.drain_sorted()
        };
        let generated = survivors.len();
        survivors
            .retain(|&(doc, score)| score + self.suffixes.bound(doc) >= self.sigma - PRUNE_SLACK);
        let probe = Probe {
            pruned: (generated - survivors.len()) as u64,
            survivors,
            sampled,
        };
        let dots = probe.finish(query, &self.consumers, &self.suffixes, |consumer, score| {
            if score >= self.sigma {
                emit(consumer, score);
            }
        });
        (probe, dots)
    }

    /// Absorbs a micro-batch of new consumers, returning the dense indices
    /// they were assigned.  Each vector is cut once: its prefix postings
    /// join the index after the existing postings of their terms, its
    /// prefix length and remainder bound join the suffix table, and the
    /// vectors join the corpus, copied into an owned one first if it was
    /// borrowed.
    pub fn append_batch(&mut self, batch: &[SparseVector]) -> Range<usize> {
        let assigned = self.len()..self.len() + batch.len();
        if batch.is_empty() {
            return assigned;
        }
        let postings = self.suffixes.extend(&self.plan, batch, self.sigma);
        self.index.append(postings);
        self.consumers.to_mut().extend_from_slice(batch);
        assigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Magnitudes compare: −0.95 is heavier too, −0.9 is not.
        assert!(serving.query_exceeds_maxima(&vec_of(&[(0, -0.95)])));
        assert!(!serving.query_exceeds_maxima(&vec_of(&[(0, -0.9)])));
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
    fn a_rebuild_with_nothing_recorded_reproduces_the_build() {
        let (items, consumers) = small_corpora();
        let mut serving = ServingIndex::for_corpora(&items, &consumers, 0.3);
        let built: Vec<_> = items.iter().map(|x| serving.candidates(x)).collect();
        let postings = serving.num_postings();
        assert!(!serving.rebuild(), "no drift ⇒ no re-cut");
        // Forced through the widen step with an empty drift record.
        *serving.maxima_exceeded.get_mut() = 1;
        assert!(serving.rebuild());
        let rebuilt: Vec<_> = items.iter().map(|x| serving.candidates(x)).collect();
        let after = (serving.num_postings(), rebuilt, serving.maxima_exceeded());
        assert_eq!(after, (postings, built, 0));
    }

    /// A plan with every query maximum 1.
    fn flat_plan(vocab: u32) -> IndexPlan {
        IndexPlan {
            max_weights: vec![1.0; vocab as usize],
        }
    }

    /// Finishes one survivor `doc` of `x` whose partial score is the
    /// probe's (its products over `doc`'s indexed prefix), asserting the
    /// bits of `x.dot(y)`; returns whether it took a tail product.
    fn finish_one(serving: &ServingIndex<'_>, doc: usize, x: &SparseVector) -> bool {
        let consumers = serving.consumers();
        let plen = serving.suffixes.prefix_len(doc);
        let score = consumers[doc].entries()[..plen]
            .iter()
            .filter_map(|&(t, w)| {
                x.entries()
                    .iter()
                    .find(|(u, _)| *u == t)
                    .map(|(_, v)| v * w)
            })
            .fold(0.0, |sum, product| sum + product);
        let probe = Probe {
            survivors: vec![(doc, score)],
            pruned: 0,
            sampled: false,
        };
        let mut got = None;
        let tails = probe.finish(x, consumers, &serving.suffixes, |_, s| got = Some(s));
        let dot = x.dot(&consumers[doc]);
        assert_eq!(
            got.map(f64::to_bits),
            Some(dot.to_bits()),
            "doc {doc}: {got:?} vs {dot}"
        );
        tails == 1
    }

    #[test]
    fn the_tail_merge_is_the_dot_product_for_every_shape_of_suffix() {
        // Doc 0: prefix {t1}, suffix {t3, t5}.  Doc 1: all suffix (even
        // the whole vector cannot reach σ).  Doc 2: empty suffix.
        let consumers = vec![
            vec_of(&[(1, 0.9), (3, 0.2), (5, 0.1)]),
            vec_of(&[(2, 0.1), (4, 0.2)]),
            vec_of(&[(0, 0.7), (6, 0.6)]),
        ];
        let serving = ServingIndex::build(&consumers, flat_plan(8), 0.5);
        assert_eq!(
            (0..3)
                .map(|d| serving.suffixes.prefix_len(d))
                .collect::<Vec<_>>(),
            [1, 0, 2]
        );
        let cases = [
            // The item has no entry at or after the first suffix id.
            (0, vec![(0, 0.4), (1, 0.3), (2, 0.5)], false),
            // Entries past the first suffix id, but none shared.
            (0, vec![(1, 0.3), (4, 0.5), (7, 0.2)], false),
            // The tail meets at the first suffix term, then again later.
            (0, vec![(1, 0.3), (3, 0.7), (5, 0.1)], true),
            (0, vec![(0, 0.2), (3, 0.7)], true),
            // Prefix length 0: the score is `0.0`, the whole vector the tail.
            (1, vec![(2, 0.6), (4, 0.5)], true),
            (1, vec![(0, 1.0)], false),
            // An empty suffix: the partial score is the similarity.
            (2, vec![(0, 0.3), (6, 0.9), (7, 0.1)], false),
        ];
        for (doc, x, tail) in cases {
            assert_eq!(
                finish_one(&serving, doc, &vec_of(&x)),
                tail,
                "doc {doc}, item {x:?}"
            );
        }
        // Through the real probe, the all-suffix doc is never a candidate.
        let x = vec_of(&[(0, 0.8), (1, 0.7), (2, 0.5), (4, 0.5), (6, 0.2)]);
        let (probe, dots) = serving.probe(&x, probe_postings, |_, _| {});
        let docs: Vec<usize> = probe.survivors.iter().map(|&(doc, _)| doc).collect();
        assert_eq!((docs, dots), (vec![0, 2], 0));
    }

    #[test]
    fn a_sampled_probe_dots_every_survivor() {
        let consumers = vec![vec_of(&[(0, 0.9)])];
        let serving = ServingIndex::build(&consumers, flat_plan(1), 0.5);
        let x = vec_of(&[(0, 0.8)]);
        let mut probe = Probe {
            // A rescaled estimate, not x · y.
            survivors: vec![(0, 0.25)],
            pruned: 0,
            sampled: true,
        };
        let mut got = Vec::new();
        let mut finish =
            |probe: &Probe| probe.finish(&x, &consumers, &serving.suffixes, |_, s| got.push(s));
        assert_eq!(finish(&probe), 1);
        probe.sampled = false;
        assert_eq!(finish(&probe), 0);
        assert_eq!(got, [x.dot(&consumers[0]), 0.25]);
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
