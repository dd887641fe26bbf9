//! The serving side of the pipeline: a standing index plus an online
//! assignment, fed one arrival at a time.
//!
//! [`MatchingPipeline::serve`][crate::MatchingPipeline::serve] ends the
//! batch world at the point where the similarity index has been built and
//! the consumer capacities assigned — and instead of running a batch
//! matching algorithm, hands back a [`ServingPipeline`]:
//!
//! * [`ServingPipeline::match_text`] answers "which consumers does this
//!   new item match at σ?" with a top-k point query against the standing
//!   [`ServingIndex`] — no corpus scan, no MapReduce job,
//! * [`ServingPipeline::assign`] additionally commits the arrival into an
//!   online b-matching ([`IncrementalMatcher`]) that keeps every consumer
//!   within its capacity, preempting strictly lighter assignments when a
//!   better match arrives,
//! * [`ServingPipeline::add_consumers`] absorbs new consumers: their
//!   prefix postings join the in-RAM index and they join the assignment
//!   with their own capacity,
//! * [`ServingPipeline::rebuild`] re-cuts the index once some query fell
//!   outside its exactness contract; the index keeps that contract, the
//!   drift count and the drift record itself ([`ServingIndex::rebuild`]).
//!
//! The handle vectorizes arriving documents with the [`Vectorizer`] of
//! the [`AlignedCorpora`] the batch join is fed from — same tokenizer,
//! same joint vocabulary — so a point query for one of the original items
//! returns exactly the batch join's candidate edges for it
//! (`point_queries_reproduce_the_batch_candidate_edges` locks this).  See
//! `docs/serving.md` for the dataflow.

use std::ops::Range;

use smr_datagen::SocialDataset;
use smr_matching::IncrementalMatcher;
use smr_simjoin::{AlignedCorpora, ScoredMatch, ServingIndex};
use smr_text::{Document, SparseVector, TokenizerConfig, Vectorizer};

/// The outcome of one arrival committed via [`ServingPipeline::assign`].
#[derive(Debug, Clone)]
pub struct ItemAssignment {
    /// Dense index the arrival was registered under in the matcher.
    pub item: usize,
    /// The point-query result: every candidate at σ, heaviest first,
    /// truncated to the query's `k`.
    pub candidates: Vec<ScoredMatch>,
    /// The consumers the item was assigned to (some may be preempted by
    /// later, strictly heavier arrivals).
    pub assigned: Vec<usize>,
}

/// A standing serving handle over a dataset: the similarity index kept
/// alive in RAM, the vectorizer of arrivals, and an online capacity-aware
/// assignment.  It keeps no build document and no item vector.
///
/// Created by [`crate::MatchingPipeline::serve`]; it holds no files.
#[derive(Debug)]
pub struct ServingPipeline {
    /// The standing index; it owns every indexed consumer vector, kept
    /// current as consumers arrive, and its exactness contract — what
    /// [`ServingPipeline::rebuild`] re-cuts.
    index: ServingIndex<'static>,
    matcher: IncrementalMatcher,
    /// The joint tokenizer, vocabulary and weigher of the build corpora.
    vectorizer: Vectorizer,
    consumer_ids: Vec<String>,
}

impl ServingPipeline {
    /// Builds the serving structures for `dataset` at threshold `sigma`,
    /// with consumer capacities scaled by `alpha` — the serving-mode
    /// counterpart of the batch pipeline's join + matching stages.
    pub(crate) fn build(
        dataset: SocialDataset,
        tokenizer: &TokenizerConfig,
        sigma: f64,
        alpha: f64,
    ) -> Self {
        let aligned = AlignedCorpora::build(&dataset.items, &dataset.consumers, tokenizer);
        let consumer_ids = dataset.consumers.iter().map(|d| d.id.clone()).collect();
        let (items, consumers, vectorizer) = aligned.into_parts();
        let index = ServingIndex::for_corpora(&items, consumers, sigma);

        let caps = dataset.capacities(alpha);
        let matcher = IncrementalMatcher::new(Vec::new(), caps.consumer_capacities().to_vec());
        ServingPipeline {
            index,
            matcher,
            vectorizer,
            consumer_ids,
        }
    }

    /// Vectorizes a document text exactly as the batch join would have:
    /// the pipeline's tokenizer, joint vocabulary, tf·idf weights, unit L2
    /// norm.  Terms outside the joint vocabulary are dropped (they cannot
    /// contribute to any indexed similarity).
    pub fn vectorize(&self, text: &str) -> SparseVector {
        self.vectorizer.vectorize(text)
    }

    /// Point query: the top-`k` consumers matching `text` at σ, heaviest
    /// first.
    pub fn match_text(&self, text: &str, k: usize) -> Vec<ScoredMatch> {
        self.match_vector(&self.vectorize(text), k)
    }

    /// Point query over a pre-vectorized arrival (must be in the joint
    /// term space, e.g. from [`ServingPipeline::vectorize`]).
    ///
    /// # Panics
    /// Panics if `query` carries a term at or beyond the joint vocabulary.
    pub fn match_vector(&self, query: &SparseVector, k: usize) -> Vec<ScoredMatch> {
        let vocab_size = self.vectorizer.vocabulary().len();
        if let Some(&(term, _)) = query.entries().last() {
            assert!(
                term.index() < vocab_size,
                "query term {} is outside the joint vocabulary of {vocab_size} terms",
                term.index()
            );
        }
        self.index.match_one(query, k)
    }

    /// One item arrives: runs the point query and commits the arrival
    /// into the online assignment under the item's own `capacity`.
    pub fn assign(&mut self, text: &str, capacity: u64, k: usize) -> ItemAssignment {
        let candidates = self.match_text(text, k);
        let item = self.matcher.add_item(capacity);
        let edges: Vec<(usize, f64)> = candidates.iter().map(|m| (m.consumer, m.score)).collect();
        let assigned = self.matcher.arrive(item, &edges);
        ItemAssignment {
            item,
            candidates,
            assigned,
        }
    }

    /// New consumers join the corpus: each is vectorized over the joint
    /// vocabulary, its prefix postings are appended to the standing index,
    /// and it enters the assignment with `capacity`.  Returns the dense
    /// consumer indices assigned.
    pub fn add_consumers(&mut self, documents: &[Document], capacity: u64) -> Range<usize> {
        let vectors: Vec<SparseVector> =
            documents.iter().map(|d| self.vectorize(&d.text)).collect();
        let range = self.index.append_batch(&vectors);
        for doc in documents {
            self.matcher.add_consumer(capacity);
            self.consumer_ids.push(doc.id.clone());
        }
        range
    }

    /// The similarity threshold served.
    pub fn sigma(&self) -> f64 {
        self.index.sigma()
    }

    /// Number of consumers currently indexed.
    pub fn num_consumers(&self) -> usize {
        self.index.len()
    }

    /// The external id of a consumer by dense index.
    pub fn consumer_id(&self, consumer: usize) -> &str {
        &self.consumer_ids[consumer]
    }

    /// Whether the standing index has served queries it can no longer
    /// answer exactly: some query — through this handle or straight
    /// through [`ServingPipeline::index`] — carried a term **heavier**
    /// than its maximum in the plan the index's prefixes were cut with,
    /// so its candidate set may have missed pairs.  The raw count is
    /// [`maxima_exceeded`][ServingIndex::maxima_exceeded] on the index.
    pub fn needs_rebuild(&self) -> bool {
        self.index.maxima_exceeded() > 0
    }

    /// Re-cuts the standing index once [`ServingPipeline::needs_rebuild`]
    /// fires, under its own plan widened by every query that fell outside
    /// it ([`ServingIndex::rebuild`]), consumers added since the build
    /// included.  Returns whether a re-cut ran.
    pub fn rebuild(&mut self) -> bool {
        self.index.rebuild()
    }

    /// The standing index (point queries, consumer vectors, drift
    /// counter).
    pub fn index(&self) -> &ServingIndex<'static> {
        &self.index
    }

    /// The online assignment (current edges, total weight, residuals).
    pub fn matcher(&self) -> &IncrementalMatcher {
        &self.matcher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchingPipeline;
    use smr_datagen::FlickrGenerator;
    use smr_simjoin::IndexPlan;

    fn small_dataset() -> SocialDataset {
        FlickrGenerator {
            num_photos: 40,
            num_users: 15,
            vocabulary: 60,
            seed: 9,
            ..FlickrGenerator::default()
        }
        .generate()
    }

    #[test]
    fn point_queries_reproduce_the_batch_candidate_edges() {
        let dataset = small_dataset();
        let sigma = 0.12;
        let batch = MatchingPipeline::new(dataset.clone())
            .sigma(sigma)
            .job(smr_mapreduce::JobConfig::named("serve-test").with_threads(2))
            .build_graph();
        let serving = MatchingPipeline::new(dataset.clone()).sigma(sigma).serve();

        let mut batch_edges: Vec<(usize, usize)> = batch
            .join
            .graph
            .edges()
            .iter()
            .map(|e| (e.item.index(), e.consumer.index()))
            .collect();
        batch_edges.sort_unstable();
        let mut served_edges = Vec::new();
        for (t, doc) in dataset.items.iter().enumerate() {
            for m in serving.match_text(&doc.text, usize::MAX) {
                served_edges.push((t, m.consumer));
            }
        }
        served_edges.sort_unstable();
        assert_eq!(served_edges, batch_edges);
    }

    #[test]
    fn assignment_respects_consumer_capacities() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let caps = dataset.capacities(1.0);
        for doc in &dataset.items {
            let outcome = serving.assign(&doc.text, 2, 8);
            assert!(outcome.assigned.len() <= 2);
            assert!(outcome.assigned.len() <= outcome.candidates.len());
        }
        let mut consumer_degree = vec![0u64; serving.num_consumers()];
        for (_, c, w) in serving.matcher().assignment() {
            consumer_degree[c] += 1;
            assert!(w >= serving.sigma());
        }
        for (c, d) in consumer_degree.iter().enumerate() {
            assert!(
                *d <= caps.consumer_capacities()[c],
                "consumer {c} over capacity"
            );
        }
    }

    #[test]
    fn drifted_arrivals_flip_needs_rebuild() {
        let dataset = small_dataset();
        let serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        assert!(!serving.needs_rebuild());

        // The original items are the corpus the maxima were derived from:
        // serving them never trips the detector.
        for doc in &dataset.items {
            let _ = serving.match_text(&doc.text, 4);
        }
        assert!(!serving.needs_rebuild());

        // An arrival carrying more mass on a term than any build-time item
        // did (unit vectors bound every build maximum by 1.0) falls outside
        // the exactness contract.
        let item_vec = serving.vectorize(&dataset.items[0].text);
        let (term, _) = item_vec.entries()[0];
        let heavy = SparseVector::from_entries([(term, 2.0)]);
        assert!(serving.index().query_exceeds_maxima(&heavy));
        let _ = serving.match_vector(&heavy, 4);
        assert!(serving.needs_rebuild());
        assert_eq!(serving.index().maxima_exceeded(), 1);
    }

    #[test]
    fn rebuild_restores_exactness_after_drift() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        assert!(!serving.rebuild(), "no drift ⇒ no rebuild");

        // Drive the drift counter well past the rebuild threshold: unit
        // vectors bound every build-time maximum by 1.0, so weight 2.0 on
        // an indexed term is strictly heavier than anything declared.
        let item_vec = serving.vectorize(&dataset.items[0].text);
        let (term, _) = item_vec.entries()[0];
        let heavy = SparseVector::from_entries([(term, 2.0)]);
        for _ in 0..3 {
            let _ = serving.match_vector(&heavy, 4);
        }
        assert_eq!(serving.index().maxima_exceeded(), 3);
        assert!(serving.needs_rebuild());

        assert!(serving.rebuild());
        assert!(!serving.needs_rebuild(), "the drift counter must reset");
        assert_eq!(serving.num_consumers(), dataset.consumers.len());

        // The very query that tripped the detector is now inside the
        // exactness contract — served without re-flagging drift, and
        // returning exactly the brute-force thresholded candidates.
        assert!(!serving.index().query_exceeds_maxima(&heavy));
        let matches = serving.match_vector(&heavy, usize::MAX);
        assert!(!serving.needs_rebuild());
        let mut got: Vec<usize> = matches.iter().map(|m| m.consumer).collect();
        got.sort_unstable();
        let expected: Vec<usize> = dataset
            .consumers
            .iter()
            .enumerate()
            .filter(|(_, d)| heavy.dot(&serving.vectorize(&d.text)) >= serving.sigma())
            .map(|(c, _)| c)
            .collect();
        assert_eq!(got, expected);

        // Original items keep their batch candidates after the rebuild
        // (widening maxima only loosens prefixes, never drops pairs).
        let batch = MatchingPipeline::new(dataset.clone())
            .sigma(0.12)
            .job(smr_mapreduce::JobConfig::named("rebuild-test").with_threads(2))
            .build_graph();
        let mut batch_edges: Vec<(usize, usize)> = batch
            .join
            .graph
            .edges()
            .iter()
            .map(|e| (e.item.index(), e.consumer.index()))
            .collect();
        batch_edges.sort_unstable();
        let mut served_edges = Vec::new();
        for (t, doc) in dataset.items.iter().enumerate() {
            for m in serving.match_text(&doc.text, usize::MAX) {
                served_edges.push((t, m.consumer));
            }
        }
        served_edges.sort_unstable();
        assert_eq!(served_edges, batch_edges);
    }

    #[test]
    fn rebuild_covers_queries_served_straight_through_the_index() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let item_vec = serving.vectorize(&dataset.items[0].text);
        let heavy = SparseVector::from_entries([(item_vec.entries()[0].0, 2.0)]);
        let _ = serving.index().candidates(&heavy);
        assert!(serving.needs_rebuild());
        assert!(serving.rebuild());
        assert!(
            !serving.index().query_exceeds_maxima(&heavy),
            "rebuild reported success but the query that tripped it is still outside the contract"
        );
        let mut got: Vec<usize> = serving
            .match_vector(&heavy, usize::MAX)
            .iter()
            .map(|m| m.consumer)
            .collect();
        got.sort_unstable();
        let expected: Vec<usize> = (0..serving.num_consumers())
            .filter(|&c| heavy.dot(&serving.index().consumers()[c]) >= serving.sigma())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn reindexing_with_nothing_observed_reproduces_the_build() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let queries: Vec<SparseVector> = dataset
            .items
            .iter()
            .map(|d| serving.vectorize(&d.text))
            .collect();
        let candidates = |serving: &ServingPipeline| -> Vec<Vec<ScoredMatch>> {
            queries
                .iter()
                .map(|q| serving.index().candidates(q))
                .collect()
        };
        let built = candidates(&serving);
        let postings = serving.index().num_postings();

        // Drift-free, `rebuild` declines; re-cut under the build plan
        // (the vectorized items are the build's item vectors, bit for bit)
        // widened by an empty record, the index is the one `for_corpora`
        // built.
        assert!(!serving.rebuild());
        let mut plan = IndexPlan::derive(&queries, serving.index.consumers());
        plan.widen(std::iter::empty());
        serving.index.reindex(plan);
        assert_eq!(serving.index().num_postings(), postings);
        assert_eq!(candidates(&serving), built);
        assert!(!serving.needs_rebuild());
    }

    #[test]
    fn rebuild_reindexes_consumers_added_after_the_build() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let probe_item = dataset.items[0].clone();
        let late = serving.num_consumers();
        serving.add_consumers(&[Document::new("late-user", probe_item.text.clone())], 3);

        // Trip the detector, rebuild, and check the late consumer survived
        // the from-scratch re-index.
        let item_vec = serving.vectorize(&probe_item.text);
        let (term, _) = item_vec.entries()[0];
        let _ = serving.match_vector(&SparseVector::from_entries([(term, 2.0)]), 1);
        assert!(serving.rebuild());
        assert_eq!(serving.num_consumers(), late + 1);
        let matches = serving.match_text(&probe_item.text, usize::MAX);
        assert!(
            matches.iter().any(|m| m.consumer == late),
            "identical tags give similarity 1.0 ≥ σ after the rebuild"
        );
    }

    #[test]
    fn late_consumers_join_the_index_and_the_assignment() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let before = serving.num_consumers();
        // A newcomer sharing an existing item's exact tags must match it.
        let probe_item = dataset.items[0].clone();
        let range =
            serving.add_consumers(&[Document::new("late-user", probe_item.text.clone())], 3);
        assert_eq!(range, before..before + 1);
        assert_eq!(serving.num_consumers(), before + 1);
        assert_eq!(serving.consumer_id(before), "late-user");
        let matches = serving.match_text(&probe_item.text, usize::MAX);
        assert!(
            matches.iter().any(|m| m.consumer == before),
            "identical tags give similarity 1.0 ≥ σ"
        );
        let outcome = serving.assign(&probe_item.text, 1, 4);
        assert_eq!(outcome.assigned.len(), 1);
    }

    #[test]
    #[should_panic(expected = "query term 4294967295 is outside the joint vocabulary of")]
    fn queries_outside_the_joint_vocabulary_are_rejected() {
        let serving = MatchingPipeline::new(small_dataset()).sigma(0.12).serve();
        let query = SparseVector::from_entries([(smr_text::TermId(u32::MAX), 0.5)]);
        let _ = serving.match_vector(&query, 4);
    }

    #[test]
    fn concurrent_point_queries_match_the_sequential_answers() {
        let dataset = small_dataset();
        let reference = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        let mut queries: Vec<SparseVector> = dataset
            .items
            .iter()
            .map(|d| serving.vectorize(&d.text))
            .collect();
        // Drifted queries: each carries more weight on a term than any
        // build-time item (unit vectors bound every maximum by 1.0).
        let drifted: Vec<SparseVector> = queries
            .iter()
            .take(5)
            .map(|q| SparseVector::from_entries([(q.entries()[0].0, 2.0)]))
            .collect();
        queries.extend(drifted.iter().cloned());
        let sequential: Vec<Vec<ScoredMatch>> = queries
            .iter()
            .map(|q| reference.match_vector(q, usize::MAX))
            .collect();
        assert_eq!(reference.index().maxima_exceeded(), drifted.len() as u64);

        let threads = 4;
        let answers: Vec<Vec<(usize, Vec<ScoredMatch>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (serving, queries) = (&serving, &queries);
                    scope.spawn(move || {
                        (t..queries.len())
                            .step_by(threads)
                            .map(|i| (i, serving.match_vector(&queries[i], usize::MAX)))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut answered = 0;
        for (i, got) in answers.into_iter().flatten() {
            assert_eq!(got, sequential[i], "query {i}");
            answered += 1;
        }
        assert_eq!(answered, queries.len());
        assert_eq!(
            serving.index().maxima_exceeded(),
            drifted.len() as u64,
            "each drifted query counts exactly once"
        );
        assert!(serving.needs_rebuild());
    }
}
