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
//!   prefix postings are appended to the on-disk index partitions and
//!   they join the assignment with their own capacity.
//!
//! The handle vectorizes arriving documents through the same
//! [`AlignedCorpora`] the batch join is fed from — same tokenizer, same
//! joint vocabulary — so a point query for one of the original items
//! returns exactly the batch join's candidate edges for it
//! (`point_queries_reproduce_the_batch_candidate_edges` locks this).  See
//! `docs/serving.md` for the dataflow.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use smr_datagen::SocialDataset;
use smr_matching::IncrementalMatcher;
use smr_simjoin::{AlignedCorpora, IndexPlan, ScoredMatch, ServingIndex};
use smr_storage::DatasetStore;
use smr_text::{Document, SparseVector, TokenizerConfig};

static SERVE_SEQ: AtomicU64 = AtomicU64::new(0);

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
/// alive on disk, the aligned corpora to vectorize arrivals with, and an
/// online capacity-aware assignment.
///
/// Created by [`crate::MatchingPipeline::serve`]; the on-disk index lives
/// in a private directory (under the pipeline's spill base) removed when
/// the handle is dropped.
#[derive(Debug)]
pub struct ServingPipeline {
    index: ServingIndex,
    matcher: IncrementalMatcher,
    /// The build corpora in one term space: the item side of every
    /// [`IndexPlan`], and the vectorizer of every arrival.
    aligned: AlignedCorpora,
    consumer_ids: Vec<String>,
    sigma: f64,
    store: DatasetStore,
    store_root: PathBuf,
    /// Every indexed consumer, kept current as consumers arrive — what
    /// [`ServingPipeline::rebuild`] rebuilds from.
    consumer_vectors: Vec<SparseVector>,
    /// Elementwise maxima of every query vector served so far.  A rebuild
    /// folds these into the item-side maxima, so the fresh index's
    /// exactness contract covers the drifted workload, not just the
    /// original corpus.  Behind a mutex because queries take `&self`.
    observed_query_max: Mutex<Vec<f64>>,
    /// Rebuild epoch, used to give each rebuilt index a fresh dataset
    /// prefix in the store.
    epoch: u64,
}

impl ServingPipeline {
    /// Builds the serving structures for `dataset` at threshold `sigma`,
    /// with consumer capacities scaled by `alpha` — the serving-mode
    /// counterpart of the batch pipeline's join + matching stages.  The
    /// index directory is created under `spill_dir` (the system temp
    /// directory when `None`), like every other piece of side data.
    pub(crate) fn build(
        dataset: SocialDataset,
        tokenizer: &TokenizerConfig,
        sigma: f64,
        alpha: f64,
        spill_dir: Option<PathBuf>,
    ) -> Self {
        let aligned = AlignedCorpora::build(&dataset.items, &dataset.consumers, tokenizer);
        let consumer_vectors = aligned.consumer_vectors().to_vec();

        let store_root = spill_dir.unwrap_or_else(std::env::temp_dir).join(format!(
            "smr-serve-{}-{}",
            std::process::id(),
            SERVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = DatasetStore::open(&store_root)
            .unwrap_or_else(|e| panic!("failed to open serving store at {store_root:?}: {e}"));
        let index = ServingIndex::for_corpora(
            &store,
            "serve",
            aligned.item_vectors(),
            &consumer_vectors,
            sigma,
        );

        let caps = dataset.capacities(alpha);
        let matcher = IncrementalMatcher::new(Vec::new(), caps.consumer_capacities().to_vec());
        ServingPipeline {
            index,
            matcher,
            consumer_ids: aligned.consumer_labels(),
            aligned,
            sigma,
            store,
            store_root,
            consumer_vectors,
            observed_query_max: Mutex::new(Vec::new()),
            epoch: 0,
        }
    }

    /// Vectorizes a document text exactly as the batch join would have:
    /// the pipeline's tokenizer, joint vocabulary, tf·idf weights, unit L2
    /// norm.  Terms outside the joint vocabulary are dropped (they cannot
    /// contribute to any indexed similarity).
    pub fn vectorize(&self, text: &str) -> SparseVector {
        self.aligned.vectorize(text)
    }

    /// Point query: the top-`k` consumers matching `text` at σ, heaviest
    /// first.
    pub fn match_text(&self, text: &str, k: usize) -> Vec<ScoredMatch> {
        self.match_vector(&self.vectorize(text), k)
    }

    /// Point query over a pre-vectorized arrival (must be in the joint
    /// term space, e.g. from [`ServingPipeline::vectorize`]).
    pub fn match_vector(&self, query: &SparseVector, k: usize) -> Vec<ScoredMatch> {
        self.observe_query(query);
        self.index.match_one(query, k)
    }

    /// Records a served query's per-term weights into the observed maxima,
    /// so a later [`ServingPipeline::rebuild`] can cover the workload that
    /// actually arrived.
    fn observe_query(&self, query: &SparseVector) {
        let mut observed = self
            .observed_query_max
            .lock()
            .expect("observed-maxima lock poisoned");
        for &(term, weight) in query.entries() {
            let t = term.index();
            if observed.len() <= t {
                observed.resize(t + 1, 0.0);
            }
            if weight > observed[t] {
                observed[t] = weight;
            }
        }
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
        self.consumer_vectors.extend(vectors);
        for doc in documents {
            self.matcher.add_consumer(capacity);
            self.consumer_ids.push(doc.id.clone());
        }
        range
    }

    /// The similarity threshold served.
    pub fn sigma(&self) -> f64 {
        self.sigma
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
    /// answer exactly: some arrival carried a term **heavier** than the
    /// per-term maximum the index's prefixes were pruned against, so its
    /// candidate set may have missed pairs.  Once this fires the workload
    /// has drifted past the build assumptions and the index should be
    /// rebuilt (a fresh [`crate::MatchingPipeline::serve`] over the grown
    /// corpus); the raw count is
    /// [`maxima_exceeded`][ServingIndex::maxima_exceeded] on
    /// [`ServingPipeline::index`].
    pub fn needs_rebuild(&self) -> bool {
        self.index.maxima_exceeded() > 0
    }

    /// Rebuilds the standing index from the current corpora when
    /// [`ServingPipeline::needs_rebuild`] fires, and swaps it in.  Returns
    /// whether a rebuild ran (`false` = the index is still exact for
    /// everything it has served; nothing happens).
    ///
    /// The fresh index covers the *drifted* workload, not just the build
    /// corpus: its per-term query maxima are the elementwise max of the
    /// item-side maxima and every query weight observed so far, so the
    /// very arrivals that tripped the detector are inside the new
    /// exactness contract.  Consumers added via
    /// [`ServingPipeline::add_consumers`] are re-indexed from scratch
    /// (their prefixes are re-cut against the widened maxima), the drift
    /// counter resets to zero, and the old index's datasets are reclaimed
    /// from the store.
    pub fn rebuild(&mut self) -> bool {
        if !self.needs_rebuild() {
            return false;
        }
        self.reindex();
        true
    }

    /// Replaces the standing index with one built from the current
    /// corpora under the batch plan widened by the observed query maxima.
    fn reindex(&mut self) {
        let observed = self
            .observed_query_max
            .lock()
            .expect("observed-maxima lock poisoned")
            .clone();
        let plan = IndexPlan::derive(self.aligned.item_vectors(), &self.consumer_vectors)
            .widened(&observed);
        let old_prefix = format!("{}/", self.rebuild_prefix());
        self.epoch += 1;
        self.index = ServingIndex::build(
            &self.store,
            &self.rebuild_prefix(),
            &self.consumer_vectors,
            plan,
            self.sigma,
        );
        for path in self.store.paths() {
            if path.starts_with(&old_prefix) {
                self.store.remove(&path);
            }
        }
    }

    /// The store prefix of the current epoch's index datasets ("serve"
    /// for the original build, "serve-N" for the N-th rebuild).
    fn rebuild_prefix(&self) -> String {
        if self.epoch == 0 {
            "serve".to_string()
        } else {
            format!("serve-{}", self.epoch)
        }
    }

    /// The standing index (point queries, append stats, disk-read
    /// counters).
    pub fn index(&self) -> &ServingIndex {
        &self.index
    }

    /// The online assignment (current edges, total weight, residuals).
    pub fn matcher(&self) -> &IncrementalMatcher {
        &self.matcher
    }
}

impl Drop for ServingPipeline {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchingPipeline;
    use smr_datagen::FlickrGenerator;

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
    fn reindexing_with_nothing_observed_reproduces_the_build() {
        let dataset = small_dataset();
        let mut serving = MatchingPipeline::new(dataset.clone()).sigma(0.12).serve();
        // Querying the index directly leaves the observed maxima empty.
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
        let partitions = serving.index().num_partitions();

        // Drift-free, `rebuild` declines; forced through the widen step
        // with empty observations, the plan — and so the index — is the
        // one `for_corpora` built.
        assert!(!serving.rebuild());
        serving.reindex();
        assert_eq!(serving.index().num_postings(), postings);
        assert_eq!(serving.index().num_partitions(), partitions);
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
}
