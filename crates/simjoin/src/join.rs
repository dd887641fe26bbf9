//! The two-round MapReduce similarity join (adaptation of Baraglia et al.
//! to the bipartite item × consumer case), streaming end to end.
//!
//! * **Job 1 — indexing**: every consumer vector is mapped to
//!   `(term, posting)` pairs for the terms of its prefix only; each
//!   posting carries the consumer's *suffix remainder bound* (what the
//!   pruned tail of its vector could still contribute to any dot product).
//!   The reducer passes the grouped postings through unchanged — the
//!   engine's deterministic merge already delivers them in doc order — and
//!   the hand-off folds them into one in-RAM [`InvertedIndex`] that rides
//!   in the probe mapper beside both corpora (the distributed-cache role).
//! * **Job 2 — probing and verification**: every item probes the index
//!   once with all its terms, accumulating `w_item · w_consumer`
//!   **partial products** per candidate.  A candidate whose accumulated
//!   score plus remainder bound cannot reach σ is pruned; every other
//!   candidate is verified on the spot with one exact dot product against
//!   the consumer vector the mapper already holds
//!   ([`verify_candidates`]).  Only pairs whose
//!   similarity reaches σ are emitted, so the shuffle carries true edges
//!   only; its pass-through reducer fixes their order (hash partition,
//!   then pair), and that order fixes the edge ids.
//!
//! The two jobs run as one lazy [`Dataset`] chain over a shared
//! [`FlowContext`]; the probe job reports the join's domain counters
//! ([`counter`]) — `candidates_pruned` and `verify_exact` — in its
//! [`JobMetrics::user_counters`].
//!
//! The output is the candidate-edge [`BipartiteGraph`] handed to the
//! matching algorithms, byte-identical to an exact all-pairs join
//! thresholded at σ.
//!
//! Each decision of the stage is stated once and called from everywhere
//! it applies — the exact join, the sketch generators of `smr_sketch` and
//! the serving path: *alignment* ([`AlignedCorpora`]), the *index plan*
//! and posting rule ([`IndexPlan`]), the *probe* ([`probe_index`] handing
//! the query to a visitor, pruning with [`survives`]), the
//! *verification* ([`verify_candidates`]) and the *chain*
//! ([`candidate_chain`], with [`prefix_filter_join`] its index → probe
//! instance).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use smr_graph::{BipartiteGraph, GraphBuilder};
use smr_mapreduce::flow::{Dataset, FlowContext};
use smr_mapreduce::types::{Key, Value};
use smr_mapreduce::{Counters, Emitter, IdentityReducer, JobMetrics, Mapper};
use smr_text::{Corpus, SparseVector, TermId};

use crate::accum::ScoreAccumulator;
use crate::align::AlignedCorpora;
use crate::index::{IndexPlan, InvertedIndex, Posting, PostingsRef};

/// Names of the join's domain counters, reported in the probe job's
/// [`JobMetrics::user_counters`].
pub mod counter {
    /// Candidate pairs discarded because accumulated partial products plus
    /// the remainder bound cannot reach σ — no dot product, no shuffle
    /// record.
    pub const CANDIDATES_PRUNED: &str = "candidates_pruned";
    /// Candidates verified with an exact dot product in the probe mapper
    /// ([`crate::join::verify_candidates`]).
    pub const VERIFY_EXACT: &str = "verify_exact";
}

/// Absolute slack subtracted from σ before a candidate is pruned on its
/// partial score.  Partial products are accumulated in a different
/// floating-point order than the exact verification dot product, so the
/// two can differ in the last bits; the slack keeps the prune strictly
/// conservative (a pair at exactly σ always survives to exact
/// verification) while remaining far below any meaningful similarity
/// difference of unit-normalized vectors.
const PRUNE_SLACK: f64 = 1e-9;

/// Generator tag of the exact prefix-filter join in [`SimJoinResult`]
/// (recall = 1.0 by construction — it is the reference every sketch
/// generator is measured against).
pub const EXACT_GENERATOR: &str = "exact";

/// Shuffle volume of one MapReduce stage of a candidate generator — the
/// same two fields for every stage of every generator, so a frontier table
/// can read generators' communication costs uniformly instead of fishing
/// in probe-path-specific counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageShuffle {
    /// The stage's job name (from the generator's `Dataset` chain).
    pub job_name: String,
    /// Records that crossed this stage's shuffle.
    pub records: u64,
    /// Bytes that crossed this stage's shuffle.
    pub bytes: u64,
}

/// The per-stage shuffle counters of a job sequence, in execution order.
pub fn stage_shuffles(job_metrics: &[JobMetrics]) -> Vec<StageShuffle> {
    job_metrics
        .iter()
        .map(|m| StageShuffle {
            job_name: m.job_name.clone(),
            records: m.shuffle_records,
            bytes: m.shuffle_bytes,
        })
        .collect()
}

/// Result of the MapReduce similarity join.
#[derive(Debug, Clone)]
pub struct SimJoinResult {
    /// Short tag of the candidate generator that produced this result
    /// (`"exact"` for the prefix-filter join; sketch generators tag their
    /// own — see the `smr_sketch` crate).
    pub generator: String,
    /// The candidate-edge graph (items × consumers, weights = similarity).
    pub graph: BipartiteGraph,
    /// Number of candidate pairs generated by probing, before any pruning
    /// or verification: `candidates_pruned + verify_exact`.
    pub candidate_pairs: usize,
    /// Candidates discarded on `partial score + remainder bound < σ`
    /// without a dot product.
    pub candidates_pruned: usize,
    /// Candidates that reached exact verification (one in-RAM dot product
    /// each, in the probe mapper).
    pub verify_exact: usize,
    /// Number of (term, document) entries indexed by job 1 (after prefix
    /// pruning); for sketch generators, the size of whatever standing
    /// structure job 1 built (e.g. MinHash band postings).
    pub indexed_entries: usize,
    /// Per-stage shuffle volume, uniform across generators (derived from
    /// [`SimJoinResult::job_metrics`]).
    pub stage_shuffles: Vec<StageShuffle>,
    /// Total records shuffled across the generator's jobs.
    pub shuffled_records: u64,
    /// Total bytes shuffled across the generator's jobs.
    pub shuffled_bytes: u64,
    /// Metrics of the generator's MapReduce jobs.
    pub job_metrics: Vec<JobMetrics>,
}

// ---------------------------------------------------------------------------
// Job 1: indexing
// ---------------------------------------------------------------------------

/// Job 1's mapper: emits each consumer's prefix postings
/// ([`IndexPlan::prefix_postings`]).
struct IndexMapper {
    consumers: Arc<[SparseVector]>,
    plan: Arc<IndexPlan>,
    sigma: f64,
}

impl Mapper for IndexMapper {
    type InKey = usize; // consumer dense index
    type InValue = usize; // ditto (the corpus itself rides in the mapper)
    type OutKey = u32; // term id
    type OutValue = Posting;

    fn map(&self, doc: &usize, _: &usize, out: &mut Emitter<u32, Posting>) {
        self.plan
            .prefix_postings(*doc, &self.consumers[*doc], self.sigma, |term, posting| {
                out.emit(term, posting)
            });
    }
}

// ---------------------------------------------------------------------------
// Job 2: probing + exact verification
// ---------------------------------------------------------------------------

/// The accumulated evidence for one candidate pair: the sum of partial
/// products over shared indexed terms, and the upper bound on what the
/// consumer's unindexed suffix could still add.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialScore {
    /// `Σ w_item(t) · w_consumer(t)` over the shared indexed terms seen so
    /// far.
    pub score: f64,
    /// Upper bound on the unindexed remainder of the dot product (the
    /// consumer's suffix bound; every posting of a consumer carries the
    /// same value).
    pub remainder: f64,
}

/// Whether a candidate's accumulated evidence can still reach σ — the one
/// prune test of the candidate stage (the probe mapper and the serving
/// point query both decide with it): `score + remainder ≥ σ − slack`.
pub fn survives(partial: &PartialScore, sigma: f64) -> bool {
    partial.score + partial.remainder >= sigma - PRUNE_SLACK
}

/// Probes `index` with one query: hands the index and the query's entries
/// (sorted by term id) to `visit` — which folds partial products into the
/// accumulator; the exact visitor is [`probe_postings`] — and returns the
/// candidates that [`survives`] keeps, sorted by doc, plus how many it
/// pruned.
///
/// All of a query's probing happens in this one call, so partial products
/// accumulate in ascending term order (the floating-point sum is
/// scheduling-independent) and the prune runs on *complete* scores.
pub fn probe_index(
    index: &InvertedIndex,
    entries: &[(TermId, f64)],
    sigma: f64,
    visit: impl FnOnce(&InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator),
) -> (Vec<(usize, PartialScore)>, u64) {
    let mut scores = ScoreAccumulator::new();
    if !index.is_empty() && !entries.is_empty() {
        visit(index, entries, &mut scores);
    }
    let mut candidates = scores.drain_sorted();
    let generated = candidates.len();
    candidates.retain(|(_, partial)| survives(partial, sigma));
    let pruned = (generated - candidates.len()) as u64;
    (candidates, pruned)
}

/// The exact visitor of [`probe_index`]: accumulates every partial
/// product of a query against the index.  Both the query and the index's
/// terms are sorted by term id; iterate whichever side is shorter and look
/// the term up on the other — and skip terms with empty postings before
/// ever entering the posting loop.  The inner loop walks the index's
/// struct-of-arrays posting columns directly (see [`PostingsRef`]),
/// folding into the open-addressed [`ScoreAccumulator`].
pub fn probe_postings(
    index: &InvertedIndex,
    query: &[(TermId, f64)],
    scores: &mut ScoreAccumulator,
) {
    fn accumulate(weight: f64, postings: PostingsRef<'_>, scores: &mut ScoreAccumulator) {
        for i in 0..postings.docs.len() {
            scores.accumulate(
                postings.docs[i],
                weight * postings.weights[i],
                postings.bounds[i],
            );
        }
    }
    if index.num_terms() < query.len() {
        for (i, term) in index.term_ids().iter().enumerate() {
            if let Ok(q) = query.binary_search_by_key(&TermId(*term), |&(t, _)| t) {
                accumulate(query[q].1, index.postings_at(i), scores);
            }
        }
    } else {
        for &(term, weight) in query {
            let postings = index.postings(term.0);
            if postings.is_empty() {
                continue;
            }
            accumulate(weight, postings, scores);
        }
    }
}

/// Verifies one item's candidates exactly — the last decision of the
/// candidate stage, taken in the probe mapper of every generator, where
/// both vectors are already in RAM: one dot product
/// `vector · consumers[doc]` per candidate, emitting
/// `((item, doc), similarity)` only when it reaches σ.  The number of
/// verified candidates is added to [`counter::VERIFY_EXACT`] once per
/// call.
///
/// Whatever generated the candidates, an emitted weight is the exact
/// similarity: bit-identical across generators and to the serving path.
pub fn verify_candidates(
    item: usize,
    vector: &SparseVector,
    consumers: &[SparseVector],
    candidates: impl IntoIterator<Item = usize>,
    sigma: f64,
    counters: &Counters,
    out: &mut Emitter<(usize, usize), f64>,
) {
    let mut verified = 0u64;
    for doc in candidates {
        verified += 1;
        let similarity = vector.dot(&consumers[doc]);
        if similarity >= sigma {
            out.emit((item, doc), similarity);
        }
    }
    // A counter exists only once something was counted under it.
    if verified > 0 {
        counters.add(counter::VERIFY_EXACT, verified);
    }
}

/// Job 2's mapper: probes the index with every item through `visit` (the
/// visitor of [`probe_index`], additionally told which item is probing)
/// and verifies the surviving candidates against the in-RAM consumer
/// vectors ([`verify_candidates`]) — neither a pruned nor a failed
/// candidate crosses the shuffle.
struct ProbeMapper<F> {
    items: Arc<[SparseVector]>,
    consumers: Arc<[SparseVector]>,
    index: Arc<InvertedIndex>,
    sigma: f64,
    counters: Counters,
    visit: F,
}

impl<F> Mapper for ProbeMapper<F>
where
    F: Fn(usize, &InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator) + Send + Sync,
{
    type InKey = usize; // item dense index
    type InValue = usize; // ditto
    type OutKey = (usize, usize); // (item, consumer) edge
    type OutValue = f64; // exact similarity, ≥ σ

    fn map(&self, item: &usize, _: &usize, out: &mut Emitter<(usize, usize), f64>) {
        let vector = &self.items[*item];
        let (survivors, pruned) = probe_index(
            &self.index,
            vector.entries(),
            self.sigma,
            |index, query, scores| (self.visit)(*item, index, query, scores),
        );
        verify_candidates(
            *item,
            vector,
            &self.consumers,
            survivors.into_iter().map(|(doc, _)| doc),
            self.sigma,
            &self.counters,
            out,
        );
        if pruned > 0 {
            self.counters.add(counter::CANDIDATES_PRUNED, pruned);
        }
    }
}

// ---------------------------------------------------------------------------
// The two-job chain
// ---------------------------------------------------------------------------

/// Runs the exact two-job join between item and consumer corpora.
///
/// The two corpora are first aligned over a shared vocabulary
/// ([`AlignedCorpora::of`] — they are usually built independently, so
/// their term ids would not otherwise line up); pre-aligned vectors can be
/// joined directly with [`mapreduce_similarity_join_vectors_flow`].  Both
/// jobs execute as one lazy `Dataset` chain under the flow's `JobConfig`
/// and report into the flow's [`smr_mapreduce::FlowReport`] alongside any
/// other jobs of the surrounding pipeline.
pub fn mapreduce_similarity_join_flow(
    items: &Corpus,
    consumers: &Corpus,
    sigma: f64,
    flow: &FlowContext,
) -> SimJoinResult {
    let aligned = AlignedCorpora::of(items, consumers);
    mapreduce_similarity_join_vectors_flow(
        aligned.item_vectors(),
        aligned.consumer_vectors(),
        &aligned.item_labels(),
        &aligned.consumer_labels(),
        sigma,
        flow,
    )
}

/// Runs the exact join directly on pre-vectorized inputs (both sides must
/// share the same term space): [`prefix_filter_join`] with the exact
/// visitor, [`probe_postings`].
pub fn mapreduce_similarity_join_vectors_flow(
    item_vectors: &[SparseVector],
    consumer_vectors: &[SparseVector],
    item_names: &[String],
    consumer_names: &[String],
    sigma: f64,
    flow: &FlowContext,
) -> SimJoinResult {
    prefix_filter_join(
        EXACT_GENERATOR,
        "",
        (item_vectors, item_names),
        (consumer_vectors, consumer_names),
        sigma,
        flow,
        Counters::new(),
        |_, index, query, scores| probe_postings(index, query, scores),
    )
}

/// The prefix-filter instance of [`candidate_chain`]: stage 1
/// (`{stage_prefix}index`) builds the pruned inverted index from the
/// [`IndexPlan`] of the two sides; the hand-off folds it into one in-RAM
/// [`InvertedIndex`]; stage 2 (`{stage_prefix}probe`) probes it with
/// `visit` — partial-product accumulation, suffix-bound pruning and exact
/// verification, all in the mapper.
///
/// `visit` is [`probe_index`]'s visitor, additionally told which item is
/// probing.  The exact join passes [`probe_postings`]; a sampling
/// generator passes a visitor that skips (and rescales) contributions.
/// `counters` is the set the probe job reports; a visitor that counts
/// holds a clone of it.
#[allow(clippy::too_many_arguments)]
pub fn prefix_filter_join<F>(
    generator: &str,
    stage_prefix: &str,
    items: (&[SparseVector], &[String]),
    consumers: (&[SparseVector], &[String]),
    sigma: f64,
    flow: &FlowContext,
    counters: Counters,
    visit: F,
) -> SimJoinResult
where
    F: Fn(usize, &InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator) + Send + Sync + 'static,
{
    let plan = Arc::new(IndexPlan::derive(items.0, consumers.0));
    // One shared copy of each corpus: the job inputs are dense indices,
    // the vectors ride in the mappers (the consumers in both jobs').
    let item_vectors: Arc<[SparseVector]> = items.0.into();
    let consumer_vectors: Arc<[SparseVector]> = consumers.0.into();
    let probe_consumers = Arc::clone(&consumer_vectors);
    let index_name = format!("{stage_prefix}index");
    let probe_name = format!("{stage_prefix}probe");
    let probe_counters = counters.clone();
    candidate_chain(
        generator,
        items,
        consumers,
        sigma,
        flow,
        counters,
        move |consumer_ids| {
            consumer_ids
                .map_with(IndexMapper {
                    consumers: consumer_vectors,
                    plan,
                    sigma,
                })
                .named(index_name)
                .reduce_with(IdentityReducer::new())
        },
        move |postings, item_ids| {
            // Job 1's output becomes job 2's side data: one in-RAM index
            // shared by every probe mapper, beside the corpora they hold.
            let index = InvertedIndex::from_records(postings);
            item_ids
                .map_with(ProbeMapper {
                    items: item_vectors,
                    consumers: probe_consumers,
                    index: Arc::new(index),
                    sigma,
                    counters: probe_counters.clone(),
                    visit,
                })
                .named(probe_name)
                .with_counters(probe_counters)
                .reduce_with(IdentityReducer::new())
        },
    )
}

/// The one two-job chain under every candidate generator: runs
/// `index_job` over the consumers' dense indices, hands its output — with
/// the items' dense indices — to `probe_job`, which returns the sealed
/// second job emitting verified `((item, consumer), similarity)` edges;
/// then closes the candidate accounting and assembles the edges into the
/// candidate graph.
///
/// Records flow between the stages by move and nothing executes until the
/// helper collects the chain.  `counters` must be the set `probe_job`
/// runs its job with: the accounting reads [`counter`]'s names from it,
/// and `candidate_pairs = candidates_pruned + verify_exact` for every
/// generator (one that never prunes leaves that counter at zero).
#[allow(clippy::too_many_arguments)]
pub fn candidate_chain<K: Key, V: Value>(
    generator: &str,
    (item_vectors, item_names): (&[SparseVector], &[String]),
    (consumer_vectors, consumer_names): (&[SparseVector], &[String]),
    sigma: f64,
    flow: &FlowContext,
    counters: Counters,
    index_job: impl FnOnce(Dataset<usize, usize>) -> Dataset<K, V>,
    probe_job: impl FnOnce(Vec<(K, V)>, Dataset<usize, usize>) -> Dataset<(usize, usize), f64> + 'static,
) -> SimJoinResult {
    assert_eq!(item_vectors.len(), item_names.len());
    assert_eq!(consumer_vectors.len(), consumer_names.len());
    assert!(sigma > 0.0, "threshold must be positive");

    let jobs_start = flow.num_jobs();
    let dense = |n: usize| -> Vec<(usize, usize)> { (0..n).map(|i| (i, i)).collect() };
    let item_ids = dense(item_vectors.len());
    // `then` runs inside the lazy plan, so the index size is smuggled out
    // through a shared cell instead of a return value.
    let indexed_entries = Arc::new(AtomicUsize::new(0));
    let indexed_entries_probe = Arc::clone(&indexed_entries);

    let verified = index_job(flow.dataset(dense(consumer_vectors.len())))
        .then(move |indexed, flow| {
            indexed_entries_probe.store(indexed.len(), Ordering::Relaxed);
            probe_job(indexed, flow.dataset(item_ids))
        })
        .collect();

    let job_metrics = flow.jobs_from(jobs_start);
    let candidates_pruned = counters.get(counter::CANDIDATES_PRUNED) as usize;
    let verify_exact = counters.get(counter::VERIFY_EXACT) as usize;

    let mut builder = GraphBuilder::new();
    for name in item_names {
        builder.add_item(name.clone());
    }
    for name in consumer_names {
        builder.add_consumer(name.clone());
    }
    for ((item, consumer), similarity) in verified {
        builder.add_edge(
            smr_graph::ItemId(item as u32),
            smr_graph::ConsumerId(consumer as u32),
            similarity,
        );
    }

    // The uniform per-stage and total shuffle counters: derived from the
    // job metrics here, for every generator, so they mean the same thing
    // in every row of a frontier table.
    let stage_shuffles = stage_shuffles(&job_metrics);
    SimJoinResult {
        generator: generator.to_string(),
        graph: builder.build(),
        candidate_pairs: candidates_pruned + verify_exact,
        candidates_pruned,
        verify_exact,
        indexed_entries: indexed_entries.load(Ordering::Relaxed),
        shuffled_records: stage_shuffles.iter().map(|s| s.records).sum(),
        shuffled_bytes: stage_shuffles.iter().map(|s| s.bytes).sum(),
        stage_shuffles,
        job_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_similarity_join;
    use smr_mapreduce::JobConfig;
    use smr_text::{Document, TokenizerConfig};

    fn tag_corpus(docs: &[(&str, &str)]) -> Corpus {
        Corpus::build_weighted(
            docs.iter()
                .map(|(id, text)| Document::new(*id, *text))
                .collect(),
            &TokenizerConfig::tags_only(),
            smr_text::Weighting::Binary,
            true,
        )
    }

    fn synthetic_vectors(n: usize, vocab: usize, seed: u64) -> Vec<SparseVector> {
        // Small deterministic pseudo-random sparse vectors.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|_| {
                let mut entries: Vec<(TermId, f64)> = Vec::new();
                for t in 0..vocab {
                    if next() < 0.3 {
                        entries.push((TermId(t as u32), next() * 0.9 + 0.1));
                    }
                }
                SparseVector::from_entries(entries).normalized()
            })
            .collect()
    }

    fn flow() -> FlowContext {
        FlowContext::new(JobConfig::named("simjoin-test").with_threads(2))
    }

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    /// The exact join over synthetic vectors under the test flow.
    fn join(items: &[SparseVector], consumers: &[SparseVector], sigma: f64) -> SimJoinResult {
        join_in(items, consumers, sigma, &flow())
    }

    fn join_in(
        items: &[SparseVector],
        consumers: &[SparseVector],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        mapreduce_similarity_join_vectors_flow(
            items,
            consumers,
            &names("t", items.len()),
            &names("c", consumers.len()),
            sigma,
            flow,
        )
    }

    fn brute_force_pairs(items: &[SparseVector], consumers: &[SparseVector], sigma: f64) -> usize {
        items
            .iter()
            .map(|x| consumers.iter().filter(|y| x.dot(y) >= sigma).count())
            .sum()
    }

    #[test]
    fn mapreduce_join_matches_the_baseline_on_text() {
        let items = tag_corpus(&[
            ("p0", "beach sunset ocean"),
            ("p1", "city skyline night"),
            ("p2", "mountain hiking forest"),
        ]);
        let consumers = tag_corpus(&[
            ("u0", "ocean beach surf"),
            ("u1", "night city lights"),
            ("u2", "forest hiking trail"),
            ("u3", "cooking pasta pizza"),
        ]);
        for sigma in [0.05, 0.2, 0.5] {
            let mr = mapreduce_similarity_join_flow(&items, &consumers, sigma, &flow());
            let base = baseline_similarity_join(&items, &consumers, sigma);
            assert_eq!(
                mr.graph.num_edges(),
                base.num_edges(),
                "edge count differs for sigma={sigma}"
            );
        }
    }

    #[test]
    fn mapreduce_join_matches_brute_force_on_random_vectors() {
        let items = synthetic_vectors(12, 20, 1);
        let consumers = synthetic_vectors(18, 20, 2);
        for sigma in [0.1, 0.3, 0.6] {
            let result = join(&items, &consumers, sigma);
            assert_eq!(
                result.graph.num_edges(),
                brute_force_pairs(&items, &consumers, sigma),
                "edge count differs for sigma={sigma}"
            );
            assert!(result.graph.edges().iter().all(|e| e.weight >= sigma));
            assert_eq!(result.job_metrics.len(), 2);
            // Candidate accounting is closed: generated = pruned +
            // verified, and only the verified edges cross the probe
            // shuffle.
            assert_eq!(
                result.candidate_pairs,
                result.candidates_pruned + result.verify_exact,
                "sigma={sigma}"
            );
            assert_eq!(
                result.job_metrics[1].shuffle_records,
                result.graph.num_edges() as u64,
                "sigma={sigma}"
            );
        }
    }

    #[test]
    fn higher_threshold_indexes_fewer_entries_and_generates_fewer_candidates() {
        let items = synthetic_vectors(10, 15, 3);
        let consumers = synthetic_vectors(15, 15, 4);
        let loose = join(&items, &consumers, 0.05);
        let tight = join(&items, &consumers, 0.7);
        assert!(tight.indexed_entries <= loose.indexed_entries);
        assert!(tight.candidate_pairs <= loose.candidate_pairs);
        assert!(tight.graph.num_edges() <= loose.graph.num_edges());
    }

    #[test]
    fn suffix_bound_pruning_shrinks_the_probe_shuffle() {
        // Vectors share many terms with wide weight spreads, so plenty of
        // candidate pairs share only light terms: their partial score plus
        // remainder bound cannot reach σ and they must be pruned before
        // any dot product.
        let items = synthetic_vectors(12, 10, 5);
        let consumers = synthetic_vectors(14, 10, 6);
        let result = join(&items, &consumers, 0.4);
        let probe = &result.job_metrics[1];
        assert!(result.candidates_pruned > 0, "{result:?}");
        // Exact verification is exactly the surviving candidates — pruned
        // pairs never cost a dot product.
        assert_eq!(
            result.verify_exact,
            result.candidate_pairs - result.candidates_pruned,
            "one exact verification per survivor"
        );
        // Only true edges cross the shuffle: neither a pruned nor a
        // failed candidate becomes a record.
        assert_eq!(probe.shuffle_records, result.graph.num_edges() as u64);
        assert!(
            (probe.shuffle_records as usize) < result.candidate_pairs,
            "pruning must shrink the shuffle below the generated candidates"
        );
        // The domain counters are reported through the probe job.
        assert_eq!(
            probe.user_counters[counter::CANDIDATES_PRUNED] as usize,
            result.candidates_pruned
        );
        assert_eq!(
            probe.user_counters[counter::VERIFY_EXACT] as usize,
            result.verify_exact
        );
        // Pruning never loses a true pair.
        assert_eq!(
            result.graph.num_edges(),
            brute_force_pairs(&items, &consumers, 0.4)
        );
    }

    /// Hand-wires the two jobs — index folded in RAM, probe candidates
    /// verified in the mapper against the in-RAM vectors,
    /// edges passed through the reducer — and checks the flow chain
    /// against it, byte for byte: same edges in the same order with the
    /// same weights, same candidate accounting and same per-job record
    /// flow.
    #[test]
    fn flow_chain_is_byte_identical_to_the_hand_wired_two_job_path() {
        use smr_mapreduce::Job;

        let items = synthetic_vectors(14, 16, 21);
        let consumers = synthetic_vectors(17, 16, 22);
        let sigma = 0.15;
        let job_config = JobConfig::named("regression").with_threads(2);

        // --- the hand-wired path ---
        let plan = Arc::new(IndexPlan::derive(&items, &consumers));
        let consumer_vectors: Arc<[SparseVector]> = consumers.as_slice().into();
        let index_result = Job::new(job_config.clone().with_name("regression-index")).run(
            &IndexMapper {
                consumers: Arc::clone(&consumer_vectors),
                plan: Arc::clone(&plan),
                sigma,
            },
            &IdentityReducer::new(),
            (0..consumers.len()).map(|i| (i, i)).collect(),
        );
        let index = Arc::new(InvertedIndex::from_records(index_result.output));
        let manual_counters = Counters::new();
        let probe_result = Job::new(job_config.clone().with_name("regression-probe")).run(
            &ProbeMapper {
                items: items.as_slice().into(),
                consumers: consumer_vectors,
                index: Arc::clone(&index),
                sigma,
                counters: manual_counters.clone(),
                visit: |_, index: &InvertedIndex, query: &[(TermId, f64)], scores: &mut _| {
                    probe_postings(index, query, scores)
                },
            },
            &IdentityReducer::new(),
            (0..items.len()).map(|i| (i, i)).collect(),
        );

        // --- the flow chain ---
        let flow = FlowContext::new(job_config);
        let result = join_in(&items, &consumers, sigma, &flow);

        // Output records byte-identical: same edges, same order, same
        // weights.
        let manual_edges: Vec<((usize, usize), f64)> = probe_result.output;
        assert_eq!(result.graph.num_edges(), manual_edges.len());
        assert_eq!(
            probe_result.metrics.shuffle_records,
            manual_edges.len() as u64,
            "only verified edges cross the probe shuffle"
        );
        for (edge, ((item, consumer), weight)) in
            result.graph.edges().iter().zip(manual_edges.iter())
        {
            assert_eq!(edge.item.0 as usize, *item);
            assert_eq!(edge.consumer.0 as usize, *consumer);
            assert_eq!(edge.weight, *weight, "weights must be bit-identical");
        }

        // Same candidate accounting and stage structure, reported through
        // one FlowReport.
        assert_eq!(result.indexed_entries, index.num_postings());
        assert_eq!(
            result.candidates_pruned,
            manual_counters.get(counter::CANDIDATES_PRUNED) as usize
        );
        assert_eq!(
            result.verify_exact,
            manual_counters.get(counter::VERIFY_EXACT) as usize
        );
        assert_eq!(
            result.candidate_pairs,
            (manual_counters.get(counter::CANDIDATES_PRUNED)
                + manual_counters.get(counter::VERIFY_EXACT)) as usize
        );
        let report = flow.report();
        assert_eq!(report.num_jobs(), 2, "the join is exactly two jobs");
        assert_eq!(
            report.job_names(),
            vec!["regression-index", "regression-probe"]
        );
        for (flowed, manual) in report
            .jobs
            .iter()
            .zip([&index_result.metrics, &probe_result.metrics])
        {
            assert_eq!(flowed.job_name, manual.job_name);
            assert_eq!(flowed.map_input_records, manual.map_input_records);
            assert_eq!(flowed.map_output_records, manual.map_output_records);
            assert_eq!(flowed.shuffle_records, manual.shuffle_records);
            assert_eq!(flowed.reduce_output_records, manual.reduce_output_records);
        }
        assert_eq!(
            report.total_shuffled_records(),
            index_result.metrics.shuffle_records + probe_result.metrics.shuffle_records
        );
    }

    #[test]
    fn spilled_and_in_memory_joins_produce_the_same_graph() {
        let items = synthetic_vectors(10, 14, 7);
        let consumers = synthetic_vectors(12, 14, 8);
        let sigma = 0.2;
        let budgeted = |name: &str, budget| {
            FlowContext::new(
                JobConfig::named(name)
                    .with_threads(2)
                    .with_memory_budget(budget),
            )
        };
        let in_memory = join_in(&items, &consumers, sigma, &budgeted("simjoin-memory", None));
        // A budget of a few hundred bytes forces both join jobs through
        // the disk-spilling shuffle.
        let spilled = join_in(
            &items,
            &consumers,
            sigma,
            &budgeted("simjoin-spilled", Some(256)),
        );
        assert_eq!(spilled.graph.num_edges(), in_memory.graph.num_edges());
        assert_eq!(spilled.candidate_pairs, in_memory.candidate_pairs);
        assert_eq!(spilled.candidates_pruned, in_memory.candidates_pruned);
        assert_eq!(spilled.verify_exact, in_memory.verify_exact);
        assert_eq!(spilled.graph.edges(), in_memory.graph.edges());
        let spilled_runs: u64 = spilled.job_metrics.iter().map(|m| m.disk_runs).sum();
        assert!(spilled_runs > 0, "the budgeted join must hit the disk");
    }

    #[test]
    fn the_join_creates_no_side_directory() {
        let items = synthetic_vectors(8, 12, 31);
        let consumers = synthetic_vectors(9, 12, 32);
        let base = std::env::temp_dir().join(format!("smr-simjoin-side-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        for budget in [None, Some(256)] {
            let flow = FlowContext::new(
                JobConfig::named("no-side")
                    .with_threads(2)
                    .with_memory_budget(budget)
                    .with_spill_dir(&base),
            );
            let _ = join_in(&items, &consumers, 0.2, &flow);
            assert_eq!(
                std::fs::read_dir(&base).unwrap().count(),
                0,
                "the index lives in RAM: nothing under the spill base while the flow lives \
                 (budget {budget:?})"
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_corpora_produce_an_empty_graph() {
        let result = join(&[], &[], 0.2);
        assert_eq!(result.graph.num_edges(), 0);
        assert_eq!(result.graph.num_items(), 0);
        assert_eq!(result.candidate_pairs, 0);
        assert_eq!(result.candidates_pruned, 0);
        assert_eq!(result.verify_exact, 0);
    }

    #[test]
    fn candidate_pairs_never_miss_a_true_pair() {
        let items = synthetic_vectors(8, 12, 9);
        let consumers = synthetic_vectors(9, 12, 10);
        let sigma = 0.25;
        let result = join(&items, &consumers, sigma);
        assert_eq!(
            result.graph.num_edges(),
            brute_force_pairs(&items, &consumers, sigma)
        );
        // Prefix filtering may generate extra candidates, never fewer than
        // the verified result; pruning may only eat into that surplus.
        assert!(result.candidate_pairs >= result.graph.num_edges());
        assert!(result.verify_exact >= result.graph.num_edges());
    }
}
