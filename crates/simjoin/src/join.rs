//! The one-job MapReduce similarity join (adaptation of Baraglia et al.
//! to the bipartite item × consumer case), streaming end to end.
//!
//! * **Side data — the index**: the driver builds one [`ServingIndex`]
//!   over the consumers ([`ServingIndex::for_corpora`]), cutting each
//!   consumer once ([`crate::IndexPlan::cut`]): its prefix postings fold
//!   into one in-RAM inverted index, and its prefix length and *suffix
//!   remainder bound* (what the pruned tail of its vector could still
//!   contribute to any dot product) go into the [`SuffixTable`] beside
//!   the consumer vectors.  Every probe mapper borrows it (the
//!   distributed-cache role).
//! * **The probe job — probing and verification**: every item probes the
//!   index once with all its terms through [`ServingIndex::probe`],
//!   accumulating `w_item · w_consumer` **partial products** per
//!   candidate, in ascending term order.  A candidate whose accumulated
//!   score plus remainder bound cannot reach σ is pruned; every other
//!   candidate is finished on the spot ([`Probe::finish`]).  Term ids
//!   ascend in the filter's order, so the partial score is the dot
//!   product's first additions: the finish continues it over the
//!   consumer's unindexed suffix, merging only the tails of the two
//!   vectors — the similarity, bit for bit.  Only pairs whose similarity
//!   reaches σ are emitted, so the shuffle carries true edges only; its
//!   pass-through reducer fixes their order (hash partition, then pair),
//!   and that order fixes the edge ids.
//!
//! The job runs as a [`Dataset`] over a shared [`FlowContext`] and reports
//! the join's domain counters ([`counter`]) — `candidates_pruned`,
//! `verify_exact` and `verify_dot` — in its [`JobMetrics::user_counters`].
//!
//! The output is the candidate-edge [`BipartiteGraph`] handed to the
//! matching algorithms, byte-identical to an exact all-pairs join
//! thresholded at σ.
//!
//! This join is the pipeline's one candidate stage: `MatchingPipeline`
//! calls [`mapreduce_similarity_join_vectors_flow`] directly.  Each
//! decision of the stage is stated once and called from everywhere it
//! applies — the exact join, the serving path, and the sketch generators
//! of `smr_sketch` that the repo benchmark's recall lanes still measure:
//! *alignment* ([`AlignedCorpora`]), the *index plan* and prefix/suffix
//! cut ([`crate::IndexPlan`]), the *probe* ([`ServingIndex::probe`]:
//! the query handed to a visitor — the exact one is [`probe_postings`] —
//! and the prune on each candidate's score plus its consumer's
//! [`SuffixTable::bound`]), the *finish* ([`Probe::finish`];
//! [`verify_candidates`] for LSH's candidates, which have no partial
//! scores) and the *chain* ([`candidate_chain`], with
//! [`prefix_filter_join`] its prefix-filter instance).  The one probe
//! loop is shared by the batch probe mapper and the serving point query.

use smr_graph::{BipartiteGraph, ConsumerId, Edge, ItemId};
use smr_mapreduce::flow::{Dataset, FlowContext};
use smr_mapreduce::{Counters, Emitter, IdentityReducer, JobMetrics, Mapper};
use smr_text::sparse::add_products;
use smr_text::{Corpus, SparseVector, TermId};

use crate::accum::ScoreAccumulator;
use crate::align::AlignedCorpora;
use crate::index::{InvertedIndex, PostingsRef, SuffixTable};
use crate::serving::ServingIndex;

/// Names of the join's domain counters, reported in the probe job's
/// [`JobMetrics::user_counters`].
pub mod counter {
    /// Candidate pairs discarded because accumulated partial products plus
    /// the remainder bound cannot reach σ — no dot product, no shuffle
    /// record.
    pub const CANDIDATES_PRUNED: &str = "candidates_pruned";
    /// Candidates that survived the prune and reached verification in
    /// the probe mapper ([`crate::join::Probe::finish`],
    /// [`crate::join::verify_candidates`]).
    pub const VERIFY_EXACT: &str = "verify_exact";
    /// Verified candidates that took a product beyond their partial score:
    /// survivors whose item meets the consumer's unindexed suffix (a tail
    /// product, [`crate::join::Probe::finish`]), every survivor of a
    /// sampled probe and every candidate of a generator without partial
    /// scores (a full dot product).  At most `verify_exact`.
    pub const VERIFY_DOT: &str = "verify_dot";
}

/// Result of the MapReduce similarity join.
#[derive(Debug, Clone)]
pub struct SimJoinResult {
    /// The candidate-edge graph (items × consumers, weights = similarity).
    pub graph: BipartiteGraph,
    /// Number of candidate pairs generated by probing, before any pruning
    /// or verification: `candidates_pruned + verify_exact`.
    pub candidate_pairs: usize,
    /// Candidates discarded on `partial score + remainder bound < σ`
    /// without a dot product.
    pub candidates_pruned: usize,
    /// Candidates that reached exact verification in the probe mapper.
    pub verify_exact: usize,
    /// Verified candidates that took a product beyond their partial score:
    /// a suffix-tail product ([`Probe::finish`]), or a full dot product
    /// for sampled probes and generators without partial scores.
    pub verify_dot: usize,
    /// Number of `(term, document)` postings of the driver-built index
    /// after prefix pruning ([`ServingIndex::num_postings`]); for LSH,
    /// its band postings.
    pub indexed_entries: usize,
    /// Records the probe job shuffled.
    pub shuffled_records: u64,
    /// Bytes the probe job shuffled.
    pub shuffled_bytes: u64,
    /// Metrics of the join's MapReduce job (exactly one).
    pub job_metrics: Vec<JobMetrics>,
}

// ---------------------------------------------------------------------------
// The probe: walk, prune, finish
// ---------------------------------------------------------------------------

/// The outcome of one query's probe ([`ServingIndex::probe`]).
#[derive(Debug)]
pub struct Probe {
    /// The candidates the prune kept, `(doc, partial score)` sorted by
    /// doc.
    pub survivors: Vec<(usize, f64)>,
    /// How many candidates the prune discarded.
    pub pruned: u64,
    /// Whether the visitor skipped or rescaled products
    /// ([`ScoreAccumulator::mark_sampled`]): the scores are then
    /// estimates, not exact partial sums.
    pub sampled: bool,
}

impl Probe {
    /// The finish rule — the one place a survivor's similarity is
    /// decided, for the batch probe mapper and the serving point query
    /// alike: hands `(doc, similarity)` to `visit` for every survivor, in
    /// doc order, and returns how many took a product beyond their
    /// partial score.
    ///
    /// The filter's order is ascending term id, so a consumer's indexed
    /// prefix is `entries()[..plen]` and every suffix id lies above every
    /// prefix id.  A survivor's partial score sums `x_t · y_t` over the
    /// item's terms in that prefix, in ascending term order from `0.0`:
    /// the first additions `SparseVector::dot` makes.  The finish
    /// continues the sum by merging the item's entries from the
    /// consumer's first suffix id with `entries()[plen..]` (`suffixes`):
    /// the dot's remaining additions, in its order.  So the similarity is
    /// the dot product, bit for bit, and a survivor whose item meets no
    /// suffix term costs no multiplication at all.  A
    /// [sampled](Probe::sampled) probe's scores are estimates, so its
    /// survivors take the full `vector.dot(&consumers[doc])`.
    pub fn finish(
        &self,
        vector: &SparseVector,
        consumers: &[SparseVector],
        suffixes: &SuffixTable,
        mut visit: impl FnMut(usize, f64),
    ) -> u64 {
        let query = vector.entries();
        let mut extended = 0;
        for &(doc, score) in &self.survivors {
            let similarity = if self.sampled {
                extended += 1;
                vector.dot(&consumers[doc])
            } else {
                let tail = &consumers[doc].entries()[suffixes.prefix_len(doc)..];
                let from = tail.first().map_or(query.len(), |&(first, _)| {
                    query.partition_point(|&(t, _)| t < first)
                });
                let (similarity, added) = add_products(score, &query[from..], tail);
                extended += u64::from(added);
                similarity
            };
            visit(doc, similarity);
        }
        extended
    }
}

/// The exact visitor of [`ServingIndex::probe`]: accumulates every partial
/// product of a query against the index.  Both the query and the index's
/// terms are sorted by term id; iterate whichever side is shorter and look
/// the term up on the other — and skip terms with empty postings before
/// ever entering the posting loop.  The inner loop walks the index's
/// struct-of-arrays posting columns directly (see [`PostingsRef`]),
/// folding into the dense [`ScoreAccumulator`].  Either way each doc's
/// products arrive in ascending term order.
pub fn probe_postings(
    index: &InvertedIndex,
    query: &[(TermId, f64)],
    scores: &mut ScoreAccumulator,
) {
    fn accumulate(weight: f64, postings: PostingsRef<'_>, scores: &mut ScoreAccumulator) {
        for (&doc, &posted) in postings.docs.iter().zip(postings.weights) {
            scores.accumulate(doc, weight * posted);
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

/// Verifies one item's candidates exactly when the generator has no
/// partial scores to finish from (LSH buckets), in the probe mapper where
/// both vectors are already in RAM: one dot product
/// `vector · consumers[doc]` per candidate, emitting
/// `((item, doc), similarity)` only when it reaches σ.  The number of
/// verified candidates is added to [`counter::VERIFY_EXACT`] and to
/// [`counter::VERIFY_DOT`] once per call.
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
    count(counters, counter::VERIFY_EXACT, verified);
    count(counters, counter::VERIFY_DOT, verified);
}

/// Adds `delta` to the counter `name` — only when non-zero, since a
/// counter exists only once something was counted under it.
fn count(counters: &Counters, name: &str, delta: u64) {
    if delta > 0 {
        counters.add(name, delta);
    }
}

/// The probe job's mapper: probes the driver-built index with every item
/// through `visit` (the visitor of [`ServingIndex::probe`], additionally told
/// which item is probing) and emits the edges [`ServingIndex::probe`]
/// finishes — neither a pruned nor a failed candidate crosses the
/// shuffle.
struct ProbeMapper<'a, F> {
    items: &'a [SparseVector],
    index: &'a ServingIndex<'a>,
    counters: Counters,
    visit: F,
}

impl<F> Mapper for ProbeMapper<'_, F>
where
    F: Fn(usize, &InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator) + Send + Sync,
{
    type InKey = usize; // item dense index
    type InValue = usize; // ditto
    type OutKey = (usize, usize); // (item, consumer) edge
    type OutValue = f64; // exact similarity, ≥ σ

    fn map(&self, item: &usize, _: &usize, out: &mut Emitter<(usize, usize), f64>) {
        let (probe, dots) = self.index.probe(
            &self.items[*item],
            |index, query, scores| (self.visit)(*item, index, query, scores),
            |doc, similarity| out.emit((*item, doc), similarity),
        );
        count(&self.counters, counter::CANDIDATES_PRUNED, probe.pruned);
        count(
            &self.counters,
            counter::VERIFY_EXACT,
            probe.survivors.len() as u64,
        );
        count(&self.counters, counter::VERIFY_DOT, dots);
    }
}

// ---------------------------------------------------------------------------
// The one-job chain
// ---------------------------------------------------------------------------

/// Runs the exact one-job join between item and consumer corpora.
///
/// The two corpora are first aligned over a shared vocabulary
/// ([`AlignedCorpora::of`] — they are usually built independently, so
/// their term ids would not otherwise line up); pre-aligned vectors can be
/// joined directly with [`mapreduce_similarity_join_vectors_flow`].  The
/// probe job runs as a `Dataset` under the flow's `JobConfig` and reports
/// into the flow's [`smr_mapreduce::FlowReport`] alongside any other jobs
/// of the surrounding pipeline.
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
        sigma,
        flow,
    )
}

/// Runs the exact join directly on pre-vectorized inputs (both sides must
/// share the same term space): [`prefix_filter_join`] with the exact
/// visitor, [`probe_postings`].  Node `i` of either side of the graph is
/// the input vector at position `i`.
pub fn mapreduce_similarity_join_vectors_flow(
    item_vectors: &[SparseVector],
    consumer_vectors: &[SparseVector],
    sigma: f64,
    flow: &FlowContext,
) -> SimJoinResult {
    prefix_filter_join(
        "",
        item_vectors,
        consumer_vectors,
        sigma,
        flow,
        Counters::new(),
        |_, index, query, scores| probe_postings(index, query, scores),
    )
}

/// The prefix-filter instance of [`candidate_chain`]: the driver builds
/// one [`ServingIndex`] over the two sides ([`ServingIndex::for_corpora`])
/// as side data, and the probe job (`{stage_prefix}probe`) probes it with
/// `visit` through [`ServingIndex::probe`] — partial-product
/// accumulation, suffix-bound pruning and exact verification
/// ([`Probe::finish`]), all in the mapper.
///
/// `visit` is [`ServingIndex::probe`]'s visitor, additionally told which item is
/// probing.  The exact join passes [`probe_postings`]; a sampling
/// generator passes a visitor that skips (and rescales) contributions and
/// says so with [`ScoreAccumulator::mark_sampled`], so its survivors are
/// verified with a dot product.
/// `counters` is the set the probe job reports; a visitor that counts
/// holds a clone of it.
pub fn prefix_filter_join<F>(
    stage_prefix: &str,
    items: &[SparseVector],
    consumers: &[SparseVector],
    sigma: f64,
    flow: &FlowContext,
    counters: Counters,
    visit: F,
) -> SimJoinResult
where
    F: Fn(usize, &InvertedIndex, &[(TermId, f64)], &mut ScoreAccumulator) + Send + Sync,
{
    // The job input is the items' dense indices; the items and the index
    // ride in the mappers by reference.
    let index = ServingIndex::for_corpora(items, consumers, sigma);
    let probe_counters = counters.clone();
    candidate_chain(
        items,
        consumers,
        sigma,
        flow,
        counters,
        index.num_postings(),
        |item_ids| {
            item_ids
                .map_with(ProbeMapper {
                    items,
                    index: &index,
                    counters: probe_counters.clone(),
                    visit,
                })
                .named(format!("{stage_prefix}probe"))
                .with_counters(probe_counters)
                .reduce_with(IdentityReducer::new())
        },
    )
}

/// The one-job chain under every candidate generator: hands the items'
/// dense indices to `probe_job`, which returns the sealed job emitting
/// verified `((item, consumer), similarity)` edges; then closes the
/// candidate accounting and hands the edges, in output order, to
/// [`BipartiteGraph::from_edges`]: the `k`-th edge out of the job is edge
/// `k`, and node `i` of either side is `items[i]` or `consumers[i]`.
///
/// The caller builds whatever the probe reads on the driver, before the
/// job, and reports its size as `indexed_entries`.  The job runs when
/// `probe_job` calls `reduce_with`.  `counters` must be the set
/// `probe_job` runs its job with: the accounting reads [`counter`]'s
/// names from it, and `candidate_pairs = candidates_pruned + verify_exact`
/// for every generator (one that never prunes leaves that counter at
/// zero), with `verify_dot ≤ verify_exact`.
pub fn candidate_chain(
    items: &[SparseVector],
    consumers: &[SparseVector],
    sigma: f64,
    flow: &FlowContext,
    counters: Counters,
    indexed_entries: usize,
    probe_job: impl FnOnce(Dataset<usize, usize>) -> Dataset<(usize, usize), f64>,
) -> SimJoinResult {
    assert!(sigma > 0.0, "threshold must be positive");

    let jobs_start = flow.num_jobs();
    let item_ids = (0..items.len()).map(|i| (i, i)).collect();
    let verified = probe_job(flow.dataset(item_ids)).collect();

    let job_metrics = flow.jobs_from(jobs_start);
    let candidates_pruned = counters.get(counter::CANDIDATES_PRUNED) as usize;
    let verify_exact = counters.get(counter::VERIFY_EXACT) as usize;
    let verify_dot = counters.get(counter::VERIFY_DOT) as usize;

    // Sized exactly, not `collect`ed: that would reuse the 24-byte output
    // records' buffer and keep half an edge list of slack for the run.
    let mut edges = Vec::with_capacity(verified.len());
    edges.extend(verified.into_iter().map(|((item, consumer), similarity)| {
        Edge::new(ItemId(item as u32), ConsumerId(consumer as u32), similarity)
    }));

    SimJoinResult {
        graph: BipartiteGraph::from_edges(items.len(), consumers.len(), edges),
        candidate_pairs: candidates_pruned + verify_exact,
        candidates_pruned,
        verify_exact,
        verify_dot,
        indexed_entries,
        shuffled_records: job_metrics.iter().map(|m| m.shuffle_records).sum(),
        shuffled_bytes: job_metrics.iter().map(|m| m.shuffle_bytes).sum(),
        job_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_similarity_join;
    use crate::index::IndexPlan;
    use smr_mapreduce::JobConfig;
    use smr_text::{Document, TokenizerConfig};

    fn tag_corpus(docs: &[(&str, &str)]) -> Corpus {
        Corpus::build(
            docs.iter()
                .map(|(id, text)| Document::new(*id, *text))
                .collect(),
            &TokenizerConfig::tags_only(),
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
        mapreduce_similarity_join_vectors_flow(items, consumers, sigma, flow)
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
            assert_eq!(result.job_metrics.len(), 1);
            // Candidate accounting is closed: generated = pruned +
            // verified, and only the verified edges cross the probe
            // shuffle.
            assert_eq!(
                result.candidate_pairs,
                result.candidates_pruned + result.verify_exact,
                "sigma={sigma}"
            );
            assert_eq!(
                result.job_metrics[0].shuffle_records,
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
        let probe = &result.job_metrics[0];
        assert!(result.candidates_pruned > 0, "{result:?}");
        // Exact verification is exactly the surviving candidates — pruned
        // pairs never cost a dot product.
        assert_eq!(
            result.verify_exact,
            result.candidate_pairs - result.candidates_pruned,
            "one exact verification per survivor"
        );
        // Only survivors meeting their consumer's suffix cost a dot.
        assert!(result.verify_dot <= result.verify_exact);
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
        assert_eq!(
            probe.user_counters[counter::VERIFY_DOT] as usize,
            result.verify_dot
        );
        // Pruning never loses a true pair.
        assert_eq!(
            result.graph.num_edges(),
            brute_force_pairs(&items, &consumers, 0.4)
        );
    }

    /// Hand-wires the one job — the probe mapper over a driver-built
    /// [`ServingIndex`], candidates verified in the mapper, edges passed
    /// through the reducer — and checks the flow chain against it, byte
    /// for byte: same edges in the same order with the same weights, same
    /// candidate accounting and same record flow.
    #[test]
    fn flow_chain_is_byte_identical_to_the_hand_wired_one_job_path() {
        use smr_mapreduce::Job;

        let items = synthetic_vectors(14, 16, 21);
        let consumers = synthetic_vectors(17, 16, 22);
        let sigma = 0.15;
        let job_config = JobConfig::named("regression").with_threads(2);

        // --- the hand-wired path ---
        let index = ServingIndex::for_corpora(&items, &consumers, sigma);
        let manual_counters = Counters::new();
        let probe_mapper = ProbeMapper {
            items: &items,
            index: &index,
            counters: manual_counters.clone(),
            visit: |_, index: &InvertedIndex, query: &[(TermId, f64)], scores: &mut _| {
                probe_postings(index, query, scores)
            },
        };
        let probe_result = Job::new(job_config.clone().with_name("regression-probe")).run(
            &probe_mapper,
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

        // Same candidate accounting and job structure, reported through
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
            result.verify_dot,
            manual_counters.get(counter::VERIFY_DOT) as usize
        );
        assert_eq!(
            result.candidate_pairs,
            (manual_counters.get(counter::CANDIDATES_PRUNED)
                + manual_counters.get(counter::VERIFY_EXACT)) as usize
        );
        let report = flow.report();
        assert_eq!(report.num_jobs(), 1, "the join is exactly one job");
        assert_eq!(report.job_names(), vec!["regression-probe"]);
        let (flowed, manual) = (&report.jobs[0], &probe_result.metrics);
        assert_eq!(flowed.job_name, manual.job_name);
        assert_eq!(flowed.map_input_records, manual.map_input_records);
        assert_eq!(flowed.map_output_records, manual.map_output_records);
        assert_eq!(flowed.shuffle_records, manual.shuffle_records);
        assert_eq!(flowed.reduce_output_records, manual.reduce_output_records);
        assert_eq!(report.total_shuffled_records(), manual.shuffle_records);
        assert_eq!(result.shuffled_records, manual.shuffle_records);
        assert_eq!(result.shuffled_bytes, manual.shuffle_bytes);
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
        // A budget of a few hundred bytes forces the join's job through
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
        assert_eq!(spilled.verify_dot, in_memory.verify_dot);
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
        assert_eq!(result.verify_dot, 0);
    }

    /// Indexes `consumers` under `plan` at σ, probes the index with `x`
    /// through the one probe loop and the exact visitor: exactly the
    /// survivors whose dot product with `x` reaches σ must come out, each
    /// carrying the bits of `x.dot(y)`.  Returns `(survivors, products
    /// beyond the partial score)`.
    fn finish_against(
        plan: &IndexPlan,
        consumers: &[SparseVector],
        sigma: f64,
        x: &SparseVector,
    ) -> (usize, u64) {
        let index = ServingIndex::build(consumers, plan.clone(), sigma);
        let mut emitted = Vec::new();
        let (probe, dots) = index.probe(x, probe_postings, |doc, similarity| {
            emitted.push((doc, similarity.to_bits()))
        });
        let expected: Vec<(usize, u64)> = probe
            .survivors
            .iter()
            .map(|&(doc, _)| (doc, x.dot(&consumers[doc])))
            .filter(|&(_, dot)| dot >= sigma)
            .map(|(doc, dot)| (doc, dot.to_bits()))
            .collect();
        assert_eq!(emitted, expected);
        (probe.survivors.len(), dots)
    }

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn finished_similarities_are_the_bits_of_the_dot_product() {
        let items = synthetic_vectors(30, 24, 41);
        let consumers = synthetic_vectors(40, 24, 42);
        let plan = IndexPlan::derive(&items, &consumers);
        let (mut survivors, mut dots) = (0, 0);
        for sigma in [0.1, 0.2, 0.35, 0.5] {
            for x in &items {
                let (s, d) = finish_against(&plan, &consumers, sigma, x);
                survivors += s;
                dots += d;
            }
        }
        // Both sides of the rule ran: survivors whose item met the
        // consumer's suffix (dotted) and survivors finished from the score.
        assert!(dots > 0, "no survivor met a suffix");
        assert!((dots as usize) < survivors, "every survivor was dotted");
    }

    #[test]
    fn a_query_longer_than_the_index_term_list_finishes_exactly() {
        // Doc 0: prefix {t0} (0.9 alone reaches σ), suffix {t1, t2}.  Doc 1:
        // every term heavy enough to be indexed, so its suffix is empty.
        let consumers = vec![
            vec_of(&[(0, 0.9), (1, 0.3), (2, 0.1)]),
            vec_of(&[(3, 0.7), (4, 0.6)]),
        ];
        let plan = IndexPlan {
            max_weights: vec![1.0; 8],
        };
        let sigma = 0.5;
        assert_eq!(plan.cut(&consumers[0], sigma).0, 1);
        assert_eq!(plan.cut(&consumers[1], sigma), (2, 0.0));
        // All eight terms: the walk iterates the index's three terms and
        // looks each up in the query.
        let long = vec_of(
            &(0..8)
                .map(|t| (t, 0.6 + 0.05 * t as f64))
                .collect::<Vec<_>>(),
        );
        // Meets doc 0's suffix (a tail product); doc 1 has none.
        assert_eq!(finish_against(&plan, &consumers, sigma, &long), (2, 1));
        let index = ServingIndex::build(&consumers, plan.clone(), sigma);
        assert!(index.num_postings() < long.len());
        // Short queries walk their own terms: disjoint from the suffix,
        // then sharing it.
        let disjoint = vec_of(&[(0, 0.8), (3, 0.3), (4, 0.9)]);
        assert_eq!(finish_against(&plan, &consumers, sigma, &disjoint), (2, 0));
        let shared = vec_of(&[(0, 0.8), (2, 0.6)]);
        assert_eq!(finish_against(&plan, &consumers, sigma, &shared), (1, 1));
    }

    #[test]
    fn all_tie_weights_finish_exactly() {
        // Binary tag vectors, unit-normalised: every weight of a vector
        // ties, so the cut falls wherever the global order puts it.
        let vectors: Vec<SparseVector> = (0..10u32)
            .map(|i| {
                let tags = (0..12u32).filter(|t| (t * 7 + i * 3) % 5 < 3);
                vec_of(&tags.map(|t| (t, 1.0)).collect::<Vec<_>>()).normalized()
            })
            .collect();
        let plan = IndexPlan::derive(&vectors, &vectors);
        let (mut survivors, mut dots) = (0, 0);
        for sigma in [0.3, 0.45, 0.6] {
            assert!(vectors.iter().any(|v| plan.cut(v, sigma).0 < v.len()));
            for x in &vectors {
                let (s, d) = finish_against(&plan, &vectors, sigma, x);
                survivors += s;
                dots += d;
            }
        }
        assert!(dots > 0 && (dots as usize) < survivors);
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
