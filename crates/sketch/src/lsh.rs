//! MinHash/LSH banding as a candidate-generation job pair.
//!
//! Instead of probing an inverted index, consumers are summarized by
//! MinHash signatures over their term *sets*: `sig[i] = min_t h_i(t)`
//! over the vector's terms, for `bands × rows` seeded hash functions.
//! Two documents agree on `sig[i]` with probability equal to their
//! Jaccard similarity, so hashing the signature in bands of `rows`
//! values buckets similar documents together: a pair lands in the same
//! bucket of at least one band with probability `1 − (1 − j^rows)^bands`
//! — the classic LSH S-curve, steep around `(1/bands)^(1/rows)`.
//!
//! * **Job 1 — banding**: every consumer emits `(band key, doc)` for each
//!   of its bands; the reducer passes the grouped band postings through,
//!   and the chain's `then` materializes them as a sorted bucket list that
//!   the probe mappers share (the distributed-cache role the inverted
//!   index plays for the exact join).
//! * **Job 2 — bucket probe + verification**: every item computes its own
//!   signature with the *same* seeded hash functions, looks up its band
//!   keys, and verifies each distinct co-bucketed consumer once with an
//!   exact dot product against the in-RAM consumer vector
//!   ([`smr_simjoin::verify_candidates`]), emitting the pair only if it
//!   reaches σ — so, as with DISCO, the output is a subset of the exact
//!   join's edges with bit-identical scores, and only those edges cross
//!   the shuffle.
//!
//! MinHash approximates *Jaccard* while the join thresholds *cosine*; the
//! two agree on direction (shared terms) but not on weights, which is
//! precisely the recall the frontier table measures.  All hashing is
//! stateless ([`crate::hash`]), so the generator is deterministic for any
//! thread count, memory budget or shard layout.

use std::collections::BTreeSet;
use std::sync::Arc;

use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::{Counters, Emitter, IdentityReducer, Mapper};
use smr_simjoin::{candidate_chain, verify_candidates, SimJoinResult};
use smr_text::SparseVector;

use crate::hash::hash_words;
use crate::CandidateGenerator;

/// The MinHash/LSH banding generator.
///
/// `bands × rows` is the signature length.  More rows per band make a
/// band agreement stricter (higher precision, lower recall); more bands
/// give a pair more chances to collide (higher recall, more candidates).
#[derive(Debug, Clone, Copy)]
pub struct LshBander {
    seed: u64,
    bands: usize,
    rows: usize,
}

impl LshBander {
    /// Creates a bander with the given seed and banding shape.
    ///
    /// # Panics
    /// Panics if `bands` or `rows` is zero.
    pub fn new(seed: u64, bands: usize, rows: usize) -> Self {
        assert!(bands > 0, "bands must be positive");
        assert!(rows > 0, "rows must be positive");
        LshBander { seed, bands, rows }
    }

    /// The signature seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows (signature values) per band.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// The MinHash signature of a vector's term set: `bands × rows` minima of
/// seeded term hashes.  Items and consumers must use the same `(seed,
/// bands, rows)` so their band keys are comparable.
fn signature(vector: &SparseVector, seed: u64, bands: usize, rows: usize) -> Vec<u64> {
    let mut sig = vec![u64::MAX; bands * rows];
    for &(term, _) in vector.entries() {
        for (i, slot) in sig.iter_mut().enumerate() {
            let h = hash_words(seed, &[i as u64, term.0 as u64]);
            if h < *slot {
                *slot = h;
            }
        }
    }
    sig
}

/// The bucket key of one band: the band index folded with its `rows`
/// signature values, so equal keys mean equal band slices (up to hash
/// collision — which only ever *adds* candidates, all exactly verified).
fn band_key(seed: u64, band: usize, rows: &[u64]) -> u64 {
    let mut words = Vec::with_capacity(rows.len() + 1);
    words.push(band as u64);
    words.extend_from_slice(rows);
    hash_words(seed ^ 0x5bd1_e995_9d1b_54a5, &words)
}

/// Job 1's mapper: each consumer's `bands` band keys.
struct BandMapper {
    consumers: Arc<[SparseVector]>,
    seed: u64,
    bands: usize,
    rows: usize,
}

impl Mapper for BandMapper {
    type InKey = usize; // consumer dense index
    type InValue = usize; // ditto
    type OutKey = u64; // band bucket key
    type OutValue = u32; // consumer dense index

    fn map(&self, doc: &usize, _: &usize, out: &mut Emitter<u64, u32>) {
        let vector = &self.consumers[*doc];
        if vector.entries().is_empty() {
            return;
        }
        let sig = signature(vector, self.seed, self.bands, self.rows);
        for band in 0..self.bands {
            let key = band_key(
                self.seed,
                band,
                &sig[band * self.rows..(band + 1) * self.rows],
            );
            out.emit(key, *doc as u32);
        }
    }
}

/// Job 2's mapper: an item's band keys, looked up in the shared sorted
/// bucket list; every distinct co-bucketed consumer is verified exactly
/// once (deduplicated across bands locally, so a pair costs one dot
/// product however many bands it collides in) and emitted only if its
/// similarity reaches σ.
struct BucketProbeMapper {
    items: Arc<[SparseVector]>,
    consumers: Arc<[SparseVector]>,
    buckets: Arc<Vec<(u64, Vec<u32>)>>,
    seed: u64,
    bands: usize,
    rows: usize,
    sigma: f64,
    counters: Counters,
}

impl Mapper for BucketProbeMapper {
    type InKey = usize; // item dense index
    type InValue = usize; // ditto
    type OutKey = (usize, usize); // (item, consumer) edge
    type OutValue = f64; // exact similarity, ≥ σ

    fn map(&self, item: &usize, _: &usize, out: &mut Emitter<(usize, usize), f64>) {
        let vector = &self.items[*item];
        if vector.entries().is_empty() {
            return;
        }
        let sig = signature(vector, self.seed, self.bands, self.rows);
        let mut candidates: BTreeSet<u32> = BTreeSet::new();
        for band in 0..self.bands {
            let key = band_key(
                self.seed,
                band,
                &sig[band * self.rows..(band + 1) * self.rows],
            );
            if let Ok(i) = self.buckets.binary_search_by_key(&key, |(k, _)| *k) {
                candidates.extend(self.buckets[i].1.iter().copied());
            }
        }
        verify_candidates(
            *item,
            vector,
            &self.consumers,
            candidates.into_iter().map(|consumer| consumer as usize),
            self.sigma,
            &self.counters,
            out,
        );
    }
}

impl CandidateGenerator for LshBander {
    fn name(&self) -> String {
        format!("lsh-{}x{}", self.bands, self.rows)
    }

    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        item_names: &[String],
        consumer_names: &[String],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        let LshBander { seed, bands, rows } = *self;
        let items: Arc<[SparseVector]> = item_vectors.into();
        let consumers: Arc<[SparseVector]> = consumer_vectors.into();
        let probe_consumers = Arc::clone(&consumers);
        let counters = Counters::new();
        let probe_counters = counters.clone();
        // Every candidate is verified — LSH has no pre-verification prune
        // and no inverted index, so the chain's accounting reads zero
        // pruned and generated = verified.
        candidate_chain(
            &self.name(),
            (item_vectors, item_names),
            (consumer_vectors, consumer_names),
            sigma,
            flow,
            counters,
            move |consumer_ids| {
                consumer_ids
                    .map_with(BandMapper {
                        consumers,
                        seed,
                        bands,
                        rows,
                    })
                    .named("lsh-bands")
                    .reduce_with(IdentityReducer::new())
            },
            move |postings, item_ids| {
                // Job 1's output becomes job 2's side data.  Each bucket
                // arrives as one contiguous run (one reduce group, members
                // in doc order), but runs are ordered by reduce partition,
                // not globally by key — so group by adjacency, then sort
                // the buckets so probe lookups are binary searches and the
                // list is identical under every partition layout.
                let mut buckets: Vec<(u64, Vec<u32>)> = Vec::new();
                for (key, doc) in postings {
                    match buckets.last_mut() {
                        Some((k, docs)) if *k == key => docs.push(doc),
                        _ => buckets.push((key, vec![doc])),
                    }
                }
                buckets.sort_unstable_by_key(|(key, _)| *key);
                probe_counters.add(crate::counter::BAND_BUCKETS, buckets.len() as u64);
                item_ids
                    .map_with(BucketProbeMapper {
                        items,
                        consumers: probe_consumers,
                        buckets: Arc::new(buckets),
                        seed,
                        bands,
                        rows,
                        sigma,
                        counters: probe_counters.clone(),
                    })
                    .named("lsh-probe")
                    .with_counters(probe_counters)
                    .reduce_with(IdentityReducer::new())
            },
        )
    }
}
