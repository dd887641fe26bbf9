//! MinHash/LSH banding as a one-job candidate generator.
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
//! * **Side data — banding**: the driver computes every consumer's band
//!   keys and sorts the `(band key, doc)` postings into one list that the
//!   probe mappers share (the distributed-cache role the inverted index
//!   plays for the exact join).
//! * **The probe job — bucket probe + verification**: every item computes
//!   its own signature with the *same* seeded hash functions, looks up its
//!   band keys, and verifies each distinct co-bucketed consumer once with
//!   an exact dot product against the in-RAM consumer vector
//!   ([`smr_simjoin::verify_candidates`]), emitting the pair only if it
//!   reaches σ — so, as with DISCO, the output is a subset of the exact
//!   join's edges with bit-identical scores, and only those edges cross
//!   the shuffle.
//!
//! MinHash approximates *Jaccard* while the join thresholds *cosine*; the
//! two agree on direction (shared terms) but not on weights, which is
//! precisely the recall the benchmark's `sketch.lsh_recall` measures.
//! All hashing is stateless ([`crate::hash`]), so the generator is
//! deterministic for any thread count, memory budget or shard layout.

use std::collections::BTreeSet;

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

/// The `bands` band keys of one vector, in band order (none for an
/// empty vector).
fn band_keys(vector: &SparseVector, seed: u64, bands: usize, rows: usize) -> Vec<u64> {
    if vector.entries().is_empty() {
        return Vec::new();
    }
    let sig = signature(vector, seed, bands, rows);
    sig.chunks(rows)
        .enumerate()
        .map(|(band, rows)| band_key(seed, band, rows))
        .collect()
}

/// The probe job's mapper: an item's band keys, looked up in the shared
/// band postings (sorted by key, then doc); every distinct co-bucketed
/// consumer is verified exactly once (deduplicated across bands locally,
/// so a pair costs one dot product however many bands it collides in) and
/// emitted only if its similarity reaches σ.
struct BucketProbeMapper<'a> {
    items: &'a [SparseVector],
    consumers: &'a [SparseVector],
    postings: &'a [(u64, u32)],
    seed: u64,
    bands: usize,
    rows: usize,
    sigma: f64,
    counters: Counters,
}

impl Mapper for BucketProbeMapper<'_> {
    type InKey = usize; // item dense index
    type InValue = usize; // ditto
    type OutKey = (usize, usize); // (item, consumer) edge
    type OutValue = f64; // exact similarity, ≥ σ

    fn map(&self, item: &usize, _: &usize, out: &mut Emitter<(usize, usize), f64>) {
        let vector = &self.items[*item];
        let mut candidates: BTreeSet<u32> = BTreeSet::new();
        for key in band_keys(vector, self.seed, self.bands, self.rows) {
            let from = self.postings.partition_point(|&(k, _)| k < key);
            let bucket = self.postings[from..].iter().take_while(|&&(k, _)| k == key);
            candidates.extend(bucket.map(|&(_, doc)| doc));
        }
        verify_candidates(
            *item,
            vector,
            self.consumers,
            candidates.into_iter().map(|consumer| consumer as usize),
            self.sigma,
            &self.counters,
            out,
        );
    }
}

impl CandidateGenerator for LshBander {
    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        let LshBander { seed, bands, rows } = *self;
        // The driver's side data: every consumer's `(band key, doc)`
        // postings, sorted so a bucket is one contiguous run in doc order
        // and a probe lookup is a binary search.
        let mut postings: Vec<(u64, u32)> = Vec::new();
        for (doc, vector) in consumer_vectors.iter().enumerate() {
            let keys = band_keys(vector, seed, bands, rows);
            postings.extend(keys.into_iter().map(|key| (key, doc as u32)));
        }
        postings.sort_unstable();
        let counters = Counters::new();
        let buckets = postings.chunk_by(|a, b| a.0 == b.0).count();
        counters.add(crate::counter::BAND_BUCKETS, buckets as u64);
        let probe_counters = counters.clone();
        // Every candidate is verified — LSH has no pre-verification prune,
        // so the chain's accounting reads zero pruned and generated =
        // verified.
        candidate_chain(
            item_vectors,
            consumer_vectors,
            sigma,
            flow,
            counters,
            postings.len(),
            |item_ids| {
                item_ids
                    .map_with(BucketProbeMapper {
                        items: item_vectors,
                        consumers: consumer_vectors,
                        postings: &postings,
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
