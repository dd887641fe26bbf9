//! Disk-backed side data of the streaming join.
//!
//! Two artifacts of the candidate stage live in a [`DatasetStore`]
//! (normally a flow's side store) and are opened on demand:
//!
//! * [`PartitionedIndex`] — job 1's pruned inverted index, persisted in
//!   **term-range partitions**.  A probe mapper only opens the partitions
//!   its query terms fall into, so a mapper's working set is a handful of
//!   partitions instead of the whole index.
//! * [`DiskVectorStore`] — a corpus as fixed-size **vector chunks**.  The
//!   serving index reads the consumer vector of a surviving candidate
//!   from here, through a [`VectorCursor`] that pins the chunk it last
//!   read.
//!
//! Both keep a small bounded LRU cache of decoded partitions/chunks.
//! Concurrent misses on the same block coalesce into a single disk read
//! (a per-block in-flight guard; late arrivals wait for the read instead
//! of repeating it), and a hit refreshes the block's eviction rank, so
//! hot blocks survive scans of cold ones.  Caching only affects speed:
//! every lookup returns exactly what was written, whatever was evicted in
//! between.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use smr_storage::{Codec, DatasetStore, StorageError};
use smr_text::{SparseVector, TermId};

use crate::index::Posting;

/// Target number of postings per index partition.
const TARGET_ENTRIES_PER_PARTITION: usize = 4 * 1024;

/// Vectors per corpus chunk.
const VECTOR_CHUNK: usize = 256;

/// Decoded partitions / chunks kept in memory per handle.
const MAX_CACHED: usize = 16;

/// Writes (or replaces) one side-data block.  A failed write is an
/// environment failure (disk full, permissions), not a recoverable state.
fn write_block<R: Codec>(store: &DatasetStore, name: &str, records: &[R]) {
    store
        .write(name, records)
        .unwrap_or_else(|e| panic!("side data write `{name}`: {e}"));
}

/// Reads one side-data block.  A block that was never written reads as
/// empty (like an empty directory of part files); a corrupt or wrongly
/// typed one is a bug or foreign data and fails loudly.
fn read_block<R: Codec>(store: &DatasetStore, name: &str) -> Vec<R> {
    match store.read(name) {
        Ok(records) => records,
        Err(StorageError::Missing { .. }) => Vec::new(),
        Err(e) => panic!("side data read `{name}`: {e}"),
    }
}

/// The blocks and bookkeeping behind a [`SharedCache`], guarded by its
/// mutex.
#[derive(Debug)]
struct CacheState<T> {
    blocks: HashMap<usize, Arc<T>>,
    /// Eviction order: front is evicted first; a hit moves its key to the
    /// back, so the front is always the least recently used block.
    order: VecDeque<usize>,
    /// Keys some thread is currently reading from disk.
    loading: HashSet<usize>,
}

impl<T> Default for CacheState<T> {
    fn default() -> Self {
        CacheState {
            blocks: HashMap::new(),
            order: VecDeque::new(),
            loading: HashSet::new(),
        }
    }
}

impl<T> CacheState<T> {
    /// Returns the cached block and refreshes its eviction rank.
    fn touch(&mut self, key: usize) -> Option<Arc<T>> {
        let block = self.blocks.get(&key).cloned()?;
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
        Some(block)
    }

    fn insert(&mut self, key: usize, block: Arc<T>) {
        if self.blocks.insert(key, block).is_none() {
            self.order.push_back(key);
            while self.order.len() > MAX_CACHED {
                if let Some(evicted) = self.order.pop_front() {
                    self.blocks.remove(&evicted);
                }
            }
        }
    }

    fn invalidate(&mut self, key: usize) {
        if self.blocks.remove(&key).is_some() {
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
            }
        }
    }
}

/// A bounded LRU cache of decoded side-data blocks with per-block read
/// coalescing: when several threads miss on the same key at once, exactly
/// one performs the disk read and the rest wait for its result.
#[derive(Debug, Default)]
struct SharedCache<T> {
    state: Mutex<CacheState<T>>,
    loaded: Condvar,
    disk_reads: AtomicU64,
}

/// Clears a key's in-flight flag when the loading thread finishes — or
/// panics — so waiters are never stranded on a flag nobody will clear.
struct LoadingGuard<'a, T> {
    cache: &'a SharedCache<T>,
    key: usize,
}

impl<T> Drop for LoadingGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = self.cache.state.lock().expect("block cache poisoned");
        state.loading.remove(&self.key);
        drop(state);
        self.cache.loaded.notify_all();
    }
}

impl<T> SharedCache<T> {
    /// Returns the block for `key`, running `load` on a miss.  At most one
    /// thread loads a given key at a time; concurrent misses block until
    /// the in-flight read lands and then reuse it.
    fn get_or_load(&self, key: usize, load: impl FnOnce() -> T) -> Arc<T> {
        let mut state = self.state.lock().expect("block cache poisoned");
        loop {
            if let Some(block) = state.touch(key) {
                return block;
            }
            if state.loading.insert(key) {
                break;
            }
            state = self.loaded.wait(state).expect("block cache poisoned");
        }
        drop(state);
        let _inflight = LoadingGuard { cache: self, key };
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        let block = Arc::new(load());
        self.state
            .lock()
            .expect("block cache poisoned")
            .insert(key, Arc::clone(&block));
        block
    }

    /// Drops the cached block for `key`, if any; the next lookup re-reads
    /// the disk.
    fn invalidate(&self, key: usize) {
        self.state
            .lock()
            .expect("block cache poisoned")
            .invalidate(key);
    }

    /// Number of disk reads performed through this cache so far.
    fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Partitioned inverted index
// ---------------------------------------------------------------------------

/// One term's postings, borrowed from a partition's column arrays.
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

    /// The `i`-th posting, materialized.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> Posting {
        Posting {
            doc: self.docs[i],
            weight: self.weights[i],
            bound: self.bounds[i],
        }
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

/// One decoded term-range partition in struct-of-arrays layout: the
/// distinct term ids (ascending) with offsets into three parallel posting
/// columns (doc, weight, bound).  A term's postings are one contiguous
/// range of each column, so the probe's accumulate loop walks flat `f64`
/// and `usize` arrays instead of hopping across per-term `Vec<Posting>`
/// allocations — branch-light and friendly to both the prefetcher and
/// auto-vectorization.
#[derive(Debug, Default)]
pub struct IndexPartition {
    /// Distinct indexed term ids, ascending.
    terms: Vec<u32>,
    /// `starts[i]..starts[i + 1]` is term `i`'s range in the columns;
    /// `terms.len() + 1` entries.
    starts: Vec<u32>,
    docs: Vec<usize>,
    weights: Vec<f64>,
    bounds: Vec<f64>,
}

impl IndexPartition {
    /// Builds a partition from raw `(term, posting)` records.
    ///
    /// Batch writes store each partition term-sorted, but appended
    /// micro-batches land at the end of the run file, so a partition may
    /// interleave term ranges.  The stable sort restores term order while
    /// preserving file order within a term (batch doc order, then appends
    /// in arrival order).  Public so benchmarks and alternative probe
    /// implementations can build partitions without a disk round trip.
    pub fn from_records(mut records: Vec<(u32, Posting)>) -> Self {
        records.sort_by_key(|(term, _)| *term);
        let mut partition = IndexPartition {
            terms: Vec::new(),
            starts: Vec::new(),
            docs: Vec::with_capacity(records.len()),
            weights: Vec::with_capacity(records.len()),
            bounds: Vec::with_capacity(records.len()),
        };
        for (term, posting) in records {
            if partition.terms.last() != Some(&term) {
                partition.terms.push(term);
                partition.starts.push(partition.docs.len() as u32);
            }
            partition.docs.push(posting.doc);
            partition.weights.push(posting.weight);
            partition.bounds.push(posting.bound);
        }
        partition.starts.push(partition.docs.len() as u32);
        partition
    }

    /// The postings of `term` (empty when the term is not indexed).
    pub fn postings(&self, term: u32) -> PostingsRef<'_> {
        self.terms
            .binary_search(&term)
            .map(|i| self.postings_at(i))
            .unwrap_or(PostingsRef::EMPTY)
    }

    /// The postings of the `i`-th distinct term (see
    /// [`IndexPartition::term_ids`]).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn postings_at(&self, i: usize) -> PostingsRef<'_> {
        let start = self.starts[i] as usize;
        let end = self.starts[i + 1] as usize;
        PostingsRef {
            docs: &self.docs[start..end],
            weights: &self.weights[start..end],
            bounds: &self.bounds[start..end],
        }
    }

    /// The distinct indexed term ids, ascending — index-aligned with
    /// [`IndexPartition::postings_at`].
    pub fn term_ids(&self) -> &[u32] {
        &self.terms
    }

    /// Number of distinct indexed terms in this partition.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of postings across all terms of this partition.
    pub fn num_postings(&self) -> usize {
        self.docs.len()
    }

    /// Whether the partition indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The pruned inverted index, persisted as term-range partitions in a
/// [`DatasetStore`] and opened partition-by-partition on demand.
#[derive(Debug)]
pub struct PartitionedIndex {
    store: DatasetStore,
    prefix: String,
    /// Contiguous term ids per partition.
    span: u32,
    num_partitions: usize,
    num_entries: usize,
    cache: SharedCache<IndexPartition>,
}

impl PartitionedIndex {
    /// Partitions `postings` by contiguous term-id ranges and writes each
    /// non-empty partition as one dataset (`{prefix}/part-{p}`), returning
    /// the read handle.
    ///
    /// The records are moved, grouped and written — never re-sorted across
    /// terms: within a term the engine's deterministic merge order (doc
    /// ascending) is preserved as-is.
    pub fn write(
        store: &DatasetStore,
        prefix: &str,
        postings: Vec<(u32, Posting)>,
        vocab_size: usize,
    ) -> Self {
        let num_entries = postings.len();
        let num_partitions = num_entries.div_ceil(TARGET_ENTRIES_PER_PARTITION).max(1);
        let span = (vocab_size.div_ceil(num_partitions).max(1)) as u32;
        // Re-derive the partition count from the span so every term id in
        // 0..vocab_size maps to a partition index below `num_partitions`.
        let num_partitions = vocab_size.div_ceil(span as usize).max(1);

        let mut buckets: Vec<Vec<(u32, Posting)>> =
            (0..num_partitions).map(|_| Vec::new()).collect();
        for record in postings {
            let p = ((record.0 / span) as usize).min(num_partitions - 1);
            buckets[p].push(record);
        }
        for (p, mut bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // The reduce output interleaves terms of different engine
            // partitions; a stable sort by term restores term order while
            // keeping each term's postings in their deterministic doc
            // order.
            bucket.sort_by_key(|(term, _)| *term);
            debug_assert!(
                bucket
                    .windows(2)
                    .all(|w| w[0].0 != w[1].0 || w[0].1.doc <= w[1].1.doc),
                "the engine's merge must deliver each term's postings in doc order"
            );
            write_block(store, &format!("{prefix}/part-{p}"), &bucket);
        }
        PartitionedIndex {
            store: store.clone(),
            prefix: prefix.to_string(),
            span,
            num_partitions,
            num_entries,
            cache: SharedCache::default(),
        }
    }

    /// The partition a term id falls into.
    pub fn partition_of(&self, term: TermId) -> usize {
        ((term.0 / self.span) as usize).min(self.num_partitions - 1)
    }

    /// Opens (or returns the cached copy of) partition `p`.  Partitions
    /// with no indexed term read as empty.  Concurrent misses on the same
    /// partition share one disk read.
    pub fn partition(&self, p: usize) -> Arc<IndexPartition> {
        self.cache.get_or_load(p, || {
            IndexPartition::from_records(read_block(
                &self.store,
                &format!("{}/part-{p}", self.prefix),
            ))
        })
    }

    /// Appends postings to the partitions their terms fall into, creating
    /// missing partition files and invalidating only the touched cache
    /// entries.  Terms beyond the build-time vocabulary clamp into the
    /// last partition, exactly as [`PartitionedIndex::partition_of`] routes
    /// their lookups.
    pub fn append(&mut self, postings: Vec<(u32, Posting)>) {
        if postings.is_empty() {
            return;
        }
        self.num_entries += postings.len();
        let mut buckets: HashMap<usize, Vec<(u32, Posting)>> = HashMap::new();
        for record in postings {
            let p = ((record.0 / self.span) as usize).min(self.num_partitions - 1);
            buckets.entry(p).or_default().push(record);
        }
        for (p, mut bucket) in buckets {
            bucket.sort_by_key(|(term, _)| *term);
            let name = format!("{}/part-{p}", self.prefix);
            self.store
                .append(&name, &bucket)
                .unwrap_or_else(|e| panic!("side data append `{name}`: {e}"));
            self.cache.invalidate(p);
        }
    }

    /// Number of term-range partitions (including empty ones).
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Number of indexed `(term, doc)` entries across all partitions.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Number of partition reads that actually went to disk (cache misses,
    /// after coalescing concurrent misses into one read).
    pub fn disk_reads(&self) -> u64 {
        self.cache.disk_reads()
    }
}

// ---------------------------------------------------------------------------
// Chunked vector store
// ---------------------------------------------------------------------------

/// A corpus persisted as fixed-size chunks of [`SparseVector`]s, with
/// random access by dense index through a bounded chunk cache.
#[derive(Debug)]
pub struct DiskVectorStore {
    store: DatasetStore,
    prefix: String,
    len: usize,
    cache: SharedCache<Vec<SparseVector>>,
}

impl DiskVectorStore {
    /// Writes `vectors` in chunks under `{prefix}/chunk-{c}` and returns
    /// the read handle.
    pub fn write(store: &DatasetStore, prefix: &str, vectors: &[SparseVector]) -> Self {
        for (c, chunk) in vectors.chunks(VECTOR_CHUNK).enumerate() {
            write_block(store, &format!("{prefix}/chunk-{c}"), chunk);
        }
        DiskVectorStore {
            store: store.clone(),
            prefix: prefix.to_string(),
            len: vectors.len(),
            cache: SharedCache::default(),
        }
    }

    /// Appends `vectors` at the end of the store.  The last chunk is
    /// rewritten when partial (and its cache entry invalidated); full new
    /// chunks are written as fresh datasets.
    pub fn append(&mut self, vectors: &[SparseVector]) {
        if vectors.is_empty() {
            return;
        }
        let first = self.len / VECTOR_CHUNK;
        let mut pending = if self.len.is_multiple_of(VECTOR_CHUNK) {
            Vec::new()
        } else {
            read_block(&self.store, &format!("{}/chunk-{first}", self.prefix))
        };
        pending.extend_from_slice(vectors);
        for (offset, chunk) in pending.chunks(VECTOR_CHUNK).enumerate() {
            let c = first + offset;
            write_block(&self.store, &format!("{}/chunk-{c}", self.prefix), chunk);
            self.cache.invalidate(c);
        }
        self.len += vectors.len();
    }

    /// Number of vectors in the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunk reads that actually went to disk (cache misses,
    /// after coalescing concurrent misses into one read).
    pub fn disk_reads(&self) -> u64 {
        self.cache.disk_reads()
    }

    fn chunk(&self, c: usize) -> Arc<Vec<SparseVector>> {
        self.cache.get_or_load(c, || {
            read_block(&self.store, &format!("{}/chunk-{c}", self.prefix))
        })
    }

    /// Calls `f` with the vector at dense index `i`: a one-read
    /// [`VectorCursor`].
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn with_vector<R>(&self, i: usize, f: impl FnOnce(&SparseVector) -> R) -> R {
        f(self.cursor().get(i))
    }

    /// A read cursor for a run of lookups (the survivors of one query).  It borrows the store, so [`DiskVectorStore::append`]
    /// (`&mut self`) cannot run while a cursor is alive: a pinned chunk is
    /// never stale, and invalidation stays the shared cache's job.
    pub fn cursor(&self) -> VectorCursor<'_> {
        VectorCursor {
            store: self,
            pinned: None,
        }
    }
}

/// Sequential-friendly reads from a [`DiskVectorStore`]: the cursor pins
/// the chunk of its last lookup and goes back to the store's shared LRU
/// (lock, rank refresh, possibly a disk read) only when the chunk index
/// changes — once per chunk of 256 vectors on an ascending walk
/// instead of once per vector.  It holds at most that one chunk.
#[derive(Debug)]
pub struct VectorCursor<'a> {
    store: &'a DiskVectorStore,
    pinned: Option<(usize, Arc<Vec<SparseVector>>)>,
}

impl VectorCursor<'_> {
    /// The vector at dense index `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn get(&mut self, i: usize) -> &SparseVector {
        let len = self.store.len;
        assert!(i < len, "vector index {i} out of range ({len})");
        let c = i / VECTOR_CHUNK;
        if !matches!(&self.pinned, Some((pinned, _)) if *pinned == c) {
            self.pinned = Some((c, self.store.chunk(c)));
        }
        let (_, chunk) = self.pinned.as_ref().expect("pinned above");
        &chunk[i % VECTOR_CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DatasetStore {
        let root =
            std::env::temp_dir().join(format!("smr-simjoin-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        DatasetStore::open(root).unwrap()
    }

    fn posting(doc: usize, weight: f64) -> Posting {
        Posting {
            doc,
            weight,
            bound: 0.0,
        }
    }

    #[test]
    fn partitioned_index_round_trips_and_ranges_terms() {
        let store = temp_store("index");
        // 3 terms spread over a vocabulary of 10; tiny target sizes are
        // irrelevant here (everything fits one partition anyway).
        let postings = vec![
            (7, posting(1, 0.5)),
            (0, posting(0, 0.9)),
            (0, posting(2, 0.4)),
            (9, posting(0, 0.1)),
        ];
        let index = PartitionedIndex::write(&store, "idx", postings, 10);
        assert_eq!(index.num_entries(), 4);
        assert!(index.num_partitions() >= 1);
        let p0 = index.partition(index.partition_of(TermId(0)));
        assert_eq!(p0.postings(0).len(), 2);
        // Doc order within a term is preserved, not re-sorted.
        assert_eq!(p0.postings(0).get(0).doc, 0);
        assert_eq!(p0.postings(0).get(1).doc, 2);
        let p9 = index.partition(index.partition_of(TermId(9)));
        assert_eq!(p9.postings(9).len(), 1);
        assert!(p9.postings(3).is_empty());
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn partitioned_index_splits_large_inputs_into_several_partitions() {
        let store = temp_store("split");
        let vocab = 50_000usize;
        let postings: Vec<(u32, Posting)> = (0..3 * TARGET_ENTRIES_PER_PARTITION)
            .map(|i| ((i % vocab) as u32, posting(i, 0.5)))
            .collect();
        let index = PartitionedIndex::write(&store, "idx", postings.clone(), vocab);
        assert!(index.num_partitions() > 1, "{}", index.num_partitions());
        // Every posting is found in its term's partition.
        for (term, p) in postings.iter().step_by(997) {
            let partition = index.partition(index.partition_of(TermId(*term)));
            assert!(partition.postings(*term).iter().any(|q| q.doc == p.doc));
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn empty_index_and_out_of_range_partitions_read_as_empty() {
        let store = temp_store("empty");
        let index = PartitionedIndex::write(&store, "idx", Vec::new(), 0);
        assert_eq!(index.num_partitions(), 1);
        assert!(index.partition(0).is_empty());
        assert_eq!(index.partition_of(TermId(1234)), 0, "clamped to the last");
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn appended_postings_land_in_their_partition_and_refresh_the_cache() {
        let store = temp_store("append-index");
        let postings = vec![(0, posting(0, 0.9)), (7, posting(1, 0.5))];
        let mut index = PartitionedIndex::write(&store, "idx", postings, 10);
        // Warm the cache so the append has a stale entry to invalidate.
        let p = index.partition_of(TermId(0));
        assert_eq!(index.partition(p).postings(0).len(), 1);
        index.append(vec![
            (0, posting(5, 0.3)),
            (3, posting(4, 0.2)),
            // Beyond the build-time vocabulary: clamps to the last
            // partition, matching `partition_of` on the lookup side.
            (1234, posting(6, 0.1)),
        ]);
        assert_eq!(index.num_entries(), 5);
        let part = index.partition(p);
        assert_eq!(part.postings(0).len(), 2, "append visible after warm read");
        assert_eq!(part.postings(0).get(1).doc, 5, "appends keep arrival order");
        assert_eq!(part.postings(3).len(), 1);
        let last = index.partition(index.partition_of(TermId(1234)));
        assert_eq!(last.postings(1234).len(), 1);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn vector_store_round_trips_across_chunk_boundaries() {
        let store = temp_store("vectors");
        let vectors: Vec<SparseVector> = (0..VECTOR_CHUNK + 3)
            .map(|i| SparseVector::from_entries([(TermId(i as u32), 1.0 + i as f64)]))
            .collect();
        let disk = DiskVectorStore::write(&store, "items", &vectors);
        assert_eq!(disk.len(), vectors.len());
        assert!(!disk.is_empty());
        for i in [0, 1, VECTOR_CHUNK - 1, VECTOR_CHUNK, VECTOR_CHUNK + 2] {
            disk.with_vector(i, |v| assert_eq!(v, &vectors[i], "vector {i}"));
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn cursor_walk_reads_every_chunk_once_and_agrees_with_with_vector() {
        let store = temp_store("cursor-walk");
        let vectors: Vec<SparseVector> = (0..2 * VECTOR_CHUNK + 7)
            .map(|i| SparseVector::from_entries([(TermId(i as u32), 1.0 + i as f64)]))
            .collect();
        let disk = DiskVectorStore::write(&store, "v", &vectors);
        let mut cursor = disk.cursor();
        let walked: Vec<SparseVector> = (0..disk.len()).map(|i| cursor.get(i).clone()).collect();
        drop(cursor);
        assert_eq!(walked, vectors);
        assert_eq!(
            disk.disk_reads(),
            vectors.len().div_ceil(VECTOR_CHUNK) as u64,
            "an in-order walk of a cold store reads each chunk once"
        );
        for (i, expected) in walked.iter().enumerate().step_by(37) {
            disk.with_vector(i, |v| assert_eq!(v, expected, "vector {i}"));
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn a_later_store_on_the_same_thread_never_sees_an_earlier_stores_chunk() {
        // The hazard a memo keyed by the store's address would have: the
        // first store is dropped, the second may land on the same address,
        // and the same indices must still read the second store's vectors.
        let store = temp_store("cursor-reuse");
        let read = |tag: f64| -> Vec<f64> {
            let vectors: Vec<SparseVector> = (0..VECTOR_CHUNK + 5)
                .map(|i| SparseVector::from_entries([(TermId(0), tag + i as f64)]))
                .collect();
            let disk = DiskVectorStore::write(&store, "v", &vectors);
            let mut cursor = disk.cursor();
            [0, 3, VECTOR_CHUNK, VECTOR_CHUNK + 4]
                .map(|i| cursor.get(i).weight(TermId(0)))
                .to_vec()
        };
        let c = VECTOR_CHUNK as f64;
        assert_eq!(read(1000.0), [1000.0, 1003.0, 1000.0 + c, 1004.0 + c]);
        assert_eq!(read(5000.0), [5000.0, 5003.0, 5000.0 + c, 5004.0 + c]);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn vector_store_append_rewrites_the_partial_chunk_and_extends() {
        let store = temp_store("append-vectors");
        let make = |i: usize| SparseVector::from_entries([(TermId(0), i as f64)]);
        let initial: Vec<SparseVector> = (0..VECTOR_CHUNK + 3).map(make).collect();
        let mut disk = DiskVectorStore::write(&store, "v", &initial);
        // Warm the partial chunk so the append must invalidate it.
        disk.with_vector(VECTOR_CHUNK + 2, |v| {
            assert_eq!(v.weight(TermId(0)), (VECTOR_CHUNK + 2) as f64)
        });
        let extra: Vec<SparseVector> = (initial.len()..2 * VECTOR_CHUNK + 5).map(make).collect();
        disk.append(&extra);
        assert_eq!(disk.len(), 2 * VECTOR_CHUNK + 5);
        for i in [
            0,
            VECTOR_CHUNK + 2,
            VECTOR_CHUNK + 3,
            2 * VECTOR_CHUNK,
            disk.len() - 1,
        ] {
            disk.with_vector(i, |v| {
                assert_eq!(v.weight(TermId(0)), i as f64, "vector {i}")
            });
        }
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn caches_stay_bounded_while_reads_stay_correct() {
        let store = temp_store("bounded");
        let vectors: Vec<SparseVector> = (0..(MAX_CACHED + 4) * VECTOR_CHUNK)
            .map(|i| SparseVector::from_entries([(TermId(0), i as f64)]))
            .collect();
        let disk = DiskVectorStore::write(&store, "v", &vectors);
        // Touch every chunk (more than the cache holds), then re-read.
        for i in (0..vectors.len()).step_by(VECTOR_CHUNK) {
            disk.with_vector(i, |v| assert_eq!(v.weight(TermId(0)), i as f64));
        }
        assert!(disk.cache.state.lock().unwrap().blocks.len() <= MAX_CACHED);
        disk.with_vector(0, |v| assert_eq!(v.weight(TermId(0)), 0.0));
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn eviction_is_reuse_aware_not_insertion_order() {
        let store = temp_store("lru");
        let vectors: Vec<SparseVector> = (0..(MAX_CACHED + 2) * VECTOR_CHUNK)
            .map(|i| SparseVector::from_entries([(TermId(0), i as f64)]))
            .collect();
        let disk = DiskVectorStore::write(&store, "v", &vectors);
        // Fill the cache with chunks 0..MAX_CACHED.
        for c in 0..MAX_CACHED {
            disk.with_vector(c * VECTOR_CHUNK, |_| ());
        }
        assert_eq!(disk.disk_reads(), MAX_CACHED as u64);
        // Re-touch chunk 0: under FIFO it would still be evicted next;
        // under LRU the eviction victim becomes chunk 1.
        disk.with_vector(0, |_| ());
        disk.with_vector(MAX_CACHED * VECTOR_CHUNK, |_| ());
        assert_eq!(disk.disk_reads(), MAX_CACHED as u64 + 1);
        // Chunk 0 survived the eviction...
        disk.with_vector(0, |_| ());
        assert_eq!(disk.disk_reads(), MAX_CACHED as u64 + 1);
        // ...chunk 1 did not.
        disk.with_vector(VECTOR_CHUNK, |_| ());
        assert_eq!(disk.disk_reads(), MAX_CACHED as u64 + 2);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn concurrent_misses_share_one_disk_read_per_partition() {
        let store = temp_store("stampede");
        // Terms cover the whole vocabulary so every partition is non-empty.
        let vocab = 3 * TARGET_ENTRIES_PER_PARTITION;
        let postings: Vec<(u32, Posting)> =
            (0..vocab).map(|i| (i as u32, posting(i, 0.5))).collect();
        let index = PartitionedIndex::write(&store, "idx", postings, vocab);
        let partitions = index.num_partitions();
        assert!(partitions > 1 && partitions <= MAX_CACHED);

        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // All threads rush every partition at once: without the
                    // in-flight guard each miss would decode its own copy.
                    barrier.wait();
                    for p in 0..partitions {
                        assert!(!index.partition(p).is_empty());
                    }
                });
            }
        });
        assert_eq!(
            index.disk_reads(),
            partitions as u64,
            "each partition must be read from disk exactly once"
        );
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    #[should_panic(expected = "side data read `v/chunk-0`")]
    fn foreign_data_under_a_chunk_name_fails_loudly_instead_of_reading_empty() {
        let store = temp_store("foreign");
        let vector = SparseVector::from_entries([(TermId(0), 1.0)]);
        let disk = DiskVectorStore::write(&store, "v", &[vector]);
        store.write("v/chunk-0", &[7u64]).unwrap();
        disk.with_vector(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vector_store_rejects_out_of_range_indices() {
        let store = temp_store("range");
        let disk = DiskVectorStore::write(&store, "v", &[]);
        disk.with_vector(0, |_| ());
    }
}
