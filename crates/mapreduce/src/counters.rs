//! Job counters.
//!
//! Hadoop jobs expose named counters (records read, records written, bytes
//! shuffled, …) that the paper's efficiency evaluation relies on.  This
//! module provides the same facility: cheap, thread-safe named counters
//! that map/reduce tasks bump while they run and that the experiment
//! harness reads afterwards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A single monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn increment(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Well-known counter names used by the engine itself.
pub mod builtin {
    /// Records read by map tasks.
    pub const MAP_INPUT_RECORDS: &str = "map_input_records";
    /// Records emitted by map tasks.
    pub const MAP_OUTPUT_RECORDS: &str = "map_output_records";
    /// Records that crossed the shuffle into reduce partitions.
    pub const SHUFFLE_RECORDS: &str = "shuffle_records";
    /// Encoded bytes ([`smr_storage::Codec::encoded_len`]) of the records
    /// that crossed the shuffle.
    pub const SHUFFLE_BYTES: &str = "shuffle_bytes";
    /// Sorted runs merged by the streaming shuffle.
    pub const MERGE_RUNS: &str = "merge_runs";
    /// Encoded bytes of sorted runs spilled to disk under a memory budget.
    pub const SPILL_BYTES: &str = "spill_bytes";
    /// Sorted runs spilled to disk under a memory budget.
    pub const DISK_RUNS: &str = "disk_runs";
    /// Distinct key groups presented to reducers.
    pub const REDUCE_INPUT_GROUPS: &str = "reduce_input_groups";
    /// Records emitted by reduce tasks.
    pub const REDUCE_OUTPUT_RECORDS: &str = "reduce_output_records";
}

/// A named collection of counters shared by all tasks of a job.
///
/// Cloning a `Counters` handle is cheap (it is an `Arc` internally) and all
/// clones observe the same values.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    inner: Arc<RwLock<BTreeMap<String, Arc<Counter>>>>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Returns the counter with the given name, creating it at zero if it
    /// does not exist yet.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().get(name) {
            return Arc::clone(c);
        }
        let mut guard = self.inner.write();
        Arc::clone(
            guard
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Current value of the named counter (zero if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.read().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.increment();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counters_create_on_demand_and_share() {
        let cs = Counters::new();
        assert_eq!(cs.get("missing"), 0);
        cs.add("a", 3);
        cs.add("a", 2);
        assert_eq!(cs.get("a"), 5);
        let snap = cs.snapshot();
        assert_eq!(snap.get("a"), Some(&5));
    }

    #[test]
    fn counters_are_shared_across_clones_and_threads() {
        let cs = Counters::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cs = cs.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    cs.add("n", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cs.get("n"), 8000);
    }
}
