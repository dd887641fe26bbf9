//! Partitioning of intermediate keys into reduce tasks.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The reduce partition in `0..num_partitions` that `key` belongs to.
///
/// Mirrors Hadoop's default hash partitioning.  The matching algorithms
/// rely only on the contract that *all* values of a key reach the same
/// reducer, never on which partition that is; but the reduce output is
/// emitted in partition order, so the hash pins the byte layout of every
/// job.
pub fn hash_partition<K: Hash>(key: &K, num_partitions: usize) -> usize {
    debug_assert!(num_partitions > 0);
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % num_partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        for key in 0u64..1000 {
            let a = hash_partition(&key, 7);
            let b = hash_partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let mut hits = vec![0usize; 8];
        for key in 0u64..4096 {
            hits[hash_partition(&key, 8)] += 1;
        }
        // Every partition should receive a non-trivial share of uniform keys.
        for h in hits {
            assert!(h > 4096 / 8 / 4, "partition starved: {h}");
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        assert_eq!(hash_partition(&"anything".to_string(), 1), 0);
    }
}
