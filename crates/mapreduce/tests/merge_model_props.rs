//! Property tests locking the tournament (loser-tree) merge to the
//! binary-heap merge it replaced: across run counts {1, 2, 7, 64} and
//! duplicate-key densities from all-distinct to nearly-all-equal, the two
//! merges must be **byte-identical** — same records, same order, same
//! `(key, run-position)` tie-break.  Values tag their `(run, position)` of
//! origin, so any deviation in the determinism contract (equal keys emit
//! in run order, within-run order intact) shows up as a concrete diff,
//! not just a multiset mismatch.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use smr_mapreduce::merge_runs;

/// The straightforward binary-heap merge the loser tree replaced — the
/// executable model of the `(key, run-position)` tie-break.
fn merge_runs_reference<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    struct HeapEntry<K, V> {
        key: K,
        value: V,
        run: usize,
    }
    impl<K: Ord, V> PartialEq for HeapEntry<K, V> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.run == other.run
        }
    }
    impl<K: Ord, V> Eq for HeapEntry<K, V> {}
    impl<K: Ord, V> PartialOrd for HeapEntry<K, V> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord, V> Ord for HeapEntry<K, V> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: the max-heap must surface the smallest (key, run).
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.run.cmp(&self.run))
        }
    }
    let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    let total: usize = iters.iter().map(|i| i.size_hint().0).sum();
    let mut heap: BinaryHeap<HeapEntry<K, V>> = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some((key, value)) = iter.next() {
            heap.push(HeapEntry { key, value, run });
        }
    }
    let mut merged = Vec::with_capacity(total);
    while let Some(entry) = heap.pop() {
        merged.push((entry.key, entry.value));
        if let Some((key, value)) = iters[entry.run].next() {
            heap.push(HeapEntry {
                key,
                value,
                run: entry.run,
            });
        }
    }
    merged
}

/// Deterministic xorshift so run shapes derive from one seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self, modulus: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % modulus
    }
}

/// Builds `run_count` sorted runs whose keys are drawn modulo `key_mod` —
/// small moduli force heavy duplicate-key collisions across runs.  Each
/// value records where the record came from.
fn build_runs(
    seed: u64,
    run_count: usize,
    key_mod: u64,
    max_len: usize,
) -> Vec<Vec<(u32, (u32, u32))>> {
    let mut rng = XorShift(seed | 1);
    (0..run_count)
        .map(|run| {
            let len = rng.next(max_len as u64 + 1) as usize;
            let mut records: Vec<(u32, (u32, u32))> = (0..len)
                .map(|position| {
                    let key = rng.next(key_mod) as u32;
                    (key, (run as u32, position as u32))
                })
                .collect();
            records.sort_by_key(|record| record.0);
            records
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tournament_merge_is_model_identical_to_the_heap_merge(
        seed in 1u64..1_000_000,
        key_mod in 1u64..48,
        max_len in 0usize..40,
    ) {
        for run_count in [1usize, 2, 7, 64] {
            let runs = build_runs(seed, run_count, key_mod, max_len);
            let tournament = merge_runs(runs.clone());
            let heap = merge_runs_reference(runs.clone());
            prop_assert!(
                tournament == heap,
                "loser tree diverged from the heap model: run_count={run_count} \
                 key_mod={key_mod} runs={runs:?}"
            );
        }
    }

    #[test]
    fn all_equal_keys_emit_in_exact_run_position_order(
        run_count_index in 0usize..4,
        len in 1usize..12,
    ) {
        // The degenerate density: every record shares one key, so the
        // output order IS the tie-break contract and nothing else.
        let run_count = [1usize, 2, 7, 64][run_count_index];
        let runs: Vec<Vec<(u32, (u32, u32))>> = (0..run_count)
            .map(|run| {
                (0..len)
                    .map(|position| (7u32, (run as u32, position as u32)))
                    .collect()
            })
            .collect();
        let merged = merge_runs(runs.clone());
        let expected: Vec<(u32, (u32, u32))> = runs.iter().flatten().copied().collect();
        prop_assert!(merged == expected, "tie-break order broken: {merged:?}");
        prop_assert_eq!(&merged, &merge_runs_reference(runs));
    }
}
