//! The streaming shuffle: external k-way merge of per-task sorted runs.
//!
//! Every map task hands the shuffle *sorted runs* per reduce partition —
//! in memory normally, on disk when the task ran over its memory budget
//! and spilled.
//! Bringing a partition into reducer order is then a k-way merge of k
//! already-sorted runs — `O(n log k)` comparisons instead of an
//! `O(n log n)` full re-sort, and no concatenated intermediate copy.  The
//! merge is *external*: file runs and in-memory runs (the two arms of
//! `smr_storage::Run`) stream through the same tournament one record at a
//! time, so a partition whose runs live on disk is merged without ever
//! materializing more than one record per run.
//!
//! The merge core is a **loser tree** — a tournament where each internal
//! node remembers the *loser* of its match, so replacing the winner's head
//! record replays only the winner's root path (`log k` comparisons, where
//! a binary heap's pop-then-push pays roughly three times that).  On top
//! of it sits a "winner stays" fast path: the tree caches the runner-up
//! leaf, and when a refilled stream's next record still beats that
//! runner-up — the common case for runs with long sorted stretches — the
//! emit costs a single comparison and no replay at all.  The
//! `merge_model_props` suite pins the tournament byte-identical to a plain
//! binary-heap merge.
//!
//! Determinism: runs are merged in **(task index, spill sequence) order**
//! and the merge breaks key ties by run position, so records with equal
//! keys appear in exactly the order a sequential single-threaded execution
//! would produce — regardless of which worker thread ran which task and of
//! where each run's bytes live.

use std::cmp::Ordering;

/// Sentinel for [`LoserTree::runner_up`]: no cached runner-up, the next
/// pop must replay.
const NO_RUNNER_UP: usize = usize::MAX;

/// The tournament at the heart of the merge.
///
/// Streams occupy the leaves (padded to a power of two; padding leaves
/// hold a permanently-exhausted head).  Internal node `n` stores the leaf
/// that *lost* the match played there, and `losers[0]` holds the overall
/// winner.  Emitting the winner therefore replays only the winner's
/// leaf-to-root path: at each node the new contender plays the stored
/// loser, swapping in when it loses.  Heads compare by `(exhausted, key,
/// leaf index)` — exhausted streams sort last, and the leaf-index
/// tie-break is exactly the run-position determinism contract.
///
/// The replay also tracks the minimum over the path's losers, which after
/// a full replay *is* the global runner-up (the second-best head must have
/// lost its last match to the winner, so it sits on the winner's path).
/// That cached runner-up powers the fast path in [`LoserTree::pop`].
struct LoserTree<K, V, I> {
    streams: Vec<I>,
    /// Head record of each leaf; `None` = exhausted (or padding).
    heads: Vec<Option<(K, V)>>,
    /// `losers[0]`: the winning leaf.  `losers[1..]`: per-node losers.
    losers: Vec<usize>,
    /// Leaf count — `streams.len()` padded to a power of two.
    capacity: usize,
    /// Best non-winner leaf, or [`NO_RUNNER_UP`] when not cached.
    runner_up: usize,
}

impl<K: Ord, V, I: Iterator<Item = (K, V)>> LoserTree<K, V, I> {
    fn new(streams: Vec<I>) -> Self {
        let mut streams = streams;
        let capacity = streams.len().next_power_of_two().max(1);
        let mut heads: Vec<Option<(K, V)>> = Vec::with_capacity(capacity);
        for stream in streams.iter_mut() {
            heads.push(stream.next());
        }
        heads.resize_with(capacity, || None);
        let mut tree = LoserTree {
            streams,
            heads,
            losers: vec![0; capacity],
            capacity,
            runner_up: NO_RUNNER_UP,
        };
        tree.build();
        tree
    }

    /// Plays the full tournament bottom-up, filling every node's loser.
    fn build(&mut self) {
        // winner[n] for the implicit tree with leaves at capacity..2*capacity.
        let mut winner: Vec<usize> = vec![0; 2 * self.capacity];
        for leaf in 0..self.capacity {
            winner[self.capacity + leaf] = leaf;
        }
        for node in (1..self.capacity).rev() {
            let (a, b) = (winner[2 * node], winner[2 * node + 1]);
            if self.beats(a, b) {
                winner[node] = a;
                self.losers[node] = b;
            } else {
                winner[node] = b;
                self.losers[node] = a;
            }
        }
        self.losers[0] = winner[1];
    }

    /// Whether leaf `a`'s head wins against leaf `b`'s: present beats
    /// exhausted, then smaller key, then smaller leaf index (run order).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Emits the smallest head, refills its stream and restores the
    /// tournament — via the one-comparison fast path when the refilled
    /// record still beats the cached runner-up.
    fn pop(&mut self) -> Option<(K, V)> {
        let winner = self.losers[0];
        // The `?` must fire before touching `streams`: an exhausted
        // tournament can be won by a padding leaf with no stream behind it.
        let record = self.heads[winner].take()?;
        self.heads[winner] = self.streams[winner].next();
        if self.runner_up == NO_RUNNER_UP || !self.beats(winner, self.runner_up) {
            self.replay(winner);
        }
        // else: winner stays — no other head changed, so the cached
        // runner-up is still the best of the rest.
        Some(record)
    }

    /// Replays `leaf`'s path to the root, swapping with stored losers,
    /// and re-caches the runner-up when it can.
    ///
    /// The runner-up cache is only valid when `leaf` itself wins the
    /// replay: then every match the winner ever won lies on this path, so
    /// the path's best loser is the global second-best — a second walk of
    /// the path computes it, paid only when the winner stayed (exactly the
    /// streak case the fast path then turns into one comparison per
    /// record).  When some other leaf takes over mid-path, the true
    /// runner-up may sit on the part of the *new* winner's path this
    /// replay never visited — the cache is dropped and the next pop
    /// replays unconditionally, keeping the no-streak replay at one
    /// comparison per level.
    fn replay(&mut self, leaf: usize) {
        let mut winner = leaf;
        let mut node = (self.capacity + leaf) / 2;
        while node >= 1 {
            if self.beats(self.losers[node], winner) {
                std::mem::swap(&mut self.losers[node], &mut winner);
            }
            node /= 2;
        }
        self.losers[0] = winner;
        if winner == leaf {
            let mut runner_up = NO_RUNNER_UP;
            let mut node = (self.capacity + leaf) / 2;
            while node >= 1 {
                if runner_up == NO_RUNNER_UP || self.beats(self.losers[node], runner_up) {
                    runner_up = self.losers[node];
                }
                node /= 2;
            }
            self.runner_up = runner_up;
        } else {
            self.runner_up = NO_RUNNER_UP;
        }
    }
}

/// Merges sorted in-memory runs into one sorted sequence.
///
/// Each input run must already be sorted by key (stable order within equal
/// keys).  Ties between runs are broken by run position: for equal keys,
/// records of `runs[0]` come before records of `runs[1]`, and so on — the
/// caller passes runs in task-index order to make the merge deterministic.
/// (Within one run the order is preserved automatically: at most one entry
/// per run lives in the tournament at a time.)
pub fn merge_runs<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    if runs.len() <= 1 {
        return runs.into_iter().next().unwrap_or_default();
    }
    merge_streams(runs.into_iter().map(Vec::into_iter).collect())
}

/// The general external merge behind [`merge_runs`]: merges any sorted
/// record streams (in-memory iterators, disk-run readers, or a mix) in
/// stream order, one buffered record per stream.
pub(crate) fn merge_streams<K: Ord, V, I>(streams: Vec<I>) -> Vec<(K, V)>
where
    I: Iterator<Item = (K, V)>,
{
    let total: usize = streams.iter().map(|i| i.size_hint().0).sum();
    let mut tree = LoserTree::new(streams);
    let mut merged = Vec::with_capacity(total);
    while let Some(record) = tree.pop() {
        merged.push(record);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: concatenate in run order, stable-sort by
    /// key — exactly what the legacy shuffle does.
    fn concat_and_sort<V: Clone>(runs: &[Vec<(u32, V)>]) -> Vec<(u32, V)> {
        let mut all: Vec<(u32, V)> = runs.iter().flatten().cloned().collect();
        all.sort_by_key(|record| record.0);
        all
    }

    #[test]
    fn zero_runs_merge_to_nothing() {
        let merged: Vec<(u32, char)> = merge_runs(Vec::new());
        assert!(merged.is_empty());
    }

    #[test]
    fn one_run_passes_through_unchanged() {
        let run = vec![(1u32, 'a'), (1, 'b'), (3, 'c')];
        assert_eq!(merge_runs(vec![run.clone()]), run);
    }

    #[test]
    fn empty_runs_among_nonempty_are_ignored() {
        let runs = vec![vec![], vec![(2u32, 'x')], vec![], vec![(1, 'y')]];
        assert_eq!(merge_runs(runs), vec![(1, 'y'), (2, 'x')]);
    }

    #[test]
    fn duplicate_keys_straddling_run_boundaries_keep_run_order() {
        // Key 5 appears in all three runs (twice in the first); the merge
        // must emit its values in run order with within-run order intact.
        let runs = vec![
            vec![(1u32, 'a'), (5, 'b'), (5, 'c')],
            vec![(5, 'd'), (9, 'e')],
            vec![(0, 'f'), (5, 'g')],
        ];
        let merged = merge_runs(runs.clone());
        assert_eq!(
            merged,
            vec![
                (0, 'f'),
                (1, 'a'),
                (5, 'b'),
                (5, 'c'),
                (5, 'd'),
                (5, 'g'),
                (9, 'e')
            ]
        );
        assert_eq!(merged, concat_and_sort(&runs));
    }

    #[test]
    fn run_entirely_greater_than_all_others_is_appended() {
        let runs = vec![
            vec![(100u32, 'x'), (200, 'y'), (300, 'z')],
            vec![(1, 'a'), (2, 'b')],
            vec![(3, 'c')],
        ];
        let merged = merge_runs(runs.clone());
        assert_eq!(
            merged,
            vec![
                (1, 'a'),
                (2, 'b'),
                (3, 'c'),
                (100, 'x'),
                (200, 'y'),
                (300, 'z')
            ]
        );
        assert_eq!(merged, concat_and_sort(&runs));
    }

    #[test]
    fn merge_agrees_with_concat_and_stable_sort_on_many_shapes() {
        // Deterministic pseudo-random runs with heavy key collisions.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move |modulus: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % modulus
        };
        for num_runs in [2usize, 3, 5, 8] {
            let mut runs: Vec<Vec<(u32, char)>> = Vec::new();
            let mut label = b'a';
            for _ in 0..num_runs {
                let len = next(9) as usize;
                let mut run: Vec<(u32, char)> = (0..len)
                    .map(|_| {
                        let key = next(6) as u32;
                        let value = label as char;
                        label = if label == b'z' { b'a' } else { label + 1 };
                        (key, value)
                    })
                    .collect();
                run.sort_by_key(|record| record.0);
                runs.push(run);
            }
            assert_eq!(
                merge_runs(runs.clone()),
                concat_and_sort(&runs),
                "runs={runs:?}"
            );
        }
    }

    #[test]
    fn tournament_handles_non_power_of_two_run_counts() {
        // 3, 5, 6 and 7 runs exercise the padding leaves (permanently
        // exhausted heads) the power-of-two tree adds.
        for num_runs in [3usize, 5, 6, 7] {
            let runs: Vec<Vec<(u32, u32)>> = (0..num_runs)
                .map(|r| {
                    (0..10u32)
                        .map(|i| (i * (r as u32 + 1) % 7, r as u32))
                        .collect::<Vec<_>>()
                })
                .map(|mut run| {
                    run.sort_by_key(|record| record.0);
                    run
                })
                .collect();
            assert_eq!(merge_runs(runs.clone()), concat_and_sort(&runs));
        }
    }

    #[test]
    fn external_merge_mixes_disk_and_memory_runs() {
        use smr_storage::{Run, RunFile, RunWriter};
        let path =
            std::env::temp_dir().join(format!("smr-shuffle-mixed-{}.run", std::process::id()));
        let disk_run = vec![(1u32, 'd'), (5, 'e')];
        let mut writer: RunWriter<(u32, char)> = RunWriter::create(&path).unwrap();
        for r in &disk_run {
            writer.push(r).unwrap();
        }
        let file = RunFile::new(writer.finish().unwrap(), None);

        let memory_run = vec![(2u32, 'm'), (5, 'n')];
        let streams = vec![
            Run::File(file).into_iter(),
            Run::Memory(memory_run.clone(), 0).into_iter(),
        ];
        let merged = merge_streams(streams);
        // Same result as an all-in-memory merge in the same run order —
        // including the (5, _) tie, broken by run position.
        assert_eq!(merged, merge_runs(vec![disk_run, memory_run]));
        assert_eq!(merged, vec![(1, 'd'), (2, 'm'), (5, 'e'), (5, 'n')]);
        assert!(!path.exists(), "the merged file run is removed");
    }
}
