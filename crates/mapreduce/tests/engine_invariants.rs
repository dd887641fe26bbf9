//! Property-based and integration tests of the MapReduce engine's
//! contract: the result of a job never depends on the number of map tasks,
//! reduce partitions or worker threads, the built-in counters are
//! consistent with each other at every memory budget, no value is
//! copied between a mapper's `emit` and the reducer that reads it, and a
//! round's state records move from round to round without a copy.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use smr_mapreduce::prelude::*;
use smr_storage::CodecError;

/// Mapper that explodes each record into (key mod groups, value) pairs.
struct Spread {
    groups: u32,
}

impl Mapper for Spread {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&self, k: &u32, v: &u64, out: &mut Emitter<u32, u64>) {
        out.emit(k % self.groups, *v);
        out.emit((k + 1) % self.groups, v / 2);
    }
}

struct Max;

impl Reducer for Max {
    type Key = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(&self, k: &u32, vs: &[u64], out: &mut Emitter<u32, u64>) {
        out.emit(*k, vs.iter().copied().max().unwrap_or(0));
    }
}

/// A shuffled value whose every `Clone` is counted.
#[derive(Debug, PartialEq)]
struct Tracked(u64);

static TRACKED_CLONES: AtomicU64 = AtomicU64::new(0);

impl Clone for Tracked {
    fn clone(&self) -> Self {
        TRACKED_CLONES.fetch_add(1, Ordering::Relaxed);
        Tracked(self.0)
    }
}

impl Codec for Tracked {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        u64::decode(input).map(Tracked)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

/// Emits, for input record `i`, the freshly built values `2i` and `2i + 1`
/// under two keys: ids ascend in (map task, emission) order.
struct Track {
    groups: u32,
}

impl Mapper for Track {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = Tracked;
    fn map(&self, i: &u32, _: &u64, out: &mut Emitter<u32, Tracked>) {
        out.emit(i % self.groups, Tracked(2 * *i as u64));
        out.emit((i + 1) % self.groups, Tracked(2 * *i as u64 + 1));
    }
}

/// Emits every group's value ids in the order the reducer saw them.
struct Ids;

impl Reducer for Ids {
    type Key = u32;
    type InValue = Tracked;
    type OutKey = u32;
    type OutValue = Vec<u64>;
    fn reduce(&self, k: &u32, vs: &[Tracked], out: &mut Emitter<u32, Vec<u64>>) {
        out.emit(*k, vs.iter().map(|v| v.0).collect());
    }
}

#[test]
fn shuffled_values_reach_the_reducer_by_move_in_shuffle_order() {
    let input: Vec<(u32, u64)> = (0..600u32).map(|i| (i, 0)).collect();
    let groups = 7u32;
    for threads in [1, 2] {
        // A map task buffers 300 records of 12 encoded bytes, past the
        // 2 KiB budget at either thread count.
        for budget in [None, Some(2048)] {
            let job = Job::new(
                JobConfig::named("by-move")
                    .with_threads(threads)
                    .with_map_tasks(4)
                    .with_reduce_tasks(3)
                    .with_memory_budget(budget),
            );
            let result = job.run(&Track { groups }, &Ids, input.clone());
            assert_eq!(result.metrics.disk_runs > 0, budget.is_some());
            assert_eq!(result.output.len(), groups as usize);
            let mut seen = 0;
            for (key, ids) in &result.output {
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "threads={threads} budget={budget:?}: group {key} out of shuffle order"
                );
                seen += ids.len();
            }
            assert_eq!(seen, 2 * input.len());
        }
    }
    assert_eq!(
        TRACKED_CLONES.load(Ordering::Relaxed),
        0,
        "a job never clones a value between map output and reducer input"
    );
}

/// A round-state record whose every `Clone` is counted.
#[derive(Debug, PartialEq)]
struct TrackedState(u64);

static STATE_CLONES: AtomicU64 = AtomicU64::new(0);

impl Clone for TrackedState {
    fn clone(&self) -> Self {
        STATE_CLONES.fetch_add(1, Ordering::Relaxed);
        TrackedState(self.0)
    }
}

impl Codec for TrackedState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        u64::decode(input).map(TrackedState)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

/// Every key tells the next one its counter; a key doubles its counter,
/// adds what it heard, reports the result, tells the next key again and
/// retires past 1 000.
struct Pass {
    keys: u32,
}

impl Pass {
    fn notes(&self, k: &u32, state: &TrackedState, out: &mut Emitter<u32, u64>) {
        out.emit((k + 1) % self.keys, state.0);
    }
}

impl StateReducer for Pass {
    type Key = u32;
    type State = TrackedState;
    type Note = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(
        &self,
        k: &u32,
        mut state: TrackedState,
        notes: &[u64],
        out: &mut Emitter<u32, u64>,
        next: &mut Emitter<u32, u64>,
    ) -> Option<TrackedState> {
        state.0 = 2 * state.0 + notes.iter().sum::<u64>();
        out.emit(*k, state.0);
        let kept = (state.0 <= 1_000).then_some(state);
        if let Some(state) = &kept {
            self.notes(k, state, next);
        }
        kept
    }
}

#[test]
fn round_state_records_move_and_are_never_cloned() {
    let keys = 600u32;
    let mut traces = Vec::new();
    for threads in [1, 2] {
        // 600 records of 12 encoded bytes over 3 partitions: at 4 KiB
        // every partition outgrows its 1 365-byte share.
        for budget in [None, Some(4096)] {
            let flow = FlowContext::new(
                JobConfig::named("state-by-move")
                    .with_threads(threads)
                    .with_reduce_tasks(3)
                    .with_memory_budget(budget),
            );
            let mut state = flow.round_state("tracked");
            state.seed(
                (0..keys)
                    .map(|k| (k, TrackedState(u64::from(k % 7) + 1)))
                    .collect(),
            );
            let pass = Pass { keys };
            state.map(|k, s, out| pass.notes(k, s, out));
            let mut trace = Vec::new();
            while !state.is_empty() {
                trace.push(state.round("pass", Pass { keys }));
            }
            traces.push(trace);
        }
    }
    assert!(traces[0].len() >= 3, "the workload must iterate");
    assert!(
        traces.iter().all(|trace| *trace == traces[0]),
        "the layout is pinned: same side output at every thread count and budget"
    );
    assert_eq!(
        STATE_CLONES.load(Ordering::Relaxed),
        0,
        "state records move from round to round, never clone"
    );
}

fn reference(input: &[(u32, u64)], groups: u32) -> std::collections::BTreeMap<u32, u64> {
    let mut expected: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for (k, v) in input {
        let first = expected.entry(k % groups).or_insert(0);
        *first = (*first).max(*v);
        let second = expected.entry((k + 1) % groups).or_insert(0);
        *second = (*second).max(v / 2);
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_is_independent_of_parallelism(
        input in proptest::collection::vec((0u32..50, 0u64..1_000), 0..80),
        groups in 1u32..8,
        map_tasks in 1usize..7,
        reduce_tasks in 1usize..6,
        threads in 1usize..5,
    ) {
        let job = Job::new(
            JobConfig::named("prop-parallelism")
                .with_map_tasks(map_tasks)
                .with_reduce_tasks(reduce_tasks)
                .with_threads(threads),
        );
        let result = job.run(&Spread { groups }, &Max, input.clone());
        let got: std::collections::BTreeMap<u32, u64> = result.output.into_iter().collect();
        prop_assert_eq!(got, reference(&input, groups));
    }

    #[test]
    fn builtin_counters_are_consistent(
        input in proptest::collection::vec((0u32..40, 0u64..100), 0..60),
        groups in 1u32..5,
        spill in 0u8..2,
    ) {
        // No budget, or 64 B: below one record per worker, so every task
        // spills.
        let budget = (spill == 1).then_some(64u64);
        let job = Job::new(
            JobConfig::named("prop-counters")
                .with_threads(3)
                .with_memory_budget(budget),
        );
        let result = job.run(&Spread { groups }, &Max, input.clone());
        let m = &result.metrics;
        prop_assert_eq!(m.map_input_records, input.len() as u64);
        // Spread emits exactly two records per input record.
        prop_assert_eq!(m.map_output_records, 2 * input.len() as u64);
        // Everything emitted is shuffled, spilled or not.
        prop_assert_eq!(m.shuffle_records, m.map_output_records);
        if budget.is_none() {
            prop_assert_eq!(m.disk_runs, 0);
        }
        // Max emits one record per group; groups cannot exceed the key space.
        prop_assert_eq!(m.reduce_output_records, m.reduce_input_groups);
        prop_assert!(m.reduce_input_groups <= groups as u64);
        prop_assert_eq!(m.reduce_output_records as usize, result.output.len());
    }
}
