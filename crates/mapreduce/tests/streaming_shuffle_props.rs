//! Property tests locking the streaming shuffle to a sequential reference
//! model: for random mapper/reducer instances over random inputs,
//! `JobResult.output` is **byte-identical** to a single-threaded
//! simulation of the MapReduce contract — across thread counts 1/2/8, map
//! task counts 1/7/64, and memory budgets {64 B, 4 KiB, 1 MiB, unlimited}
//! that force the disk-spilling shuffle path.  The shuffled bytes do not
//! move with the budget or the thread count either.
//!
//! The reducer family includes an order-sensitive op (`First`) so the
//! tests pin down not just the multiset of output records but the exact
//! deterministic ordering contract of the engine — including the
//! guarantee that spilled runs merge back in emission order.

use proptest::prelude::*;
use smr_mapreduce::partition::hash_partition;
use smr_mapreduce::prelude::*;

/// A mapper whose shape (fan-out, key space, key mixing) is generated per
/// test case.
struct RandomMapper {
    fanout: u32,
    key_mod: u32,
    mix: u32,
}

impl Mapper for RandomMapper {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&self, k: &u32, v: &u64, out: &mut Emitter<u32, u64>) {
        for f in 0..self.fanout {
            let key = k
                .wrapping_mul(2_654_435_761)
                .wrapping_add(f.wrapping_mul(self.mix))
                % self.key_mod;
            out.emit(key, v.wrapping_add(u64::from(f)));
        }
    }
}

/// The fold a reducer applies.
#[derive(Debug, Clone, Copy)]
enum Op {
    Sum,
    Max,
    Min,
    /// Keeps the first value in engine order — order-sensitive on purpose.
    First,
}

impl Op {
    fn from_index(i: u8) -> Op {
        match i % 4 {
            0 => Op::Sum,
            1 => Op::Max,
            2 => Op::Min,
            _ => Op::First,
        }
    }

    fn fold(self, values: &[u64]) -> u64 {
        match self {
            Op::Sum => values.iter().fold(0u64, |a, b| a.wrapping_add(*b)),
            Op::Max => values.iter().copied().max().unwrap_or(0),
            Op::Min => values.iter().copied().min().unwrap_or(0),
            Op::First => values.first().copied().unwrap_or(0),
        }
    }
}

struct OpReducer(Op);
impl Reducer for OpReducer {
    type Key = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(&self, k: &u32, vs: &[u64], out: &mut Emitter<u32, u64>) {
        out.emit(*k, self.0.fold(vs));
    }
}

struct Case {
    mapper: RandomMapper,
    op: Op,
    reduce_tasks: usize,
    input: Vec<(u32, u64)>,
}

impl Case {
    fn run(&self, budget: Option<u64>, threads: usize, map_tasks: usize) -> JobResult<u32, u64> {
        let job = Job::new(
            JobConfig::named("prop-model")
                .with_memory_budget(budget)
                .with_threads(threads)
                .with_map_tasks(map_tasks)
                .with_reduce_tasks(self.reduce_tasks),
        );
        job.run(&self.mapper, &OpReducer(self.op), self.input.clone())
    }

    /// A sequential simulation of the MapReduce contract, independent of
    /// the engine: map every record in input order, partition in emission
    /// order, stable-sort each partition by key, group adjacent keys and
    /// reduce.
    fn reference_model(&self) -> Vec<(u32, u64)> {
        let mut partitions: Vec<Vec<(u32, u64)>> =
            (0..self.reduce_tasks).map(|_| Vec::new()).collect();
        let mut emitter = Emitter::new();
        for (k, v) in &self.input {
            self.mapper.map(k, v, &mut emitter);
            emitter.drain_each(|key, value| {
                let p = hash_partition(&key, self.reduce_tasks);
                partitions[p].push((key, value));
            });
        }
        let reducer = OpReducer(self.op);
        let mut output = Vec::new();
        for mut partition in partitions {
            partition.sort_by_key(|(k, _)| *k);
            let mut i = 0;
            while i < partition.len() {
                let mut j = i + 1;
                while j < partition.len() && partition[j].0 == partition[i].0 {
                    j += 1;
                }
                let values: Vec<u64> = partition[i..j].iter().map(|(_, v)| *v).collect();
                let mut out = Emitter::new();
                reducer.reduce(&partition[i].0, &values, &mut out);
                output.extend(out.into_pairs());
                i = j;
            }
        }
        output
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_output_matches_the_sequential_model(
        input in proptest::collection::vec((0u32..40, 0u64..1_000), 0..70),
        fanout in 1u32..4,
        key_mod in 1u32..13,
        mix in 0u32..100,
        op_index in 0u8..4,
        reduce_tasks in 1usize..5,
    ) {
        let case = Case {
            mapper: RandomMapper { fanout, key_mod, mix },
            op: Op::from_index(op_index),
            reduce_tasks,
            input,
        };
        let reference = case.reference_model();
        for threads in [1usize, 2, 8] {
            for map_tasks in [1usize, 7, 64] {
                let streaming = case.run(None, threads, map_tasks).output;
                prop_assert!(
                    streaming == reference,
                    "engine diverged from model (threads={threads} map_tasks={map_tasks}): {streaming:?} != {reference:?}"
                );
            }
        }
    }

    #[test]
    fn spilled_output_is_byte_identical_across_budgets_and_threads(
        input in proptest::collection::vec((0u32..40, 0u64..1_000), 0..70),
        fanout in 1u32..4,
        key_mod in 1u32..13,
        mix in 0u32..100,
        op_index in 0u8..4,
        reduce_tasks in 1usize..5,
    ) {
        let case = Case {
            mapper: RandomMapper { fanout, key_mod, mix },
            op: Op::from_index(op_index),
            reduce_tasks,
            input,
        };
        let reference = case.reference_model();
        // 64 B holds at most five records per worker (a (u32, u64) pair
        // encodes to 12 bytes and the budget is split across threads), so
        // nearly every push spills; 4 KiB spills on larger cases only;
        // 1 MiB and None never do.
        let mut shuffle_bytes = None;
        for budget in [Some(64u64), Some(4096), Some(1 << 20), None] {
            for threads in [1usize, 2, 8] {
                let result = case.run(budget, threads, 7);
                let output = &result.output;
                prop_assert!(
                    output == &reference,
                    "budget={budget:?} threads={threads}: {output:?} != {reference:?}"
                );
                let bytes = result.metrics.shuffle_bytes;
                let first = *shuffle_bytes.get_or_insert(bytes);
                prop_assert!(
                    bytes == first,
                    "budget={budget:?} threads={threads}: shuffle_bytes {bytes} != {first}"
                );
            }
        }
    }
}
