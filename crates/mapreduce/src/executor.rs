//! The parallel job executor: map → partition → sort/spill → merge →
//! reduce, with disk spilling under a memory budget.
//!
//! The executor is an in-process model of a Hadoop job, built around a
//! *streaming* shuffle:
//!
//! 1. **Map** — worker threads pull map tasks from a work-stealing
//!    [`TaskQueue`] (an atomic claim index over never-empty input ranges).
//!    Each task routes every emitted pair straight into the bucket of its
//!    reduce partition ([`hash_partition`]), in emission order.
//! 2. **Spill** — each task keeps a running count of its buckets'
//!    encoded bytes ([`smr_storage::Codec::encoded_len`], the engine's
//!    one byte measure).  Under a [`JobConfig::memory_budget`], once the
//!    count passes the task's share of the budget, the task sorts every
//!    bucket into a *sorted run* written to a spill file through the
//!    job's `SpillManager` (`spill_bytes` / `disk_runs` metrics), and the
//!    buckets start over empty.
//! 3. **Run generation** — at task end every bucket is sorted once (at
//!    task granularity), yielding the task's final in-memory sorted run
//!    per partition.  Every sort is stable: equal keys keep their
//!    emission order.
//! 4. **Merge** — the shuffle k-way merges each reduce partition's runs
//!    (`O(n log k)`), streaming disk runs and in-memory runs through the
//!    same tournament.
//! 5. **Reduce** — worker threads pull reduce partitions from a second
//!    task queue, take the (already sorted) partition by value, unzip it
//!    once into group keys plus one contiguous value buffer and call the
//!    reducer once per group with a slice of that buffer: no value is
//!    copied between the merge's output and the reducer's input.
//!    A round over partition-resident state ([`crate::flow::RoundState`])
//!    runs the merge and reduce phases: reduce task *p* takes state
//!    partition *p* beside its merged notes and emits the next round's
//!    notes through the map side's own emission path (`TaskOutput`),
//!    as if it were map task *p*.
//!
//! Determinism: task indices, not worker threads, decide every ordering
//! decision — runs merge in `(task, spill sequence)` order and key ties
//! break by run — so `JobResult.output` is byte-identical for any thread
//! count **and any memory budget**: a job that spilled every few records
//! produces exactly the bytes of the unlimited-memory run.  Record counts,
//! shuffled bytes (the runs' encoded bytes), merged runs, spilled bytes
//! and per-phase wall time are recorded in [`JobMetrics`].

use std::mem;
use std::time::Instant;

use parking_lot::Mutex;
use smr_storage::{Run, SpillManager};

use crate::config::JobConfig;
use crate::counters::{builtin, Counters};
use crate::metrics::JobMetrics;
use crate::partition::hash_partition;
use crate::shuffle::merge_streams;
use crate::task_queue::{Task, TaskQueue};
use crate::types::{Emitter, Key, Mapper, ReduceGroups, Reducer, Value};

/// Below this many run records the k-way merge runs inline on the calling
/// thread: spawning merge workers costs more than the merge itself.
const PARALLEL_MERGE_MIN_RECORDS: usize = 8 * 1024;

/// Caps how many run files a merge worker holds open at once.  A tiny
/// memory budget over a large input spills thousands of runs per
/// partition; opening them all simultaneously exhausts the process file
/// descriptor limit (`EMFILE`).  Partitions with more runs than this merge
/// hierarchically: batches of at most this many runs collapse into
/// in-memory intermediate runs until one final merge remains.
const MAX_MERGE_FAN_IN: usize = 64;

/// One sorted run of a reduce partition, tagged with its origin so the
/// merge can order runs deterministically whatever the completion order
/// was: `(task, seq)` sorts spilled chunks of a task before the task's
/// final in-memory run, in emission order.
pub(crate) struct TaggedRun<K, V> {
    pub(crate) task: usize,
    pub(crate) seq: usize,
    pub(crate) run: Run<(K, V)>,
}

/// Every sorted run of a job, bucketed by reduce partition.
pub(crate) type TaggedRuns<K, V> = Vec<Mutex<Vec<TaggedRun<K, V>>>>;

/// The map side of one job: a bucket of tagged sorted runs per reduce
/// partition, filled by the job's [`TaskOutput`]s, and — under a memory
/// budget — the spill manager that writes the runs going to disk.
pub(crate) struct MapOutput<K, V> {
    runs: TaggedRuns<K, V>,
    spill: Option<SpillManager>,
}

impl<K: Key, V: Value> MapOutput<K, V> {
    /// An empty map side for a job under `config`.  The spill manager's
    /// directory is created on the first spill and removed with the last
    /// disk run, once the merge (or the shard export) has consumed them.
    pub(crate) fn new(config: &JobConfig) -> Self {
        MapOutput {
            runs: (0..config.effective_reduce_tasks())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            spill: config.memory_budget.map(|budget| {
                SpillManager::new(budget, config.effective_threads(), config.spill_dir.clone())
            }),
        }
    }

    /// The emission path of map task `task`.
    pub(crate) fn task(&self, task: usize) -> TaskOutput<'_, K, V> {
        TaskOutput {
            output: self,
            task,
            buckets: (0..self.runs.len())
                .map(|_| Bucket {
                    records: Vec::new(),
                    bytes: 0,
                })
                .collect(),
            buffered: 0,
            emitter: Emitter::new(),
            seq: 0,
            map_output: 0,
        }
    }

    /// Seals the map side once every task has finished: the spill
    /// counters land in `counters`, and the runs come back.
    pub(crate) fn finish(self, counters: &Counters) -> TaggedRuns<K, V> {
        if let Some(manager) = &self.spill {
            counters.add(builtin::SPILL_BYTES, manager.spilled_bytes());
            counters.add(builtin::DISK_RUNS, manager.disk_runs());
        }
        self.runs
    }
}

/// One reduce partition's records of a task, in emission order, and
/// their encoded bytes.
struct Bucket<K, V> {
    records: Vec<(K, V)>,
    bytes: u64,
}

/// One map task's emission path: every pair the task emits is appended
/// to the bucket of its reduce partition; under a memory budget, once the
/// buckets' encoded bytes pass the task's share they are sorted and
/// spilled to disk as runs; [`TaskOutput::finish`] adds the task's final
/// in-memory runs.  Every run is tagged with the task index and a spill
/// sequence number.  A map task and a round's reduce task emit through
/// the same type.
pub(crate) struct TaskOutput<'a, K, V> {
    output: &'a MapOutput<K, V>,
    task: usize,
    /// One bucket per reduce partition.
    buckets: Vec<Bucket<K, V>>,
    /// Encoded bytes across all buckets.
    buffered: u64,
    emitter: Emitter<K, V>,
    /// The next spilled chunk's sequence number: chunks get 0, 1, …, and
    /// the final in-memory run sorts after all of them (`usize::MAX`),
    /// preserving emission order.
    seq: usize,
    map_output: u64,
}

impl<K: Key, V: Value> TaskOutput<'_, K, V> {
    /// Runs `emit` with the task's emitter and routes what it emitted,
    /// spilling when the buckets have outgrown the task's share of the
    /// budget.  Returns what `emit` returned.
    pub(crate) fn emit<T>(&mut self, emit: impl FnOnce(&mut Emitter<K, V>) -> T) -> T {
        let result = emit(&mut self.emitter);
        let partitions = self.buckets.len();
        self.emitter.drain_each(|key, value| {
            let bytes = (key.encoded_len() + value.encoded_len()) as u64;
            self.map_output += 1;
            self.buffered += bytes;
            let bucket = &mut self.buckets[hash_partition(&key, partitions)];
            bucket.bytes += bytes;
            bucket.records.push((key, value));
        });
        let output = self.output;
        let Some(manager) = &output.spill else {
            return result;
        };
        if self.buffered > manager.task_budget() {
            self.flush(self.seq, |run, _| {
                manager
                    .write_run(&run)
                    .unwrap_or_else(|e| panic!("failed to spill run: {e}"))
            });
            self.seq += 1;
        }
        result
    }

    /// Seals the task: its final sorted runs join the map side, and its
    /// record count lands in `counters`.
    pub(crate) fn finish(mut self, counters: &Counters) {
        self.flush(usize::MAX, Run::Memory);
        counters.add(builtin::MAP_OUTPUT_RECORDS, self.map_output);
    }

    /// Empties every non-empty bucket into the map side as one run of its
    /// partition under spill sequence `seq`, stored by `store`.  The sort
    /// is stable, so equal keys keep their emission order.
    fn flush(&mut self, seq: usize, store: impl Fn(Vec<(K, V)>, u64) -> Run<(K, V)>) {
        self.buffered = 0;
        for (p, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.records.is_empty() {
                continue;
            }
            let mut run = mem::take(&mut bucket.records);
            run.sort_by(|a, b| a.0.cmp(&b.0));
            self.output.runs[p].lock().push(TaggedRun {
                task: self.task,
                seq,
                run: store(run, mem::take(&mut bucket.bytes)),
            });
        }
    }
}

/// The output of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult<K, V> {
    /// All pairs emitted by the reducers, in partition order.  Records
    /// within a partition appear in key order (the shuffle always sorts).
    pub output: Vec<(K, V)>,
    /// Engine-level metrics (record counts, timings).
    pub metrics: JobMetrics,
    /// The counter set shared with the tasks (includes built-in counters
    /// and any user counters bumped from map/reduce code).
    pub counters: Counters,
}

/// A configured MapReduce job, ready to run user functions over an input.
#[derive(Debug, Clone, Default)]
pub struct Job {
    config: JobConfig,
}

impl Job {
    /// Creates a job with the given configuration.
    pub fn new(config: JobConfig) -> Self {
        Job { config }
    }

    /// The job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Runs the job with a fresh counter set.
    pub fn run<M, R>(
        &self,
        mapper: &M,
        reducer: &R,
        input: Vec<(M::InKey, M::InValue)>,
    ) -> JobResult<R::OutKey, R::OutValue>
    where
        M: Mapper,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        self.run_full(mapper, reducer, input, Counters::new())
    }

    /// Runs the job with an externally supplied counter set, so user
    /// counters bumped from map/reduce code holding a clone of it land in
    /// the job's metrics.
    pub fn run_full<M, R>(
        &self,
        mapper: &M,
        reducer: &R,
        input: Vec<(M::InKey, M::InValue)>,
        counters: Counters,
    ) -> JobResult<R::OutKey, R::OutValue>
    where
        M: Mapper,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        let mut metrics = self.start_metrics(&counters, input.len());

        // A job opted into process sharding delegates to the installed
        // multi-process runtime (when a sharded session is active and gives
        // this process a role in the job): this process then plays
        // coordinator or worker.  See `sharded.rs`.
        let output = if let Some((runtime, job)) = self.shard_runtime() {
            self.run_process_sharded(
                (runtime.as_ref(), job),
                mapper,
                reducer,
                &input,
                &counters,
                &mut metrics,
            )
        } else {
            // Map + shuffle: one sorted vector of records per reduce
            // partition.  The merge consumes every disk run, removing its
            // file and, with the last one, the spill directory.
            let runs = self.map_records(mapper, &input, &counters, &mut metrics, None);
            let partitions = self.merge_phase(runs, &counters, &mut metrics);
            self.reduce_groups(reducer, partitions, &counters, &mut metrics)
        };
        finish_metrics(&counters, &mut metrics);

        JobResult {
            output,
            metrics,
            counters,
        }
    }

    /// The metrics a job starts with, and its input counter.
    pub(crate) fn start_metrics(&self, counters: &Counters, input_records: usize) -> JobMetrics {
        counters.add(builtin::MAP_INPUT_RECORDS, input_records as u64);
        JobMetrics {
            job_name: self.config.name.clone(),
            reduce_tasks: self.config.effective_reduce_tasks(),
            map_input_records: input_records as u64,
            ..JobMetrics::default()
        }
    }

    /// The streaming map phase over a job's input records, cut into
    /// contiguous near-equal map tasks: see [`Job::map_phase`].
    pub(crate) fn map_records<M: Mapper>(
        &self,
        mapper: &M,
        input: &[(M::InKey, M::InValue)],
        counters: &Counters,
        metrics: &mut JobMetrics,
        shard: Option<std::ops::Range<usize>>,
    ) -> TaggedRuns<M::OutKey, M::OutValue> {
        let queue = TaskQueue::split(input.len(), self.config.effective_map_tasks(input.len()));
        self.map_phase(queue, counters, metrics, shard, |task, out| {
            for (key, value) in &input[task.range.clone()] {
                out.emit(|emitter| mapper.map(key, value, emitter));
            }
        })
    }

    /// The streaming map phase: worker threads pull the tasks of `queue`
    /// and `map_task` feeds each task's input through its own
    /// [`TaskOutput`], yielding per-partition sorted runs (spilled to disk
    /// under a memory budget).  When `shard` is given, only map tasks
    /// whose index falls inside that range are executed — the task queue,
    /// the task index space and every per-task decision (spill points,
    /// run sequence numbers) are identical to an unsharded run, which is
    /// what makes runs produced by different processes merge to
    /// byte-identical output.
    pub(crate) fn map_phase<K: Key, V: Value>(
        &self,
        queue: TaskQueue,
        counters: &Counters,
        metrics: &mut JobMetrics,
        shard: Option<std::ops::Range<usize>>,
        map_task: impl Fn(&Task, &mut TaskOutput<'_, K, V>) + Sync,
    ) -> TaggedRuns<K, V> {
        let map_start = Instant::now();
        metrics.map_tasks = queue.num_tasks();
        let output = MapOutput::new(&self.config);
        crossbeam::thread::scope(|scope| {
            for _ in 0..self.config.effective_threads().min(queue.num_tasks()) {
                scope.spawn(|_| {
                    while let Some(task) = queue.claim() {
                        // A sharded worker claims from the *global* task
                        // queue but executes only its own slice: skipping
                        // is cheap and keeps task indices identical to an
                        // unsharded run.
                        if shard.as_ref().is_some_and(|s| !s.contains(&task.index)) {
                            continue;
                        }
                        let mut out = output.task(task.index);
                        map_task(&task, &mut out);
                        out.finish(counters);
                    }
                });
            }
        })
        .expect("map worker thread panicked");
        metrics.timings.map = map_start.elapsed();
        output.finish(counters)
    }

    /// The shuffle: k-way merge each partition's runs (parallel over
    /// partitions), streaming disk and memory runs uniformly.  Small jobs
    /// merge inline: spawning workers costs more than merging a few
    /// thousand records, and the merged result is identical either way
    /// (no ordering decision depends on the execution site).
    ///
    /// Runs may come from the local map phase or — in a sharded session —
    /// from run files that worker processes shipped back: the
    /// `(task, seq)` sort makes the merge indifferent to where a run was
    /// produced.
    pub(crate) fn merge_phase<K: Key, V: Value>(
        &self,
        runs: TaggedRuns<K, V>,
        counters: &Counters,
        metrics: &mut JobMetrics,
    ) -> Vec<Vec<(K, V)>> {
        let num_threads = self.config.effective_threads();
        let num_reduce_tasks = runs.len();
        let runs_ref = &runs;

        let shuffle_start = Instant::now();
        let merge_queue = TaskQueue::unit(num_reduce_tasks);
        type MergedPartitions<K, V> = Vec<Mutex<Vec<(K, V)>>>;
        let merged: MergedPartitions<K, V> = (0..num_reduce_tasks)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let merge_queue_ref = &merge_queue;
        let merged_ref = &merged;

        let merge_worker = || {
            let mut shuffled = 0u64;
            let mut shuffled_bytes = 0u64;
            let mut runs_merged = 0u64;
            while let Some(task) = merge_queue_ref.claim() {
                let mut partition_runs = mem::take(&mut *runs_ref[task.index].lock());
                partition_runs.sort_unstable_by_key(|run| (run.task, run.seq));
                runs_merged += partition_runs.len() as u64;
                shuffled_bytes += partition_runs.iter().map(|t| t.run.bytes()).sum::<u64>();
                let runs = partition_runs.into_iter().map(|t| t.run).collect();
                let partition = merge_sources(runs, MAX_MERGE_FAN_IN);
                shuffled += partition.len() as u64;
                *merged_ref[task.index].lock() = partition;
            }
            counters.add(builtin::SHUFFLE_RECORDS, shuffled);
            counters.add(builtin::SHUFFLE_BYTES, shuffled_bytes);
            counters.add(builtin::MERGE_RUNS, runs_merged);
        };
        let run_records: usize = runs
            .iter()
            .map(|partition| partition.lock().iter().map(|t| t.run.len()).sum::<usize>())
            .sum();
        let merge_threads = if run_records < PARALLEL_MERGE_MIN_RECORDS {
            1
        } else {
            num_threads.min(num_reduce_tasks)
        };
        if merge_threads <= 1 {
            merge_worker();
        } else {
            let merge_worker_ref = &merge_worker;
            crossbeam::thread::scope(|scope| {
                for _ in 0..merge_threads {
                    scope.spawn(move |_| merge_worker_ref());
                }
            })
            .expect("merge worker thread panicked");
        }
        metrics.timings.shuffle = shuffle_start.elapsed();

        merged.into_iter().map(Mutex::into_inner).collect()
    }

    /// The reduce phase of a plain job: `reducer` once per group of every
    /// merged partition.
    pub(crate) fn reduce_groups<R: Reducer>(
        &self,
        reducer: &R,
        partitions: Vec<Vec<(R::Key, R::InValue)>>,
        counters: &Counters,
        metrics: &mut JobMetrics,
    ) -> Vec<(R::OutKey, R::OutValue)> {
        let units = vec![(); partitions.len()];
        self.reduce_phase(
            partitions,
            units,
            |_, (), groups, out| {
                for (key, values) in groups {
                    reducer.reduce(key, values, out);
                }
            },
            counters,
            metrics,
        )
        .0
    }

    /// The reduce phase: workers pull sorted partitions from a task
    /// queue, take each by value together with its `state` entry — `()`
    /// for a plain job, the state partition for a round
    /// ([`crate::flow::RoundState`]) — group the partition by key
    /// ([`GroupedPartition`]) and run `task` over the groups.  Output is
    /// concatenated in partition order; the tasks' results come back in
    /// partition order too.
    pub(crate) fn reduce_phase<K, V, S, T, OK, OV>(
        &self,
        partitions: Vec<Vec<(K, V)>>,
        state: Vec<S>,
        task: impl Fn(usize, S, ReduceGroups<'_, K, V>, &mut Emitter<OK, OV>) -> T + Sync,
        counters: &Counters,
        metrics: &mut JobMetrics,
    ) -> (Vec<(OK, OV)>, Vec<T>)
    where
        K: Key,
        V: Value,
        S: Send,
        T: Send,
        OK: Send,
        OV: Send,
    {
        assert_eq!(partitions.len(), state.len(), "one state per partition");
        let num_threads = self.config.effective_threads();
        let num_reduce_tasks = partitions.len();

        let reduce_start = Instant::now();
        type PartitionResults<K, V, T> = Mutex<Vec<(usize, Vec<(K, V)>, T)>>;
        let partition_results: PartitionResults<OK, OV, T> =
            Mutex::new(Vec::with_capacity(num_reduce_tasks));
        let reduce_queue = TaskQueue::unit(num_reduce_tasks);
        let reduce_queue_ref = &reduce_queue;
        // Each task takes its partition and state out of their slot: the
        // records move into the task's value buffer and are freed when the
        // task ends.
        type TaskInputs<K, V, S> = Vec<Mutex<Option<(Vec<(K, V)>, S)>>>;
        let inputs: TaskInputs<K, V, S> = partitions
            .into_iter()
            .zip(state)
            .map(|input| Mutex::new(Some(input)))
            .collect();
        let inputs_ref = &inputs;
        let task_ref = &task;

        crossbeam::thread::scope(|scope| {
            for _ in 0..num_threads.min(num_reduce_tasks) {
                scope.spawn(|_| {
                    while let Some(claimed) = reduce_queue_ref.claim() {
                        let (partition, state) = inputs_ref[claimed.index]
                            .lock()
                            .take()
                            .expect("every reduce task is claimed once");
                        let grouped = GroupedPartition::new(partition);
                        let mut emitter = Emitter::new();
                        let result = task_ref(claimed.index, state, grouped.groups(), &mut emitter);
                        counters.add(builtin::REDUCE_INPUT_GROUPS, grouped.keys.len() as u64);
                        let out = emitter.into_pairs();
                        counters.add(builtin::REDUCE_OUTPUT_RECORDS, out.len() as u64);
                        partition_results.lock().push((claimed.index, out, result));
                    }
                });
            }
        })
        .expect("reduce worker thread panicked");

        let mut partition_results = partition_results.into_inner();
        partition_results.sort_unstable_by_key(|(index, _, _)| *index);
        let mut output =
            Vec::with_capacity(partition_results.iter().map(|(_, o, _)| o.len()).sum());
        let mut results = Vec::with_capacity(num_reduce_tasks);
        for (_, out, result) in partition_results {
            output.extend(out);
            results.push(result);
        }
        metrics.timings.reduce = reduce_start.elapsed();
        (output, results)
    }
}

/// Copies the end-of-job counter totals into the metrics struct — the
/// epilogue every execution path (local, sharded coordinator, sharded
/// worker) shares.
pub(crate) fn finish_metrics(counters: &Counters, metrics: &mut JobMetrics) {
    metrics.map_output_records = counters.get(builtin::MAP_OUTPUT_RECORDS);
    metrics.shuffle_records = counters.get(builtin::SHUFFLE_RECORDS);
    metrics.shuffle_bytes = counters.get(builtin::SHUFFLE_BYTES);
    metrics.merge_runs = counters.get(builtin::MERGE_RUNS);
    metrics.spill_bytes = counters.get(builtin::SPILL_BYTES);
    metrics.disk_runs = counters.get(builtin::DISK_RUNS);
    metrics.reduce_input_groups = counters.get(builtin::REDUCE_INPUT_GROUPS);
    metrics.reduce_output_records = counters.get(builtin::REDUCE_OUTPUT_RECORDS);
    metrics.user_counters = counters.snapshot();
}

/// Merges a reduce partition's runs (already in `(task, seq)` order) into
/// one sorted vector, holding at most `fan_in` run files open at a time.
///
/// When the partition has more runs than `fan_in`, batches of `fan_in`
/// consecutive runs collapse into in-memory intermediate runs, pass after
/// pass, until a single final merge remains — `⌈log_fan_in(runs)⌉` passes,
/// in practice two.  Merging consecutive runs keeps equal keys in exactly
/// the run order of a flat merge, so the output is byte-identical to the
/// unbounded merge.  Each file run's file is removed once it is merged.
fn merge_sources<K: Key, V: Value>(mut runs: Vec<Run<(K, V)>>, fan_in: usize) -> Vec<(K, V)> {
    let merge =
        |batch: Vec<Run<(K, V)>>| merge_streams(batch.into_iter().map(Run::into_iter).collect());
    let fan_in = fan_in.max(2);
    while runs.len() > fan_in {
        let mut rest = runs.into_iter();
        runs = Vec::new();
        loop {
            let batch: Vec<_> = rest.by_ref().take(fan_in).collect();
            if batch.is_empty() {
                break;
            }
            let bytes = batch.iter().map(Run::bytes).sum();
            runs.push(Run::Memory(merge(batch), bytes));
        }
    }
    merge(runs)
}

/// A sorted reduce partition unzipped, by move, into one key per group
/// and one contiguous value buffer: equal keys are adjacent (the shuffle
/// always sorts), so grouping is a single pass that keeps the first key
/// of every run, drops the repeats and clones nothing.
struct GroupedPartition<K, V> {
    keys: Vec<K>,
    /// `ends[i]` is one past group `i`'s last value; parallel to `keys`.
    ends: Vec<usize>,
    values: Vec<V>,
}

impl<K: PartialEq, V> GroupedPartition<K, V> {
    fn new(partition: Vec<(K, V)>) -> Self {
        let mut keys: Vec<K> = Vec::new();
        let mut ends = Vec::new();
        let mut values = Vec::with_capacity(partition.len());
        for (key, value) in partition {
            if keys.last() == Some(&key) {
                *ends.last_mut().expect("one end per key") += 1;
            } else {
                keys.push(key);
                ends.push(values.len() + 1);
            }
            values.push(value);
        }
        GroupedPartition { keys, ends, values }
    }

    fn groups(&self) -> ReduceGroups<'_, K, V> {
        ReduceGroups::new(&self.keys, &self.ends, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SplitWords;
    impl Mapper for SplitWords {
        type InKey = usize;
        type InValue = String;
        type OutKey = String;
        type OutValue = u64;
        fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
            for w in text.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }
    }

    struct SumCounts;
    impl Reducer for SumCounts {
        type Key = String;
        type InValue = u64;
        type OutKey = String;
        type OutValue = u64;
        fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
            out.emit(k.clone(), vs.iter().sum());
        }
    }

    fn word_count_input() -> Vec<(usize, String)> {
        vec![
            (0, "the quick brown fox".to_string()),
            (1, "the lazy dog".to_string()),
            (2, "the quick dog".to_string()),
            (3, "fox fox fox".to_string()),
        ]
    }

    fn expected_counts() -> Vec<(String, u64)> {
        let mut v = vec![
            ("the".to_string(), 3),
            ("quick".to_string(), 2),
            ("brown".to_string(), 1),
            ("fox".to_string(), 4),
            ("lazy".to_string(), 1),
            ("dog".to_string(), 2),
        ];
        v.sort();
        v
    }

    #[test]
    fn word_count_without_combiner() {
        let job = Job::new(JobConfig::named("wc").with_threads(4));
        let result = job.run(&SplitWords, &SumCounts, word_count_input());
        let mut out = result.output;
        out.sort();
        assert_eq!(out, expected_counts());
        assert_eq!(result.metrics.map_input_records, 4);
        assert_eq!(result.metrics.map_output_records, 13);
        assert_eq!(result.metrics.shuffle_records, 13);
        assert_eq!(result.metrics.reduce_input_groups, 6);
        assert_eq!(result.metrics.reduce_output_records, 6);
        assert!(result.metrics.shuffle_bytes > 0);
    }

    #[test]
    fn result_is_independent_of_task_and_thread_counts() {
        let baseline = {
            let job = Job::new(JobConfig::named("wc").with_threads(1).with_map_tasks(1));
            let mut out = job.run(&SplitWords, &SumCounts, word_count_input()).output;
            out.sort();
            out
        };
        for threads in [1, 2, 4, 8] {
            for map_tasks in [1, 2, 3, 7] {
                for reduce_tasks in [1, 2, 5] {
                    let job = Job::new(
                        JobConfig::named("wc")
                            .with_threads(threads)
                            .with_map_tasks(map_tasks)
                            .with_reduce_tasks(reduce_tasks),
                    );
                    let mut out = job.run(&SplitWords, &SumCounts, word_count_input()).output;
                    out.sort();
                    assert_eq!(
                        out, baseline,
                        "threads={threads} map={map_tasks} reduce={reduce_tasks}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_output_and_schedules_no_map_task() {
        let job = Job::new(JobConfig::default());
        let result = job.run(&SplitWords, &SumCounts, Vec::new());
        assert!(result.output.is_empty());
        assert_eq!(result.metrics.map_input_records, 0);
        assert_eq!(result.metrics.reduce_output_records, 0);
        assert_eq!(result.metrics.map_tasks, 0, "no empty map task");
    }

    #[test]
    fn more_map_tasks_than_records_schedules_one_task_per_record() {
        let job = Job::new(JobConfig::named("wc").with_map_tasks(64));
        let result = job.run(&SplitWords, &SumCounts, word_count_input());
        assert_eq!(result.metrics.map_tasks, 4);
    }

    #[test]
    fn reduce_input_is_sorted_by_key_within_partition() {
        // With a single reduce partition the whole output must be in key
        // order, mirroring Hadoop's sorted reducer input.
        let job = Job::new(
            JobConfig::named("sorted")
                .with_reduce_tasks(1)
                .with_threads(2),
        );
        let result = job.run(&SplitWords, &SumCounts, word_count_input());
        let keys: Vec<&String> = result.output.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    // ----------------------------------------------------------------------
    // Memory budget / disk spilling
    // ----------------------------------------------------------------------

    /// Runs word count under `budget` and returns the result.
    fn run_budgeted(budget: Option<u64>) -> JobResult<String, u64> {
        let job = Job::new(
            JobConfig::named("wc-budget")
                .with_threads(2)
                .with_map_tasks(3)
                .with_reduce_tasks(2)
                .with_memory_budget(budget),
        );
        job.run(&SplitWords, &SumCounts, word_count_input())
    }

    #[test]
    fn tiny_memory_budget_spills_to_disk_and_output_is_byte_identical() {
        let unlimited = run_budgeted(None);
        assert_eq!(unlimited.metrics.disk_runs, 0);
        assert_eq!(unlimited.metrics.spill_bytes, 0);

        // A budget far below one record per worker forces a spill on
        // (nearly) every push.
        let spilled = run_budgeted(Some(2));
        assert_eq!(
            spilled.output, unlimited.output,
            "spilled output must be byte-identical"
        );
        assert!(spilled.metrics.disk_runs > 0);
        assert!(spilled.metrics.spill_bytes > 0);
        assert_eq!(
            spilled.metrics.shuffle_records,
            unlimited.metrics.shuffle_records
        );
    }

    /// Emits each input record once, keyed mod 17, with a 1 KiB value.
    struct KibValues;
    impl Mapper for KibValues {
        type InKey = u32;
        type InValue = u8;
        type OutKey = u32;
        type OutValue = Vec<u8>;
        fn map(&self, k: &u32, fill: &u8, out: &mut Emitter<u32, Vec<u8>>) {
            out.emit(k % 17, vec![*fill; 1024]);
        }
    }

    /// Concatenates a key's values in engine order.
    struct ConcatValues;
    impl Reducer for ConcatValues {
        type Key = u32;
        type InValue = Vec<u8>;
        type OutKey = u32;
        type OutValue = Vec<u8>;
        fn reduce(&self, k: &u32, vs: &[Vec<u8>], out: &mut Emitter<u32, Vec<u8>>) {
            out.emit(*k, vs.concat());
        }
    }

    #[test]
    fn heap_carrying_values_spill_by_their_encoded_bytes() {
        // One thread, so the task's share is the whole budget.
        const BUDGET: u64 = 64 * 1024;
        // A 4-byte key, the value's 8-byte length and its 1 KiB payload.
        const RECORD: u64 = 4 + 8 + 1024;
        let input: Vec<(u32, u8)> = (0..300).map(|i| (i, i as u8)).collect();
        let run = |budget| {
            let job = Job::new(
                JobConfig::named("kib-values")
                    .with_threads(1)
                    .with_map_tasks(1)
                    .with_reduce_tasks(1)
                    .with_memory_budget(budget),
            );
            job.run(&KibValues, &ConcatValues, input.clone())
        };
        let unlimited = run(None);
        let spilled = run(Some(BUDGET));
        assert_eq!(unlimited.metrics.shuffle_bytes, 300 * RECORD);
        assert_eq!(
            spilled.metrics.shuffle_bytes,
            unlimited.metrics.shuffle_bytes
        );
        // 300 KiB of values through a 64 KiB budget must spill: a value
        // counts its payload, not its 24-byte `Vec` header.
        let metrics = &spilled.metrics;
        assert!(metrics.disk_runs >= 3, "{} disk runs", metrics.disk_runs);
        // A run spills once it passes the share, so it holds at most the
        // share plus one record; each frame adds a 4-byte length prefix.
        assert!(
            metrics.spill_bytes / metrics.disk_runs <= BUDGET + 4 + RECORD,
            "{} bytes over {} runs",
            metrics.spill_bytes,
            metrics.disk_runs
        );
        assert_eq!(
            spilled.output, unlimited.output,
            "spilled output must be byte-identical"
        );
    }

    #[test]
    fn generous_budget_never_touches_disk() {
        let result = run_budgeted(Some(64 * 1024 * 1024));
        assert_eq!(result.metrics.disk_runs, 0);
        assert_eq!(result.metrics.spill_bytes, 0);
    }

    #[test]
    fn spill_directory_is_left_clean() {
        let base =
            std::env::temp_dir().join(format!("smr-executor-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let job = Job::new(
            JobConfig::named("wc-clean")
                .with_threads(2)
                .with_memory_budget(Some(2))
                .with_spill_dir(&base),
        );
        let result = job.run(&SplitWords, &SumCounts, word_count_input());
        assert!(result.metrics.disk_runs > 0, "the job must actually spill");
        assert_eq!(
            std::fs::read_dir(&base).unwrap().count(),
            0,
            "no temp files may outlive the job"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// Sorted runs with overlapping keys: run `r` holds keys
    /// `r, r+1, ..., r+9`, value `r` — so every key appears in several
    /// runs and value order across runs is observable.
    fn overlapping_runs(count: usize) -> Vec<Run<(u64, u64)>> {
        (0..count as u64)
            .map(|r| Run::Memory((r..r + 10).map(|k| (k, r)).collect(), 160))
            .collect()
    }

    #[test]
    fn bounded_fan_in_merge_is_byte_identical_to_flat_merge() {
        let flat = merge_sources(overlapping_runs(9), usize::MAX);
        for fan_in in [2, 3, 4, 8] {
            let bounded = merge_sources(overlapping_runs(9), fan_in);
            assert_eq!(bounded, flat, "fan-in {fan_in} diverged from flat merge");
        }
        // Equal keys must still come out in run order, not batch order.
        let values_for_key_5: Vec<u64> = flat
            .iter()
            .filter(|(k, _)| *k == 5)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(values_for_key_5, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bounded_fan_in_merge_streams_disk_runs_in_batches() {
        let manager = SpillManager::new(1024, 1, None);
        let sources: Vec<Run<(u64, u64)>> = (0..9u64)
            .map(|r| {
                let records: Vec<(u64, u64)> = (r..r + 10).map(|k| (k, r)).collect();
                manager.write_run(&records).unwrap()
            })
            .collect();
        let merged = merge_sources(sources, 2);
        let flat = merge_sources(overlapping_runs(9), usize::MAX);
        assert_eq!(merged, flat);
    }

    #[test]
    fn grouped_partition_slices_adjacent_equal_keys() {
        let mut data = vec![(2, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (1, 'e')];
        data.sort_by_key(|&(k, _)| k);
        let grouped = GroupedPartition::new(data);
        assert_eq!(grouped.groups().len(), 3);
        let groups: Vec<(i32, &[char])> = grouped.groups().map(|(k, v)| (*k, v)).collect();
        assert_eq!(
            groups,
            vec![(1, &['b', 'e'][..]), (2, &['a', 'c'][..]), (3, &['d'][..])]
        );
        // Every group is a window of the one value buffer, in order.
        assert_eq!(grouped.values, vec!['b', 'e', 'a', 'c', 'd']);
        assert_eq!(
            GroupedPartition::<i32, char>::new(Vec::new())
                .groups()
                .count(),
            0
        );
    }
}
