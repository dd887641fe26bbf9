//! The parallel job executor: map → combine-while-partitioning → merge →
//! reduce, with disk spilling under a memory budget.
//!
//! The executor is an in-process model of a Hadoop job, built around a
//! *streaming* shuffle:
//!
//! 1. **Map** — worker threads pull map tasks from a work-stealing
//!    [`TaskQueue`] (an atomic claim index over never-empty input ranges).
//!    Each task routes every emitted pair straight into a
//!    [`CombiningPartitionBuffer`], which applies the optional combiner
//!    *while partitioning*: when the bounded in-memory buffer overflows it
//!    combines in place, so a task's memory is bounded by its combined
//!    working set rather than its raw map output.
//! 2. **Spill** — under a [`JobConfig::memory_budget`] each task watches
//!    its buffer's byte estimate against its share of the budget.  When
//!    combining cannot keep the buffer under budget, the task drains it
//!    early: each partition bucket becomes a *sorted run* written to a
//!    spill file through the job's `SpillManager` (`spill_bytes` /
//!    `disk_runs` metrics), and the buffer starts over empty.
//! 3. **Run generation** — at task end every partition bucket is sorted
//!    once (at task granularity) and combined, yielding the task's final
//!    in-memory sorted run per partition.
//! 4. **Merge** — the shuffle k-way merges each reduce partition's runs
//!    (`O(n log k)`), streaming disk runs and in-memory runs through the
//!    same heap and applying the combiner once more across runs, so
//!    records that different tasks emitted for the same key collapse
//!    before they ever reach a reducer.
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
//! shuffled bytes, merged runs, spilled bytes and per-phase wall time are
//! recorded in [`JobMetrics`].

use std::mem;
use std::time::Instant;

use parking_lot::Mutex;
use smr_storage::{CompletedRun, RunReader, SpillManager};

use crate::config::JobConfig;
use crate::counters::{builtin, Counters};
use crate::metrics::JobMetrics;
use crate::partition::{CombiningPartitionBuffer, HashPartitioner, Partitioner};
use crate::shuffle::{merge_streams, merge_streams_combining, RunStream};
use crate::task_queue::{Task, TaskQueue};
use crate::types::{Combiner, Emitter, Key, Mapper, ReduceGroups, Reducer, Value};

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
    pub(crate) source: RunSource<K, V>,
}

pub(crate) enum RunSource<K, V> {
    Memory(Vec<(K, V)>),
    Disk(CompletedRun),
}

impl<K, V> RunSource<K, V> {
    fn len(&self) -> usize {
        match self {
            RunSource::Memory(run) => run.len(),
            RunSource::Disk(run) => run.records as usize,
        }
    }
}

/// Every sorted run of a job, bucketed by reduce partition.
pub(crate) type TaggedRuns<K, V> = Vec<Mutex<Vec<TaggedRun<K, V>>>>;

/// The map side of one job: a bucket of tagged sorted runs per reduce
/// partition, filled by the job's [`TaskOutput`]s, and — under a memory
/// budget — the spill manager backing the runs that went to disk.
pub(crate) struct MapOutput<K, V> {
    runs: TaggedRuns<K, V>,
    spill: Option<SpillManager>,
    combine_buffer_records: usize,
}

impl<K: Key, V: Value> MapOutput<K, V> {
    /// An empty map side for a job under `config`.  The spill manager's
    /// temp directory is created on the first spill and removed when the
    /// manager drops, after the merge (or the shard export) has consumed
    /// every disk run.
    pub(crate) fn new(config: &JobConfig) -> Self {
        MapOutput {
            runs: (0..config.effective_reduce_tasks())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            spill: config.memory_budget.map(|budget| {
                SpillManager::new(budget, config.effective_threads(), config.spill_dir.clone())
            }),
            combine_buffer_records: config.combine_buffer_records,
        }
    }

    /// The emission path of map task `task`.
    pub(crate) fn task<'a, C, P>(
        &'a self,
        task: usize,
        combiner: Option<&'a C>,
        partitioner: &'a P,
    ) -> TaskOutput<'a, K, V, C, P> {
        TaskOutput {
            output: self,
            task,
            combiner,
            partitioner,
            buffer: CombiningPartitionBuffer::new(self.runs.len(), self.combine_buffer_records),
            emitter: Emitter::new(),
            seq: 0,
            map_output: 0,
            combine_output: 0,
        }
    }

    /// Seals the map side once every task has finished: the spill
    /// counters land in `counters`, and the runs come back with the spill
    /// manager whose files back the disk runs — keep it alive until the
    /// runs are consumed.
    pub(crate) fn finish(self, counters: &Counters) -> (TaggedRuns<K, V>, Option<SpillManager>) {
        if let Some(manager) = &self.spill {
            counters.add(builtin::SPILL_BYTES, manager.spilled_bytes());
            counters.add(builtin::DISK_RUNS, manager.disk_runs());
        }
        (self.runs, self.spill)
    }
}

/// One map task's emission path: every pair the task emits is routed
/// into its [`CombiningPartitionBuffer`]; under a memory budget a buffer
/// past the task's share combines and then spills its sorted runs to
/// disk; [`TaskOutput::finish`] adds the task's final in-memory runs.
/// Every run is tagged with the task index and a spill sequence number.
/// A map task and a round's reduce task emit through the same type.
pub(crate) struct TaskOutput<'a, K, V, C, P> {
    output: &'a MapOutput<K, V>,
    task: usize,
    combiner: Option<&'a C>,
    partitioner: &'a P,
    buffer: CombiningPartitionBuffer<K, V>,
    emitter: Emitter<K, V>,
    /// The next spilled chunk's sequence number: chunks get 0, 1, …, and
    /// the final in-memory run sorts after all of them (`usize::MAX`),
    /// preserving emission order.
    seq: usize,
    map_output: u64,
    combine_output: u64,
}

impl<K, V, C, P> TaskOutput<'_, K, V, C, P>
where
    K: Key,
    V: Value,
    C: Combiner<Key = K, Value = V>,
    P: Partitioner<K>,
{
    /// Runs `emit` with the task's emitter and routes what it emitted,
    /// spilling when the buffer has outgrown the task's share of the
    /// budget.  Returns what `emit` returned.
    pub(crate) fn emit<T>(&mut self, emit: impl FnOnce(&mut Emitter<K, V>) -> T) -> T {
        let result = emit(&mut self.emitter);
        let partitions = self.output.runs.len();
        self.emitter.drain_each(|key, value| {
            self.map_output += 1;
            let p = self.partitioner.partition(&key, partitions);
            self.buffer.push(p, key, value, self.combiner);
        });
        let Some(manager) = &self.output.spill else {
            return result;
        };
        if self.buffer.approx_bytes() > manager.task_budget() {
            // Last resort before disk: combine.  The combine must free
            // real headroom (half the budget) to stave off the spill —
            // merely squeaking back under budget would re-trigger a
            // full-buffer combine every few pushes, the thrash the
            // watermark back-off exists to prevent.
            if let Some(combiner) = self.combiner {
                self.buffer.combine_now(combiner);
            }
            if self.buffer.approx_bytes() > manager.task_budget() / 2 {
                // Just combined (when a combiner exists): the buckets
                // only need sorting.
                let runs = self.buffer.take_sorted_runs(None::<&C>);
                self.add_runs(self.seq, runs, |run| {
                    let spilled = manager.write_run(&run);
                    RunSource::Disk(spilled.unwrap_or_else(|e| panic!("failed to spill run: {e}")))
                });
                self.seq += 1;
            }
        }
        result
    }

    /// Seals the task: its final sorted runs join the map side, and its
    /// record counts land in `counters`.
    pub(crate) fn finish(mut self, counters: &Counters) {
        counters.add(builtin::COMBINE_SPILLS, self.buffer.spills());
        let runs = self.buffer.take_sorted_runs(self.combiner);
        self.add_runs(usize::MAX, runs, RunSource::Memory);
        counters.add(builtin::MAP_OUTPUT_RECORDS, self.map_output);
        counters.add(builtin::COMBINE_OUTPUT_RECORDS, self.combine_output);
    }

    /// Adds the non-empty ones of `runs`, one per partition, under spill
    /// sequence `seq`, stored by `store`.  Their records leave the task
    /// here, so they count as combine output.
    fn add_runs(
        &mut self,
        seq: usize,
        runs: Vec<Vec<(K, V)>>,
        store: impl Fn(Vec<(K, V)>) -> RunSource<K, V>,
    ) {
        for (p, run) in runs.into_iter().enumerate() {
            if !run.is_empty() {
                self.combine_output += run.len() as u64;
                let source = store(run);
                self.output.runs[p].lock().push(TaggedRun {
                    task: self.task,
                    seq,
                    source,
                });
            }
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

    /// Runs the job with no combiner and hash partitioning.
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
        self.run_full(
            mapper,
            None::<&crate::types::IdentityCombiner<M::OutKey, M::OutValue>>,
            reducer,
            &HashPartitioner::new(),
            input,
            Counters::new(),
        )
    }

    /// Runs the job with a map-side combiner and hash partitioning.
    pub fn run_with_combiner<M, C, R>(
        &self,
        mapper: &M,
        combiner: &C,
        reducer: &R,
        input: Vec<(M::InKey, M::InValue)>,
    ) -> JobResult<R::OutKey, R::OutValue>
    where
        M: Mapper,
        C: Combiner<Key = M::OutKey, Value = M::OutValue>,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        self.run_full(
            mapper,
            Some(combiner),
            reducer,
            &HashPartitioner::new(),
            input,
            Counters::new(),
        )
    }

    /// Runs the job with every knob exposed: optional combiner, custom
    /// partitioner and an externally supplied counter set (so iterative
    /// algorithms can accumulate user counters across rounds).
    pub fn run_full<M, C, R, P>(
        &self,
        mapper: &M,
        combiner: Option<&C>,
        reducer: &R,
        partitioner: &P,
        input: Vec<(M::InKey, M::InValue)>,
        counters: Counters,
    ) -> JobResult<R::OutKey, R::OutValue>
    where
        M: Mapper,
        C: Combiner<Key = M::OutKey, Value = M::OutValue>,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
        P: Partitioner<M::OutKey>,
    {
        let mut metrics = self.start_metrics(&counters, input.len());
        // An identity combiner is a no-op by contract: drop it so the job
        // skips the combine machinery (no per-group `values.to_vec()`, no
        // combining-buffer spills) instead of paying for nothing.
        let combiner = combiner.filter(|c| !c.is_identity());

        // A job opted into process sharding delegates to the installed
        // multi-process runtime (when a sharded session is active): this
        // process then plays coordinator or worker.  See `sharded.rs`.
        let output = if let Some(runtime) = self.shard_runtime() {
            self.run_process_sharded(
                runtime.as_ref(),
                mapper,
                combiner,
                reducer,
                partitioner,
                &input,
                &counters,
                &mut metrics,
            )
        } else {
            // Map + shuffle: one sorted vector of records per reduce partition.
            let (runs, spill) = self.map_records(
                mapper,
                combiner,
                partitioner,
                &input,
                &counters,
                &mut metrics,
                None,
            );
            let partitions = self.merge_phase(runs, combiner, &counters, &mut metrics);
            // The merge consumed every disk run: dropping the spill manager
            // here removes its temp directory before the reduce starts.
            drop(spill);
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn map_records<M, C, P>(
        &self,
        mapper: &M,
        combiner: Option<&C>,
        partitioner: &P,
        input: &[(M::InKey, M::InValue)],
        counters: &Counters,
        metrics: &mut JobMetrics,
        shard: Option<std::ops::Range<usize>>,
    ) -> (TaggedRuns<M::OutKey, M::OutValue>, Option<SpillManager>)
    where
        M: Mapper,
        C: Combiner<Key = M::OutKey, Value = M::OutValue>,
        P: Partitioner<M::OutKey>,
    {
        let queue = TaskQueue::split(input.len(), self.config.effective_map_tasks(input.len()));
        self.map_phase(
            queue,
            combiner,
            partitioner,
            counters,
            metrics,
            shard,
            |task, out| {
                for (key, value) in &input[task.range.clone()] {
                    out.emit(|emitter| mapper.map(key, value, emitter));
                }
            },
        )
    }

    /// The streaming map phase: worker threads pull the tasks of `queue`
    /// and `map_task` feeds each task's input through its own
    /// [`TaskOutput`], yielding per-partition sorted runs (combining while
    /// partitioning, spilling to disk under a memory budget).  When
    /// `shard` is given, only map tasks whose index falls inside that
    /// range are executed — the task queue, the task index space and
    /// every per-task decision (spill points, run sequence numbers) are
    /// identical to an unsharded run, which is what makes runs produced
    /// by different processes merge to byte-identical output.  Returns
    /// the runs and the spill manager whose temp files back the disk runs
    /// (the caller must keep it alive until the runs are consumed).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn map_phase<K, V, C, P>(
        &self,
        queue: TaskQueue,
        combiner: Option<&C>,
        partitioner: &P,
        counters: &Counters,
        metrics: &mut JobMetrics,
        shard: Option<std::ops::Range<usize>>,
        map_task: impl Fn(&Task, &mut TaskOutput<'_, K, V, C, P>) + Sync,
    ) -> (TaggedRuns<K, V>, Option<SpillManager>)
    where
        K: Key,
        V: Value,
        C: Combiner<Key = K, Value = V>,
        P: Partitioner<K>,
    {
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
                        let mut out = output.task(task.index, combiner, partitioner);
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
    /// partitions), streaming disk and memory runs uniformly and
    /// combining equal keys that straddle runs.  Small jobs merge
    /// inline: spawning workers costs more than merging a few thousand
    /// records, and the merged result is identical either way (no
    /// ordering decision depends on the execution site).
    ///
    /// Runs may come from the local map phase or — in a sharded session —
    /// from run files that worker processes shipped back: the
    /// `(task, seq)` sort makes the merge indifferent to where a run was
    /// produced.
    pub(crate) fn merge_phase<K, V, C>(
        &self,
        runs: TaggedRuns<K, V>,
        combiner: Option<&C>,
        counters: &Counters,
        metrics: &mut JobMetrics,
    ) -> Vec<Vec<(K, V)>>
    where
        K: crate::types::Key,
        V: crate::types::Value,
        C: Combiner<Key = K, Value = V>,
    {
        let num_threads = self.config.effective_threads();
        let num_reduce_tasks = runs.len();
        let runs_ref = &runs;

        let shuffle_start = Instant::now();
        let record_bytes = mem::size_of::<(K, V)>() as u64;
        let merge_queue = TaskQueue::unit(num_reduce_tasks);
        type MergedPartitions<K, V> = Vec<Mutex<Vec<(K, V)>>>;
        let merged: MergedPartitions<K, V> = (0..num_reduce_tasks)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let merge_queue_ref = &merge_queue;
        let merged_ref = &merged;

        let merge_worker = || {
            let mut shuffled = 0u64;
            let mut runs_merged = 0u64;
            while let Some(task) = merge_queue_ref.claim() {
                let mut partition_runs = mem::take(&mut *runs_ref[task.index].lock());
                partition_runs.sort_unstable_by_key(|run| (run.task, run.seq));
                runs_merged += partition_runs.len() as u64;
                let sources: Vec<RunSource<K, V>> =
                    partition_runs.into_iter().map(|run| run.source).collect();
                let combined = merge_sources(sources, MAX_MERGE_FAN_IN, combiner);
                shuffled += combined.len() as u64;
                *merged_ref[task.index].lock() = combined;
            }
            counters.add(builtin::SHUFFLE_RECORDS, shuffled);
            counters.add(builtin::SHUFFLE_BYTES, shuffled * record_bytes);
            counters.add(builtin::MERGE_RUNS, runs_merged);
        };
        let run_records: usize = runs
            .iter()
            .map(|partition| {
                partition
                    .lock()
                    .iter()
                    .map(|run| run.source.len())
                    .sum::<usize>()
            })
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
/// one sorted, combined vector, holding at most `fan_in` run files open at
/// a time.
///
/// When the partition has more runs than `fan_in`, batches of `fan_in`
/// consecutive runs collapse into in-memory intermediate runs, pass after
/// pass, until a single final merge remains — `⌈log_fan_in(runs)⌉` passes,
/// in practice two.  Intermediate passes merge **without** combining: a
/// pure merge keeps equal keys in exactly the run order of a flat merge,
/// so the one combining pass at the end folds values in the same order
/// however many passes ran, and the output stays byte-identical to the
/// unbounded merge without assuming anything about the combiner beyond the
/// engine's usual contract.
fn merge_sources<K, V, C>(
    sources: Vec<RunSource<K, V>>,
    fan_in: usize,
    combiner: Option<&C>,
) -> Vec<(K, V)>
where
    K: crate::types::Key,
    V: crate::types::Value,
    C: Combiner<Key = K, Value = V>,
{
    fn open<K, V>(source: RunSource<K, V>) -> RunStream<K, V>
    where
        K: crate::types::Key,
        V: crate::types::Value,
    {
        match source {
            RunSource::Memory(records) => RunStream::Memory(records.into_iter()),
            RunSource::Disk(run) => RunStream::Disk(
                RunReader::open(&run.path)
                    .unwrap_or_else(|e| panic!("spilled run unreadable: {e}")),
            ),
        }
    }

    let fan_in = fan_in.max(2);
    let mut sources = sources;
    while sources.len() > fan_in {
        let mut next = Vec::with_capacity(sources.len().div_ceil(fan_in));
        let mut batch = Vec::with_capacity(fan_in);
        for source in sources {
            batch.push(open(source));
            if batch.len() == fan_in {
                next.push(RunSource::Memory(merge_streams(mem::take(&mut batch))));
            }
        }
        if !batch.is_empty() {
            next.push(RunSource::Memory(merge_streams(batch)));
        }
        sources = next;
    }
    let streams: Vec<RunStream<K, V>> = sources.into_iter().map(open).collect();
    match combiner {
        Some(combiner) => merge_streams_combining(streams, combiner),
        None => merge_streams(streams),
    }
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
    use crate::types::IdentityCombiner;

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

    struct SumCombiner;
    impl Combiner for SumCombiner {
        type Key = String;
        type Value = u64;
        fn combine(&self, _k: &String, vs: &[u64]) -> Vec<u64> {
            vec![vs.iter().sum()]
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
    fn word_count_with_combiner_shuffles_fewer_records() {
        let job = Job::new(
            JobConfig::named("wc-combine")
                .with_threads(2)
                .with_map_tasks(2)
                .with_reduce_tasks(3),
        );
        let result =
            job.run_with_combiner(&SplitWords, &SumCombiner, &SumCounts, word_count_input());
        let mut out = result.output;
        out.sort();
        assert_eq!(out, expected_counts());
        assert!(
            result.metrics.shuffle_records < result.metrics.map_output_records,
            "combiner should reduce shuffled records: {} vs {}",
            result.metrics.shuffle_records,
            result.metrics.map_output_records
        );
        assert!(result.metrics.combine_reduction() > 0.0);
    }

    #[test]
    fn merge_side_combine_collapses_cross_task_duplicates() {
        // With several map tasks, the same word is emitted (task-combined)
        // by more than one task; the merge-side combine collapses those, so
        // the shuffle ends with exactly one record per distinct key.
        let config = JobConfig::named("wc-merge-combine")
            .with_threads(2)
            .with_map_tasks(4)
            .with_reduce_tasks(2);
        let result = Job::new(config).run_with_combiner(
            &SplitWords,
            &SumCombiner,
            &SumCounts,
            word_count_input(),
        );
        let mut out = result.output;
        out.sort();
        assert_eq!(out, expected_counts());
        assert!(result.metrics.merge_runs > 0);
        assert_eq!(
            result.metrics.shuffle_records, 6,
            "exactly one record per distinct key must cross the shuffle"
        );
    }

    #[test]
    fn tiny_combine_buffer_spills_and_stays_correct() {
        let job = Job::new(
            JobConfig::named("wc-spill")
                .with_threads(2)
                .with_map_tasks(2)
                .with_combine_buffer_records(2),
        );
        let result =
            job.run_with_combiner(&SplitWords, &SumCombiner, &SumCounts, word_count_input());
        let mut out = result.output;
        out.sort();
        assert_eq!(out, expected_counts());
        assert!(
            result.counters.get(builtin::COMBINE_SPILLS) > 0,
            "a 2-record buffer over 13 map outputs must spill"
        );
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

    #[test]
    fn identity_combiner_changes_nothing() {
        let job = Job::new(JobConfig::named("id"));
        let with_id = job.run_with_combiner(
            &SplitWords,
            &IdentityCombiner::new(),
            &SumCounts,
            word_count_input(),
        );
        assert_eq!(
            with_id.metrics.shuffle_records,
            with_id.metrics.map_output_records
        );
    }

    #[test]
    fn identity_combiner_skips_the_combine_pass_entirely() {
        // A 1-record combining buffer would spill on every push if the
        // identity combiner were actually run; the executor must detect
        // `is_identity()` and behave exactly like a combiner-less job.
        let config = JobConfig::named("id-skip")
            .with_threads(2)
            .with_map_tasks(3)
            .with_combine_buffer_records(1);
        let with_id = Job::new(config.clone()).run_with_combiner(
            &SplitWords,
            &IdentityCombiner::new(),
            &SumCounts,
            word_count_input(),
        );
        assert_eq!(
            with_id.counters.get(builtin::COMBINE_SPILLS),
            0,
            "identity combiner must never trigger a combining-buffer spill"
        );
        let without = Job::new(config).run(&SplitWords, &SumCounts, word_count_input());
        assert_eq!(with_id.output, without.output);
        assert_eq!(
            with_id.metrics.shuffle_records,
            without.metrics.shuffle_records
        );
    }

    // ----------------------------------------------------------------------
    // Memory budget / disk spilling
    // ----------------------------------------------------------------------

    /// Runs word count (with and without combiner) under `budget` and
    /// returns the result.
    fn run_budgeted(budget: Option<u64>, use_combiner: bool) -> JobResult<String, u64> {
        let job = Job::new(
            JobConfig::named("wc-budget")
                .with_threads(2)
                .with_map_tasks(3)
                .with_reduce_tasks(2)
                .with_memory_budget(budget),
        );
        if use_combiner {
            job.run_with_combiner(&SplitWords, &SumCombiner, &SumCounts, word_count_input())
        } else {
            job.run(&SplitWords, &SumCounts, word_count_input())
        }
    }

    #[test]
    fn tiny_memory_budget_spills_to_disk_and_output_is_byte_identical() {
        for use_combiner in [false, true] {
            let unlimited = run_budgeted(None, use_combiner);
            assert_eq!(unlimited.metrics.disk_runs, 0);
            assert_eq!(unlimited.metrics.spill_bytes, 0);

            // A budget far below one record per worker forces a spill on
            // (nearly) every push.
            let spilled = run_budgeted(Some(2), use_combiner);
            assert_eq!(
                spilled.output, unlimited.output,
                "combiner={use_combiner}: spilled output must be byte-identical"
            );
            assert!(spilled.metrics.disk_runs > 0, "combiner={use_combiner}");
            assert!(spilled.metrics.spill_bytes > 0, "combiner={use_combiner}");
            assert_eq!(
                spilled.metrics.shuffle_records,
                unlimited.metrics.shuffle_records
            );
        }
    }

    #[test]
    fn steady_state_near_the_budget_spills_instead_of_thrashing() {
        // A combined working set of 48 distinct (u32, u64) keys is ~768
        // bytes: between budget/2 (512) and the 1024-byte budget.  A
        // combine pass gets back under budget but can never free real
        // headroom, so without the budget/2 spill rule the engine would
        // re-sort and re-combine the whole buffer on (nearly) every push.
        struct KeyMod;
        impl Mapper for KeyMod {
            type InKey = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = u64;
            fn map(&self, k: &u32, v: &u64, out: &mut Emitter<u32, u64>) {
                out.emit(k % 48, *v);
            }
        }
        struct SumU32;
        impl Combiner for SumU32 {
            type Key = u32;
            type Value = u64;
            fn combine(&self, _k: &u32, vs: &[u64]) -> Vec<u64> {
                vec![vs.iter().sum()]
            }
        }
        struct SumRed;
        impl Reducer for SumRed {
            type Key = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = u64;
            fn reduce(&self, k: &u32, vs: &[u64], out: &mut Emitter<u32, u64>) {
                out.emit(*k, vs.iter().sum());
            }
        }
        let input: Vec<(u32, u64)> = (0..4000u32).map(|i| (i, 1u64)).collect();
        let job = Job::new(
            JobConfig::named("near-budget")
                .with_threads(1)
                .with_map_tasks(1)
                .with_reduce_tasks(1)
                .with_memory_budget(Some(1024)),
        );
        let result = job.run_with_combiner(&KeyMod, &SumU32, &SumRed, input);
        assert_eq!(result.output.len(), 48);
        assert_eq!(result.output.iter().map(|(_, v)| v).sum::<u64>(), 4000);
        assert!(result.metrics.disk_runs > 0, "{:?}", result.metrics);
        let combine_passes = result.counters.get(builtin::COMBINE_SPILLS);
        assert!(
            combine_passes < result.metrics.map_output_records / 16,
            "near-budget steady state must not combine per push: \
             {combine_passes} passes for {} records",
            result.metrics.map_output_records
        );
    }

    #[test]
    fn generous_budget_never_touches_disk() {
        let result = run_budgeted(Some(64 * 1024 * 1024), true);
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
    fn overlapping_runs(count: usize) -> Vec<RunSource<u64, u64>> {
        (0..count as u64)
            .map(|r| RunSource::Memory((r..r + 10).map(|k| (k, r)).collect()))
            .collect()
    }

    #[test]
    fn bounded_fan_in_merge_is_byte_identical_to_flat_merge() {
        let flat = merge_sources(
            overlapping_runs(9),
            usize::MAX,
            None::<&IdentityCombiner<u64, u64>>,
        );
        for fan_in in [2, 3, 4, 8] {
            let bounded = merge_sources(
                overlapping_runs(9),
                fan_in,
                None::<&IdentityCombiner<u64, u64>>,
            );
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
    fn bounded_fan_in_merge_combines_once_at_the_final_pass() {
        struct SumU64;
        impl Combiner for SumU64 {
            type Key = u64;
            type Value = u64;
            fn combine(&self, _k: &u64, vs: &[u64]) -> Vec<u64> {
                vec![vs.iter().sum()]
            }
        }
        let flat = merge_sources(overlapping_runs(11), usize::MAX, Some(&SumU64));
        let bounded = merge_sources(overlapping_runs(11), 2, Some(&SumU64));
        assert_eq!(bounded, flat);
        // Each key's combined value is the sum over every run containing it.
        let (_, total) = *flat.iter().find(|(k, _)| *k == 10).unwrap();
        assert_eq!(total, (1..=10).sum::<u64>());
    }

    #[test]
    fn bounded_fan_in_merge_streams_disk_runs_in_batches() {
        let manager = SpillManager::new(1024, 1, None);
        let sources: Vec<RunSource<u64, u64>> = (0..9u64)
            .map(|r| {
                let records: Vec<(u64, u64)> = (r..r + 10).map(|k| (k, r)).collect();
                RunSource::Disk(manager.write_run(&records).unwrap())
            })
            .collect();
        let merged = merge_sources(sources, 2, None::<&IdentityCombiner<u64, u64>>);
        let flat = merge_sources(
            overlapping_runs(9),
            usize::MAX,
            None::<&IdentityCombiner<u64, u64>>,
        );
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
