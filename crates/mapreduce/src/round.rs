//! Rounds over partition-resident state: the engine half of
//! [`crate::flow::RoundState`].
//!
//! An iterative algorithm's state — one record per key, surviving from
//! round to round — is hash-partitioned once with the job's
//! [`HashPartitioner`] over its reduce task count, and every partition is
//! kept sorted by key.  A round ([`Job::run_round`]) is one job whose map
//! task *p* reads state partition *p* by reference and emits notes only,
//! and whose reduce task *p* merge-joins state partition *p* with the
//! notes merged for it and writes partition *p* of the next round: the
//! state never crosses the shuffle and never passes through the driver —
//! the "Schimmy" pattern of Lin & Schatz (*Design Patterns for Efficient
//! Graph Algorithms in MapReduce*, MLG 2010).  A partition stays in RAM
//! while its encoded size is within `memory_budget / reduce_tasks`, and
//! lives in one run file above that.

use std::path::{Path, PathBuf};

use smr_storage::{Codec, RunReader, RunWriter};

use crate::config::JobConfig;
use crate::counters::Counters;
use crate::executor::{finish_metrics, Job, MapInput};
use crate::metrics::JobMetrics;
use crate::partition::{HashPartitioner, Partitioner};
use crate::task_queue::{Task, TaskQueue};
use crate::types::{Emitter, IdentityCombiner, Key, Mapper, ReduceGroups, StateReducer, Value};

/// One partition of a round state, sorted by key.
#[derive(Debug)]
pub(crate) enum StatePartition<K, S> {
    /// Held in RAM, with its encoded size in bytes.
    Memory(Vec<(K, S)>, u64),
    /// Held in a run file.
    Disk(StateFile),
}

/// The run file of one state partition, removed when dropped.
#[derive(Debug)]
pub(crate) struct StateFile {
    path: PathBuf,
    records: usize,
    /// Encoded size of the records, as in RAM (frame headers excluded).
    bytes: u64,
}

impl StateFile {
    fn open<R: Codec>(&self) -> RunReader<R> {
        RunReader::open(&self.path)
            .unwrap_or_else(|e| panic!("failed to open round state {:?}: {e}", self.path))
    }

    fn read<R: Codec>(&self, reader: &mut RunReader<R>) -> Option<R> {
        reader
            .next_record()
            .unwrap_or_else(|e| panic!("failed to stream round state {:?}: {e}", self.path))
    }
}

impl Drop for StateFile {
    fn drop(&mut self) {
        // Best effort: a failed cleanup must not panic a drop.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl<K: Key, S: Value> StatePartition<K, S> {
    /// Records in the partition.
    pub(crate) fn len(&self) -> usize {
        match self {
            StatePartition::Memory(records, _) => records.len(),
            StatePartition::Disk(file) => file.records,
        }
    }

    /// Encoded size of the partition's records.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            StatePartition::Memory(_, bytes) => *bytes,
            StatePartition::Disk(file) => file.bytes,
        }
    }

    /// Calls `f` with every record in key order, streaming a spilled
    /// partition from its file.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&(K, S))) {
        match self {
            StatePartition::Memory(records, _) => records.iter().for_each(f),
            StatePartition::Disk(file) => {
                let mut reader = file.open();
                while let Some(record) = file.read(&mut reader) {
                    f(&record);
                }
            }
        }
    }

    /// The records by move, in key order.  A spilled partition's file is
    /// removed when the iterator drops.
    fn into_records(self) -> Box<dyn Iterator<Item = (K, S)>> {
        match self {
            StatePartition::Memory(records, _) => Box::new(records.into_iter()),
            StatePartition::Disk(file) => {
                let mut reader = file.open();
                Box::new(std::iter::from_fn(move || file.read(&mut reader)))
            }
        }
    }
}

/// A round's map task *p* is state partition *p*, whatever the thread
/// count.
impl<K: Key, S: Value> MapInput<K, S> for Vec<StatePartition<K, S>> {
    fn records(&self) -> usize {
        self.iter().map(StatePartition::len).sum()
    }

    fn tasks(&self, _config: &JobConfig) -> TaskQueue {
        TaskQueue::unit(self.len())
    }

    fn for_each(&self, task: &Task, mut f: impl FnMut(&K, &S)) {
        self[task.index].for_each(|(key, state)| f(key, state));
    }
}

/// Where the partitions of a budgeted round state go once they outgrow
/// their share of the budget: `{dir}/{name}-p{partition}.run`.
#[derive(Debug, Clone)]
pub(crate) struct StateSpill {
    /// Encoded bytes a partition may hold in RAM.
    pub(crate) share: u64,
    pub(crate) dir: PathBuf,
    /// Unique per state and generation, so a partition never overwrites
    /// the file of the partition it supersedes.
    pub(crate) name: String,
}

/// Builds one state partition from records pushed in key order: in RAM
/// until the encoded size passes the spill share, then in its run file.
struct PartitionWriter<K, S> {
    records: Vec<(K, S)>,
    bytes: u64,
    /// The share and the file path, under a budget.
    spill: Option<(u64, PathBuf)>,
    file: Option<RunWriter<(K, S)>>,
}

fn write_state<R: Codec>(file: &mut RunWriter<R>, path: &Path, record: &R) {
    file.push(record)
        .unwrap_or_else(|e| panic!("failed to write round state {path:?}: {e}"));
}

impl<K: Key, S: Value> PartitionWriter<K, S> {
    fn new(spill: Option<&StateSpill>, partition: usize) -> Self {
        PartitionWriter {
            records: Vec::new(),
            bytes: 0,
            spill: spill.map(|s| {
                let path = s.dir.join(format!("{}-p{partition}.run", s.name));
                (s.share, path)
            }),
            file: None,
        }
    }

    fn push(&mut self, key: K, state: S) {
        self.bytes += (key.encoded_len() + state.encoded_len()) as u64;
        if let (Some(file), Some((_, path))) = (&mut self.file, &self.spill) {
            write_state(file, path, &(key, state));
            return;
        }
        self.records.push((key, state));
        if let Some((share, path)) = &self.spill {
            if self.bytes > *share {
                let mut file = RunWriter::create(path)
                    .unwrap_or_else(|e| panic!("failed to write round state {path:?}: {e}"));
                for record in std::mem::take(&mut self.records) {
                    write_state(&mut file, path, &record);
                }
                self.file = Some(file);
            }
        }
    }

    fn finish(self) -> StatePartition<K, S> {
        match (self.file, self.spill) {
            (Some(file), Some((_, path))) => {
                let run = file
                    .finish()
                    .unwrap_or_else(|e| panic!("failed to write round state {path:?}: {e}"));
                StatePartition::Disk(StateFile {
                    path,
                    records: run.records as usize,
                    bytes: self.bytes,
                })
            }
            _ => StatePartition::Memory(self.records, self.bytes),
        }
    }
}

/// Hash-partitions records over `n` partitions.  The records must arrive
/// in key order within each partition — a sorted seed, or a state
/// published in partition order.
pub(crate) fn partition_sorted<K: Key, S: Value>(
    records: impl IntoIterator<Item = (K, S)>,
    n: usize,
    spill: Option<&StateSpill>,
) -> Vec<StatePartition<K, S>> {
    let partitioner = HashPartitioner::new();
    let mut writers: Vec<PartitionWriter<K, S>> =
        (0..n).map(|p| PartitionWriter::new(spill, p)).collect();
    for (key, state) in records {
        writers[partitioner.partition(&key, n)].push(key, state);
    }
    writers.into_iter().map(PartitionWriter::finish).collect()
}

/// Reduce task *p* of a round: merge-joins state partition *p* with the
/// notes merged for it, both in key order, and writes partition *p* of
/// the next round.
fn join<R: StateReducer>(
    reducer: &R,
    state: StatePartition<R::Key, R::State>,
    notes: ReduceGroups<'_, R::Key, R::Note>,
    out: &mut Emitter<R::OutKey, R::OutValue>,
    mut next: PartitionWriter<R::Key, R::State>,
) -> StatePartition<R::Key, R::State> {
    let mut notes = notes.peekable();
    for (key, record) in state.into_records() {
        // Notes sorting before the next key with state were addressed to
        // keys without state: they are dropped.
        while notes.next_if(|(to, _)| *to < &key).is_some() {}
        let own = notes.next_if(|(to, _)| *to == &key);
        if let Some(record) = reducer.reduce(&key, record, own.map_or(&[], |(_, n)| n), out) {
            next.push(key, record);
        }
    }
    next.finish()
}

/// Reads the state a sharded coordinator published at `path`.
fn adopt_state<K: Key, S: Value>(
    path: &Path,
    n: usize,
    spill: Option<&StateSpill>,
) -> Vec<StatePartition<K, S>> {
    let mut reader = RunReader::<(K, S)>::open(path)
        .and_then(|reader| reader.check_type().map(|()| reader))
        .unwrap_or_else(|e| panic!("sharded round state at {path:?} unreadable: {e}"));
    let records = std::iter::from_fn(move || {
        reader
            .next_record()
            .unwrap_or_else(|e| panic!("sharded round state at {path:?} unreadable: {e}"))
    });
    partition_sorted(records, n, spill)
}

/// What one round produced.
pub(crate) struct RoundResult<K, S, OK, OV> {
    pub(crate) side: Vec<(OK, OV)>,
    pub(crate) state: Vec<StatePartition<K, S>>,
    pub(crate) metrics: JobMetrics,
}

impl Job {
    /// Runs one round over `state`, partitioned over this job's reduce
    /// tasks; partitions of the next state spill as `next` says.
    pub(crate) fn run_round<M, R>(
        &self,
        mapper: &M,
        reducer: &R,
        state: Vec<StatePartition<R::Key, R::State>>,
        next: Option<&StateSpill>,
    ) -> RoundResult<R::Key, R::State, R::OutKey, R::OutValue>
    where
        M: Mapper<InKey = R::Key, InValue = R::State, OutKey = R::Key, OutValue = R::Note>,
        R: StateReducer,
    {
        let parts = state.len();
        assert_eq!(
            parts,
            self.config().effective_reduce_tasks(),
            "round state is partitioned over the job's reduce tasks"
        );
        let counters = Counters::new();
        let mut metrics = self.start_metrics(&counters, state.records());
        let combiner = None::<&IdentityCombiner<R::Key, R::Note>>;
        let partitioner = HashPartitioner::new();
        let reduce = |state, partitions, metrics: &mut JobMetrics| {
            self.reduce_phase(
                partitions,
                state,
                |p, part, notes, out| {
                    join(reducer, part, notes, out, PartitionWriter::new(next, p))
                },
                &counters,
                metrics,
            )
        };

        let (side, state) = if let Some(runtime) = self.shard_runtime() {
            self.run_process_sharded(
                runtime,
                mapper,
                combiner,
                &partitioner,
                state,
                &counters,
                &mut metrics,
                |state, partitions, published, metrics| {
                    let (side, state) = reduce(state, partitions, metrics);
                    crate::sharded::publish(&published.with_file_name("state.run"), |push| {
                        state.iter().for_each(|part| part.for_each(&mut *push))
                    });
                    crate::sharded::publish(published, |push| side.iter().for_each(push));
                    (side, state)
                },
                |published| {
                    let side = crate::sharded::try_read(published)?;
                    let state = adopt_state(&published.with_file_name("state.run"), parts, next);
                    Some((side, state))
                },
            )
        } else {
            let (runs, spill) = self.map_phase(
                mapper,
                combiner,
                &partitioner,
                &state,
                &counters,
                &mut metrics,
                None,
            );
            let partitions = self.merge_phase(runs, combiner, &counters, &mut metrics);
            drop(spill);
            reduce(state, partitions, &mut metrics)
        };
        finish_metrics(&counters, &mut metrics);
        RoundResult {
            side,
            state,
            metrics,
        }
    }
}
