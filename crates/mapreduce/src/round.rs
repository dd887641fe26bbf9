//! Rounds over partition-resident state: the engine half of
//! [`crate::flow::RoundState`].
//!
//! An iterative algorithm's state — one record per key, surviving from
//! round to round — is hash-partitioned once ([`hash_partition`]) over
//! the job's reduce task count, and every partition is kept sorted by
//! key.  A round ([`Job::run_round`]) is one job without a map phase: it
//! merges the notes emitted before it, and its reduce task *p*
//! merge-joins state partition *p* with the notes merged for it,
//! writes partition *p* of the next round and emits the next round's
//! notes, tagged task *p*, through the map side's emission path.  The
//! state never crosses the shuffle and never passes through the driver —
//! the "Schimmy" pattern of Lin & Schatz (*Design Patterns for Efficient
//! Graph Algorithms in MapReduce*, MLG 2010) — and every state record is
//! touched once per round.  Notes the previous reducer cannot emit come
//! from a map pass over the state ([`Job::map_state`]), whose map task *p*
//! is partition *p*.  A partition stays in RAM while its encoded size is
//! within `memory_budget / reduce_tasks`, and lives in one run file above
//! that.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parking_lot::Mutex;
use smr_storage::{Codec, RunReader, RunWriter, SpillManager};

use crate::counters::Counters;
use crate::executor::{finish_metrics, Job, MapOutput, TaggedRuns, TaskOutput};
use crate::metrics::JobMetrics;
use crate::partition::hash_partition;
use crate::task_queue::TaskQueue;
use crate::types::{Emitter, Key, ReduceGroups, StateReducer, Value};

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
    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &S)) {
        match self {
            StatePartition::Memory(records, _) => records.iter().for_each(|(k, s)| f(k, s)),
            StatePartition::Disk(file) => {
                let mut reader = file.open();
                while let Some((key, state)) = file.read(&mut reader) {
                    f(&key, &state);
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
/// in key order within each partition, as a sorted seed does.
pub(crate) fn partition_sorted<K: Key, S: Value>(
    records: impl IntoIterator<Item = (K, S)>,
    n: usize,
    spill: Option<&StateSpill>,
) -> Vec<StatePartition<K, S>> {
    let mut writers: Vec<PartitionWriter<K, S>> =
        (0..n).map(|p| PartitionWriter::new(spill, p)).collect();
    for (key, state) in records {
        writers[hash_partition(&key, n)].push(key, state);
    }
    writers.into_iter().map(PartitionWriter::finish).collect()
}

/// The number of records in `state`.
pub(crate) fn live<K: Key, S: Value>(state: &[StatePartition<K, S>]) -> usize {
    state.iter().map(StatePartition::len).sum()
}

/// The notes a round consumes, emitted before it runs — by the reduce
/// tasks of the round before, or by a map pass over the state
/// ([`Job::map_state`]): their sorted runs, tagged task *p* for state
/// partition *p*; the spill manager backing the runs on disk; and the
/// counters of their emission, which become the consuming job's.
pub(crate) struct PendingNotes<K, N> {
    runs: TaggedRuns<K, N>,
    spill: Option<SpillManager>,
    counters: Counters,
    /// The state records the notes were emitted for: the consuming job's
    /// map input.
    records: usize,
    /// Emitting tasks, one per state partition.
    tasks: usize,
    /// The map pass's wall time; zero for notes a reduce task emitted,
    /// which took their time inside that round's reduce.
    map_time: Duration,
}

impl<K: Key, N: Value> PendingNotes<K, N> {
    /// No notes at all, for a round over `parts` partitions: every key
    /// is reduced with an empty slice.
    pub(crate) fn none(parts: usize) -> Self {
        PendingNotes {
            runs: (0..parts).map(|_| Mutex::new(Vec::new())).collect(),
            spill: None,
            counters: Counters::new(),
            records: 0,
            tasks: 0,
            map_time: Duration::ZERO,
        }
    }
}

/// Reduce task *p* of a round: merge-joins state partition *p* with the
/// notes merged for it, both in key order, writes partition *p* of the
/// next round and emits the next round's notes as map task *p* would.
fn join<R: StateReducer>(
    reducer: &R,
    state: StatePartition<R::Key, R::State>,
    notes: ReduceGroups<'_, R::Key, R::Note>,
    out: &mut Emitter<R::OutKey, R::OutValue>,
    emission: &mut TaskOutput<'_, R::Key, R::Note>,
    mut next: PartitionWriter<R::Key, R::State>,
) -> StatePartition<R::Key, R::State> {
    let mut notes = notes.peekable();
    for (key, record) in state.into_records() {
        // Notes sorting before the next key with state were addressed to
        // keys without state: they are dropped.
        while notes.next_if(|(to, _)| *to < &key).is_some() {}
        let own = notes
            .next_if(|(to, _)| *to == &key)
            .map_or(&[][..], |(_, n)| n);
        let kept = emission.emit(|next_notes| reducer.reduce(&key, record, own, out, next_notes));
        if let Some(record) = kept {
            next.push(key, record);
        }
    }
    next.finish()
}

/// What one round of `R` produced.
pub(crate) struct RoundResult<R: StateReducer> {
    pub(crate) side: Vec<(R::OutKey, R::OutValue)>,
    pub(crate) state: Vec<StatePartition<R::Key, R::State>>,
    /// The notes the reducers emitted for the next round.
    pub(crate) notes: PendingNotes<R::Key, R::Note>,
    pub(crate) metrics: JobMetrics,
}

impl Job {
    /// Runs one round over `state`, partitioned over this job's reduce
    /// tasks: merges `notes`, joins, writes the next state (its
    /// partitions spill as `next` says) and collects the notes the
    /// reducer emits for the round after.
    pub(crate) fn run_round<R: StateReducer>(
        &self,
        reducer: &R,
        state: Vec<StatePartition<R::Key, R::State>>,
        notes: PendingNotes<R::Key, R::Note>,
        next: Option<&StateSpill>,
    ) -> RoundResult<R> {
        assert_eq!(
            state.len(),
            self.config().effective_reduce_tasks(),
            "round state is partitioned over the job's reduce tasks"
        );
        let counters = notes.counters;
        let mut metrics = self.start_metrics(&counters, notes.records);
        metrics.map_tasks = notes.tasks;
        metrics.timings.map = notes.map_time;
        let partitions = self.merge_phase(notes.runs, &counters, &mut metrics);
        // The merge consumed every disk run.
        drop(notes.spill);

        let emitted = MapOutput::new(self.config());
        let emitted_counters = Counters::new();
        let (side, state) = self.reduce_phase(
            partitions,
            state,
            |p, part, groups, out| {
                let mut emission = emitted.task(p);
                let part = join(
                    reducer,
                    part,
                    groups,
                    out,
                    &mut emission,
                    PartitionWriter::new(next, p),
                );
                emission.finish(&emitted_counters);
                part
            },
            &counters,
            &mut metrics,
        );
        finish_metrics(&counters, &mut metrics);
        let (runs, spill) = emitted.finish(&emitted_counters);
        let notes = PendingNotes {
            runs,
            spill,
            counters: emitted_counters,
            records: live(&state),
            tasks: state.len(),
            map_time: Duration::ZERO,
        };
        RoundResult {
            side,
            state,
            notes,
            metrics,
        }
    }

    /// A map pass over `state`: map task *p* reads state partition *p* by
    /// reference and emits `notes` of every record — the same notes, runs
    /// and tags the reduce task writing partition *p* would have emitted.
    pub(crate) fn map_state<K: Key, S: Value, N: Value>(
        &self,
        state: &[StatePartition<K, S>],
        notes: impl Fn(&K, &S, &mut Emitter<K, N>) + Sync,
    ) -> PendingNotes<K, N> {
        let counters = Counters::new();
        let mut metrics = JobMetrics::default();
        let (runs, spill) = self.map_phase(
            TaskQueue::unit(state.len()),
            &counters,
            &mut metrics,
            None,
            |task, out| {
                state[task.index]
                    .for_each(|key, record| out.emit(|emitter| notes(key, record, emitter)))
            },
        );
        PendingNotes {
            runs,
            spill,
            counters,
            records: live(state),
            tasks: metrics.map_tasks,
            map_time: metrics.timings.map,
        }
    }
}
