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

use std::time::Duration;

use parking_lot::Mutex;
use smr_storage::{Run, RunFile, RunWriter, SpillDir, StorageError};

use crate::counters::Counters;
use crate::executor::{finish_metrics, Job, MapOutput, TaggedRuns, TaskOutput};
use crate::metrics::JobMetrics;
use crate::partition::hash_partition;
use crate::task_queue::TaskQueue;
use crate::types::{Emitter, Key, ReduceGroups, StateReducer, Value};

/// Where the partitions of a budgeted round state go once they outgrow
/// their share of the budget.
#[derive(Debug)]
pub(crate) struct StateSpill {
    /// Encoded bytes a partition may hold in RAM.
    pub(crate) share: u64,
    /// The flow's directory, held by every partition file in it.
    pub(crate) dir: SpillDir,
}

/// Builds one state partition from records pushed in key order: in RAM
/// until the encoded size passes the spill share, then in a run file.
struct PartitionWriter<'a, K, S> {
    records: Vec<(K, S)>,
    bytes: u64,
    spill: Option<&'a StateSpill>,
    file: Option<RunWriter<(K, S)>>,
}

/// A round-state file could not be written: an environment failure,
/// like a full disk.
fn write_failed<T>(e: StorageError) -> T {
    panic!("failed to write round state: {e}")
}

impl<'a, K: Key, S: Value> PartitionWriter<'a, K, S> {
    fn new(spill: Option<&'a StateSpill>) -> Self {
        PartitionWriter {
            records: Vec::new(),
            bytes: 0,
            spill,
            file: None,
        }
    }

    fn push(&mut self, key: K, state: S) {
        self.bytes += (key.encoded_len() + state.encoded_len()) as u64;
        if let Some(file) = &mut self.file {
            return file.push(&(key, state)).unwrap_or_else(write_failed);
        }
        self.records.push((key, state));
        if let Some(spill) = self.spill.filter(|spill| self.bytes > spill.share) {
            let mut file = spill.dir.writer().unwrap_or_else(write_failed);
            for record in std::mem::take(&mut self.records) {
                file.push(&record).unwrap_or_else(write_failed);
            }
            self.file = Some(file);
        }
    }

    fn finish(self) -> Run<(K, S)> {
        match (self.file, self.spill) {
            (Some(file), Some(spill)) => {
                let run = file.finish().unwrap_or_else(write_failed);
                Run::File(RunFile::new(run, Some(spill.dir.clone())))
            }
            _ => Run::Memory(self.records, self.bytes),
        }
    }
}

/// Hash-partitions records over `n` partitions.  The records must arrive
/// in key order within each partition, as a sorted seed does.
pub(crate) fn partition_sorted<K: Key, S: Value>(
    records: impl IntoIterator<Item = (K, S)>,
    n: usize,
    spill: Option<&StateSpill>,
) -> Vec<Run<(K, S)>> {
    let mut writers: Vec<PartitionWriter<'_, K, S>> =
        (0..n).map(|_| PartitionWriter::new(spill)).collect();
    for (key, state) in records {
        writers[hash_partition(&key, n)].push(key, state);
    }
    writers.into_iter().map(PartitionWriter::finish).collect()
}

/// The number of records in `state`.
pub(crate) fn live<K: Key, S: Value>(state: &[Run<(K, S)>]) -> usize {
    state.iter().map(Run::len).sum()
}

/// The notes a round consumes, emitted before it runs — by the reduce
/// tasks of the round before, or by a map pass over the state
/// ([`Job::map_state`]): their sorted runs, tagged task *p* for state
/// partition *p*, and the counters of their emission, which become the
/// consuming job's.
pub(crate) struct PendingNotes<K, N> {
    runs: TaggedRuns<K, N>,
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
    state: Run<(R::Key, R::State)>,
    notes: ReduceGroups<'_, R::Key, R::Note>,
    out: &mut Emitter<R::OutKey, R::OutValue>,
    emission: &mut TaskOutput<'_, R::Key, R::Note>,
    mut next: PartitionWriter<'_, R::Key, R::State>,
) -> Run<(R::Key, R::State)> {
    let mut notes = notes.peekable();
    for (key, record) in state {
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
    pub(crate) state: Vec<Run<(R::Key, R::State)>>,
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
        state: Vec<Run<(R::Key, R::State)>>,
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
                    PartitionWriter::new(next),
                );
                emission.finish(&emitted_counters);
                part
            },
            &counters,
            &mut metrics,
        );
        finish_metrics(&counters, &mut metrics);
        let notes = PendingNotes {
            runs: emitted.finish(&emitted_counters),
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
        state: &[Run<(K, S)>],
        notes: impl Fn(&K, &S, &mut Emitter<K, N>) + Sync,
    ) -> PendingNotes<K, N> {
        let counters = Counters::new();
        let mut metrics = JobMetrics::default();
        let runs = self.map_phase(
            TaskQueue::unit(state.len()),
            &counters,
            &mut metrics,
            None,
            |task, out| {
                state[task.index]
                    .for_each(|(key, record)| out.emit(|emitter| notes(key, record, emitter)))
            },
        );
        PendingNotes {
            runs,
            counters,
            records: live(state),
            tasks: metrics.map_tasks,
            map_time: metrics.timings.map,
        }
    }
}
