//! A typed dataflow layer over the job executor.
//!
//! The paper's algorithms are *chains* of MapReduce jobs — the similarity
//! join of Section 4 followed by the per-round jobs of GreedyMR and
//! StackMR in Sections 5–6 — but [`crate::Job`] runs a single job.  This module
//! adds the API that callers chain jobs with:
//!
//! * [`FlowContext`] — shared execution state: the [`JobConfig`] every job
//!   of the chain runs under, a transient directory for round-state spill
//!   files ([`FlowContext::side_store`]), and the accumulated
//!   [`JobMetrics`] of every job the flow has executed
//!   ([`FlowContext::report`] snapshots them as a [`FlowReport`]).
//! * [`Dataset<K, V>`] — the `(K, V)` records of one step of the chain:
//!   the input ([`FlowContext::dataset`]) or a job's output.
//!   [`Dataset::collect`] returns them.
//! * [`JobStage`] — a job under construction: [`Dataset::map_with`] fixes
//!   the mapper, [`JobStage::named`] / [`JobStage::with_counters`]
//!   optionally name it and supply its counters, and
//!   [`JobStage::reduce_with`] runs the job on the spot, yielding the
//!   next `Dataset` in the chain.  A job built from an earlier job's
//!   output, or from side data the driver builds (the similarity join's
//!   probe mapper borrows a driver-built index), is plain straight-line
//!   code: collect or build, then map.  Mappers and reducers may borrow.
//! * [`RoundState`] — the state of an iterative chain, kept in partitions
//!   beside its round jobs: a round has no map phase, its reducer joins
//!   each key's state with the notes sent to it and emits the notes of the
//!   next round.
//!
//! Records move between stages by value: a completed job's output `Vec` is
//! handed to the next job as its input without cloning or re-sorting.
//!
//! # Example
//!
//! ```
//! use smr_mapreduce::flow::FlowContext;
//! use smr_mapreduce::prelude::*;
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type InKey = usize;
//!     type InValue = String;
//!     type OutKey = String;
//!     type OutValue = u64;
//!     fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
//!         for w in text.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type Key = String;
//!     type InValue = u64;
//!     type OutKey = String;
//!     type OutValue = u64;
//!     fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
//!         out.emit(k.clone(), vs.iter().sum());
//!     }
//! }
//!
//! let flow = FlowContext::named("wc");
//! let mut counts = flow
//!     .dataset(vec![(0usize, "a b a".to_string()), (1, "b c".to_string())])
//!     .map_with(Tokenize)
//!     .reduce_with(Sum)
//!     .collect();
//! counts.sort();
//! assert_eq!(counts[0], ("a".to_string(), 2));
//! assert_eq!(flow.report().num_jobs(), 1);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use smr_storage::{Run, SpillDir};

use crate::config::JobConfig;
use crate::counters::Counters;
use crate::executor::Job;
use crate::metrics::JobMetrics;
use crate::round::{live, partition_sorted, PendingNotes, StateSpill};
use crate::types::{Emitter, Key, Mapper, Reducer, StateReducer, Value};

/// The records a dataset materializes to.
pub type Records<K, V> = Vec<(K, V)>;

/// A typed error raised by the flow's storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The storage backend failed (I/O error, corrupt file, …).
    Storage {
        /// The requested path.
        path: String,
        /// The backend's error message.
        message: String,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FlowError::Storage { path, message } = self;
        write!(f, "storage error at `{path}`: {message}")
    }
}

impl std::error::Error for FlowError {}

/// Summary of every job a flow has executed so far, in execution order.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Metrics of every job, in execution order.
    pub jobs: Vec<JobMetrics>,
    /// Accumulated totals over all jobs.
    pub totals: JobMetrics,
    /// Storage errors the flow swallowed to keep a pipeline running.  No
    /// path records one yet — storage failures still panic — so this is
    /// always empty; a healthy run has none.
    pub errors: Vec<FlowError>,
    /// Job indices at which iterative rounds started (recorded by
    /// [`FlowContext::mark_round`]), in order.  Empty for non-iterative
    /// flows.
    pub round_starts: Vec<usize>,
}

impl FlowReport {
    fn new(jobs: Vec<JobMetrics>, round_starts: Vec<usize>) -> Self {
        let mut totals = JobMetrics {
            job_name: "totals".to_string(),
            ..JobMetrics::default()
        };
        for job in &jobs {
            totals.accumulate(job);
        }
        FlowReport {
            jobs,
            totals,
            errors: Vec::new(),
            round_starts,
        }
    }

    /// Number of MapReduce jobs the flow has executed.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total records shuffled across all jobs — the paper's communication
    /// cost of the whole chain.
    pub fn total_shuffled_records(&self) -> u64 {
        self.totals.shuffle_records
    }

    /// The job names in execution order.
    pub fn job_names(&self) -> Vec<&str> {
        self.jobs.iter().map(|m| m.job_name.as_str()).collect()
    }

    /// Number of iterative rounds the flow recorded (see
    /// [`FlowContext::mark_round`]).
    pub fn num_rounds(&self) -> usize {
        self.round_starts.len()
    }

    /// The metrics of exactly the jobs of round `round` — a *round-local*
    /// view: jobs of other rounds (and pre-round jobs like a similarity
    /// join sharing the flow) never alias into it.  Empty when the round
    /// was never recorded.
    pub fn round_jobs(&self, round: usize) -> &[JobMetrics] {
        let Some(&start) = self.round_starts.get(round) else {
            return &[];
        };
        let end = self
            .round_starts
            .get(round + 1)
            .copied()
            .unwrap_or(self.jobs.len());
        self.jobs.get(start..end).unwrap_or_default()
    }
}

struct FlowInner {
    config: JobConfig,
    jobs: Mutex<Vec<JobMetrics>>,
    anonymous_jobs: AtomicUsize,
    /// Job indices at which iterative rounds started.
    round_starts: Mutex<Vec<usize>>,
    /// The flow's one directory (see [`FlowContext::side_store`]).
    side: SpillDir,
}

/// Shared state of a job chain: the [`JobConfig`] every job runs under,
/// a transient directory for round-state spill files, and the
/// accumulated metrics of every executed job.
///
/// Cloning a `FlowContext` is cheap and every clone shares the same state,
/// so one context can be threaded through an entire pipeline (similarity
/// join, then every round of a matching algorithm) and report all jobs in
/// one [`FlowReport`].
#[derive(Clone)]
pub struct FlowContext {
    inner: Arc<FlowInner>,
}

impl std::fmt::Debug for FlowContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowContext")
            .field("config", &self.inner.config)
            .field("jobs", &self.inner.jobs.lock().len())
            .finish()
    }
}

impl FlowContext {
    /// Creates a flow whose jobs all run under `config`.  The config's
    /// `name` prefixes every job name of the chain.
    pub fn new(config: JobConfig) -> Self {
        FlowContext {
            inner: Arc::new(FlowInner {
                jobs: Mutex::new(Vec::new()),
                anonymous_jobs: AtomicUsize::new(0),
                round_starts: Mutex::new(Vec::new()),
                side: SpillDir::new("smr-flow", config.spill_dir.clone()),
                config,
            }),
        }
    }

    /// Creates a flow with a default config carrying the given name.
    pub fn named(name: impl Into<String>) -> Self {
        FlowContext::new(JobConfig::named(name))
    }

    /// The job configuration every job of this flow runs under.
    pub fn config(&self) -> &JobConfig {
        &self.inner.config
    }

    /// Number of jobs the flow has executed so far.  Combined with
    /// [`FlowContext::jobs_from`] this isolates the metrics of one
    /// sub-chain (e.g. one algorithm round) out of a longer flow.
    pub fn num_jobs(&self) -> usize {
        self.inner.jobs.lock().len()
    }

    /// The metrics of every job executed since `start` (a value previously
    /// returned by [`FlowContext::num_jobs`]), in execution order.
    pub fn jobs_from(&self, start: usize) -> Vec<JobMetrics> {
        let jobs = self.inner.jobs.lock();
        jobs.get(start..).unwrap_or_default().to_vec()
    }

    /// Marks the start of an iterative round: every job executed from now
    /// until the next mark belongs to this round.  The recorded boundaries
    /// make [`FlowReport::round_jobs`] round-local, so per-round metrics
    /// never alias across rounds (or into pre-round jobs of a shared
    /// flow).
    pub fn mark_round(&self) {
        let jobs = self.inner.jobs.lock().len();
        self.inner.round_starts.lock().push(jobs);
    }

    /// Snapshot of every executed job plus accumulated totals.
    pub fn report(&self) -> FlowReport {
        FlowReport::new(
            self.inner.jobs.lock().clone(),
            self.inner.round_starts.lock().clone(),
        )
    }

    /// Creates a dataset from already materialized records, handed to the
    /// first job untouched.
    pub fn dataset<K: Key, V: Value>(&self, records: Records<K, V>) -> Dataset<K, V> {
        Dataset {
            ctx: self.clone(),
            records,
        }
    }

    /// The flow's one directory, where [`RoundState`] partitions that
    /// outgrow their share of the memory budget live between rounds:
    /// `smr-flow-{pid}-{seq}` under [`JobConfig::spill_dir`] (the system
    /// temp directory when unset), created on first use, shared by every
    /// clone of the context and deleted when the flow and the last
    /// partition file in it drop.  A flow that never spills round state
    /// creates no directory.
    ///
    /// # Panics
    /// Panics when the directory cannot be created (an environment
    /// failure, like a full disk).
    pub fn side_store(&self) -> &Path {
        (self.inner.side.path()).unwrap_or_else(|e| panic!("failed to create flow directory: {e}"))
    }

    /// Creates an empty [`RoundState`] for an iterative computation driven
    /// through this flow: the records that survive from one round to the
    /// next, partitioned over the flow's reduce tasks, and the notes
    /// pending for the next round.  Partitions that outgrow their share of
    /// the memory budget live in run files in the flow's directory
    /// ([`FlowContext::side_store`]).
    pub fn round_state<K: Key, S: Value, N: Value>(
        &self,
        name: impl Into<String>,
    ) -> RoundState<K, S, N> {
        let config = self.config();
        RoundState {
            ctx: self.clone(),
            name: name.into(),
            spill: config.memory_budget.map(|budget| StateSpill {
                share: budget / config.effective_reduce_tasks() as u64,
                dir: self.inner.side.clone(),
            }),
            partitions: Vec::new(),
            pending: None,
            live: 0,
            max_state_bytes: 0,
        }
    }

    fn record_job(&self, metrics: JobMetrics) {
        self.inner.jobs.lock().push(metrics);
    }

    /// Resolves the name of the next job: `{config.name}-{stage}` for a
    /// named stage, `{config.name}-job-{n}` otherwise.
    fn job_name(&self, stage: Option<&str>) -> String {
        match stage {
            Some(stage) => format!("{}-{stage}", self.inner.config.name),
            None => {
                let n = self.inner.anonymous_jobs.fetch_add(1, Ordering::Relaxed);
                format!("{}-job-{n}", self.inner.config.name)
            }
        }
    }
}

/// The inter-round state of an iterative job chain: one `(K, S)` record
/// per key that survives from one round to the next, kept beside the
/// jobs instead of flowing through them, and the `N` notes pending for
/// the next round.
///
/// [`RoundState::seed`] hash-partitions the records over the flow's
/// reduce tasks and sorts each partition by key; the partition count is
/// fixed per flow, so results are deterministic per task layout.  A
/// partition stays in RAM while its encoded size is within the memory
/// budget's share per reduce task (always, without a budget) and lives in
/// one run file in the flow's directory ([`FlowContext::side_store`])
/// above that.
///
/// [`RoundState::round`] runs one job without a map phase: it merges the
/// pending notes, and reduce task *p* merge-joins partition *p* with the
/// notes merged for it ([`StateReducer`]), writes partition *p* of the
/// next round itself and emits the notes of the round after — which stay
/// pending, in RAM or in spill files within the budget, until that round
/// consumes them.  [`RoundState::map`] emits notes with a pass over the
/// state instead: after `seed`, and wherever the next round's notes
/// cannot come from the previous round's reducer.  State records are
/// moved from round to round and never cloned; a file is removed as soon
/// as its partition or its notes are consumed, and on drop.
pub struct RoundState<K: Key, S: Value, N: Value> {
    ctx: FlowContext,
    name: String,
    /// Where partitions past their share of the budget go; `None`
    /// without a budget.
    spill: Option<StateSpill>,
    partitions: Vec<Run<(K, S)>>,
    /// The notes the next round consumes.
    pending: Option<PendingNotes<K, N>>,
    live: usize,
    max_state_bytes: u64,
}

impl<K: Key, S: Value, N: Value> std::fmt::Debug for RoundState<K, S, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundState")
            .field("name", &self.name)
            .field("partitions", &self.partitions.len())
            .field("live", &self.live)
            .field("notes_pending", &self.pending.is_some())
            .finish()
    }
}

impl<K: Key, S: Value, N: Value> RoundState<K, S, N> {
    /// Installs the round-0 records, replacing any current state and
    /// dropping any pending notes.  Keys must be unique.
    pub fn seed(&mut self, mut records: Records<K, S>) {
        self.pending = None;
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let parts = self.ctx.config().effective_reduce_tasks();
        self.install(partition_sorted(records, parts, self.spill.as_ref()));
    }

    /// Emits the next round's notes with a pass over the state: `notes`
    /// reads every record by reference, partition by partition, and
    /// replaces any pending notes.  A run calls it after `seed`, and
    /// where the previous round's reducer cannot emit the notes — it held
    /// a different state, or emitting early would hold the notes in
    /// memory across other work.
    pub fn map(&mut self, notes: impl Fn(&K, &S, &mut Emitter<K, N>) + Sync) {
        let job = Job::new(self.ctx.config().clone());
        self.pending = Some(job.map_state(&self.partitions, notes));
    }

    /// Number of live (non-retired) records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live records remain — the usual convergence signal.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest encoded size, in bytes, the whole state has had after
    /// its seed or any round — in RAM and in run files alike.
    pub fn max_state_bytes(&self) -> u64 {
        self.max_state_bytes
    }

    /// Runs one round: a job named `stage` (see [`JobStage::named`]) that
    /// merges the pending notes — none, when nothing emitted any — and
    /// whose `reducer` gets every key's state beside its notes, keeps or
    /// retires it, and emits the notes of the next round.  Returns the
    /// reducers' side output in partition order.  The job's metrics land
    /// in the flow's [`FlowReport`]: its map side is the emission of the
    /// notes it consumed, so `timings.map` is zero unless they came from
    /// [`RoundState::map`].
    pub fn round<R>(
        &mut self,
        stage: impl Into<String>,
        reducer: R,
    ) -> Records<R::OutKey, R::OutValue>
    where
        R: StateReducer<Key = K, State = S, Note = N>,
    {
        let name = self.ctx.job_name(Some(&stage.into()));
        let job = Job::new(self.ctx.config().clone().with_name(name));
        let parts = self.ctx.config().effective_reduce_tasks();
        let notes = self
            .pending
            .take()
            .unwrap_or_else(|| PendingNotes::none(parts));
        let state = std::mem::take(&mut self.partitions);
        let result = job.run_round(&reducer, state, notes, self.spill.as_ref());
        self.ctx.record_job(result.metrics);
        self.install(result.state);
        self.pending = Some(result.notes);
        result.side
    }

    fn install(&mut self, partitions: Vec<Run<(K, S)>>) {
        let bytes = partitions.iter().map(Run::bytes).sum();
        self.max_state_bytes = self.max_state_bytes.max(bytes);
        self.live = live(&partitions);
        self.partitions = partitions;
    }
}

/// The `(K, V)` records of one step of a job chain: a flow's input, or
/// the output of the job [`JobStage::reduce_with`] has just run.
///
/// A job hands its output records to the next job *by move*; no stage
/// clones or re-sorts between jobs.
pub struct Dataset<K: Key, V: Value> {
    ctx: FlowContext,
    records: Records<K, V>,
}

impl<K: Key, V: Value> std::fmt::Debug for Dataset<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset").field("ctx", &self.ctx).finish()
    }
}

impl<K: Key, V: Value> Dataset<K, V> {
    /// Starts the next job of the chain by fixing its mapper;
    /// [`JobStage::reduce_with`] runs the job.
    pub fn map_with<M>(self, mapper: M) -> JobStage<M>
    where
        M: Mapper<InKey = K, InValue = V>,
    {
        JobStage {
            ctx: self.ctx,
            input: self.records,
            mapper,
            stage_name: None,
            counters: None,
        }
    }

    /// Returns the records.
    pub fn collect(self) -> Records<K, V> {
        self.records
    }
}

/// One MapReduce job under construction inside a [`Dataset`] chain: the
/// mapper is fixed, and [`JobStage::reduce_with`] runs the job.
pub struct JobStage<M: Mapper> {
    ctx: FlowContext,
    input: Records<M::InKey, M::InValue>,
    mapper: M,
    stage_name: Option<String>,
    counters: Option<Counters>,
}

impl<M: Mapper> std::fmt::Debug for JobStage<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobStage")
            .field("stage_name", &self.stage_name)
            .finish()
    }
}

impl<M: Mapper> JobStage<M> {
    /// Names this job: the executed job is called `{flow name}-{name}` and
    /// shows up under that name in the [`FlowReport`].
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.stage_name = Some(name.into());
        self
    }

    /// Runs the job with an externally supplied [`Counters`] set instead
    /// of a fresh one.  User counters bumped from map/reduce code holding
    /// a clone of the same set (e.g. domain counters like pruned
    /// candidates) are snapshotted into the job's
    /// [`JobMetrics::user_counters`] when the job completes, alongside the
    /// built-in counters.
    pub fn with_counters(mut self, counters: Counters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Runs the job with its reducer, records its metrics in the flow and
    /// returns its output as the next dataset of the chain.
    pub fn reduce_with<R>(self, reducer: R) -> Dataset<R::OutKey, R::OutValue>
    where
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        let JobStage {
            ctx,
            input,
            mapper,
            stage_name,
            counters,
        } = self;
        let name = ctx.job_name(stage_name.as_deref());
        let job = Job::new(ctx.config().clone().with_name(name));
        let result = job.run_full(&mapper, &reducer, input, counters.unwrap_or_default());
        ctx.record_job(result.metrics);
        Dataset {
            ctx,
            records: result.output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Job;
    use crate::types::Emitter;

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

    /// Keeps only words above a count threshold, re-keyed by count.
    struct ThresholdMapper(u64);
    impl Mapper for ThresholdMapper {
        type InKey = String;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = String;
        fn map(&self, word: &String, count: &u64, out: &mut Emitter<u64, String>) {
            if *count >= self.0 {
                out.emit(*count, word.clone());
            }
        }
    }

    struct JoinWords;
    impl Reducer for JoinWords {
        type Key = u64;
        type InValue = String;
        type OutKey = u64;
        type OutValue = String;
        fn reduce(&self, count: &u64, words: &[String], out: &mut Emitter<u64, String>) {
            let mut words = words.to_vec();
            words.sort();
            out.emit(*count, words.join(" "));
        }
    }

    fn input() -> Vec<(usize, String)> {
        vec![
            (0, "the quick brown fox".to_string()),
            (1, "the lazy dog".to_string()),
            (2, "the quick dog".to_string()),
        ]
    }

    fn config() -> JobConfig {
        JobConfig::named("flow-test").with_threads(2)
    }

    #[test]
    fn single_job_chain_matches_direct_job_execution() {
        let direct =
            Job::new(config().with_name("flow-test-wc")).run(&SplitWords, &SumCounts, input());

        let flow = FlowContext::new(config());
        let chained = flow
            .dataset(input())
            .map_with(SplitWords)
            .named("wc")
            .reduce_with(SumCounts)
            .collect();

        assert_eq!(chained, direct.output, "flow output must be byte-identical");
        let report = flow.report();
        assert_eq!(report.num_jobs(), 1);
        assert_eq!(report.jobs[0].job_name, "flow-test-wc");
        assert_eq!(
            report.jobs[0].shuffle_records,
            direct.metrics.shuffle_records
        );
        assert_eq!(
            report.total_shuffled_records(),
            direct.metrics.shuffle_records
        );
    }

    #[test]
    fn reduce_with_runs_the_job_before_collect() {
        let flow = FlowContext::new(config());
        let counted = flow
            .dataset(input())
            .map_with(SplitWords)
            .named("wc")
            .reduce_with(SumCounts);
        assert_eq!(flow.num_jobs(), 1, "reduce_with runs the job");
        let report = flow.report();
        assert_eq!(report.job_names(), vec!["flow-test-wc"]);
        assert_eq!(report.jobs[0].map_input_records, 3);
        assert_eq!(report.jobs[0].reduce_output_records, 6);
        assert_eq!(counted.collect().len(), 6);
        assert_eq!(flow.num_jobs(), 1, "collect runs nothing");
    }

    #[test]
    fn two_job_chain_moves_records_between_jobs() {
        let flow = FlowContext::new(config());
        let output = flow
            .dataset(input())
            .map_with(SplitWords)
            .named("count")
            .reduce_with(SumCounts)
            .map_with(ThresholdMapper(2))
            .named("frequent")
            .reduce_with(JoinWords)
            .collect();

        let mut output = output;
        output.sort();
        assert_eq!(
            output,
            vec![(2, "dog quick".to_string()), (3, "the".to_string())]
        );
        let report = flow.report();
        assert_eq!(report.num_jobs(), 2);
        assert_eq!(
            report.job_names(),
            vec!["flow-test-count", "flow-test-frequent"]
        );
        // Job 2's input is job 1's output, moved: its map input count must
        // equal job 1's reduce output count.
        assert_eq!(
            report.jobs[1].map_input_records,
            report.jobs[0].reduce_output_records
        );
    }

    #[test]
    fn external_counters_land_in_the_job_metrics() {
        struct CountingMapper(Counters);
        impl Mapper for CountingMapper {
            type InKey = usize;
            type InValue = String;
            type OutKey = String;
            type OutValue = u64;
            fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
                for w in text.split_whitespace() {
                    self.0.add("words_seen", 1);
                    out.emit(w.to_string(), 1);
                }
            }
        }
        let flow = FlowContext::new(config());
        let counters = Counters::new();
        counters.add("partitions_prepared", 3);
        let _ = flow
            .dataset(input())
            .map_with(CountingMapper(counters.clone()))
            .named("counted")
            .with_counters(counters.clone())
            .reduce_with(SumCounts)
            .collect();
        let job = &flow.report().jobs[0];
        assert_eq!(job.user_counters["words_seen"], 10);
        assert_eq!(job.user_counters["partitions_prepared"], 3);
        assert_eq!(counters.get("words_seen"), 10);
    }

    #[test]
    fn side_store_is_shared_lazy_and_removed_with_the_flow() {
        let base = std::env::temp_dir().join(format!("smr-flow-base-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let entries = || std::fs::read_dir(&base).unwrap().count();

        let flow = FlowContext::new(config().with_spill_dir(&base));
        let _ = flow
            .dataset(input())
            .map_with(SplitWords)
            .reduce_with(SumCounts)
            .collect();
        assert_eq!(
            entries(),
            0,
            "a flow that never asks for its directory creates none"
        );
        let dir = flow.side_store().to_path_buf();
        assert_eq!(dir.parent(), Some(base.as_path()));
        assert!(dir
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("smr-flow-"));
        std::fs::write(dir.join("state.run"), b"x").unwrap();
        // Clones see the same directory (and the same files).
        assert_eq!(flow.clone().side_store(), dir);
        assert!(flow.clone().side_store().join("state.run").exists());
        assert_eq!(entries(), 1, "the flow owns one directory");
        drop(flow);
        assert_eq!(entries(), 0, "the directory must not survive the flow");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn clones_share_jobs_and_store() {
        let flow = FlowContext::new(config());
        let clone = flow.clone();
        let counts = clone
            .dataset(input())
            .map_with(SplitWords)
            .reduce_with(SumCounts)
            .collect();
        assert!(!counts.is_empty());
        assert_eq!(flow.num_jobs(), 1);
        assert_eq!(flow.side_store(), clone.side_store());
    }

    #[test]
    fn jobs_from_isolates_a_sub_chain() {
        let flow = FlowContext::new(config());
        let _ = flow
            .dataset(input())
            .map_with(SplitWords)
            .reduce_with(SumCounts)
            .collect();
        let start = flow.num_jobs();
        let _ = flow
            .dataset(input())
            .map_with(SplitWords)
            .named("second")
            .reduce_with(SumCounts)
            .collect();
        let since = flow.jobs_from(start);
        assert_eq!(since.len(), 1);
        assert_eq!(since[0].job_name, "flow-test-second");
        assert!(flow.jobs_from(99).is_empty());
    }

    #[test]
    fn anonymous_jobs_get_sequential_names() {
        let flow = FlowContext::named("anon");
        for _ in 0..2 {
            let _ = flow
                .dataset(input())
                .map_with(SplitWords)
                .reduce_with(SumCounts)
                .collect();
        }
        assert_eq!(flow.report().job_names(), vec!["anon-job-0", "anon-job-1"]);
    }

    #[test]
    fn mark_round_gives_round_local_job_views() {
        let flow = FlowContext::new(config());
        // A pre-round job, like a similarity join sharing the flow.
        let _ = flow
            .dataset(input())
            .map_with(SplitWords)
            .named("pre")
            .reduce_with(SumCounts)
            .collect();
        for round in 0..2 {
            flow.mark_round();
            let _ = flow
                .dataset(input())
                .map_with(SplitWords)
                .named(format!("round-{round}"))
                .reduce_with(SumCounts)
                .collect();
        }
        let report = flow.report();
        assert_eq!(report.num_rounds(), 2);
        assert_eq!(report.round_starts, vec![1, 2]);
        // Round-local: neither the pre-round job nor the other round's job
        // aliases into a round's view.
        let names = |round| -> Vec<_> {
            let jobs = report.round_jobs(round);
            jobs.iter().map(|m| m.job_name.clone()).collect()
        };
        assert_eq!(names(0), vec!["flow-test-round-0"]);
        assert_eq!(names(1), vec!["flow-test-round-1"]);
        assert!(report.round_jobs(2).is_empty());
        assert_eq!(flow.jobs_from(1).len(), 2);
        assert_eq!(flow.jobs_from(99).len(), 0);
    }

    /// A round workload over `(key, history)` state: every key tells
    /// `(3k + 1) % 40` its key (keys 30..40 have no state, so some notes
    /// go nowhere) and appends what it heard plus itself; a key retires
    /// once its history passes four entries.  With `emit`, the reducer
    /// emits the next round's notes of every key it keeps.
    #[derive(Clone, Copy)]
    struct Gossip {
        emit: bool,
    }

    fn gossip_notes(k: &u32, _: &Vec<u32>, out: &mut Emitter<u32, u32>) {
        out.emit((3 * k + 1) % 40, *k);
    }

    impl StateReducer for Gossip {
        type Key = u32;
        type State = Vec<u32>;
        type Note = u32;
        type OutKey = u32;
        type OutValue = usize;
        fn reduce(
            &self,
            k: &u32,
            mut history: Vec<u32>,
            notes: &[u32],
            out: &mut Emitter<u32, usize>,
            next: &mut Emitter<u32, u32>,
        ) -> Option<Vec<u32>> {
            out.emit(*k, notes.len());
            history.extend_from_slice(notes);
            history.push(*k);
            let kept = (history.len() <= 4).then_some(history);
            if let (true, Some(history)) = (self.emit, &kept) {
                gossip_notes(k, history, next);
            }
            kept
        }
    }

    const FUSED: Gossip = Gossip { emit: true };

    fn gossip_state(flow: &FlowContext) -> RoundState<u32, Vec<u32>, u32> {
        let mut state = flow.round_state("gossip");
        state.seed((0..30).rev().map(|k| (k, Vec::new())).collect());
        state.map(gossip_notes);
        state
    }

    fn state_records<K: Key, S: Value, N: Value>(state: &RoundState<K, S, N>) -> Records<K, S> {
        let mut records = Vec::new();
        for partition in &state.partitions {
            partition.for_each(|record| records.push(record.clone()));
        }
        records
    }

    #[test]
    fn disk_round_state_keeps_one_file_and_cleans_up() {
        let flow = FlowContext::new(config().with_reduce_tasks(3).with_memory_budget(Some(64)));
        let files = || -> std::collections::BTreeSet<_> {
            let dir = std::fs::read_dir(flow.side_store()).unwrap();
            dir.map(|entry| entry.unwrap().file_name()).collect()
        };
        let mut state = gossip_state(&flow);
        let seeded = files();
        assert_eq!(seeded.len(), 3, "one file per partition over its share");
        let _ = state.round("gossip", FUSED);
        let next = files();
        assert_eq!(next.len(), 3, "each reduce task writes its partition");
        assert!(seeded.is_disjoint(&next), "superseded files are removed");
        drop(state);
        assert!(files().is_empty(), "drop removes every partition file");
    }

    #[test]
    fn keys_with_state_are_reduced_and_notes_to_keys_without_state_dropped() {
        let flow = FlowContext::new(config().with_reduce_tasks(3).with_memory_budget(None));
        let mut state = gossip_state(&flow);
        let side = state.round("gossip", FUSED);
        // Keys 0..30 tell (3k + 1) % 40: 23 of them tell a key with
        // state, the 7 that tell 30..40 reach nobody.
        assert_eq!(side.len(), 30, "every key with state is reduced once");
        let unnoted = side.iter().filter(|(_, notes)| *notes == 0).count();
        assert_eq!(unnoted, 7, "keys without notes are reduced too");
        assert_eq!(side.iter().map(|(_, notes)| notes).sum::<usize>(), 23);
        assert_eq!(state.len(), 30, "and carried forward");
        let job = &flow.report().jobs[0];
        assert_eq!(job.job_name, "flow-test-gossip");
        assert_eq!(job.map_input_records, 30);
        assert_eq!(job.shuffle_records, 30, "every note crossed the shuffle");
        assert_eq!(
            job.reduce_input_groups, 30,
            "23 groups with state, 7 without"
        );
    }

    /// The per-job counts the fused round must reproduce.
    fn record_flow(m: &JobMetrics) -> [u64; 6] {
        [
            m.map_input_records,
            m.map_output_records,
            m.shuffle_records,
            m.merge_runs,
            m.spill_bytes,
            m.disk_runs,
        ]
    }

    #[test]
    fn reducer_emitted_notes_match_a_map_pass_before_every_round() {
        let base = std::env::temp_dir().join(format!("smr-flow-fused-{}", std::process::id()));
        let spill_dirs = || {
            let names = std::fs::read_dir(&base)
                .unwrap()
                .map(|e| e.unwrap().file_name());
            names
                .filter(|name| name.to_string_lossy().starts_with("smr-spill-"))
                .count()
        };
        let mut traces = Vec::new();
        let (mut reduce_task_spills, mut state_on_disk) = (0, false);
        for threads in [1, 2] {
            for budget in [None, Some(4096), Some(64)] {
                let _ = std::fs::remove_dir_all(&base);
                std::fs::create_dir_all(&base).unwrap();
                let job = config()
                    .with_threads(threads)
                    .with_reduce_tasks(3)
                    .with_memory_budget(budget)
                    .with_spill_dir(&base);
                let (fused_flow, model_flow) =
                    (FlowContext::new(job.clone()), FlowContext::new(job));
                // The model: a map pass before every round, whose reducer
                // emits nothing.
                let (mut fused, mut model) = (gossip_state(&fused_flow), gossip_state(&model_flow));
                let mut trace = Vec::new();
                while !model.is_empty() {
                    if !trace.is_empty() {
                        model.map(gossip_notes);
                    }
                    state_on_disk |= (fused.partitions.iter()).any(|p| matches!(p, Run::File(_)));
                    let side = fused.round("gossip", FUSED);
                    assert_eq!(side, model.round("gossip", Gossip { emit: false }));
                    assert_eq!(state_records(&fused), state_records(&model));
                    assert!(spill_dirs() <= 1, "only pending notes keep their files");
                    trace.push((side, state_records(&fused)));
                }
                let rounds = trace.len();
                assert!(fused.is_empty() && rounds >= 3, "the workload must iterate");
                traces.push((trace, fused.max_state_bytes()));
                let (fused_jobs, model_jobs) = (fused_flow.report().jobs, model_flow.report().jobs);
                let flows = |jobs: &[JobMetrics]| jobs.iter().map(record_flow).collect::<Vec<_>>();
                assert_eq!(
                    flows(&fused_jobs),
                    flows(&model_jobs),
                    "threads={threads} budget={budget:?}"
                );
                // A reduce task's emission is timed inside its round.
                assert!(fused_jobs[1..].iter().all(|job| job.timings.map.is_zero()));
                reduce_task_spills += fused_jobs[1..].iter().map(|job| job.disk_runs).sum::<u64>();
                drop((fused, model));
                assert_eq!(
                    spill_dirs(),
                    0,
                    "dropping the state removes its pending notes"
                );
            }
        }
        assert!(
            reduce_task_spills > 0,
            "some notes must spill from a reduce task"
        );
        // 64 bytes over 3 partitions: every partition outgrows its share.
        assert!(state_on_disk);
        assert!(
            traces.iter().all(|trace| *trace == traces[0]),
            "side output, state and encoded size at every thread count and budget"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn a_disk_backed_round_state_drains_out_of_core_without_notes() {
        // Counters drain by one per round and retire at zero; nobody
        // sends notes, and every partition outgrows a 16-byte budget.
        struct Drain;
        impl StateReducer for Drain {
            type Key = u32;
            type State = u64;
            type Note = ();
            type OutKey = u32;
            type OutValue = ();
            fn reduce(
                &self,
                _: &u32,
                c: u64,
                _: &[()],
                _: &mut Emitter<u32, ()>,
                _: &mut Emitter<u32, ()>,
            ) -> Option<u64> {
                (c > 1).then(|| c - 1)
            }
        }
        let flow = FlowContext::new(JobConfig::named("drain").with_memory_budget(Some(16)));
        let mut state = flow.round_state("drain");
        state.seed(vec![(1u32, 2u64), (2, 4), (3, 1)]);
        while !state.is_empty() {
            flow.mark_round();
            let _ = state.round(format!("drain-{}", flow.report().num_rounds()), Drain);
        }
        let report = flow.report();
        assert_eq!(report.num_rounds(), 4, "the deepest counter holds 4 rounds");
        assert_eq!(report.num_jobs(), 4);
        assert_eq!(report.totals.shuffle_records, 0);
        assert!(state.max_state_bytes() > 0);
    }
}
