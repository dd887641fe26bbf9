//! The sharded (multi-process) execution paths of a job.
//!
//! A job whose [`JobConfig::process_shards`][crate::JobConfig] is set and
//! that runs while a sharded session is active (see
//! [`crate::process_shard`]) executes here instead of the local path of
//! [`Job::run_full`].  Both sides of the protocol live in this module,
//! because both sides run *the same program*:
//!
//! * the **worker** path runs the ordinary streaming map phase restricted
//!   to the shard's contiguous slice of the global map-task space, exports
//!   every `(partition, task, seq)` run as a run file in its attempt
//!   directory and commits a checksummed [`ShardManifest`] naming them;
//!   the commit ends the worker process;
//! * the **coordinator** path collects one validated manifest per shard
//!   (the runtime supervises spawning, timeouts and retries), folds the
//!   workers' counter deltas into its own counter set, re-hydrates the
//!   manifests' runs as disk runs and pushes them through the *existing*
//!   merge and reduce phases — so the output is byte-identical to the
//!   in-process engine for any shard count.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use smr_storage::{CompletedRun, ManifestRun, Run, RunFile, RunWriter, ShardManifest};

use crate::counters::Counters;
use crate::executor::{Job, TaggedRun, TaggedRuns};
use crate::metrics::JobMetrics;
use crate::process_shard::{
    current_runtime, shard_task_range, ProcessShardRuntime, ShardJob, ShardJobCheck, ShardRole,
};
use crate::task_queue::TaskQueue;
use crate::types::{Mapper, Reducer};

impl Job {
    /// The installed shard runtime and this job's place in its session,
    /// when this job opted into process sharding, a sharded session is
    /// active and the runtime gives this process a role in the job.
    pub(crate) fn shard_runtime(&self) -> Option<(Arc<dyn ProcessShardRuntime>, ShardJob)> {
        self.config().process_shards?;
        let runtime = current_runtime()?;
        let job = runtime.begin_job(self.config())?;
        Some((runtime, job))
    }

    /// Runs one job through the sharded multi-process runtime and returns
    /// its output (a worker never returns); the caller has done the
    /// common prologue (metrics init, input counter) and finishes the
    /// metrics.
    pub(crate) fn run_process_sharded<M, R>(
        &self,
        (runtime, job): (&dyn ProcessShardRuntime, ShardJob),
        mapper: &M,
        reducer: &R,
        input: &[(M::InKey, M::InValue)],
        counters: &Counters,
        metrics: &mut JobMetrics,
    ) -> Vec<(R::OutKey, R::OutValue)>
    where
        M: Mapper,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        let config = self.config();
        let num_reduce_tasks = config.effective_reduce_tasks();
        // The *scheduled* task count (0 for an empty input), computed the
        // same way on every participant and cross-checked through the
        // manifest: it defines the task index space the shards partition.
        let num_map_tasks =
            TaskQueue::split(input.len(), config.effective_map_tasks(input.len())).num_tasks();
        let check = ShardJobCheck {
            job_name: config.name.clone(),
            input_records: input.len() as u64,
            num_map_tasks: num_map_tasks as u64,
        };

        match runtime.role() {
            ShardRole::Coordinator => {
                let manifests = runtime.collect_manifests(&job, &check);

                // Fold the workers' map-side counter deltas (built-in and
                // user counters alike) into the coordinator's set: each
                // map task ran in exactly one worker, so the totals equal
                // the in-process run's.  The map wall clock is the slowest
                // worker's, as a cluster would report it.
                let mut map_micros = 0u64;
                for manifest in &manifests {
                    for (name, delta) in &manifest.counters {
                        counters.add(name, *delta);
                    }
                    map_micros = map_micros.max(manifest.map_micros);
                }
                metrics.map_tasks = num_map_tasks;
                metrics.timings.map = Duration::from_micros(map_micros);

                // Re-hydrate every manifest entry as a file run.  The
                // `(task, seq)` tags survive the process boundary, so the
                // existing merge machinery orders them exactly as it
                // orders local runs — byte identity needs no new code.
                // The runs hold no directory: the session removes its own.
                let runs: TaggedRuns<M::OutKey, M::OutValue> = (0..num_reduce_tasks)
                    .map(|_| Mutex::new(Vec::new()))
                    .collect();
                for manifest in &manifests {
                    let attempt_dir = job
                        .job_dir
                        .join(format!("shard-{}", manifest.shard))
                        .join(format!("attempt-{}", manifest.attempt));
                    for entry in &manifest.runs {
                        let partition = usize::try_from(entry.partition).expect("partition index");
                        assert!(
                            partition < num_reduce_tasks,
                            "shard {} manifest names partition {partition} of {num_reduce_tasks}",
                            manifest.shard
                        );
                        let run = CompletedRun {
                            path: attempt_dir.join(&entry.file),
                            records: entry.records,
                            bytes: entry.bytes,
                        };
                        runs[partition].lock().push(TaggedRun {
                            task: entry.task as usize,
                            seq: if entry.seq == u64::MAX {
                                usize::MAX
                            } else {
                                entry.seq as usize
                            },
                            run: Run::File(RunFile::new(run, None)),
                        });
                    }
                }

                let partitions = self.merge_phase(runs, counters, metrics);
                self.reduce_groups(reducer, partitions, counters, metrics)
            }
            ShardRole::Worker { shard, attempt } => {
                // Map only this shard's slice of the global task space,
                // with the exact per-task budget and spill schedule of an
                // unsharded run.  The counter snapshot around the phase
                // isolates the deltas this shard contributed.
                let range = shard_task_range(shard, job.num_shards, num_map_tasks);
                let before = counters.snapshot();
                let runs = self.map_records(mapper, input, counters, metrics, Some(range));
                let after = counters.snapshot();
                // A zero delta still matters when the map phase *created*
                // the counter (`add(name, 0)` materialises the key):
                // recording it keeps the coordinator's counter key set
                // identical to an in-process run's.
                let deltas: Vec<(String, u64)> = after
                    .iter()
                    .filter_map(|(name, total)| {
                        let previous = before.get(name).copied();
                        let delta = total - previous.unwrap_or(0);
                        (delta > 0 || previous.is_none()).then(|| (name.clone(), delta))
                    })
                    .collect();

                let attempt_dir = job
                    .attempt_dir
                    .clone()
                    .expect("worker job has an attempt dir");
                std::fs::create_dir_all(&attempt_dir)
                    .unwrap_or_else(|e| panic!("cannot create shard dir {attempt_dir:?}: {e}"));
                // Exporting consumes the runs: the spill directory goes
                // with the last spilled one.
                let entries = export_runs(runs, &attempt_dir);

                let manifest = ShardManifest {
                    job_name: check.job_name.clone(),
                    job_seq: job.seq,
                    shard: shard as u64,
                    num_shards: job.num_shards as u64,
                    attempt,
                    input_records: check.input_records,
                    num_map_tasks: check.num_map_tasks,
                    runs: entries,
                    counters: deltas,
                    map_micros: u64::try_from(metrics.timings.map.as_micros()).unwrap_or(u64::MAX),
                };
                runtime.commit_manifest(&job, &manifest)
            }
        }
    }
}

/// Writes every run to `attempt_dir` in the wire format and returns the
/// manifest entries naming them.  In-memory runs are encoded through a
/// [`RunWriter`]; spilled runs already *are* run files (the spill format
/// is the wire format) and ship as a straight file copy.
fn export_runs<K, V>(runs: TaggedRuns<K, V>, attempt_dir: &Path) -> Vec<ManifestRun>
where
    K: crate::types::Key,
    V: crate::types::Value,
{
    let mut entries = Vec::new();
    for (partition, bucket) in runs.into_iter().enumerate() {
        for run in bucket.into_inner() {
            let seq_name = if run.seq == usize::MAX {
                "final".to_string()
            } else {
                run.seq.to_string()
            };
            let file = format!("p{partition:05}-t{:06}-s{seq_name}.run", run.task);
            let path = attempt_dir.join(&file);
            let (records, bytes) = match run.run {
                Run::Memory(records, _) => {
                    let mut writer: RunWriter<(K, V)> = RunWriter::create(&path)
                        .unwrap_or_else(|e| panic!("cannot create shard run {path:?}: {e}"));
                    for record in &records {
                        writer
                            .push(record)
                            .unwrap_or_else(|e| panic!("cannot write shard run {path:?}: {e}"));
                    }
                    let done = writer
                        .finish()
                        .unwrap_or_else(|e| panic!("cannot finish shard run {path:?}: {e}"));
                    (done.records, done.bytes)
                }
                Run::File(spilled) => {
                    let completed = spilled.completed();
                    std::fs::copy(&completed.path, &path)
                        .unwrap_or_else(|e| panic!("cannot ship spilled run to {path:?}: {e}"));
                    (completed.records, completed.bytes)
                }
            };
            entries.push(ManifestRun {
                partition: partition as u64,
                task: run.task as u64,
                seq: if run.seq == usize::MAX {
                    u64::MAX
                } else {
                    run.seq as u64
                },
                file,
                records,
                bytes,
            });
        }
    }
    entries
}
