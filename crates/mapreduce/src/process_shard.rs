//! The seam between the in-process engine and a multi-process sharded
//! session.
//!
//! `smr_mapreduce` cannot depend on the process-management crate
//! (`smr_distrib` depends on *it*), so the executor talks to the sharded
//! world through the [`ProcessShardRuntime`] trait: `smr_distrib`
//! implements it twice — once for the coordinator (spawn workers, collect
//! and validate shard manifests, supervise retries) and once for a worker
//! (commit the shard's manifest, honour the fault-injection hook) — and
//! installs the active implementation process-globally for the duration
//! of a sharded session.
//!
//! [`Job::run_full`][crate::Job::run_full] consults the installed runtime
//! only when the job's [`JobConfig::process_shards`] is set; with no
//! runtime installed the flag is inert and the job runs in process, so
//! plain `Job` users never pay for this seam.
//!
//! The division of labour keeps all *typed* work in the executor: the
//! runtime never sees a key or value, it deals in directories, shard
//! manifests and process lifecycles.  See `docs/distrib.md` for the whole
//! protocol.

use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use smr_storage::ShardManifest;

use crate::config::JobConfig;

/// Which side of a sharded session this process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// The session owner: spawns workers, merges their runs, reduces and
    /// publishes each job's output.
    Coordinator,
    /// A spawned worker: maps its shard of each job, ships runs back and
    /// adopts every published output.
    Worker {
        /// The shard this worker owns, `0..num_shards`.
        shard: usize,
        /// The worker's spawn attempt, starting at 1.
        attempt: u64,
    },
}

/// Everything the executor needs to know about one sharded job: where its
/// files live.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Sequence number of the job within the session (both sides count
    /// sharded jobs identically — the deterministic replay guarantees
    /// the numbering agrees; the manifest cross-check enforces it).
    pub seq: u64,
    /// Total worker processes in the session.
    pub num_shards: usize,
    /// The job's directory inside the session directory.
    pub job_dir: PathBuf,
    /// Where the coordinator publishes the job's reduced output as a run
    /// file (the run header's pending-count commit protocol makes the
    /// publish atomic for pollers).
    pub output_path: PathBuf,
    /// Worker only: the attempt-scoped directory run files and the
    /// manifest go into (fresh per spawn attempt, so a retried shard
    /// never collides with its predecessor's debris).
    pub attempt_dir: Option<PathBuf>,
}

/// The facts the coordinator knows about a job independently of any
/// worker, used to reject a manifest from a diverged replay: a manifest
/// that decodes and checksums correctly but disagrees on any of these
/// fields means the worker executed a *different* job than the
/// coordinator — a protocol bug, not a transient fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardJobCheck {
    /// The job's configured name.
    pub job_name: String,
    /// Input records of the whole job.
    pub input_records: u64,
    /// Map tasks the whole job splits into.
    pub num_map_tasks: u64,
}

/// The runtime a sharded session installs; see the module docs.
pub trait ProcessShardRuntime: Send + Sync + std::fmt::Debug {
    /// Which side of the session this process plays.
    fn role(&self) -> ShardRole;

    /// Called by every participant at the start of each sharded job;
    /// advances the session's job sequence and resolves the job's
    /// directories.
    fn begin_job(&self, config: &JobConfig) -> ShardJob;

    /// Coordinator: block until every shard has committed a valid
    /// manifest for this job, spawning/respawning and retrying workers as
    /// needed, and return the manifests in shard order.
    ///
    /// # Panics
    /// Panics when a shard exhausts its retry budget or a validated
    /// manifest contradicts `expect` (lockstep divergence).  Panics if
    /// called on a worker.
    fn collect_manifests(&self, job: &ShardJob, expect: &ShardJobCheck) -> Vec<ShardManifest>;

    /// Worker: atomically commit this shard's manifest for the job.  The
    /// fault-injection hook lives here (a worker told to fail writes a
    /// corrupt manifest and aborts instead).
    ///
    /// # Panics
    /// Panics if called on the coordinator.
    fn commit_manifest(&self, job: &ShardJob, manifest: &ShardManifest);

    /// How often a worker polls for the published job output.
    fn output_poll_interval(&self) -> Duration {
        Duration::from_millis(2)
    }

    /// How long a worker waits for the published job output before
    /// treating itself as orphaned and exiting.
    fn output_timeout(&self) -> Duration {
        Duration::from_secs(180)
    }
}

static RUNTIME: RwLock<Option<Arc<dyn ProcessShardRuntime>>> = RwLock::new(None);

/// Installs `runtime` as the process-global shard runtime for the
/// duration of a session.
///
/// # Panics
/// Panics if a runtime is already installed: sessions must not nest (the
/// session layer serializes them).
pub fn install_runtime(runtime: Arc<dyn ProcessShardRuntime>) {
    let mut slot = RUNTIME.write().expect("shard runtime lock");
    assert!(
        slot.is_none(),
        "a process-shard runtime is already installed; sharded sessions cannot nest"
    );
    *slot = Some(runtime);
}

/// Removes the installed runtime at session end.
pub fn clear_runtime() {
    *RUNTIME.write().expect("shard runtime lock") = None;
}

/// The currently installed runtime, if a sharded session is active.
pub fn current_runtime() -> Option<Arc<dyn ProcessShardRuntime>> {
    RUNTIME.read().expect("shard runtime lock").clone()
}

/// The contiguous slice of the job's `num_tasks` map tasks that `shard`
/// (of `num_shards`) owns.  Shards partition the **global task index
/// space**, so the union over shards is every task exactly once and the
/// `(task, seq)`-ordered merge reassembles precisely the runs the
/// in-process engine would have produced — byte identity by construction.
/// When there are fewer tasks than shards the tail shards get empty
/// slices.
pub fn shard_task_range(
    shard: usize,
    num_shards: usize,
    num_tasks: usize,
) -> std::ops::Range<usize> {
    assert!(num_shards > 0, "a session needs at least one shard");
    assert!(shard < num_shards, "shard {shard} of {num_shards}");
    let lo = shard * num_tasks / num_shards;
    let hi = (shard + 1) * num_tasks / num_shards;
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_task_space() {
        for num_tasks in [0usize, 1, 2, 3, 7, 8, 64, 100] {
            for num_shards in [1usize, 2, 3, 4, 7] {
                let mut covered = Vec::new();
                for shard in 0..num_shards {
                    covered.extend(shard_task_range(shard, num_shards, num_tasks));
                }
                let expected: Vec<usize> = (0..num_tasks).collect();
                assert_eq!(
                    covered, expected,
                    "tasks={num_tasks} shards={num_shards}: ranges must tile 0..tasks in order"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_tasks_leaves_tail_shards_empty() {
        assert_eq!(shard_task_range(0, 4, 2), 0..0);
        assert_eq!(shard_task_range(1, 4, 2), 0..1);
        assert_eq!(shard_task_range(2, 4, 2), 1..1);
        assert_eq!(shard_task_range(3, 4, 2), 1..2);
    }

    #[test]
    fn runtime_slot_installs_and_clears() {
        #[derive(Debug)]
        struct Dummy;
        impl ProcessShardRuntime for Dummy {
            fn role(&self) -> ShardRole {
                ShardRole::Coordinator
            }
            fn begin_job(&self, _config: &JobConfig) -> ShardJob {
                unreachable!()
            }
            fn collect_manifests(
                &self,
                _job: &ShardJob,
                _expect: &ShardJobCheck,
            ) -> Vec<ShardManifest> {
                unreachable!()
            }
            fn commit_manifest(&self, _job: &ShardJob, _manifest: &ShardManifest) {
                unreachable!()
            }
        }
        assert!(current_runtime().is_none());
        install_runtime(Arc::new(Dummy));
        assert!(current_runtime().is_some());
        clear_runtime();
        assert!(current_runtime().is_none());
    }
}
