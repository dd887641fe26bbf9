//! The worker side: job numbering by replay and the manifest commit,
//! including the fault-injection hook.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use smr_mapreduce::process_shard::{ProcessShardRuntime, ShardJob, ShardJobCheck, ShardRole};
use smr_mapreduce::JobConfig;
use smr_storage::ShardManifest;

/// The [`ProcessShardRuntime`] a targeted worker process installs.
#[derive(Debug)]
pub(crate) struct WorkerRuntime {
    session_dir: PathBuf,
    shard: usize,
    num_shards: usize,
    attempt: u64,
    /// The sequence number of the job this worker was spawned for; the
    /// sharded jobs before it run in process.
    target_job: u64,
    /// Fault injection: when this is `Some(self.shard)` and this process
    /// is attempt 1, the manifest commit writes garbage and aborts.
    fail_shard: Option<usize>,
    /// The worker's replay-local job counter; deterministic replay keeps
    /// it in lockstep with the coordinator's.
    job_seq: AtomicU64,
}

impl WorkerRuntime {
    pub(crate) fn new(
        session_dir: PathBuf,
        shard: usize,
        num_shards: usize,
        attempt: u64,
        target_job: u64,
        fail_shard: Option<usize>,
    ) -> Self {
        WorkerRuntime {
            session_dir,
            shard,
            num_shards,
            attempt,
            target_job,
            fail_shard,
            job_seq: AtomicU64::new(0),
        }
    }
}

impl ProcessShardRuntime for WorkerRuntime {
    fn role(&self) -> ShardRole {
        ShardRole::Worker {
            shard: self.shard,
            attempt: self.attempt,
        }
    }

    fn begin_job(&self, _config: &JobConfig) -> Option<ShardJob> {
        let seq = self.job_seq.fetch_add(1, Ordering::SeqCst);
        if seq < self.target_job {
            return None;
        }
        let job_dir = self.session_dir.join(format!("job-{seq}"));
        Some(ShardJob {
            seq,
            num_shards: self.num_shards,
            attempt_dir: Some(
                job_dir
                    .join(format!("shard-{}", self.shard))
                    .join(format!("attempt-{}", self.attempt)),
            ),
            job_dir,
        })
    }

    fn collect_manifests(&self, _job: &ShardJob, _expect: &ShardJobCheck) -> Vec<ShardManifest> {
        panic!("collect_manifests called on a worker");
    }

    fn commit_manifest(&self, job: &ShardJob, manifest: &ShardManifest) -> ! {
        let attempt_dir = job
            .attempt_dir
            .as_ref()
            .expect("worker job has an attempt dir");
        let path = attempt_dir.join("MANIFEST");
        if self.fail_shard == Some(self.shard) && self.attempt == 1 {
            // Fault injection: plant an undecodable manifest *without* the
            // atomic tmp+rename commit — exactly the debris a crash
            // mid-commit could leave — then die the way a crashed worker
            // dies.  The coordinator must reject the file on checksum and
            // re-execute this shard.
            let _ = std::fs::create_dir_all(attempt_dir);
            let _ = std::fs::write(&path, b"SMRM garbage, not a manifest");
            std::process::abort();
        }
        manifest
            .write_to(&path)
            .unwrap_or_else(|e| panic!("cannot commit manifest at {path:?}: {e}"));
        // The rest of the program belongs to the coordinator.
        std::process::exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_before_the_target_run_in_process() {
        let runtime = WorkerRuntime::new(PathBuf::from("session"), 1, 2, 3, 2, None);
        let config = JobConfig::named("job");
        assert!(runtime.begin_job(&config).is_none());
        assert!(runtime.begin_job(&config).is_none());
        let job = runtime.begin_job(&config).expect("the target job");
        assert_eq!(job.seq, 2);
        assert_eq!(job.num_shards, 2);
        assert_eq!(
            job.attempt_dir,
            Some(PathBuf::from("session/job-2/shard-1/attempt-3"))
        );
    }
}
