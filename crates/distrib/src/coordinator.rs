//! The coordinator side: each job's worker processes, manifest
//! collection, supervision and retry.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smr_mapreduce::process_shard::{ProcessShardRuntime, ShardJob, ShardJobCheck, ShardRole};
use smr_mapreduce::JobConfig;
use smr_storage::{ShardManifest, StorageError};

use crate::session::{
    SessionStats, ShardOptions, ATTEMPT_ENV, DIR_ENV, FAIL_ENV, JOB_ENV, OCCURRENCE_ENV, ROLE_ENV,
    SESSION_ENV, SHARDS_ENV, SHARD_ENV,
};

/// How often the coordinator re-checks a shard for a committed manifest.
const MANIFEST_POLL: Duration = Duration::from_millis(2);

/// How long the coordinator waits for a shard's manifest in each job
/// before killing and respawning the worker.
const WORKER_TIMEOUT: Duration = Duration::from_secs(120);

/// Spawn attempts per shard before the session panics.
const MAX_ATTEMPTS: u64 = 3;

#[derive(Debug)]
struct WorkerSlot {
    /// Current spawn attempt in the current job, starting at 1.
    attempt: u64,
    child: Option<Child>,
}

#[derive(Debug)]
struct CoordState {
    job_seq: u64,
    workers: Vec<WorkerSlot>,
    respawns: u64,
}

/// The [`ProcessShardRuntime`] a coordinator session installs.
#[derive(Debug)]
pub(crate) struct CoordinatorRuntime {
    opts: ShardOptions,
    session_dir: PathBuf,
    occurrence: u64,
    state: Mutex<CoordState>,
}

fn lock<'a>(state: &'a Mutex<CoordState>) -> std::sync::MutexGuard<'a, CoordState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl CoordinatorRuntime {
    pub(crate) fn new(opts: ShardOptions, session_dir: PathBuf, occurrence: u64) -> Self {
        let workers = (0..opts.shards)
            .map(|_| WorkerSlot {
                attempt: 0,
                child: None,
            })
            .collect();
        CoordinatorRuntime {
            opts,
            session_dir,
            occurrence,
            state: Mutex::new(CoordState {
                job_seq: 0,
                workers,
                respawns: 0,
            }),
        }
    }

    /// Spawns shard `shard`'s worker for `job`: it replays the program,
    /// runs the sharded jobs before `job` in process, maps its slice of
    /// `job`, commits its manifest and exits.
    fn spawn(&self, job: &ShardJob, shard: usize, attempt: u64) -> Child {
        let exe = std::env::current_exe().expect("cannot resolve the current executable");
        let args: Vec<String> = self
            .opts
            .worker_args
            .clone()
            .unwrap_or_else(|| std::env::args().skip(1).collect());
        let stderr = File::create(stderr_path(job, shard, attempt))
            .expect("cannot create worker stderr file");
        let mut cmd = Command::new(exe);
        cmd.args(&args)
            .env(ROLE_ENV, "worker")
            .env(DIR_ENV, &self.session_dir)
            .env(SHARD_ENV, shard.to_string())
            .env(SHARDS_ENV, self.opts.shards.to_string())
            .env(ATTEMPT_ENV, attempt.to_string())
            .env(SESSION_ENV, &self.opts.session_key)
            .env(OCCURRENCE_ENV, self.occurrence.to_string())
            .env(JOB_ENV, job.seq.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        match self.opts.fail_shard {
            Some(fail) => {
                cmd.env(FAIL_ENV, fail.to_string());
            }
            None => {
                cmd.env_remove(FAIL_ENV);
            }
        }
        cmd.spawn()
            .unwrap_or_else(|e| panic!("cannot spawn worker for shard {shard}: {e}"))
    }

    /// Kills shard `shard`'s current attempt and spawns the next one.
    ///
    /// # Panics
    /// Panics when the shard's attempt budget is exhausted.
    fn retry(&self, job: &ShardJob, shard: usize, reason: &str) {
        let (attempt, exhausted) = {
            let mut state = lock(&self.state);
            let slot = &mut state.workers[shard];
            reap(slot);
            if slot.attempt >= MAX_ATTEMPTS {
                (slot.attempt, true)
            } else {
                slot.attempt += 1;
                state.respawns += 1;
                (state.workers[shard].attempt, false)
            }
        };
        if exhausted {
            panic!(
                "shard {shard} failed after {attempt} attempts ({reason}); last stderr:\n{}",
                stderr_tail(job, shard, attempt)
            );
        }
        let child = self.spawn(job, shard, attempt);
        lock(&self.state).workers[shard].child = Some(child);
    }

    /// Validated-but-wrong manifests are lockstep divergences; anything
    /// that fails to decode is a fault and worth a retry.
    fn validate(
        &self,
        manifest: &ShardManifest,
        job: &ShardJob,
        expect: &ShardJobCheck,
        shard: usize,
        attempt: u64,
    ) {
        let agrees = manifest.job_name == expect.job_name
            && manifest.input_records == expect.input_records
            && manifest.num_map_tasks == expect.num_map_tasks
            && manifest.job_seq == job.seq
            && manifest.shard == shard as u64
            && manifest.num_shards == self.opts.shards as u64
            && manifest.attempt == attempt;
        assert!(
            agrees,
            "shard {shard} committed a valid manifest for a different job than the \
             coordinator is running (lockstep divergence): manifest {manifest:?}, \
             expected {expect:?} seq={} attempt={attempt}",
            job.seq
        );
    }

    /// Reaps every worker and removes the session directory.  Once `f`
    /// has returned every worker has committed; during a panic unwind the
    /// workers' jobs are abandoned.  Either way there is nothing to wait
    /// for.
    pub(crate) fn shutdown(&self) -> SessionStats {
        let mut state = lock(&self.state);
        state.workers.iter_mut().for_each(reap);
        let _ = std::fs::remove_dir_all(&self.session_dir);
        SessionStats {
            shards: self.opts.shards,
            jobs: state.job_seq,
            respawns: state.respawns,
        }
    }
}

/// Kills and waits for a slot's worker, if it has one.
fn reap(slot: &mut WorkerSlot) {
    if let Some(mut child) = slot.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn stderr_path(job: &ShardJob, shard: usize, attempt: u64) -> PathBuf {
    job.job_dir
        .join(format!("shard-{shard}-attempt-{attempt}.stderr"))
}

fn stderr_tail(job: &ShardJob, shard: usize, attempt: u64) -> String {
    match std::fs::read_to_string(stderr_path(job, shard, attempt)) {
        Ok(contents) => {
            let tail_at = contents.len().saturating_sub(4096);
            contents[tail_at..].to_string()
        }
        Err(_) => "<no stderr captured>".to_string(),
    }
}

/// Errors meaning "the manifest has not been committed yet" (as opposed to
/// "a manifest is there but corrupt").  Commits go through an atomic
/// rename, so a visible-but-undecodable manifest is a real fault.
fn manifest_pending(err: &StorageError) -> bool {
    matches!(err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
}

impl ProcessShardRuntime for CoordinatorRuntime {
    fn role(&self) -> ShardRole {
        ShardRole::Coordinator
    }

    fn begin_job(&self, _config: &JobConfig) -> Option<ShardJob> {
        let mut state = lock(&self.state);
        let seq = state.job_seq;
        state.job_seq += 1;
        let job_dir = self.session_dir.join(format!("job-{seq}"));
        std::fs::create_dir_all(&job_dir)
            .unwrap_or_else(|e| panic!("cannot create job dir {job_dir:?}: {e}"));
        let job = ShardJob {
            seq,
            num_shards: self.opts.shards,
            job_dir,
            attempt_dir: None,
        };
        // The previous job's workers have committed and are exiting.
        for (shard, slot) in state.workers.iter_mut().enumerate() {
            reap(slot);
            slot.attempt = 1;
            slot.child = Some(self.spawn(&job, shard, 1));
        }
        Some(job)
    }

    fn collect_manifests(&self, job: &ShardJob, expect: &ShardJobCheck) -> Vec<ShardManifest> {
        let mut manifests = Vec::with_capacity(self.opts.shards);
        for shard in 0..self.opts.shards {
            let mut deadline = Instant::now() + WORKER_TIMEOUT;
            loop {
                // A worker exits right after its commit, so look at the
                // worker *before* the manifest: a worker seen dead here
                // with no manifest below really died without committing.
                let (attempt, child_died) = {
                    let mut state = lock(&self.state);
                    let slot = &mut state.workers[shard];
                    let died = slot
                        .child
                        .as_mut()
                        .is_none_or(|child| !matches!(child.try_wait(), Ok(None)));
                    (slot.attempt, died)
                };
                let manifest_path = manifest_path(&job.job_dir, shard, attempt);
                match ShardManifest::read_from(&manifest_path) {
                    Ok(manifest) => {
                        self.validate(&manifest, job, expect, shard, attempt);
                        manifests.push(manifest);
                        break;
                    }
                    Err(err) if manifest_pending(&err) => {
                        if child_died {
                            self.retry(job, shard, "worker exited without committing a manifest");
                        } else if Instant::now() > deadline {
                            self.retry(job, shard, "deadline exceeded waiting for the manifest");
                        } else {
                            std::thread::sleep(MANIFEST_POLL);
                            continue;
                        }
                        deadline = Instant::now() + WORKER_TIMEOUT;
                    }
                    Err(err) => {
                        // Undecodable manifest (checksum, version,
                        // truncation): reject it and re-execute the shard.
                        self.retry(job, shard, &format!("invalid manifest: {err}"));
                        deadline = Instant::now() + WORKER_TIMEOUT;
                    }
                }
            }
        }
        manifests
    }

    fn commit_manifest(&self, _job: &ShardJob, _manifest: &ShardManifest) -> ! {
        panic!("commit_manifest called on the coordinator");
    }
}

/// Where shard `shard`'s attempt `attempt` commits its manifest for a job.
pub(crate) fn manifest_path(job_dir: &Path, shard: usize, attempt: u64) -> PathBuf {
    job_dir
        .join(format!("shard-{shard}"))
        .join(format!("attempt-{attempt}"))
        .join("MANIFEST")
}
