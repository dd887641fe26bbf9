//! The coordinator side: worker processes, manifest collection,
//! supervision and retry.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smr_mapreduce::process_shard::{ProcessShardRuntime, ShardJob, ShardJobCheck, ShardRole};
use smr_mapreduce::JobConfig;
use smr_storage::{ShardManifest, StorageError};

use crate::session::{
    SessionStats, ShardOptions, ATTEMPT_ENV, DIR_ENV, FAIL_ENV, OCCURRENCE_ENV, ROLE_ENV,
    SESSION_ENV, SHARDS_ENV, SHARD_ENV,
};

/// How often the coordinator re-checks a shard for a committed manifest.
const MANIFEST_POLL: Duration = Duration::from_millis(2);

/// How long the coordinator waits for a shard's manifest in each job
/// before killing and respawning the worker; also the shutdown grace.
const WORKER_TIMEOUT: Duration = Duration::from_secs(120);

/// Spawn attempts per shard before the session panics.
const MAX_ATTEMPTS: u64 = 3;

#[derive(Debug)]
struct WorkerSlot {
    /// Current spawn attempt, starting at 1.
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

    /// Spawns attempt 1 of every shard's worker.  Workers start replaying
    /// the program immediately, overlapping with the coordinator's own
    /// progress towards the first sharded job.
    pub(crate) fn spawn_all(&self) {
        let mut state = lock(&self.state);
        for shard in 0..self.opts.shards {
            let slot = &mut state.workers[shard];
            slot.attempt = 1;
            slot.child = Some(self.spawn(shard, 1));
        }
    }

    fn spawn(&self, shard: usize, attempt: u64) -> Child {
        let exe = std::env::current_exe().expect("cannot resolve the current executable");
        let args: Vec<String> = self
            .opts
            .worker_args
            .clone()
            .unwrap_or_else(|| std::env::args().skip(1).collect());
        let stderr = File::create(self.stderr_path(shard, attempt))
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

    fn stderr_path(&self, shard: usize, attempt: u64) -> PathBuf {
        self.session_dir
            .join(format!("shard-{shard}-attempt-{attempt}.stderr"))
    }

    fn stderr_tail(&self, shard: usize, attempt: u64) -> String {
        match std::fs::read_to_string(self.stderr_path(shard, attempt)) {
            Ok(contents) => {
                let tail_at = contents.len().saturating_sub(4096);
                contents[tail_at..].to_string()
            }
            Err(_) => "<no stderr captured>".to_string(),
        }
    }

    /// Kills shard `shard`'s current attempt and spawns the next one.
    ///
    /// # Panics
    /// Panics when the shard's attempt budget is exhausted.
    fn retry(&self, shard: usize, reason: &str) {
        let (attempt, exhausted) = {
            let mut state = lock(&self.state);
            let slot = &mut state.workers[shard];
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.child = None;
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
                self.stderr_tail(shard, attempt)
            );
        }
        let child = self.spawn(shard, attempt);
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

    /// Reaps every worker: normal grace period first (the workers are
    /// finishing their replay of the program), then kill.  During a panic
    /// unwind there is nothing to wait for — the workers will never see
    /// the outputs they are polling — so they are killed immediately.
    pub(crate) fn shutdown(&self) -> SessionStats {
        let mut state = lock(&self.state);
        let grace = if std::thread::panicking() {
            Duration::ZERO
        } else {
            WORKER_TIMEOUT
        };
        let deadline = Instant::now() + grace;
        for slot in &mut state.workers {
            let Some(child) = slot.child.as_mut() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => std::thread::sleep(MANIFEST_POLL),
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
            slot.child = None;
        }
        let _ = std::fs::remove_dir_all(&self.session_dir);
        SessionStats {
            shards: self.opts.shards,
            jobs: state.job_seq,
            respawns: state.respawns,
        }
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

    fn begin_job(&self, _config: &JobConfig) -> ShardJob {
        let mut state = lock(&self.state);
        let seq = state.job_seq;
        state.job_seq += 1;
        let job_dir = self.session_dir.join(format!("job-{seq}"));
        std::fs::create_dir_all(&job_dir)
            .unwrap_or_else(|e| panic!("cannot create job dir {job_dir:?}: {e}"));
        ShardJob {
            seq,
            num_shards: self.opts.shards,
            output_path: job_dir.join("output.run"),
            job_dir,
            attempt_dir: None,
        }
    }

    fn collect_manifests(&self, job: &ShardJob, expect: &ShardJobCheck) -> Vec<ShardManifest> {
        let mut manifests = Vec::with_capacity(self.opts.shards);
        for shard in 0..self.opts.shards {
            let mut deadline = Instant::now() + WORKER_TIMEOUT;
            loop {
                let attempt = lock(&self.state).workers[shard].attempt;
                let manifest_path = manifest_path(&job.job_dir, shard, attempt);
                match ShardManifest::read_from(&manifest_path) {
                    Ok(manifest) => {
                        self.validate(&manifest, job, expect, shard, attempt);
                        manifests.push(manifest);
                        break;
                    }
                    Err(err) if manifest_pending(&err) => {
                        let child_died = {
                            let mut state = lock(&self.state);
                            match state.workers[shard].child.as_mut() {
                                Some(child) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
                                None => true,
                            }
                        };
                        if child_died {
                            self.retry(shard, "worker exited without committing a manifest");
                        } else if Instant::now() > deadline {
                            self.retry(shard, "deadline exceeded waiting for the manifest");
                        } else {
                            std::thread::sleep(MANIFEST_POLL);
                            continue;
                        }
                        deadline = Instant::now() + WORKER_TIMEOUT;
                    }
                    Err(err) => {
                        // Undecodable manifest (checksum, version,
                        // truncation): reject it and re-execute the shard.
                        self.retry(shard, &format!("invalid manifest: {err}"));
                        deadline = Instant::now() + WORKER_TIMEOUT;
                    }
                }
            }
        }
        manifests
    }

    fn commit_manifest(&self, _job: &ShardJob, _manifest: &ShardManifest) {
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
