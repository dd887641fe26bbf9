//! Session entry point and role detection.
//!
//! A **session** is one [`run_sharded`] call: the coordinator installs its
//! runtime, runs the wrapped closure — spawning each sharded job's
//! workers as the job begins — and tears everything down; each worker
//! process re-executes the same program and uses the `(session key,
//! occurrence)` pair in its environment to recognise *which*
//! `run_sharded` call it was spawned for — every other session it
//! encounters on the way is replayed inline, in process, with no runtime
//! installed (and therefore without spawning grandchildren).
//!
//! Identifying the target by key + per-key occurrence (rather than a
//! process-global sequence number) keeps the match correct when several
//! sessions run concurrently on different threads of the coordinator
//! process, as `cargo test` does: the coordinator's count of *other*
//! sessions never leaks into a worker's replay-local count.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use smr_mapreduce::process_shard::{clear_runtime, install_runtime};

use crate::coordinator::CoordinatorRuntime;
use crate::worker::WorkerRuntime;

/// Set to `worker` in a spawned worker process.
pub const ROLE_ENV: &str = "SMR_DISTRIB_ROLE";
/// Worker: the session directory shared with the coordinator.
pub const DIR_ENV: &str = "SMR_DISTRIB_DIR";
/// Worker: the shard index this process owns, `0..shards`.
pub const SHARD_ENV: &str = "SMR_DISTRIB_SHARD";
/// Worker: total shards in the session.
pub const SHARDS_ENV: &str = "SMR_DISTRIB_SHARDS";
/// Worker: this process's spawn attempt, starting at 1.
pub const ATTEMPT_ENV: &str = "SMR_DISTRIB_ATTEMPT";
/// Worker: the session key of the targeted [`run_sharded`] call.
pub const SESSION_ENV: &str = "SMR_DISTRIB_SESSION";
/// Worker: which occurrence of that session key is targeted (1-based).
pub const OCCURRENCE_ENV: &str = "SMR_DISTRIB_OCCURRENCE";
/// Worker: the sequence number, within the session, of the sharded job
/// this process was spawned for (0-based).
pub const JOB_ENV: &str = "SMR_DISTRIB_JOB";
/// Fault injection: the shard whose worker commits a corrupt manifest and
/// aborts on attempt 1.  Read by [`ShardOptions::new`] on the coordinator
/// and forwarded to every worker.
pub const FAIL_ENV: &str = "SMR_DISTRIB_FAIL";

/// Configuration of one sharded session.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of worker processes (and shards of each job's map-task
    /// space).  At least 1; `1` is a legitimate degenerate session that
    /// exercises the full process protocol with a single worker.
    pub shards: usize,
    /// Distinguishes this `run_sharded` call site from others in the same
    /// program, so a worker can recognise the session it was spawned for.
    /// Calls that can run concurrently (e.g. different `#[test]`s) must
    /// use distinct keys; give each call site its own name.
    pub session_key: String,
    /// Arguments the re-invoked executable is spawned with.  `None` means
    /// "the current process's own arguments" (correct for binaries and
    /// examples).  Inside a test harness, pass
    /// `["--exact", "<test_name>", "--nocapture"]` so the child runs only
    /// the calling test.
    pub worker_args: Option<Vec<String>>,
    /// Fault injection: this shard's attempt-1 worker of every job writes
    /// a corrupt manifest and aborts.  Defaults from [`FAIL_ENV`].
    pub fail_shard: Option<usize>,
}

impl ShardOptions {
    /// Options for a session with `shards` worker processes and all other
    /// knobs at their defaults.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a session needs at least one shard");
        ShardOptions {
            shards,
            session_key: "session".to_string(),
            worker_args: None,
            fail_shard: std::env::var(FAIL_ENV)
                .ok()
                .and_then(|s| s.trim().parse().ok()),
        }
    }

    /// Names the call site (see [`ShardOptions::session_key`]).
    pub fn with_session_key(mut self, key: impl Into<String>) -> Self {
        self.session_key = key.into();
        self
    }

    /// Sets explicit worker arguments (see [`ShardOptions::worker_args`]).
    pub fn with_worker_args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.worker_args = Some(args.into_iter().map(Into::into).collect());
        self
    }

    /// Arms the fault-injection hook for `shard` (see
    /// [`ShardOptions::fail_shard`]).
    pub fn with_fail_shard(mut self, shard: Option<usize>) -> Self {
        self.fail_shard = shard;
        self
    }
}

/// What a completed session did, for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Worker processes in the session.
    pub shards: usize,
    /// Sharded jobs executed.
    pub jobs: u64,
    /// Workers killed and respawned (0 on a fault-free run).
    pub respawns: u64,
}

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking session must not wedge every later session in the
    // process (tests keep running after one fails).
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-key occurrence counters: both sides count every `run_sharded` call
/// they execute, and deterministic replay keeps the counts in agreement.
fn occurrences() -> &'static Mutex<HashMap<String, u64>> {
    static OCCURRENCES: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    OCCURRENCES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Serializes coordinator sessions: the shard runtime is process-global,
/// so two sessions on different threads must take turns.
fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn last_stats_slot() -> &'static Mutex<Option<SessionStats>> {
    static SLOT: OnceLock<Mutex<Option<SessionStats>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Stats of the most recently completed coordinator session in this
/// process, if any.
pub fn last_session_stats() -> Option<SessionStats> {
    *lock_ignoring_poison(last_stats_slot())
}

/// Whether this process is a spawned worker (of any session).
///
/// A worker re-executes the coordinator's program, so code *after* a
/// [`run_sharded`] call still runs in workers spawned for a **later**
/// session in the same program.  Guard assertions about coordinator-only
/// state — [`last_session_stats`] in particular — with this predicate.
pub fn is_worker_process() -> bool {
    std::env::var(ROLE_ENV).as_deref() == Ok("worker")
}

struct WorkerEnv {
    dir: std::path::PathBuf,
    shard: usize,
    shards: usize,
    attempt: u64,
    session: String,
    occurrence: u64,
    job: u64,
}

fn required_env(name: &str) -> String {
    std::env::var(name)
        .unwrap_or_else(|_| panic!("worker process is missing the {name} environment variable"))
}

fn worker_env() -> Option<WorkerEnv> {
    if std::env::var(ROLE_ENV).as_deref() != Ok("worker") {
        return None;
    }
    let parse = |name: &str| -> u64 {
        required_env(name)
            .parse()
            .unwrap_or_else(|_| panic!("worker {name} is not a number"))
    };
    Some(WorkerEnv {
        dir: required_env(DIR_ENV).into(),
        shard: parse(SHARD_ENV) as usize,
        shards: parse(SHARDS_ENV) as usize,
        attempt: parse(ATTEMPT_ENV),
        session: required_env(SESSION_ENV),
        occurrence: parse(OCCURRENCE_ENV),
        job: parse(JOB_ENV),
    })
}

fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Runs `f` as a sharded session: jobs inside `f` whose
/// [`JobConfig::process_shards`][smr_mapreduce::JobConfig] is set execute
/// their map phase across [`ShardOptions::shards`] worker processes.  Jobs
/// without the flag (and all non-job code in `f`) run normally in every
/// process — that replay is what reconstructs the workers' program state.
///
/// Role dispatch (see the module docs):
/// * in the **coordinator** (any process not spawned as a worker) this
///   takes the process-wide session lock, creates the session directory,
///   installs the coordinator runtime, runs `f` — each sharded job spawns
///   its own workers — then tears the session down (reaps the workers,
///   removes the directory) and records [`last_session_stats`];
/// * in a **worker process** whose environment targets this call, it
///   installs the worker runtime and runs `f`: the sharded jobs before
///   the worker's own run in process, and the worker **exits the
///   process** when it commits its manifest for its own job;
/// * in a worker process replaying *some other* session on the way to its
///   target, `f` runs inline with no runtime installed: in process, and
///   without spawning grandchildren.
///
/// # Panics
/// Panics if called while a session is already active in this process
/// (sessions cannot nest), or when a shard exhausts its retry budget.
pub fn run_sharded<T>(opts: ShardOptions, f: impl FnOnce() -> T) -> T {
    let occurrence = {
        let mut map = lock_ignoring_poison(occurrences());
        let slot = map.entry(opts.session_key.clone()).or_insert(0);
        *slot += 1;
        *slot
    };

    if let Some(env) = worker_env() {
        if env.session == opts.session_key && env.occurrence == occurrence {
            assert_eq!(
                env.shards, opts.shards,
                "worker replayed a different shard count than it was spawned with \
                 (lockstep divergence)"
            );
            let runtime = Arc::new(WorkerRuntime::new(
                env.dir,
                env.shard,
                env.shards,
                env.attempt,
                env.job,
                opts.fail_shard,
            ));
            install_runtime(runtime);
            let _ = f();
            panic!(
                "worker never reached sharded job {} (lockstep divergence)",
                env.job
            );
        }
        // A different session encountered during replay: run it inline.
        return f();
    }

    let _serial = lock_ignoring_poison(session_lock());
    let session_dir = std::env::temp_dir().join(format!(
        "smr-distrib-{}-{}-{occurrence}",
        std::process::id(),
        sanitize(&opts.session_key),
    ));
    let _ = std::fs::remove_dir_all(&session_dir);
    std::fs::create_dir_all(&session_dir)
        .unwrap_or_else(|e| panic!("cannot create session dir {session_dir:?}: {e}"));

    let runtime = Arc::new(CoordinatorRuntime::new(
        opts,
        session_dir.clone(),
        occurrence,
    ));
    install_runtime(runtime.clone());

    // Teardown must happen on every exit path, including a panicking `f`
    // (an assert in a test, a divergence panic): clear the runtime, reap
    // the workers, remove the session directory, record the stats.
    struct SessionGuard {
        runtime: Arc<CoordinatorRuntime>,
    }
    impl Drop for SessionGuard {
        fn drop(&mut self) {
            clear_runtime();
            let stats = self.runtime.shutdown();
            *lock_ignoring_poison(last_stats_slot()) = Some(stats);
        }
    }
    let guard = SessionGuard { runtime };
    let result = f();
    drop(guard);
    result
}
