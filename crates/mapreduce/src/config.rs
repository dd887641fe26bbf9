//! Job configuration.

use std::path::PathBuf;

/// Environment variable providing the default memory budget in bytes
/// (see [`JobConfig::memory_budget`]).  Unset, empty, unparsable or `0`
/// all mean "unlimited".
pub const MEMORY_BUDGET_ENV: &str = "SMR_MEMORY_BUDGET";

/// Environment variable providing the default spill directory
/// (see [`JobConfig::spill_dir`]).
pub const SPILL_DIR_ENV: &str = "SMR_SPILL_DIR";

fn env_memory_budget() -> Option<u64> {
    std::env::var(MEMORY_BUDGET_ENV)
        .ok()?
        .trim()
        .parse::<u64>()
        .ok()
        .filter(|budget| *budget > 0)
}

fn env_spill_dir() -> Option<PathBuf> {
    let dir = std::env::var(SPILL_DIR_ENV).ok()?;
    let dir = dir.trim();
    if dir.is_empty() {
        return None;
    }
    Some(PathBuf::from(dir))
}

/// Configuration of a single MapReduce job (and, through a
/// [`crate::FlowContext`], of every job and round of a chain).
///
/// The defaults give a job that uses every available core, one map task per
/// core and one reduce task per core, which is what the experiments use.
/// Tests frequently pin `num_threads` to 1 or 2 to get deterministic
/// scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobConfig {
    /// Human-readable job name, used in metrics and logs.
    pub name: String,
    /// Number of worker threads.  `0` means "use all available
    /// parallelism" (as reported by the OS).
    pub num_threads: usize,
    /// Number of map tasks the input is split into.  `0` means "one per
    /// worker thread".
    pub num_map_tasks: usize,
    /// Number of reduce partitions.  `0` means "one per worker thread".
    pub num_reduce_tasks: usize,
    /// Memory budget in encoded bytes ([`smr_storage::Codec::encoded_len`],
    /// the engine's one byte measure), split into two shares:
    ///
    /// * **budget / threads per task buffer** — a map task (or a round's
    ///   reduce task) whose buffered output passes this share **spills
    ///   its sorted runs to disk** instead of growing without bound; the
    ///   shuffle then streams disk and in-memory runs through one
    ///   external k-way merge;
    /// * **budget / reduce tasks per round-state partition** — every
    ///   partition of a [`crate::flow::RoundState`] lives at once, so each
    ///   keeps at most this share in RAM and the rest in its run file.
    ///
    /// `None` (the default unless the [`MEMORY_BUDGET_ENV`] environment
    /// variable is set) disables spilling.  The job's output is
    /// byte-identical for every budget.
    ///
    /// The budget bounds these buffers, not the process: what the driver
    /// holds (corpora, the serving index, the probe output, the graph,
    /// node records, node tables) is outside it.  `docs/engine.md`
    /// ("What the memory budget bounds") tabulates both, with measured
    /// peaks.
    pub memory_budget: Option<u64>,
    /// Where run files go: each job's spilled runs in an `smr-spill-*`
    /// subdirectory, a [`crate::FlowContext`]'s round-state partitions in
    /// its `smr-flow-*` subdirectory.  Each subdirectory
    /// (`smr_storage::SpillDir`) is created with its first file and
    /// removed once its owner and the last run file in it have dropped.
    /// `None` (the default unless [`SPILL_DIR_ENV`] is set) uses the
    /// system temp directory.
    pub spill_dir: Option<PathBuf>,
    /// Opt the job into the sharded **multi-process** runtime: when set
    /// *and* a process-shard runtime is installed (the `smr_distrib` crate
    /// installs one inside its sharded sessions), the job's map phase is
    /// split across that many worker OS processes, each running the
    /// existing map + spill path over a contiguous slice of the
    /// job's map tasks and shipping sorted runs back through run files;
    /// the coordinator merges and reduces.  A round over a
    /// [`crate::RoundState`] has no map phase and never enters the
    /// session: every process that reaches it runs it in process.  Output
    /// is byte-identical to
    /// the in-process engine for any shard count.  Outside a sharded
    /// session the flag is inert and the job runs in process.  `None`
    /// (the default) never delegates.
    pub process_shards: Option<usize>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            name: "mapreduce-job".to_string(),
            num_threads: 0,
            num_map_tasks: 0,
            num_reduce_tasks: 0,
            memory_budget: env_memory_budget(),
            spill_dir: env_spill_dir(),
            process_shards: None,
        }
    }
}

impl JobConfig {
    /// Creates a configuration with the given name and all other fields at
    /// their defaults.
    pub fn named(name: impl Into<String>) -> Self {
        JobConfig::default().with_name(name)
    }

    /// Sets the job name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the number of worker threads (0 = all cores).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Sets the number of map tasks (0 = one per worker).
    pub fn with_map_tasks(mut self, n: usize) -> Self {
        self.num_map_tasks = n;
        self
    }

    /// Sets the number of reduce tasks (0 = one per worker).
    pub fn with_reduce_tasks(mut self, n: usize) -> Self {
        self.num_reduce_tasks = n;
        self
    }

    /// Sets the map-side memory budget in bytes (`None` = unlimited,
    /// overriding any [`MEMORY_BUDGET_ENV`] default).  See
    /// [`JobConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: Option<u64>) -> Self {
        self.memory_budget = bytes.filter(|b| *b > 0);
        self
    }

    /// Sets the directory spilled runs are written under (`None` = system
    /// temp directory).  See [`JobConfig::spill_dir`].
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Opts the job into the sharded multi-process runtime with `n`
    /// worker processes (0 = stay in process).  See
    /// [`JobConfig::process_shards`]; the shard count actually used inside
    /// a sharded session is the session's, this flag is the opt-in.
    pub fn with_process_shards(mut self, n: usize) -> Self {
        self.process_shards = if n == 0 { None } else { Some(n) };
        self
    }

    /// Resolved number of worker threads.
    pub fn effective_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        }
    }

    /// Resolved number of map tasks for an input of `input_len` records.
    ///
    /// Never more tasks than records (a task with no input is pointless)
    /// and always at least one.
    pub fn effective_map_tasks(&self, input_len: usize) -> usize {
        let base = if self.num_map_tasks == 0 {
            self.effective_threads()
        } else {
            self.num_map_tasks
        };
        base.clamp(1, input_len.max(1))
    }

    /// Resolved number of reduce partitions.
    pub fn effective_reduce_tasks(&self) -> usize {
        if self.num_reduce_tasks == 0 {
            self.effective_threads()
        } else {
            self.num_reduce_tasks
        }
        .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_positive_values() {
        let c = JobConfig::default();
        assert!(c.effective_threads() >= 1);
        assert!(c.effective_map_tasks(100) >= 1);
        assert!(c.effective_reduce_tasks() >= 1);
    }

    #[test]
    fn memory_budget_and_spill_dir_are_configurable() {
        let c = JobConfig::named("s")
            .with_memory_budget(Some(4096))
            .with_spill_dir("/tmp/spills");
        assert_eq!(c.memory_budget, Some(4096));
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/spills")));
        // Explicit None overrides whatever the environment provided.
        let unlimited = c.with_memory_budget(None);
        assert_eq!(unlimited.memory_budget, None);
    }

    #[test]
    fn zero_budget_means_unlimited() {
        assert_eq!(
            JobConfig::default()
                .with_memory_budget(Some(0))
                .memory_budget,
            None
        );
    }

    #[test]
    fn builder_setters_are_applied() {
        let c = JobConfig::named("x")
            .with_threads(3)
            .with_map_tasks(7)
            .with_reduce_tasks(5);
        assert_eq!(c.name, "x");
        assert_eq!(c.effective_threads(), 3);
        assert_eq!(c.effective_map_tasks(100), 7);
        assert_eq!(c.effective_reduce_tasks(), 5);
    }

    #[test]
    fn map_tasks_never_exceed_input_length() {
        let c = JobConfig::default().with_map_tasks(64);
        assert_eq!(c.effective_map_tasks(3), 3);
        assert_eq!(c.effective_map_tasks(0), 1);
    }
}
