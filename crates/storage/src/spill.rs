//! The spill manager: a memory budget plus a self-cleaning temp directory
//! of sorted run files.
//!
//! One [`SpillManager`] serves one job execution.  It owns
//!
//! * the job's **memory budget** in bytes, divided evenly among the
//!   concurrent worker threads ([`SpillManager::task_budget`]) so the hot
//!   per-record budget check is a plain integer comparison with no shared
//!   state, and the spill schedule is deterministic for a fixed thread
//!   count;
//! * a **spill directory**, created lazily on the first spill and removed
//!   recursively when the manager drops — a job that never spills touches
//!   the file system not at all, and no temp files outlive the job either
//!   way;
//! * the job's spill **accounting** ([`SpillManager::spilled_bytes`],
//!   [`SpillManager::disk_runs`]), which the engine surfaces as the
//!   `spill_bytes` / `disk_runs` metrics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::codec::Codec;
use crate::run::{CompletedRun, RunWriter, StorageError};

/// Process-wide counter making concurrent managers' directories unique.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns a job's memory budget and its directory of spilled runs.
#[derive(Debug)]
pub struct SpillManager {
    base: PathBuf,
    dir: Mutex<Option<PathBuf>>,
    task_budget: u64,
    next_run: AtomicU64,
    spilled_bytes: AtomicU64,
    disk_runs: AtomicU64,
}

impl SpillManager {
    /// Creates a manager for a job with `budget_bytes` of buffer memory
    /// shared by `workers` concurrent worker threads.  Runs spill into a
    /// fresh subdirectory of `base` (the system temp directory when
    /// `None`).
    pub fn new(budget_bytes: u64, workers: usize, base: Option<PathBuf>) -> Self {
        let workers = workers.max(1) as u64;
        SpillManager {
            base: base.unwrap_or_else(std::env::temp_dir),
            dir: Mutex::new(None),
            task_budget: (budget_bytes / workers).max(1),
            next_run: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            disk_runs: AtomicU64::new(0),
        }
    }

    /// The per-worker share of the budget, in bytes: a task buffer whose
    /// records encode to more than this many bytes must spill.
    pub fn task_budget(&self) -> u64 {
        self.task_budget
    }

    /// Writes one sorted run to a fresh file in the spill directory.
    pub fn write_run<R: Codec>(&self, records: &[R]) -> Result<CompletedRun, StorageError> {
        let dir = self.ensure_dir()?;
        let id = self.next_run.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("run-{id:08}.smr"));
        let mut writer: RunWriter<R> = RunWriter::create(&path)?;
        for record in records {
            writer.push(record)?;
        }
        let run = writer.finish()?;
        self.spilled_bytes.fetch_add(run.bytes, Ordering::Relaxed);
        self.disk_runs.fetch_add(1, Ordering::Relaxed);
        Ok(run)
    }

    /// Frame bytes spilled so far (see [`CompletedRun::bytes`]).
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Run files written so far.
    pub fn disk_runs(&self) -> u64 {
        self.disk_runs.load(Ordering::Relaxed)
    }

    /// The spill directory, if any run has been written yet.
    pub fn dir(&self) -> Option<PathBuf> {
        self.dir.lock().expect("spill dir lock").clone()
    }

    fn ensure_dir(&self) -> Result<PathBuf, StorageError> {
        let mut guard = self.dir.lock().expect("spill dir lock");
        if let Some(dir) = guard.as_ref() {
            return Ok(dir.clone());
        }
        let dir = self.base.join(format!(
            "smr-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        *guard = Some(dir.clone());
        Ok(dir)
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        if let Ok(guard) = self.dir.lock() {
            if let Some(dir) = guard.as_ref() {
                // Best effort: a failed cleanup must not panic a drop.
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunReader;

    #[test]
    fn budget_is_divided_among_workers() {
        let m = SpillManager::new(8192, 8, None);
        assert_eq!(m.task_budget(), 1024);
        // Degenerate budgets still yield a positive threshold.
        assert_eq!(SpillManager::new(0, 4, None).task_budget(), 1);
        assert_eq!(SpillManager::new(10, 0, None).task_budget(), 10);
    }

    #[test]
    fn runs_round_trip_and_the_directory_vanishes_on_drop() {
        let manager = SpillManager::new(1024, 1, None);
        assert!(manager.dir().is_none(), "no dir before the first spill");
        let records: Vec<(u64, u64)> = (0..50).map(|i| (i, i * 2)).collect();
        let run = manager.write_run(&records).unwrap();
        let dir = manager.dir().expect("dir created on first spill");
        assert!(dir.exists());
        assert_eq!(manager.disk_runs(), 1);
        assert!(manager.spilled_bytes() > 0);

        let reader: RunReader<(u64, u64)> = RunReader::open(&run.path).unwrap();
        assert_eq!(reader.read_to_end().unwrap(), records);

        drop(manager);
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn concurrent_managers_use_distinct_directories() {
        let a = SpillManager::new(64, 1, None);
        let b = SpillManager::new(64, 1, None);
        a.write_run(&[1u64]).unwrap();
        b.write_run(&[2u64]).unwrap();
        assert_ne!(a.dir(), b.dir());
    }

    #[test]
    fn explicit_base_directory_is_honoured() {
        let base = std::env::temp_dir().join(format!("smr-spill-base-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let manager = SpillManager::new(64, 1, Some(base.clone()));
        manager.write_run(&[9u8]).unwrap();
        let dir = manager.dir().unwrap();
        assert_eq!(dir.parent(), Some(base.as_path()));
        drop(manager);
        assert_eq!(
            std::fs::read_dir(&base).unwrap().count(),
            0,
            "base must be empty after drop"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }
}
