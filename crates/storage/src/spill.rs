//! What the engine parks between phases: sorted [`Run`]s, in RAM or in
//! run files, and the [`SpillDir`] the files live in.
//!
//! * A [`Run`] is a set of sorted records, held in RAM with its encoded
//!   bytes, or in a run file ([`RunFile`]) that is removed when the run —
//!   or the iterator streaming it — drops.  Map-side spills, round-state
//!   partitions and the runs a coordinator rebuilds from a shard manifest
//!   are all runs.
//! * A [`SpillDir`] is created on its first file and removed when its
//!   last holder drops: every file run made in it holds it, so the
//!   directory outlives whoever created it exactly as long as one of its
//!   runs is alive.  It hands out unique file names.
//! * A [`SpillManager`] serves one job execution: its **memory budget**,
//!   divided evenly among the concurrent worker threads
//!   ([`SpillManager::task_budget`]) so the hot per-record budget check is
//!   a plain integer comparison with no shared state and the spill
//!   schedule is deterministic for a fixed thread count; a spill
//!   directory, untouched by a job that never spills; and the job's spill
//!   **accounting** ([`SpillManager::spilled_bytes`],
//!   [`SpillManager::disk_runs`]), which the engine surfaces as the
//!   `spill_bytes` / `disk_runs` metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::Codec;
use crate::run::{CompletedRun, RunReader, RunWriter, StorageError};

/// Process-wide counter making concurrent directories unique.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of run files: `{prefix}-{pid}-{seq}` under a base
/// directory, created on the first file and removed, with whatever is
/// left in it, when the last clone drops.  Clones share the directory.
#[derive(Debug, Clone)]
pub struct SpillDir(Arc<DirInner>);

#[derive(Debug)]
struct DirInner {
    path: PathBuf,
    created: AtomicBool,
    next_file: AtomicU64,
}

impl Drop for DirInner {
    fn drop(&mut self) {
        if self.created.load(Ordering::Relaxed) {
            // Best effort: a failed cleanup must not panic a drop.
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

impl SpillDir {
    /// A directory named `{prefix}-{pid}-{seq}` in `base` (the system
    /// temp directory when `None`); nothing is created yet.
    pub fn new(prefix: &str, base: Option<PathBuf>) -> Self {
        let name = format!(
            "{prefix}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        SpillDir(Arc::new(DirInner {
            path: base.unwrap_or_else(std::env::temp_dir).join(name),
            created: AtomicBool::new(false),
            next_file: AtomicU64::new(0),
        }))
    }

    /// The directory, created on first use.
    pub fn path(&self) -> Result<&Path, StorageError> {
        let inner = &self.0;
        if !inner.created.load(Ordering::Acquire) {
            std::fs::create_dir_all(&inner.path)?;
            inner.created.store(true, Ordering::Release);
        }
        Ok(&inner.path)
    }

    /// A writer of a fresh run file in the directory.  Hand the finished
    /// file to [`RunFile::new`] with this directory to make it a [`Run`].
    pub fn writer<R: Codec>(&self) -> Result<RunWriter<R>, StorageError> {
        let id = self.0.next_file.fetch_add(1, Ordering::Relaxed);
        RunWriter::create(self.path()?.join(format!("run-{id:08}.smr")))
    }
}

/// A run file, removed when dropped.  It holds the directory it was made
/// in, if any, so the directory lives at least as long as the file.
#[derive(Debug)]
pub struct RunFile {
    run: CompletedRun,
    _dir: Option<SpillDir>,
}

impl RunFile {
    /// Takes ownership of a finished run file: dropping the `RunFile`
    /// removes it.  `dir` is the [`SpillDir`] it lives in, or `None` for a
    /// file whose directory someone else removes.
    pub fn new(run: CompletedRun, dir: Option<SpillDir>) -> Self {
        RunFile { run, _dir: dir }
    }

    /// The file's path and sizes.
    pub fn completed(&self) -> &CompletedRun {
        &self.run
    }

    fn open<R: Codec>(&self) -> RunReader<R> {
        RunReader::open(&self.run.path)
            .unwrap_or_else(|e| panic!("run {:?} unreadable: {e}", self.run.path))
    }

    fn read<R: Codec>(&self, reader: &mut RunReader<R>) -> Option<R> {
        reader
            .next_record()
            .unwrap_or_else(|e| panic!("run {:?} unreadable: {e}", self.run.path))
    }
}

impl Drop for RunFile {
    fn drop(&mut self) {
        // Best effort: a failed cleanup must not panic a drop.
        let _ = std::fs::remove_file(&self.run.path);
    }
}

/// A set of sorted records the engine parks: in RAM, or in a run file.
///
/// Reading a file run panics on an I/O or decode error: a file the
/// engine itself wrote cannot legitimately fail to read back, so that is
/// corruption (or an exhausted disk), not a recoverable state.
#[derive(Debug)]
pub enum Run<R> {
    /// Held in RAM, with the records' encoded bytes.
    Memory(Vec<R>, u64),
    /// Held in a run file.
    File(RunFile),
}

impl<R: Codec> Run<R> {
    /// Records in the run.
    pub fn len(&self) -> usize {
        match self {
            Run::Memory(records, _) => records.len(),
            Run::File(file) => file.run.records as usize,
        }
    }

    /// Whether the run holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records' encoded bytes ([`Codec::encoded_len`] summed).
    pub fn bytes(&self) -> u64 {
        match self {
            Run::Memory(_, bytes) => *bytes,
            Run::File(file) => file.run.encoded_bytes(),
        }
    }

    /// Calls `f` with every record in order, streaming a file run.
    pub fn for_each(&self, mut f: impl FnMut(&R)) {
        match self {
            Run::Memory(records, _) => records.iter().for_each(f),
            Run::File(file) => {
                let mut reader = file.open();
                while let Some(record) = file.read(&mut reader) {
                    f(&record);
                }
            }
        }
    }
}

impl<R: Codec> IntoIterator for Run<R> {
    type Item = R;
    type IntoIter = RunIter<R>;

    /// The records by move, in order.  A file run's file is removed when
    /// the iterator drops, finished or not.
    fn into_iter(self) -> RunIter<R> {
        RunIter(match self {
            Run::Memory(records, _) => Source::Memory(records.into_iter()),
            Run::File(file) => Source::File(file.open(), file),
        })
    }
}

/// The records of a [`Run`], by move.
#[derive(Debug)]
pub struct RunIter<R>(Source<R>);

#[derive(Debug)]
enum Source<R> {
    Memory(std::vec::IntoIter<R>),
    File(RunReader<R>, RunFile),
}

impl<R: Codec> Iterator for RunIter<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        match &mut self.0 {
            Source::Memory(records) => records.next(),
            Source::File(reader, file) => file.read(reader),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Source::Memory(records) => records.size_hint(),
            Source::File(reader, _) => reader.size_hint(),
        }
    }
}

/// Owns a job's memory budget, its directory of spilled runs and their
/// accounting.
#[derive(Debug)]
pub struct SpillManager {
    dir: SpillDir,
    task_budget: u64,
    spilled_bytes: AtomicU64,
    disk_runs: AtomicU64,
}

impl SpillManager {
    /// Creates a manager for a job with `budget_bytes` of buffer memory
    /// shared by `workers` concurrent worker threads.  Runs spill into a
    /// fresh `smr-spill-*` [`SpillDir`] in `base` (the system temp
    /// directory when `None`).
    pub fn new(budget_bytes: u64, workers: usize, base: Option<PathBuf>) -> Self {
        let workers = workers.max(1) as u64;
        SpillManager {
            dir: SpillDir::new("smr-spill", base),
            task_budget: (budget_bytes / workers).max(1),
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
    pub fn write_run<R: Codec>(&self, records: &[R]) -> Result<Run<R>, StorageError> {
        let mut writer = self.dir.writer()?;
        for record in records {
            writer.push(record)?;
        }
        let run = writer.finish()?;
        self.spilled_bytes.fetch_add(run.bytes, Ordering::Relaxed);
        self.disk_runs.fetch_add(1, Ordering::Relaxed);
        Ok(Run::File(RunFile::new(run, Some(self.dir.clone()))))
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
        let dir = &self.dir.0;
        dir.created
            .load(Ordering::Acquire)
            .then(|| dir.path.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<(u64, u64)> {
        (0..50).map(|i| (i, i * 2)).collect()
    }

    fn path_of<R>(run: &Run<R>) -> PathBuf {
        match run {
            Run::File(file) => file.completed().path.clone(),
            Run::Memory(..) => panic!("a spilled run lives in a file"),
        }
    }

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
        let run = manager.write_run(&records()).unwrap();
        let dir = manager.dir().expect("dir created on first spill");
        assert!(dir.exists());
        assert_eq!(manager.disk_runs(), 1);
        assert!(manager.spilled_bytes() > 0);
        assert_eq!((run.len(), run.bytes()), (50, 50 * 16));

        // The run holds the directory past its manager…
        drop(manager);
        assert!(dir.exists(), "a live run keeps its directory");
        assert_eq!(run.into_iter().collect::<Vec<_>>(), records());
        // …and the last run to drop removes it.
        assert!(!dir.exists(), "spill dir must be removed with its last run");
    }

    #[test]
    fn a_file_run_streams_in_order_and_is_removed_with_its_run_or_iterator() {
        let manager = SpillManager::new(1024, 1, None);
        let dropped = manager.write_run(&records()).unwrap();
        let path = path_of(&dropped);
        let mut seen = Vec::new();
        dropped.for_each(|record| seen.push(*record));
        assert_eq!(seen, records(), "streamed by reference, in order");
        drop(dropped);
        assert!(!path.exists(), "dropping the run removes its file");

        let half_read = manager.write_run(&records()).unwrap();
        let path = path_of(&half_read);
        let mut iter = half_read.into_iter();
        assert_eq!(iter.by_ref().take(20).collect::<Vec<_>>(), records()[..20]);
        assert!(path.exists(), "the iterator holds the file while it lives");
        drop(iter);
        assert!(!path.exists(), "an iterator dropped half-way removes it");
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
