//! Per-job and per-run metrics.

use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock time spent in each phase of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent running map tasks (includes sorting and spilling their
    /// runs).
    pub map: Duration,
    /// Time spent merging the sorted runs of every reduce partition.
    pub shuffle: Duration,
    /// Time spent running reduce tasks.
    pub reduce: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time of the job.
    pub fn total(&self) -> Duration {
        self.map + self.shuffle + self.reduce
    }
}

/// Everything the engine measured while running one job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// The job name from [`crate::JobConfig`].
    pub job_name: String,
    /// Records read by map tasks.
    pub map_input_records: u64,
    /// Records emitted by map tasks.
    pub map_output_records: u64,
    /// Records that crossed the shuffle (equal to `map_output_records`:
    /// every emitted record reaches a reducer).  This is the paper's
    /// per-round communication cost, O(|E|) for the matching jobs.
    pub shuffle_records: u64,
    /// Encoded bytes ([`smr_storage::Codec::encoded_len`]) of the records
    /// that crossed the shuffle: the same for every memory budget, thread
    /// count and shard count.
    pub shuffle_bytes: u64,
    /// Sorted runs the streaming shuffle merged across all reduce
    /// partitions (in-memory and on-disk runs alike).
    pub merge_runs: u64,
    /// Frame bytes (encoded bytes plus a 4-byte length prefix per record)
    /// of sorted runs spilled to disk because a map task's buffer outgrew
    /// its share of the job's memory budget (zero without a budget).
    pub spill_bytes: u64,
    /// Sorted runs spilled to disk and streamed back through the external
    /// merge (zero without a memory budget).
    pub disk_runs: u64,
    /// Distinct key groups presented to reducers.
    pub reduce_input_groups: u64,
    /// Records emitted by reduce tasks.
    pub reduce_output_records: u64,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce partitions executed.
    pub reduce_tasks: usize,
    /// Wall-clock timings.
    pub timings: PhaseTimings,
    /// Snapshot of all user counters at job completion.
    pub user_counters: BTreeMap<String, u64>,
}

impl JobMetrics {
    /// Fraction of map output records eliminated before the shuffle.  The
    /// engine has no combiner, so this is 0.0 for every job; it stays for
    /// callers that still report it.
    pub fn combine_reduction(&self) -> f64 {
        if self.map_output_records == 0 {
            return 0.0;
        }
        1.0 - (self.shuffle_records as f64 / self.map_output_records as f64)
    }

    /// Adds the record counts of `other` into `self` (used to accumulate
    /// totals across the rounds of an iterative algorithm).
    pub fn accumulate(&mut self, other: &JobMetrics) {
        self.map_input_records += other.map_input_records;
        self.map_output_records += other.map_output_records;
        self.shuffle_records += other.shuffle_records;
        self.shuffle_bytes += other.shuffle_bytes;
        self.merge_runs += other.merge_runs;
        self.spill_bytes += other.spill_bytes;
        self.disk_runs += other.disk_runs;
        self.reduce_input_groups += other.reduce_input_groups;
        self.reduce_output_records += other.reduce_output_records;
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
        self.timings.map += other.timings.map;
        self.timings.shuffle += other.timings.shuffle;
        self.timings.reduce += other.timings.reduce;
        for (k, v) in &other.user_counters {
            *self.user_counters.entry(k.clone()).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_reduction_handles_empty_job() {
        let m = JobMetrics::default();
        assert_eq!(m.combine_reduction(), 0.0);
    }

    #[test]
    fn combine_reduction_measures_savings() {
        let m = JobMetrics {
            map_output_records: 100,
            shuffle_records: 25,
            ..JobMetrics::default()
        };
        assert!((m.combine_reduction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_counts_and_counters() {
        let mut a = JobMetrics {
            map_input_records: 1,
            shuffle_records: 2,
            shuffle_bytes: 100,
            merge_runs: 3,
            spill_bytes: 64,
            disk_runs: 1,
            ..JobMetrics::default()
        };
        a.user_counters.insert("edges".into(), 10);
        let mut b = JobMetrics {
            map_input_records: 3,
            shuffle_records: 4,
            shuffle_bytes: 50,
            merge_runs: 2,
            spill_bytes: 36,
            disk_runs: 2,
            ..JobMetrics::default()
        };
        b.user_counters.insert("edges".into(), 5);
        b.user_counters.insert("nodes".into(), 7);
        a.accumulate(&b);
        assert_eq!(a.map_input_records, 4);
        assert_eq!(a.shuffle_records, 6);
        assert_eq!(a.shuffle_bytes, 150);
        assert_eq!(a.merge_runs, 5);
        assert_eq!(a.spill_bytes, 100);
        assert_eq!(a.disk_runs, 3);
        assert_eq!(a.user_counters["edges"], 15);
        assert_eq!(a.user_counters["nodes"], 7);
    }

    #[test]
    fn phase_timings_total() {
        let t = PhaseTimings {
            map: Duration::from_millis(10),
            shuffle: Duration::from_millis(20),
            reduce: Duration::from_millis(30),
        };
        assert_eq!(t.total(), Duration::from_millis(60));
    }
}
