//! Driver for iterative MapReduce algorithms.
//!
//! GreedyMR and StackMR are *chains* of MapReduce jobs: each round runs one
//! or more jobs over the current graph state and decides whether another
//! round is needed.  The driver owns that loop, enforces a round budget,
//! and accumulates per-round metrics so that the experiments can report the
//! "number of MapReduce iterations" series of Figures 1–3 and the
//! per-iteration solution values of Figure 5.
//!
//! The inter-round state of a driven job lives in a
//! [`RoundState`](crate::flow::RoundState): partitioned over the reduce
//! tasks, each partition in RAM within its share of the memory budget
//! and in a run file above it, so the driver's loop never holds the
//! record set itself.  Jobs mark round boundaries with
//! [`FlowContext::mark_round`](crate::flow::FlowContext::mark_round) so
//! a [`FlowReport`](crate::flow::FlowReport) can attribute jobs to rounds
//! without aliasing.

use crate::metrics::JobMetrics;

/// What an iterative job wants to do after a round.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// Keep iterating.
    Continue,
    /// The algorithm converged (e.g. no edges remain); stop.
    Converged,
}

/// One round of an iterative MapReduce algorithm.
pub trait IterativeJob {
    /// Executes round `round` (0-based) and reports whether to continue.
    ///
    /// The job returns the metrics of every MapReduce job it ran this
    /// round; most rounds of the matching algorithms run one job, the
    /// maximal-matching subroutine of StackMR runs four (mark, select,
    /// match, cleanup).
    fn run_round(&mut self, round: usize) -> (RoundOutcome, Vec<JobMetrics>);
}

/// Summary of a complete iterative run.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Number of rounds executed (driver-level iterations).
    pub rounds: usize,
    /// Number of underlying MapReduce jobs executed across all rounds.
    pub jobs: usize,
    /// Whether the algorithm converged (as opposed to hitting the round
    /// budget).
    pub converged: bool,
    /// Metrics of every job in execution order.
    pub job_metrics: Vec<JobMetrics>,
    /// Accumulated totals over all jobs.
    pub totals: JobMetrics,
}

impl RunSummary {
    /// Total number of records shuffled across all jobs — the paper's
    /// communication cost.
    pub fn total_shuffled_records(&self) -> u64 {
        self.totals.shuffle_records
    }
}

/// Runs an [`IterativeJob`] until convergence or until `max_rounds`.
#[derive(Debug, Clone)]
pub struct IterativeDriver {
    max_rounds: usize,
}

impl IterativeDriver {
    /// Creates a driver with the given round budget.
    pub fn new(max_rounds: usize) -> Self {
        IterativeDriver { max_rounds }
    }

    /// The round budget.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Runs `job` to convergence (or the round budget) and returns the
    /// summary.
    pub fn run<J: IterativeJob>(&self, job: &mut J) -> RunSummary {
        let mut summary = RunSummary {
            totals: JobMetrics {
                job_name: "totals".to_string(),
                ..JobMetrics::default()
            },
            ..RunSummary::default()
        };
        for round in 0..self.max_rounds {
            let (outcome, metrics) = job.run_round(round);
            summary.rounds = round + 1;
            summary.jobs += metrics.len();
            for m in &metrics {
                summary.totals.accumulate(m);
            }
            summary.job_metrics.extend(metrics);
            if outcome == RoundOutcome::Converged {
                summary.converged = true;
                break;
            }
        }
        summary
    }
}

impl Default for IterativeDriver {
    fn default() -> Self {
        // Generous budget: the algorithms in this workspace converge in far
        // fewer rounds; the budget only guards against non-termination bugs.
        IterativeDriver::new(10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that counts down and converges after `n` rounds, reporting one
    /// job with `round + 1` shuffled records per round.
    struct Countdown {
        remaining: usize,
    }

    impl IterativeJob for Countdown {
        fn run_round(&mut self, round: usize) -> (RoundOutcome, Vec<JobMetrics>) {
            let metrics = JobMetrics {
                job_name: format!("round-{round}"),
                shuffle_records: (round + 1) as u64,
                ..JobMetrics::default()
            };
            if self.remaining <= 1 {
                self.remaining = 0;
                (RoundOutcome::Converged, vec![metrics])
            } else {
                self.remaining -= 1;
                (RoundOutcome::Continue, vec![metrics])
            }
        }
    }

    #[test]
    fn driver_stops_on_convergence() {
        let mut job = Countdown { remaining: 5 };
        let summary = IterativeDriver::new(100).run(&mut job);
        assert!(summary.converged);
        assert_eq!(summary.rounds, 5);
        assert_eq!(summary.jobs, 5);
        // 1 + 2 + 3 + 4 + 5 records shuffled in total.
        assert_eq!(summary.total_shuffled_records(), 15);
    }

    #[test]
    fn driver_respects_round_budget() {
        let mut job = Countdown { remaining: 1000 };
        let summary = IterativeDriver::new(3).run(&mut job);
        assert!(!summary.converged);
        assert_eq!(summary.rounds, 3);
    }

    #[test]
    fn zero_round_budget_runs_nothing() {
        struct MustNotRun;
        impl IterativeJob for MustNotRun {
            fn run_round(&mut self, _round: usize) -> (RoundOutcome, Vec<JobMetrics>) {
                panic!("a zero-round driver must never invoke the job");
            }
        }
        let summary = IterativeDriver::new(0).run(&mut MustNotRun);
        assert_eq!(summary.rounds, 0);
        assert_eq!(summary.jobs, 0);
        assert!(!summary.converged, "no rounds ran, so nothing converged");
        assert!(summary.job_metrics.is_empty());
        assert_eq!(summary.total_shuffled_records(), 0);
        assert_eq!(summary.totals.map_input_records, 0);
    }

    #[test]
    fn rounds_with_no_jobs_still_count_as_rounds() {
        // A round may legitimately run zero MapReduce jobs (e.g. a purely
        // driver-side bookkeeping round); the driver must count the round
        // but not inflate the job count or the totals.
        struct Bookkeeping {
            rounds_left: usize,
        }
        impl IterativeJob for Bookkeeping {
            fn run_round(&mut self, _round: usize) -> (RoundOutcome, Vec<JobMetrics>) {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    (RoundOutcome::Converged, Vec::new())
                } else {
                    (RoundOutcome::Continue, Vec::new())
                }
            }
        }
        let summary = IterativeDriver::new(10).run(&mut Bookkeeping { rounds_left: 3 });
        assert!(summary.converged);
        assert_eq!(summary.rounds, 3);
        assert_eq!(summary.jobs, 0);
        assert!(summary.job_metrics.is_empty());
        assert_eq!(summary.total_shuffled_records(), 0);
    }

    #[test]
    fn driver_runs_a_disk_backed_round_state_job_out_of_core() {
        use crate::config::JobConfig;
        use crate::flow::{FlowContext, RoundState};
        use crate::types::{Emitter, Mapper, StateReducer};

        // Counters drain by one per round and retire at zero; nobody
        // sends notes.
        struct Drain;
        impl Mapper for Drain {
            type InKey = u32;
            type InValue = u64;
            type OutKey = u32;
            type OutValue = ();
            fn map(&self, _: &u32, _: &u64, _: &mut Emitter<u32, ()>) {}
        }
        impl StateReducer for Drain {
            type Key = u32;
            type State = u64;
            type Note = ();
            type OutKey = u32;
            type OutValue = ();
            fn reduce(&self, _: &u32, c: u64, _: &[()], _: &mut Emitter<u32, ()>) -> Option<u64> {
                (c > 1).then(|| c - 1)
            }
        }
        // An iterative job whose only inter-round state is a RoundState
        // whose partitions all outgrow a 16-byte budget.
        struct Draining {
            state: RoundState<u32, u64>,
            flow: FlowContext,
        }
        impl IterativeJob for Draining {
            fn run_round(&mut self, round: usize) -> (RoundOutcome, Vec<JobMetrics>) {
                self.flow.mark_round();
                let jobs = self.flow.num_jobs();
                let _ = self.state.round(format!("drain-{round}"), Drain, Drain);
                let outcome = if self.state.is_empty() {
                    RoundOutcome::Converged
                } else {
                    RoundOutcome::Continue
                };
                (outcome, self.flow.jobs_from(jobs))
            }
        }

        let flow = FlowContext::new(JobConfig::named("driver-rs").with_memory_budget(Some(16)));
        let mut state = flow.round_state("drain");
        state.seed(vec![(1u32, 2u64), (2, 4), (3, 1)]);
        let mut job = Draining {
            state,
            flow: flow.clone(),
        };
        let summary = IterativeDriver::new(100).run(&mut job);
        assert!(summary.converged);
        assert_eq!(summary.rounds, 4, "the deepest counter holds 4 rounds");
        assert_eq!(summary.jobs, 4);
        assert_eq!(flow.report().num_rounds(), 4);
        assert!(job.state.max_state_bytes() > 0);
    }

    #[test]
    fn multi_job_rounds_are_counted() {
        struct FourJobs {
            rounds_left: usize,
        }
        impl IterativeJob for FourJobs {
            fn run_round(&mut self, _round: usize) -> (RoundOutcome, Vec<JobMetrics>) {
                self.rounds_left -= 1;
                let metrics = vec![JobMetrics::default(); 4];
                if self.rounds_left == 0 {
                    (RoundOutcome::Converged, metrics)
                } else {
                    (RoundOutcome::Continue, metrics)
                }
            }
        }
        let summary = IterativeDriver::default().run(&mut FourJobs { rounds_left: 2 });
        assert_eq!(summary.rounds, 2);
        assert_eq!(summary.jobs, 8);
    }
}
