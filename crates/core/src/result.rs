//! Results reported by every algorithm run.

use smr_graph::{BipartiteGraph, Capacities, Matching};
use smr_mapreduce::JobMetrics;

/// Which algorithm produced a run (used by the experiment harness when
/// tabulating results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Centralized sequential greedy.
    Greedy,
    /// Centralized sequential stack (primal-dual).
    Stack,
    /// The MapReduce greedy algorithm.
    GreedyMr,
    /// The MapReduce stack algorithm with random marking.
    StackMr,
    /// The MapReduce stack algorithm with heaviest-first marking.
    StackGreedyMr,
    /// The exact min-cost-flow solver.
    Exact,
}

impl AlgorithmKind {
    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Greedy => "Greedy",
            AlgorithmKind::Stack => "Stack",
            AlgorithmKind::GreedyMr => "GreedyMR",
            AlgorithmKind::StackMr => "StackMR",
            AlgorithmKind::StackGreedyMr => "StackGreedyMR",
            AlgorithmKind::Exact => "Exact",
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one algorithm run on one instance.
#[derive(Debug, Clone)]
pub struct MatchingRun {
    /// Which algorithm ran.
    pub algorithm: AlgorithmKind,
    /// The matching produced (possibly violating capacities for StackMR,
    /// within the (1+ε) bound).
    pub matching: Matching,
    /// Number of MapReduce jobs executed (0 for centralized algorithms).
    /// This is the "number of iterations" the paper reports in Figures
    /// 1–3.
    pub mr_jobs: usize,
    /// Number of algorithm-level rounds (GreedyMR rounds, StackMR push +
    /// pop rounds); one round may run several MapReduce jobs.
    pub rounds: usize,
    /// The b-matching value after each round — the any-time trace of
    /// Figure 5.  Centralized algorithms record a single final value.
    pub value_per_round: Vec<f64>,
    /// Metrics of every MapReduce job in execution order.
    pub job_metrics: Vec<JobMetrics>,
    /// Peak resident round state, in encoded bytes: the largest
    /// [`smr_mapreduce::RoundState::max_state_bytes`] of the run's round
    /// states (partitions in RAM and in run files alike).  Zero for
    /// centralized algorithms.
    pub max_round_state_bytes: u64,
}

impl MatchingRun {
    /// Creates a run result for a centralized (non-MapReduce) algorithm.
    pub fn centralized(algorithm: AlgorithmKind, matching: Matching, value: f64) -> Self {
        MatchingRun {
            algorithm,
            matching,
            mr_jobs: 0,
            rounds: 1,
            value_per_round: vec![value],
            job_metrics: Vec::new(),
            max_round_state_bytes: 0,
        }
    }

    /// The final b-matching value.
    pub fn value(&self, graph: &BipartiteGraph) -> f64 {
        self.matching.value(graph)
    }

    /// Total records shuffled across all MapReduce jobs (the communication
    /// cost of the run).
    pub fn total_shuffled_records(&self) -> u64 {
        self.job_metrics.iter().map(|m| m.shuffle_records).sum()
    }

    /// The paper's average capacity violation ε′ of the produced matching.
    pub fn average_violation(&self, graph: &BipartiteGraph, caps: &Capacities) -> f64 {
        self.matching.average_violation(graph, caps)
    }

    /// The earliest round (1-based) whose value reaches `fraction` of the
    /// final value, together with that round's fraction of the total round
    /// count.  This is the "GreedyMR reaches 95% of its final value within
    /// X% of its iterations" measure of Figure 5.
    ///
    /// Returns `None` when the final value is zero or no rounds were
    /// recorded.
    pub fn rounds_to_reach_fraction(&self, fraction: f64) -> Option<(usize, f64)> {
        let final_value = *self.value_per_round.last()?;
        if final_value <= 0.0 {
            return None;
        }
        let target = fraction * final_value;
        let round = self.value_per_round.iter().position(|&v| v >= target)? + 1;
        Some((round, round as f64 / self.value_per_round.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_graph::{ConsumerId, Edge, ItemId};

    fn graph() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            1,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 2.0),
            ],
        )
    }

    #[test]
    fn algorithm_names_match_the_paper() {
        assert_eq!(AlgorithmKind::GreedyMr.name(), "GreedyMR");
        assert_eq!(AlgorithmKind::StackMr.to_string(), "StackMR");
        assert_eq!(AlgorithmKind::StackGreedyMr.name(), "StackGreedyMR");
    }

    #[test]
    fn centralized_run_records_one_round() {
        let g = graph();
        let m = Matching::from_edges(2, [1]);
        let run = MatchingRun::centralized(AlgorithmKind::Greedy, m, 2.0);
        assert_eq!(run.rounds, 1);
        assert_eq!(run.mr_jobs, 0);
        assert_eq!(run.value(&g), 2.0);
        assert_eq!(run.total_shuffled_records(), 0);
    }

    #[test]
    fn rounds_to_reach_fraction_finds_the_anytime_point() {
        let run = MatchingRun {
            algorithm: AlgorithmKind::GreedyMr,
            matching: Matching::new(2),
            mr_jobs: 4,
            rounds: 4,
            value_per_round: vec![1.0, 5.0, 9.0, 10.0],
            job_metrics: Vec::new(),
            max_round_state_bytes: 0,
        };
        // 95% of 10.0 = 9.5 is first reached at round 4.
        assert_eq!(run.rounds_to_reach_fraction(0.95), Some((4, 1.0)));
        // 50% of 10.0 = 5.0 is first reached at round 2 (= 50% of rounds).
        assert_eq!(run.rounds_to_reach_fraction(0.5), Some((2, 0.5)));
    }

    #[test]
    fn rounds_to_reach_fraction_handles_empty_and_zero_runs() {
        let empty = MatchingRun {
            algorithm: AlgorithmKind::GreedyMr,
            matching: Matching::new(0),
            mr_jobs: 0,
            rounds: 0,
            value_per_round: vec![],
            job_metrics: Vec::new(),
            max_round_state_bytes: 0,
        };
        assert_eq!(empty.rounds_to_reach_fraction(0.95), None);
        let zero = MatchingRun {
            value_per_round: vec![0.0, 0.0],
            ..empty
        };
        assert_eq!(zero.rounds_to_reach_fraction(0.95), None);
    }
}
