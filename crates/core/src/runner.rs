//! A small façade for running any of the algorithms by name.
//!
//! The experiment harness sweeps algorithms × datasets × parameters; this
//! module gives it (and the examples) a single entry point.

use smr_graph::{BipartiteGraph, Capacities};
use smr_mapreduce::flow::FlowContext;

use crate::config::{GreedyMrConfig, StackMrConfig};
use crate::exact::optimal_matching;
use crate::greedy::greedy_matching;
use crate::greedy_mr::GreedyMr;
use crate::result::{AlgorithmKind, MatchingRun};
use crate::stack::stack_matching;
use crate::stack_mr::StackMr;

/// Parameters shared by [`run_algorithm`].
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Configuration of GreedyMR runs.
    pub greedy_mr: GreedyMrConfig,
    /// Configuration of StackMR / StackGreedyMR runs.
    pub stack_mr: StackMrConfig,
}

/// Runs the requested algorithm with every MapReduce job built through
/// `flow` (see [`GreedyMr::run`] / [`StackMr::run`]): the flow's
/// `JobConfig` governs the engine and the whole run reports into the
/// flow's [`smr_mapreduce::FlowReport`].  Centralized algorithms run no
/// jobs and leave the flow untouched.
///
/// For the centralized algorithms the `MatchingRun` has `mr_jobs == 0`; for
/// `StackGreedyMr` the stack configuration's marking strategy is overridden
/// to heaviest-first.
pub fn run_algorithm(
    algorithm: AlgorithmKind,
    graph: &BipartiteGraph,
    caps: &Capacities,
    config: &RunnerConfig,
    flow: &FlowContext,
) -> MatchingRun {
    match algorithm {
        AlgorithmKind::GreedyMr => GreedyMr::new(config.greedy_mr.clone()).run(graph, caps, flow),
        AlgorithmKind::StackMr => StackMr::new(config.stack_mr.clone()).run(graph, caps, flow),
        AlgorithmKind::StackGreedyMr => {
            StackMr::new(config.stack_mr.clone().stack_greedy()).run(graph, caps, flow)
        }
        centralized => run_centralized(centralized, graph, caps, config),
    }
}

fn run_centralized(
    algorithm: AlgorithmKind,
    graph: &BipartiteGraph,
    caps: &Capacities,
    config: &RunnerConfig,
) -> MatchingRun {
    match algorithm {
        AlgorithmKind::Greedy => {
            let m = greedy_matching(graph, caps);
            let value = m.value(graph);
            MatchingRun::centralized(AlgorithmKind::Greedy, m, value)
        }
        AlgorithmKind::Stack => {
            let m = stack_matching(graph, caps, config.stack_mr.epsilon);
            let value = m.value(graph);
            MatchingRun::centralized(AlgorithmKind::Stack, m, value)
        }
        AlgorithmKind::Exact => {
            let m = optimal_matching(graph, caps);
            let value = m.value(graph);
            MatchingRun::centralized(AlgorithmKind::Exact, m, value)
        }
        mapreduce => unreachable!("{mapreduce} is not a centralized algorithm"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_graph::{ConsumerId, Edge, ItemId};
    use smr_mapreduce::JobConfig;

    fn instance() -> (BipartiteGraph, Capacities) {
        let g = BipartiteGraph::from_edges(
            3,
            3,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 2.0),
                Edge::new(ItemId(0), ConsumerId(1), 1.0),
                Edge::new(ItemId(1), ConsumerId(1), 3.0),
                Edge::new(ItemId(1), ConsumerId(2), 1.5),
                Edge::new(ItemId(2), ConsumerId(2), 2.5),
                Edge::new(ItemId(2), ConsumerId(0), 0.5),
            ],
        );
        let caps = Capacities::uniform(&g, 1, 1);
        (g, caps)
    }

    /// Test helper: run under a throwaway one-thread flow.
    fn run(
        algorithm: AlgorithmKind,
        g: &BipartiteGraph,
        caps: &Capacities,
        config: &RunnerConfig,
    ) -> MatchingRun {
        let flow = FlowContext::new(JobConfig::named("runner").with_threads(1));
        run_algorithm(algorithm, g, caps, config, &flow)
    }

    fn runner_config() -> RunnerConfig {
        RunnerConfig {
            greedy_mr: GreedyMrConfig::default(),
            stack_mr: StackMrConfig::default().with_seed(4),
        }
    }

    #[test]
    fn every_algorithm_produces_a_nonempty_matching() {
        let (g, caps) = instance();
        let config = runner_config();
        for algorithm in [
            AlgorithmKind::Greedy,
            AlgorithmKind::Stack,
            AlgorithmKind::Exact,
            AlgorithmKind::GreedyMr,
            AlgorithmKind::StackMr,
            AlgorithmKind::StackGreedyMr,
        ] {
            let run = run(algorithm, &g, &caps, &config);
            assert_eq!(run.algorithm, algorithm, "{algorithm}");
            assert!(!run.matching.is_empty(), "{algorithm} matched nothing");
            assert!(run.value(&g) > 0.0);
        }
    }

    #[test]
    fn centralized_algorithms_report_zero_mapreduce_jobs() {
        let (g, caps) = instance();
        let config = runner_config();
        for algorithm in [
            AlgorithmKind::Greedy,
            AlgorithmKind::Stack,
            AlgorithmKind::Exact,
        ] {
            let run = run(algorithm, &g, &caps, &config);
            assert_eq!(run.mr_jobs, 0);
        }
        let mr = run(AlgorithmKind::GreedyMr, &g, &caps, &config);
        assert!(mr.mr_jobs > 0);
    }

    #[test]
    fn exact_dominates_the_approximations() {
        let (g, caps) = instance();
        let config = runner_config();
        let exact = run(AlgorithmKind::Exact, &g, &caps, &config);
        for algorithm in [
            AlgorithmKind::Greedy,
            AlgorithmKind::GreedyMr,
            AlgorithmKind::Stack,
        ] {
            let run = run(algorithm, &g, &caps, &config);
            assert!(
                run.value(&g) <= exact.value(&g) + 1e-9,
                "{algorithm} exceeded the optimum"
            );
        }
    }
}
