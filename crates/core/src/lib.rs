//! The b-matching algorithms of "Social Content Matching in MapReduce"
//! (VLDB 2011).
//!
//! Given a weighted bipartite graph between items `T` and consumers `C`
//! and node capacities `b(v)`, the goal is a maximum-weight *b-matching*:
//! a subset of the edges with at most `b(v)` selected edges incident to
//! each node, of maximum total weight (Problem 1 of the paper).
//!
//! The crate implements both the paper's MapReduce algorithms and the
//! centralized algorithms they are derived from:
//!
//! | Algorithm | Module | Guarantee | Rounds |
//! |---|---|---|---|
//! | Centralized greedy | [`greedy`] | ½-approximation, feasible | — |
//! | GreedyMR | [`greedy_mr`] | ½-approximation, feasible, any-time | up to linear |
//! | Centralized stack | [`stack`] | primal-dual, feasible | — |
//! | StackMR | [`stack_mr`] | 1/(6+ε), capacities violated ≤ (1+ε) | poly-logarithmic w.h.p. |
//! | StackGreedyMR | [`stack_mr`] (greedy marking) | as StackMR, better values in practice | poly-logarithmic w.h.p. |
//! | Maximal b-matching | [`maximal`] | maximality (Garrido et al. subroutine) | O(log³ n) expected |
//! | Exact solver | [`exact`] | optimal (min-cost max-flow) | — (small instances) |
//! | Incremental (online) | [`incremental`] | ½-competitive with free disposal | — (per-arrival) |
//!
//! The MapReduce algorithms are written against the
//! [`smr_mapreduce`] engine using the node-centric graph representation of
//! Section 5.3 of the paper: every record is keyed by a node and carries
//! the node's view of its incident edges; map functions make local
//! decisions, reduce functions unify the two endpoints' views of each edge.
//!
//! # Quick start
//!
//! ```
//! use smr_graph::prelude::*;
//! use smr_matching::prelude::*;
//!
//! // A tiny content-delivery instance: 2 items, 3 consumers.
//! let graph = BipartiteGraph::from_edges(
//!     2,
//!     3,
//!     vec![
//!         Edge::new(ItemId(0), ConsumerId(0), 0.9),
//!         Edge::new(ItemId(0), ConsumerId(1), 0.8),
//!         Edge::new(ItemId(1), ConsumerId(1), 0.7),
//!         Edge::new(ItemId(1), ConsumerId(2), 0.6),
//!     ],
//! );
//! let caps = Capacities::uniform(&graph, 2, 1);
//!
//! // One flow hosts every job of the run (and anything else the
//! // surrounding pipeline executes); inter-round state stays in its
//! // partitions beside the round jobs.
//! let flow = smr_mapreduce::FlowContext::new(smr_mapreduce::JobConfig::named("quick-start"));
//! let run = GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &flow);
//! assert!(run.matching.is_feasible(&graph, &caps));
//! assert!(run.matching.value(&graph) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod exact;
pub mod greedy;
pub mod greedy_mr;
pub mod incremental;
pub mod maximal;
pub mod result;
pub mod runner;
pub mod stack;
pub mod stack_mr;
pub mod state;

pub use config::{GreedyMrConfig, MarkingStrategy, StackMrConfig};
pub use exact::optimal_matching;
pub use greedy::greedy_matching;
pub use greedy_mr::GreedyMr;
pub use incremental::IncrementalMatcher;
pub use maximal::{maximal_b_matching_centralized, MaximalMatcher};
pub use result::{AlgorithmKind, MatchingRun};
pub use runner::run_algorithm;
pub use stack::stack_matching;
pub use stack_mr::StackMr;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{GreedyMrConfig, MarkingStrategy, StackMrConfig};
    pub use crate::exact::optimal_matching;
    pub use crate::greedy::greedy_matching;
    pub use crate::greedy_mr::GreedyMr;
    pub use crate::incremental::IncrementalMatcher;
    pub use crate::maximal::{maximal_b_matching_centralized, MaximalMatcher};
    pub use crate::result::{AlgorithmKind, MatchingRun};
    pub use crate::runner::run_algorithm;
    pub use crate::stack::stack_matching;
    pub use crate::stack_mr::StackMr;
}
