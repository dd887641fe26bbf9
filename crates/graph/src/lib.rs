//! Bipartite item–consumer graphs, node capacities and b-matchings.
//!
//! This crate provides the graph substrate of the reproduction of
//! "Social Content Matching in MapReduce" (VLDB 2011):
//!
//! * [`ids`] — typed identifiers for items (content) and consumers (users),
//! * [`bipartite`] — the weighted bipartite graph `G = (T, C, E)` of
//!   Problem 1, with adjacency access and threshold filtering,
//! * [`capacity`] — the capacity functions `b : T ∪ C → N` of Section 4
//!   (activity-proportional consumer capacities, uniform or
//!   quality-proportional item capacities, and the flickr / Yahoo! Answers
//!   formulas used in the evaluation),
//! * [`matching`] — b-matching solutions: value, feasibility, and the
//!   average capacity-violation measure ε′ of Section 6,
//! * [`stats`] — histograms of edge similarities and capacities
//!   (Figures 6 and 7).
//!
//! # Example
//!
//! ```
//! use smr_graph::prelude::*;
//!
//! // One item, two consumers: a node is its position on its side.
//! let graph = BipartiteGraph::from_edges(
//!     1,
//!     2,
//!     vec![
//!         Edge::new(ItemId(0), ConsumerId(0), 0.9),
//!         Edge::new(ItemId(0), ConsumerId(1), 0.4),
//!     ],
//! );
//!
//! let caps = Capacities::uniform(&graph, 1, 1);
//! let mut m = Matching::new(graph.num_edges());
//! m.insert(0);
//! assert!(m.is_feasible(&graph, &caps));
//! assert!((m.value(&graph) - 0.9).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bipartite;
pub mod capacity;
pub mod ids;
pub mod matching;
pub mod stats;

pub use bipartite::{BipartiteGraph, Edge, EdgeId};
pub use capacity::{Capacities, CapacityModel};
pub use ids::{ConsumerId, ItemId, NodeId};
pub use matching::Matching;
pub use stats::{Histogram, Summary};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bipartite::{BipartiteGraph, Edge, EdgeId};
    pub use crate::capacity::{Capacities, CapacityModel};
    pub use crate::ids::{ConsumerId, ItemId, NodeId};
    pub use crate::matching::Matching;
    pub use crate::stats::{Histogram, Summary};
}
