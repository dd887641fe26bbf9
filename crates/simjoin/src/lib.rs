//! Similarity join: computing the candidate edges of the b-matching.
//!
//! Section 5.1 of the paper: materializing all `|T| · |C|` item–consumer
//! pairs is infeasible, so the framework only keeps pairs whose similarity
//! `w(t, c) = v(t) · v(c)` is at least a threshold σ.  Finding those pairs
//! is the *similarity join* problem, solved in MapReduce by adapting the
//! prefix-filtering self-join of Baraglia, De Francisci Morales and
//! Lucchese to the bipartite (item × consumer) case.
//!
//! * [`align`] — both sides of the join vectorized over one joint
//!   vocabulary ([`AlignedCorpora`]), and later text into the same space,
//! * [`prefix`] — the prefix-filtering bounds: which entries of a consumer
//!   vector must be indexed so that no pair above the threshold can be
//!   missed, and what the pruned suffix could still contribute (the
//!   *remainder bound* of partial-product verification),
//! * [`index`] — the [`IndexPlan`] (query-side maxima + global term order),
//!   the one rule turning a consumer vector into prefix postings, and the
//!   in-RAM [`InvertedIndex`] both the batch probe and serving read,
//! * [`baseline`] — an exact all-pairs join used as ground truth,
//! * [`join`] — the two-MapReduce-job chain (index construction, then
//!   partial-product probing with suffix-bound pruning and exact
//!   verification in the probe mapper) producing a
//!   [`smr_graph::BipartiteGraph`]; see
//!   `docs/simjoin.md` for the filter math and the dataflow,
//! * [`serving`] — the index kept alive after the batch build, with the
//!   consumer vectors it owns: point queries ([`ServingIndex::match_one`])
//!   and micro-batch appends; see `docs/serving.md`.
//!
//! # Example
//!
//! ```
//! use smr_mapreduce::{FlowContext, JobConfig};
//! use smr_simjoin::prelude::*;
//! use smr_text::prelude::*;
//!
//! let items = Corpus::build(
//!     vec![
//!         Document::new("q0", "sourdough bread baking"),
//!         Document::new("q1", "vintage car engines"),
//!     ],
//!     &TokenizerConfig::default(),
//! );
//! let consumers = Corpus::build(
//!     vec![
//!         Document::new("u0", "I bake bread every weekend, mostly sourdough"),
//!         Document::new("u1", "restoring old cars and engines"),
//!     ],
//!     &TokenizerConfig::default(),
//! );
//! let flow = FlowContext::new(JobConfig::named("simjoin"));
//! let result = mapreduce_similarity_join_flow(&items, &consumers, 0.05, &flow);
//! // Each item ends up connected to the consumer with matching interests.
//! assert_eq!(result.graph.num_edges(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accum;
pub mod align;
pub mod baseline;
pub mod index;
pub mod join;
pub mod prefix;
pub mod serving;

pub use accum::ScoreAccumulator;
pub use align::AlignedCorpora;
pub use baseline::baseline_similarity_join;
pub use index::{IndexPlan, InvertedIndex, Posting, PostingsRef};
pub use join::{
    candidate_chain, mapreduce_similarity_join_flow, mapreduce_similarity_join_vectors_flow,
    prefix_filter_join, probe_index, probe_postings, stage_shuffles, survives, verify_candidates,
    PartialScore, SimJoinResult, StageShuffle, EXACT_GENERATOR,
};
pub use prefix::{prefix_length, suffix_remainder_bound, term_max_weights};
pub use serving::{ScoredMatch, ServingIndex};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::align::AlignedCorpora;
    pub use crate::baseline::baseline_similarity_join;
    pub use crate::index::{IndexPlan, InvertedIndex, Posting};
    pub use crate::join::{
        mapreduce_similarity_join_flow, mapreduce_similarity_join_vectors_flow, PartialScore,
        SimJoinResult,
    };
    pub use crate::prefix::{prefix_length, suffix_remainder_bound, term_max_weights};
    pub use crate::serving::{ScoredMatch, ServingIndex};
}
