//! Similarity join: computing the candidate edges of the b-matching.
//!
//! Section 5.1 of the paper: materializing all `|T| · |C|` item–consumer
//! pairs is infeasible, so the framework only keeps pairs whose similarity
//! `w(t, c) = v(t) · v(c)` is at least a threshold σ.  Finding those pairs
//! is the *similarity join* problem, solved in MapReduce by adapting the
//! prefix-filtering self-join of Baraglia, De Francisci Morales and
//! Lucchese to the bipartite (item × consumer) case.
//!
//! The filter's global term order is ascending term id: a
//! [`smr_text::Corpus`] numbers its vocabulary rarest first, so a
//! consumer's indexed prefix is `entries()[..plen]` and a survivor's
//! partial score is the start of its dot product.  Vectors numbered any
//! other way still join exactly, only less selectively.
//!
//! * [`align`] — both sides of the join vectorized over one joint
//!   vocabulary ([`AlignedCorpora`]), and later text into the same space,
//! * [`index`] — the [`IndexPlan`] (query-side maxima) and its one cut
//!   of a consumer vector: how many leading entries must be indexed so
//!   that no pair above the threshold can be missed, and what the pruned
//!   suffix could still contribute (the *remainder bound* of
//!   partial-product verification); the [`SuffixTable`] that keeps both
//!   per consumer, and the in-RAM [`InvertedIndex`] of the prefixes,
//! * [`baseline`] — an exact all-pairs join used as ground truth,
//! * [`accum`] — the dense per-query score table the probe folds partial
//!   products into,
//! * [`join`] — the one-MapReduce-job chain (partial-product probing of
//!   a driver-built [`ServingIndex`] with suffix-bound pruning and exact
//!   verification in the probe mapper, each survivor finished by merging
//!   the suffix tails) producing a [`smr_graph::BipartiteGraph`]; see
//!   `docs/simjoin.md` for the filter math and the dataflow,
//! * [`serving`] — the index with the consumer vectors, its exactness
//!   contract (drift count, drift record, rebuild) and the
//!   one probe loop ([`ServingIndex::probe`]) the batch probe mapper and
//!   the point queries ([`ServingIndex::match_one`]) share, plus
//!   micro-batch appends; see `docs/serving.md`.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accum;
pub mod align;
pub mod baseline;
pub mod index;
pub mod join;
pub mod serving;

pub use accum::ScoreAccumulator;
pub use align::AlignedCorpora;
pub use baseline::baseline_similarity_join;
pub use index::{IndexPlan, InvertedIndex, Posting, PostingsRef, SuffixTable};
pub use join::{
    candidate_chain, mapreduce_similarity_join_flow, mapreduce_similarity_join_vectors_flow,
    prefix_filter_join, probe_postings, verify_candidates, Probe, SimJoinResult,
};
pub use serving::{ScoredMatch, ServingIndex};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::align::AlignedCorpora;
    pub use crate::baseline::baseline_similarity_join;
    pub use crate::index::{IndexPlan, InvertedIndex, Posting};
    pub use crate::join::{
        mapreduce_similarity_join_flow, mapreduce_similarity_join_vectors_flow, SimJoinResult,
    };
    pub use crate::serving::{ScoredMatch, ServingIndex};
}
