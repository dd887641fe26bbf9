//! The reference generator: the exact prefix-filter join, recall = 1.0 by
//! construction.

use smr_mapreduce::flow::FlowContext;
use smr_simjoin::{mapreduce_similarity_join_vectors_flow, SimJoinResult};
use smr_text::SparseVector;

use crate::CandidateGenerator;

/// Wraps [`mapreduce_similarity_join_vectors_flow`] behind the
/// [`CandidateGenerator`] interface, the call the matching pipeline makes
/// itself.  It is the recall reference: it misses no pair with
/// similarity ≥ σ, so every sketch generator's recall is measured
/// against its edge set.  Going through this type is byte-identical to
/// calling the join directly — it adds nothing and removes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactPrefixJoin;

impl ExactPrefixJoin {
    /// Creates the exact generator.
    pub fn new() -> Self {
        ExactPrefixJoin
    }
}

impl CandidateGenerator for ExactPrefixJoin {
    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        mapreduce_similarity_join_vectors_flow(item_vectors, consumer_vectors, sigma, flow)
    }
}
