//! Sketch-based candidate generation: approximate alternatives to the
//! exact prefix-filter similarity join, measured against it.
//!
//! The paper's pipeline spends its pre-matching budget producing the
//! candidate-edge graph, and the exact join's probe work grows with the
//! dimension of the data.  This crate abstracts the generation step
//! behind [`CandidateGenerator`] and provides three implementations, all
//! expressed as the same one-job `Dataset` chain over a shared
//! [`FlowContext`] — the driver builds what the probe reads, the probe job
//! verifies:
//!
//! * [`ExactPrefixJoin`] — the existing prefix-filter join, recall = 1.0
//!   by construction; the reference every sketch is measured against.
//! * [`DiscoSampler`] — DISCO-style sampled probing: per-term sampling
//!   probability `min(1, λ/n_t)` caps each term's expected emissions at λ
//!   regardless of its posting-list length (see [`disco`]).
//! * [`LshBander`] — seeded MinHash signatures banded into bucket keys; a
//!   band-bucket join replaces the inverted-index probe (see [`lsh`]).
//!
//! Both sketches verify whatever candidates they surface **exactly**, in
//! their probe mappers with one dot product each against the in-RAM
//! vectors ([`smr_simjoin::Probe::finish`] on a sampled probe,
//! [`smr_simjoin::verify_candidates`]), so those candidates carry true
//! scores: a sketch generator's edge set is always a *subset* of the
//! exact join's, with bit-identical weights on surviving pairs.  What
//! varies is recall and cost, which the repo benchmark's `sketch.*` lanes
//! measure.  No pipeline option selects a sketch: neither met the keep
//! rule (recall ≥ 0.9 at ≤ 0.5× the exact join's verifications on
//! flickr-large), so `MatchingPipeline` calls the exact join directly.
//! All pseudo-randomness is stateless coordinate hashing ([`hash`]), so
//! every generator honours the engine's determinism contract: identical
//! output for any thread count, memory budget or shard layout.
//!
//! # Example
//!
//! ```
//! use smr_sketch::{CandidateGenerator, DiscoSampler, ExactPrefixJoin};
//! use smr_mapreduce::flow::FlowContext;
//! use smr_mapreduce::JobConfig;
//! use smr_text::prelude::*;
//!
//! let items = Corpus::build(
//!     vec![Document::new("q0", "sourdough bread baking")],
//!     &TokenizerConfig::default(),
//! );
//! let consumers = Corpus::build(
//!     vec![Document::new("u0", "I bake sourdough bread every weekend")],
//!     &TokenizerConfig::default(),
//! );
//! let flow = FlowContext::new(JobConfig::named("sketch-doc"));
//! let exact = ExactPrefixJoin::new().generate(&items, &consumers, 0.05, &flow);
//! let disco = DiscoSampler::new(7, 8.0).generate(&items, &consumers, 0.05, &flow);
//! // A sketch's edges are a subset of the exact join's.
//! assert!(disco.graph.num_edges() <= exact.graph.num_edges());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disco;
pub mod exact;
pub mod hash;
pub mod lsh;

use smr_mapreduce::flow::FlowContext;
use smr_simjoin::{AlignedCorpora, SimJoinResult};
use smr_text::{Corpus, SparseVector};

pub use disco::DiscoSampler;
pub use exact::ExactPrefixJoin;
pub use lsh::LshBander;

/// Names of the sketch generators' domain counters, reported in their
/// probe job's [`smr_mapreduce::JobMetrics::user_counters`] alongside the
/// exact join's counters (`smr_simjoin::join::counter`).
pub mod counter {
    /// Posting contributions a [`crate::DiscoSampler`] probe skipped
    /// because their coordinate hash did not clear the term's sampling
    /// probability — the work (and downstream shuffle) the sampler saved.
    pub const SAMPLED_OUT: &str = "disco_sampled_out";
    /// Distinct band buckets a [`crate::LshBander`] run materialized on
    /// the driver for its probe job.
    pub const BAND_BUCKETS: &str = "lsh_band_buckets";
}

/// A candidate-generation strategy: anything that can turn two aligned
/// corpora and a threshold σ into a [`SimJoinResult`] by running jobs on
/// a [`FlowContext`].
///
/// Implementations must uphold two contracts a recall measurement
/// relies on:
///
/// 1. **Soundness** — every emitted edge carries the pair's *exact*
///    similarity and satisfies `weight ≥ σ`.  Sketch generators achieve
///    this by exact verification of whatever candidates they surface, so
///    their edge sets are subsets of [`ExactPrefixJoin`]'s with
///    bit-identical weights (only *recall* may be lost, never precision).
/// 2. **Determinism** — the result is identical for any thread count,
///    memory budget or shard layout, given the generator's own
///    configuration (e.g. its seed).
pub trait CandidateGenerator: std::fmt::Debug + Send + Sync {
    /// Runs the generator on pre-aligned vectors (both sides must share
    /// one term space; see [`AlignedCorpora`]).  Node `i` of either side
    /// of the graph is the input vector at position `i`.
    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult;

    /// Runs the generator on two corpora, aligning their vector spaces
    /// first — the same alignment the exact join applies, so verified
    /// scores are comparable (indeed bit-identical) across generators.
    fn generate(
        &self,
        items: &Corpus,
        consumers: &Corpus,
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        let aligned = AlignedCorpora::of(items, consumers);
        self.generate_vectors(
            aligned.item_vectors(),
            aligned.consumer_vectors(),
            sigma,
            flow,
        )
    }
}

/// Convenience re-exports.
pub mod prelude {
    pub use crate::{CandidateGenerator, DiscoSampler, ExactPrefixJoin, LshBander};
}
