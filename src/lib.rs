//! Facade crate for the reproduction of "Social Content Matching in
//! MapReduce" (VLDB 2011).
//!
//! Re-exports the workspace crates under a single name so that examples and
//! downstream users can depend on one package:
//!
//! * [`mapreduce`] — the in-process MapReduce engine,
//! * [`graph`] — bipartite item/consumer graphs, capacities and matchings,
//! * [`text`] — vector-space representation (tokenization, tf·idf),
//! * [`simjoin`] — prefix-filtering similarity join building candidate
//!   edges, the pipeline's one candidate stage,
//! * [`sketch`] — DISCO sampling and MinHash/LSH banding, measured
//!   against the exact join by the repo benchmark's recall lanes and
//!   reachable from no pipeline option (see `docs/sketch.md`),
//! * [`matching`] — the paper's algorithms: GreedyMR, StackMR,
//!   StackGreedyMR, centralized greedy/stack and an exact solver,
//! * [`datagen`] — synthetic dataset generators standing in for the paper's
//!   flickr and Yahoo! Answers crawls,
//! * [`storage`] — the out-of-core layer: binary record codec, spill-run
//!   files, the spill manager and shard manifests,
//! * [`distrib`] — multi-process sharded execution: a coordinator that
//!   splits each job's map phase across worker OS processes exchanging
//!   run files, with supervision and byte-identical output (see
//!   `docs/distrib.md`).
//!
//! The end-to-end chain — tokenize, similarity-join, assign capacities,
//! match — is packaged as the [`MatchingPipeline`] builder ([`pipeline`]),
//! which runs every MapReduce job of every stage through one
//! [`mapreduce::FlowContext`] and reports them in one
//! [`mapreduce::FlowReport`].  For the online counterpart — a standing
//! index answering point queries as items arrive, with an incremental
//! capacity-aware assignment — use [`MatchingPipeline::serve`]
//! ([`serving`]).

pub use smr_datagen as datagen;
pub use smr_distrib as distrib;
pub use smr_graph as graph;
pub use smr_mapreduce as mapreduce;
pub use smr_matching as matching;
pub use smr_simjoin as simjoin;
pub use smr_sketch as sketch;
pub use smr_storage as storage;
pub use smr_text as text;

pub mod pipeline;
pub mod serving;

pub use pipeline::{CandidateGraph, MatchingPipeline, PipelineRun};
pub use serving::{ItemAssignment, ServingPipeline};
