//! An in-process MapReduce execution engine.
//!
//! This crate is the *distributed substrate* for the reproduction of
//! "Social Content Matching in MapReduce" (VLDB 2011).  The paper runs its
//! algorithms on Hadoop; everything the algorithms need from Hadoop is the
//! MapReduce contract itself:
//!
//! ```text
//! map    : <k1, v1>   -> [<k2, v2>]
//! reduce : <k2, [v2]> -> [<k3, v3>]
//! ```
//!
//! plus the shuffle (partition, sort, group) in between, counters, and the
//! ability to chain jobs iteratively while keeping state in a distributed
//! file system.  This crate provides exactly those pieces:
//!
//! * [`Mapper`] and [`Reducer`] traits ([`types`]; every key/value type
//!   also implements the `smr_storage::Codec` binary codec so records can
//!   live on disk),
//! * a parallel [`executor`] with a *streaming, out-of-core* shuffle:
//!   worker threads pull map tasks from a work-stealing [`task_queue`],
//!   hash-partition what they emit ([`partition::hash_partition`]), emit
//!   per-partition sorted runs — spilled to disk when the task outgrows
//!   its share of [`JobConfig::memory_budget`] — and k-way merge them per
//!   reduce partition ([`shuffle`]), streaming disk and in-memory runs
//!   uniformly; all on a pool of worker threads built with `crossbeam`
//!   scoped threads (see `docs/engine.md` for the data flow),
//! * per-job [`counters`] and [`metrics`] (records in/out, groups, bytes
//!   shuffled, wall-clock per phase) so the experiments can report the same
//!   efficiency measures the paper reports (number of MapReduce iterations,
//!   communication cost per round),
//! * rounds over partition-resident state ([`flow::RoundState`]) for the
//!   algorithms that chain many rounds (GreedyMR, StackMR): only notes
//!   cross the shuffle, and the reducer of one round emits the notes of
//!   the next,
//! * one transient directory per [`flow`] ([`FlowContext::side_store`])
//!   holding the round-state partitions that outgrow their share of the
//!   memory budget between rounds.
//!
//! The engine is deliberately faithful to the programming model rather than
//! to the physical deployment: the number of rounds an algorithm needs, the
//! number of records it shuffles, and the degree of available parallelism
//! are properties of the algorithm and are measured exactly as a Hadoop
//! cluster would measure them.
//!
//! # Quick example
//!
//! A word-count job:
//!
//! ```
//! use smr_mapreduce::prelude::*;
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type InKey = usize;          // document id
//!     type InValue = String;       // document text
//!     type OutKey = String;        // word
//!     type OutValue = u64;         // count
//!     fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
//!         for w in text.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type Key = String;
//!     type InValue = u64;
//!     type OutKey = String;
//!     type OutValue = u64;
//!     fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
//!         out.emit(k.clone(), vs.iter().sum());
//!     }
//! }
//!
//! let input = vec![(0usize, "a b a".to_string()), (1usize, "b c".to_string())];
//! let job = Job::new(JobConfig::default().with_name("word-count"));
//! let result = job.run(&Tokenize, &Sum, input);
//! let mut pairs = result.output;
//! pairs.sort();
//! assert_eq!(pairs, vec![
//!     ("a".to_string(), 2),
//!     ("b".to_string(), 2),
//!     ("c".to_string(), 1),
//! ]);
//! ```
//!
//! # Chaining jobs: the `flow` API
//!
//! Multi-job algorithms chain jobs with [`flow::Dataset`] instead of
//! hand-wiring [`Job::run`] calls: each job runs at `reduce_with`, records
//! move between jobs without cloning, and every job reports into one
//! [`flow::FlowReport`].  Reusing the word-count mapper/reducer from above:
//!
//! ```
//! # use smr_mapreduce::prelude::*;
//! # struct Tokenize;
//! # impl Mapper for Tokenize {
//! #     type InKey = usize;
//! #     type InValue = String;
//! #     type OutKey = String;
//! #     type OutValue = u64;
//! #     fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
//! #         for w in text.split_whitespace() {
//! #             out.emit(w.to_string(), 1);
//! #         }
//! #     }
//! # }
//! # struct Sum;
//! # impl Reducer for Sum {
//! #     type Key = String;
//! #     type InValue = u64;
//! #     type OutKey = String;
//! #     type OutValue = u64;
//! #     fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
//! #         out.emit(k.clone(), vs.iter().sum());
//! #     }
//! # }
//! use smr_mapreduce::flow::FlowContext;
//!
//! let flow = FlowContext::named("word-count");
//! let input = vec![(0usize, "a b a".to_string()), (1usize, "b c".to_string())];
//! let counts = flow
//!     .dataset(input)            // the input records
//!     .map_with(Tokenize)        // job 1 mapper...
//!     .reduce_with(Sum)          // ...and reducer: the job runs here
//!     .collect();                // its output records
//! assert_eq!(counts.len(), 3);
//! assert_eq!(flow.report().num_jobs(), 1);
//! assert!(flow.report().total_shuffled_records() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod counters;
pub mod executor;
pub mod flow;
pub mod metrics;
pub mod partition;
pub mod process_shard;
mod round;
mod sharded;
pub mod shuffle;
pub mod task_queue;
pub mod types;

pub use config::JobConfig;
pub use counters::{Counter, Counters};
pub use executor::{Job, JobResult};
pub use flow::{Dataset, FlowContext, FlowError, FlowReport, RoundState};
pub use metrics::{JobMetrics, PhaseTimings};
pub use process_shard::{ProcessShardRuntime, ShardJob, ShardJobCheck, ShardRole};
pub use shuffle::merge_runs;
pub use task_queue::{Task, TaskQueue};
pub use types::{Codec, Emitter, IdentityReducer, Mapper, Reducer, StateReducer};

/// Convenience re-exports for users of the engine.
pub mod prelude {
    pub use crate::config::JobConfig;
    pub use crate::counters::Counters;
    pub use crate::executor::{Job, JobResult};
    pub use crate::flow::{Dataset, FlowContext, FlowError, FlowReport, RoundState};
    pub use crate::metrics::JobMetrics;
    pub use crate::types::{Codec, Emitter, IdentityReducer, Mapper, Reducer, StateReducer};
}
