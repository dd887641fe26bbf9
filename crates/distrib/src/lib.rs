//! Multi-process sharded execution for the MapReduce engine.
//!
//! The in-process engine (`smr_mapreduce`) models a Hadoop job faithfully
//! but runs every map task inside one OS process.  This crate adds the
//! missing deployment dimension: a **coordinator** process that partitions
//! each job's map-task space across N **worker processes**, exchanging data
//! exclusively through `smr_storage` run files in a shared session
//! directory — the run format *is* the wire format.
//!
//! # The SPMD lockstep model
//!
//! Mappers capture arbitrary program state (term dictionaries, capacity
//! tables, `Arc`s into side data), so they cannot be serialized and shipped
//! to a worker.  Instead every worker **re-executes the same program**:
//! [`run_sharded`] wraps a closure; as each sharded job begins, the
//! coordinator spawns that job's workers by re-invoking the current
//! executable (`std::process::Command`), and a worker's replay of the
//! closure reconstructs all of that state deterministically, running the
//! session's earlier sharded jobs in process.  Only the map phase of the
//! worker's own job diverges:
//!
//! * a **worker** maps just its contiguous slice of the job's global
//!   map-task index space, exports the resulting sorted runs as run files
//!   plus a length-prefixed, checksummed [`ShardManifest`](smr_storage::ShardManifest),
//!   and exits;
//! * the **coordinator** collects one valid manifest per shard, k-way
//!   merges all shards' runs per reduce partition through the engine's
//!   existing merge machinery, and reduces.
//!
//! Because shards partition the *global task index space* and the merge
//! orders runs by `(task, seq)` exactly as the local engine does, the
//! output is **byte-identical to the in-process engine for any shard
//! count** — the equivalence tests lock this for the full matching
//! pipeline.
//!
//! # Supervision
//!
//! The coordinator gives each shard a per-job deadline (120 s) and a
//! bounded number of spawn attempts (3).  A dead worker, a deadline, or a
//! manifest that fails validation (bad checksum, foreign format version,
//! truncation) kills the attempt and re-executes the shard in a **fresh
//! attempt directory**.  A manifest that validates but *contradicts* the
//! coordinator's own view of the job (name, input size, task count) is a
//! lockstep divergence — a bug, not a fault — and panics.  The
//! fault-injection hook ([`ShardOptions::fail_shard`], or the
//! `SMR_DISTRIB_FAIL` environment variable) makes a chosen shard's worker
//! commit a corrupt manifest and abort on its first attempt at every job,
//! exercising exactly this recovery path in tests.
//!
//! # Example
//!
//! ```no_run
//! use smr_distrib::{run_sharded, ShardOptions};
//! use smr_mapreduce::prelude::*;
//!
//! # struct Tokenize;
//! # impl Mapper for Tokenize {
//! #     type InKey = usize; type InValue = String;
//! #     type OutKey = String; type OutValue = u64;
//! #     fn map(&self, _k: &usize, text: &String, out: &mut Emitter<String, u64>) {
//! #         for w in text.split_whitespace() { out.emit(w.to_string(), 1); }
//! #     }
//! # }
//! # struct Sum;
//! # impl Reducer for Sum {
//! #     type Key = String; type InValue = u64;
//! #     type OutKey = String; type OutValue = u64;
//! #     fn reduce(&self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
//! #         out.emit(k.clone(), vs.iter().sum());
//! #     }
//! # }
//! let counts = run_sharded(ShardOptions::new(4), || {
//!     let job = Job::new(JobConfig::named("word-count").with_process_shards(4));
//!     let input = vec![(0usize, "a b a".to_string())];
//!     job.run(&Tokenize, &Sum, input).output
//! });
//! ```
//!
//! Inside a `#[test]`, pass explicit worker arguments so the re-invoked
//! test binary runs only the calling test:
//! `ShardOptions::new(2).with_worker_args(["--exact", "my_test", "--nocapture"])`.
//!
//! See `docs/distrib.md` for the directory layout, the manifest format and
//! the full protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod coordinator;
mod session;
mod worker;

pub use session::{
    is_worker_process, last_session_stats, run_sharded, SessionStats, ShardOptions, ATTEMPT_ENV,
    DIR_ENV, FAIL_ENV, JOB_ENV, OCCURRENCE_ENV, ROLE_ENV, SESSION_ENV, SHARDS_ENV, SHARD_ENV,
};
