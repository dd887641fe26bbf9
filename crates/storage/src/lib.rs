//! Out-of-core storage for the MapReduce engine.
//!
//! The paper's experiments run at |T|, |C|, |E| scales far beyond what an
//! in-memory shuffle can hold; this crate is the external-memory
//! discipline that makes those tiers reachable:
//!
//! * [`Codec`] — a compact, canonical binary record codec (little-endian,
//!   length-prefixed variable-size fields) with impls for the primitives
//!   and [`impl_codec_struct!`] / [`impl_codec_newtype!`] for user types.
//!   Every key/value type that crosses the engine's shuffle implements it.
//!   A fixed-width type ([`Codec::WIDTH`]: the primitives, tuples of them,
//!   and the structs the macros derive from them, such as the matchers'
//!   adjacency entries and round notes) writes and reads itself into and
//!   out of an exact-size slice, so a `Vec` of it — every matcher's
//!   adjacency list — encodes with one `resize` and decodes after one
//!   bounds test.  A run file frames it like any record, so a frame of
//!   any other length fails to decode.
//! * [`RunWriter`] / [`RunReader`] — sorted spill-run files: length-
//!   prefixed record frames behind a versioned header that records the
//!   format version, the record count (patched on finish, so half-written
//!   files are rejected) and the record type's name.
//! * [`Run`] — a set of sorted records the engine parks between phases:
//!   in RAM with its encoded bytes, or in a run file ([`RunFile`]) that
//!   is removed when the run, or the iterator streaming it, drops.
//!   Spilled map output, round-state partitions and the runs rebuilt
//!   from a shard manifest are all runs.
//! * [`SpillDir`] — the directory file runs live in: created with its
//!   first file, held by every run in it, and removed when its last
//!   holder drops.
//! * [`SpillManager`] — owns a job's memory budget, a [`SpillDir`] and
//!   the spill accounting: map tasks whose buffered output outgrows their
//!   budget share spill sorted runs through it.
//! * [`ShardManifest`] — the length-prefixed, checksummed commit record a
//!   sharded worker process leaves beside its run files so the
//!   multi-process runtime (`smr_distrib`) can treat the run format as a
//!   wire format (see `docs/distrib.md`).
//!
//! The crate is deliberately dependency-free (std only) and sits below the
//! engine: `smr_mapreduce` builds its disk-spilling shuffle and its
//! round state on these pieces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod manifest;
pub mod run;
pub mod spill;

pub use codec::{Codec, CodecError};
pub use manifest::{ManifestRun, ShardManifest, MANIFEST_VERSION};
pub use run::{CompletedRun, RunReader, RunWriter, StorageError, FORMAT_VERSION};
pub use spill::{Run, RunFile, RunIter, SpillDir, SpillManager};
