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
//! * [`RunWriter`] / [`RunReader`] — sorted spill-run files: length-
//!   prefixed record frames behind a versioned header that records the
//!   format version, the record count (patched on finish, so half-written
//!   files are rejected) and the record type's name.
//! * [`SpillManager`] — owns a job's memory budget and a self-cleaning
//!   temp directory: map tasks whose buffered output outgrows their
//!   budget share spill sorted runs through it, and the directory is
//!   removed when the manager drops.
//! * [`ShardManifest`] — the length-prefixed, checksummed commit record a
//!   sharded worker process leaves beside its run files so the
//!   multi-process runtime (`smr_distrib`) can treat the run format as a
//!   wire format (see `docs/distrib.md`).
//!
//! The crate is deliberately dependency-free (std only) and sits below the
//! engine: `smr_mapreduce` builds its disk-spilling shuffle and its spilled
//! round state on top of these pieces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod manifest;
pub mod run;
pub mod spill;

pub use codec::{Codec, CodecError};
pub use manifest::{ManifestRun, ShardManifest, MANIFEST_VERSION};
pub use run::{CompletedRun, RunReader, RunWriter, StorageError, FORMAT_VERSION};
pub use spill::SpillManager;
