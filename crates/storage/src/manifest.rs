//! The shard manifest: how a worker process hands its map output to
//! the coordinator.
//!
//! In the sharded multi-process runtime (`smr_distrib`, see
//! `docs/distrib.md`) a worker runs the map + spill path over
//! its slice of a job's map tasks and leaves the per-partition sorted
//! runs behind as ordinary run files.  The [`ShardManifest`] is the
//! *commit record* for that work: one small file naming every run the
//! worker produced (`(partition, task, seq)` → file, so the coordinator
//! can merge them in exactly the order the in-process engine would),
//! carrying the worker's counter deltas, and identifying the job the
//! worker believes it executed so the coordinator can detect lockstep
//! divergence.
//!
//! The encoding is deliberately defensive — the coordinator reads
//! manifests written by processes that may have been killed mid-write:
//!
//! ```text
//! "SMRM" | version u16 | payload_len u64 | payload | fnv1a64(payload)
//! ```
//!
//! * a **length prefix** so a short file is rejected as truncated before
//!   any payload decoding,
//! * a trailing **FNV-1a checksum** over the payload so a torn or
//!   corrupted write is rejected rather than half-decoded,
//! * a **format version** so a manifest written by a different build is
//!   rejected as [`StorageError::VersionMismatch`] (the shard is then
//!   simply re-executed).
//!
//! Everything is little-endian, like the run-file format.

use std::path::Path;

use crate::codec::Codec;
use crate::impl_codec_struct;
use crate::run::StorageError;

/// Magic bytes identifying a shard manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"SMRM";

/// Version of the manifest format this build reads and writes.
pub const MANIFEST_VERSION: u16 = 1;

/// Manifests cannot plausibly exceed this size; a larger length prefix is
/// treated as corruption instead of allocating it.
const MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// One sorted run the worker produced: which reduce `partition` it belongs
/// to, which map `task` emitted it, and its spill sequence number (`seq`,
/// `u64::MAX` for the task's final in-memory run, matching the engine's
/// `(task, seq)` merge ordering).  `file` is the run file's name inside
/// the worker's attempt directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRun {
    /// Reduce partition the run belongs to.
    pub partition: u64,
    /// Map task that emitted the run.
    pub task: u64,
    /// Spill sequence within the task; `u64::MAX` = final in-memory run.
    pub seq: u64,
    /// Run file name, relative to the manifest's directory.
    pub file: String,
    /// Records in the run (the run header agrees; duplicated here so the
    /// coordinator can size its merge without opening every file).
    pub records: u64,
    /// Encoded bytes of the run file.
    pub bytes: u64,
}

impl_codec_struct!(ManifestRun {
    partition,
    task,
    seq,
    file,
    records,
    bytes
});

/// The commit record one worker writes after finishing its map slice of
/// one sharded job.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Name of the job the worker executed (lockstep cross-check).
    pub job_name: String,
    /// Sequence number of the job within the sharded session.
    pub job_seq: u64,
    /// The shard this worker owns.
    pub shard: u64,
    /// Total shards in the session.
    pub num_shards: u64,
    /// The worker's spawn attempt (1 = first launch).
    pub attempt: u64,
    /// Input records of the whole job (lockstep cross-check).
    pub input_records: u64,
    /// Map tasks the whole job was split into (lockstep cross-check; the
    /// shard executed only its contiguous slice of them).
    pub num_map_tasks: u64,
    /// Every run the shard produced.
    pub runs: Vec<ManifestRun>,
    /// Counter deltas accumulated during the shard's map phase (built-in
    /// and user counters), to be merged into the coordinator's counter
    /// set.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock microseconds the shard's map phase took.
    pub map_micros: u64,
}

impl_codec_struct!(ShardManifest {
    job_name,
    job_seq,
    shard,
    num_shards,
    attempt,
    input_records,
    num_map_tasks,
    runs,
    counters,
    map_micros
});

/// 64-bit FNV-1a over `bytes` — a dependency-free integrity check, plenty
/// for detecting torn or half-written manifests (crash-consistency, not
/// an adversarial setting).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ShardManifest {
    /// Serializes the manifest: magic, version, length-prefixed payload,
    /// trailing checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_to_vec();
        let mut out = Vec::with_capacity(payload.len() + 22);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out
    }

    /// Decodes a manifest, rejecting bad magic, foreign versions,
    /// truncation and checksum mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let header = 4 + 2 + 8;
        if bytes.len() < header {
            return Err(StorageError::Truncated {
                expected: header as u64,
                found: bytes.len() as u64,
            });
        }
        if bytes[0..4] != MANIFEST_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[0..4]);
            return Err(StorageError::InvalidMagic { found });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != MANIFEST_VERSION {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected: MANIFEST_VERSION,
            });
        }
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[6..14]);
        let payload_len = u64::from_le_bytes(len);
        if payload_len > MAX_PAYLOAD {
            return Err(StorageError::Codec(crate::codec::CodecError::InvalidData(
                format!("manifest payload of {payload_len} bytes"),
            )));
        }
        let expected_total = header as u64 + payload_len + 8;
        if (bytes.len() as u64) < expected_total {
            return Err(StorageError::Truncated {
                expected: expected_total,
                found: bytes.len() as u64,
            });
        }
        let payload = &bytes[header..header + payload_len as usize];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[header + payload_len as usize..expected_total as usize]);
        if u64::from_le_bytes(sum) != fnv1a64(payload) {
            return Err(StorageError::Codec(crate::codec::CodecError::InvalidData(
                "manifest checksum mismatch".to_string(),
            )));
        }
        Ok(ShardManifest::decode_all(payload)?)
    }

    /// Writes the manifest to `path` atomically: the bytes go to a
    /// temporary sibling first and are renamed into place, so a reader
    /// polling for `path` either sees nothing or a complete file (the
    /// checksum still guards against a writer that skips this protocol —
    /// the fault-injection path does exactly that).
    pub fn write_to(&self, path: &Path) -> Result<(), StorageError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a manifest from `path`.
    pub fn read_from(path: &Path) -> Result<Self, StorageError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            job_name: "probe".to_string(),
            job_seq: 3,
            shard: 1,
            num_shards: 4,
            attempt: 2,
            input_records: 1000,
            num_map_tasks: 8,
            runs: vec![
                ManifestRun {
                    partition: 0,
                    task: 2,
                    seq: 0,
                    file: "p00000-t000002-s0.run".to_string(),
                    records: 40,
                    bytes: 512,
                },
                ManifestRun {
                    partition: 1,
                    task: 3,
                    seq: u64::MAX,
                    file: "p00001-t000003-final.run".to_string(),
                    records: 7,
                    bytes: 99,
                },
            ],
            counters: vec![
                ("map_output_records".to_string(), 47),
                ("candidates_pruned".to_string(), 3),
            ],
            map_micros: 1234,
        }
    }

    #[test]
    fn round_trips_through_bytes_and_disk() {
        let m = sample();
        assert_eq!(ShardManifest::from_bytes(&m.to_bytes()).unwrap(), m);

        let dir = std::env::temp_dir().join(format!("smr-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        m.write_to(&path).unwrap();
        assert_eq!(ShardManifest::read_from(&path).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_cut_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = ShardManifest::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let bytes = sample().to_bytes();
        // Flip one bit at every byte offset: magic, version, length,
        // payload and checksum corruption must all surface as errors.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                ShardManifest::from_bytes(&corrupt).is_err(),
                "bit flip at offset {i} must not decode"
            );
        }
    }

    #[test]
    fn foreign_version_is_rejected_as_version_mismatch() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 0xEE;
        match ShardManifest::from_bytes(&bytes) {
            Err(StorageError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 0x00EE);
                assert_eq!(expected, MANIFEST_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_beyond_the_checksum_is_tolerated() {
        // The length prefix bounds the payload; extra bytes after the
        // checksum (e.g. from a recycled buffer) must not break decoding.
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(b"junk");
        assert_eq!(ShardManifest::from_bytes(&bytes).unwrap(), sample());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
