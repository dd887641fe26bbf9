//! Property tests locking the block-framed (version 2) run format to its
//! contract:
//!
//! - files round-trip byte-identically through writer and reader;
//! - a file whose header carries *any other* version — the retired
//!   unframed version 1 included — is rejected with a clean
//!   [`StorageError::VersionMismatch`] naming the version found, never
//!   misparsed as blocks or surfaced as a decode panic.

use proptest::prelude::*;
use smr_storage::{Codec, RunReader, RunWriter, StorageError, FORMAT_VERSION};
use std::path::{Path, PathBuf};

/// A file in a directory of the test's own (`tag`), removed by
/// [`remove_temp`].
fn temp_path(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smr-run-props-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{case}.run"))
}

fn remove_temp(path: &Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

fn records_from(lens: &[u16]) -> Vec<(u64, String)> {
    lens.iter()
        .enumerate()
        .map(|(i, len)| (i as u64, "x".repeat(*len as usize % 512)))
        .collect()
}

fn write_run(path: &PathBuf, records: &[(u64, String)]) {
    let mut writer: RunWriter<(u64, String)> = RunWriter::create(path).unwrap();
    for record in records {
        writer.push(record).unwrap();
    }
    writer.finish().unwrap();
}

/// A complete file in the retired version-1 layout, byte by byte: the
/// shared header (magic, version, count, length-prefixed type tag)
/// followed directly by `payload_len u32` + payload frames, no blocks.
fn unframed_file(version: u16, records: &[(u64, String)]) -> Vec<u8> {
    let tag = std::any::type_name::<(u64, String)>();
    let mut bytes = b"SMRF".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(tag.len() as u64).to_le_bytes());
    bytes.extend_from_slice(tag.as_bytes());
    for record in records {
        let payload = record.encode_to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn runs_round_trip_identically(
        case in 0u64..u64::MAX,
        lens in proptest::collection::vec(0u16..1024, 0..120),
    ) {
        let records = records_from(&lens);
        let path = temp_path("round-trip", case);
        write_run(&path, &records);
        let reader: RunReader<(u64, String)> = RunReader::open(&path).unwrap();
        prop_assert_eq!(reader.records(), records.len() as u64);
        prop_assert_eq!(reader.read_to_end().unwrap(), records);
        remove_temp(&path);
    }

    #[test]
    fn every_other_version_is_rejected_cleanly(
        case in 0u64..u64::MAX,
        bogus in 0u16..=u16::MAX,
        lens in proptest::collection::vec(0u16..64, 1..10),
    ) {
        let bogus = if bogus == FORMAT_VERSION { 0xbeef } else { bogus };
        // Version 1 is the one wrong version that once was right: its
        // files are well-formed up to the header and must fail there.
        for version in [1, bogus] {
            let path = temp_path("version", case ^ u64::from(version));
            std::fs::write(&path, unframed_file(version, &records_from(&lens))).unwrap();
            let opened = RunReader::<(u64, String)>::open(&path);
            remove_temp(&path);
            match opened {
                Err(StorageError::VersionMismatch { found, expected }) => {
                    prop_assert_eq!(found, version);
                    prop_assert_eq!(expected, FORMAT_VERSION);
                }
                other => prop_assert!(false, "expected VersionMismatch, got {other:?}"),
            }
        }
    }
}
