//! Property tests for the record codec and the run-file format: arbitrary
//! keys/values round-trip exactly, truncated files are rejected at every
//! cut point, and files stamped with a foreign format version never open.

use proptest::prelude::*;
use smr_storage::{Codec, CodecError, RunReader, RunWriter, StorageError, FORMAT_VERSION};

/// A composite record shaped like real shuffle traffic: a string key plus
/// a structured value with nested variable-size fields.
type Record = (String, (u64, Vec<u32>, Option<i64>));

/// A file in a directory of the test's own (`tag`), removed by
/// [`remove_temp`].
fn temp_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smr-codec-props-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.run"))
}

fn remove_temp(path: &std::path::Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// Strategy for printable-ASCII strings (the shim has no string strategy).
fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..12)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        string_strategy(),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..6),
            (0u32..2, any::<u64>())
                .prop_map(|(tag, v)| if tag == 0 { None } else { Some(v as i64) }),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_records_round_trip_through_the_codec(
        records in proptest::collection::vec(record_strategy(), 0..20),
    ) {
        // Value-level round trip.
        for record in &records {
            let bytes = record.encode_to_vec();
            prop_assert_eq!(&Record::decode_all(&bytes).unwrap(), record);
        }
        // Concatenated stream round trip (records decode back-to-back the
        // way run frames and struct fields embed them).
        let mut stream = Vec::new();
        for record in &records {
            record.encode(&mut stream);
        }
        let mut input = &stream[..];
        for record in &records {
            prop_assert_eq!(&Record::decode(&mut input).unwrap(), record);
        }
        prop_assert!(input.is_empty());
    }

    #[test]
    fn truncated_encodings_never_decode_silently(
        record in record_strategy(),
        cut_fraction in 0u32..1000,
    ) {
        let bytes = record.encode_to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = (cut_fraction as usize * bytes.len() / 1000).min(bytes.len() - 1);
        // Decoding a strict prefix must fail: either mid-value EOF, or (if
        // the prefix happens to decode) decode_all flags the missing tail
        // as a short read of the *outer* value. Both are CodecErrors.
        match Record::decode_all(&bytes[..cut]) {
            Err(CodecError::UnexpectedEof { .. }) | Err(CodecError::InvalidData(_)) => {}
            Ok(value) => {
                // A prefix may only decode to the same value if the cut
                // removed zero meaningful bytes — impossible for a strict
                // prefix of a canonical encoding.
                prop_assert!(false, "prefix of len {cut} decoded to {value:?}");
            }
        }
    }

    #[test]
    fn run_files_round_trip_and_reject_truncation(
        records in proptest::collection::vec(record_strategy(), 1..12),
        cut_fraction in 0u32..1000,
    ) {
        let path = temp_file("prop-truncate");
        let mut writer: RunWriter<Record> = RunWriter::create(&path).unwrap();
        for r in &records {
            writer.push(r).unwrap();
        }
        writer.finish().unwrap();

        // Intact file round-trips.
        let reader: RunReader<Record> = RunReader::open(&path).unwrap();
        reader.check_type().unwrap();
        prop_assert_eq!(reader.read_to_end().unwrap(), records.clone());

        // Any strict prefix is rejected somewhere: at open (header cut) or
        // while streaming records (frame cut).
        let bytes = std::fs::read(&path).unwrap();
        let cut = (cut_fraction as usize * bytes.len() / 1000).min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let failed = match RunReader::<Record>::open(&path) {
            Err(_) => true,
            Ok(mut reader) => loop {
                match reader.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            },
        };
        prop_assert!(failed, "truncation at {cut}/{} went unnoticed", bytes.len());
        remove_temp(&path);
    }

    #[test]
    fn foreign_format_versions_are_rejected(version in 0u32..u16::MAX as u32 + 1) {
        let version = version as u16;
        if version == FORMAT_VERSION {
            return Ok(());
        }
        let path = temp_file("prop-version");
        let mut writer: RunWriter<u64> = RunWriter::create(&path).unwrap();
        writer.push(&42).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        match RunReader::<u64>::open(&path) {
            Err(StorageError::VersionMismatch { found, expected }) => {
                prop_assert_eq!(found, version);
                prop_assert_eq!(expected, FORMAT_VERSION);
            }
            other => prop_assert!(false, "expected VersionMismatch, got {other:?}"),
        }
        remove_temp(&path);
    }
}
