//! The file-backed named dataset store — the HDFS stand-in.
//!
//! In a [`DatasetStore`] every dataset is one run file (see
//! [`crate::run`]) whose header carries the record type's name, so reading
//! a dataset back at the wrong type is a typed
//! [`StorageError::TypeMismatch`] instead of garbage.  Dataset names map
//! to file names by percent-encoding, so names like `iteration-0/graph`
//! work unchanged.

use std::path::{Path, PathBuf};

use crate::codec::Codec;
use crate::run::{RunReader, RunWriter, StorageError};

/// File extension of stored datasets.
const EXT: &str = "smrkv";

/// Encodes a dataset name into a single safe file stem.
fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => {
                out.push(byte as char);
            }
            other => {
                out.push('%');
                out.push_str(&format!("{other:02X}"));
            }
        }
    }
    out
}

/// Decodes a file stem back into the dataset name.
fn decode_name(stem: &str) -> Option<String> {
    let mut out = Vec::with_capacity(stem.len());
    let bytes = stem.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = stem.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A directory of named, individually typed datasets.
#[derive(Debug, Clone)]
pub struct DatasetStore {
    root: PathBuf,
}

impl DatasetStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DatasetStore { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_for(&self, name: &str) -> PathBuf {
        self.root.join(format!("{}.{EXT}", encode_name(name)))
    }

    /// Writes (or replaces) the dataset at `name`.
    ///
    /// The replacement is written to a temporary file and renamed over the
    /// target, so a crash or I/O failure mid-write leaves the previous
    /// dataset intact instead of truncated.
    pub fn write<R: Codec>(&self, name: &str, records: &[R]) -> Result<(), StorageError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".{}.{}-{}.tmp",
            encode_name(name),
            std::process::id(),
            WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let result = (|| {
            let mut writer: RunWriter<R> = RunWriter::create(&tmp)?;
            for record in records {
                writer.push(record)?;
            }
            writer.finish()?;
            std::fs::rename(&tmp, self.file_for(name))?;
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Appends records to the dataset at `name`, creating it if missing.
    /// The existing records must have been written with the same type.
    ///
    /// Frames are appended to the existing file in place (the record count
    /// is patched last), so the cost is proportional to the *new* records,
    /// not to the dataset.
    pub fn append<R: Codec>(&self, name: &str, records: &[R]) -> Result<(), StorageError> {
        if !self.exists(name) {
            return self.write(name, records);
        }
        // Validates the header and the stored record type before touching
        // the file.
        self.open_reader::<R>(name)?;
        let mut writer: RunWriter<R> = RunWriter::append_to(self.file_for(name))?;
        for record in records {
            writer.push(record)?;
        }
        writer.finish()?;
        Ok(())
    }

    /// Reads the dataset at `name`, verifying the stored type tag.
    pub fn read<R: Codec>(&self, name: &str) -> Result<Vec<R>, StorageError> {
        let reader = self.open_reader::<R>(name)?;
        reader.read_to_end()
    }

    /// Opens a streaming reader over the dataset at `name`, verifying the
    /// stored type tag.
    fn open_reader<R: Codec>(&self, name: &str) -> Result<RunReader<R>, StorageError> {
        let path = self.file_for(name);
        if !path.exists() {
            return Err(StorageError::Missing {
                name: name.to_string(),
            });
        }
        let reader: RunReader<R> = RunReader::open(&path)?;
        reader.check_type()?;
        Ok(reader)
    }

    /// Whether a dataset exists at `name`.
    pub fn exists(&self, name: &str) -> bool {
        self.file_for(name).exists()
    }

    /// Removes the dataset at `name`, returning whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        std::fs::remove_file(self.file_for(name)).is_ok()
    }

    /// All dataset names currently stored, sorted.
    pub fn paths(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                    return None;
                }
                decode_name(path.file_stem()?.to_str()?)
            })
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DatasetStore {
        let root =
            std::env::temp_dir().join(format!("smr-dataset-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        DatasetStore::open(root).unwrap()
    }

    #[test]
    fn name_encoding_round_trips_awkward_names() {
        for name in [
            "plain",
            "iteration-0/graph",
            "with space",
            "per%cent",
            "unicode-é",
            "..",
        ] {
            let encoded = encode_name(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'%')),
                "{encoded}"
            );
            assert!(!encoded.contains('/'));
            assert_eq!(decode_name(&encoded).as_deref(), Some(name));
        }
    }

    #[test]
    fn write_read_round_trips_with_type_checking() {
        let store = temp_store("rw");
        let records: Vec<(String, u64)> = vec![("a".into(), 1), ("b".into(), 2)];
        store.write("iteration-0/graph", &records).unwrap();
        assert!(store.exists("iteration-0/graph"));
        assert_eq!(
            store.read::<(String, u64)>("iteration-0/graph").unwrap(),
            records
        );

        // Wrong type: typed error, not an empty vector.
        match store.read::<(u64, u64)>("iteration-0/graph") {
            Err(StorageError::TypeMismatch { stored, requested }) => {
                assert!(stored.contains("String"), "{stored}");
                assert!(requested.contains("u64"), "{requested}");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
        // Missing path: typed error.
        assert!(matches!(
            store.read::<u64>("nope"),
            Err(StorageError::Missing { .. })
        ));
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn append_is_incremental_type_checked_and_leaves_no_temp_files() {
        let store = temp_store("append");
        store.write("log", &[("a".to_string(), 1u64)]).unwrap();
        store
            .append("log", &[("b".to_string(), 2u64), ("c".to_string(), 3)])
            .unwrap();
        assert_eq!(
            store.read::<(String, u64)>("log").unwrap(),
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 3)
            ]
        );
        // Appending at the wrong type is a typed error, not corruption.
        assert!(matches!(
            store.append::<(u64, u64)>("log", &[(1, 1)]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert_eq!(store.read::<(String, u64)>("log").unwrap().len(), 3);
        // Atomic writes go through temp files; none may remain.
        store.write("log", &[("z".to_string(), 9u64)]).unwrap();
        let leftovers = std::fs::read_dir(store.root())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn append_truncates_debris_from_a_crashed_append() {
        let store = temp_store("debris");
        store.write("state", &[1u64, 2]).unwrap();
        // Simulate a crash mid-append: partial frame bytes past the
        // committed count.
        let file = store.root().join(format!("{}.{EXT}", encode_name("state")));
        let mut bytes = std::fs::read(&file).unwrap();
        bytes.extend_from_slice(&[7, 0, 0]);
        std::fs::write(&file, bytes).unwrap();
        // The file still reads at its committed count…
        assert_eq!(store.read::<u64>("state").unwrap(), vec![1, 2]);
        // …and the next append clears the debris and lands cleanly.
        store.append("state", &[3u64]).unwrap();
        assert_eq!(store.read::<u64>("state").unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn paths_and_remove_cover_encoded_names() {
        let store = temp_store("paths");
        store.write("b/nested", &[1u8]).unwrap();
        store.write("a", &[2u8, 3]).unwrap();
        assert_eq!(store.paths(), vec!["a".to_string(), "b/nested".to_string()]);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert!(store.remove("b/nested"));
        assert!(store.paths().is_empty());
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
