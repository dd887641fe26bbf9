//! Sorted run files: block-framed record batches behind a versioned
//! header.
//!
//! A *run file* holds a sequence of [`Codec`]-encoded records — in the
//! engine, one sorted run of `(key, value)` pairs spilled by a map task,
//! or one spilled round-state partition.  The on-disk layout (version 2) batches
//! record frames into blocks:
//!
//! ```text
//! ┌──────────────────────────── header ────────────────────────────┐
//! │ magic "SMRF" │ version u16 │ record count u64 │ type tag string │
//! ├──────────────────────────── blocks ────────────────────────────┤
//! │ block_len u32 │ n_records u32 │ frames (≈64 KiB of them) │ ...  │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! where each *frame* is `payload_len u32` followed by the [`Codec`]
//! encoding of one record.  Blocks are the format's hot-path lever: the
//! writer accumulates frames in one reusable buffer and hands the OS
//! ~64 KiB at a time, and the reader slurps a whole block with a single
//! `read_exact` and then decodes straight out of the contiguous buffer —
//! no per-record syscalls, no per-record allocations on either side.
//!
//! All integers are little-endian.  The record count is written as
//! [`COUNT_PENDING`] while the file is open and patched in place by
//! [`RunWriter::finish`], so a crash mid-write leaves a file that
//! [`RunReader`] rejects as truncated instead of silently yielding a
//! prefix.  The type tag records `std::any::type_name` of the record type;
//! readers may check it to reject datasets read back at the wrong type.
//!
//! Files whose header carries any other version — the retired unframed
//! version 1 included — are rejected with a clean
//! [`StorageError::VersionMismatch`] before a single frame is decoded.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::{Codec, CodecError};

/// File magic of every smr_storage file.
pub const MAGIC: [u8; 4] = *b"SMRF";

/// The format version (block-framed) every writer produces and the only
/// one readers accept.
pub const FORMAT_VERSION: u16 = 2;

/// Sentinel record count of a file whose writer has not finished.
pub const COUNT_PENDING: u64 = u64::MAX;

/// Byte offset of the record count inside the header (magic + version).
const COUNT_OFFSET: u64 = (MAGIC.len() + std::mem::size_of::<u16>()) as u64;

/// Frame bytes a writer accumulates before flushing a block.
const BLOCK_TARGET_BYTES: usize = 64 * 1024;

/// An error raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error.
    Io(io::Error),
    /// The file does not start with the smr_storage magic.
    InvalidMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
    /// The file's type tag does not match the requested record type.
    TypeMismatch {
        /// Type tag stored in the file.
        stored: String,
        /// Type the caller asked to decode.
        requested: String,
    },
    /// The file ended before the declared record count was reached (or the
    /// writer never finished).
    Truncated {
        /// Records the header declared.
        expected: u64,
        /// Records actually decodable.
        found: u64,
    },
    /// A record payload failed to decode.
    Codec(CodecError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::InvalidMagic { found } => {
                write!(f, "not an smr_storage file (magic {found:?})")
            }
            StorageError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            StorageError::TypeMismatch { stored, requested } => {
                write!(f, "dataset holds `{stored}`, requested `{requested}`")
            }
            StorageError::Truncated { expected, found } => {
                write!(f, "truncated file: {found} of {expected} records")
            }
            StorageError::Codec(e) => write!(f, "corrupt record: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

/// Writes one run file: header first, then frames batched into blocks.
///
/// Records are encoded directly into the writer's reusable block buffer —
/// no per-record allocation — and the buffer is flushed as one block
/// whenever it passes the ~64 KiB target (and once more on
/// [`RunWriter::finish`] for the partial tail).
///
/// Dropping a writer without calling [`RunWriter::finish`] leaves the
/// record count at [`COUNT_PENDING`], which readers reject — a half-written
/// run can never be mistaken for a complete one.
#[derive(Debug)]
pub struct RunWriter<R> {
    writer: BufWriter<File>,
    path: PathBuf,
    records: u64,
    bytes: u64,
    /// Frames accumulated for the current block.
    block: Vec<u8>,
    /// Records in the current block.
    block_records: u32,
    _marker: PhantomData<fn(&R)>,
}

impl<R: Codec> RunWriter<R> {
    /// Creates the file at `path` and writes the header, tagging the file
    /// with the record type's `type_name`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Self::create_tagged(path, std::any::type_name::<R>())
    }

    /// Creates the file with an explicit type tag.
    pub fn create_tagged(path: impl Into<PathBuf>, type_tag: &str) -> Result<Self, StorageError> {
        let path = path.into();
        let file = File::create(&path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(&MAGIC)?;
        writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
        writer.write_all(&COUNT_PENDING.to_le_bytes())?;
        let mut tag = Vec::new();
        type_tag.to_string().encode(&mut tag);
        writer.write_all(&tag)?;
        Ok(RunWriter {
            writer,
            path,
            records: 0,
            bytes: 0,
            block: Vec::new(),
            block_records: 0,
            _marker: PhantomData,
        })
    }

    /// Appends one record frame, encoding straight into the block buffer.
    pub fn push(&mut self, record: &R) -> Result<(), StorageError> {
        let start = self.block.len();
        self.block.reserve(4 + record.encoded_len());
        self.block.extend_from_slice(&[0u8; 4]);
        record.encode(&mut self.block);
        let payload = self.block.len() - start - 4;
        let len = u32::try_from(payload)
            .ok()
            .filter(|len| *len <= u32::MAX - 8)
            .ok_or_else(|| {
                StorageError::Codec(CodecError::InvalidData(format!(
                    "record of {payload} bytes exceeds the 4 GiB frame limit"
                )))
            })?;
        self.block[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.records += 1;
        self.block_records += 1;
        self.bytes += 4 + u64::from(len);
        if self.block.len() >= BLOCK_TARGET_BYTES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the accumulated block behind its block header and resets the
    /// buffer.
    fn flush_block(&mut self) -> Result<(), StorageError> {
        if self.block_records == 0 {
            return Ok(());
        }
        let block_len = u32::try_from(self.block.len()).map_err(|_| {
            StorageError::Codec(CodecError::InvalidData(format!(
                "block of {} bytes exceeds the 4 GiB limit",
                self.block.len()
            )))
        })?;
        self.writer.write_all(&block_len.to_le_bytes())?;
        self.writer.write_all(&self.block_records.to_le_bytes())?;
        self.writer.write_all(&self.block)?;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frame bytes written so far (file header and block headers excluded).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes (including the partial tail block), patches the record
    /// count into the header and returns a handle describing the completed
    /// run.
    pub fn finish(mut self) -> Result<CompletedRun, StorageError> {
        self.flush_block()?;
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.seek(SeekFrom::Start(COUNT_OFFSET))?;
        file.write_all(&self.records.to_le_bytes())?;
        Ok(CompletedRun {
            path: self.path,
            records: self.records,
            bytes: self.bytes,
        })
    }
}

/// A finished run file: its path plus cheap size accounting.
#[derive(Debug, Clone)]
pub struct CompletedRun {
    /// Where the run lives.
    pub path: PathBuf,
    /// Records in the file.
    pub records: u64,
    /// Frame bytes written (headers excluded).
    pub bytes: u64,
}

/// Streams the records of a run file back, validating the header up front
/// and the record count at the end.
///
/// Files are read a block at a time: one `read_exact` fills the reusable
/// block buffer and records decode from the contiguous slice.
#[derive(Debug)]
pub struct RunReader<R> {
    reader: BufReader<File>,
    type_tag: String,
    expected: u64,
    read: u64,
    /// Bytes of the file left past what has been consumed — bounds every
    /// block before any allocation, so a corrupt length cannot force a
    /// multi-gigabyte `resize`.
    remaining_bytes: u64,
    /// The block records are currently decoded from.
    payload: Vec<u8>,
    /// Read position inside `payload`.
    cursor: usize,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Codec> RunReader<R> {
    /// Opens `path`, validating magic, version and writer completion.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 4];
        read_exact_or_truncated(&mut reader, &mut magic)?;
        if magic != MAGIC {
            return Err(StorageError::InvalidMagic { found: magic });
        }
        let mut version = [0u8; 2];
        read_exact_or_truncated(&mut reader, &mut version)?;
        let version = u16::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let mut count = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut count)?;
        let expected = u64::from_le_bytes(count);
        if expected == COUNT_PENDING {
            return Err(StorageError::Truncated {
                expected: COUNT_PENDING,
                found: 0,
            });
        }
        let mut len = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut len)?;
        let tag_len = usize::try_from(u64::from_le_bytes(len))
            .map_err(|_| StorageError::Codec(CodecError::InvalidData("tag length".into())))?;
        if tag_len > 64 * 1024 {
            return Err(StorageError::Codec(CodecError::InvalidData(format!(
                "type tag of {tag_len} bytes"
            ))));
        }
        let mut tag = vec![0u8; tag_len];
        read_exact_or_truncated(&mut reader, &mut tag)?;
        let type_tag = String::from_utf8(tag)
            .map_err(|e| StorageError::Codec(CodecError::InvalidData(format!("type tag: {e}"))))?;
        let header_len = (MAGIC.len() + 2 + 8 + 8 + tag_len) as u64;
        Ok(RunReader {
            reader,
            type_tag,
            expected,
            read: 0,
            remaining_bytes: file_len.saturating_sub(header_len),
            payload: Vec::new(),
            cursor: 0,
            _marker: PhantomData,
        })
    }

    /// The type tag the writer stored.
    pub fn type_tag(&self) -> &str {
        &self.type_tag
    }

    /// Errors unless the stored type tag equals the record type's
    /// `type_name`.
    pub fn check_type(&self) -> Result<(), StorageError> {
        let requested = std::any::type_name::<R>();
        if self.type_tag != requested {
            return Err(StorageError::TypeMismatch {
                stored: self.type_tag.clone(),
                requested: requested.to_string(),
            });
        }
        Ok(())
    }

    /// Records the header declares.
    pub fn records(&self) -> u64 {
        self.expected
    }

    /// Reads the next record; `Ok(None)` at a clean end of file.
    pub fn next_record(&mut self) -> Result<Option<R>, StorageError> {
        if self.read == self.expected {
            return Ok(None);
        }
        if self.cursor == self.payload.len() {
            self.load_block()?;
        }
        if self.payload.len() - self.cursor < 4 {
            return Err(self.truncated());
        }
        let len = u32::from_le_bytes(
            self.payload[self.cursor..self.cursor + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        self.cursor += 4;
        if self.payload.len() - self.cursor < len {
            return Err(self.truncated());
        }
        let mut slice = &self.payload[self.cursor..self.cursor + len];
        let record = R::decode(&mut slice)?;
        if !slice.is_empty() {
            return Err(StorageError::Codec(CodecError::InvalidData(format!(
                "{} trailing bytes in frame",
                slice.len()
            ))));
        }
        self.cursor += len;
        self.read += 1;
        Ok(Some(record))
    }

    /// Pulls the next block into the reusable buffer with one `read_exact`.
    fn load_block(&mut self) -> Result<(), StorageError> {
        let mut header = [0u8; 8];
        self.read_frame_bytes(&mut header)?;
        let block_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as u64;
        // A block cannot be empty (the writer never flushes one) nor
        // longer than what is left of the file: reject corrupt lengths
        // *before* allocating the block buffer.
        if block_len == 0 || block_len + 8 > self.remaining_bytes {
            return Err(self.truncated());
        }
        self.remaining_bytes -= block_len + 8;
        self.payload.resize(block_len as usize, 0);
        let mut payload = std::mem::take(&mut self.payload);
        let result = self.read_frame_bytes(&mut payload);
        self.payload = payload;
        result?;
        self.cursor = 0;
        Ok(())
    }

    /// Reads the remaining records into a vector.
    pub fn read_to_end(mut self) -> Result<Vec<R>, StorageError> {
        let remaining = usize::try_from(self.expected - self.read).unwrap_or(usize::MAX);
        let cap = read_reserve_cap(remaining, self.remaining_bytes, std::mem::size_of::<R>());
        let mut records = Vec::with_capacity(cap);
        while let Some(record) = self.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    fn truncated(&self) -> StorageError {
        StorageError::Truncated {
            expected: self.expected,
            found: self.read,
        }
    }

    fn read_frame_bytes(&mut self, buf: &mut [u8]) -> Result<(), StorageError> {
        let (expected, read) = (self.expected, self.read);
        self.reader.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StorageError::Truncated {
                    expected,
                    found: read,
                }
            } else {
                StorageError::Io(e)
            }
        })
    }
}

/// How many records [`RunReader::read_to_end`] pre-reserves: bounded by
/// the declared remainder, by what the bytes left on disk could possibly
/// frame (≥ 4 bytes per record), and by a flat byte budget on the
/// *in-memory* size — so a header declaring millions of records, or a
/// wide record type, never over-reserves.  The vector still grows to the
/// true size on demand; only the up-front reservation is capped.
fn read_reserve_cap(remaining_records: usize, remaining_bytes: u64, elem_size: usize) -> usize {
    /// Up-front reservation budget, in in-memory bytes.
    const RESERVE_BYTE_BUDGET: usize = 16 << 20;
    let disk_bound = usize::try_from(remaining_bytes / 4).unwrap_or(usize::MAX);
    let budget_bound = (RESERVE_BYTE_BUDGET / elem_size.max(1)).max(1);
    remaining_records.min(disk_bound).min(budget_bound)
}

impl<R: Codec> Iterator for RunReader<R> {
    type Item = Result<R, StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.expected.saturating_sub(self.read)).unwrap_or(0);
        (remaining, Some(remaining))
    }
}

fn read_exact_or_truncated(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), StorageError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StorageError::Truncated {
                expected: 0,
                found: 0,
            }
        } else {
            StorageError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `name` in a directory of its own, so tests never share one.
    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smr-run-tests-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Removes the directory [`temp_path`] made for `path`.
    fn remove_temp(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = temp_path("round-trip.run");
        let records: Vec<(u32, String)> = (0..100).map(|i| (i, format!("value-{i}"))).collect();
        let mut writer: RunWriter<(u32, String)> = RunWriter::create(&path).unwrap();
        for r in &records {
            writer.push(r).unwrap();
        }
        let run = writer.finish().unwrap();
        assert_eq!(run.records, 100);
        assert!(run.bytes > 0);

        let reader: RunReader<(u32, String)> = RunReader::open(&path).unwrap();
        reader.check_type().unwrap();
        assert_eq!(reader.records(), 100);
        assert_eq!(reader.read_to_end().unwrap(), records);
        remove_temp(&path);
    }

    #[test]
    fn multi_block_runs_round_trip() {
        let path = temp_path("multi-block.run");
        // Each record is ~1 KiB, so 256 of them span several 64 KiB blocks.
        let records: Vec<(u64, String)> = (0..256).map(|i| (i, "x".repeat(1000))).collect();
        let mut writer: RunWriter<(u64, String)> = RunWriter::create(&path).unwrap();
        for r in &records {
            writer.push(r).unwrap();
        }
        writer.finish().unwrap();
        let reader: RunReader<(u64, String)> = RunReader::open(&path).unwrap();
        assert_eq!(reader.read_to_end().unwrap(), records);
        remove_temp(&path);
    }

    #[test]
    fn empty_run_round_trips() {
        let path = temp_path("empty.run");
        let writer: RunWriter<u64> = RunWriter::create(&path).unwrap();
        writer.finish().unwrap();
        let reader: RunReader<u64> = RunReader::open(&path).unwrap();
        assert!(reader.read_to_end().unwrap().is_empty());
        remove_temp(&path);
    }

    #[test]
    fn unfinished_writer_leaves_a_rejected_file() {
        let path = temp_path("unfinished.run");
        {
            let mut writer: RunWriter<u64> = RunWriter::create(&path).unwrap();
            writer.push(&7).unwrap();
            // Dropped without finish(): count stays COUNT_PENDING.
        }
        match RunReader::<u64>::open(&path) {
            Err(StorageError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        remove_temp(&path);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = temp_path("version.run");
        let mut writer: RunWriter<u64> = RunWriter::create(&path).unwrap();
        writer.push(&1).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xfe;
        bytes[5] = 0xca;
        std::fs::write(&path, bytes).unwrap();
        match RunReader::<u64>::open(&path) {
            Err(StorageError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 0xcafe);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        remove_temp(&path);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("magic.run");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(matches!(
            RunReader::<u64>::open(&path),
            Err(StorageError::InvalidMagic { .. })
        ));
        remove_temp(&path);
    }

    #[test]
    fn type_check_rejects_the_wrong_record_type() {
        let path = temp_path("type.run");
        let mut writer: RunWriter<u64> = RunWriter::create(&path).unwrap();
        writer.push(&1).unwrap();
        writer.finish().unwrap();
        let reader: RunReader<(u32, u32)> = RunReader::open(&path).unwrap();
        assert!(matches!(
            reader.check_type(),
            Err(StorageError::TypeMismatch { .. })
        ));
        remove_temp(&path);
    }

    #[test]
    fn corrupt_block_length_is_rejected_before_allocating() {
        let path = temp_path("corrupt-len.run");
        let mut writer: RunWriter<String> = RunWriter::create(&path).unwrap();
        writer.push(&"payload".to_string()).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The first block's length prefix sits right after the header.
        let block_len_at = 4 + 2 + 8 + 8 + std::any::type_name::<String>().len();
        bytes[block_len_at..block_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut reader: RunReader<String> = RunReader::open(&path).unwrap();
        // Must fail with a typed error (never attempt a ~4 GiB resize).
        assert!(matches!(
            reader.next_record(),
            Err(StorageError::Truncated { .. })
        ));
        remove_temp(&path);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let path = temp_path("truncated.run");
        let mut writer: RunWriter<String> = RunWriter::create(&path).unwrap();
        writer.push(&"first".to_string()).unwrap();
        writer.push(&"second".to_string()).unwrap();
        writer.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file anywhere inside the block section: the reader must
        // error (never silently yield a prefix).
        let frames_start = 4 + 2 + 8 + 8 + std::any::type_name::<String>().len();
        for cut in frames_start..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut reader: RunReader<String> = RunReader::open(&path).unwrap();
            let mut failed = false;
            loop {
                match reader.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            assert!(failed, "cut at {cut} silently succeeded");
        }
        remove_temp(&path);
    }

    #[test]
    fn read_to_end_reservation_is_byte_budgeted() {
        // The declared remainder no longer bounds the reservation alone:
        // wide records clamp to the in-memory byte budget, and a lying
        // header clamps to what the file's bytes could possibly frame.
        let cap = read_reserve_cap(usize::MAX, 40, 8);
        assert_eq!(cap, 10, "a 40-byte file frames at most 10 records");
        let wide = read_reserve_cap(1 << 30, u64::MAX, 1 << 16);
        assert_eq!(
            wide,
            (16 << 20) / (1 << 16),
            "wide records hit the byte budget"
        );
        assert_eq!(
            read_reserve_cap(3, u64::MAX, 8),
            3,
            "small reads reserve exactly"
        );
        assert!(
            read_reserve_cap(10, u64::MAX, usize::MAX) >= 1,
            "degenerate sizes still reserve"
        );
    }
}
