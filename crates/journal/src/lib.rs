//! Durable append-only journal for the adaptation subsystem.
//!
//! A process crash must not cost the predictor its learned state: labelled
//! checkpoints, model-generation publishes, threshold re-derivations and
//! discovered partitions are appended here *before* they mutate in-memory
//! state, so a restart can replay the log and resume where the dead
//! process stopped — and an offline reader can re-run the recorded stream
//! under a different policy ("what-if" analysis).
//!
//! # On-disk format
//!
//! A journal is a directory of numbered segment files
//! (`segment-00000000.ajl`, `segment-00000001.ajl`, …). Each segment
//! starts with a 16-byte header:
//!
//! ```text
//! [magic "AJL1": 4][format version: u32 LE][first seq: u64 LE]
//! ```
//!
//! followed by length-prefixed frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][seq: u64 LE][payload: len − 8 bytes]
//! ```
//!
//! `len` covers the seq and payload; the CRC-32 (IEEE) likewise. Sequence
//! numbers are strictly monotone across segments — a reader rejects any
//! out-of-order frame as corruption. Writes are appended with **batched
//! fsync** (every [`JournalOptions::fsync_every`] records, plus on
//! rotation and explicit [`Journal::sync`]); a crash can therefore lose a
//! bounded tail, never tear the middle. On open, the writer scans the last
//! segment and **truncates a torn tail** (a partial frame or one whose CRC
//! fails) before resuming, so appends always start at a clean frame
//! boundary.
//!
//! Every reader — [`Journal::read`], [`Journal::open`] and the first pass
//! of [`Journal::compact`] — goes through one frame walker. It streams
//! each segment through a buffered reader and one reusable frame buffer,
//! and checks every frame the same way: the length bound, the CRC,
//! strictly increasing sequence numbers and a payload that decodes.
//!
//! # Compaction
//!
//! [`Journal::compact`] rewrites the log past the sliding-buffer horizon:
//! the newest `keep_rows_per_class` checkpoint rows per class survive
//! (whole batches, so replay semantics are preserved), every
//! non-checkpoint record survives, original sequence numbers are kept, and
//! the old segments are deleted. It runs in two passes:
//!
//! 1. The walker checks every frame and keeps one fixed-size index entry
//!    per frame (sequence number, class id, row count; the class names are
//!    interned once). Each frame's decoded record is dropped before the
//!    next frame is read. The row budget runs backwards over the index.
//! 2. The kept frames are copied byte for byte into the new segment
//!    through the same kind of frame buffer, their CRCs checked again on
//!    the way. Sequence numbers are kept, so every frame and its CRC are
//!    unchanged.
//!
//! Compaction therefore holds at most one frame (and, in pass 1, that
//! frame's decoded record) plus one 16-byte index entry and one keep flag
//! per frame — never a decoded log, a record clone, a re-encoded frame or
//! a whole segment.
//!
//! # Commit protocol
//!
//! A new segment — compaction output, a rotation's next segment, a fresh
//! journal's first — is written whole under a temporary name
//! (`segment-NNNNNNNN.ajl.tmp`), synced, then renamed into place and the
//! directory synced. A reader therefore never sees a partial header or a
//! partial compaction output, and readers ignore temporary files.
//!
//! Compaction output starts at an older sequence number than the
//! segments it replaces end at. So a segment whose header `first_seq` is
//! not after the sequence numbers before it, and whose first frame
//! carries that `first_seq`, **supersedes every lower-numbered segment**:
//! [`Journal::read`] skips the superseded segments, and [`Journal::open`]
//! deletes them and any stray temporary file. A crash, or a concurrent
//! reader, between the rename and the deletion of the old segments thus
//! sees exactly the compacted log. A segment listed by a reader that
//! vanishes before the reader opens it (a compaction deleted it) makes
//! the reader list the directory again.
//!
//! The crate is dependency-free (like `aging-obs`) and knows nothing about
//! the adaptation types: records carry plain strings and floats, and the
//! `aging-adapt` replay layer owns the mapping back to pipelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"AJL1";
/// On-disk format version written into every segment header.
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of the per-segment header (`magic ⊕ version ⊕ first_seq`).
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Upper bound on one frame's `len` field — anything larger is corruption,
/// not a record (guards the reader against allocating garbage lengths).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

const SEGMENT_PREFIX: &str = "segment-";
const SEGMENT_SUFFIX: &str = ".ajl";
/// Suffix of a segment being written, before it is renamed into place.
const TEMP_SUFFIX: &str = ".ajl.tmp";
/// Bytes of a frame's `[len][crc]` prefix.
const FRAME_PREFIX_LEN: usize = 8;
/// Read buffer of the frame walker.
const READ_BUFFER: usize = 64 * 1024;
/// How often one walk lists the directory again after a listed segment
/// vanished under a concurrent compaction.
const MAX_RELISTS: usize = 16;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8, tables built at compile time.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the byte-at-a-time table. `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` is followed by `k` zero bytes, so eight
/// lookups fold eight input bytes at once (slicing-by-8: Kounavis & Berry,
/// ISCC 2005).
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One labelled checkpoint row as journaled — the feature vector and label
/// an adaptation pipeline would buffer, stripped of in-memory-only state.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCheckpoint {
    /// Monitoring feature row (order fixed by the deployment's feature set).
    pub features: Vec<f64>,
    /// Retrospective time-to-failure label in seconds.
    pub ttf_secs: f64,
    /// The TTF the serving model predicted for this row, when recorded.
    pub predicted_ttf_secs: Option<f64>,
    /// Generation of the model snapshot that made the prediction.
    pub predicted_generation: Option<u64>,
    /// Monitor-only rows feed drift detection but never the training buffer.
    pub monitor_only: bool,
}

/// One journaled event. `Checkpoints` preserves batch granularity because
/// replay must re-run `AdaptationPipeline::ingest` per *batch* (the retrain
/// gate fires once per batch) to reproduce state bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// One ingested checkpoint batch, journaled before it is buffered.
    Checkpoints {
        /// Service class the batch was routed to.
        class: String,
        /// The batch's rows, in ingest order.
        rows: Vec<JournalCheckpoint>,
    },
    /// A model generation was published for `class`.
    GenerationPublished {
        /// Publishing service class.
        class: String,
        /// The generation counter after the publish.
        generation: u64,
    },
    /// A threshold policy re-derived the operating thresholds for `class`.
    ThresholdsRederived {
        /// Service class whose thresholds moved.
        class: String,
        /// The re-derived drift error threshold (seconds).
        error_threshold_secs: f64,
        /// The re-derived predictive-rejuvenation trigger, when derived.
        rejuvenation_threshold_secs: Option<f64>,
    },
    /// A class was registered with the router (discovery split).
    ClassRegistered {
        /// The newly registered class.
        class: String,
    },
    /// A class was retired into a merge target (discovery merge).
    ClassRetired {
        /// The retired class.
        class: String,
        /// The class that absorbed its buffer.
        into: String,
    },
    /// A discovery round re-assigned the fleet partition.
    PartitionAssigned {
        /// Monotone partition version (discovery round counter).
        version: u64,
        /// `(instance, class)` assignment pairs, in spec order.
        assignment: Vec<(String, String)>,
    },
    /// An instance joined the fleet (initial roster, scripted join, or
    /// autoscale spawn).
    InstanceJoined {
        /// Joining instance name.
        instance: String,
        /// Service class the instance joined under.
        class: String,
        /// Fleet epoch at which the instance became live.
        epoch: u64,
    },
    /// An instance left the fleet — aged out of its simulated horizon, or
    /// was retired early by a churn plan.
    InstanceRetired {
        /// Retiring instance name.
        instance: String,
        /// Fleet epoch at which the instance retired.
        epoch: u64,
        /// Whether a churn plan forced the retire (vs. aging out).
        forced: bool,
    },
}

impl JournalRecord {
    /// The service class the record belongs to, when it has one.
    pub fn class(&self) -> Option<&str> {
        match self {
            JournalRecord::Checkpoints { class, .. }
            | JournalRecord::GenerationPublished { class, .. }
            | JournalRecord::ThresholdsRederived { class, .. }
            | JournalRecord::ClassRegistered { class }
            | JournalRecord::ClassRetired { class, .. }
            | JournalRecord::InstanceJoined { class, .. } => Some(class),
            JournalRecord::PartitionAssigned { .. } | JournalRecord::InstanceRetired { .. } => None,
        }
    }

    /// Checkpoint rows carried by the record (0 for state records).
    pub fn rows(&self) -> u64 {
        match self {
            JournalRecord::Checkpoints { rows, .. } => rows.len() as u64,
            _ => 0,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            JournalRecord::Checkpoints { .. } => 1,
            JournalRecord::GenerationPublished { .. } => 2,
            JournalRecord::ThresholdsRederived { .. } => 3,
            JournalRecord::ClassRegistered { .. } => 4,
            JournalRecord::ClassRetired { .. } => 5,
            JournalRecord::PartitionAssigned { .. } => 6,
            JournalRecord::InstanceJoined { .. } => 7,
            JournalRecord::InstanceRetired { .. } => 8,
        }
    }

    /// Encodes the record payload (everything after the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the record payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            JournalRecord::Checkpoints { class, rows } => {
                put_str(out, class);
                put_u32(out, rows.len() as u32);
                for row in rows {
                    put_u32(out, row.features.len() as u32);
                    for &f in &row.features {
                        put_f64(out, f);
                    }
                    put_f64(out, row.ttf_secs);
                    put_opt_f64(out, row.predicted_ttf_secs);
                    put_opt_u64(out, row.predicted_generation);
                    out.push(row.monitor_only as u8);
                }
            }
            JournalRecord::GenerationPublished { class, generation } => {
                put_str(out, class);
                put_u64(out, *generation);
            }
            JournalRecord::ThresholdsRederived {
                class,
                error_threshold_secs,
                rejuvenation_threshold_secs,
            } => {
                put_str(out, class);
                put_f64(out, *error_threshold_secs);
                put_opt_f64(out, *rejuvenation_threshold_secs);
            }
            JournalRecord::ClassRegistered { class } => put_str(out, class),
            JournalRecord::ClassRetired { class, into } => {
                put_str(out, class);
                put_str(out, into);
            }
            JournalRecord::PartitionAssigned { version, assignment } => {
                put_u64(out, *version);
                put_u32(out, assignment.len() as u32);
                for (instance, class) in assignment {
                    put_str(out, instance);
                    put_str(out, class);
                }
            }
            JournalRecord::InstanceJoined { instance, class, epoch } => {
                put_str(out, instance);
                put_str(out, class);
                put_u64(out, *epoch);
            }
            JournalRecord::InstanceRetired { instance, epoch, forced } => {
                put_str(out, instance);
                put_u64(out, *epoch);
                out.push(*forced as u8);
            }
        }
    }

    /// Decodes a record payload previously produced by [`encode`].
    ///
    /// [`encode`]: JournalRecord::encode
    pub fn decode(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
        let mut c = Cursor { bytes: payload, pos: 0 };
        let tag = c.u8()?;
        let record = match tag {
            1 => {
                let class = c.string()?;
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let dims = c.u32()? as usize;
                    let mut features = Vec::with_capacity(dims.min(4096));
                    for _ in 0..dims {
                        features.push(c.f64()?);
                    }
                    rows.push(JournalCheckpoint {
                        features,
                        ttf_secs: c.f64()?,
                        predicted_ttf_secs: c.opt_f64()?,
                        predicted_generation: c.opt_u64()?,
                        monitor_only: c.u8()? != 0,
                    });
                }
                JournalRecord::Checkpoints { class, rows }
            }
            2 => JournalRecord::GenerationPublished { class: c.string()?, generation: c.u64()? },
            3 => JournalRecord::ThresholdsRederived {
                class: c.string()?,
                error_threshold_secs: c.f64()?,
                rejuvenation_threshold_secs: c.opt_f64()?,
            },
            4 => JournalRecord::ClassRegistered { class: c.string()? },
            5 => JournalRecord::ClassRetired { class: c.string()?, into: c.string()? },
            6 => {
                let version = c.u64()?;
                let n = c.u32()? as usize;
                let mut assignment = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let instance = c.string()?;
                    let class = c.string()?;
                    assignment.push((instance, class));
                }
                JournalRecord::PartitionAssigned { version, assignment }
            }
            7 => JournalRecord::InstanceJoined {
                instance: c.string()?,
                class: c.string()?,
                epoch: c.u64()?,
            },
            8 => JournalRecord::InstanceRetired {
                instance: c.string()?,
                epoch: c.u64()?,
                forced: c.u8()? != 0,
            },
            other => return Err(DecodeError(format!("unknown record tag {other}"))),
        };
        if c.pos != payload.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after record",
                payload.len() - c.pos
            )));
        }
        Ok(record)
    }
}

/// A record payload failed to decode (corruption past the CRC, or a
/// foreign/newer format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal record decode failed: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DecodeError(format!("record truncated at byte {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        Ok(if self.u8()? != 0 { Some(self.f64()?) } else { None })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.u8()? != 0 { Some(self.u64()?) } else { None })
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("non-UTF-8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Tunables for the journal writer.
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// `fsync` after this many appended records (1 = every append; the
    /// batching bound on how many records a crash can lose).
    pub fsync_every: u64,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions { fsync_every: 64, segment_max_bytes: 8 * 1024 * 1024 }
    }
}

/// Counters describing a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records surviving into the compacted segment.
    pub kept_records: u64,
    /// Records dropped (checkpoint batches past the horizon).
    pub dropped_records: u64,
    /// Checkpoint rows surviving.
    pub kept_rows: u64,
    /// Checkpoint rows dropped.
    pub dropped_rows: u64,
}

struct WriterState {
    file: File,
    segment: u64,
    bytes: u64,
    next_seq: u64,
    unsynced: u64,
    appended: u64,
    rotations: u64,
    fsyncs: u64,
}

/// A durable, thread-safe journal writer over a segment directory.
///
/// Cloning is by `Arc`: wrap it once and share the handle between the
/// ingest thread (checkpoints), the retrainers (publishes, thresholds) and
/// the fleet leader (partition events) — appends serialise on an internal
/// mutex and every record gets a unique, strictly monotone sequence
/// number.
pub struct Journal {
    dir: PathBuf,
    options: JournalOptions,
    state: Mutex<WriterState>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").field("dir", &self.dir).finish_non_exhaustive()
    }
}

/// Everything a full read of a journal directory yields.
#[derive(Debug)]
pub struct ReadOutcome {
    /// `(seq, record)` pairs in journal order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Bytes of torn tail truncated (logically) from the last segment.
    pub truncated_bytes: u64,
    /// Live segment files scanned (superseded ones not counted).
    pub segments: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `dir` with default
    /// options, truncating any torn tail left by a crash and deleting
    /// segments a committed compaction superseded.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Journal> {
        Journal::open_with(dir, JournalOptions::default())
    }

    /// [`open`](Journal::open) with explicit [`JournalOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: JournalOptions) -> io::Result<Journal> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Only the segment summaries matter here: the frames are checked
        // and dropped.
        let scan = walk(&dir, true, &mut ())?;
        // A compaction committed its output but died before deleting what
        // it replaced, or before renaming its output: finish the clean-up.
        for path in scan.superseded.iter().chain(&scan.temporaries) {
            fs::remove_file(path)?;
        }
        let mut fsyncs = 0;
        let (segment, next_seq) = match scan.segments.last() {
            None => {
                // Fresh journal: create segment 0.
                commit_segment(&dir, 0, 0, &mut fsyncs, |_| Ok(()))?;
                sync_dir(&dir, &mut fsyncs)?;
                (0, 0)
            }
            Some(last) => {
                let next_seq = scan
                    .segments
                    .iter()
                    .flat_map(|s| s.last_seq)
                    .max()
                    .map_or(last.first_seq, |s| s + 1);
                if last.valid_len < last.file_len {
                    // Torn tail: cut the file back to the last clean frame.
                    let mut file = OpenOptions::new().write(true).open(&last.path)?;
                    file.set_len(last.valid_len.max(SEGMENT_HEADER_LEN))?;
                    if last.valid_len < SEGMENT_HEADER_LEN {
                        // Even the header was torn — rewrite it.
                        file.seek(SeekFrom::Start(0))?;
                        file.write_all(&segment_header(next_seq))?;
                    }
                    file.sync_data()?;
                    fsyncs += 1;
                }
                (last.index, next_seq)
            }
        };
        let path = segment_path(&dir, segment);
        let mut file = OpenOptions::new().append(true).open(&path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            dir,
            options,
            state: Mutex::new(WriterState {
                file,
                segment,
                bytes,
                next_seq,
                unsynced: 0,
                appended: 0,
                rotations: 0,
                fsyncs,
            }),
        })
    }

    /// The journal's segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record; returns its sequence number.
    ///
    /// A record whose frame would exceed [`MAX_FRAME_LEN`] is refused with
    /// [`io::ErrorKind::InvalidInput`]: a reader would take it for
    /// corruption.
    pub fn append(&self, record: &JournalRecord) -> io::Result<u64> {
        // The whole frame in one buffer: the `[len][crc][seq]` head is
        // filled in under the lock, once the sequence number is known.
        let mut frame = vec![0; FRAME_PREFIX_LEN + 8];
        record.encode_into(&mut frame);
        let len = u32::try_from(frame.len() - FRAME_PREFIX_LEN)
            .ok()
            .filter(|&len| len <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "record exceeds MAX_FRAME_LEN")
            })?;
        let mut state = self.state.lock().expect("journal writer poisoned");
        let seq = state.next_seq;
        frame[FRAME_PREFIX_LEN..FRAME_PREFIX_LEN + 8].copy_from_slice(&seq.to_le_bytes());
        let crc = crc32(&frame[FRAME_PREFIX_LEN..]);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..FRAME_PREFIX_LEN].copy_from_slice(&crc.to_le_bytes());

        if state.bytes > SEGMENT_HEADER_LEN
            && state.bytes + frame.len() as u64 > self.options.segment_max_bytes
        {
            self.rotate(&mut state)?;
        }
        state.file.write_all(&frame)?;
        state.bytes += frame.len() as u64;
        state.next_seq += 1;
        state.appended += 1;
        state.unsynced += 1;
        if state.unsynced >= self.options.fsync_every {
            state.file.sync_data()?;
            state.fsyncs += 1;
            state.unsynced = 0;
        }
        Ok(seq)
    }

    fn rotate(&self, state: &mut WriterState) -> io::Result<()> {
        state.file.sync_data()?;
        state.fsyncs += 1;
        state.unsynced = 0;
        let next = state.segment + 1;
        state.file =
            commit_segment(&self.dir, next, state.next_seq, &mut state.fsyncs, |_| Ok(()))?;
        state.segment = next;
        state.bytes = SEGMENT_HEADER_LEN;
        state.rotations += 1;
        sync_dir(&self.dir, &mut state.fsyncs)
    }

    /// Forces everything appended so far to disk.
    pub fn sync(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("journal writer poisoned");
        state.file.sync_data()?;
        state.fsyncs += 1;
        state.unsynced = 0;
        Ok(())
    }

    /// Records appended through this handle since open.
    pub fn appended(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").appended
    }

    /// The next sequence number an append would take (== records ever
    /// journaled, across restarts, absent compaction gaps at the head).
    pub fn next_seq(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").next_seq
    }

    /// Segment rotations performed by this handle.
    pub fn rotations(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").rotations
    }

    /// `fsync` calls issued by this handle since open, its own included:
    /// batched appends, [`sync`](Journal::sync), and every data and
    /// directory sync of opening, rotation and compaction (batching
    /// diagnostic).
    pub fn fsyncs(&self) -> u64 {
        self.state.lock().expect("journal writer poisoned").fsyncs
    }

    /// Reads every record under `dir`, tolerating a torn tail on the last
    /// segment (its length is reported in
    /// [`ReadOutcome::truncated_bytes`]). Corruption anywhere else — a bad
    /// CRC mid-log, an out-of-order sequence number, an undecodable
    /// payload — is an error. Safe beside a live writer: segments a
    /// committed compaction superseded are skipped, and a segment deleted
    /// mid-read makes the read start over.
    pub fn read(dir: impl AsRef<Path>) -> io::Result<ReadOutcome> {
        let mut records = Vec::new();
        let scan = walk(dir.as_ref(), false, &mut records)?;
        Ok(ReadOutcome {
            records,
            truncated_bytes: scan.truncated_bytes,
            segments: scan.segments.len() as u64,
        })
    }

    /// Compacts the journal past the sliding-buffer horizon: keeps the
    /// newest checkpoint batches per class totalling at least
    /// `keep_rows_per_class` rows (whole batches — replay granularity),
    /// keeps every non-checkpoint record, preserves original sequence
    /// numbers, copies the kept frames verbatim into a single fresh
    /// segment and deletes the old ones. See the module docs for the two
    /// passes, their memory bound and the commit protocol. An error before
    /// the commit leaves every segment as it was; old segments a failed
    /// deletion leaves behind are superseded, and the next compaction or
    /// open deletes them.
    pub fn compact(&self, keep_rows_per_class: usize) -> io::Result<CompactionStats> {
        let mut state = self.state.lock().expect("journal writer poisoned");
        state.file.sync_data()?;
        state.fsyncs += 1;
        let mut index = FrameIndex::default();
        let scan = walk(&self.dir, false, &mut index)?;

        // Walk backwards budgeting checkpoint rows per class.
        let mut used = vec![0u64; index.classes.len()];
        let mut keep = vec![true; index.entries.len()];
        let mut stats =
            CompactionStats { kept_records: 0, dropped_records: 0, kept_rows: 0, dropped_rows: 0 };
        for (entry, keep) in index.entries.iter().zip(&mut keep).rev() {
            let rows = u64::from(entry.rows);
            if entry.class != STATE_RECORD {
                let used = &mut used[entry.class as usize];
                *keep = *used < keep_rows_per_class as u64;
                if *keep {
                    *used += rows;
                }
            }
            if *keep {
                stats.kept_records += 1;
                stats.kept_rows += rows;
            } else {
                stats.dropped_records += 1;
                stats.dropped_rows += rows;
            }
        }
        let first_seq = index
            .entries
            .iter()
            .zip(&keep)
            .find(|(_, &kept)| kept)
            .map_or(state.next_seq, |(entry, _)| entry.seq);

        let next_index = state.segment + 1;
        let mut bytes = SEGMENT_HEADER_LEN;
        let file = commit_segment(&self.dir, next_index, first_seq, &mut state.fsyncs, |out| {
            let mut frames = index.entries.iter().zip(&keep);
            let mut frame = Vec::new();
            for segment in &scan.segments {
                let mut reader = BufReader::with_capacity(READ_BUFFER, File::open(&segment.path)?);
                reader.seek_relative(SEGMENT_HEADER_LEN as i64)?;
                for (entry, &kept) in frames.by_ref().take(segment.frames) {
                    let mut prefix = [0; FRAME_PREFIX_LEN];
                    reader.read_exact(&mut prefix)?;
                    let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes"));
                    if !kept {
                        reader.seek_relative(i64::from(len))?;
                        continue;
                    }
                    frame.clear();
                    frame.extend_from_slice(&prefix);
                    frame.resize(FRAME_PREFIX_LEN + len as usize, 0);
                    reader.read_exact(&mut frame[FRAME_PREFIX_LEN..])?;
                    let body = &frame[FRAME_PREFIX_LEN..];
                    let stored_crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
                    if crc32(body) != stored_crc || body[..8] != entry.seq.to_le_bytes() {
                        return Err(corrupt(
                            &segment.path,
                            format!("frame {} changed while it was compacted", entry.seq),
                        ));
                    }
                    out.write_all(&frame)?;
                    bytes += frame.len() as u64;
                }
            }
            Ok(())
        })?;
        // The compacted segment is committed and supersedes the old ones:
        // point the writer at it, then delete them.
        state.file = file;
        state.bytes = bytes;
        state.segment = next_index;
        state.unsynced = 0;
        sync_dir(&self.dir, &mut state.fsyncs)?;
        for old in scan.superseded.iter().chain(scan.segments.iter().map(|s| &s.path)) {
            fs::remove_file(old)?;
        }
        Ok(stats)
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

fn segment_header(first_seq: u64) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut header = [0; SEGMENT_HEADER_LEN as usize];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[8..].copy_from_slice(&first_seq.to_le_bytes());
    header
}

/// Writes segment `index` whole: its header, then whatever `frames`
/// writes, go to a temporary file that is synced (counted in `fsyncs`)
/// and renamed into place. Returns the segment opened for appending. On an
/// error no segment has changed: the temporary file, or the renamed
/// segment, is removed. The caller points its writer at the segment, then
/// syncs the directory to make the rename durable ([`sync_dir`]).
fn commit_segment(
    dir: &Path,
    index: u64,
    first_seq: u64,
    fsyncs: &mut u64,
    frames: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<File> {
    let path = segment_path(dir, index);
    if path.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{}: segment exists", path.display()),
        ));
    }
    let temp = dir.join(format!("{SEGMENT_PREFIX}{index:08}{TEMP_SUFFIX}"));
    let written = File::create(&temp).and_then(|file| {
        let mut out = BufWriter::new(file);
        out.write_all(&segment_header(first_seq))?;
        frames(&mut out)?;
        out.into_inner().map_err(io::IntoInnerError::into_error)?.sync_data()?;
        *fsyncs += 1;
        Ok(())
    });
    if let Err(e) = written.and_then(|()| fs::rename(&temp, &path)) {
        let _ = fs::remove_file(&temp);
        return Err(e);
    }
    OpenOptions::new().append(true).open(&path).inspect_err(|_| {
        let _ = fs::remove_file(&path);
    })
}

/// Makes the renames in `dir` durable, counting the sync in `fsyncs`.
fn sync_dir(dir: &Path, fsyncs: &mut u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
        *fsyncs += 1;
    }
    #[cfg(not(unix))]
    let _ = (dir, fsyncs);
    Ok(())
}

fn corrupt(path: &Path, what: impl fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {what}", path.display()))
}

// ---------------------------------------------------------------------------
// The frame walker
// ---------------------------------------------------------------------------

/// A live segment as the walker found it.
struct SegmentSummary {
    index: u64,
    path: PathBuf,
    /// Bytes in the file: up to its clean end, or its whole length when
    /// its tail is torn.
    file_len: u64,
    /// Bytes up to the end of the last good frame (0 for a torn header).
    valid_len: u64,
    first_seq: u64,
    last_seq: Option<u64>,
    /// Good frames in the segment.
    frames: usize,
}

/// What one walk over a journal directory found.
struct Scan {
    /// Live segments, in index order.
    segments: Vec<SegmentSummary>,
    /// Segments superseded by compaction output.
    superseded: Vec<PathBuf>,
    /// Temporary files of segments never renamed into place.
    temporaries: Vec<PathBuf>,
    /// Bytes of torn tail on the last segment.
    truncated_bytes: u64,
}

/// Receives the frames a walk checked, in journal order.
trait FrameSink {
    /// The next good frame: sequence number `seq`, decoded as `record`.
    fn frame(&mut self, seq: u64, record: JournalRecord);
    /// Drops every frame received so far: their segments were superseded
    /// by compaction output, or one vanished and the walk starts over.
    fn forget(&mut self);
}

/// [`Journal::read`] keeps every record.
impl FrameSink for Vec<(u64, JournalRecord)> {
    fn frame(&mut self, seq: u64, record: JournalRecord) {
        self.push((seq, record));
    }

    fn forget(&mut self) {
        self.clear();
    }
}

/// [`Journal::open`] needs only the segment summaries.
impl FrameSink for () {
    fn frame(&mut self, _: u64, _: JournalRecord) {}

    fn forget(&mut self) {}
}

/// Compaction's first pass: one fixed-size entry per frame.
#[derive(Default)]
struct FrameIndex {
    entries: Vec<IndexEntry>,
    /// The class names entries point into, each stored once.
    classes: Vec<String>,
}

/// A frame as compaction budgets it.
struct IndexEntry {
    seq: u64,
    /// The batch's class in [`FrameIndex::classes`]; [`STATE_RECORD`] for
    /// a record that is not a checkpoint batch (always kept).
    class: u32,
    rows: u32,
}

const STATE_RECORD: u32 = u32::MAX;

impl FrameSink for FrameIndex {
    fn frame(&mut self, seq: u64, record: JournalRecord) {
        let (class, rows) = match record {
            JournalRecord::Checkpoints { class, rows } => {
                let id = match self.classes.iter().position(|c| *c == class) {
                    Some(id) => id,
                    None => {
                        self.classes.push(class);
                        self.classes.len() - 1
                    }
                };
                (id as u32, rows.len() as u32)
            }
            _ => (STATE_RECORD, 0),
        };
        self.entries.push(IndexEntry { seq, class, rows });
    }

    fn forget(&mut self) {
        self.entries.clear();
    }
}

/// Walks every live segment in `dir`, handing each good frame to `sink`.
/// A torn tail (partial or failing trailing data) is tolerated only on
/// the *last* segment; `lenient` additionally tolerates a torn header
/// there (a crash between segment creation and header write, which the
/// commit protocol no longer leaves behind). A segment that vanishes
/// between the listing and its opening (a concurrent compaction deleted
/// it) makes the walk list the directory again and start over.
fn walk(dir: &Path, lenient: bool, sink: &mut dyn FrameSink) -> io::Result<Scan> {
    let mut relists = 0;
    loop {
        let (indices, temporaries) = list_segments(dir)?;
        match walk_segments(dir, &indices, lenient, sink) {
            Err(e) if e.kind() == io::ErrorKind::NotFound && relists < MAX_RELISTS => {
                relists += 1;
                sink.forget();
            }
            Err(e) => return Err(e),
            Ok(scan) => return Ok(Scan { temporaries, ..scan }),
        }
    }
}

/// The segment indices and the temporary files under `dir`, each sorted.
fn list_segments(dir: &Path) -> io::Result<(Vec<u64>, Vec<PathBuf>)> {
    let (mut indices, mut temporaries) = (Vec::new(), Vec::new());
    if dir.is_dir() {
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let Some(rest) = name.strip_prefix(SEGMENT_PREFIX) else {
                continue;
            };
            if rest.ends_with(TEMP_SUFFIX) {
                temporaries.push(dir.join(&*name));
            } else if let Some(stem) = rest.strip_suffix(SEGMENT_SUFFIX) {
                indices.push(
                    stem.parse::<u64>()
                        .map_err(|_| corrupt(dir, format!("bad segment name {name}")))?,
                );
            }
        }
    }
    indices.sort_unstable();
    temporaries.sort_unstable();
    Ok((indices, temporaries))
}

/// One pass of [`walk`] over a listing (temporaries not filled in). A
/// listed segment that is gone fails with [`io::ErrorKind::NotFound`].
fn walk_segments(
    dir: &Path,
    indices: &[u64],
    lenient: bool,
    sink: &mut dyn FrameSink,
) -> io::Result<Scan> {
    let mut segments: Vec<SegmentSummary> = Vec::with_capacity(indices.len());
    let mut superseded = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut prev_seq: Option<u64> = None;
    let mut frame = Vec::new();
    for (pos, &index) in indices.iter().enumerate() {
        let last_segment = pos + 1 == indices.len();
        let path = segment_path(dir, index);
        let mut reader = BufReader::with_capacity(READ_BUFFER, File::open(&path)?);
        let mut header = [0; SEGMENT_HEADER_LEN as usize];
        let got = read_full(&mut reader, &mut header)?;
        if got < header.len() {
            if last_segment && lenient {
                truncated_bytes += got as u64;
                segments.push(SegmentSummary {
                    index,
                    path,
                    file_len: got as u64,
                    valid_len: 0,
                    first_seq: prev_seq.map_or(0, |s| s + 1),
                    last_seq: None,
                    frames: 0,
                });
                continue;
            }
            return Err(corrupt(&path, "segment shorter than its header"));
        }
        if header[..4] != MAGIC {
            return Err(corrupt(&path, "bad magic"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(corrupt(&path, format!("unsupported format version {version}")));
        }
        let first_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        // Compaction output starts at or before what precedes it.
        let mut supersedes = prev_seq.is_some_and(|prev| first_seq <= prev);
        let mut offset = SEGMENT_HEADER_LEN;
        let mut last_seq = None;
        let mut frames = 0;
        let file_len = loop {
            let bad = match read_frame(&mut reader, &mut frame)? {
                Frame::End => break offset,
                Frame::Good(seq, record) => {
                    if std::mem::take(&mut supersedes) && seq == first_seq {
                        // The header and the CRC-checked first frame agree:
                        // compaction output, not a corrupt header.
                        superseded.extend(segments.drain(..).map(|s| s.path));
                        sink.forget();
                        prev_seq = None;
                    }
                    if let Some(prev) = prev_seq.filter(|&prev| seq <= prev) {
                        return Err(corrupt(
                            &path,
                            format!("sequence {seq} at offset {offset} not after {prev}"),
                        ));
                    }
                    prev_seq = Some(seq);
                    last_seq = Some(seq);
                    frames += 1;
                    sink.frame(seq, record);
                    offset += frame.len() as u64;
                    continue;
                }
                Frame::Bad(e) => e,
            };
            if !last_segment {
                return Err(corrupt(&path, format!("at offset {offset}: {bad}")));
            }
            // Torn tail: everything up to here is good.
            let file_len = reader.get_ref().metadata()?.len().max(offset);
            truncated_bytes += file_len - offset;
            break file_len;
        };
        segments.push(SegmentSummary {
            index,
            path,
            file_len,
            valid_len: offset,
            first_seq,
            last_seq,
            frames,
        });
    }
    Ok(Scan { segments, superseded, temporaries: Vec::new(), truncated_bytes })
}

/// Reads into `buf` until it is full or the file ends; returns the bytes
/// read.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// One step of the frame walker.
enum Frame {
    /// The segment ended cleanly at a frame boundary.
    End,
    /// A frame that passed every check.
    Good(u64, JournalRecord),
    /// A partial frame, or one failing its length bound, CRC or decoding.
    Bad(DecodeError),
}

/// Reads the next frame into `frame` (its `[len][crc]` prefix, then its
/// body) and checks it.
fn read_frame(reader: &mut impl Read, frame: &mut Vec<u8>) -> io::Result<Frame> {
    let mut prefix = [0; FRAME_PREFIX_LEN];
    match read_full(reader, &mut prefix)? {
        0 => return Ok(Frame::End),
        FRAME_PREFIX_LEN => {}
        _ => return Ok(Frame::Bad(DecodeError("partial frame header".into()))),
    }
    let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes"));
    if !(8..=MAX_FRAME_LEN).contains(&len) {
        return Ok(Frame::Bad(DecodeError(format!("implausible frame length {len}"))));
    }
    frame.clear();
    frame.extend_from_slice(&prefix);
    frame.resize(FRAME_PREFIX_LEN + len as usize, 0);
    if read_full(reader, &mut frame[FRAME_PREFIX_LEN..])? < len as usize {
        return Ok(Frame::Bad(DecodeError("frame body truncated".into())));
    }
    let body = &frame[FRAME_PREFIX_LEN..];
    let stored_crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Ok(Frame::Bad(DecodeError("CRC mismatch".into())));
    }
    let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    Ok(match JournalRecord::decode(&body[8..]) {
        Ok(record) => Frame::Good(seq, record),
        Err(e) => Frame::Bad(e),
    })
}

// ---------------------------------------------------------------------------
// State digests
// ---------------------------------------------------------------------------

/// Streaming FNV-1a 64-bit digest — the workspace's canonical way to
/// compare adaptation state (buffer contents, thresholds, generations)
/// bit-for-bit between a live run and a journal replay without shipping
/// the full state across threads.
#[derive(Debug, Clone, Copy)]
pub struct Digest64 {
    state: u64,
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

impl Digest64 {
    /// FNV-1a offset basis.
    pub fn new() -> Digest64 {
        Digest64 { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern — bit-identity, not numeric equality.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Folds a string (length-prefixed, so concatenations can't collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// ---------------------------------------------------------------------------
// Membership fold
// ---------------------------------------------------------------------------

/// Live fleet membership folded from `InstanceJoined`/`InstanceRetired`
/// records in sequence order.
///
/// An elastic fleet journals every membership change, so replaying the log
/// through this fold reconstructs exactly which instances were live when
/// the process died — the membership half of crash recovery (checkpoint
/// replay restores the model-state half). `check_journal` uses the same
/// fold to validate that retires always reference a prior join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MembershipFold {
    /// Instances currently live, in join order: `(instance, class, epoch)`.
    live: Vec<(String, String, u64)>,
    joins: u64,
    retires: u64,
    forced_retires: u64,
    superseded: u64,
}

/// A membership record contradicted the fold state (a retire without a
/// prior join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipError(String);

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "membership fold failed: {}", self.0)
    }
}

impl std::error::Error for MembershipError {}

impl MembershipFold {
    /// An empty fold (no instances live).
    pub fn new() -> MembershipFold {
        MembershipFold::default()
    }

    /// Folds one record. Non-membership records are ignored, so the whole
    /// journal can be streamed through without filtering.
    pub fn apply(&mut self, record: &JournalRecord) -> Result<(), MembershipError> {
        match record {
            JournalRecord::InstanceJoined { instance, class, epoch } => {
                // A re-join of a live instance supersedes the earlier
                // incarnation: the process died before journalling its
                // retirement, and a restarted run re-founded the roster.
                // The new incarnation takes the orphan's place (dropping
                // to the end of the join order, where the new run put it).
                if let Some(idx) = self.live.iter().position(|(name, _, _)| name == instance) {
                    self.live.remove(idx);
                    self.superseded += 1;
                }
                self.live.push((instance.clone(), class.clone(), *epoch));
                self.joins += 1;
            }
            JournalRecord::InstanceRetired { instance, forced, .. } => {
                let idx = self.live.iter().position(|(name, _, _)| name == instance).ok_or_else(
                    || MembershipError(format!("instance {instance:?} retired without a join")),
                )?;
                self.live.remove(idx);
                self.retires += 1;
                self.forced_retires += *forced as u64;
            }
            _ => {}
        }
        Ok(())
    }

    /// Instances currently live, in join order: `(instance, class, epoch)`.
    pub fn live(&self) -> &[(String, String, u64)] {
        &self.live
    }

    /// Total joins folded so far.
    pub fn joins(&self) -> u64 {
        self.joins
    }

    /// Total retires folded so far.
    pub fn retires(&self) -> u64 {
        self.retires
    }

    /// Retires flagged as forced by a churn plan.
    pub fn forced_retires(&self) -> u64 {
        self.forced_retires
    }

    /// Live incarnations superseded by a re-join — crash orphans whose
    /// retirement was never journalled before a restarted run re-founded
    /// them.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Order-sensitive digest of the live membership — two folds agree iff
    /// the same instances are live with the same classes and join epochs.
    pub fn digest(&self) -> u64 {
        let mut digest = Digest64::new();
        digest.write_u64(self.live.len() as u64);
        for (instance, class, epoch) in &self.live {
            digest.write_str(instance);
            digest.write_str(class);
            digest.write_u64(*epoch);
        }
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aging-journal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint_batch(class: &str, n: usize, base: f64) -> JournalRecord {
        JournalRecord::Checkpoints {
            class: class.into(),
            rows: (0..n)
                .map(|i| JournalCheckpoint {
                    features: vec![base + i as f64, -1.5, f64::NAN],
                    ttf_secs: 600.0 + i as f64,
                    predicted_ttf_secs: (i % 2 == 0).then_some(580.0),
                    predicted_generation: (i % 3 == 0).then_some(i as u64),
                    monitor_only: i % 2 == 1,
                })
                .collect(),
        }
    }

    fn all_variants() -> Vec<JournalRecord> {
        vec![
            checkpoint_batch("leak", 3, 10.0),
            JournalRecord::GenerationPublished { class: "leak".into(), generation: 7 },
            JournalRecord::ThresholdsRederived {
                class: "steady".into(),
                error_threshold_secs: 612.5,
                rejuvenation_threshold_secs: Some(420.0),
            },
            JournalRecord::ThresholdsRederived {
                class: "steady".into(),
                error_threshold_secs: 900.0,
                rejuvenation_threshold_secs: None,
            },
            JournalRecord::ClassRegistered { class: "discovered-1".into() },
            JournalRecord::ClassRetired { class: "discovered-1".into(), into: "leak".into() },
            JournalRecord::PartitionAssigned {
                version: 3,
                assignment: vec![("i-0".into(), "leak".into()), ("i-1".into(), "steady".into())],
            },
            JournalRecord::InstanceJoined {
                instance: "i-2".into(),
                class: "leak".into(),
                epoch: 17,
            },
            JournalRecord::InstanceRetired { instance: "i-2".into(), epoch: 41, forced: true },
        ]
    }

    /// NaN features survive the trip by bit pattern, so `PartialEq` on the
    /// decoded record would fail — compare re-encodings instead.
    fn assert_roundtrip(record: &JournalRecord) {
        let decoded = JournalRecord::decode(&record.encode()).expect("decodes");
        assert_eq!(decoded.encode(), record.encode(), "{record:?}");
    }

    #[test]
    fn every_record_variant_roundtrips() {
        for record in all_variants() {
            assert_roundtrip(&record);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        assert!(JournalRecord::decode(&[]).is_err());
        assert!(JournalRecord::decode(&[99]).is_err());
        let mut bytes = JournalRecord::ClassRegistered { class: "x".into() }.encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn membership_fold_tracks_live_instances_and_rejects_contradictions() {
        let join = |name: &str, epoch| JournalRecord::InstanceJoined {
            instance: name.into(),
            class: "leak".into(),
            epoch,
        };
        let retire = |name: &str, epoch, forced| JournalRecord::InstanceRetired {
            instance: name.into(),
            epoch,
            forced,
        };
        let mut fold = MembershipFold::new();
        for record in [&join("i-0", 0), &join("i-1", 0), &checkpoint_batch("leak", 1, 0.0)] {
            fold.apply(record).unwrap();
        }
        fold.apply(&retire("i-0", 9, false)).unwrap();
        fold.apply(&join("i-2", 12)).unwrap();
        assert_eq!(
            fold.live(),
            &[("i-1".into(), "leak".into(), 0), ("i-2".into(), "leak".into(), 12)]
        );
        assert_eq!((fold.joins(), fold.retires(), fold.forced_retires()), (3, 1, 0));
        fold.apply(&retire("i-2", 14, true)).unwrap();
        assert_eq!(fold.forced_retires(), 1);
        // A re-join of a live instance supersedes the crash orphan — the
        // incarnation restarted runs journal when the process died before
        // retiring it — rather than contradicting the fold.
        fold.apply(&join("i-1", 20)).unwrap();
        assert_eq!(fold.superseded(), 1);
        assert_eq!(fold.live(), &[("i-1".into(), "leak".into(), 20)]);
        // A retire without any prior join is still a contradiction.
        assert!(fold.apply(&retire("i-7", 20, false)).is_err());
        // Digest is order-sensitive over the live set.
        let mut a = MembershipFold::new();
        let mut b = MembershipFold::new();
        a.apply(&join("x", 1)).unwrap();
        a.apply(&join("y", 1)).unwrap();
        b.apply(&join("y", 1)).unwrap();
        b.apply(&join("x", 1)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_read_roundtrips_across_rotation() {
        let dir = tmp_dir("rotate");
        let options = JournalOptions { fsync_every: 2, segment_max_bytes: 256 };
        let journal = Journal::open_with(&dir, options).unwrap();
        let records = all_variants();
        for (i, record) in records.iter().enumerate() {
            assert_eq!(journal.append(record).unwrap(), i as u64);
        }
        journal.sync().unwrap();
        assert!(journal.rotations() > 0, "256-byte segments must rotate");
        assert!(journal.fsyncs() >= records.len() as u64 / 2);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.truncated_bytes, 0);
        assert!(outcome.segments > 1);
        assert_eq!(outcome.records.len(), records.len());
        for (i, ((seq, got), want)) in outcome.records.iter().zip(&records).enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(got.encode(), want.encode());
        }
    }

    #[test]
    fn torn_tail_is_tolerated_on_read_and_truncated_on_open() {
        let dir = tmp_dir("torn");
        let journal = Journal::open(&dir).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        // Simulate a crash mid-frame: append garbage to the last segment.
        let last = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&last).unwrap();
        file.write_all(&[0x17; 11]).unwrap();
        drop(file);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.records.len(), all_variants().len());
        assert_eq!(outcome.truncated_bytes, 11);
        // Re-open truncates the tear and appends cleanly after it.
        let reopened = Journal::open(&dir).unwrap();
        let seq = reopened
            .append(&JournalRecord::ClassRegistered { class: "post-crash".into() })
            .unwrap();
        assert_eq!(seq, all_variants().len() as u64);
        reopened.sync().unwrap();
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.truncated_bytes, 0);
        assert_eq!(outcome.records.len(), all_variants().len() + 1);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_truncation() {
        let dir = tmp_dir("midlog");
        let options = JournalOptions { fsync_every: 1, segment_max_bytes: 128 };
        let journal = Journal::open_with(&dir, options).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        assert!(Journal::read(&dir).unwrap().segments > 1);
        // Flip one payload byte in the FIRST segment (not the last).
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let err = Journal::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sequence_numbers_survive_restart() {
        let dir = tmp_dir("restart");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.append(&JournalRecord::ClassRegistered { class: "a".into() }).unwrap();
            journal.append(&JournalRecord::ClassRegistered { class: "b".into() }).unwrap();
            journal.sync().unwrap();
        }
        let journal = Journal::open(&dir).unwrap();
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(
            journal.append(&JournalRecord::ClassRegistered { class: "c".into() }).unwrap(),
            2
        );
    }

    #[test]
    fn compaction_keeps_the_per_class_tail_and_all_state_records() {
        let dir = tmp_dir("compact");
        let journal = Journal::open(&dir).unwrap();
        for i in 0..10 {
            journal.append(&checkpoint_batch("leak", 4, i as f64 * 100.0)).unwrap();
            journal.append(&checkpoint_batch("steady", 2, i as f64 * 100.0)).unwrap();
        }
        journal
            .append(&JournalRecord::GenerationPublished { class: "leak".into(), generation: 1 })
            .unwrap();
        let stats = journal.compact(8).unwrap();
        // leak: 4-row batches, budget 8 → last 2 batches. steady: 2-row
        // batches → last 4 batches. Publish always kept.
        assert_eq!(stats.kept_rows, 2 * 4 + 4 * 2);
        assert_eq!(stats.dropped_rows, 8 * 4 + 6 * 2);
        assert_eq!(stats.kept_records, 2 + 4 + 1);
        let outcome = Journal::read(&dir).unwrap();
        assert_eq!(outcome.segments, 1, "compaction rewrites into one segment");
        assert_eq!(outcome.records.len() as u64, stats.kept_records);
        // Seqs stay strictly monotone and original.
        let seqs: Vec<u64> = outcome.records.iter().map(|(s, _)| *s).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seqs.last().unwrap(), 20);
        // Appending after compaction continues the sequence.
        let seq = journal.append(&checkpoint_batch("leak", 1, 0.0)).unwrap();
        assert_eq!(seq, 21);
        journal.sync().unwrap();
        assert_eq!(Journal::read(&dir).unwrap().records.len() as u64, stats.kept_records + 1);
    }

    /// Every file under `dir`, in name order, with its bytes.
    fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                (entry.file_name().to_string_lossy().into_owned(), fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A three-class stream with every record variant between the
    /// batches. Features carry NaN payloads of both signs, `-0.0` and `0.0`
    /// beside ordinary values.
    fn golden_round(journal: &Journal, round: u64) {
        let classes = ["leak", "steady", "burst"];
        for i in 0..30u64 {
            let class = classes[(i % 3) as usize];
            let n = 1 + (i * 7 + round) % 5;
            let rows = (0..n)
                .map(|r| JournalCheckpoint {
                    features: vec![
                        (round * 1000 + i * 10 + r) as f64 * 0.5,
                        -0.0,
                        0.0,
                        f64::NAN,
                        -f64::from_bits(f64::NAN.to_bits() | 0x5a5a),
                        (i as f64).sin(),
                    ],
                    ttf_secs: 3600.0 - (i * 10 + r) as f64,
                    predicted_ttf_secs: (r % 2 == 0).then_some(-0.0),
                    predicted_generation: (r % 3 != 0).then_some(round + r),
                    monitor_only: r % 4 == 3,
                })
                .collect();
            journal.append(&JournalRecord::Checkpoints { class: class.into(), rows }).unwrap();
            if i % 6 == 5 {
                let variant = &all_variants()[((i / 6 + round) % 9) as usize];
                journal.append(variant).unwrap();
            }
        }
    }

    /// The compacted directory's bytes for a fixed multi-class input that
    /// rotates through 4 KiB segments and is compacted twice. Recorded
    /// before compaction became a frame copy; it must never change while
    /// the on-disk format and the row budget stay as they are.
    #[test]
    fn compacted_directory_matches_its_golden_digest() {
        let dir = tmp_dir("golden");
        let options = JournalOptions { fsync_every: 8, segment_max_bytes: 4096 };
        let journal = Journal::open_with(&dir, options).unwrap();
        let mut digest = Digest64::new();
        let mut fold = |dir: &Path| {
            for (name, bytes) in dir_files(dir) {
                digest.write_str(&name);
                digest.write_u64(bytes.len() as u64);
                digest.write(&bytes);
            }
        };
        golden_round(&journal, 0);
        assert!(journal.rotations() > 0, "4 KiB segments must rotate");
        let first = journal.compact(9).unwrap();
        fold(&dir);
        golden_round(&journal, 1);
        let second = journal.compact(9).unwrap();
        fold(&dir);
        assert!(first.dropped_records > 0 && second.dropped_records > 0);
        assert_eq!(digest.finish(), 0xef02_0ded_e7d7_10f1);
    }

    /// Every sync the handle issues is counted where it is issued: opening
    /// a fresh journal (segment and directory), appends every
    /// `fsync_every`, a rotation (old segment, new segment, directory), a
    /// compaction (writer, output segment, directory) and `sync`.
    #[test]
    fn every_issued_fsync_is_counted() {
        let dir = tmp_dir("fsyncs");
        let record = checkpoint_batch("a", 2, 1.0);
        let mut frame = vec![0; FRAME_PREFIX_LEN + 8];
        record.encode_into(&mut frame);
        // Six frames fit a segment; the seventh append rotates.
        let options = JournalOptions {
            fsync_every: 4,
            segment_max_bytes: SEGMENT_HEADER_LEN + 6 * frame.len() as u64,
        };
        let journal = Journal::open_with(&dir, options).unwrap();
        let dir_syncs = u64::from(cfg!(unix));
        let mut expected = 1 + dir_syncs;
        assert_eq!(journal.fsyncs(), expected, "opening a fresh journal");
        for _ in 0..6 {
            journal.append(&record).unwrap();
        }
        expected += 1;
        assert_eq!(journal.fsyncs(), expected, "the fourth append syncs");
        journal.append(&record).unwrap();
        assert_eq!(journal.rotations(), 1);
        expected += 2 + dir_syncs;
        assert_eq!(journal.fsyncs(), expected, "the rotation syncs");
        for _ in 0..3 {
            journal.append(&record).unwrap();
        }
        expected += 1;
        assert_eq!(journal.fsyncs(), expected, "the fourth append after the rotation syncs");
        journal.compact(2).unwrap();
        expected += 2 + dir_syncs;
        assert_eq!(journal.fsyncs(), expected, "the compaction syncs");
        journal.sync().unwrap();
        expected += 1;
        assert_eq!(journal.fsyncs(), expected, "sync");
        assert_eq!(expected, 8 + 3 * dir_syncs);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Compaction over mid-log corruption refuses and leaves every
    /// segment as it was.
    #[test]
    fn compaction_over_mid_log_corruption_changes_nothing() {
        let dir = tmp_dir("compact-corrupt");
        let options = JournalOptions { fsync_every: 1, segment_max_bytes: 256 };
        let journal = Journal::open_with(&dir, options).unwrap();
        for record in all_variants().iter().chain(&all_variants()) {
            journal.append(record).unwrap();
        }
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let before = dir_files(&dir);
        assert!(before.len() > 2);
        let err = journal.compact(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_files(&dir), before, "a refused compaction touches no file");
    }

    /// `(seq, payload)` per record: NaN features compare by bit pattern.
    fn encodings(records: &[(u64, JournalRecord)]) -> Vec<(u64, Vec<u8>)> {
        records.iter().map(|(seq, record)| (*seq, record.encode())).collect()
    }

    /// A crash after compaction commits its output but before it deletes
    /// the segments it replaced leaves both on disk. Readers see exactly
    /// the compacted log, and a reopened writer deletes the old segments
    /// and continues the sequence. Deletion runs in index order, so a
    /// crash part-way leaves a suffix of the old segments; every such
    /// suffix and the lone first segment are tried.
    #[test]
    fn superseded_segments_are_skipped_on_read_and_deleted_on_open() {
        let options = JournalOptions { fsync_every: 4, segment_max_bytes: 4096 };
        let dir = tmp_dir("supersede");
        let journal = Journal::open_with(&dir, options).unwrap();
        golden_round(&journal, 0);
        journal.sync().unwrap();
        let old = dir_files(&dir);
        assert!(old.len() > 1, "the input must span several segments");
        journal.compact(9).unwrap();
        let next_seq = journal.next_seq();
        drop(journal);
        let compacted = dir_files(&dir);
        let want = encodings(&Journal::read(&dir).unwrap().records);
        let mut leftovers: Vec<Vec<(String, Vec<u8>)>> =
            (0..old.len()).map(|from| old[from..].to_vec()).collect();
        leftovers.push(old[..1].to_vec());
        for leftover in leftovers {
            for (name, bytes) in &leftover {
                fs::write(dir.join(name), bytes).unwrap();
            }
            let read = Journal::read(&dir).unwrap();
            assert_eq!((read.segments, read.truncated_bytes), (1, 0));
            assert_eq!(encodings(&read.records), want);
            let reopened = Journal::open_with(&dir, options).unwrap();
            assert_eq!(dir_files(&dir), compacted, "open deletes the superseded segments");
            assert_eq!(reopened.next_seq(), next_seq);
        }
        let reopened = Journal::open_with(&dir, options).unwrap();
        let record = JournalRecord::ClassRegistered { class: "after".into() };
        assert_eq!(reopened.append(&record).unwrap(), next_seq);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment whose header claims an old `first_seq` but whose first
    /// frame disagrees has a corrupt header, not compaction output: it
    /// hides none of the segments before it, and open deletes nothing.
    #[test]
    fn a_corrupt_header_does_not_supersede() {
        let options = JournalOptions { fsync_every: 1, segment_max_bytes: 256 };
        let dir = tmp_dir("bad-header");
        let journal = Journal::open_with(&dir, options).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let path = segment_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&0u64.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        let files = dir_files(&dir);
        let read = Journal::read(&dir).unwrap();
        assert_eq!(read.segments, files.len() as u64);
        assert_eq!(encodings(&read.records).len(), all_variants().len());
        Journal::open_with(&dir, options).unwrap();
        assert_eq!(dir_files(&dir), files);
    }

    /// A temporary segment a crash left before its rename is invisible to
    /// readers and removed by the next open.
    #[test]
    fn stray_temporary_segments_are_ignored_and_removed_on_open() {
        let dir = tmp_dir("temporary");
        let journal = Journal::open(&dir).unwrap();
        for record in all_variants() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let clean = dir_files(&dir);
        fs::write(dir.join("segment-00000001.ajl.tmp"), &segment_header(3)[..11]).unwrap();
        let read = Journal::read(&dir).unwrap();
        assert_eq!((read.records.len(), read.segments), (all_variants().len(), 1));
        Journal::open(&dir).unwrap();
        assert_eq!(dir_files(&dir), clean);
    }

    /// A thread reading the journal in a loop while the writer appends
    /// 3 000 batches of 16 × 49 values, rotating through 256 KiB segments
    /// and compacting every 256 batches, sees no error, and every read is
    /// a log with strictly increasing sequence numbers.
    #[test]
    fn reads_beside_a_compacting_writer_never_fail() {
        use std::sync::atomic::AtomicBool;
        let dir = tmp_dir("race");
        let options = JournalOptions { fsync_every: 64, segment_max_bytes: 256 * 1024 };
        let journal = Journal::open_with(&dir, options).unwrap();
        let done = AtomicBool::new(false);
        let (reads, errors) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut reads, mut errors) = (0usize, Vec::new());
                while !done.load(Ordering::Acquire) {
                    match Journal::read(&dir) {
                        Ok(read) if read.records.windows(2).all(|w| w[0].0 < w[1].0) => reads += 1,
                        Ok(_) => errors.push("sequence numbers out of order".to_string()),
                        Err(e) => errors.push(e.to_string()),
                    }
                }
                (reads, errors)
            });
            for i in 0..3000u64 {
                let rows = (0..16)
                    .map(|r| JournalCheckpoint {
                        features: (0..49).map(|a| (i * 16 + r) as f64 + a as f64 * 0.25).collect(),
                        ttf_secs: 1e4 - i as f64,
                        predicted_ttf_secs: Some(9e3),
                        predicted_generation: Some(i / 32),
                        monitor_only: false,
                    })
                    .collect();
                journal.append(&JournalRecord::Checkpoints { class: "leak".into(), rows }).unwrap();
                if i % 256 == 255 {
                    journal.compact(2048).unwrap();
                }
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(journal.rotations() > 0, "256 KiB segments must rotate");
        assert!(errors.is_empty(), "{} of {} reads failed: {errors:?}", errors.len(), reads);
        assert!(reads > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The byte-at-a-time table CRC, kept as the oracle of [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// [`crc32`] equals the byte-wise CRC on every length from 0 to
        /// 4096 bytes and at every start offset modulo 8.
        #[test]
        fn crc32_matches_the_bytewise_crc(
            seed in 0u64..u64::MAX,
            start in 0usize..8,
            len in 0usize..=4096,
        ) {
            let mut state = seed | 1;
            let bytes: Vec<u8> = (0..start + len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let slice = &bytes[start..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let digest = |parts: &[&str]| {
            let mut d = Digest64::new();
            for p in parts {
                d.write_str(p);
            }
            d.finish()
        };
        assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
        assert_ne!(digest(&["ab", ""]), digest(&["a", "b"]), "length prefix prevents collisions");
        let mut nan = Digest64::new();
        nan.write_f64(f64::NAN);
        let mut neg_nan = Digest64::new();
        neg_nan.write_f64(-f64::NAN);
        assert_ne!(nan.finish(), neg_nan.finish(), "digest is bit-level");
    }
}
