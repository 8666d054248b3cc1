//! Durable control plane: write-ahead update journal, atomic
//! checkpoints, and crash recovery.
//!
//! The paper's deployment model keeps the authoritative tables in a
//! software shadow and streams updates into hardware; a process crash
//! must therefore never lose the shadow. This module adds the standard
//! redo-log durability story on top of [`SharedChisel`]:
//!
//! - **Journal** (`*.journal`): every *accepted* update window is
//!   appended as one framed record reusing the v2 image discipline — a
//!   file magic + version header, then per record a little-endian `u64`
//!   body length, a `u32` FNV-1a-32 checksum of the body, and the body
//!   itself (a strictly monotonic generation stamp plus the window's
//!   events). [`read_journal`] truncates a torn tail (an incomplete
//!   final frame, the signature of a crash mid-append) and rejects
//!   every other corruption with a typed [`JournalError`] — never a
//!   panic, never a silently wrong record.
//! - **Checkpoint** (`*.ckpt`): a point-in-time snapshot — generation
//!   stamp, the full route set, and the [`HardwareImage::to_bytes`]
//!   payload — written to a temp file, fsynced, then atomically
//!   renamed over the previous checkpoint. A crash mid-checkpoint
//!   leaves the old checkpoint intact.
//! - **Recovery** ([`recover`]): load the newest valid checkpoint,
//!   rebuild the engine from its route set, cross-check the rebuild
//!   against the checkpointed image's own answers, then replay the
//!   journal tail on the bare engine — one record, one generation — and
//!   wrap it once in a [`SharedChisel`] at exactly the last durable
//!   pre-crash generation (enforced: every replayed record's stamp must
//!   follow its predecessor's by one).
//!
//! [`DurableControl`] packages the write side: apply-then-append (an
//! update is acknowledged only after its journal append returns),
//! periodic checkpoints every N accepted events, and journal rotation
//! after each successful checkpoint so the tail stays short. The
//! faultpoint sites [`JOURNAL_SHORT_WRITE`](crate::faultpoint::JOURNAL_SHORT_WRITE)
//! and [`CHECKPOINT_FSYNC_FAIL`](crate::faultpoint::CHECKPOINT_FSYNC_FAIL)
//! cut both paths mid-flight under `--cfg faultpoint`; the
//! crash-injection harness (`tests/recovery.rs`) kills at those sites
//! and proves recovery is answer-identical to an oracle driven to the
//! recovered generation.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use chisel_prefix::{AddressFamily, Key, NextHop, Prefix, RoutingTable};

use crate::batch::{BatchReport, RouteUpdate};
use crate::concurrent::EngineSnapshot;
use crate::image::{fnv1a32, HardwareImage, ImageError};
use crate::{faultpoint, ChiselConfig, ChiselError, ChiselLpm, SharedChisel};

/// Magic bytes opening every journal file.
const JOURNAL_MAGIC: [u8; 4] = *b"CHSJ";

/// Magic bytes opening every checkpoint file.
const CHECKPOINT_MAGIC: [u8; 4] = *b"CHSK";

/// Current journal wire-format version.
pub const JOURNAL_VERSION: u16 = 1;

/// Current checkpoint wire-format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Journal file header: magic (4) + version (2) + family tag (1).
const JOURNAL_HEADER_LEN: usize = 7;

/// Record frame prelude: body length (8) + FNV-1a-32 checksum (4).
const FRAME_PRELUDE_LEN: usize = 12;

/// Why a journal or checkpoint operation failed. Every parse-side
/// variant is a *rejection*, never a panic: both files are treated as
/// untrusted bytes off a crashed process's disk.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O operation failed (`what` names the operation).
    Io {
        /// Operation being attempted.
        what: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The stream ended before the named field could be read (used for
    /// *complete* structures that must be whole, e.g. a checkpoint; an
    /// incomplete journal *tail* is truncated, not an error).
    Truncated {
        /// Field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The file does not open with the expected magic.
    BadMagic {
        /// Which file kind was being opened.
        what: &'static str,
    },
    /// The file declares a format version this reader does not speak.
    UnsupportedVersion {
        /// The declared version.
        version: u16,
    },
    /// A record or section body does not hash to its stored checksum.
    ChecksumMismatch {
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A structural invariant failed while decoding (`what` names it).
    Malformed {
        /// The violated invariant.
        what: &'static str,
    },
    /// A record's generation stamp does not strictly increase over its
    /// predecessor's.
    NonMonotonic {
        /// The preceding record's generation.
        prev: u64,
        /// The offending record's generation.
        got: u64,
    },
    /// The journal tail does not connect to the checkpoint: the next
    /// record to replay must republish exactly `expected`.
    GenerationGap {
        /// Generation the replay engine would publish next.
        expected: u64,
        /// The record's actual stamp.
        got: u64,
    },
    /// A journaled record was rejected on replay — the journal only
    /// holds events that were accepted pre-crash, so this means the
    /// recovered engine diverged from the crashed one.
    ReplayRejected {
        /// Generation of the rejecting record.
        generation: u64,
        /// How many of its events were rejected.
        rejected: usize,
    },
    /// The engine rebuilt from the checkpoint's route set answers a
    /// probe differently from the checkpointed hardware image.
    CheckpointDiverged {
        /// The disagreeing probe key.
        key: Key,
    },
    /// The checkpoint (or journal) was written for a different address
    /// family than the caller expects.
    FamilyMismatch {
        /// Family recorded in the file.
        stored: AddressFamily,
        /// Family the caller supplied.
        expected: AddressFamily,
    },
    /// The checkpointed hardware image failed to parse.
    Image(ImageError),
    /// Rebuilding or replaying through the engine failed.
    Engine(ChiselError),
    /// An armed faultpoint cut the operation (test builds only).
    Fault {
        /// The site that fired.
        site: &'static str,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { what, source } => write!(f, "journal i/o during {what}: {source}"),
            JournalError::Truncated { what } => write!(f, "stream truncated reading {what}"),
            JournalError::BadMagic { what } => write!(f, "{what} does not start with its magic"),
            JournalError::UnsupportedVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            JournalError::ChecksumMismatch { offset } => {
                write!(f, "record checksum mismatch at byte offset {offset}")
            }
            JournalError::Malformed { what } => write!(f, "malformed {what}"),
            JournalError::NonMonotonic { prev, got } => {
                write!(f, "generation stamp {got} does not increase over {prev}")
            }
            JournalError::GenerationGap { expected, got } => {
                write!(
                    f,
                    "journal tail does not connect: expected generation {expected}, found {got}"
                )
            }
            JournalError::ReplayRejected {
                generation,
                rejected,
            } => write!(
                f,
                "{rejected} journaled event(s) rejected replaying generation {generation}"
            ),
            JournalError::CheckpointDiverged { key } => write!(
                f,
                "rebuilt engine disagrees with the checkpointed image on key {key}"
            ),
            JournalError::FamilyMismatch { stored, expected } => {
                write!(
                    f,
                    "address family mismatch: file has {stored:?}, expected {expected:?}"
                )
            }
            JournalError::Image(e) => write!(f, "checkpointed image rejected: {e}"),
            JournalError::Engine(e) => write!(f, "engine error during recovery: {e}"),
            JournalError::Fault { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Image(e) => Some(e),
            JournalError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

fn io_err(what: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |source| JournalError::Io { what, source }
}

fn family_tag(family: AddressFamily) -> u8 {
    match family {
        AddressFamily::V4 => 4,
        AddressFamily::V6 => 6,
    }
}

fn family_of_tag(tag: u8, what: &'static str) -> Result<AddressFamily, JournalError> {
    match tag {
        4 => Ok(AddressFamily::V4),
        6 => Ok(AddressFamily::V6),
        _ => Err(JournalError::Malformed { what }),
    }
}

/// One journaled record: the generation its window published and the
/// accepted events of that window, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Generation the window published (strictly increasing per record).
    pub generation: u64,
    /// The window's accepted events. May be empty: a window whose every
    /// event was rejected still published a generation.
    pub events: Vec<RouteUpdate>,
}

/// The result of scanning a journal: every intact record plus how much
/// of a torn tail was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Address family the journal was opened for.
    pub family: AddressFamily,
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + intact frames).
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 after a clean shutdown).
    pub truncated_bytes: u64,
}

fn encode_event(out: &mut Vec<u8>, ev: &RouteUpdate) {
    match *ev {
        RouteUpdate::Announce(p, nh) => {
            out.push(0);
            out.push(p.len());
            out.extend(p.bits().to_le_bytes());
            out.extend(nh.id().to_le_bytes());
        }
        RouteUpdate::Withdraw(p) => {
            out.push(1);
            out.push(p.len());
            out.extend(p.bits().to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian cursor over untrusted journal or
/// checkpoint bytes (the image loader's `Reader`, retyped for
/// [`JournalError`]).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], JournalError> {
        if self.remaining() < n {
            return Err(JournalError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, JournalError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, JournalError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, JournalError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, JournalError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, JournalError> {
        let b = self.take(16, what)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// One `u64` length + `u32` checksum framed section, checksum
    /// verified before the body is handed out.
    fn section(&mut self, what: &'static str) -> Result<&'a [u8], JournalError> {
        let offset = self.pos as u64;
        let len = self.u64(what)?;
        let sum = self.u32(what)?;
        if (self.remaining() as u64) < len {
            return Err(JournalError::Truncated { what });
        }
        let body = self.take(len as usize, what)?;
        if fnv1a32(body) != sum {
            return Err(JournalError::ChecksumMismatch { offset });
        }
        Ok(body)
    }

    fn finish(&self, what: &'static str) -> Result<(), JournalError> {
        if self.remaining() != 0 {
            return Err(JournalError::Malformed { what });
        }
        Ok(())
    }
}

fn decode_event(c: &mut Cursor<'_>, family: AddressFamily) -> Result<RouteUpdate, JournalError> {
    let tag = c.u8("event tag")?;
    let len = c.u8("prefix length")?;
    let bits = c.u128("prefix bits")?;
    let prefix =
        Prefix::new(family, bits, len).map_err(|_| JournalError::Malformed { what: "prefix" })?;
    match tag {
        0 => {
            let nh = c.u32("next hop")?;
            Ok(RouteUpdate::Announce(prefix, NextHop::new(nh)))
        }
        1 => Ok(RouteUpdate::Withdraw(prefix)),
        _ => Err(JournalError::Malformed { what: "event tag" }),
    }
}

fn decode_record_body(body: &[u8], family: AddressFamily) -> Result<JournalRecord, JournalError> {
    let mut c = Cursor::new(body);
    let generation = c.u64("generation stamp")?;
    let count = c.u32("event count")? as usize;
    // The smallest event (withdraw) is 18 bytes: reject absurd counts
    // before reserving anything.
    if count > c.remaining() / 18 + 1 {
        return Err(JournalError::Malformed {
            what: "event count",
        });
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(decode_event(&mut c, family)?);
    }
    c.finish("record body")?;
    Ok(JournalRecord { generation, events })
}

/// Scans in-memory journal bytes.
///
/// An *incomplete* final frame — the prelude or the declared body
/// running past end-of-file, a crash mid-append — is cleanly truncated:
/// the scan succeeds with the intact prefix and reports the discarded
/// byte count. A header shorter than its fixed size is treated the same
/// way (a crash mid-create). Everything else — wrong magic, unknown
/// version, a checksum mismatch, an undecodable body, a non-monotonic
/// generation stamp — is a typed error.
///
/// # Errors
///
/// Returns a [`JournalError`] describing the first rejected structure.
pub fn scan_journal(bytes: &[u8]) -> Result<JournalScan, JournalError> {
    if bytes.len() < JOURNAL_HEADER_LEN {
        // Torn header: the journal died mid-create. Nothing is
        // recoverable, but nothing is corrupt either.
        return Ok(JournalScan {
            family: AddressFamily::V4,
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic { what: "journal" });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion { version });
    }
    let family = family_of_tag(bytes[6], "journal family")?;
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    let mut prev_generation: Option<u64> = None;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < FRAME_PRELUDE_LEN {
            // Torn tail: the frame prelude itself is incomplete.
            break;
        }
        let mut prelude = Cursor::new(&bytes[pos..pos + FRAME_PRELUDE_LEN]);
        let len = prelude.u64("frame length")? as usize;
        let sum = prelude.u32("frame checksum")?;
        if remaining - FRAME_PRELUDE_LEN < len {
            // Torn tail: the body runs past end-of-file.
            break;
        }
        let body = &bytes[pos + FRAME_PRELUDE_LEN..pos + FRAME_PRELUDE_LEN + len];
        if fnv1a32(body) != sum {
            return Err(JournalError::ChecksumMismatch { offset: pos as u64 });
        }
        let record = decode_record_body(body, family)?;
        if let Some(prev) = prev_generation {
            if record.generation <= prev {
                return Err(JournalError::NonMonotonic {
                    prev,
                    got: record.generation,
                });
            }
        }
        prev_generation = Some(record.generation);
        records.push(record);
        pos += FRAME_PRELUDE_LEN + len;
    }
    Ok(JournalScan {
        family,
        records,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    })
}

/// Reads and scans a journal file (see [`scan_journal`]). A missing
/// file is an empty journal, not an error — recovery after a crash
/// between checkpoint rename and journal rotation must succeed.
///
/// # Errors
///
/// Returns a [`JournalError`] on unreadable files or rejected records.
pub fn read_journal(path: &Path, family: AddressFamily) -> Result<JournalScan, JournalError> {
    if !path.exists() {
        return Ok(JournalScan {
            family,
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: 0,
        });
    }
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(io_err("journal read"))?;
    let scan = scan_journal(&bytes)?;
    if !scan.records.is_empty() && scan.family != family {
        return Err(JournalError::FamilyMismatch {
            stored: scan.family,
            expected: family,
        });
    }
    Ok(scan)
}

/// The append side of the write-ahead journal.
///
/// One writer per journal file; records are framed exactly as
/// [`scan_journal`] expects. With `fsync` enabled (the default) every
/// append is `fdatasync`ed before it is acknowledged, which is what
/// makes the acknowledgement a durability promise.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    fsync: bool,
    records: u64,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes its
    /// header.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, family: AddressFamily, fsync: bool) -> Result<Self, JournalError> {
        let mut file = File::create(path).map_err(io_err("journal create"))?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN);
        header.extend(JOURNAL_MAGIC);
        header.extend(JOURNAL_VERSION.to_le_bytes());
        header.push(family_tag(family));
        file.write_all(&header).map_err(io_err("journal header"))?;
        if fsync {
            file.sync_data().map_err(io_err("journal header sync"))?;
        }
        Ok(JournalWriter {
            file,
            fsync,
            records: 0,
        })
    }

    /// Appends one record: the window's published generation stamp and
    /// its accepted events. The append is acknowledged (returns `Ok`)
    /// only after the bytes are written — and, with `fsync`, synced.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure, or
    /// [`JournalError::Fault`] when the `journal-short-write` faultpoint
    /// cuts the frame mid-write (test builds only) — in which case a
    /// torn tail is deliberately left on disk, exactly as a crash
    /// between `write` and acknowledgement would.
    pub fn append(&mut self, generation: u64, events: &[RouteUpdate]) -> Result<(), JournalError> {
        let mut body = Vec::with_capacity(16 + events.len() * 23);
        body.extend(generation.to_le_bytes());
        body.extend((events.len() as u32).to_le_bytes());
        for ev in events {
            encode_event(&mut body, ev);
        }
        let mut frame = Vec::with_capacity(FRAME_PRELUDE_LEN + body.len());
        frame.extend((body.len() as u64).to_le_bytes());
        frame.extend(fnv1a32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        if faultpoint::fire(faultpoint::JOURNAL_SHORT_WRITE) {
            // Crash model: the process dies after half the frame
            // reached the file. Leave the torn tail behind.
            let half = frame.len() / 2;
            let _ = self.file.write_all(&frame[..half]);
            let _ = self.file.sync_data();
            return Err(JournalError::Fault {
                site: faultpoint::JOURNAL_SHORT_WRITE,
            });
        }
        self.file
            .write_all(&frame)
            .map_err(io_err("journal append"))?;
        if self.fsync {
            self.file
                .sync_data()
                .map_err(io_err("journal append sync"))?;
        }
        self.records += 1;
        Ok(())
    }

    /// Records appended through this writer since creation.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Forces all appended records to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn sync(&self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err("journal sync"))
    }
}

/// A parsed checkpoint: the generation it froze, the full route set,
/// and the hardware image exported at that generation.
#[derive(Debug)]
pub struct Checkpoint {
    /// Generation the checkpointed engine had published.
    pub generation: u64,
    /// Address family of the checkpointed engine.
    pub family: AddressFamily,
    /// Every route live at `generation` (including any default route).
    pub routes: Vec<(Prefix, NextHop)>,
    /// The hardware image exported at `generation` — recovery rebuilds
    /// the engine from `routes` and cross-checks its answers against
    /// this image.
    pub image: HardwareImage,
}

fn push_section(out: &mut Vec<u8>, body: &[u8]) {
    out.extend((body.len() as u64).to_le_bytes());
    out.extend(fnv1a32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Serializes a checkpoint of `snapshot` and writes it to `path` via a
/// temp file, fsync, and an atomic rename: a crash at any instant
/// leaves either the previous checkpoint or the new one, never a torn
/// mix.
///
/// # Errors
///
/// Returns [`JournalError::Io`] on filesystem failure, or
/// [`JournalError::Fault`] when the `checkpoint-fsync-fail` faultpoint
/// fires (test builds only) — the temp file is abandoned *before* the
/// rename, so the previous checkpoint stays intact.
pub fn write_checkpoint(path: &Path, snapshot: &EngineSnapshot) -> Result<(), JournalError> {
    let engine = snapshot.engine();
    let family = engine.config().family;
    let routes: Vec<(Prefix, NextHop)> = engine
        .iter_routes()
        .map(|e| (e.prefix, e.next_hop))
        .collect();
    let image_bytes = engine.export_image().to_bytes();

    let mut out = Vec::with_capacity(image_bytes.len() + routes.len() * 21 + 64);
    out.extend(CHECKPOINT_MAGIC);
    out.extend(CHECKPOINT_VERSION.to_le_bytes());
    let mut header = Vec::with_capacity(17);
    header.extend(snapshot.generation().to_le_bytes());
    header.push(family_tag(family));
    header.extend((routes.len() as u64).to_le_bytes());
    push_section(&mut out, &header);
    let mut route_body = Vec::with_capacity(routes.len() * 21);
    for (p, nh) in &routes {
        route_body.push(p.len());
        route_body.extend(p.bits().to_le_bytes());
        route_body.extend(nh.id().to_le_bytes());
    }
    push_section(&mut out, &route_body);
    push_section(&mut out, &image_bytes);

    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp).map_err(io_err("checkpoint create"))?;
    file.write_all(&out).map_err(io_err("checkpoint write"))?;
    if faultpoint::fire(faultpoint::CHECKPOINT_FSYNC_FAIL) {
        // Crash model: the process dies before the temp file is synced
        // and renamed. The previous checkpoint is untouched.
        return Err(JournalError::Fault {
            site: faultpoint::CHECKPOINT_FSYNC_FAIL,
        });
    }
    file.sync_data().map_err(io_err("checkpoint sync"))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err("checkpoint rename"))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads and fully validates the checkpoint at `path`: magic, version,
/// every section checksum, the route encoding, and the embedded image
/// (which goes through the image loader's own corruption rejection).
///
/// # Errors
///
/// Returns a [`JournalError`] naming the first rejected structure.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(io_err("checkpoint read"))?;
    let mut c = Cursor::new(&bytes);
    if c.take(4, "checkpoint magic")? != CHECKPOINT_MAGIC {
        return Err(JournalError::BadMagic { what: "checkpoint" });
    }
    let version = c.u16("checkpoint version")?;
    if version != CHECKPOINT_VERSION {
        return Err(JournalError::UnsupportedVersion { version });
    }
    let header = c.section("checkpoint header")?;
    let mut h = Cursor::new(header);
    let generation = h.u64("checkpoint generation")?;
    let family = family_of_tag(h.u8("checkpoint family")?, "checkpoint family")?;
    let route_count = h.u64("route count")? as usize;
    h.finish("checkpoint header")?;
    let route_body = c.section("checkpoint routes")?;
    if route_body.len() != route_count * 21 {
        return Err(JournalError::Malformed {
            what: "route section length",
        });
    }
    let mut r = Cursor::new(route_body);
    let mut routes = Vec::with_capacity(route_count);
    for _ in 0..route_count {
        let len = r.u8("route length")?;
        let bits = r.u128("route bits")?;
        let nh = r.u32("route next hop")?;
        let prefix = Prefix::new(family, bits, len).map_err(|_| JournalError::Malformed {
            what: "route prefix",
        })?;
        routes.push((prefix, NextHop::new(nh)));
    }
    r.finish("checkpoint routes")?;
    let image_bytes = c.section("checkpoint image")?;
    c.finish("checkpoint")?;
    let image = HardwareImage::from_bytes(image_bytes).map_err(JournalError::Image)?;
    Ok(Checkpoint {
        generation,
        family,
        routes,
        image,
    })
}

/// What [`recover`] did, for reporting and for the crash-injection
/// harness's exactness assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the checkpoint recovery started from.
    pub checkpoint_generation: u64,
    /// Generation after the journal tail was replayed — the exact last
    /// durable pre-crash generation.
    pub final_generation: u64,
    /// Routes rebuilt from the checkpoint.
    pub checkpoint_routes: usize,
    /// Journal records replayed (each advanced the generation by one).
    pub replayed_records: usize,
    /// Events inside the replayed records.
    pub replayed_events: usize,
    /// Records at or below the checkpoint generation, skipped (a crash
    /// between checkpoint rename and journal rotation leaves them).
    pub skipped_records: usize,
    /// Bytes of torn journal tail discarded.
    pub truncated_bytes: u64,
}

/// A recovered control plane: the shared engine republished at the
/// pre-crash generation, plus what it took to get there.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered engine, at [`RecoveryReport::final_generation`].
    pub shared: SharedChisel,
    /// Recovery accounting.
    pub report: RecoveryReport,
}

/// Recovers a control plane from `checkpoint` + `journal`, deriving the
/// engine configuration (the paper's design point) from the checkpoint's
/// address family. See [`recover_with_config`].
///
/// # Errors
///
/// Propagates every [`recover_with_config`] error.
pub fn recover(checkpoint: &Path, journal: &Path) -> Result<Recovered, JournalError> {
    let ckpt = read_checkpoint(checkpoint)?;
    let config = match ckpt.family {
        AddressFamily::V4 => ChiselConfig::ipv4(),
        AddressFamily::V6 => ChiselConfig::ipv6(),
    };
    recover_with_config(ckpt, journal, config)
}

/// The recovery path: rebuild an engine from the checkpoint's route
/// set, cross-check it against the checkpointed image's answers, replay
/// the journal tail on that bare engine one record per generation, and
/// wrap the result once at the last replayed stamp. No reader exists
/// yet, so no intermediate generation is published.
///
/// The landing generation is *provably* the last durable pre-crash
/// generation: every replayed record must carry the exact stamp that
/// follows its predecessor ([`JournalError::GenerationGap`] otherwise), the
/// stamps are strictly monotonic by journal contract, and a record the
/// crashed process never finished appending was truncated by the
/// scanner — so the final generation equals the last intact record's
/// stamp (or the checkpoint's, for an empty tail).
///
/// # Errors
///
/// Returns a typed [`JournalError`] for an invalid checkpoint or
/// journal, a family/config mismatch, a generation gap, a rejected
/// replay, or an answer divergence between the rebuilt engine and the
/// checkpointed image.
pub fn recover_with_config(
    checkpoint: Checkpoint,
    journal: &Path,
    config: ChiselConfig,
) -> Result<Recovered, JournalError> {
    if config.family != checkpoint.family {
        return Err(JournalError::FamilyMismatch {
            stored: checkpoint.family,
            expected: config.family,
        });
    }
    let mut table = match checkpoint.family {
        AddressFamily::V4 => RoutingTable::new_v4(),
        AddressFamily::V6 => RoutingTable::new_v6(),
    };
    for &(prefix, next_hop) in &checkpoint.routes {
        table.insert(prefix, next_hop);
    }
    let mut engine = ChiselLpm::build(&table, config).map_err(JournalError::Engine)?;
    // Cross-check: the rebuilt engine must answer exactly as the
    // checkpointed image does — one probe inside every route.
    for &(prefix, _) in &checkpoint.routes {
        let key = prefix.first_key();
        if engine.lookup(key) != checkpoint.image.lookup(key) {
            return Err(JournalError::CheckpointDiverged { key });
        }
    }
    let mut generation = checkpoint.generation;
    let scan = read_journal(journal, checkpoint.family)?;
    let mut report = RecoveryReport {
        checkpoint_generation: checkpoint.generation,
        final_generation: checkpoint.generation,
        checkpoint_routes: checkpoint.routes.len(),
        replayed_records: 0,
        replayed_events: 0,
        skipped_records: 0,
        truncated_bytes: scan.truncated_bytes,
    };
    for record in &scan.records {
        if record.generation <= checkpoint.generation {
            report.skipped_records += 1;
            continue;
        }
        let expected = generation + 1;
        if record.generation != expected {
            return Err(JournalError::GenerationGap {
                expected,
                got: record.generation,
            });
        }
        let batch = engine
            .apply_batch(&record.events)
            .map_err(JournalError::Engine)?;
        if !batch.rejected_events.is_empty() {
            return Err(JournalError::ReplayRejected {
                generation: record.generation,
                rejected: batch.rejected_events.len(),
            });
        }
        generation = expected;
        report.replayed_records += 1;
        report.replayed_events += record.events.len();
    }
    report.final_generation = generation;
    let shared = SharedChisel::from_engine_at(engine, generation);
    Ok(Recovered { shared, report })
}

/// Where the durable control plane keeps its files and how often it
/// checkpoints.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Journal file path.
    pub journal: PathBuf,
    /// Checkpoint file path.
    pub checkpoint: PathBuf,
    /// Accepted events between periodic checkpoints; `0` checkpoints
    /// only on [`DurableControl::create`] and explicit
    /// [`DurableControl::checkpoint`] calls.
    pub checkpoint_every: u64,
    /// Whether every journal append is fsynced before it is
    /// acknowledged (the durability promise; disable only in tests).
    pub fsync: bool,
}

impl DurableOptions {
    /// Options rooted at `journal`, with the checkpoint beside it at
    /// `<journal>.ckpt`, checkpointing every `checkpoint_every` events.
    pub fn at(journal: impl Into<PathBuf>, checkpoint_every: u64) -> Self {
        let journal = journal.into();
        let mut ckpt_name = journal.file_name().unwrap_or_default().to_os_string();
        ckpt_name.push(".ckpt");
        let checkpoint = journal.with_file_name(ckpt_name);
        DurableOptions {
            journal,
            checkpoint,
            checkpoint_every,
            fsync: true,
        }
    }
}

/// Counters of one [`DurableControl`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Journal records appended: one per published window, none for a
    /// window that accepted nothing.
    pub appended_records: u64,
    /// Events inside those records.
    pub appended_events: u64,
    /// Checkpoints written (including the one at creation).
    pub checkpoints: u64,
}

/// The two failure planes of a durable update.
#[derive(Debug)]
pub enum DurableError {
    /// The engine rejected the update — nothing was published, nothing
    /// journaled; state is unchanged and the caller may continue.
    Engine(ChiselError),
    /// The update published but could not be made durable (or a
    /// checkpoint failed). The caller must treat this as fatal: lookups
    /// already see the update, but a crash would lose it.
    Journal(JournalError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Engine(e) => write!(f, "{e}"),
            DurableError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Engine(e) => Some(e),
            DurableError::Journal(e) => Some(e),
        }
    }
}

/// The durable write side of a [`SharedChisel`]: apply-then-append with
/// periodic checkpoint + journal rotation.
///
/// Single-writer: route every update of a control plane through one
/// `DurableControl` (concurrent writers through other handles of the
/// same `SharedChisel` would journal interleaved generations).
///
/// The durability contract is the redo-log one: an update is *durable*
/// once the method returns `Ok` (its record is on disk); an update
/// whose append failed mid-write is published to readers but will be
/// rolled back by recovery — which is why [`DurableError::Journal`]
/// must be treated as fatal.
#[derive(Debug)]
pub struct DurableControl {
    shared: SharedChisel,
    writer: JournalWriter,
    opts: DurableOptions,
    family: AddressFamily,
    durable_generation: u64,
    events_since_checkpoint: u64,
    stats: DurableStats,
}

impl DurableControl {
    /// Wraps `shared`: writes a checkpoint of its current snapshot and
    /// starts a fresh journal. Also the post-[`recover`] re-entry
    /// point — creating a `DurableControl` on a recovered handle
    /// compacts the old journal tail into the new checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] if the checkpoint or journal cannot be
    /// written.
    pub fn create(shared: SharedChisel, opts: DurableOptions) -> Result<Self, JournalError> {
        let snapshot = shared.snapshot();
        let family = snapshot.engine().config().family;
        write_checkpoint(&opts.checkpoint, &snapshot)?;
        let writer = JournalWriter::create(&opts.journal, family, opts.fsync)?;
        let durable_generation = snapshot.generation();
        Ok(DurableControl {
            shared,
            writer,
            opts,
            family,
            durable_generation,
            events_since_checkpoint: 0,
            stats: DurableStats {
                checkpoints: 1,
                ..DurableStats::default()
            },
        })
    }

    /// The shared engine handle (read side).
    pub fn shared(&self) -> &SharedChisel {
        &self.shared
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DurableStats {
        &self.stats
    }

    /// The last generation known durable: covered by the checkpoint or
    /// an acknowledged journal record. Recovery lands exactly here.
    pub fn durable_generation(&self) -> u64 {
        self.durable_generation
    }

    /// Durable update window: publish one generation through
    /// [`SharedChisel::apply_batch`], then append the window's
    /// *accepted* events as one record (a torn window can never replay
    /// partially — the record is the atom). A window that accepted
    /// nothing published nothing, so it appends nothing either. A single
    /// update is a window of one.
    ///
    /// # Errors
    ///
    /// [`DurableError::Engine`] on a failed window (state unchanged);
    /// [`DurableError::Journal`] on a durability failure (fatal). A
    /// window with per-event rejections is `Ok` (inspect the
    /// [`BatchReport`]), matching the non-durable batch path.
    pub fn apply_batch(&mut self, events: &[RouteUpdate]) -> Result<BatchReport, DurableError> {
        let batch = self
            .shared
            .apply_batch(events)
            .map_err(DurableError::Engine)?;
        if batch.accepted() == 0 {
            return Ok(batch);
        }
        let accepted: Vec<RouteUpdate> = batch.accepted_events(events).copied().collect();
        let generation = self.shared.generation();
        self.writer
            .append(generation, &accepted)
            .map_err(DurableError::Journal)?;
        self.durable_generation = generation;
        self.stats.appended_records += 1;
        self.stats.appended_events += accepted.len() as u64;
        self.events_since_checkpoint += accepted.len() as u64;
        if self.opts.checkpoint_every > 0
            && self.events_since_checkpoint >= self.opts.checkpoint_every
        {
            self.checkpoint().map_err(DurableError::Journal)?;
        }
        Ok(batch)
    }

    /// Forces a checkpoint of the current snapshot, then rotates the
    /// journal (the tail up to the checkpoint is now redundant). A
    /// failed checkpoint leaves the previous checkpoint *and* the
    /// un-rotated journal intact, so durability never regresses.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] if the checkpoint or the fresh journal
    /// cannot be written.
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        let snapshot = self.shared.snapshot();
        write_checkpoint(&self.opts.checkpoint, &snapshot)?;
        // Only after the rename landed is the old journal redundant.
        self.writer = JournalWriter::create(&self.opts.journal, self.family, self.opts.fsync)?;
        self.durable_generation = self.durable_generation.max(snapshot.generation());
        self.events_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chisel_prefix::AddressFamily;

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chisel-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn unique(dir: &Path, name: &str, tag: &str) -> PathBuf {
        dir.join(format!("{tag}-{name}"))
    }

    fn shared() -> SharedChisel {
        let mut t = RoutingTable::new_v4();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
        for i in 0..16u128 {
            t.insert(
                Prefix::new(AddressFamily::V4, 0x0A00 | i, 16).unwrap(),
                NextHop::new(10 + i as u32),
            );
        }
        SharedChisel::build(&t, ChiselConfig::ipv4()).unwrap()
    }

    fn sample_events() -> Vec<JournalRecord> {
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        vec![
            JournalRecord {
                generation: 1,
                events: vec![RouteUpdate::Announce(p("11.0.0.0/8"), NextHop::new(7))],
            },
            JournalRecord {
                generation: 2,
                events: vec![
                    RouteUpdate::Withdraw(p("11.0.0.0/8")),
                    RouteUpdate::Announce(p("12.34.0.0/16"), NextHop::new(9)),
                ],
            },
            JournalRecord {
                generation: 5,
                events: vec![],
            },
        ]
    }

    fn write_records(path: &Path, records: &[JournalRecord]) {
        let mut w = JournalWriter::create(path, AddressFamily::V4, false).unwrap();
        for r in records {
            w.append(r.generation, &r.events).unwrap();
        }
    }

    #[test]
    fn journal_round_trips() {
        let path = unique(&tempdir(), "roundtrip.journal", "unit");
        let records = sample_events();
        write_records(&path, &records);
        let scan = read_journal(&path, AddressFamily::V4).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.family, AddressFamily::V4);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = unique(&tempdir(), "torn.journal", "unit");
        let records = sample_events();
        write_records(&path, &records);
        let bytes = std::fs::read(&path).unwrap();
        let full = scan_journal(&bytes).unwrap();
        assert_eq!(full.valid_len as usize, bytes.len());
        for cut in 0..bytes.len() {
            let scan = scan_journal(&bytes[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut} must truncate, not reject: {e}");
            });
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records[..], records[..scan.records.len()]);
            assert_eq!(scan.valid_len + scan.truncated_bytes, cut as u64);
        }
    }

    #[test]
    fn corrupt_records_are_typed_rejections() {
        let path = unique(&tempdir(), "corrupt.journal", "unit");
        write_records(&path, &sample_events());
        let bytes = std::fs::read(&path).unwrap();

        // Flip one bit inside the first record's body.
        let mut flipped = bytes.clone();
        flipped[JOURNAL_HEADER_LEN + FRAME_PRELUDE_LEN + 2] ^= 0x40;
        assert!(matches!(
            scan_journal(&flipped),
            Err(JournalError::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut magic = bytes.clone();
        magic[1] = b'X';
        assert!(matches!(
            scan_journal(&magic),
            Err(JournalError::BadMagic { .. })
        ));

        // Unknown version.
        let mut version = bytes.clone();
        version[4] = 0x77;
        assert!(matches!(
            scan_journal(&version),
            Err(JournalError::UnsupportedVersion { version: 0x77 })
        ));

        // Bad family tag.
        let mut family = bytes;
        family[6] = 9;
        assert!(matches!(
            scan_journal(&family),
            Err(JournalError::Malformed { .. })
        ));
    }

    #[test]
    fn non_monotonic_stamps_are_rejected() {
        let path = unique(&tempdir(), "monotonic.journal", "unit");
        let mut w = JournalWriter::create(&path, AddressFamily::V4, false).unwrap();
        w.append(3, &[]).unwrap();
        w.append(3, &[]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(matches!(
            scan_journal(&bytes),
            Err(JournalError::NonMonotonic { prev: 3, got: 3 })
        ));
    }

    #[test]
    fn missing_journal_is_empty() {
        let scan = read_journal(
            &unique(&tempdir(), "never-created.journal", "unit"),
            AddressFamily::V4,
        )
        .unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn checkpoint_round_trips_and_recovers() {
        let dir = tempdir();
        let ckpt = unique(&dir, "rt.ckpt", "unit");
        let journal = unique(&dir, "rt.journal", "unit");
        let s = shared();
        s.announce("99.0.0.0/8".parse().unwrap(), NextHop::new(42))
            .unwrap();
        write_checkpoint(&ckpt, &s.snapshot()).unwrap();
        let parsed = read_checkpoint(&ckpt).unwrap();
        assert_eq!(parsed.generation, 1);
        assert_eq!(parsed.family, AddressFamily::V4);
        assert_eq!(parsed.routes.len(), s.len());
        let rec = recover(&ckpt, &journal).unwrap();
        assert_eq!(rec.report.final_generation, 1);
        assert_eq!(rec.report.replayed_records, 0);
        assert_eq!(
            rec.shared.lookup("99.1.2.3".parse().unwrap()),
            Some(NextHop::new(42))
        );
        assert_eq!(rec.shared.generation(), 1);
    }

    #[test]
    fn durable_control_journal_and_rotation() {
        let dir = tempdir();
        let journal = unique(&dir, "dc.journal", "unit");
        let opts = DurableOptions {
            fsync: false,
            ..DurableOptions::at(&journal, 4)
        };
        let s = shared();
        let mut dc = DurableControl::create(s.clone(), opts).unwrap();
        assert_eq!(dc.stats().checkpoints, 1);
        for i in 0..6u32 {
            let p = Prefix::new(AddressFamily::V4, 0x1500 | u128::from(i), 16).unwrap();
            dc.apply_batch(&[RouteUpdate::Announce(p, NextHop::new(200 + i))])
                .unwrap();
        }
        // checkpoint_every = 4: one periodic rotation happened, so the
        // journal holds only the post-rotation tail.
        assert_eq!(dc.stats().checkpoints, 2);
        assert_eq!(dc.durable_generation(), 6);
        let scan = read_journal(&journal, AddressFamily::V4).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].generation, 5);

        // Recovery from the rotated pair lands at the exact generation.
        let rec = recover(&DurableOptions::at(&journal, 0).checkpoint, &journal).unwrap();
        assert_eq!(rec.report.final_generation, 6);
        for i in 0..6u32 {
            let k = Key::from_raw(AddressFamily::V4, (0x1500 | u128::from(i)) << 16 | 1);
            assert_eq!(rec.shared.lookup(k), Some(NextHop::new(200 + i)));
        }
    }

    #[test]
    fn window_accepting_nothing_publishes_and_journals_nothing() {
        let dir = tempdir();
        let journal = unique(&dir, "empty-window.journal", "unit");
        let opts = DurableOptions {
            fsync: false,
            ..DurableOptions::at(&journal, 0)
        };
        let mut dc = DurableControl::create(shared(), opts).unwrap();
        let v6 = RouteUpdate::Announce("2001:db8::/32".parse().unwrap(), NextHop::new(3));
        let report = dc.apply_batch(&[v6]).unwrap();
        assert_eq!(report.accepted(), 0);
        assert_eq!(dc.shared().generation(), 0);
        assert_eq!(dc.durable_generation(), 0);
        assert_eq!(dc.stats().appended_records, 0);
        let scan = read_journal(&journal, AddressFamily::V4).unwrap();
        assert!(scan.records.is_empty());
    }

    #[test]
    fn empty_record_from_an_older_writer_still_recovers() {
        let dir = tempdir();
        let ckpt = unique(&dir, "older.ckpt", "unit");
        let journal = unique(&dir, "older.journal", "unit");
        write_checkpoint(&ckpt, &shared().snapshot()).unwrap();
        let mut w = JournalWriter::create(&journal, AddressFamily::V4, false).unwrap();
        w.append(1, &[]).unwrap();
        let p: Prefix = "99.0.0.0/8".parse().unwrap();
        w.append(2, &[RouteUpdate::Announce(p, NextHop::new(42))])
            .unwrap();
        let rec = recover(&ckpt, &journal).unwrap();
        assert_eq!(rec.report.final_generation, 2);
        assert_eq!(rec.report.replayed_records, 2);
        assert_eq!(rec.shared.generation(), 2);
        assert_eq!(
            rec.shared.lookup("99.1.2.3".parse().unwrap()),
            Some(NextHop::new(42))
        );
    }

    #[test]
    fn gap_in_replay_is_rejected() {
        let dir = tempdir();
        let ckpt = unique(&dir, "gap.ckpt", "unit");
        let journal = unique(&dir, "gap.journal", "unit");
        let s = shared();
        write_checkpoint(&ckpt, &s.snapshot()).unwrap();
        let mut w = JournalWriter::create(&journal, AddressFamily::V4, false).unwrap();
        // Generation 2 cannot replay onto a generation-0 checkpoint.
        w.append(2, &[RouteUpdate::Withdraw("10.0.0.0/8".parse().unwrap())])
            .unwrap();
        assert!(matches!(
            recover(&ckpt, &journal),
            Err(JournalError::GenerationGap {
                expected: 1,
                got: 2
            })
        ));
    }
}
