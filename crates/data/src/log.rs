//! Append-only record log with torn-tail recovery: the on-disk framing
//! shared by the durable chunk segments and the metadata journal.
//!
//! A log file starts with the 8-byte [`LOG_MAGIC`] (a 7-byte tag and a
//! format version byte), written together with the first record. Every
//! record then travels as `[u32 len LE][u64 checksum LE][payload]`,
//! where the checksum is the XXH64 [`Digest`] of the payload bytes. A
//! crash — including `kill -9` mid-`write` — can leave at most a *torn
//! tail*: a prefix of a record at the end of the file. [`RecordLog::open`]
//! scans the file front to back, stops at the first record that is
//! short, oversized or checksum-corrupt, and truncates the file back to
//! the last good byte. Truncation matters: appending after an
//! untruncated torn tail would strand every later record behind
//! unparseable bytes, silently losing them on the *next* replay.
//! [`RecordLog::scan`] applies the same checks read-only, holding one
//! record at a time, for callers that must not modify the file.
//!
//! A non-empty file that does not start with the magic — a log of an
//! older format, or another file altogether — is refused with
//! [`io::ErrorKind::InvalidData`] and left untouched: replaying it as
//! "torn at record 0" would truncate acked data away. A file shorter
//! than the magic and a prefix of it is a crash during the first append
//! (nothing in it was ever acked) and is reset to empty.
//!
//! The file is created lazily on first append, so opening a log that is
//! never written leaves no artifact on disk — a server process that
//! hosts only manager roles never materializes provider segment files.
//!
//! Policy split, matching the recovery model:
//! - **Replay never panics.** Any corruption maps to "discard the
//!   tail"; callers decide what a lost suffix means.
//! - **Live appends are fail-stop.** An I/O error while the process is
//!   the active writer means the durability contract can no longer be
//!   honored, so append/sync return the error and callers escalate.

use crate::Digest;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// The first bytes of every log file: the tag `bffrlog` and the format
/// version (1: XXH64 record checksums).
pub const LOG_MAGIC: [u8; 8] = *b"bffrlog\x01";

/// Byte offset of the first record (the magic's length).
const FIRST_RECORD: u64 = LOG_MAGIC.len() as u64;

/// Framing overhead per record: u32 length + u64 checksum.
pub const RECORD_HEADER: u64 = 12;

/// Upper bound on a single record's payload. Anything larger in a
/// length header is treated as corruption, which stops a flipped
/// high bit from triggering a multi-gigabyte allocation during replay.
pub const MAX_RECORD: u32 = 256 << 20;

/// The record checksum. Not cryptographic: it exists to catch torn
/// writes and bit rot, not adversaries.
fn checksum(payload: &[u8]) -> u64 {
    Digest::of(payload).0
}

/// One recovered record: its byte offset in the file (header included)
/// and its payload.
pub type Recovered = (u64, Vec<u8>);

/// How a scan of a log file ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEnd {
    /// Byte offset just past the last intact record (0 when the file is
    /// empty or torn inside the magic).
    pub good_end: u64,
    /// Whether the scan reached the end of the file on a record
    /// boundary, with no short, oversized or checksum-corrupt record.
    pub clean: bool,
}

/// Read `file` from its start, handing each intact record to `visit`
/// (one payload buffer, reused), and stop at the first bad one.
fn scan_file(
    file: &File,
    path: &Path,
    mut visit: impl FnMut(u64, &[u8]) -> io::Result<()>,
) -> io::Result<ScanEnd> {
    let file_len = file.metadata()?.len();
    let mut r = BufReader::with_capacity(1 << 16, file);
    let mut magic = [0u8; FIRST_RECORD as usize];
    let head = &mut magic[..file_len.min(FIRST_RECORD) as usize];
    r.read_exact(head)?;
    if file_len < FIRST_RECORD && LOG_MAGIC.starts_with(head) {
        // Empty, or torn while the first append wrote the magic.
        return Ok(ScanEnd {
            good_end: 0,
            clean: file_len == 0,
        });
    }
    if magic != LOG_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: not a record log of format version {}",
                path.display(),
                LOG_MAGIC[7]
            ),
        ));
    }
    let mut pos = FIRST_RECORD;
    let mut payload = Vec::new();
    while pos < file_len {
        let torn = ScanEnd {
            good_end: pos,
            clean: false,
        };
        if file_len - pos < RECORD_HEADER {
            return Ok(torn);
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        // Checked against the file length before allocating, so a
        // flipped length bit cannot trigger a huge allocation.
        if len > MAX_RECORD || file_len - pos - RECORD_HEADER < len as u64 {
            return Ok(torn);
        }
        payload.resize(len as usize, 0);
        r.read_exact(&mut payload)?;
        if checksum(&payload) != sum {
            return Ok(torn);
        }
        visit(pos, &payload)?;
        pos += RecordLog::framed_len(payload.len());
    }
    Ok(ScanEnd {
        good_end: pos,
        clean: true,
    })
}

/// An append-only checksummed record file.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    /// Open lazily: `None` until the first append (or if the file
    /// already existed at open).
    file: Option<File>,
    /// Byte length of the durable prefix (file size after truncation).
    len: u64,
    /// Whether bytes were appended since the last `sync`.
    dirty: bool,
}

impl RecordLog {
    /// Open (or prepare to create) the log at `path`, replaying every
    /// intact record. Returns the records in append order, the log
    /// positioned for appends, and whether a torn/corrupt tail was
    /// discarded. A non-empty file without [`LOG_MAGIC`] fails with
    /// [`io::ErrorKind::InvalidData`] and is not modified.
    pub fn open(path: &Path) -> io::Result<(Vec<Recovered>, RecordLog, bool)> {
        let mut records = Vec::new();
        let mut torn = false;
        let mut good_end = 0u64;
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(mut f) => {
                let end = scan_file(&f, path, |off, payload| {
                    records.push((off, payload.to_vec()));
                    Ok(())
                })?;
                torn = !end.clean;
                good_end = end.good_end;
                if torn {
                    // Chop the tail so future appends extend a clean
                    // prefix instead of burying themselves behind it.
                    f.set_len(good_end)?;
                    f.sync_data()?;
                }
                f.seek(SeekFrom::Start(good_end))?;
                Some(f)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let log = RecordLog {
            path: path.to_path_buf(),
            file,
            len: good_end,
            dirty: false,
        };
        Ok((records, log, torn))
    }

    /// Stream the log at `path` without modifying it: every intact
    /// record goes to `visit` with its frame offset, one at a time, and
    /// the scan stops at the first record [`RecordLog::open`] would
    /// truncate at. An error from `visit` ends the scan and is returned.
    pub fn scan(
        path: &Path,
        visit: impl FnMut(u64, &[u8]) -> io::Result<()>,
    ) -> io::Result<ScanEnd> {
        scan_file(&File::open(path)?, path, visit)
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durable byte length (magic and framing included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= FIRST_RECORD
    }

    /// Framed size of a payload of `n` bytes.
    pub fn framed_len(n: usize) -> u64 {
        RECORD_HEADER + n as u64
    }

    fn ensure_file(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            self.file = Some(f);
        }
        Ok(self.file.as_mut().unwrap())
    }

    /// Append one record, returning the offset its frame starts at.
    /// The record is written with a single `write_all`, so the kernel
    /// sees header and payload together (and, for the first record, the
    /// file's magic too); durability still requires [`RecordLog::sync`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "record exceeds MAX_RECORD"
        );
        let magic: &[u8] = if self.len == 0 { &LOG_MAGIC } else { &[] };
        let off = self.len + magic.len() as u64;
        let mut frame = Vec::with_capacity(magic.len() + RECORD_HEADER as usize + payload.len());
        frame.extend_from_slice(magic);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let file = self.ensure_file()?;
        file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.dirty = true;
        Ok(off)
    }

    /// Read back `len` payload bytes of the record whose frame starts at
    /// `off`, verifying the checksum. Returns `None` (never panics, never
    /// returns corrupt bytes) if the stored record fails verification —
    /// the caller treats that as data loss on this replica.
    pub fn read_record(&self, off: u64, len: u32) -> io::Result<Option<Vec<u8>>> {
        let Some(file) = self.file.as_ref() else {
            return Ok(None);
        };
        if off < FIRST_RECORD || off + Self::framed_len(len as usize) > self.len {
            return Ok(None);
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        if file.read_exact_at(&mut header, off).is_err() {
            return Ok(None);
        }
        let stored_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if stored_len != len {
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        if file
            .read_exact_at(&mut payload, off + RECORD_HEADER)
            .is_err()
        {
            return Ok(None);
        }
        if checksum(&payload) != sum {
            return Ok(None);
        }
        Ok(Some(payload))
    }

    /// Flush appended records to stable storage (`fdatasync`), holding
    /// on until the kernel confirms. No-op if nothing was appended since
    /// the last sync (or [`RecordLog::sync_handle`] claim). Returns
    /// whether an fdatasync was actually issued.
    pub fn sync(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        if let Some(f) = self.file.as_mut() {
            f.sync_data()?;
        }
        self.dirty = false;
        Ok(true)
    }

    /// Claim the pending appends for an *out-of-lock* fsync: returns an
    /// independently-owned handle (`try_clone`) to the underlying file
    /// and clears the dirty flag, or `None` when nothing was appended
    /// since the last sync. The caller must `sync_data` the handle
    /// before acking anything appended before this call — this is how a
    /// group-commit leader fsyncs the log while appenders keep the
    /// owning lock busy.
    ///
    /// Two caveats, both on the claimer:
    /// - the dirty flag is cleared *before* the fsync completes, so a
    ///   concurrent per-ack [`RecordLog::sync`] may no-op against an
    ///   in-flight claim — the two disciplines must not be mixed on one
    ///   log (a group-commit leader is exclusive by construction);
    /// - an fsync failure after the claim loses the flag; callers are
    ///   fail-stop on live sync errors, matching the module policy.
    pub fn sync_handle(&mut self) -> io::Result<Option<File>> {
        if !self.dirty {
            return Ok(None);
        }
        let f = self
            .file
            .as_ref()
            .expect("dirty log has an open file")
            .try_clone()?;
        self.dirty = false;
        Ok(Some(f))
    }

    /// `fdatasync` unconditionally, even when the dirty flag was claimed
    /// by an in-flight [`RecordLog::sync_handle`] holder. The seal
    /// barriers (segment rotation and compaction) use this so "sealed ⇒
    /// durable" holds regardless of what a concurrent group-commit
    /// leader has claimed but not yet flushed.
    pub fn sync_force(&mut self) -> io::Result<()> {
        if let Some(f) = self.file.as_mut() {
            f.sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bff-log-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = scratch("roundtrip");
        let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
        assert!(recs.is_empty() && !torn);
        let o1 = log.append(b"alpha").unwrap();
        let o2 = log.append(b"beta-bytes").unwrap();
        log.sync().unwrap();
        assert_eq!(log.read_record(o1, 5).unwrap().unwrap(), b"alpha");
        drop(log);
        let (recs, log, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (o1, b"alpha".to_vec()));
        assert_eq!(recs[1], (o2, b"beta-bytes".to_vec()));
        assert_eq!(log.read_record(o2, 10).unwrap().unwrap(), b"beta-bytes");
    }

    #[test]
    fn unwritten_log_leaves_no_file() {
        let path = scratch("lazy");
        let (_, log, _) = RecordLog::open(&path).unwrap();
        drop(log);
        assert!(!path.exists());
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let path = scratch("torn");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        log.append(b"keep-me").unwrap();
        log.append(b"lose-me").unwrap();
        log.sync().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        drop(log);
        // Tear the second record three bytes short of complete.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
        assert!(torn);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"keep-me");
        // Appends extend the clean prefix.
        log.append(b"after").unwrap();
        log.sync().unwrap();
        drop(log);
        let (recs, _, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, b"after");
    }

    #[test]
    fn scan_streams_records_and_stops_read_only_at_a_flip() {
        let path = scratch("scan");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        let offs: Vec<u64> = [&b"one"[..], b"two-two", b"three"]
            .iter()
            .map(|p| log.append(p).unwrap())
            .collect();
        log.sync().unwrap();
        let len = log.len();
        drop(log);
        let scan = |path: &Path| {
            let mut seen = Vec::new();
            let end = RecordLog::scan(path, |off, p| {
                seen.push((off, p.to_vec()));
                Ok(())
            })
            .unwrap();
            (seen, end)
        };
        let (seen, end) = scan(&path);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[1], (offs[1], b"two-two".to_vec()));
        assert_eq!(
            end,
            ScanEnd {
                good_end: len,
                clean: true
            }
        );

        // Flip a payload byte of the middle record: the scan stops
        // there and leaves the file as it was.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(offs[1] + RECORD_HEADER) as usize] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let (seen, end) = scan(&path);
        assert_eq!(seen, vec![(offs[0], b"one".to_vec())]);
        assert_eq!(
            end,
            ScanEnd {
                good_end: offs[1],
                clean: false
            }
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        std::fs::write(&path, b"not a log").unwrap();
        let err = RecordLog::scan(&path, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_payload_rejected_on_read_and_replay() {
        let path = scratch("corrupt");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        let off = log.append(b"pristine").unwrap();
        log.sync().unwrap();
        drop(log);
        // Flip a payload byte in place.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"X", FIRST_RECORD + RECORD_HEADER + 2)
            .unwrap();
        drop(f);
        let (recs, log, torn) = RecordLog::open(&path).unwrap();
        assert!(torn, "checksum mismatch discards the record");
        assert!(recs.is_empty());
        assert_eq!(log.read_record(off, 8).unwrap(), None);
    }

    #[test]
    fn absurd_length_header_is_corruption_not_alloc() {
        let path = scratch("hugelen");
        let mut file = LOG_MAGIC.to_vec();
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, file).unwrap();
        let (recs, _, torn) = RecordLog::open(&path).unwrap();
        assert!(torn);
        assert!(recs.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), LOG_MAGIC, "magic kept");
    }

    #[test]
    fn first_append_writes_the_magic() {
        let path = scratch("magic");
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        assert!(log.is_empty());
        let off = log.append(b"first").unwrap();
        assert_eq!(off, FIRST_RECORD);
        assert!(!log.is_empty());
        assert_eq!(log.len(), FIRST_RECORD + RecordLog::framed_len(5));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..LOG_MAGIC.len()], LOG_MAGIC);
        assert_eq!(bytes.len() as u64, log.len());
        assert_eq!(log.read_record(off, 5).unwrap().unwrap(), b"first");
    }

    #[test]
    fn one_bit_flip_in_a_64k_record_is_caught() {
        let path = scratch("bitflip");
        let payload: Vec<u8> = (0..64u32 << 10).map(|i| ((i * 131) >> 3) as u8).collect();
        let (_, mut log, _) = RecordLog::open(&path).unwrap();
        let off = log.append(&payload).unwrap();
        log.sync().unwrap();
        drop(log);
        let pristine = std::fs::read(&path).unwrap();
        let frame = RecordLog::framed_len(payload.len());
        // Every byte of the frame header, a coprime stride through the
        // payload (cycling the bit too), and the last byte.
        let targets = (0..RECORD_HEADER)
            .chain((RECORD_HEADER..frame).step_by(251))
            .chain([frame - 1]);
        for (i, at) in targets.enumerate() {
            let mut damaged = pristine.clone();
            damaged[(off + at) as usize] ^= 1 << (i % 8);
            std::fs::write(&path, &damaged).unwrap();
            let (recs, log, torn) = RecordLog::open(&path).unwrap();
            assert_eq!(log.read_record(off, payload.len() as u32).unwrap(), None);
            assert!(
                torn && recs.is_empty(),
                "flip at frame byte {at} not caught"
            );
            drop(log);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                LOG_MAGIC,
                "open truncates the damaged record"
            );
        }
        // The bit-flip check above also holds without a reopen: a
        // damaged record on a live log reads back as `None`.
        std::fs::write(&path, &pristine).unwrap();
        let (recs, log, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn && recs.len() == 1);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let last = pristine.len() - 1;
        f.write_all_at(&[pristine[last] ^ 0x80], last as u64)
            .unwrap();
        assert_eq!(log.read_record(off, payload.len() as u32).unwrap(), None);
    }

    #[test]
    fn headerless_file_is_refused_untouched() {
        // A log of the previous format: one `[len][checksum][payload]`
        // frame and no magic.
        let path = scratch("headerless");
        let mut old = Vec::new();
        old.extend_from_slice(&5u32.to_le_bytes());
        old.extend_from_slice(&0x1234_5678_9abc_def0u64.to_le_bytes());
        old.extend_from_slice(b"acked");
        for bytes in [&old[..], &old[..3], b"bffrlog\x00"] {
            std::fs::write(&path, bytes).unwrap();
            let err = RecordLog::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file left untouched");
        }
    }

    #[test]
    fn torn_magic_is_reset() {
        let path = scratch("tornmagic");
        for k in 1..LOG_MAGIC.len() {
            std::fs::write(&path, &LOG_MAGIC[..k]).unwrap();
            let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
            assert!(torn && recs.is_empty(), "{k}-byte magic prefix");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "reset");
            log.append(b"fresh").unwrap();
            drop(log);
            let (recs, _, torn) = RecordLog::open(&path).unwrap();
            assert!(!torn);
            assert_eq!(recs, vec![(FIRST_RECORD, b"fresh".to_vec())]);
        }
        // The whole magic and no record is a clean, empty log.
        std::fs::write(&path, LOG_MAGIC).unwrap();
        let (recs, mut log, torn) = RecordLog::open(&path).unwrap();
        assert!(!torn && recs.is_empty() && log.is_empty());
        assert_eq!(log.append(b"next").unwrap(), FIRST_RECORD);
    }
}
