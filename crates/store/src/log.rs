//! The append-only segment log: one CRC-framed record per accepted block.
//!
//! ## Record framing
//!
//! ```text
//! ┌──────────┬──────────┬───────────────┐
//! │ len: u32 │ crc: u32 │ payload (len) │   all little-endian
//! └──────────┴──────────┴───────────────┘
//! ```
//!
//! `crc` is the CRC-32 of the payload bytes. The payload is a
//! [`codec::encode_block`] encoding. A record is *committed* once all
//! `8 + len` bytes are durable; a crash mid-append leaves a *torn tail* —
//! a partial header, a partial payload, or a payload whose CRC does not
//! match — which [`scan`] detects and reports so recovery can truncate it.
//!
//! ## Recovery semantics
//!
//! [`scan`] decodes records front-to-back and stops at the **first**
//! damaged one, treating everything from that offset on as lost. This is
//! deliberately prefix-only: a bit flip in record *k* makes every later
//! record suspect (appends are sequential, so damage at *k* with intact
//! records after it means the storage lied about durability ordering), and
//! prefix semantics are what makes recovery reproducible — the recovered
//! state is exactly "the chain as of the last durable append".

use crate::codec::{self, DecodeError};
use crate::crc32::crc32;
use hashcore_chain::Block;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing before each payload (`len` + `crc`).
pub const RECORD_HEADER_LEN: usize = 8;

/// An open, append-only segment log file.
///
/// Appends are crash-ordered: the payload is framed in memory, written with
/// a single `write_all`, then (by default) fsynced before `append` returns —
/// so a record for block *n+1* can never be durable while block *n*'s is
/// not. Disabling [`SegmentLog::set_sync`] trades that guarantee for append
/// throughput; a crash may then lose any suffix of recent appends, which
/// recovery handles identically to a torn tail.
#[derive(Debug)]
pub struct SegmentLog {
    file: File,
    path: PathBuf,
    /// Bytes durably framed so far (committed length).
    len: u64,
    sync: bool,
}

impl SegmentLog {
    /// Creates the log file (truncating any existing file at `path`) and
    /// opens it for appending.
    ///
    /// # Errors
    ///
    /// Any I/O error from creation.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(SegmentLog {
            file,
            path: path.to_path_buf(),
            len: 0,
            sync: true,
        })
    }

    /// Opens an existing log for appending at `committed_len` — the valid
    /// prefix a [`scan`] reported. Any torn tail beyond it is truncated
    /// away first, so the next append lands at the committed boundary; a
    /// log that is already `committed_len` bytes long is not truncated,
    /// because a truncation that changes nothing still dirties the file's
    /// metadata and makes the fsync after it dearer. The log is fsynced
    /// either way: a process that crashed with per-append sync off may
    /// have left committed records that never reached the disk.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening, truncating or syncing.
    pub fn open_at(path: &Path, committed_len: u64) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() != committed_len {
            file.set_len(committed_len)?;
        }
        file.sync_all()?;
        let mut log = SegmentLog {
            file,
            path: path.to_path_buf(),
            len: committed_len,
            sync: true,
        };
        log.seek_to_end()?;
        Ok(log)
    }

    fn seek_to_end(&mut self) -> io::Result<()> {
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(self.len))?;
        Ok(())
    }

    /// Whether every append fsyncs before returning (default `true`).
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// The current per-append fsync policy.
    pub fn sync(&self) -> bool {
        self.sync
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed byte length of the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one block record and (when sync is on) makes it durable
    /// before returning.
    ///
    /// # Errors
    ///
    /// Any I/O error from the write or fsync.
    pub fn append(&mut self, block: &Block) -> io::Result<()> {
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + 256);
        frame.extend_from_slice(&[0u8; RECORD_HEADER_LEN]);
        codec::encode_block(block, &mut frame);
        let payload_len = (frame.len() - RECORD_HEADER_LEN) as u32;
        let crc = crc32(&frame[RECORD_HEADER_LEN..]);
        frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&frame)?;
        if self.sync {
            self.file.sync_data()?;
        }
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs any unsynced appends (a no-op when sync-per-append is on).
    ///
    /// # Errors
    ///
    /// Any I/O error from the fsync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Why a [`scan`] stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailFault {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained — a torn frame
    /// header.
    TornHeader,
    /// The frame declared more payload bytes than the file holds — a torn
    /// payload.
    TornPayload,
    /// The payload's CRC-32 does not match the frame — bit rot or a torn
    /// overwrite.
    ChecksumMismatch,
    /// The CRC passed but the payload failed to decode as a block — a
    /// format violation the checksum cannot see (e.g. written by newer
    /// code).
    Undecodable(DecodeError),
}

/// The result of scanning a segment log: every committed record, the byte
/// length of the valid prefix, and what (if anything) stopped the scan.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Blocks decoded from the committed prefix, in append order.
    pub blocks: Vec<Block>,
    /// Byte length of the valid prefix — `open_at` this to truncate the
    /// tail.
    pub committed_len: u64,
    /// `None` when the whole file scanned cleanly; otherwise the first
    /// fault, with everything after `committed_len` treated as lost.
    pub fault: Option<TailFault>,
}

impl ScanOutcome {
    /// Bytes of torn/corrupt tail the scan discarded.
    pub fn lost_bytes(&self, file_len: u64) -> u64 {
        file_len.saturating_sub(self.committed_len)
    }
}

/// Scans a log file front-to-back, decoding every committed record and
/// stopping at the first damaged one (see the module docs for why prefix
/// semantics).
///
/// # Errors
///
/// Only real I/O errors (open/read failures). Corruption is *not* an
/// error — it is reported in [`ScanOutcome::fault`].
pub fn scan(path: &Path) -> io::Result<ScanOutcome> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan_bytes(&bytes))
}

/// [`scan`] over an in-memory image — the pure core, used directly by the
/// fault-injection proptests to crash-test every byte offset without
/// touching disk.
pub fn scan_bytes(bytes: &[u8]) -> ScanOutcome {
    let mut blocks = Vec::new();
    let mut pos = 0usize;
    let fault = loop {
        if pos == bytes.len() {
            break None;
        }
        if bytes.len() - pos < RECORD_HEADER_LEN {
            break Some(TailFault::TornHeader);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + RECORD_HEADER_LEN;
        if bytes.len() - start < len {
            break Some(TailFault::TornPayload);
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            break Some(TailFault::ChecksumMismatch);
        }
        match codec::decode_block(payload) {
            Ok(block) => blocks.push(block),
            Err(error) => break Some(TailFault::Undecodable(error)),
        }
        pos = start + len;
    };
    ScanOutcome {
        blocks,
        committed_len: pos as u64,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use hashcore_chain::BlockHeader;

    fn block(tag: u8) -> Block {
        let transactions = vec![vec![tag; 5]];
        Block {
            header: BlockHeader {
                version: 1,
                prev_hash: [tag; 32],
                merkle_root: Block::merkle_root(&transactions),
                timestamp: u64::from(tag),
                target: [0xff; 32],
                nonce: 0,
            },
            transactions,
        }
    }

    #[test]
    fn a_clean_reopen_leaves_the_log_as_it_was_and_appends_at_its_end() {
        let dir = TempDir::new("clean-reopen").unwrap();
        let path = dir.path().join("log-0.log");
        let mut log = SegmentLog::create(&path).unwrap();
        for tag in 0..3 {
            log.append(&block(tag)).unwrap();
        }
        drop(log);
        let before = std::fs::read(&path).unwrap();
        let outcome = scan(&path).unwrap();
        assert_eq!(outcome.fault, None);
        assert_eq!(outcome.committed_len, before.len() as u64);

        let mut log = SegmentLog::open_at(&path, outcome.committed_len).unwrap();
        assert_eq!(log.len(), before.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        log.append(&block(3)).unwrap();
        drop(log);
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after[..before.len()], before[..]);
        let outcome = scan(&path).unwrap();
        assert_eq!(outcome.fault, None);
        assert_eq!(outcome.committed_len, after.len() as u64);
        assert_eq!(outcome.blocks, (0..4).map(block).collect::<Vec<_>>());
    }

    #[test]
    fn a_torn_reopen_truncates_the_file_to_its_committed_length() {
        let dir = TempDir::new("torn-reopen").unwrap();
        let path = dir.path().join("log-0.log");
        let mut log = SegmentLog::create(&path).unwrap();
        for tag in 0..2 {
            log.append(&block(tag)).unwrap();
        }
        drop(log);
        let committed = std::fs::read(&path).unwrap();
        // Half a frame header: a record whose append never finished.
        let mut torn = committed.clone();
        torn.extend_from_slice(&[0xAB; RECORD_HEADER_LEN / 2]);
        std::fs::write(&path, &torn).unwrap();
        let outcome = scan(&path).unwrap();
        assert_eq!(outcome.fault, Some(TailFault::TornHeader));
        assert_eq!(outcome.committed_len, committed.len() as u64);

        let log = SegmentLog::open_at(&path, outcome.committed_len).unwrap();
        assert_eq!(log.len(), committed.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), committed);
    }
}
