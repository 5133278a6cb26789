//! # hashcore-store
//!
//! Crash-consistent persistence for a [`ForkTree`]: an append-only,
//! CRC-framed segment log (one record per accepted block) plus periodic
//! compressed snapshots of the whole tree, committed with a
//! write-rename-fsync protocol and recovered through a strict ladder.
//!
//! ## On-disk layout
//!
//! A store directory contains:
//!
//! * `log-<seq>.log` — block records appended while snapshot `<seq>` was
//!   the newest ([`log`] documents the record framing). `log-0.log` exists
//!   from creation; each committed snapshot rotates to a fresh log.
//! * `snapshot-<seq>.snap` — compressed [`TreeSnapshot`] images, `seq`
//!   starting at 1 ([`snapshot`] documents the format and the atomic
//!   commit protocol).
//! * transient `*.tmp` files — in-flight snapshot writes; orphans from a
//!   crash are swept on open.
//!
//! ## Recovery ladder
//!
//! [`ChainStore::open`] rebuilds state in strictly decreasing trust order:
//!
//! 1. the newest snapshot that validates end-to-end (magic, lengths, CRC,
//!    compression, codec), then
//! 2. each older snapshot in turn when newer ones are damaged, then
//! 3. genesis — an empty tree — when no snapshot survives.
//!
//! From the chosen base, every log with `seq >=` the base's sequence
//! replays in order. Log scanning is prefix-only: the first damaged record
//! (torn header, torn payload, CRC mismatch, undecodable payload) ends the
//! replay, and `open` repairs the directory to exactly the recovered state
//! — the torn log is truncated at its last committed record, later logs
//! and rejected snapshots are deleted — so a second crash cannot observe a
//! state newer than the one just recovered. Every decision is reported in
//! [`RecoveryReport`].
//!
//! The result is the crash guarantee the fault-injection proptests pin
//! down: whatever prefix of the write stream reached the disk, recovery
//! yields a tree whose [`ForkTree::fingerprint`] equals the reference tree
//! built from that durably-committed prefix.

#![warn(missing_docs)]

pub mod codec;
pub mod compress;
pub mod crc32;
pub mod log;
pub mod snapshot;
pub mod tempdir;

pub use codec::DecodeError;
pub use compress::CompressError;
pub use log::{ScanOutcome, SegmentLog, TailFault};
pub use snapshot::SnapshotFault;
pub use tempdir::TempDir;

use hashcore_chain::{Block, DifficultyRule, ForkTree, PowFunction, RestoreError, TreeSnapshot};
use std::convert::Infallible;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Filename of the segment log rotated in when snapshot `seq` committed.
fn log_name(seq: u64) -> String {
    format!("log-{seq}.log")
}

/// Filename of the snapshot image with sequence `seq`.
fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq}.snap")
}

/// Parses `prefix-<seq>.<ext>` back into `seq`.
fn parse_seq(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

/// Everything [`ChainStore::open`] recovered from disk: the base snapshot
/// (if any), the blocks to replay on top of it, and the report of every
/// fault the ladder stepped over. Feed it to [`rebuild`] to get the tree.
#[derive(Debug)]
pub struct Recovered {
    /// The newest snapshot that validated, or `None` for a genesis start.
    pub snapshot: Option<TreeSnapshot>,
    /// Committed log records from the base onward, in append order.
    pub replay: Vec<Block>,
    /// What the ladder saw: rejected snapshots, log faults, lost bytes.
    pub report: RecoveryReport,
}

/// The recovery ladder's audit trail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery based on (0 = genesis).
    pub base_seq: u64,
    /// Snapshots that failed validation, newest first, with why.
    pub snapshots_rejected: Vec<(u64, SnapshotFault)>,
    /// The first log fault hit during replay (log sequence + fault), if
    /// any; replay stopped there.
    pub log_fault: Option<(u64, TailFault)>,
    /// Torn/corrupt log bytes discarded by the truncation repair.
    pub lost_bytes: u64,
    /// Orphan `*.tmp` files swept on open.
    pub tmp_swept: usize,
}

impl RecoveryReport {
    /// `true` when recovery used the newest snapshot and every log record:
    /// nothing on disk was damaged.
    pub fn clean(&self) -> bool {
        self.snapshots_rejected.is_empty() && self.log_fault.is_none() && self.lost_bytes == 0
    }
}

/// A crash-consistent persistent store for one node's [`ForkTree`].
///
/// Appends go to the active segment log (fsynced per record by default);
/// [`ChainStore::snapshot_now`] commits a full-tree snapshot atomically and
/// rotates the log. Reopening a directory with [`ChainStore::open`] runs
/// the recovery ladder documented at the crate root.
#[derive(Debug)]
pub struct ChainStore {
    dir: PathBuf,
    /// Sequence of the newest committed snapshot (0 = none yet); the
    /// active log shares this sequence.
    seq: u64,
    log: SegmentLog,
}

impl ChainStore {
    /// Creates a fresh store in `dir` (creating the directory if needed).
    /// Pre-existing store files in `dir` are an error — recovery must go
    /// through [`ChainStore::open`], and a fresh store must never silently
    /// shadow a previous chain's history.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `dir` already holds store files; otherwise any
    /// I/O error from directory or log creation.
    pub fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if !list_seqs(dir, "snapshot-", ".snap")?.is_empty()
            || !list_seqs(dir, "log-", ".log")?.is_empty()
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} already contains a chain store", dir.display()),
            ));
        }
        let log = SegmentLog::create(&dir.join(log_name(0)))?;
        snapshot::sync_dir(dir)?;
        Ok(ChainStore {
            dir: dir.to_path_buf(),
            seq: 0,
            log,
        })
    }

    /// Opens an existing store, running the recovery ladder and repairing
    /// the directory to exactly the recovered state (truncating any torn
    /// log tail, deleting rejected snapshots and unreachable later logs,
    /// sweeping `*.tmp` orphans).
    ///
    /// # Errors
    ///
    /// Real I/O errors only — corruption is recovered from and reported in
    /// the returned [`Recovered::report`].
    pub fn open(dir: &Path) -> io::Result<(Self, Recovered)> {
        let mut report = RecoveryReport::default();

        // Sweep snapshot-write orphans: a crash mid-commit leaves a *.tmp
        // that never got renamed and must not shadow real files.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                fs::remove_file(&path)?;
                report.tmp_swept += 1;
            }
        }

        // Ladder step 1-2: newest validating snapshot wins; rejected ones
        // are reported and deleted (they can never be trusted again).
        let mut snapshot_seqs = list_seqs(dir, "snapshot-", ".snap")?;
        snapshot_seqs.sort_unstable_by(|a, b| b.cmp(a));
        let mut base: Option<(u64, TreeSnapshot)> = None;
        for seq in snapshot_seqs {
            let path = dir.join(snapshot_name(seq));
            if base.is_some() {
                // Older than the chosen base: stale but harmless; keep it
                // as the fallback for the *next* recovery.
                continue;
            }
            match snapshot::load(&path)? {
                Ok(snap) => base = Some((seq, snap)),
                Err(fault) => {
                    report.snapshots_rejected.push((seq, fault));
                    fs::remove_file(&path)?;
                }
            }
        }
        let base_seq = base.as_ref().map_or(0, |(seq, _)| *seq);
        report.base_seq = base_seq;

        // Ladder step 3: replay logs from the base onward, strictly
        // prefix-only across the whole sequence.
        let mut log_seqs = list_seqs(dir, "log-", ".log")?;
        log_seqs.sort_unstable();
        let mut replay = Vec::new();
        // (seq, committed_len) of the log the next append continues in.
        let mut active: Option<(u64, u64)> = None;
        for &seq in log_seqs.iter().filter(|&&seq| seq >= base_seq) {
            if report.log_fault.is_some() {
                // Past the first fault: unreachable history, delete.
                fs::remove_file(dir.join(log_name(seq)))?;
                continue;
            }
            let path = dir.join(log_name(seq));
            let file_len = fs::metadata(&path)?.len();
            let outcome = log::scan(&path)?;
            if let Some(fault) = outcome.fault.clone() {
                report.lost_bytes += outcome.lost_bytes(file_len);
                report.log_fault = Some((seq, fault));
            }
            replay.extend(outcome.blocks);
            active = Some((seq, outcome.committed_len));
        }

        // Repair: reopen the newest surviving log truncated to its
        // committed prefix, or create the log a crash-during-rotation
        // prevented (snapshot committed, fresh log didn't).
        let log = match active {
            Some((seq, committed_len)) => {
                SegmentLog::open_at(&dir.join(log_name(seq)), committed_len)?
            }
            None => SegmentLog::create(&dir.join(log_name(base_seq)))?,
        };
        snapshot::sync_dir(dir)?;

        let store = ChainStore {
            dir: dir.to_path_buf(),
            seq: base_seq,
            log,
        };
        Ok((
            store,
            Recovered {
                snapshot: base.map(|(_, snap)| snap),
                replay,
                report,
            },
        ))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence of the newest committed snapshot (0 before the first).
    pub fn snapshot_seq(&self) -> u64 {
        self.seq
    }

    /// Whether every append fsyncs before returning (default `true`).
    /// Turning it off trades the per-record durability guarantee for
    /// throughput; a crash may lose a suffix of recent appends, which
    /// recovery treats exactly like a torn tail.
    pub fn set_sync(&mut self, sync: bool) {
        self.log.set_sync(sync);
    }

    /// The current per-append fsync policy (see [`ChainStore::set_sync`]).
    pub fn synced_appends(&self) -> bool {
        self.log.sync()
    }

    /// Appends one accepted block to the active segment log.
    ///
    /// # Errors
    ///
    /// Any I/O error from the write or fsync.
    pub fn append_block(&mut self, block: &Block) -> io::Result<()> {
        self.log.append(block)
    }

    /// Commits a full-tree snapshot atomically and rotates to a fresh
    /// segment log. Older snapshots and their logs are left in place as
    /// the recovery ladder's fallback rungs.
    ///
    /// # Errors
    ///
    /// Any I/O error from the snapshot commit or log rotation.
    pub fn snapshot_now(&mut self, snapshot: &TreeSnapshot) -> io::Result<()> {
        let seq = self.seq + 1;
        snapshot::write_atomic(&self.dir.join(snapshot_name(seq)), snapshot)?;
        self.log = SegmentLog::create(&self.dir.join(log_name(seq)))?;
        snapshot::sync_dir(&self.dir)?;
        self.seq = seq;
        Ok(())
    }

    /// Bytes currently committed in the active segment log.
    pub fn log_len(&self) -> u64 {
        self.log.len()
    }
}

/// Deterministic fault injection for crash tests and benches: shears
/// `bytes` off the end of the active (highest-sequence) segment log in
/// `dir`, simulating appends that never became durable before a crash.
/// Returns how many bytes were actually removed (capped at the file
/// length; 0 when the directory holds no log).
///
/// # Errors
///
/// Any I/O error from listing, opening or truncating the log.
pub fn inject_torn_tail(dir: &Path, bytes: u64) -> io::Result<u64> {
    let mut seqs = list_seqs(dir, "log-", ".log")?;
    seqs.sort_unstable();
    let Some(&seq) = seqs.last() else {
        return Ok(0);
    };
    let path = dir.join(log_name(seq));
    let len = fs::metadata(&path)?.len();
    let cut = bytes.min(len);
    let file = fs::OpenOptions::new().write(true).open(&path)?;
    file.set_len(len - cut)?;
    file.sync_all()?;
    Ok(cut)
}

/// Lists the sequences of `prefix-<seq><ext>` files in `dir`.
fn list_seqs(dir: &Path, prefix: &str, ext: &str) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_seq(name, prefix, ext) {
                seqs.push(seq);
            }
        }
    }
    Ok(seqs)
}

/// Rebuilds a [`ForkTree`] from a recovery result: restore the base
/// snapshot (or start at genesis with `genesis_rule`), then re-apply every
/// replayed block through the tree's full validation, its PoW and Merkle
/// checks in 4-lane batches and with no outcome built
/// ([`ForkTree::apply_stored`]). The tree's block map is sized once, for
/// the snapshot's blocks and the replay together, before anything is
/// stored. Replayed blocks that no longer attach (their parent fell below
/// a pruned snapshot's retention root, or sat in a lost log suffix) are
/// skipped and counted — recovery must degrade to "the durable prefix",
/// never fail outright on them.
///
/// Returns the tree and the number of skipped replay blocks.
///
/// # Errors
///
/// [`RestoreError`] only when the base snapshot itself cannot be restored
/// (tampered root or a block that fails validation) — the caller should
/// treat this like a corrupt snapshot and reopen after deleting it.
pub fn rebuild<P: PowFunction>(
    pow: P,
    genesis_rule: Option<DifficultyRule>,
    recovered: &Recovered,
) -> Result<(ForkTree<P>, usize), RestoreError> {
    let mut tree = match (&recovered.snapshot, genesis_rule) {
        (None, Some(rule)) => ForkTree::with_rule(pow, rule),
        _ => ForkTree::new(pow),
    };
    let stored = recovered
        .snapshot
        .as_ref()
        .map_or(0, |snap| snap.blocks.len());
    tree.reserve(stored + recovered.replay.len());
    if let Some(snap) = &recovered.snapshot {
        tree.restore_from_snapshot(snap)?;
    }
    let Ok(accepted) = tree.apply_stored(&recovered.replay, |_, _| Ok::<_, Infallible>(()));
    Ok((tree, recovered.replay.len() - accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashcore::Target;
    use hashcore_baselines::{PowFunction, Sha256dPow, NONCE_LANES};
    use hashcore_chain::BlockHeader;

    fn mine_child(prev: [u8; 32], tag: &str) -> Block {
        mine_body(prev, vec![tag.as_bytes().to_vec()])
    }

    fn mine_body(prev: [u8; 32], txs: Vec<Vec<u8>>) -> Block {
        let target = Target::from_leading_zero_bits(2);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: Block::merkle_root(&txs),
            timestamp: 0,
            target: *target.threshold(),
            nonce: 0,
        };
        loop {
            if target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
                return Block {
                    header,
                    transactions: txs,
                };
            }
            header.nonce += 1;
        }
    }

    fn digest(block: &Block) -> [u8; 32] {
        Sha256dPow.pow_hash(&block.header.bytes())
    }

    fn mined_line(n: usize) -> Vec<Block> {
        let mut prev = hashcore_chain::GENESIS_HASH;
        (0..n)
            .map(|i| {
                let block = mine_child(prev, &format!("b{i}"));
                prev = digest(&block);
                block
            })
            .collect()
    }

    #[test]
    fn create_append_reopen_roundtrips() {
        let dir = TempDir::new("roundtrip").unwrap();
        let chain = mined_line(5);
        let mut live = ForkTree::new(Sha256dPow);
        {
            let mut store = ChainStore::create(dir.path()).unwrap();
            for block in &chain {
                live.apply(block.clone()).unwrap();
                store.append_block(block).unwrap();
            }
        }
        let (_store, recovered) = ChainStore::open(dir.path()).unwrap();
        assert!(recovered.report.clean());
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.replay.len(), 5);
        let (tree, skipped) = rebuild(Sha256dPow, None, &recovered).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(tree.fingerprint(), live.fingerprint());
    }

    #[test]
    fn snapshot_rotates_log_and_recovery_prefers_it() {
        let dir = TempDir::new("rotate").unwrap();
        let chain = mined_line(8);
        let mut live = ForkTree::new(Sha256dPow);
        let mut store = ChainStore::create(dir.path()).unwrap();
        for block in &chain[..5] {
            live.apply(block.clone()).unwrap();
            store.append_block(block).unwrap();
        }
        store.snapshot_now(&live.snapshot()).unwrap();
        assert_eq!(store.snapshot_seq(), 1);
        assert_eq!(store.log_len(), 0);
        for block in &chain[5..] {
            live.apply(block.clone()).unwrap();
            store.append_block(block).unwrap();
        }
        drop(store);

        let (store, recovered) = ChainStore::open(dir.path()).unwrap();
        assert!(recovered.report.clean());
        assert_eq!(recovered.report.base_seq, 1);
        assert_eq!(recovered.snapshot.as_ref().unwrap().blocks.len(), 5);
        assert_eq!(recovered.replay.len(), 3);
        let (tree, skipped) = rebuild(Sha256dPow, None, &recovered).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(tree.fingerprint(), live.fingerprint());
        assert_eq!(store.snapshot_seq(), 1);
    }

    #[test]
    fn create_refuses_a_dir_with_store_files() {
        let dir = TempDir::new("refuse").unwrap();
        let _store = ChainStore::create(dir.path()).unwrap();
        let err = ChainStore::create(dir.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_then_genesis() {
        let dir = TempDir::new("ladder").unwrap();
        let chain = mined_line(9);
        let mut live = ForkTree::new(Sha256dPow);
        let mut store = ChainStore::create(dir.path()).unwrap();
        for (i, block) in chain.iter().enumerate() {
            live.apply(block.clone()).unwrap();
            store.append_block(block).unwrap();
            if i == 2 || i == 5 {
                store.snapshot_now(&live.snapshot()).unwrap();
            }
        }
        drop(store);

        // Damage snapshot 2: recovery steps down to snapshot 1 and still
        // reaches the identical tree by replaying log-1 and log-2.
        let snap2 = dir.path().join(snapshot_name(2));
        let mut bytes = fs::read(&snap2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap2, &bytes).unwrap();

        let (_s, recovered) = ChainStore::open(dir.path()).unwrap();
        assert_eq!(recovered.report.base_seq, 1);
        assert_eq!(recovered.report.snapshots_rejected.len(), 1);
        let (tree, _) = rebuild(Sha256dPow, None, &recovered).unwrap();
        assert_eq!(tree.fingerprint(), live.fingerprint());
        // The rejected snapshot was deleted by the repair.
        assert!(!snap2.exists());

        // Damage snapshot 1 too: genesis + full replay from log-0.
        let snap1 = dir.path().join(snapshot_name(1));
        let mut bytes = fs::read(&snap1).unwrap();
        bytes.truncate(bytes.len() / 3);
        fs::write(&snap1, &bytes).unwrap();

        let (_s, recovered) = ChainStore::open(dir.path()).unwrap();
        assert_eq!(recovered.report.base_seq, 0);
        let (tree, _) = rebuild(Sha256dPow, None, &recovered).unwrap();
        assert_eq!(tree.fingerprint(), live.fingerprint());
    }

    #[test]
    fn torn_log_tail_is_truncated_and_appends_continue() {
        let dir = TempDir::new("torn").unwrap();
        let chain = mined_line(6);
        let mut store = ChainStore::create(dir.path()).unwrap();
        for block in &chain[..4] {
            store.append_block(block).unwrap();
        }
        let full_len = store.log_len();
        drop(store);

        // Tear the last record: cut 3 bytes off the file.
        let log0 = dir.path().join(log_name(0));
        let bytes = fs::read(&log0).unwrap();
        fs::write(&log0, &bytes[..bytes.len() - 3]).unwrap();

        let (mut store, recovered) = ChainStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replay.len(), 3);
        assert!(matches!(
            recovered.report.log_fault,
            Some((0, TailFault::TornPayload))
        ));
        assert!(recovered.report.lost_bytes > 0);
        assert!(store.log_len() < full_len);
        // The file was physically truncated; appending continues cleanly.
        store.append_block(&chain[3]).unwrap();
        store.append_block(&chain[4]).unwrap();
        drop(store);
        let (_s, recovered) = ChainStore::open(dir.path()).unwrap();
        assert!(recovered.report.clean());
        assert_eq!(recovered.replay.len(), 5);
    }

    /// A rebuild one block at a time, as it ran before replays were
    /// batched: the skip count and the rebuilt fingerprint.
    fn rebuild_block_by_block(recovered: &Recovered) -> (usize, [u8; 32]) {
        let mut tree = match &recovered.snapshot {
            Some(snapshot) => ForkTree::from_snapshot(Sha256dPow, snapshot).unwrap(),
            None => ForkTree::new(Sha256dPow),
        };
        let skipped = recovered
            .replay
            .iter()
            .filter(|block| tree.apply(Block::clone(block)).is_err())
            .count();
        (skipped, tree.fingerprint())
    }

    /// Mined blocks with bodies of 3, 1, 2, 3, 5 and 1 transactions in
    /// turn, so a 4-lane chunk's leaves straddle its bodies.
    fn mixed_line(n: usize) -> Vec<Block> {
        let mut prev = hashcore_chain::GENESIS_HASH;
        (0..n)
            .map(|i| {
                let count = [3, 1, 2, 3, 5, 1][i % 6];
                let txs = (0..count)
                    .map(|j| format!("b{i}-{j}").into_bytes())
                    .collect();
                let block = mine_body(prev, txs);
                prev = digest(&block);
                block
            })
            .collect()
    }

    /// `block` with the last of its odd body repeated: the header's root,
    /// failing only the equal-siblings test.
    fn repeated_tail(block: &Block) -> Block {
        let mut repeated = block.clone();
        let last = block.transactions.last().expect("a non-empty body").clone();
        repeated.transactions.push(last);
        assert_eq!(
            Block::merkle_root(&repeated.transactions),
            block.header.merkle_root
        );
        repeated
    }

    #[test]
    fn batched_rebuild_matches_a_block_by_block_reference() {
        let chain = mixed_line(14);
        let mut live = ForkTree::new(Sha256dPow);
        for block in &chain[..5] {
            live.apply(block.clone()).unwrap();
        }
        let unpruned = live.snapshot();
        for block in &chain[5..9] {
            live.apply(block.clone()).unwrap();
        }
        live.prune(3);
        let pruned = live.snapshot();
        assert_ne!(pruned.root, hashcore_chain::GENESIS_HASH);
        let mut forged = chain[10].clone();
        forged.transactions[0] = b"forged".to_vec();
        // Duplicates of snapshot and replay blocks, children before their
        // parents, a foreign orphan, a forged body, and bodies repeating
        // their odd tail: before their block is stored (rejected) and after
        // it (known, whatever the body).
        let mixed = [
            chain[2].clone(),
            chain[5].clone(),
            chain[6].clone(),
            repeated_tail(&chain[6]),
            chain[8].clone(),
            chain[7].clone(),
            mine_child([0x42; 32], "foreign"),
            chain[8].clone(),
            forged,
            repeated_tail(&chain[9]),
            chain[9].clone(),
            chain[10].clone(),
            chain[12].clone(),
            chain[11].clone(),
            repeated_tail(&chain[12]),
            chain[12].clone(),
            chain[13].clone(),
        ];
        for snapshot in [None, Some(unpruned), Some(pruned)] {
            // Leading duplicates move every block across the lane
            // positions of its 4-lane chunk.
            for shift in 0..NONCE_LANES {
                let recovered = Recovered {
                    snapshot: snapshot.clone(),
                    replay: chain[..shift].iter().chain(&mixed).cloned().collect(),
                    report: RecoveryReport::default(),
                };
                let want = rebuild_block_by_block(&recovered);
                assert!(want.0 > 0);
                let (tree, skipped) = rebuild(Sha256dPow, None, &recovered).unwrap();
                assert_eq!((skipped, tree.fingerprint()), want, "shift {shift}");
            }
        }
    }
}
