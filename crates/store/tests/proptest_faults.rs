//! Crash-consistency proofs for the persistent chain store.
//!
//! The contract under test: **whatever prefix of the write stream reached
//! the disk, recovery rebuilds a tree whose `fingerprint()` equals the
//! reference tree built from that durably-committed prefix.** Faults are
//! injected at every byte offset of a small store (exhaustively) and at
//! proptest-sampled offsets of larger, branchier stores: torn log tails,
//! truncated files, bit-flipped records, corrupt or missing snapshots, and
//! partially written snapshot tmp files. The byte-level decoders recovery
//! runs are also fed arbitrary and damaged bytes directly: each must return
//! a value or a typed error, never panic.

use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{Block, BlockHeader, ForkTree, TreeSnapshot, GENESIS_HASH};
use hashcore_crypto::Digest256;
use hashcore_store::{codec, compress, log, rebuild, snapshot, ChainStore, TempDir};
use proptest::prelude::*;
use std::fs;
use std::path::Path;

/// Mines a child of `prev` tagged by `tag` at two leading-zero bits.
fn mine_child(prev: Digest256, tag: &str) -> Block {
    let txs = vec![tag.as_bytes().to_vec()];
    let target = Target::from_leading_zero_bits(2);
    let mut header = BlockHeader {
        version: 1,
        prev_hash: prev,
        merkle_root: Block::merkle_root(&txs),
        timestamp: 0,
        target: *target.threshold(),
        nonce: 0,
    };
    while !target.is_met_by(&Sha256dPow.pow_hash(&header.bytes())) {
        header.nonce += 1;
    }
    Block {
        header,
        transactions: txs,
    }
}

fn digest(block: &Block) -> Digest256 {
    Sha256dPow.pow_hash(&block.header.bytes())
}

/// Builds a block tree: entry `i` extends the block chosen by
/// `parent_picks[i]` among genesis and the blocks built so far.
fn build_blocks(parent_picks: &[usize]) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut digests = vec![GENESIS_HASH];
    for (i, pick) in parent_picks.iter().enumerate() {
        let prev = digests[pick % digests.len()];
        let block = mine_child(prev, &format!("block-{i}"));
        digests.push(digest(&block));
        blocks.push(block);
    }
    blocks
}

/// Everything a run of the store wrote, remembered in memory so tests can
/// compute the expected recovery outcome for any injected fault without
/// consulting the (damaged) disk.
struct Journal {
    /// `snapshots[s - 1]` is the snapshot committed with sequence `s`.
    snapshots: Vec<TreeSnapshot>,
    /// `logs[s]` is every block appended to `log-<s>.log`, in order.
    logs: Vec<Vec<Block>>,
    /// Live tree at the end of the run (the undamaged reference).
    final_fingerprint: Digest256,
}

/// Drives a real `ChainStore` through `blocks`, snapshotting after the
/// block indices in `snapshot_after`, and journals what was written.
fn run_store(dir: &Path, blocks: &[Block], snapshot_after: &[usize]) -> Journal {
    let mut store = ChainStore::create(dir).unwrap();
    let mut tree = ForkTree::new(Sha256dPow);
    let mut journal = Journal {
        snapshots: Vec::new(),
        logs: vec![Vec::new()],
        final_fingerprint: [0; 32],
    };
    for (i, block) in blocks.iter().enumerate() {
        tree.apply(block.clone()).expect("mined block applies");
        store.append_block(block).unwrap();
        journal.logs.last_mut().unwrap().push(block.clone());
        if snapshot_after.contains(&i) {
            let snap = tree.snapshot();
            store.snapshot_now(&snap).unwrap();
            journal.snapshots.push(snap);
            journal.logs.push(Vec::new());
        }
    }
    journal.final_fingerprint = tree.fingerprint();
    journal
}

/// Byte offsets at which each committed record of a log ends, computed
/// from the journal (not the disk): `8 + payload_len` per frame.
fn record_ends(blocks: &[Block]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut pos = 0u64;
    for block in blocks {
        let mut payload = Vec::new();
        hashcore_store::codec::encode_block(block, &mut payload);
        pos += 8 + payload.len() as u64;
        ends.push(pos);
    }
    ends
}

/// The reference fingerprint for a recovery that based on snapshot
/// `base_seq` (0 = genesis) and replayed, per log sequence, the given
/// number of committed records — everything recovery is *supposed* to see.
fn reference_fingerprint(journal: &Journal, base_seq: u64, records_per_log: &[usize]) -> Digest256 {
    let mut tree = match base_seq {
        0 => ForkTree::new(Sha256dPow),
        s => ForkTree::from_snapshot(Sha256dPow, &journal.snapshots[s as usize - 1])
            .expect("journal snapshot restores"),
    };
    for (seq, &count) in records_per_log.iter().enumerate() {
        if (seq as u64) < base_seq {
            continue;
        }
        for block in &journal.logs[seq][..count] {
            // Replay mirrors `rebuild`: skips (e.g. already-known) allowed.
            let _ = tree.apply(block.clone());
        }
    }
    tree.fingerprint()
}

/// Recovery outcome for a pristine copy of the store: every record of
/// every log on top of the newest snapshot.
fn full_recovery_plan(journal: &Journal) -> (u64, Vec<usize>) {
    (
        journal.snapshots.len() as u64,
        journal.logs.iter().map(Vec::len).collect(),
    )
}

/// Copies every regular file of `src` into `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    for entry in fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
}

/// Opens the (possibly damaged) store, rebuilds the tree, and asserts the
/// fingerprint matches `expected`.
fn assert_recovers_to(dir: &Path, expected: Digest256, context: &str) {
    let (_store, recovered) = ChainStore::open(dir).expect("open never fails on corruption");
    let (tree, _skipped) = rebuild(Sha256dPow, None, &recovered).expect("rebuild succeeds");
    assert_eq!(tree.fingerprint(), expected, "mismatch: {context}");
}

/// Expected recovery after damaging one byte region of one file.
fn expected_after_damage(journal: &Journal, file: &str, record_prefix: Option<usize>) -> Digest256 {
    let (mut base_seq, mut records) = full_recovery_plan(journal);
    if let Some(seq) = file
        .strip_prefix("snapshot-")
        .and_then(|s| s.strip_suffix(".snap"))
        .map(|s| s.parse::<u64>().unwrap())
    {
        if seq == base_seq {
            // Newest snapshot damaged: ladder steps down one rung (or to
            // genesis) and replays the extra log.
            base_seq -= 1;
        }
        // Older snapshots are not consulted; damage is invisible.
    } else if let Some(seq) = file
        .strip_prefix("log-")
        .and_then(|s| s.strip_suffix(".log"))
        .map(|s| s.parse::<u64>().unwrap())
    {
        if seq >= base_seq {
            // Prefix semantics: the damaged log replays its intact
            // prefix, every later log is dropped.
            records[seq as usize] = record_prefix.unwrap_or(0);
            for r in records.iter_mut().skip(seq as usize + 1) {
                *r = 0;
            }
        }
        // Logs below the base are never replayed; damage is invisible.
    }
    reference_fingerprint(journal, base_seq, &records)
}

/// Number of records of `blocks` whose frames end at or before `offset`.
fn committed_before(blocks: &[Block], offset: u64) -> usize {
    record_ends(blocks)
        .iter()
        .take_while(|&&end| end <= offset)
        .count()
}

#[test]
fn every_byte_offset_fault_recovers_the_committed_prefix() {
    // A short linear chain with two mid-run snapshots: log-0 holds 3
    // records, log-1 two, log-2 one; snapshots 1 and 2 exist.
    let picks: Vec<usize> = (0..6).collect(); // linear
    let blocks = build_blocks(&picks);
    let pristine = TempDir::new("exhaustive-pristine").unwrap();
    let journal = run_store(pristine.path(), &blocks, &[2, 4]);

    // Sanity: the undamaged store recovers the live tree byte-identically.
    {
        let scratch = TempDir::new("exhaustive-clean").unwrap();
        copy_dir(pristine.path(), scratch.path());
        assert_recovers_to(scratch.path(), journal.final_fingerprint, "clean");
    }

    let files: Vec<String> = fs::read_dir(pristine.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();

    for file in &files {
        let original = fs::read(pristine.path().join(file)).unwrap();

        // Torn write: truncate the file at every byte offset.
        for cut in 0..original.len() {
            let scratch = TempDir::new("exhaustive-cut").unwrap();
            copy_dir(pristine.path(), scratch.path());
            fs::write(scratch.path().join(file), &original[..cut]).unwrap();
            let prefix = file
                .strip_prefix("log-")
                .and_then(|s| s.strip_suffix(".log"))
                .map(|s| s.parse::<u64>().unwrap())
                .map(|seq| committed_before(&journal.logs[seq as usize], cut as u64));
            let expected = expected_after_damage(&journal, file, prefix);
            assert_recovers_to(scratch.path(), expected, &format!("{file} cut at {cut}"));
        }

        // Bit rot: flip one bit at every byte offset.
        for at in 0..original.len() {
            let scratch = TempDir::new("exhaustive-flip").unwrap();
            copy_dir(pristine.path(), scratch.path());
            let mut bytes = original.clone();
            bytes[at] ^= 0x01;
            fs::write(scratch.path().join(file), &bytes).unwrap();
            let prefix = file
                .strip_prefix("log-")
                .and_then(|s| s.strip_suffix(".log"))
                .map(|s| s.parse::<u64>().unwrap())
                .map(|seq| committed_before(&journal.logs[seq as usize], at as u64));
            let expected = expected_after_damage(&journal, file, prefix);
            assert_recovers_to(scratch.path(), expected, &format!("{file} flip at {at}"));
        }

        // Missing file: delete it outright (the 0-byte truncation above
        // already covers "empty", this covers "gone").
        let scratch = TempDir::new("exhaustive-missing").unwrap();
        copy_dir(pristine.path(), scratch.path());
        fs::remove_file(scratch.path().join(file)).unwrap();
        let expected = expected_after_damage(&journal, file, Some(0));
        assert_recovers_to(scratch.path(), expected, &format!("{file} missing"));
    }
}

#[test]
fn a_partial_snapshot_tmp_is_swept_and_ignored() {
    let blocks = build_blocks(&[0, 1, 2, 3]);
    let dir = TempDir::new("tmp-orphan").unwrap();
    let journal = run_store(dir.path(), &blocks, &[1]);
    // Simulate a crash mid-`write_atomic`: a half-written tmp that never
    // got renamed, at every truncation point of a plausible image.
    let image = fs::read(dir.path().join("snapshot-1.snap")).unwrap();
    for cut in [0, 1, image.len() / 2, image.len()] {
        let scratch = TempDir::new("tmp-orphan-case").unwrap();
        copy_dir(dir.path(), scratch.path());
        fs::write(scratch.path().join("snapshot-2.tmp"), &image[..cut]).unwrap();
        let (_store, recovered) = ChainStore::open(scratch.path()).unwrap();
        assert_eq!(recovered.report.tmp_swept, 1);
        assert_eq!(recovered.report.base_seq, 1);
        let (tree, _) = rebuild(Sha256dPow, None, &recovered).unwrap();
        assert_eq!(tree.fingerprint(), journal.final_fingerprint);
        assert!(!scratch.path().join("snapshot-2.tmp").exists());
    }
}

#[test]
fn a_pruned_tree_persists_and_recovers_identically() {
    let blocks = build_blocks(&(0..10).collect::<Vec<_>>());
    let dir = TempDir::new("pruned").unwrap();
    let mut store = ChainStore::create(dir.path()).unwrap();
    let mut tree = ForkTree::new(Sha256dPow);
    for block in &blocks {
        tree.apply(block.clone()).unwrap();
        store.append_block(block).unwrap();
    }
    assert!(tree.prune(4) > 0);
    store.snapshot_now(&tree.snapshot()).unwrap();
    // Two more blocks on the pruned tree, logged after the snapshot.
    let mut tip = tree.tip();
    for i in 0..2 {
        let block = mine_child(tip, &format!("post-prune-{i}"));
        tip = digest(&block);
        tree.apply(block.clone()).unwrap();
        store.append_block(&block).unwrap();
    }
    drop(store);

    let (_store, recovered) = ChainStore::open(dir.path()).unwrap();
    assert!(recovered.report.clean());
    let (restored, skipped) = rebuild(Sha256dPow, None, &recovered).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(restored.fingerprint(), tree.fingerprint());
    assert_eq!(restored.root(), tree.root());
    assert_eq!(restored.root_height(), tree.root_height());
    assert_eq!(restored.locator(), tree.locator());
    // Pruned-history requests answer identically after the round trip.
    let below = vec![digest(&blocks[0]), GENESIS_HASH];
    assert_eq!(
        tree.segment_to(tree.tip(), &below).unwrap_err(),
        restored.segment_to(restored.tip(), &below).unwrap_err(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any branchy block set, snapshot schedule and crash offset into
    /// the active log, recovery equals the reference built from the
    /// committed prefix.
    #[test]
    fn torn_active_log_recovers_committed_prefix(
        parent_picks in prop::collection::vec(0usize..32, 4..16),
        snapshot_every in 2usize..6,
        cut_pct in 0u64..101,
    ) {
        let blocks = build_blocks(&parent_picks);
        let snapshot_after: Vec<usize> =
            (0..blocks.len()).filter(|i| i % snapshot_every == snapshot_every - 1).collect();
        let dir = TempDir::new("prop-torn").unwrap();
        let journal = run_store(dir.path(), &blocks, &snapshot_after);

        let active_seq = journal.snapshots.len();
        let log_name = format!("log-{active_seq}.log");
        let original = fs::read(dir.path().join(&log_name)).unwrap();
        let cut = (original.len() as u64 * cut_pct / 100) as usize;
        fs::write(dir.path().join(&log_name), &original[..cut]).unwrap();

        let prefix = committed_before(&journal.logs[active_seq], cut as u64);
        let expected = expected_after_damage(&journal, &log_name, Some(prefix));
        assert_recovers_to(dir.path(), expected, &format!("torn at {cut}/{}", original.len()));
    }

    /// For any single-byte corruption anywhere in the store, recovery
    /// still equals the reference for the surviving prefix — and never
    /// panics or errors.
    #[test]
    fn any_single_byte_corruption_recovers_a_reference_prefix(
        parent_picks in prop::collection::vec(0usize..32, 4..16),
        snapshot_every in 2usize..6,
        file_pick in 0usize..1 << 16,
        at_pick in 0usize..1 << 16,
        flip in 1u8..255,
    ) {
        let blocks = build_blocks(&parent_picks);
        let snapshot_after: Vec<usize> =
            (0..blocks.len()).filter(|i| i % snapshot_every == snapshot_every - 1).collect();
        let dir = TempDir::new("prop-flip").unwrap();
        let journal = run_store(dir.path(), &blocks, &snapshot_after);

        let mut files: Vec<String> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let file = files[file_pick % files.len()].clone();
        let mut bytes = fs::read(dir.path().join(&file)).unwrap();
        prop_assume!(!bytes.is_empty());
        let at = at_pick % bytes.len();
        bytes[at] ^= flip;
        fs::write(dir.path().join(&file), &bytes).unwrap();

        let prefix = file
            .strip_prefix("log-")
            .and_then(|s| s.strip_suffix(".log"))
            .map(|s| s.parse::<u64>().unwrap())
            .map(|seq| committed_before(&journal.logs[seq as usize], at as u64));
        let expected = expected_after_damage(&journal, &file, prefix);
        assert_recovers_to(dir.path(), expected, &format!("{file} flip at {at}"));
    }
}

/// Feeds `bytes` to every decoder recovery runs over disk bytes; each must
/// return a value or a typed error. `decompress` is also asked for
/// `output_len`, `usize::MAX` and the input's own length.
fn decode_all(bytes: &[u8], output_len: usize) {
    let _ = codec::decode_block(bytes);
    let _ = codec::decode_snapshot(bytes);
    let _ = snapshot::decode_file(bytes);
    let _ = log::scan_bytes(bytes);
    for len in [output_len, usize::MAX, bytes.len()] {
        let _ = compress::decompress(bytes, len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, with an arbitrary decompressed length, never panic
    /// a store decoder.
    #[test]
    fn store_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        output_len in any::<usize>(),
    ) {
        decode_all(&bytes, output_len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every truncation of a valid block record, snapshot payload, snapshot
    /// file, compressed stream and segment log, and every 1-byte mutation
    /// of each to a drawn value, never panics a store decoder.
    #[test]
    fn store_decoders_never_panic_on_damaged_encodings(
        parent_picks in prop::collection::vec(0usize..32, 1..5),
        value in any::<u8>(),
    ) {
        let blocks = build_blocks(&parent_picks);
        let dir = TempDir::new("prop-decoders").unwrap();
        run_store(dir.path(), &blocks, &[]);
        let log_image = fs::read(dir.path().join("log-0.log")).unwrap();
        let mut tree = ForkTree::new(Sha256dPow);
        for block in &blocks {
            tree.apply(block.clone()).unwrap();
        }
        let snap = tree.snapshot();
        let mut record = Vec::new();
        codec::encode_block(&blocks[0], &mut record);
        let mut payload = Vec::new();
        codec::encode_snapshot(&snap, &mut payload);
        let packed = compress::compress(&payload);
        let file = snapshot::encode_file(&snap);

        // The starting points decode cleanly, so every failure below comes
        // from the damage.
        prop_assert!(codec::decode_block(&record).is_ok());
        prop_assert!(codec::decode_snapshot(&payload).is_ok());
        prop_assert!(compress::decompress(&packed, payload.len()).is_ok());
        prop_assert!(snapshot::decode_file(&file).is_ok());
        prop_assert!(log::scan_bytes(&log_image).fault.is_none());

        for bytes in [&record, &payload, &packed, &file, &log_image] {
            for cut in 0..bytes.len() {
                decode_all(&bytes[..cut], payload.len());
            }
            let mut mutated = bytes.clone();
            for position in 0..bytes.len() {
                mutated[position] = value;
                decode_all(&mutated, payload.len());
                mutated[position] = bytes[position];
            }
        }
    }
}
