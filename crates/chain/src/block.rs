//! Blocks and block headers.

use hashcore_crypto::{merkle, sha256, sha256_x4, Digest256, SHA256_LANES};

/// A block header: the only data that flows through the PoW function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Protocol version.
    pub version: u32,
    /// Hash of the previous block's header (PoW digest).
    pub prev_hash: Digest256,
    /// Merkle root committing to the block's transactions.
    pub merkle_root: Digest256,
    /// Block timestamp in seconds (simulated time in the experiments).
    pub timestamp: u64,
    /// The difficulty target the block must satisfy, as a big-endian
    /// threshold.
    pub target: [u8; 32],
    /// The PoW nonce.
    pub nonce: u64,
}

impl BlockHeader {
    /// Serialises the header (without the nonce) into the byte string the
    /// miner searches over; the nonce is appended separately by the mining
    /// loop.
    pub fn pow_input(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 32 + 32 + 8 + 32);
        self.write_pow_input(&mut out);
        out
    }

    /// Serialises the header (without the nonce) into `out`, replacing its
    /// contents — the buffer-reusing form of [`BlockHeader::pow_input`] used
    /// by batch validation, which serialises one header per block.
    pub fn write_pow_input(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.prev_hash);
        out.extend_from_slice(&self.merkle_root);
        out.extend_from_slice(&self.timestamp.to_le_bytes());
        out.extend_from_slice(&self.target);
    }

    /// Serialises the full header including the nonce (the exact bytes whose
    /// PoW digest identifies the block).
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = self.pow_input();
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Serialises the full header into `out`, replacing its contents — the
    /// buffer-reusing form of [`BlockHeader::bytes`].
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        self.write_pow_input(out);
        out.extend_from_slice(&self.nonce.to_le_bytes());
    }
}

/// A block: a header plus the transactions the Merkle root commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// Raw transaction payloads.
    pub transactions: Vec<Vec<u8>>,
}

/// Leaves a Merkle check holds on the stack; more spill to the heap.
const STACK_LEAVES: usize = 16;

/// Runs `f` on a buffer of `len` leaves: a stack array up to
/// [`STACK_LEAVES`], so checking a small body allocates nothing.
fn with_leaves<R>(len: usize, f: impl FnOnce(&mut [Digest256]) -> R) -> R {
    if len <= STACK_LEAVES {
        f(&mut [[0u8; 32]; STACK_LEAVES][..len])
    } else {
        f(&mut vec![[0u8; 32]; len])
    }
}

/// The root of the Merkle tree over `transactions`, and whether it pairs
/// two equal real nodes, folded in place from their leaves
/// ([`merkle::fold_leaves`]).
fn fold_transactions(transactions: &[Vec<u8>]) -> (Digest256, bool) {
    with_leaves(transactions.len(), |leaves| {
        for (leaf, tx) in leaves.iter_mut().zip(transactions) {
            *leaf = sha256(tx);
        }
        merkle::fold_leaves(leaves)
    })
}

impl Block {
    /// Computes the Merkle root of a transaction list: the root of
    /// [`MerkleTree::from_items`](hashcore_crypto::MerkleTree::from_items)
    /// over it, with no tree built.
    pub fn merkle_root(transactions: &[Vec<u8>]) -> Digest256 {
        fold_transactions(transactions).0
    }

    /// Returns `true` if the header's Merkle root matches the transactions
    /// and their tree pairs no two equal nodes
    /// ([`MerkleTree::has_equal_siblings`](hashcore_crypto::MerkleTree::has_equal_siblings)).
    ///
    /// The second test keeps one body per root: `[a, b, c, c]` has the root
    /// of `[a, b, c]`, and a node that stored either could serve it under
    /// the other's header. Both answers come from folding the tree in place
    /// from its leaves ([`merkle::fold_leaves`]), which a body of up to 16
    /// transactions holds on the stack.
    pub fn merkle_consistent(&self) -> bool {
        self.commits_to(fold_transactions(&self.transactions))
    }

    /// [`Block::merkle_consistent`] of four blocks at once. Their
    /// transactions are hashed in order across the four bodies, four per
    /// [`sha256_x4`] call, into one buffer of leaves, so one call may hash
    /// the last leaves of one body beside the first of the next; each
    /// body's tree is then folded over its own leaves. Four bodies of up to
    /// 16 transactions between them hold their leaves on the stack. Lane
    /// `i` is `blocks[i].merkle_consistent()`.
    pub(crate) fn merkle_consistent_x4(blocks: &[Block; SHA256_LANES]) -> [bool; SHA256_LANES] {
        let count = blocks.iter().map(|block| block.transactions.len()).sum();
        with_leaves(count, |leaves| {
            let mut txs = blocks.iter().flat_map(|block| &block.transactions);
            for group in leaves.chunks_mut(SHA256_LANES) {
                // A spare lane hashes the empty message, and its digest is
                // dropped.
                let mut messages = [&[][..]; SHA256_LANES];
                for (message, tx) in messages.iter_mut().zip(&mut txs) {
                    *message = tx;
                }
                group.copy_from_slice(&sha256_x4(messages)[..group.len()]);
            }
            let mut rest = leaves;
            blocks.each_ref().map(|block| {
                let (own, after) = std::mem::take(&mut rest).split_at_mut(block.transactions.len());
                rest = after;
                block.commits_to(merkle::fold_leaves(own))
            })
        })
    }

    /// The verdict of [`Block::merkle_consistent`] on the root and
    /// equal-siblings answer of this block's folded Merkle tree: the root
    /// is the header's, and no level pairs two equal nodes.
    fn commits_to(&self, (root, equal_siblings): (Digest256, bool)) -> bool {
        root == self.header.merkle_root && !equal_siblings
    }
}

/// The header a [`HeaderChain`](crate::HeaderChain) stores a bare header
/// by: itself.
impl AsRef<BlockHeader> for BlockHeader {
    fn as_ref(&self) -> &BlockHeader {
        self
    }
}

/// The header a [`HeaderChain`](crate::HeaderChain) stores a block by.
impl AsRef<BlockHeader> for Block {
    fn as_ref(&self) -> &BlockHeader {
        &self.header
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> BlockHeader {
        BlockHeader {
            version: 1,
            prev_hash: [7u8; 32],
            merkle_root: [9u8; 32],
            timestamp: 1_234,
            target: [0xff; 32],
            nonce: 42,
        }
    }

    #[test]
    fn serialisation_layout() {
        let h = header();
        let bytes = h.bytes();
        assert_eq!(bytes.len(), 4 + 32 + 32 + 8 + 32 + 8);
        assert_eq!(&bytes[..4], &1u32.to_le_bytes());
        assert_eq!(&bytes[bytes.len() - 8..], &42u64.to_le_bytes());
        assert_eq!(&bytes[..bytes.len() - 8], h.pow_input().as_slice());
    }

    #[test]
    fn buffer_reusing_serialisation_matches_allocating_form() {
        let a = header();
        let b = BlockHeader {
            nonce: 7,
            timestamp: 99,
            ..header()
        };
        let mut buf = Vec::new();
        a.write_bytes(&mut buf);
        assert_eq!(buf, a.bytes());
        // Reuse across headers must fully replace the contents.
        b.write_bytes(&mut buf);
        assert_eq!(buf, b.bytes());
        b.write_pow_input(&mut buf);
        assert_eq!(buf, b.pow_input());
    }

    #[test]
    fn merkle_consistency() {
        let txs = vec![b"a".to_vec(), b"b".to_vec()];
        let mut block = Block {
            header: BlockHeader {
                merkle_root: Block::merkle_root(&txs),
                ..header()
            },
            transactions: txs,
        };
        assert!(block.merkle_consistent());
        block.transactions.push(b"forged".to_vec());
        assert!(!block.merkle_consistent());
    }

    /// A block whose header commits to `txs`.
    fn committed(txs: &[&[u8]]) -> Block {
        let transactions: Vec<Vec<u8>> = txs.iter().map(|tx| tx.to_vec()).collect();
        Block {
            header: BlockHeader {
                merkle_root: Block::merkle_root(&transactions),
                ..header()
            },
            transactions,
        }
    }

    #[test]
    fn lane_verdicts_match_merkle_consistent() {
        let long = [0x6c; 100];
        let mut forged = committed(&[b"f0", b"f1", b"f2", b"f3"]);
        forged.transactions[2] = b"forged".to_vec();
        let mut wrong_root = committed(&[b"w0", b"w1"]);
        wrong_root.header.merkle_root = [0x5a; 32];
        let mut repeated_tail = committed(&[b"r0", b"r1", b"r2"]);
        repeated_tail.transactions.push(b"r2".to_vec());
        // More leaves than a check holds on the stack.
        let many: Vec<Vec<u8>> = (0..STACK_LEAVES + 1).map(|i| vec![i as u8; i]).collect();
        let bodies = [
            committed(&[]),
            committed(&[b"one"]),
            committed(&[b"two-0", &long]),
            committed(&[b"three-0", b"three-1", b"three-2"]),
            committed(&[b"five-0", &long, b"five-2", b"five-3", b"five-4"]),
            committed(&many.iter().map(Vec::as_slice).collect::<Vec<_>>()),
            forged,
            wrong_root,
            repeated_tail,
        ];
        let want: Vec<bool> = bodies.iter().map(Block::merkle_consistent).collect();
        assert_eq!(
            want,
            [true, true, true, true, true, true, false, false, false]
        );
        // Every body at every lane, beside every other body in turn: each
        // 4-lane call hashes leaves of two or more bodies together.
        for start in 0..bodies.len() {
            let at = |lane: usize| (start + lane) % bodies.len();
            let lanes: [Block; SHA256_LANES] = std::array::from_fn(|lane| bodies[at(lane)].clone());
            let expected: [bool; SHA256_LANES] = std::array::from_fn(|lane| want[at(lane)]);
            assert_eq!(
                Block::merkle_consistent_x4(&lanes),
                expected,
                "rotation {start}"
            );
        }
    }

    #[test]
    fn repeated_odd_tail_is_not_consistent() {
        // [a, b, c, c] hashes to the root that commits [a, b, c].
        let txs = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let mut block = Block {
            header: BlockHeader {
                merkle_root: Block::merkle_root(&txs),
                ..header()
            },
            transactions: txs,
        };
        assert!(block.merkle_consistent());
        block.transactions.push(b"c".to_vec());
        assert_eq!(
            Block::merkle_root(&block.transactions),
            block.header.merkle_root
        );
        assert!(!block.merkle_consistent());
    }
}
