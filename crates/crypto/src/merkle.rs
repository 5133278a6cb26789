//! Binary Merkle trees over SHA-256.
//!
//! The chain substrate commits to a block's transactions with a Merkle root,
//! exactly as the PoW systems the paper targets (Bitcoin, Ethereum) do. Only
//! the block *header* flows through the HashCore PoW function, so the tree is
//! part of the surrounding blockchain machinery rather than of `H` itself.

use crate::sha256::{sha256, Digest256, Sha256};

/// A binary Merkle tree whose leaves are SHA-256 digests of the inserted
/// items.
///
/// Odd nodes at any level are paired with themselves (the Bitcoin
/// convention). So a list that repeats its odd tail has the root of the
/// list without the repeat: `[a, b, c, c]` has the root of `[a, b, c]`
/// (CVE-2012-2459). [`MerkleTree::has_equal_siblings`] tells such trees
/// apart.
///
/// # Examples
///
/// ```
/// use hashcore_crypto::MerkleTree;
///
/// let tree = MerkleTree::from_items([b"tx-a".as_ref(), b"tx-b".as_ref()]);
/// let proof = tree.proof(0).unwrap();
/// assert!(MerkleTree::verify_proof(tree.root(), b"tx-a", 0, tree.leaf_count(), &proof));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level has exactly one node.
    levels: Vec<Vec<Digest256>>,
}

impl MerkleTree {
    /// Builds a tree from raw items, hashing each item to form a leaf.
    ///
    /// An empty iterator yields a tree whose root is `SHA256("")`, mirroring
    /// the convention of committing to the empty transaction list.
    pub fn from_items<'a, I>(items: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let leaves: Vec<Digest256> = items.into_iter().map(sha256).collect();
        Self::from_leaves(leaves)
    }

    /// Builds a tree from already-hashed leaves.
    pub fn from_leaves(leaves: Vec<Digest256>) -> Self {
        let leaves = if leaves.is_empty() {
            vec![sha256(b"")]
        } else {
            leaves
        };
        let mut levels = vec![leaves];
        while levels.last().expect("at least one level").len() > 1 {
            let prev = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = pair[0];
                let right = if pair.len() == 2 { pair[1] } else { pair[0] };
                next.push(hash_pair(&left, &right));
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// Returns the Merkle root.
    pub fn root(&self) -> Digest256 {
        self.levels.last().expect("at least one level")[0]
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Returns `true` if some level pairs a node with an equal real sibling.
    ///
    /// A list that repeats its odd tail has the root of the list without the
    /// repeat, and its tree pairs two equal real nodes on some level:
    /// `[a, b, c, c]` (the root of `[a, b, c]`) pairs `c` with `c`, and
    /// `[a, …, f, e, f]` (the root of `[a, …, f]`) pairs the parent of `e`
    /// and `f` with an equal node one level up. A verifier that rejects such
    /// trees accepts only the shorter list for that root. Equal siblings
    /// also arise from two equal items at an even and the next odd index.
    pub fn has_equal_siblings(&self) -> bool {
        self.levels[..self.levels.len() - 1]
            .iter()
            .any(|level| level.chunks_exact(2).any(|pair| pair[0] == pair[1]))
    }

    /// Returns the inclusion proof (sibling path, leaf level upward) for the
    /// leaf at `index`, or `None` if `index` is out of range.
    pub fn proof(&self, index: usize) -> Option<Vec<Digest256>> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) {
                // Right sibling, or self-duplication when it does not exist.
                *level.get(idx + 1).unwrap_or(&level[idx])
            } else {
                level[idx - 1]
            };
            proof.push(sibling);
            idx /= 2;
        }
        Some(proof)
    }

    /// Verifies an inclusion proof produced by [`MerkleTree::proof`] for the
    /// raw (unhashed) `item` at leaf position `index` of a tree of
    /// `leaf_count` leaves.
    ///
    /// Rejects an `index` past the last leaf, a proof whose length is not
    /// the tree's height, and any step that hashes a node with an equal
    /// sibling other than an odd level's last node paired with itself.
    /// Without the first check, the last item of an odd level would also
    /// prove at the index after it, where the tree pairs it with itself;
    /// without the third, it would still do so under an overstated
    /// `leaf_count`, by passing its own duplicate as a real sibling.
    /// Without the second, an interior node's two children, concatenated
    /// into one 64-byte item, would prove with the path above that node.
    /// A tree that pairs two equal real nodes
    /// ([`MerkleTree::has_equal_siblings`]) has no valid proofs through
    /// them.
    pub fn verify_proof(
        root: Digest256,
        item: &[u8],
        index: usize,
        leaf_count: usize,
        proof: &[Digest256],
    ) -> bool {
        if index >= leaf_count || proof.len() != tree_height(leaf_count) {
            return false;
        }
        let mut node = sha256(item);
        let (mut idx, mut level_size) = (index, leaf_count);
        for sibling in proof {
            let parent = if !idx.is_multiple_of(2) {
                hash_siblings(sibling, &node)
            } else if idx + 1 < level_size {
                hash_siblings(&node, sibling)
            } else {
                // An odd level's last node, whose proof carries the node
                // itself.
                Some(hash_pair(&node, sibling))
            };
            let Some(parent) = parent else {
                return false;
            };
            node = parent;
            idx /= 2;
            level_size = level_size.div_ceil(2);
        }
        node == root
    }
}

/// A batched multi-index inclusion proof produced by
/// [`MerkleTree::proof_batch`].
///
/// One `BatchProof` covers many leaves at once: interior nodes that are
/// derivable from the proven leaves themselves are never shipped, so proving
/// `k` nearby leaves costs far fewer than `k` single sibling paths (proving
/// *every* leaf ships zero nodes). The proof commits to the tree's leaf
/// count, which fixes the traversal shape the verifier replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchProof {
    /// Number of leaves in the tree the proof was generated against.
    pub leaf_count: u32,
    /// Sibling digests in deterministic traversal order: level by level from
    /// the leaves upward, ascending index within each level.
    pub nodes: Vec<Digest256>,
}

impl MerkleTree {
    /// Returns one batched inclusion proof covering every leaf in `indices`,
    /// or `None` if `indices` is empty or any index is out of range.
    ///
    /// Duplicate indices are tolerated (deduplicated internally); the
    /// verifier receives each proven leaf exactly once.
    pub fn proof_batch(&self, indices: &[usize]) -> Option<BatchProof> {
        if indices.is_empty() || indices.iter().any(|&i| i >= self.leaf_count()) {
            return None;
        }
        let mut known: Vec<usize> = indices.to_vec();
        known.sort_unstable();
        known.dedup();
        let mut nodes = Vec::new();
        for level in &self.levels[..self.levels.len() - 1] {
            let mut next = Vec::with_capacity(known.len());
            let mut i = 0;
            while i < known.len() {
                let idx = known[i];
                if idx.is_multiple_of(2) {
                    if known.get(i + 1) == Some(&(idx + 1)) {
                        // Both children of this pair are being proven: the
                        // parent is derivable, ship nothing.
                        i += 1;
                    } else if let Some(sibling) = level.get(idx + 1) {
                        nodes.push(*sibling);
                    }
                    // Odd trailing node: pairs with itself, nothing to ship.
                } else {
                    nodes.push(level[idx - 1]);
                }
                next.push(idx / 2);
                i += 1;
            }
            next.dedup();
            known = next;
        }
        Some(BatchProof {
            leaf_count: self.leaf_count() as u32,
            nodes,
        })
    }

    /// Verifies a batched proof for the raw (unhashed) `items`, given as
    /// `(leaf index, item)` pairs in any order.
    ///
    /// Rejects empty batches, duplicate or out-of-range indices, proofs with
    /// missing or surplus nodes, any step that hashes a node with an equal
    /// real sibling (shipped or proven), and any digest mismatch against
    /// `root`. The leaf count comes with the proof, and no root commits to
    /// it: the equal-sibling check is what stops an overstated count from
    /// proving an odd level's last node at the index after it, where the
    /// real tree pairs it with itself (see [`MerkleTree::verify_proof`]).
    pub fn verify_batch(root: Digest256, items: &[(usize, &[u8])], proof: &BatchProof) -> bool {
        let leaf_count = proof.leaf_count as usize;
        if items.is_empty() || leaf_count == 0 {
            return false;
        }
        let mut entries: Vec<(usize, Digest256)> = items
            .iter()
            .map(|&(idx, item)| (idx, sha256(item)))
            .collect();
        entries.sort_unstable_by_key(|&(idx, _)| idx);
        if entries.windows(2).any(|w| w[0].0 == w[1].0)
            || entries.last().expect("non-empty").0 >= leaf_count
        {
            return false;
        }
        let mut supplied = proof.nodes.iter();
        let mut level_size = leaf_count;
        while level_size > 1 {
            let mut next = Vec::with_capacity(entries.len());
            let mut i = 0;
            while i < entries.len() {
                let (idx, node) = entries[i];
                let parent = if idx.is_multiple_of(2) {
                    if entries.get(i + 1).is_some_and(|&(j, _)| j == idx + 1) {
                        i += 1;
                        hash_siblings(&node, &entries[i].1)
                    } else if idx + 1 < level_size {
                        supplied
                            .next()
                            .and_then(|sibling| hash_siblings(&node, sibling))
                    } else {
                        Some(hash_pair(&node, &node))
                    }
                } else {
                    supplied
                        .next()
                        .and_then(|sibling| hash_siblings(sibling, &node))
                };
                let Some(parent) = parent else {
                    return false;
                };
                next.push((idx / 2, parent));
                i += 1;
            }
            entries = next;
            level_size = level_size.div_ceil(2);
        }
        supplied.next().is_none() && entries.len() == 1 && entries[0].1 == root
    }
}

/// The root of the tree over `leaves`, and whether any of its levels pairs
/// two equal real nodes: what `MerkleTree::from_leaves(leaves.to_vec())`
/// answers through [`MerkleTree::root`] and
/// [`MerkleTree::has_equal_siblings`], with no tree built.
///
/// The levels are folded in place, each over the front of the one below,
/// so `leaves` is overwritten and nothing is allocated. With no leaves the
/// root is `SHA256("")`, as in [`MerkleTree::from_items`].
pub fn fold_leaves(leaves: &mut [Digest256]) -> (Digest256, bool) {
    if leaves.is_empty() {
        return (sha256(b""), false);
    }
    let mut equal_siblings = false;
    let mut len = leaves.len();
    while len > 1 {
        for parent in 0..len.div_ceil(2) {
            let left = leaves[2 * parent];
            let right = match leaves[..len].get(2 * parent + 1) {
                Some(&right) => {
                    equal_siblings |= left == right;
                    right
                }
                None => left,
            };
            leaves[parent] = hash_pair(&left, &right);
        }
        len = len.div_ceil(2);
    }
    (leaves[0], equal_siblings)
}

/// Number of levels above the leaves in a tree of `leaf_count ≥ 1` leaves:
/// ⌈log₂ `leaf_count`⌉.
fn tree_height(leaf_count: usize) -> usize {
    (usize::BITS - (leaf_count - 1).leading_zeros()) as usize
}

/// The parent of two real sibling nodes, or `None` when they are equal:
/// the verifiers' check against an odd level's last node passed as its own
/// sibling.
fn hash_siblings(left: &Digest256, right: &Digest256) -> Option<Digest256> {
    (left != right).then(|| hash_pair(left, right))
}

fn hash_pair(left: &Digest256, right: &Digest256) -> Digest256 {
    let mut hasher = Sha256::new();
    hasher.update(left);
    hasher.update(right);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_items([b"only".as_ref()]);
        assert_eq!(tree.root(), sha256(b"only"));
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn empty_tree_has_empty_hash_root() {
        let tree = MerkleTree::from_items(std::iter::empty::<&[u8]>());
        assert_eq!(tree.root(), sha256(b""));
    }

    #[test]
    fn two_leaves_root_is_pair_hash() {
        let tree = MerkleTree::from_items([b"a".as_ref(), b"b".as_ref()]);
        assert_eq!(tree.root(), hash_pair(&sha256(b"a"), &sha256(b"b")));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let data = items(n);
            let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
            for (i, item) in data.iter().enumerate() {
                let proof = tree.proof(i).expect("index in range");
                assert!(
                    MerkleTree::verify_proof(tree.root(), item, i, n, &proof),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn proof_out_of_range_is_none() {
        let tree = MerkleTree::from_items([b"a".as_ref()]);
        assert!(tree.proof(1).is_none());
    }

    #[test]
    fn tampered_item_fails_verification() {
        let data = items(8);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let proof = tree.proof(3).unwrap();
        assert!(!MerkleTree::verify_proof(
            tree.root(),
            b"tx-999",
            3,
            8,
            &proof
        ));
    }

    #[test]
    fn wrong_index_fails_verification() {
        let data = items(8);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let proof = tree.proof(3).unwrap();
        assert!(!MerkleTree::verify_proof(
            tree.root(),
            &data[3],
            4,
            8,
            &proof
        ));
    }

    #[test]
    fn repeated_odd_tail_is_told_apart_by_equal_siblings() {
        // [a, b, c, c] and [a, …, f, e, f] have the roots of [a, b, c] and
        // [a, …, f]; only the repeats pair two equal real nodes.
        let data = items(6);
        for (short, long) in [(3, vec![0, 1, 2, 2]), (6, vec![0, 1, 2, 3, 4, 5, 4, 5])] {
            let honest = MerkleTree::from_items(data[..short].iter().map(|v| v.as_slice()));
            let forged = MerkleTree::from_items(long.iter().map(|&i| data[i].as_slice()));
            assert_eq!(honest.root(), forged.root(), "{short} leaves");
            assert!(!honest.has_equal_siblings(), "{short} leaves");
            assert!(forged.has_equal_siblings(), "{short} leaves");
        }
    }

    #[test]
    fn folded_leaves_answer_as_the_tree_does() {
        let tree_answers = |leaves: &[Digest256]| {
            let tree = MerkleTree::from_leaves(leaves.to_vec());
            (tree.root(), tree.has_equal_siblings())
        };
        let folded = |leaves: &[Digest256]| fold_leaves(&mut leaves.to_vec());
        let leaves: Vec<Digest256> = items(33).iter().map(|item| sha256(item)).collect();
        for n in 0..=33 {
            assert_eq!(
                folded(&leaves[..n]),
                tree_answers(&leaves[..n]),
                "{n} leaves"
            );
            assert!(!folded(&leaves[..n]).1, "{n} distinct leaves");
        }
        for n in 1..=17 {
            let honest = &leaves[..n];
            // Forged tails: the last `k` leaves repeated where they are the
            // lone last node of a level below the root, which keeps the
            // honest root.
            for k in [1, 2, 4] {
                if n > k && (n - k) % (2 * k) == 0 {
                    let forged = [honest, &honest[n - k..]].concat();
                    assert_eq!(folded(&forged), tree_answers(&forged), "{n} + {k}");
                    assert_eq!(folded(&forged), (folded(honest).0, true), "{n} + {k}");
                }
            }
            // Two equal leaves at an even and the next index.
            if n % 2 == 0 {
                let mut forged = honest.to_vec();
                forged[n - 2] = forged[n - 1];
                assert_eq!(folded(&forged), tree_answers(&forged), "{n} paired");
                assert!(folded(&forged).1, "{n} paired");
            }
        }
    }

    #[test]
    fn proof_past_the_last_leaf_is_rejected() {
        // In [a, b, c] the tree pairs c with itself, so c's own path also
        // hashes up to the root from index 3.
        let data = items(3);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let proof = tree.proof(2).unwrap();
        assert!(MerkleTree::verify_proof(
            tree.root(),
            &data[2],
            2,
            3,
            &proof
        ));
        assert!(!MerkleTree::verify_proof(
            tree.root(),
            &data[2],
            3,
            3,
            &proof
        ));
    }

    #[test]
    fn an_overstated_leaf_count_proves_no_phantom_item() {
        // In [a, b, c] the tree pairs c with itself. Claiming four leaves
        // turns that duplicate into a real sibling, and c's path reaches
        // the root from index 3.
        let data = items(3);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let leaves: Vec<Digest256> = data.iter().map(|item| sha256(item)).collect();
        let nodes = vec![leaves[2], hash_pair(&leaves[0], &leaves[1])];
        assert_eq!(
            hash_pair(&nodes[1], &hash_pair(&nodes[0], &leaves[2])),
            tree.root(),
            "the forgery reaches the root"
        );
        let forged = BatchProof {
            leaf_count: 4,
            nodes: nodes.clone(),
        };
        assert!(!MerkleTree::verify_batch(
            tree.root(),
            &[(3, &data[2])],
            &forged
        ));
        assert!(!MerkleTree::verify_proof(
            tree.root(),
            &data[2],
            3,
            4,
            &nodes
        ));
        // The honest proofs of c at index 2 still verify.
        let honest = tree.proof_batch(&[2]).unwrap();
        assert!(MerkleTree::verify_batch(
            tree.root(),
            &[(2, &data[2])],
            &honest
        ));
        assert!(MerkleTree::verify_proof(
            tree.root(),
            &data[2],
            2,
            3,
            &tree.proof(2).unwrap()
        ));
    }

    #[test]
    fn interior_node_as_a_64_byte_item_is_rejected() {
        // sha256(a) ‖ sha256(b) hashes to the parent of a and b, so with
        // the one sibling above that parent it reaches the root of
        // [a, b, c, d] from index 0 — one level short of the tree's height.
        let data = items(4);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let mut forged = sha256(&data[0]).to_vec();
        forged.extend_from_slice(&sha256(&data[1]));
        let path_above = [tree.proof(0).unwrap()[1]];
        assert_eq!(
            hash_pair(&sha256(&forged), &path_above[0]),
            tree.root(),
            "the forgery reaches the root"
        );
        assert!(!MerkleTree::verify_proof(
            tree.root(),
            &forged,
            0,
            4,
            &path_above
        ));
    }

    #[test]
    fn batch_proofs_verify_for_every_subset_shape() {
        for n in 1..=16 {
            let data = items(n);
            let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
            // Singles, pairs, the full set, and a strided subset.
            let mut subsets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            subsets.push((0..n).collect());
            subsets.push((0..n).step_by(3).collect());
            if n >= 2 {
                subsets.push(vec![0, n - 1]);
            }
            for subset in subsets {
                let proof = tree.proof_batch(&subset).expect("indices in range");
                let batch: Vec<(usize, &[u8])> =
                    subset.iter().map(|&i| (i, data[i].as_slice())).collect();
                assert!(
                    MerkleTree::verify_batch(tree.root(), &batch, &proof),
                    "n={n} subset={subset:?}"
                );
            }
        }
    }

    #[test]
    fn batch_of_all_leaves_ships_no_nodes() {
        let data = items(8);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let all: Vec<usize> = (0..8).collect();
        let proof = tree.proof_batch(&all).unwrap();
        assert!(proof.nodes.is_empty(), "fully-proven tree is self-deriving");
    }

    #[test]
    fn batch_dedups_shared_nodes_against_single_proofs() {
        let data = items(16);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let indices = [0usize, 1, 2, 3];
        let proof = tree.proof_batch(&indices).unwrap();
        let single_total: usize = indices.iter().map(|&i| tree.proof(i).unwrap().len()).sum();
        assert!(
            proof.nodes.len() < single_total,
            "batch ({}) must beat {} independent sibling paths ({single_total})",
            proof.nodes.len(),
            indices.len()
        );
        // Four adjacent leaves derive two levels internally: only the
        // subtree roots alongside the path remain.
        assert_eq!(proof.nodes.len(), 2);
    }

    #[test]
    fn batch_rejects_malformed_inputs() {
        let data = items(9);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        assert!(tree.proof_batch(&[]).is_none());
        assert!(tree.proof_batch(&[9]).is_none());
        let proof = tree.proof_batch(&[1, 5, 8]).unwrap();
        let good: Vec<(usize, &[u8])> = [1usize, 5, 8]
            .iter()
            .map(|&i| (i, data[i].as_slice()))
            .collect();
        assert!(MerkleTree::verify_batch(tree.root(), &good, &proof));
        // Item order must not matter: the verifier sorts by index.
        let shuffled: Vec<(usize, &[u8])> = vec![good[2], good[0], good[1]];
        assert!(MerkleTree::verify_batch(tree.root(), &shuffled, &proof));
        // Empty batches, duplicate indices, and out-of-range indices fail.
        assert!(!MerkleTree::verify_batch(tree.root(), &[], &proof));
        let dup = vec![good[0], good[0], good[1]];
        assert!(!MerkleTree::verify_batch(tree.root(), &dup, &proof));
        let oob = vec![good[0], good[1], (9, data[8].as_slice())];
        assert!(!MerkleTree::verify_batch(tree.root(), &oob, &proof));
        // Truncated, extended, reordered, and bit-flipped proofs fail.
        let mut truncated = proof.clone();
        truncated.nodes.pop();
        assert!(!MerkleTree::verify_batch(tree.root(), &good, &truncated));
        let mut extended = proof.clone();
        extended.nodes.push([0u8; 32]);
        assert!(!MerkleTree::verify_batch(tree.root(), &good, &extended));
        let mut reordered = proof.clone();
        reordered.nodes.swap(0, 1);
        assert!(!MerkleTree::verify_batch(tree.root(), &good, &reordered));
        let mut flipped = proof.clone();
        flipped.nodes[0][7] ^= 0x40;
        assert!(!MerkleTree::verify_batch(tree.root(), &good, &flipped));
        // A wrong item under a correct proof fails.
        let wrong = vec![(1usize, b"tx-999".as_ref()), good[1], good[2]];
        assert!(!MerkleTree::verify_batch(tree.root(), &wrong, &proof));
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let base = items(9);
        let tree = MerkleTree::from_items(base.iter().map(|v| v.as_slice()));
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] = b"mutated".to_vec();
            let other = MerkleTree::from_items(changed.iter().map(|v| v.as_slice()));
            assert_ne!(tree.root(), other.root(), "leaf {i}");
        }
    }
}
