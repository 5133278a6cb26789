//! Property tests for [`hashcore_crypto::MerkleTree`] proofs.
//!
//! Round-trips single and batched inclusion proofs at every index for trees
//! of 1..=64 leaves, and checks that truncated, reordered, and bit-flipped
//! proofs are rejected — the same tampering classes a fake-proof network
//! adversary can attempt against a light client.

use hashcore_crypto::MerkleTree;
use proptest::prelude::*;

fn leaves(n: usize, tag: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("leaf-{tag}-{i}").into_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `proof`/`verify_proof` round-trips at every index of every tree size.
    #[test]
    fn single_proofs_round_trip_at_every_index(n in 1usize..65, tag in any::<u64>()) {
        let data = leaves(n, tag);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        for (i, item) in data.iter().enumerate() {
            let proof = tree.proof(i).expect("index in range");
            prop_assert!(
                MerkleTree::verify_proof(tree.root(), item, i, n, &proof),
                "n={} i={}", n, i
            );
        }
    }

    /// Truncating a proof (dropping its last sibling) must fail verification
    /// for every index of every multi-leaf tree.
    #[test]
    fn truncated_single_proofs_are_rejected(n in 2usize..65, tag in any::<u64>()) {
        let data = leaves(n, tag);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        for (i, item) in data.iter().enumerate() {
            let mut proof = tree.proof(i).expect("index in range");
            proof.pop();
            prop_assert!(
                !MerkleTree::verify_proof(tree.root(), item, i, n, &proof),
                "truncated proof accepted at n={} i={}", n, i
            );
        }
    }

    /// Swapping two distinct siblings in a proof must fail verification.
    #[test]
    fn reordered_single_proofs_are_rejected(n in 5usize..65, index in 0usize..64, tag in any::<u64>()) {
        let data = leaves(n, tag);
        let index = index % n;
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let mut proof = tree.proof(index).expect("index in range");
        // Trees of 5+ leaves have 3+ levels, so every path holds at least
        // two siblings to swap.
        prop_assert!(proof.len() >= 2);
        proof.swap(0, 1);
        if proof[0] != proof[1] {
            prop_assert!(
                !MerkleTree::verify_proof(tree.root(), &data[index], index, n, &proof),
                "reordered proof accepted at n={} index={}", n, index
            );
        }
    }

    /// Flipping any single bit of any proof byte must fail verification.
    #[test]
    fn bit_flipped_single_proofs_are_rejected(
        n in 2usize..65,
        index in 0usize..64,
        pos in 0usize..2048,
        bit in 0u8..8,
        tag in any::<u64>(),
    ) {
        let data = leaves(n, tag);
        let index = index % n;
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let mut proof = tree.proof(index).expect("index in range");
        let pos = pos % (proof.len() * 32);
        proof[pos / 32][pos % 32] ^= 1 << bit;
        prop_assert!(
            !MerkleTree::verify_proof(tree.root(), &data[index], index, n, &proof),
            "bit-flipped proof accepted at n={} index={}", n, index
        );
    }

    /// Batched proofs round-trip for arbitrary index subsets, and flipping
    /// any bit of a shipped node breaks them.
    #[test]
    fn batch_proofs_round_trip_and_reject_bit_flips(
        n in 1usize..65,
        mask in 1u64..u64::MAX,
        pos in 0usize..4096,
        bit in 0u8..8,
        tag in any::<u64>(),
    ) {
        let data = leaves(n, tag);
        let tree = MerkleTree::from_items(data.iter().map(|v| v.as_slice()));
        let indices: Vec<usize> = (0..n).filter(|i| mask & (1 << (i % 64)) != 0).collect();
        prop_assume!(!indices.is_empty());
        let proof = tree.proof_batch(&indices).expect("indices in range");
        let batch: Vec<(usize, &[u8])> =
            indices.iter().map(|&i| (i, data[i].as_slice())).collect();
        prop_assert!(
            MerkleTree::verify_batch(tree.root(), &batch, &proof),
            "batch round-trip failed at n={} indices={:?}", n, indices
        );
        if !proof.nodes.is_empty() {
            let mut tampered = proof.clone();
            let pos = pos % (tampered.nodes.len() * 32);
            tampered.nodes[pos / 32][pos % 32] ^= 1 << bit;
            prop_assert!(
                !MerkleTree::verify_batch(tree.root(), &batch, &tampered),
                "tampered batch accepted at n={} indices={:?}", n, indices
            );
        }
    }
}
