//! Hash maps and sets keyed by SHA-256 digests.
//!
//! A PoW digest is already the output of a cryptographic hash, so a map
//! keyed by one needs no second pass of SipHash to spread its keys:
//! [`DigestState`] folds the digest's four 64-bit words through one
//! 64×64→128-bit multiply. Peers choose which digests a node stores, so the
//! fold is keyed, per map, from [`RandomState`]: without the keys a peer
//! cannot predict which bucket a digest lands in. A thread draws its keys
//! from a `RandomState` once and advances them by one per map, as
//! `RandomState` advances its own, so making a map costs no hashing: a
//! simulation makes four per node. PoW digests start with
//! zero bytes, so one word read from the front would put every key in one
//! bucket. The fold instead mixes all four words, so the bucket index (the
//! low bits) and the tag (the top seven bits) depend on every byte.

use crate::sha256::Digest256;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher, RandomState};

/// A [`HashMap`] keyed by [`Digest256`], hashed by [`DigestState`].
pub type DigestMap<V> = HashMap<Digest256, V, DigestState>;

/// A [`HashSet`] of [`Digest256`], hashed by [`DigestState`].
pub type DigestSet = HashSet<Digest256, DigestState>;

/// The [`BuildHasher`] of [`DigestMap`] and [`DigestSet`]: one folded
/// multiply per digest, under two keys of its own, drawn from a
/// [`RandomState`].
///
/// # Examples
///
/// ```
/// use hashcore_crypto::{sha256, DigestMap};
///
/// let mut heights = DigestMap::default();
/// heights.insert(sha256(b"block"), 7u64);
/// assert_eq!(heights.get(&sha256(b"block")), Some(&7));
/// ```
#[derive(Clone)]
pub struct DigestState {
    keys: [u64; 2],
}

thread_local! {
    /// The keys of the next [`DigestState`] this thread makes: drawn from a
    /// [`RandomState`] once, then the first advanced by one per state.
    static NEXT_KEYS: Cell<[u64; 2]> = Cell::new({
        let random = RandomState::new();
        [random.hash_one(0u8), random.hash_one(1u8)]
    });
}

impl Default for DigestState {
    fn default() -> Self {
        let keys = NEXT_KEYS.with(|next| {
            let keys = next.get();
            next.set([keys[0].wrapping_add(1), keys[1]]);
            keys
        });
        Self { keys }
    }
}

/// Leaves the keys out, as [`RandomState`]'s `Debug` does.
impl fmt::Debug for DigestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DigestState").finish_non_exhaustive()
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher {
            state: self.keys[0],
            key: self.keys[1],
        }
    }
}

/// The [`Hasher`] a [`DigestState`] builds.
///
/// A [`Digest256`] key writes its length, then its 32 bytes. The length is
/// added to the state, and the bytes are folded as four little-endian
/// words: `(state ^ w0 ^ w2) × (key ^ w1 ^ w3)`, the 128-bit product's
/// halves XORed together. Other writes fold each 32 bytes the same way,
/// the last block padded with zeros.
#[derive(Debug, Clone)]
pub struct DigestHasher {
    state: u64,
    key: u64,
}

impl DigestHasher {
    /// Folds up to 32 bytes into the state.
    fn fold(&mut self, block: &[u8]) {
        let mut padded = [0u8; 32];
        padded[..block.len()].copy_from_slice(block);
        let mut w = [0u64; 4];
        for (word, bytes) in w.iter_mut().zip(padded.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("chunks of eight bytes"));
        }
        let product = u128::from(self.state ^ w[0] ^ w[2]) * u128::from(self.key ^ w[1] ^ w[3]);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for block in bytes.chunks(32) {
            self.fold(block);
        }
    }

    /// Adds the length a slice writes before its bytes, with no multiply.
    fn write_usize(&mut self, n: usize) {
        self.state = self.state.wrapping_add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use std::collections::BTreeMap;

    /// A digest that meets a PoW target of `zero_bytes` leading zero bytes.
    fn pow_like(i: u64, zero_bytes: usize) -> Digest256 {
        let mut digest = sha256(&i.to_le_bytes());
        digest[..zero_bytes].fill(0);
        digest
    }

    #[test]
    fn digest_map_agrees_with_a_btree_map() {
        let mut map = DigestMap::default();
        let mut reference = BTreeMap::new();
        // A seeded walk over 512 keys: inserts, overwrites, removes and
        // lookups, with enough live keys to grow the table several times.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = pow_like(x % 512, (x >> 32) as usize % 9);
            match x >> 61 {
                0..=3 => assert_eq!(map.insert(key, step), reference.insert(key, step)),
                4 | 5 => assert_eq!(map.remove(&key), reference.remove(&key)),
                _ => assert_eq!(map.get(&key), reference.get(&key)),
            }
            assert_eq!(map.len(), reference.len());
        }
        let mut entries: Vec<_> = map.into_iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn pow_like_digests_reach_every_bucket_and_every_tag() {
        // A table of 4,096 buckets indexes by the low 12 bits and tags by
        // the top 7. Digests with eight leading zero bytes have a zero
        // first word, so a hash of that word alone would reach one bucket.
        const BUCKET_BITS: u32 = 12;
        let state = DigestState::default();
        let mut buckets = vec![false; 1 << BUCKET_BITS];
        let mut tags = [false; 128];
        for i in 0..(16 << BUCKET_BITS) {
            let hash = state.hash_one(pow_like(i, 8));
            buckets[(hash & ((1 << BUCKET_BITS) - 1)) as usize] = true;
            tags[(hash >> 57) as usize] = true;
        }
        assert!(buckets.iter().all(|&hit| hit), "every bucket index");
        assert!(tags.iter().all(|&hit| hit), "every tag");
    }

    #[test]
    fn every_digest_byte_moves_the_bucket_and_the_tag() {
        let state = DigestState::default();
        for at in 0..32 {
            // The most distinct bucket indexes (low 8 bits) and tags that
            // one byte's 256 values reach, over eight digests. A byte the
            // hash ignored would reach one of each. One multiply spreads a
            // single byte less evenly than a whole digest: under about
            // 0.4% of keys a digest reaches fewer than 16, so eight
            // digests all doing so is out of reach.
            let (mut buckets, mut tags) = (0, 0);
            for base in 0..8 {
                let (mut base_buckets, mut base_tags) = (HashSet::new(), HashSet::new());
                for byte in 0..=255u8 {
                    let mut digest = pow_like(base, 4);
                    digest[at] = byte;
                    let hash = state.hash_one(digest);
                    base_buckets.insert(hash & 0xff);
                    base_tags.insert(hash >> 57);
                }
                buckets = buckets.max(base_buckets.len());
                tags = tags.max(base_tags.len());
            }
            assert!(buckets >= 16, "byte {at}: {buckets} bucket indexes");
            assert!(tags >= 16, "byte {at}: {tags} tags");
        }
    }

    #[test]
    fn two_states_hash_one_digest_differently() {
        let digest = pow_like(7, 2);
        let (a, b) = (DigestState::default(), DigestState::default());
        assert_ne!(a.hash_one(digest), b.hash_one(digest));
        assert_eq!(a.hash_one(digest), a.clone().hash_one(digest));
    }
}
