//! Deterministic 128-bit FNV-1a hashing for MSV digests.
//!
//! The classifier buckets functions by a digest of their Mixed Signature
//! Vector (the paper's Algorithm 1, line 7, "class ← hash(MSV)"). A
//! fixed, seedless hash keeps classification results reproducible across
//! runs and platforms; 128 bits make collisions irrelevant at any
//! realistic workload size (≈ 10⁻²⁰ at a million keys). A collision
//! could only merge classes, and the engine's certified tier splits any
//! digest bucket into proved NPN classes regardless.
//!
//! # Zero bytes cost one multiply
//!
//! FNV-1a absorbs a byte `b` as `h ← (h ⊕ b)·PRIME`. For `b = 0` the
//! XOR is the identity, so `k` zero bytes in a row are `h ← h·PRIME^k`:
//! one multiply by a power taken from a `const` table. MSV words are
//! mostly small counts (at n = 8 nearly all fit in one byte), so
//! [`Fnv128Stream::word`] absorbs a word's bytes below its highest
//! non-zero one, then XORs that byte in and multiplies once by
//! `PRIME^(k+1)`: its own multiply and the `k` zero bytes above it. A
//! word below 256 costs one multiply instead of eight. The digest is
//! bit-for-bit the byte-wise FNV-1a of the little-endian bytes; a word
//! whose top byte is non-zero takes the plain 8-step loop.

/// FNV-1a 128-bit offset basis.
const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const PRIME: u128 = 0x0000000001000000000000000000013b;

/// `PRIME^k` for `k = 0..=8`: absorbing `k` zero bytes.
const PRIME_POW: [u128; 9] = {
    let mut pow = [1u128; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Hashes a slice of words with FNV-1a/128 (byte-wise, little-endian).
///
/// # Examples
///
/// ```
/// use facepoint_core::fnv128;
///
/// let a = fnv128(&[1, 2, 3]);
/// let b = fnv128(&[1, 2, 3]);
/// let c = fnv128(&[3, 2, 1]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn fnv128(words: &[u64]) -> u128 {
    let mut stream = Fnv128Stream::new();
    stream.words(words);
    stream.finish()
}

/// A rolling FNV-1a/128 state over a stream of words.
///
/// Feeding words one at a time produces exactly the digest [`fnv128`]
/// computes over the concatenation — this is what lets digest-mode
/// classification hash a Mixed Signature Vector straight off the
/// signature kernel without ever materializing it (the stream
/// implements [`facepoint_sig::MsvSink`]).
///
/// # Examples
///
/// ```
/// use facepoint_core::{fnv128, Fnv128Stream};
///
/// let mut s = Fnv128Stream::new();
/// s.word(1);
/// s.word(2);
/// assert_eq!(s.finish(), fnv128(&[1, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv128Stream {
    state: u128,
}

impl Default for Fnv128Stream {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128Stream {
    /// A stream at the FNV-1a offset basis (the empty-input digest).
    pub fn new() -> Self {
        Fnv128Stream { state: OFFSET }
    }

    /// Absorbs one word (byte-wise, little-endian).
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.state = absorb(self.state, w);
    }

    /// Absorbs a run of words.
    #[inline]
    pub fn words(&mut self, ws: &[u64]) {
        self.state = ws.iter().fold(self.state, |h, &w| absorb(h, w));
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// FNV-1a over the little-endian bytes of `w`, with the zero bytes
/// above the highest non-zero one folded into one multiply (see the
/// module docs). `steps` counts the byte steps left; the last one is
/// `PRIME^steps`.
#[inline]
fn absorb(mut h: u128, w: u64) -> u128 {
    if w >> 56 != 0 {
        for b in w.to_le_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
        return h;
    }
    let (mut rest, mut steps) = (w, 8);
    while rest > 0xff {
        h ^= (rest & 0xff) as u128;
        h = h.wrapping_mul(PRIME);
        rest >>= 8;
        steps -= 1;
    }
    (h ^ rest as u128).wrapping_mul(PRIME_POW[steps])
}

impl facepoint_sig::MsvSink for Fnv128Stream {
    fn word(&mut self, w: u64) {
        Fnv128Stream::word(self, w);
    }

    fn words(&mut self, ws: &[u64]) {
        Fnv128Stream::words(self, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_empty() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv128(&[]), OFFSET);
    }

    #[test]
    fn deterministic_across_calls() {
        let data = [0xDEAD_BEEFu64, 42, u64::MAX];
        assert_eq!(fnv128(&data), fnv128(&data));
    }

    #[test]
    fn sensitive_to_order_and_content() {
        assert_ne!(fnv128(&[0, 1]), fnv128(&[1, 0]));
        assert_ne!(fnv128(&[0]), fnv128(&[0, 0]));
        assert_ne!(fnv128(&[7]), fnv128(&[8]));
    }

    /// The zero-byte shortcut against plain byte-wise FNV-1a, on words
    /// with every count of significant bytes (0..=8).
    #[test]
    fn word_absorb_matches_bytewise_fnv1a() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        fn bytewise(h: u128, w: u64) -> u128 {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u128).wrapping_mul(PRIME))
        }
        let mut words = vec![0u64, 1, 0xff, u64::MAX];
        for bytes in 1..8 {
            words.push(1 << (8 * bytes));
            words.push((1 << (8 * bytes)) - 1);
        }
        let mut rng = StdRng::seed_from_u64(0xF17);
        for bytes in 1..=8u32 {
            let low = 1u64 << (8 * (bytes - 1));
            for _ in 0..300 {
                let w = rng.random::<u64>() >> (64 - 8 * bytes);
                words.push(w | low);
            }
        }
        let mut stream = Fnv128Stream::new();
        let mut expect = OFFSET;
        for &w in &words {
            let mut single = Fnv128Stream::new();
            single.word(w);
            assert_eq!(single.finish(), bytewise(OFFSET, w), "word {w:#x}");
            stream.word(w);
            expect = bytewise(expect, w);
            assert_eq!(stream.finish(), expect, "stream after {w:#x}");
        }
        assert_eq!(fnv128(&words), expect, "words() over the whole run");
    }

    #[test]
    fn no_collisions_on_small_dense_inputs() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..64 {
                assert!(seen.insert(fnv128(&[a, b])), "collision at ({a},{b})");
            }
        }
    }
}
