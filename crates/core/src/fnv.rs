//! Deterministic 128-bit FNV-1a hashing for MSV digests.
//!
//! The classifier buckets functions by a digest of their Mixed Signature
//! Vector (the paper's Algorithm 1, line 7, "class ← hash(MSV)"). A
//! fixed, seedless hash keeps classification results reproducible across
//! runs and platforms; 128 bits make collisions irrelevant at any
//! realistic workload size (≈ 10⁻²⁰ at a million keys). A collision
//! could only merge classes, and the engine's certified tier splits any
//! digest bucket into proved NPN classes regardless.

/// FNV-1a 128-bit offset basis.
const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const PRIME: u128 = 0x0000000001000000000000000000013b;

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
    pub fn word(&mut self, w: u64) {
        let mut h = self.state;
        for b in w.to_le_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
        self.state = h;
    }

    /// Absorbs a run of words.
    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl facepoint_sig::MsvSink for Fnv128Stream {
    fn word(&mut self, w: u64) {
        Fnv128Stream::word(self, w);
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
