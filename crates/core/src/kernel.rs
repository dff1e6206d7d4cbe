//! The classifier-side signature kernel: [`SigKernel`] plus digest
//! streaming.
//!
//! [`SignatureKernel`] is what every hot consumer owns — one per
//! `Classifier` worker thread, one per engine worker — and reuses
//! across an entire stream. In digest mode the canonical MSV is hashed
//! word-by-word off the kernel into a rolling [`Fnv128Stream`], so the
//! per-function key computation performs **zero** steady-state heap
//! allocations and never materializes the vector.

use crate::fnv::Fnv128Stream;
use facepoint_sig::{SigKernel, SignatureSet};
use facepoint_truth::TruthTable;

/// A reusable signature-key computer over a fixed [`SignatureSet`].
///
/// [`signature_key`](crate::signature_key) is the one-shot wrapper;
/// create a `SignatureKernel` whenever more than a handful of functions
/// are keyed.
///
/// # Examples
///
/// ```
/// use facepoint_core::{signature_key, SignatureKernel};
/// use facepoint_sig::SignatureSet;
/// use facepoint_truth::TruthTable;
///
/// let set = SignatureSet::all();
/// let mut kernel = SignatureKernel::new(set);
/// let maj = TruthTable::majority(3);
/// assert_eq!(kernel.key(&maj), signature_key(&maj, set));
/// ```
#[derive(Debug)]
pub struct SignatureKernel {
    set: SignatureSet,
    kernel: SigKernel,
}

impl SignatureKernel {
    /// A kernel keying over `set`.
    pub fn new(set: SignatureSet) -> Self {
        SignatureKernel {
            set,
            kernel: SigKernel::new(),
        }
    }

    /// The configured signature families.
    pub fn signature_set(&self) -> SignatureSet {
        self.set
    }

    /// The 128-bit signature key of `f`: `fnv128` of the canonical MSV,
    /// streamed (allocation-free in steady state).
    // analysis: no_alloc
    pub fn key(&mut self, f: &TruthTable) -> u128 {
        let mut stream = Fnv128Stream::new();
        self.kernel.msv_to(f, self.set, &mut stream);
        stream.finish()
    }

    /// Keys a whole slice: one [`Self::key`] per table, appended to
    /// `keys` in input order.
    ///
    /// Steady-state allocation-free once `keys` has warmed up to the
    /// largest slice seen.
    // analysis: no_alloc
    pub fn key_batch(&mut self, fns: &[TruthTable], keys: &mut Vec<u128>) {
        for f in fns {
            let key = self.key(f);
            // analysis: allow(no-alloc, "appends into the caller's key buffer, which the zero_alloc test proves warmed after one pass")
            keys.push(key);
        }
    }

    /// The canonical MSV words of `f`, written into `out` (reusing its
    /// allocation).
    // analysis: no_alloc
    pub fn msv_into(&mut self, f: &TruthTable, out: &mut Vec<u64>) {
        self.kernel.msv_into(f, self.set, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_sig::msv_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn streamed_key_equals_hashed_reference_msv() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for set in [
            SignatureSet::all(),
            SignatureSet::all_extended(),
            SignatureSet::OIV | SignatureSet::OSV,
            SignatureSet::EMPTY,
        ] {
            let mut kernel = SignatureKernel::new(set);
            for n in 0..=7usize {
                for _ in 0..6 {
                    let f = TruthTable::random(n, &mut rng).unwrap();
                    assert_eq!(
                        kernel.key(&f),
                        crate::fnv128(msv_reference(&f, set).as_words()),
                        "set = {set}, n = {n}, f = {f}"
                    );
                }
            }
        }
    }

    /// SplitMix64's output mix: a fixed, dependency-free bit scrambler
    /// for the larger pinned tables below.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Digest-mode store keys on disk are these keys, and a store's
    /// manifest records its signature set but no key scheme, so the
    /// whole pipeline (kernel sections, polarity choice, FNV absorb)
    /// must stay byte-for-byte stable. The kernel ≡ reference tests
    /// cannot see a changed absorb: both sides hash through the same
    /// stream. The n = 3 and n = 8 tables are balanced, so their keys
    /// take the tied dual-polarity path; n = 10 keeps `f`, and n = 0, 6
    /// and 12 negate it.
    #[test]
    fn signature_key_digests_are_pinned() {
        let balanced8 = "6fc70f6a257034175a12f8dba70a7d37d4c756d3e8e8a2c7c4b91cc0482e2d65";
        let mut kernel = SignatureKernel::new(SignatureSet::all());
        for (table, key) in [
            (
                TruthTable::one(0).unwrap(),
                0x7de5_2574_b9be_9e5c_b28a_cbf7_f510_562c_u128,
            ),
            (
                TruthTable::majority(3),
                0x01d7_8b73_3556_c6ec_19f5_a581_4ad3_2265,
            ),
            (
                TruthTable::from_hex(6, "cafe1234deadbeef").unwrap(),
                0x3ec8_5599_6af3_43bc_41f8_9e01_a6f6_58eb,
            ),
            (
                TruthTable::from_hex(8, balanced8).unwrap(),
                0x3390_0e37_61c1_7301_a3f7_5d61_93a5_3b9d,
            ),
            (
                TruthTable::from_fn(10, |m| mix(m) % 8 < 3).unwrap(),
                0x9566_420a_5dd1_976f_b820_4f58_adc5_c821,
            ),
            (
                TruthTable::from_fn(12, |m| mix(m ^ 0xC0FFEE) % 8 < 5).unwrap(),
                0x0e05_3825_15c4_c683_92a4_b1bd_72f6_3d54,
            ),
        ] {
            assert_eq!(kernel.key(&table), key, "n = {}", table.num_vars());
            assert_eq!(
                crate::signature_key(&table, SignatureSet::all()),
                key,
                "one-shot, n = {}",
                table.num_vars()
            );
        }
        assert!(TruthTable::from_hex(8, balanced8).unwrap().is_balanced());
    }

    #[test]
    fn kernel_reuse_does_not_leak_state_across_functions() {
        let mut kernel = SignatureKernel::new(SignatureSet::all());
        let a = TruthTable::majority(5);
        let b = TruthTable::parity(5);
        let ka1 = kernel.key(&a);
        let kb = kernel.key(&b);
        let ka2 = kernel.key(&a);
        assert_eq!(ka1, ka2);
        assert_ne!(ka1, kb);
    }
}
