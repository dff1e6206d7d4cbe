//! Walsh–Hadamard transform and XOR autocorrelation.
//!
//! The fast Walsh–Hadamard transform (WHT) underlies three things:
//!
//! * the *Walsh spectrum* signature, an alternative face-style signature
//!   the paper cites (\[7\] in its bibliography) and which we expose for
//!   completeness and ablation studies;
//! * the kernel's weight-binned `OSDV` pair counter (see the `distance`
//!   module source), which needs one forward transform per group;
//! * the crate-private `O(n·2^n)` **XOR autocorrelation**, the spectral
//!   tail of the reference `OSDV` path ([`crate::osdv`]): for an
//!   indicator vector `a`, `r[d] = Σ_X a[X]·a[X⊕d] = WHT(WHT(a)²)[d] / 2^n`.

use facepoint_truth::TruthTable;

/// In-place fast Walsh–Hadamard transform (self-inverse up to the factor
/// `2^n`).
///
/// Uses the butterfly `(u, v) → (u + v, u − v)`; applying the transform
/// twice multiplies every entry by the length.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn wht_in_place(data: &mut [i64]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "WHT length must be a power of two");
    let mut h = 1;
    while h < n {
        butterfly_level(data, h);
        h *= 2;
    }
}

/// One butterfly level at stride `h`: every `2h` block becomes
/// `(lo + hi, lo − hi)` element-wise.
#[inline]
fn butterfly_level(data: &mut [i64], h: usize) {
    for block in data.chunks_exact_mut(2 * h) {
        let (lo, hi) = block.split_at_mut(h);
        for (u, v) in lo.iter_mut().zip(hi.iter_mut()) {
            let a = *u;
            let b = *v;
            *u = a + b;
            *v = a - b;
        }
    }
}

/// The Walsh spectrum of a Boolean function in ±1 encoding:
/// `W[s] = Σ_X (−1)^{f(X)} (−1)^{s·X}`.
///
/// Equality of sorted absolute spectra is a classical necessary condition
/// for NPN equivalence (spectral Boolean matching).
pub fn walsh_spectrum(f: &TruthTable) -> Vec<i64> {
    let mut data = Vec::new();
    walsh_spectrum_into(f, &mut data);
    data
}

/// Writes the Walsh spectrum into `out`, reusing its allocation — the
/// allocation-free form of [`walsh_spectrum`].
pub fn walsh_spectrum_into(f: &TruthTable, out: &mut Vec<i64>) {
    let len = f.num_bits() as usize;
    out.clear();
    out.resize(len, 0);
    for m in 0..len as u64 {
        out[m as usize] = if f.bit(m) { -1 } else { 1 };
    }
    wht_in_place(out);
}

/// Sorted absolute Walsh spectrum — a permutation/phase invariant vector.
///
/// Also invariant under output negation (`W(¬f) = −W(f)` pointwise), so
/// the signature kernel emits one spectrum for both polarities.
pub fn walsh_spectrum_sorted_abs(f: &TruthTable) -> Vec<i64> {
    let mut s = Vec::new();
    walsh_spectrum_sorted_abs_into(f, &mut s);
    s
}

/// Writes the sorted absolute Walsh spectrum into `out`, reusing its
/// allocation — the allocation-free form of
/// [`walsh_spectrum_sorted_abs`].
pub fn walsh_spectrum_sorted_abs_into(f: &TruthTable, out: &mut Vec<i64>) {
    walsh_spectrum_into(f, out);
    for v in out.iter_mut() {
        *v = v.abs();
    }
    out.sort_unstable();
}

/// Writes the XOR autocorrelation of a 0/1 indicator vector given as
/// bit-packed words into `out`: `out[d] = |{X : a[X] = a[X⊕d] = 1}|`
/// (ordered pairs, `out[0]` equals the popcount).
///
/// # Panics
///
/// Panics if `2^num_vars` exceeds `64 * words.len()`.
pub(crate) fn xor_autocorrelation_into(words: &[u64], num_vars: usize, out: &mut Vec<i64>) {
    let len = 1usize << num_vars;
    assert!(len <= words.len() * 64, "indicator shorter than 2^n bits");
    out.clear();
    out.resize(len, 0);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((words[i / 64] >> (i % 64)) & 1) as i64;
    }
    wht_in_place(out);
    for v in out.iter_mut() {
        *v *= *v;
    }
    wht_in_place(out);
    for v in out.iter_mut() {
        debug_assert_eq!(*v % len as i64, 0, "autocorrelation must divide evenly");
        *v /= len as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wht_involution() {
        let mut data: Vec<i64> = (0..16).map(|i| (i * i - 5) as i64).collect();
        let orig = data.clone();
        wht_in_place(&mut data);
        wht_in_place(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert_eq!(*a, b * 16);
        }
    }

    #[test]
    fn parseval() {
        let f = TruthTable::from_hex(4, "ca53").unwrap();
        let spec = walsh_spectrum(&f);
        let energy: i64 = spec.iter().map(|v| v * v).sum();
        assert_eq!(energy, 16 * 16, "Σ W² = 2^{{2n}}");
    }

    #[test]
    fn spectrum_of_parity_is_concentrated() {
        let f = TruthTable::parity(4);
        let spec = walsh_spectrum(&f);
        // Parity correlates only with the full-support character.
        for (s, w) in spec.iter().enumerate() {
            if s == 0b1111 {
                assert_eq!(w.abs(), 16);
            } else {
                assert_eq!(*w, 0, "index {s}");
            }
        }
    }

    #[test]
    fn sorted_abs_spectrum_is_npn_invariant_sample() {
        use facepoint_truth::NpnTransform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let f = TruthTable::random(5, &mut rng).unwrap();
            let t = NpnTransform::random(5, &mut rng);
            let g = t.apply(&f);
            assert_eq!(walsh_spectrum_sorted_abs(&f), walsh_spectrum_sorted_abs(&g));
        }
    }

    #[test]
    fn autocorrelation_counts_pairs() {
        // Indicator {000, 011, 101} of a 3-cube.
        let words = [0b0010_1001u64];
        let mut r = Vec::new();
        xor_autocorrelation_into(&words, 3, &mut r);
        assert_eq!(r[0], 3, "r[0] = popcount");
        // d = 011: pairs (000,011) both ways → 2.
        assert_eq!(r[0b011], 2);
        assert_eq!(r[0b101], 2);
        assert_eq!(r[0b110], 2); // (011, 101)
        assert_eq!(r[0b001], 0);
        let total: i64 = r.iter().sum();
        assert_eq!(total, 9, "Σ_d r[d] = popcount²");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn wht_rejects_non_power_of_two() {
        let mut data = vec![1i64; 6];
        wht_in_place(&mut data);
    }
}
