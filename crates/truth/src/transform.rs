//! NP transformations: input negation, input permutation, output negation,
//! and the [`NpnTransform`] group algebra.
//!
//! The paper (Section II-A) writes an NP transformation of `f` as
//! `f(π((¬)X))`: a selective negation of inputs followed by a reorder. We
//! represent the full NPN transform as a triple *(permutation, input-phase
//! mask, output phase)* with the semantics
//!
//! ```text
//! g(X) = out ⊕ f(Y)    where   Y_i = X_{perm[i]} ⊕ neg_i
//! ```
//!
//! i.e. variable `i` of `f` reads input position `perm[i]` of `g`,
//! optionally complemented. Two functions are NPN-equivalent iff some
//! transform maps one onto the other.

use crate::error::{Error, Result};
use crate::table::TruthTable;
use crate::words::{flip_var_word, swap_vars_word, WORD_VARS};
use std::fmt;

impl TruthTable {
    /// Negates input variable `var` in place: `f ↦ f[x_var ← ¬x_var]`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn flip_var_in_place(&mut self, var: usize) {
        self.check_var(var).expect("variable index in range");
        if var < WORD_VARS {
            let n = self.num_vars();
            for w in self.words_mut() {
                *w = flip_var_word(*w, var);
            }
            if n < WORD_VARS {
                // flip of the top in-use variable keeps bits inside the
                // valid region, but be defensive for n < 6.
                self.mask_padding();
            }
        } else {
            // Swap adjacent word blocks of size 2^(var-6).
            let block = 1usize << (var - WORD_VARS);
            let words = self.words_mut();
            let mut i = 0;
            while i < words.len() {
                for k in 0..block {
                    words.swap(i + k, i + block + k);
                }
                i += 2 * block;
            }
        }
    }

    /// Returns `f` with input variable `var` negated.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    ///
    /// # Examples
    ///
    /// ```
    /// use facepoint_truth::TruthTable;
    ///
    /// let and2 = TruthTable::from_u64(2, 0b1000)?; // x0 ∧ x1
    /// let gt = and2.flip_var(0);                   // ¬x0 ∧ x1
    /// assert_eq!(gt.as_u64(), 0b0100);
    /// # Ok::<(), facepoint_truth::Error>(())
    /// ```
    #[must_use]
    pub fn flip_var(&self, var: usize) -> TruthTable {
        let mut out = self.clone();
        out.flip_var_in_place(var);
        out
    }

    /// Writes the words of the Boolean derivative
    /// `∂f/∂x_var = f ⊕ f[x_var ← ¬x_var]` into `out`, reusing its
    /// allocation.
    ///
    /// This is the inner step of sensitivity and influence computation;
    /// computing the derivative word-by-word avoids materializing the
    /// flipped table (which [`TruthTable::flip_var`] would clone in
    /// full). Padding bits of sub-word tables stay zero.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn derivative_words_into(&self, var: usize, out: &mut Vec<u64>) {
        self.check_var(var).expect("variable index in range");
        let words = self.words();
        out.clear();
        if var < WORD_VARS {
            out.extend(words.iter().map(|&w| w ^ flip_var_word(w, var)));
        } else {
            // The partner word of index `i` differs exactly in bit
            // `var - 6` of the word index.
            let bit = 1usize << (var - WORD_VARS);
            out.extend((0..words.len()).map(|i| words[i] ^ words[i ^ bit]));
        }
    }

    /// Exchanges input variables `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn swap_vars_in_place(&mut self, a: usize, b: usize) {
        self.check_var(a).expect("variable index in range");
        self.check_var(b).expect("variable index in range");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi < WORD_VARS {
            for w in self.words_mut() {
                *w = swap_vars_word(*w, lo, hi);
            }
        } else if lo >= WORD_VARS {
            // Both variables index whole words: swap word pairs whose word
            // indices differ exactly in bits (lo-6) and (hi-6).
            let bl = lo - WORD_VARS;
            let bh = hi - WORD_VARS;
            let words = self.words_mut();
            for i in 0..words.len() {
                let l = (i >> bl) & 1;
                let h = (i >> bh) & 1;
                if l == 1 && h == 0 {
                    let j = (i & !((1 << bl) | (1 << bh))) | (1 << bh);
                    words.swap(i, j);
                }
            }
        } else {
            // Mixed case: `lo` lives inside the word, `hi` selects word
            // blocks. Exchange the in-word half (x_lo = 1) of the low block
            // with the (x_lo = 0) half of the partner word.
            let shift = 1u32 << lo;
            let mask = crate::words::VAR_MASK[lo];
            let bh = hi - WORD_VARS;
            let words = self.words_mut();
            for i in 0..words.len() {
                if (i >> bh) & 1 == 0 {
                    let j = i | (1 << bh);
                    let a_w = words[i];
                    let b_w = words[j];
                    // Bits of word i with x_lo = 1 trade places with bits
                    // of word j with x_lo = 0 (shifted into alignment).
                    words[i] = (a_w & !mask) | ((b_w & !mask) << shift);
                    words[j] = (b_w & mask) | ((a_w & mask) >> shift);
                }
            }
        }
    }

    /// Returns `f` with input variables `a` and `b` exchanged.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn swap_vars(&self, a: usize, b: usize) -> TruthTable {
        let mut out = self.clone();
        out.swap_vars_in_place(a, b);
        out
    }

    /// Exchanges adjacent input variables `var` and `var + 1` in place.
    ///
    /// This is the step operation of Steinhaus–Johnson–Trotter permutation
    /// enumeration used by exhaustive canonicalization.
    ///
    /// # Panics
    ///
    /// Panics if `var + 1 >= num_vars`.
    #[inline]
    pub fn swap_adjacent_in_place(&mut self, var: usize) {
        self.swap_vars_in_place(var, var + 1);
    }

    /// Applies a permutation of the input variables.
    ///
    /// The result `g` satisfies `g(x_0, …, x_{n-1}) = f(x_{perm[0]}, …,
    /// x_{perm[n-1]})`: variable `i` of `f` reads input position `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    #[must_use]
    pub fn permute_vars(&self, perm: &Permutation) -> TruthTable {
        assert_eq!(
            perm.len(),
            self.num_vars(),
            "permutation arity must match table arity"
        );
        let mut out = TruthTable::zero(self.num_vars()).expect("same arity as self");
        for m in 0..self.num_bits() {
            if self.bit(m) {
                // `f` is 1 at Y; `g` is 1 at every X with Y_i = X_{perm[i]},
                // i.e. X_{perm[i]} = Y_i.
                let mut x = 0u64;
                for (i, &p) in perm.as_slice().iter().enumerate() {
                    x |= ((m >> i) & 1) << p;
                }
                out.set_bit(x, true);
            }
        }
        out
    }
}

/// A permutation of variable indices `0..n`.
///
/// Stored as the image vector: `perm[i]` is where index `i` is mapped.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation(Vec<u8>);

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation((0..n as u8).collect())
    }

    /// Builds a permutation from its image slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPermutation`] if the slice is not a
    /// permutation of `0..len`.
    pub fn from_slice(slice: &[usize]) -> Result<Self> {
        let n = slice.len();
        let mut seen = vec![false; n];
        for &v in slice {
            if v >= n || seen[v] {
                return Err(Error::InvalidPermutation);
            }
            seen[v] = true;
        }
        Ok(Permutation(slice.iter().map(|&v| v as u8).collect()))
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the permutation acts on zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The image of index `i`.
    #[inline]
    pub fn map(&self, i: usize) -> usize {
        self.0[i] as usize
    }

    /// The image vector as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The inverse permutation: `inv.map(self.map(i)) == i`.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u8; self.0.len()];
        for (i, &p) in self.0.iter().enumerate() {
            inv[p as usize] = i as u8;
        }
        Permutation(inv)
    }

    /// Composition `self ∘ other`: first apply `other`, then `self`
    /// (`result.map(i) == self.map(other.map(i))`).
    #[must_use]
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "permutation sizes must match");
        Permutation(other.0.iter().map(|&p| self.0[p as usize]).collect())
    }

    /// Exchanges the images of positions `i` and `j`.
    pub fn swap_images(&mut self, i: usize, j: usize) {
        self.0.swap(i, j);
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.0.iter().enumerate().all(|(i, &p)| i == p as usize)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// A full NPN transformation: input permutation, selective input negation
/// and output negation.
///
/// Applying the transform to `f` yields `g` with `g(X) = output_neg ⊕ f(Y)`
/// where `Y_i = X_{perm[i]} ⊕ input_neg_i` — the paper's `(¬)f(π((¬)X))`.
///
/// Transforms form a group: [`NpnTransform::compose`] and
/// [`NpnTransform::inverse`] obey `t.inverse().apply(&t.apply(&f)) == f`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    perm: Permutation,
    input_neg: u16,
    output_neg: bool,
}

impl NpnTransform {
    /// The identity transform on `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform {
            perm: Permutation::identity(n),
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Creates a transform from its parts.
    ///
    /// Bit `i` of `input_neg` complements variable `i` (of the *source*
    /// function `f`).
    pub fn new(perm: Permutation, input_neg: u16, output_neg: bool) -> Self {
        NpnTransform {
            perm,
            input_neg,
            output_neg,
        }
    }

    /// A pure input/output-phase transform (identity permutation).
    pub fn phase(n: usize, input_neg: u16, output_neg: bool) -> Self {
        Self::new(Permutation::identity(n), input_neg, output_neg)
    }

    /// The permutation component.
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// The input-negation mask (bit `i` negates variable `i` of `f`).
    pub fn input_neg(&self) -> u16 {
        self.input_neg
    }

    /// Whether the output is complemented.
    pub fn output_neg(&self) -> bool {
        self.output_neg
    }

    /// Number of variables the transform acts on.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the transform acts on zero variables.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Applies the transform to a truth table, producing
    /// `g(X) = out ⊕ f(Y)`, `Y_i = X_{perm[i]} ⊕ neg_i`.
    ///
    /// # Panics
    ///
    /// Panics if the transform arity differs from the table arity.
    ///
    /// # Examples
    ///
    /// ```
    /// use facepoint_truth::{NpnTransform, Permutation, TruthTable};
    ///
    /// let f = TruthTable::from_u64(2, 0b1000)?; // x0 ∧ x1
    /// // g(x0, x1) = ¬f(¬x0, x1) = ¬(¬x0 ∧ x1) — NOR-ish shape
    /// let t = NpnTransform::new(Permutation::identity(2), 0b01, true);
    /// let g = t.apply(&f);
    /// assert_eq!(g.as_u64(), 0b1011);
    /// # Ok::<(), facepoint_truth::Error>(())
    /// ```
    #[must_use]
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        assert_eq!(self.len(), f.num_vars(), "transform arity must match table");
        let mut t = f.clone();
        let mut neg = self.input_neg;
        while neg != 0 {
            let v = neg.trailing_zeros() as usize;
            t.flip_var_in_place(v);
            neg &= neg - 1;
        }
        let mut t = t.permute_vars(&self.perm);
        if self.output_neg {
            t.negate_in_place();
        }
        t
    }

    /// Composition: `self.compose(&first)` applies `first` and then `self`
    /// (`composed.apply(f) == self.apply(&first.apply(f))`).
    #[must_use]
    pub fn compose(&self, first: &Self) -> Self {
        assert_eq!(self.len(), first.len(), "transform sizes must match");
        // With g1 = first(f): g1(X) = o1 ⊕ f(Y), Y_i = X_{p1[i]} ⊕ n1_i and
        // g2 = self(g1): g2(X) = o2 ⊕ g1(Z), Z_j = X_{p2[j]} ⊕ n2_j, the
        // direct form g2(X) = (o1⊕o2) ⊕ f(W) has
        // W_i = Z_{p1[i]} ⊕ n1_i = X_{p2[p1[i]]} ⊕ n2_{p1[i]} ⊕ n1_i.
        let n = self.len();
        let mut perm = vec![0usize; n];
        let mut neg = 0u16;
        for (i, slot) in perm.iter_mut().enumerate() {
            let p1i = first.perm.map(i);
            *slot = self.perm.map(p1i);
            let bit = ((first.input_neg >> i) & 1) ^ ((self.input_neg >> p1i) & 1);
            neg |= bit << i;
        }
        NpnTransform {
            perm: Permutation::from_slice(&perm).expect("composition of permutations"),
            input_neg: neg,
            output_neg: self.output_neg ^ first.output_neg,
        }
    }

    /// The inverse transform: `t.inverse().apply(&t.apply(&f)) == f`.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let inv = self.perm.inverse();
        let mut neg = 0u16;
        for j in 0..self.len() {
            neg |= ((self.input_neg >> inv.map(j)) & 1) << j;
        }
        NpnTransform {
            perm: inv,
            input_neg: neg,
            output_neg: self.output_neg,
        }
    }
}

impl fmt::Display for NpnTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "π={} neg={:#b} out={}",
            self.perm, self.input_neg, self.output_neg as u8
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, bits: u64) -> TruthTable {
        TruthTable::from_u64(n, bits).unwrap()
    }

    #[test]
    fn flip_var_semantics_naive() {
        let t = TruthTable::from_fn(8, |m| (m * 2654435761) % 7 < 3).unwrap();
        for var in 0..8 {
            let flipped = t.flip_var(var);
            for m in 0..256u64 {
                assert_eq!(flipped.bit(m), t.bit(m ^ (1 << var)), "var {var} m {m}");
            }
        }
    }

    #[test]
    fn derivative_words_match_flip_xor() {
        let mut out = Vec::new();
        for n in [0usize, 2, 5, 6, 7, 8] {
            let t = TruthTable::from_fn(n, |m| m.wrapping_mul(0x9E37_79B9) % 5 < 2).unwrap();
            for var in 0..n {
                t.derivative_words_into(var, &mut out);
                let expect = &t ^ &t.flip_var(var);
                assert_eq!(out.as_slice(), expect.words(), "n={n} var={var}");
            }
        }
    }

    #[test]
    fn swap_vars_semantics_naive() {
        let t = TruthTable::from_fn(9, |m| (m * 0x9E3779B9) % 11 < 4).unwrap();
        // Cover all three implementation cases: in-word, mixed, word-level.
        for &(a, b) in &[(0, 3), (4, 5), (2, 7), (5, 8), (6, 8), (7, 8)] {
            let s = t.swap_vars(a, b);
            for m in 0..512u64 {
                let ba = (m >> a) & 1;
                let bb = (m >> b) & 1;
                let sm = (m & !((1 << a) | (1 << b))) | (bb << a) | (ba << b);
                assert_eq!(s.bit(m), t.bit(sm), "swap ({a},{b}) minterm {m}");
            }
        }
    }

    #[test]
    fn swap_same_var_is_noop() {
        let t = table(4, 0xBEEF);
        assert_eq!(t.swap_vars(2, 2), t);
    }

    #[test]
    fn permute_matches_swaps() {
        let t = table(4, 0x8D27);
        let perm = Permutation::from_slice(&[2, 0, 3, 1]).unwrap();
        let via_permute = t.permute_vars(&perm);
        for m in 0..16u64 {
            // g(X) = f(Y), Y_i = X_{perm[i]}
            let mut y = 0u64;
            for i in 0..4 {
                y |= ((m >> perm.map(i)) & 1) << i;
            }
            assert_eq!(via_permute.bit(m), t.bit(y), "minterm {m}");
        }
    }

    #[test]
    fn permute_identity() {
        let t = table(5, 0xDEAD_BEEF);
        assert_eq!(t.permute_vars(&Permutation::identity(5)), t);
    }

    #[test]
    fn permutation_inverse_composes_to_identity() {
        let p = Permutation::from_slice(&[3, 1, 4, 0, 2]).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permutation_rejects_bad_slices() {
        assert!(Permutation::from_slice(&[0, 0, 1]).is_err());
        assert!(Permutation::from_slice(&[0, 3]).is_err());
        assert!(Permutation::from_slice(&[]).is_ok());
    }

    #[test]
    fn transform_apply_then_inverse_roundtrips() {
        let f = table(5, 0x1357_9BDF_0246_8ACE);
        let t = NpnTransform::new(
            Permutation::from_slice(&[4, 2, 0, 1, 3]).unwrap(),
            0b10110,
            true,
        );
        let g = t.apply(&f);
        assert_eq!(t.inverse().apply(&g), f);
    }

    #[test]
    fn transform_composition_law() {
        let f = table(4, 0x7A2C);
        let t1 = NpnTransform::new(
            Permutation::from_slice(&[1, 3, 0, 2]).unwrap(),
            0b0101,
            false,
        );
        let t2 = NpnTransform::new(
            Permutation::from_slice(&[2, 0, 3, 1]).unwrap(),
            0b1010,
            true,
        );
        let sequential = t2.apply(&t1.apply(&f));
        let composed = t2.compose(&t1).apply(&f);
        assert_eq!(sequential, composed);
    }

    #[test]
    fn paper_lemma2_example() {
        // Lemma 2's worked example: f(π((¬)x1x2x3x4)) = f(x4, ¬x3, x2, ¬x1).
        // Build a g from f via the transform machinery and verify the
        // pointwise relation. Variables here are 0-indexed: x1 → index 0.
        let f = table(4, 0x35C9);
        // g(X) = f(Y) with Y_0 = X_3, Y_1 = ¬X_2, Y_2 = X_1, Y_3 = ¬X_0:
        // perm = [3, 2, 1, 0], neg on f-variables 1 and 3.
        let t = NpnTransform::new(
            Permutation::from_slice(&[3, 2, 1, 0]).unwrap(),
            0b1010,
            false,
        );
        let g = t.apply(&f);
        for m in 0..16u64 {
            let x = |i: u64| (m >> i) & 1;
            let y = x(3) | ((x(2) ^ 1) << 1) | (x(1) << 2) | ((x(0) ^ 1) << 3);
            assert_eq!(g.bit(m), f.bit(y));
        }
    }

    #[test]
    fn multiword_flip_high_variable() {
        let t = TruthTable::from_fn(8, |m| m < 100).unwrap();
        let flipped = t.flip_var(7);
        for m in 0..256u64 {
            assert_eq!(flipped.bit(m), t.bit(m ^ 0x80));
        }
    }

    #[test]
    fn display_formats() {
        let t = NpnTransform::new(Permutation::from_slice(&[1, 0]).unwrap(), 0b01, true);
        assert_eq!(format!("{t}"), "π=(1 0) neg=0b1 out=1");
    }
}
