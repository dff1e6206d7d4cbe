//! The [`TruthTable`] type: a packed bit-string representation of a Boolean
//! function.

use crate::error::{Error, Result};
use crate::words::{num_minterms, valid_bits_mask, var_mask_word, word_count, MAX_VARS, WORD_VARS};
use std::cmp::Ordering;
use std::fmt;

/// A complete truth table of an `n`-variable Boolean function
/// (`0 ≤ n ≤ 16`).
///
/// Bit `i` of the table is `f((i)₂)` with the little-endian convention of
/// the paper: the least-significant bit of the minterm index `i` is the
/// value of variable `x₀`. Tables of up to six variables occupy a single
/// `u64`; larger tables span `2^(n-6)` words.
///
/// The type upholds two invariants:
///
/// * `words.len() == word_count(num_vars)`,
/// * for `n < 6`, the bits above position `2^n` of the single word are zero.
///
/// # Examples
///
/// ```
/// use facepoint_truth::TruthTable;
///
/// // The 3-input majority function from Fig. 1a of the paper.
/// let maj = TruthTable::majority(3);
/// assert_eq!(maj.to_hex(), "e8");
/// assert_eq!(maj.count_ones(), 4);
/// assert!(maj.is_balanced());
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: u8,
    words: Vec<u64>,
}

impl Clone for TruthTable {
    fn clone(&self) -> Self {
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s word buffer when
    /// it is large enough — the canonical walk keeps its running
    /// minimum this way without allocating per improvement.
    fn clone_from(&mut self, source: &Self) {
        self.num_vars = source.num_vars;
        self.words.clone_from(&source.words);
    }
}

impl TruthTable {
    /// Creates the constant-`false` function of `num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 16`.
    pub fn zero(num_vars: usize) -> Result<Self> {
        Self::check_vars(num_vars)?;
        Ok(Self {
            num_vars: num_vars as u8,
            words: vec![0; word_count(num_vars)],
        })
    }

    /// Creates the constant-`true` function of `num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 16`.
    pub fn one(num_vars: usize) -> Result<Self> {
        let mut t = Self::zero(num_vars)?;
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.mask_padding();
        Ok(t)
    }

    /// Creates the projection function `f(X) = x_var`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 16` and
    /// [`Error::VariableOutOfRange`] if `var >= num_vars`.
    pub fn projection(num_vars: usize, var: usize) -> Result<Self> {
        Self::check_vars(num_vars)?;
        if var >= num_vars {
            return Err(Error::VariableOutOfRange { var, num_vars });
        }
        let mut t = Self::zero(num_vars)?;
        for (i, w) in t.words.iter_mut().enumerate() {
            *w = var_mask_word(var, i);
        }
        t.mask_padding();
        Ok(t)
    }

    /// Creates the `n`-input majority function (`n` odd), the running
    /// example of the paper's Fig. 1a.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even, zero, or greater than 16.
    pub fn majority(num_vars: usize) -> Self {
        assert!(
            num_vars % 2 == 1 && num_vars <= MAX_VARS,
            "majority needs odd n ≤ 16"
        );
        Self::from_fn(num_vars, |m| (m.count_ones() as usize) > num_vars / 2)
            .expect("validated above")
    }

    /// Creates the `n`-input parity (XOR) function.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 16`.
    pub fn parity(num_vars: usize) -> Self {
        Self::from_fn(num_vars, |m| m.count_ones() % 2 == 1).expect("parity bound checked")
    }

    /// Builds a table by evaluating `f` on every minterm index.
    ///
    /// The closure receives the minterm index whose bit `i` is the value of
    /// variable `x_i`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 16`.
    ///
    /// # Examples
    ///
    /// ```
    /// use facepoint_truth::TruthTable;
    ///
    /// let and2 = TruthTable::from_fn(2, |m| m == 0b11)?;
    /// assert_eq!(and2.to_hex(), "8");
    /// # Ok::<(), facepoint_truth::Error>(())
    /// ```
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u64) -> bool) -> Result<Self> {
        let mut t = Self::zero(num_vars)?;
        for m in 0..num_minterms(num_vars) {
            if f(m) {
                t.words[(m >> WORD_VARS) as usize] |= 1 << (m & 63);
            }
        }
        Ok(t)
    }

    /// Builds a table of up to six variables from the low `2^n` bits of a
    /// word.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 6`.
    pub fn from_u64(num_vars: usize, bits: u64) -> Result<Self> {
        if num_vars > WORD_VARS {
            return Err(Error::TooManyVariables {
                requested: num_vars,
            });
        }
        Ok(Self {
            num_vars: num_vars as u8,
            words: vec![bits & valid_bits_mask(num_vars)],
        })
    }

    /// Builds a table directly from backing words (little-endian word
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyVariables`] if `num_vars > 16` or
    /// [`Error::BitLength`] if the slice length does not match
    /// `word_count(num_vars)`.
    pub fn from_words(num_vars: usize, w: &[u64]) -> Result<Self> {
        Self::check_vars(num_vars)?;
        if w.len() != word_count(num_vars) {
            return Err(Error::BitLength {
                expected: word_count(num_vars) * 64,
                found: w.len() * 64,
            });
        }
        let mut t = Self {
            num_vars: num_vars as u8,
            words: w.to_vec(),
        };
        t.mask_padding();
        Ok(t)
    }

    /// Number of input variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Number of minterms, `2^n`.
    #[inline]
    pub fn num_bits(&self) -> u64 {
        num_minterms(self.num_vars())
    }

    /// The backing words (little-endian word order).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// For tables of at most six variables, the single backing word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than six variables.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        assert!(
            self.num_vars() <= WORD_VARS,
            "as_u64 requires at most 6 variables, table has {}",
            self.num_vars
        );
        self.words[0]
    }

    /// The value of the function on minterm `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 2^n`.
    #[inline]
    pub fn bit(&self, idx: u64) -> bool {
        assert!(idx < self.num_bits(), "minterm index {idx} out of range");
        (self.words[(idx >> WORD_VARS) as usize] >> (idx & 63)) & 1 == 1
    }

    /// Sets the value of the function on minterm `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 2^n`.
    #[inline]
    pub fn set_bit(&mut self, idx: u64, value: bool) {
        assert!(idx < self.num_bits(), "minterm index {idx} out of range");
        let w = &mut self.words[(idx >> WORD_VARS) as usize];
        if value {
            *w |= 1 << (idx & 63);
        } else {
            *w &= !(1 << (idx & 63));
        }
    }

    /// The satisfy count `|f|`: number of minterms mapped to 1.
    ///
    /// This is the paper's 0-ary cofactor signature (Definition 2).
    #[inline]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of minterms mapped to 0.
    #[inline]
    pub fn count_zeros(&self) -> u64 {
        self.num_bits() - self.count_ones()
    }

    /// Whether `|f| = |¬f| = 2^(n-1)` (Section II-A of the paper).
    ///
    /// Balanced functions are the ones whose output polarity cannot be
    /// normalized by the satisfy count alone; Theorems 3 and 4 of the paper
    /// exist to handle them.
    #[inline]
    pub fn is_balanced(&self) -> bool {
        self.count_ones() * 2 == self.num_bits()
    }

    /// Whether the function is constant (zero or one).
    pub fn is_constant(&self) -> bool {
        let c = self.count_ones();
        c == 0 || c == self.num_bits()
    }

    /// Iterates over all minterm indices on which the function is 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use facepoint_truth::TruthTable;
    ///
    /// let maj = TruthTable::majority(3);
    /// let ones: Vec<u64> = maj.ones().collect();
    /// assert_eq!(ones, vec![0b011, 0b101, 0b110, 0b111]);
    /// ```
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            table: self,
            word_idx: 0,
            current: self.words[0],
        }
    }

    /// Mutable access to the backing words. Callers must restore the
    /// padding invariant (via [`Self::mask_padding`]) after whole-word
    /// writes — kept crate-private for that reason.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-zeroes the padding bits of sub-word tables. Internal invariant
    /// maintenance called after any whole-word operation.
    #[inline]
    pub(crate) fn mask_padding(&mut self) {
        if self.num_vars() < WORD_VARS {
            self.words[0] &= valid_bits_mask(self.num_vars());
        }
    }

    #[inline]
    pub(crate) fn check_vars(num_vars: usize) -> Result<()> {
        if num_vars > MAX_VARS {
            Err(Error::TooManyVariables {
                requested: num_vars,
            })
        } else {
            Ok(())
        }
    }

    /// Checks a variable index against this table's arity.
    #[inline]
    pub(crate) fn check_var(&self, var: usize) -> Result<()> {
        if var >= self.num_vars() {
            Err(Error::VariableOutOfRange {
                var,
                num_vars: self.num_vars(),
            })
        } else {
            Ok(())
        }
    }
}

/// Iterator over the 1-minterms of a table, created by
/// [`TruthTable::ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    table: &'a TruthTable,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(((self.word_idx as u64) << WORD_VARS) | bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.table.words.len() {
                return None;
            }
            self.current = self.table.words[self.word_idx];
        }
    }
}

impl PartialOrd for TruthTable {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TruthTable {
    /// Orders tables by variable count first, then as big-endian integers
    /// (most-significant word decides), which matches interpreting the bit
    /// string as a number. Canonical forms are minima under this order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.num_vars
            .cmp(&other.num_vars)
            .then_with(|| self.words.iter().rev().cmp(other.words.iter().rev()))
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}: 0x{})", self.num_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        for n in 0..=8 {
            let z = TruthTable::zero(n).unwrap();
            let o = TruthTable::one(n).unwrap();
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1 << n);
            assert!(z.is_constant() && o.is_constant());
            assert_eq!(z.num_vars(), n);
        }
    }

    #[test]
    fn too_many_vars_rejected() {
        assert!(matches!(
            TruthTable::zero(17),
            Err(Error::TooManyVariables { requested: 17 })
        ));
    }

    #[test]
    fn projection_semantics() {
        for n in 1..=9usize {
            for v in 0..n {
                let p = TruthTable::projection(n, v).unwrap();
                for m in 0..(1u64 << n) {
                    assert_eq!(p.bit(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn projection_var_out_of_range() {
        assert!(matches!(
            TruthTable::projection(3, 3),
            Err(Error::VariableOutOfRange {
                var: 3,
                num_vars: 3
            })
        ));
    }

    #[test]
    fn majority3_is_0xe8() {
        let maj = TruthTable::majority(3);
        assert_eq!(maj.as_u64(), 0xE8);
    }

    #[test]
    fn parity_counts() {
        for n in 1..=8usize {
            let p = TruthTable::parity(n);
            assert_eq!(p.count_ones(), 1 << (n - 1));
            assert!(p.is_balanced());
        }
    }

    #[test]
    fn from_fn_large() {
        let t = TruthTable::from_fn(8, |m| m % 3 == 0).unwrap();
        for m in 0..256u64 {
            assert_eq!(t.bit(m), m % 3 == 0);
        }
        assert_eq!(t.words().len(), 4);
    }

    #[test]
    fn set_bit_roundtrip() {
        let mut t = TruthTable::zero(7).unwrap();
        t.set_bit(100, true);
        assert!(t.bit(100));
        assert_eq!(t.count_ones(), 1);
        t.set_bit(100, false);
        assert_eq!(t.count_ones(), 0);
    }

    #[test]
    fn ones_iterator_matches_bits() {
        let t = TruthTable::from_fn(7, |m| m.count_ones() == 2).unwrap();
        let via_iter: Vec<u64> = t.ones().collect();
        let via_bits: Vec<u64> = (0..128).filter(|&m| t.bit(m)).collect();
        assert_eq!(via_iter, via_bits);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = TruthTable::from_u64(3, 0x10).unwrap();
        let b = TruthTable::from_u64(3, 0x0F).unwrap();
        assert!(b < a);
        let c = TruthTable::from_words(7, &[u64::MAX, 0]).unwrap();
        let d = TruthTable::from_words(7, &[0, 1]).unwrap();
        assert!(c < d, "high word dominates");
    }

    #[test]
    fn from_u64_masks_padding() {
        let t = TruthTable::from_u64(2, u64::MAX).unwrap();
        assert_eq!(t.as_u64(), 0xF);
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    fn zero_variable_constants() {
        let z = TruthTable::zero(0).unwrap();
        assert_eq!(z.num_bits(), 1);
        assert!(!z.bit(0));
        let o = TruthTable::one(0).unwrap();
        assert!(o.bit(0));
        assert!(!o.is_balanced());
    }

    #[test]
    fn display_and_debug() {
        let maj = TruthTable::majority(3);
        assert_eq!(format!("{maj}"), "0xe8");
        assert_eq!(format!("{maj:?}"), "TruthTable(3: 0xe8)");
    }
}
