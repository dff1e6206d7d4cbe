//! Variable symmetries of Boolean functions.
//!
//! Symmetry detection is the backbone of the canonical-form literature
//! the paper positions itself against (Kravets \[12\], Abdollahi \[10\],
//! Zhou \[5\], \[14\]): variables that are interchangeable (or
//! interchangeable after complementation) generate permutations that any
//! canonicalization search can skip. This module provides the two
//! classical pairwise notions plus the induced partition into symmetry
//! classes:
//!
//! * **NE (non-equivalence / ordinary) symmetry** `x_i ~ x_j`:
//!   `f` is invariant under swapping `x_i` and `x_j`, i.e.
//!   `f|_{x_i=0,x_j=1} = f|_{x_i=1,x_j=0}`;
//! * **E (equivalence / skew) symmetry** `x_i ~ ¬x_j`:
//!   `f` is invariant under swapping `x_i` with the *complement* of
//!   `x_j`, i.e. `f|_{x_i=0,x_j=0} = f|_{x_i=1,x_j=1}`.
//!
//! The NE relation is transitive on the support of `f` (swap generators
//! compose), so it partitions variables into *symmetry classes*; the
//! paper's hybrid baseline enumerates permutations only across those
//! classes.

use facepoint_truth::words::{flip_var_word, valid_bits_mask, var_mask_word, WORD_VARS};
use facepoint_truth::TruthTable;

/// Whether `f` is NE-symmetric in `(a, b)`: invariant under swapping the
/// two variables.
///
/// # Panics
///
/// Panics if `a` or `b` is out of range.
///
/// # Examples
///
/// ```
/// use facepoint_sig::symmetry::ne_symmetric;
/// use facepoint_truth::TruthTable;
///
/// let maj = TruthTable::majority(3);
/// assert!(ne_symmetric(&maj, 0, 2)); // majority is totally symmetric
///
/// let f = TruthTable::from_hex(2, "4")?; // x1 ∧ ¬x0
/// assert!(!ne_symmetric(&f, 0, 1));
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn ne_symmetric(f: &TruthTable, a: usize, b: usize) -> bool {
    // Invariance under the transposition ⇔ the (0,1) and (1,0) cofactors
    // agree.
    a == b || mirrors_agree(f, a, b, true)
}

/// Whether `f` is E-symmetric (skew-symmetric) in `(a, b)`: invariant
/// under swapping `x_a` with `¬x_b`.
///
/// # Panics
///
/// Panics if `a` or `b` is out of range.
///
/// # Examples
///
/// ```
/// use facepoint_sig::symmetry::e_symmetric;
/// use facepoint_truth::TruthTable;
///
/// // f = x0 ∧ ¬x1 is E-symmetric in (0, 1): swapping x0 with ¬x1 fixes
/// // it.
/// let f = TruthTable::from_hex(2, "2")?;
/// assert!(e_symmetric(&f, 0, 1));
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn e_symmetric(f: &TruthTable, a: usize, b: usize) -> bool {
    if a == b {
        // The degenerate pair reads "swap x_a with ¬x_a", i.e. negate the
        // input; invariance under it means f does not depend on x_a.
        return !f.depends_on(a);
    }
    // The skew transposition reads variable a as ¬x_b and b as ¬x_a:
    // invariance ⇔ the (0,0) and (1,1) cofactors agree.
    mirrors_agree(f, a, b, false)
}

/// Whether `f(m) = f(m ⊕ e_a ⊕ e_b)` on every minterm `m` whose `x_a`
/// and `x_b` differ (`differ`) or agree (`!differ`) — the NE and E
/// conditions for `a ≠ b`, checked word by word against the mirrored
/// word so that no transformed table is ever materialized.
fn mirrors_agree(f: &TruthTable, a: usize, b: usize, differ: bool) -> bool {
    let n = f.num_vars();
    assert!(a < n && b < n, "variable index in range");
    let words = f.words();
    let valid = valid_bits_mask(n);
    // Word-level variables mirror whole words: the partner word index
    // differs in their bits.
    let hop = [a, b]
        .into_iter()
        .filter(|&v| v >= WORD_VARS)
        .fold(0usize, |hop, v| hop | 1 << (v - WORD_VARS));
    words.iter().enumerate().all(|(i, &w)| {
        let mut mirror = words[i ^ hop];
        for v in [a, b] {
            if v < WORD_VARS {
                mirror = flip_var_word(mirror, v);
            }
        }
        let split = var_mask_word(a, i) ^ var_mask_word(b, i);
        let region = if differ { split } else { !split };
        (w ^ mirror) & region & valid == 0
    })
}

/// The full pairwise symmetry report of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryReport {
    num_vars: usize,
    ne: Vec<bool>,
    e: Vec<bool>,
}

impl SymmetryReport {
    /// Analyzes all variable pairs of `f` (`O(n²)` table swaps).
    pub fn analyze(f: &TruthTable) -> Self {
        let n = f.num_vars();
        let idx = |a: usize, b: usize| a * n + b;
        let mut ne = vec![false; n * n];
        let mut e = vec![false; n * n];
        for a in 0..n {
            ne[idx(a, a)] = true;
            for b in (a + 1)..n {
                let s = ne_symmetric(f, a, b);
                ne[idx(a, b)] = s;
                ne[idx(b, a)] = s;
                let t = e_symmetric(f, a, b);
                e[idx(a, b)] = t;
                e[idx(b, a)] = t;
            }
        }
        SymmetryReport { num_vars: n, ne, e }
    }

    /// Whether variables `a` and `b` are NE-symmetric.
    pub fn ne(&self, a: usize, b: usize) -> bool {
        self.ne[a * self.num_vars + b]
    }

    /// Whether variables `a` and `b` are E-symmetric.
    pub fn e(&self, a: usize, b: usize) -> bool {
        self.e[a * self.num_vars + b]
    }

    /// Whether the function is totally symmetric (all pairs NE).
    pub fn is_totally_symmetric(&self) -> bool {
        (0..self.num_vars).all(|a| (a + 1..self.num_vars).all(|b| self.ne(a, b)))
    }

    /// The NE-symmetry classes: a partition of the variables where every
    /// in-class pair is NE-symmetric (classes listed in ascending order
    /// of their smallest member).
    pub fn symmetry_classes(&self) -> Vec<Vec<usize>> {
        let n = self.num_vars;
        let mut assigned = vec![false; n];
        let mut classes = Vec::new();
        for a in 0..n {
            if assigned[a] {
                continue;
            }
            let mut class = vec![a];
            assigned[a] = true;
            for (b, done) in assigned.iter_mut().enumerate().skip(a + 1) {
                if !*done && self.ne(a, b) {
                    class.push(b);
                    *done = true;
                }
            }
            classes.push(class);
        }
        classes
    }

    /// Number of permutations an exhaustive canonicalizer saves thanks to
    /// the symmetry classes: `n! / Π |class|!` orders remain distinct.
    pub fn distinct_orders(&self) -> u128 {
        let fact = |k: usize| -> u128 { (1..=k as u128).product() };
        let mut denom: u128 = 1;
        for class in self.symmetry_classes() {
            denom *= fact(class.len());
        }
        fact(self.num_vars) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_is_totally_symmetric() {
        // n = 9 spans in-word, mixed and word-level pairs.
        for n in [5usize, 9] {
            let r = SymmetryReport::analyze(&TruthTable::majority(n));
            assert!(r.is_totally_symmetric());
            assert_eq!(r.symmetry_classes(), vec![(0..n).collect::<Vec<_>>()]);
            assert_eq!(r.distinct_orders(), 1);
        }
    }

    #[test]
    fn parity_is_totally_symmetric_and_skew() {
        // n = 8 spans in-word, mixed and word-level pairs.
        for n in [4usize, 8] {
            let r = SymmetryReport::analyze(&TruthTable::parity(n));
            assert!(r.is_totally_symmetric());
            // Parity is also E-symmetric in every pair: swapping x_i with
            // ¬x_j complements two inputs, preserving parity.
            for a in 0..n {
                for b in (a + 1)..n {
                    assert!(r.e(a, b), "n={n} ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn asymmetric_function_has_singleton_classes() {
        // f = x0 ∧ (x1 ∨ x2): x1 and x2 are symmetric, x0 is not.
        let f = TruthTable::from_fn(3, |m| (m & 1 == 1) && (m & 0b110 != 0)).unwrap();
        let r = SymmetryReport::analyze(&f);
        assert!(r.ne(1, 2));
        assert!(!r.ne(0, 1));
        assert_eq!(r.symmetry_classes(), vec![vec![0], vec![1, 2]]);
        assert_eq!(r.distinct_orders(), 3); // 3!/2! = 3
    }

    #[test]
    fn ne_symmetry_matches_cofactor_definition() {
        // Textbook definition: f is NE-symmetric in (a,b) iff the (0,1)
        // and (1,0) restrictions coincide.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // n = 8 covers the in-word, mixed and word-level variable pairs.
        let mut rng = StdRng::seed_from_u64(211);
        for n in [3usize, 5, 8] {
            for _ in 0..20 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                for a in 0..n {
                    for b in (a + 1)..n {
                        let c01 = f.restrict(a, false).restrict(b, true);
                        let c10 = f.restrict(a, true).restrict(b, false);
                        assert_eq!(ne_symmetric(&f, a, b), c01 == c10, "{f} ({a},{b})");
                    }
                }
            }
        }
    }

    #[test]
    fn e_symmetry_matches_cofactor_definition() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(223);
        for n in [3usize, 5, 8] {
            for _ in 0..20 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                for a in 0..n {
                    for b in (a + 1)..n {
                        let c00 = f.restrict(a, false).restrict(b, false);
                        let c11 = f.restrict(a, true).restrict(b, true);
                        assert_eq!(e_symmetric(&f, a, b), c00 == c11, "{f} ({a},{b})");
                    }
                }
            }
        }
    }

    #[test]
    fn e_symmetric_diagonal_is_variable_independence() {
        let f = TruthTable::projection(3, 1).unwrap();
        assert!(e_symmetric(&f, 0, 0), "f ignores x0");
        assert!(!e_symmetric(&f, 1, 1), "f follows x1");
    }

    #[test]
    fn symmetric_variables_have_equal_influence() {
        use crate::influence::influence;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(227);
        for _ in 0..20 {
            let f = TruthTable::random(5, &mut rng).unwrap();
            let r = SymmetryReport::analyze(&f);
            for a in 0..5 {
                for b in (a + 1)..5 {
                    if r.ne(a, b) {
                        assert_eq!(influence(&f, a), influence(&f, b));
                    }
                }
            }
        }
    }
}
