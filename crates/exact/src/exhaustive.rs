//! Exhaustive exact NPN canonicalization — the analog of Kitty's
//! `exact_npn_canonization` used as the paper's ground truth for `n ≤ 6`.
//!
//! The canonical form of `f` is the numerically smallest truth table in
//! its NPN orbit. The walk visits permutations in plain-changes order
//! (one adjacent variable swap per step) and, per permutation, all input
//! phases in Gray-code order (one variable flip per step), checking both
//! output polarities — `n!·2^n` states, two comparisons each, with O(1)
//! table updates between states.
//!
//! This walk is the ground-truth oracle — of the tests, of
//! [`exact_classify_canonical`](crate::exact_classify_canonical) and of
//! the CLI's `canon --method exact` — and nothing else: certified
//! resolution and `CANON` run the influence-aided walk of
//! [`certified_canonical`](crate::certified_canonical), which reaches a
//! different (profile-normalized) minimum of the same orbit in about a
//! microsecond. Cost here grows as `n!·2^n`: microseconds up to
//! `n = 5`, ~120 µs at `n = 6`, tens of milliseconds at `n = 7` and
//! about half a second at `n = 8` (2-thread Xeon VM, release build).
//! Beyond that use [`exact_classify`](crate::exact_classify), which needs
//! no canonical form.

use crate::enumerate::{factorial, gray_flip_bit, plain_changes};
use facepoint_truth::words::{flip_var_word, swap_vars_word, valid_bits_mask, WORD_VARS};
use facepoint_truth::TruthTable;

/// The exact NPN canonical representative of `f`: the minimum truth table
/// over all `n!·2^{n+1}` transforms.
///
/// Two functions are NPN-equivalent **iff** their canonical forms are
/// equal — this is the complete-and-unique canonical form the paper's
/// Section I attributes to classical classification methods.
///
/// # Panics
///
/// Panics if `num_vars > 10` — the enumeration would be prohibitively
/// large; use the pairwise matcher / exact classifier instead.
///
/// # Examples
///
/// ```
/// use facepoint_exact::exact_npn_canonical;
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let f = TruthTable::random(5, &mut rng)?;
/// let g = NpnTransform::random(5, &mut rng).apply(&f);
/// assert_eq!(exact_npn_canonical(&f), exact_npn_canonical(&g));
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn exact_npn_canonical(f: &TruthTable) -> TruthTable {
    let n = f.num_vars();
    assert!(n <= 10, "exhaustive canonicalization is limited to n ≤ 10");
    if n <= WORD_VARS {
        let canon = canonical_u64(f.as_u64(), n);
        return TruthTable::from_u64(n, canon).expect("n ≤ 6");
    }
    canonical_multiword(f)
}

/// Exhaustive canonical form of a single-word function (`n ≤ 6`),
/// operating on the raw `u64` for speed.
///
/// # Panics
///
/// Panics if `num_vars > 6`.
pub fn canonical_u64(tt: u64, num_vars: usize) -> u64 {
    assert!(num_vars <= WORD_VARS, "canonical_u64 requires n ≤ 6");
    let mask = valid_bits_mask(num_vars);
    let tt = tt & mask;
    if num_vars == 0 {
        // Output negation maps the two constants onto constant 0.
        return 0;
    }
    let mut best = u64::MAX;
    let swaps = plain_changes(num_vars);
    let mut cur = tt;
    let phases = 1u64 << num_vars;
    for swap in swaps.iter().map(Some).chain(std::iter::once(None)) {
        // All input phases of the current permutation, Gray-code order.
        best = best.min(cur).min(!cur & mask);
        for g in 1..phases {
            cur = flip_var_word(cur, gray_flip_bit(g) as usize);
            best = best.min(cur).min(!cur & mask);
        }
        // The Gray walk ends at phase 100…0; one more flip restores 0.
        cur = flip_var_word(cur, num_vars - 1);
        if let Some(&p) = swap {
            cur = swap_vars_word(cur, p, p + 1);
        }
    }
    best
}

fn canonical_multiword(f: &TruthTable) -> TruthTable {
    let n = f.num_vars();
    let swaps = plain_changes(n);
    let mut cur = f.clone();
    let mut best: Option<TruthTable> = None;
    let phases = 1u64 << n;
    let consider = |t: &TruthTable, best: &mut Option<TruthTable>| {
        let neg = t.negated();
        let cand = if neg < *t { neg } else { t.clone() };
        match best {
            Some(b) if *b <= cand => {}
            _ => *best = Some(cand),
        }
    };
    for swap in swaps.iter().map(Some).chain(std::iter::once(None)) {
        consider(&cur, &mut best);
        for g in 1..phases {
            cur.flip_var_in_place(gray_flip_bit(g) as usize);
            consider(&cur, &mut best);
        }
        cur.flip_var_in_place(n - 1);
        if let Some(&p) = swap {
            cur.swap_adjacent_in_place(p);
        }
    }
    best.expect("at least one candidate")
}

/// Exact canonical form that also returns a witness transform `t` with
/// `t.apply(f) == canonical`.
///
/// Slower than [`exact_npn_canonical`] (it materializes each transform);
/// intended for tests and for callers that need the witness.
///
/// # Panics
///
/// Panics if `num_vars > 8`.
pub fn exact_npn_canonical_with_witness(
    f: &TruthTable,
) -> (TruthTable, facepoint_truth::NpnTransform) {
    let n = f.num_vars();
    let mut best: Option<(TruthTable, facepoint_truth::NpnTransform)> = None;
    for t in crate::enumerate::all_transforms(n) {
        let g = t.apply(f);
        if best.as_ref().is_none_or(|(b, _)| g < *b) {
            best = Some((g, t));
        }
    }
    let (canon, t) = best.expect("non-empty transform group");
    debug_assert_eq!(t.apply(f), canon);
    (canon, t)
}

/// Number of states the exhaustive walk visits for `n` variables
/// (`n!·2^n` phase/permutation pairs; each state checks both output
/// polarities).
pub fn exhaustive_states(num_vars: usize) -> u64 {
    factorial(num_vars) << num_vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn canonical_is_npn_invariant_small() {
        let mut rng = StdRng::seed_from_u64(81);
        for n in 0..=5usize {
            for _ in 0..10 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                assert_eq!(
                    exact_npn_canonical(&f),
                    exact_npn_canonical(&t.apply(&f)),
                    "n = {n}, f = {f}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn canonical_is_in_orbit() {
        let mut rng = StdRng::seed_from_u64(83);
        for _ in 0..10 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let canon = exact_npn_canonical(&f);
            let found = crate::enumerate::all_transforms(4).any(|t| t.apply(&f) == canon);
            assert!(found, "canonical form must be reachable, f = {f}");
        }
    }

    #[test]
    fn canonical_is_minimum_of_orbit() {
        let mut rng = StdRng::seed_from_u64(87);
        for _ in 0..5 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let canon = exact_npn_canonical(&f);
            let min = crate::enumerate::all_transforms(4)
                .map(|t| t.apply(&f))
                .min()
                .unwrap();
            assert_eq!(canon, min);
        }
    }

    #[test]
    fn witness_maps_to_canonical() {
        let mut rng = StdRng::seed_from_u64(89);
        for _ in 0..5 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let (canon, t) = exact_npn_canonical_with_witness(&f);
            assert_eq!(t.apply(&f), canon);
            assert_eq!(canon, exact_npn_canonical(&f));
        }
    }

    #[test]
    fn multiword_agrees_with_word_path() {
        // Build a 7-variable function that ignores x6; its canonical form
        // under the multiword path must be consistent under transforms.
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..3 {
            let f = TruthTable::random(7, &mut rng).unwrap();
            let t = NpnTransform::random(7, &mut rng);
            assert_eq!(exact_npn_canonical(&f), exact_npn_canonical(&t.apply(&f)));
        }
    }

    #[test]
    fn constants_canonicalize_to_zero() {
        for n in 0..=4usize {
            assert_eq!(
                exact_npn_canonical(&TruthTable::one(n).unwrap()),
                TruthTable::zero(n).unwrap()
            );
            assert_eq!(
                exact_npn_canonical(&TruthTable::zero(n).unwrap()),
                TruthTable::zero(n).unwrap()
            );
        }
    }

    #[test]
    fn known_npn_class_counts_tiny() {
        // The number of NPN classes of n-variable functions is a classical
        // sequence: 1 (n=0... counting both constants as one class), 2, 4,
        // 14 for n = 0..3.
        use std::collections::HashSet;
        for (n, expect) in [(0usize, 1usize), (1, 2), (2, 4), (3, 14)] {
            let total = 1u64 << (1u64 << n);
            let classes: HashSet<u64> = (0..total).map(|bits| canonical_u64(bits, n)).collect();
            assert_eq!(classes.len(), expect, "n = {n}");
        }
    }

    #[test]
    fn state_counts() {
        assert_eq!(exhaustive_states(3), 48);
        assert_eq!(exhaustive_states(6), 46080);
    }
}
