//! Ordered cofactor vectors (`OCV`) — the *face* signatures
//! (Definition 6 of the paper).
//!
//! The ℓ-ary ordered cofactor vector collects the satisfy counts of every
//! cofactor obtained by fixing ℓ distinct variables to every one of the
//! `2^ℓ` constant assignments, sorted in non-decreasing order. Equality of
//! `OCVℓ` for every ℓ is a classical canonical form (Abdollahi et al.,
//! cited as \[3\]); equality for any fixed ℓ is a necessary condition for
//! NPN equivalence *up to output phase* (output negation maps each count
//! `c` to `2^{n-ℓ} − c`).
//!
//! The kernel's `OCV2` pays one masked popcount per word per variable
//! pair: it counts `c11 = |f_{x_i=1,x_j=1}|` and derives the rest from
//! the one-cofactor counts `|f_{x_i=1}|` (computed once per variable)
//! and `|f|`: `c10 = |f_{x_i=1}| − c11`, `c01 = |f_{x_j=1}| − c11` and
//! `c00 = |f| − |f_{x_i=1}| − |f_{x_j=1}| + c11`.

use facepoint_truth::words::{var_mask_word, MAX_VARS};
use facepoint_truth::TruthTable;

/// The 1-ary ordered cofactor vector: sorted multiset
/// `{|f_{x_i = v}| : i < n, v ∈ {0,1}}` of length `2n`.
///
/// # Examples
///
/// ```
/// use facepoint_sig::ocv1;
/// use facepoint_truth::TruthTable;
///
/// // Table I of the paper: OCV1 of the 3-majority is (1,1,1,3,3,3).
/// assert_eq!(ocv1(&TruthTable::majority(3)), vec![1, 1, 1, 3, 3, 3]);
/// ```
pub fn ocv1(f: &TruthTable) -> Vec<u32> {
    let n = f.num_vars();
    let mut v = Vec::with_capacity(2 * n);
    for var in 0..n {
        v.push(f.cofactor_count(var, false) as u32);
        v.push(f.cofactor_count(var, true) as u32);
    }
    v.sort_unstable();
    v
}

/// The 2-ary ordered cofactor vector: sorted multiset of the
/// `4·C(n,2) = 2n(n−1)` two-variable cofactor counts.
///
/// # Examples
///
/// ```
/// use facepoint_sig::ocv2;
/// use facepoint_truth::TruthTable;
///
/// // Table I: OCV2 of the 3-majority is (0,0,0,1,1,1,1,1,1,2,2,2).
/// assert_eq!(
///     ocv2(&TruthTable::majority(3)),
///     vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2]
/// );
/// ```
pub fn ocv2(f: &TruthTable) -> Vec<u32> {
    let n = f.num_vars();
    let mut v = Vec::with_capacity(2 * n * n.saturating_sub(1));
    for i in 0..n {
        for j in (i + 1)..n {
            for assign in 0..4u8 {
                let vi = assign & 1 == 1;
                let vj = assign & 2 == 2;
                v.push(f.cofactor_count_multi(&[i, j], &[vi, vj]) as u32);
            }
        }
    }
    v.sort_unstable();
    v
}

/// The general ℓ-ary ordered cofactor vector (`C(n,ℓ)·2^ℓ` entries).
///
/// `ocv(f, 0)` is the one-element vector `[|f|]` (the 0-ary cofactor
/// signature); `ocv(f, n)` enumerates all minterms.
///
/// # Panics
///
/// Panics if `arity > num_vars`.
pub fn ocv(f: &TruthTable, arity: usize) -> Vec<u32> {
    let n = f.num_vars();
    assert!(arity <= n, "cofactor arity {arity} exceeds {n} variables");
    if arity == 0 {
        return vec![f.count_ones() as u32];
    }
    let mut v = Vec::new();
    let mut combo: Vec<usize> = (0..arity).collect();
    loop {
        for assign in 0..(1u32 << arity) {
            let values: Vec<bool> = (0..arity).map(|k| (assign >> k) & 1 == 1).collect();
            v.push(f.cofactor_count_multi(&combo, &values) as u32);
        }
        if !next_combination(&mut combo, n) {
            v.sort_unstable();
            return v;
        }
    }
}

/// Writes the sorted ℓ-ary cofactor counts (ℓ ≤ 3) into `out` as
/// `u64`s, reusing its allocation — the signature kernel's section
/// builder. Stack-allocated combination state keeps the whole
/// computation heap-free. Produces an empty vector when `arity >
/// num_vars` (only reachable for `OCV1`/`OCV2` on degenerate arities;
/// the `OCV3` stage is skipped entirely below three variables).
pub(crate) fn ocv_sorted_into(f: &TruthTable, arity: usize, out: &mut Vec<u64>) {
    debug_assert!((1..=3).contains(&arity), "kernel OCV arity is 1..=3");
    let n = f.num_vars();
    out.clear();
    if arity > n {
        return;
    }
    match arity {
        1 => {
            // One masked sweep per variable; the other polarity is the
            // satisfy-count complement.
            let total = f.count_ones();
            for var in 0..n {
                let c1 = f.cofactor_count(var, true);
                out.push(total - c1);
                out.push(c1);
            }
        }
        2 => {
            // One masked popcount per word gives c11; inclusion–exclusion
            // over the one-cofactor counts, taken once per variable, gives
            // the other three.
            let total = f.count_ones();
            let mut ones = [0u64; MAX_VARS];
            for (var, c1) in ones[..n].iter_mut().enumerate() {
                *c1 = f.cofactor_count(var, true);
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    let c11: u64 = f
                        .words()
                        .iter()
                        .enumerate()
                        .map(|(wi, &w)| {
                            (w & var_mask_word(i, wi) & var_mask_word(j, wi)).count_ones() as u64
                        })
                        .sum();
                    let c10 = ones[i] - c11;
                    let c01 = ones[j] - c11;
                    let c00 = total + c11 - ones[i] - ones[j];
                    out.extend([c00, c10, c01, c11]);
                }
            }
        }
        _ => {
            // Generic path with stack-allocated combination state.
            let mut combo_buf = [0usize; 3];
            let combo = &mut combo_buf[..arity];
            for (k, c) in combo.iter_mut().enumerate() {
                *c = k;
            }
            let mut values = [false; 3];
            loop {
                for assign in 0..(1u32 << arity) {
                    for (k, v) in values[..arity].iter_mut().enumerate() {
                        *v = (assign >> k) & 1 == 1;
                    }
                    out.push(f.cofactor_count_multi(combo, &values[..arity]));
                }
                if !next_combination(combo, n) {
                    break;
                }
            }
        }
    }
    out.sort_unstable();
}

/// Advances `combo` (strictly increasing indices into `0..n`) to its
/// lexicographic successor; returns `false` when exhausted.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < n - k + i {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut r = 1usize;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn table1_majority_values() {
        let f1 = TruthTable::majority(3);
        assert_eq!(ocv1(&f1), vec![1, 1, 1, 3, 3, 3]);
        assert_eq!(ocv2(&f1), vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn table1_projection_values() {
        // f3 of Fig. 1c is the single-variable projection, recovered
        // from its published signature values.
        let f3 = TruthTable::projection(3, 2).unwrap();
        assert_eq!(ocv1(&f3), vec![0, 2, 2, 2, 2, 4]);
        assert_eq!(ocv2(&f3), vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn lengths_match_definition() {
        let f = TruthTable::from_hex(5, "deadbeef").unwrap();
        for l in 0..=5usize {
            assert_eq!(
                ocv(&f, l).len(),
                binomial(5, l) << l,
                "|OCV{l}| = C(n,l)·2^l"
            );
        }
    }

    #[test]
    fn general_matches_fast_paths() {
        let f = TruthTable::from_hex(4, "9b1c").unwrap();
        assert_eq!(ocv(&f, 1), ocv1(&f));
        assert_eq!(ocv(&f, 2), ocv2(&f));
        assert_eq!(ocv(&f, 0), vec![f.count_ones() as u32]);
    }

    #[test]
    fn full_arity_counts_are_bits() {
        let f = TruthTable::from_hex(3, "e8").unwrap();
        let v = ocv(&f, 3);
        // Every n-ary cofactor fixes all variables: counts are 0/1 and sum
        // to |f|.
        assert_eq!(v.len(), 8);
        assert_eq!(v.iter().sum::<u32>(), 4);
        assert!(v.iter().all(|&c| c <= 1));
    }

    #[test]
    fn sorted_into_matches_public_ocv() {
        let f = TruthTable::from_hex(5, "cafe1234").unwrap();
        let mut out = Vec::new();
        for arity in 1..=3usize {
            ocv_sorted_into(&f, arity, &mut out);
            let expect: Vec<u64> = ocv(&f, arity).iter().map(|&c| c as u64).collect();
            assert_eq!(out, expect, "arity {arity}");
        }
        let tiny = TruthTable::from_u64(1, 0b10).unwrap();
        ocv_sorted_into(&tiny, 2, &mut out);
        assert!(out.is_empty(), "arity above n yields an empty vector");
    }

    #[test]
    fn np_invariance_spot_check() {
        use facepoint_truth::NpnTransform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let f = TruthTable::random(5, &mut rng).unwrap();
            // NP only (no output negation) preserves every OCV level.
            let mut t = NpnTransform::random(5, &mut rng);
            if t.output_neg() {
                t = NpnTransform::new(t.perm().clone(), t.input_neg(), false);
            }
            let g = t.apply(&f);
            assert_eq!(ocv1(&f), ocv1(&g));
            assert_eq!(ocv2(&f), ocv2(&g));
            assert_eq!(ocv(&f, 3), ocv(&g, 3));
        }
    }
}
