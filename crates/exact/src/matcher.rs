//! Pairwise exact NPN equivalence: a backtracking Boolean matcher with
//! signature pruning.
//!
//! Where canonical forms answer "what is the class representative?", the
//! matcher answers the cheaper question "are these two functions NPN
//! equivalent?" directly, which is all exact *classification* needs once
//! signature buckets have pre-grouped the candidates (the architecture of
//! the paper's `exact version in \[19\]` comparison point, and of the
//! sensitivity-pruned matcher of Zhang et al. \[6\]).
//!
//! The search assigns, one source variable at a time, a target variable
//! and phase, pruning with per-variable profiles (cofactor pair +
//! influence) and validating every partial assignment with joint cofactor
//! counts. On NPN-equivalent inputs the profiles typically pin the
//! mapping almost uniquely; on non-equivalent inputs that survived the
//! signature bucket the partial-assignment checks cut the tree quickly.

use facepoint_sig::influence;
use facepoint_truth::{NpnTransform, Permutation, TruthTable};

/// Decides NPN equivalence of `f` and `g`, returning a witness transform
/// `t` (with `t.apply(f) == g`) when equivalent.
///
/// # Panics
///
/// Panics if the functions have different variable counts (functions of
/// different arity are never NPN-equivalent; the caller buckets by arity
/// first).
///
/// # Examples
///
/// ```
/// use facepoint_exact::npn_match;
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let f = TruthTable::random(6, &mut rng)?;
/// let g = NpnTransform::random(6, &mut rng).apply(&f);
/// let witness = npn_match(&f, &g).expect("equivalent by construction");
/// assert_eq!(witness.apply(&f), g);
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn npn_match(f: &TruthTable, g: &TruthTable) -> Option<NpnTransform> {
    assert_eq!(
        f.num_vars(),
        g.num_vars(),
        "NPN matching requires equal variable counts"
    );
    let n = f.num_vars();
    let ones_f = f.count_ones();
    let ones_g = g.count_ones();
    let total = f.num_bits();

    // Output phase: |t(f)| is |f| (no output negation) or 2^n − |f|.
    let mut phases = Vec::with_capacity(2);
    if ones_f == ones_g {
        phases.push(false);
    }
    if total - ones_f == ones_g {
        phases.push(true);
    }
    for out in phases {
        let h = if out { f.negated() } else { f.clone() };
        if n == 0 {
            // Constants: equality after output phase settles it.
            if h == *g {
                return Some(NpnTransform::phase(0, 0, out));
            }
            continue;
        }
        if let Some((perm, neg)) = match_pn(&h, g) {
            let t = NpnTransform::new(perm, neg, out);
            debug_assert_eq!(t.apply(f), *g);
            return Some(t);
        }
    }
    None
}

/// Whether `f` and `g` are NPN-equivalent (no witness needed).
pub fn are_npn_equivalent(f: &TruthTable, g: &TruthTable) -> bool {
    npn_match(f, g).is_some()
}

/// Per-variable invariant profile: the unordered cofactor-count pair and
/// the influence. A variable of `h` can only map to a variable of `g`
/// with an identical profile.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
struct VarProfile {
    cof_lo: u64,
    cof_hi: u64,
    influence: u32,
}

fn profile(t: &TruthTable, var: usize) -> VarProfile {
    let c0 = t.cofactor_count(var, false);
    let c1 = t.cofactor_count(var, true);
    VarProfile {
        cof_lo: c0.min(c1),
        cof_hi: c0.max(c1),
        influence: influence(t, var),
    }
}

/// PN matching: find `(perm, neg)` with `g(X) = h(Y)`, `Y_i = X_{perm[i]}
/// ⊕ neg_i`.
fn match_pn(h: &TruthTable, g: &TruthTable) -> Option<(Permutation, u16)> {
    let n = h.num_vars();
    let h_profiles: Vec<VarProfile> = (0..n).map(|v| profile(h, v)).collect();
    let g_profiles: Vec<VarProfile> = (0..n).map(|v| profile(g, v)).collect();

    // The profile multisets must agree.
    {
        let mut a = h_profiles.clone();
        let mut b = g_profiles.clone();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return None;
        }
    }

    // Candidate g-variables per h-variable; search scarcest-first.
    let mut order: Vec<usize> = (0..n).collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|i| (0..n).filter(|&j| g_profiles[j] == h_profiles[i]).collect())
        .collect();
    order.sort_by_key(|&i| candidates[i].len());

    let mut state = SearchState {
        h,
        g,
        order: &order,
        candidates: &candidates,
        assignment: vec![usize::MAX; n],
        used: vec![false; n],
        neg: 0,
    };
    if state.descend(0) {
        let mut perm_img = vec![0usize; n];
        for (i, &j) in state.assignment.iter().enumerate() {
            perm_img[i] = j;
        }
        let perm = Permutation::from_slice(&perm_img).expect("bijective assignment");
        Some((perm, state.neg))
    } else {
        None
    }
}

struct SearchState<'a> {
    h: &'a TruthTable,
    g: &'a TruthTable,
    order: &'a [usize],
    candidates: &'a [Vec<usize>],
    /// `assignment[i] = perm[i]`: g-position read by h-variable `i`.
    assignment: Vec<usize>,
    used: Vec<bool>,
    /// Input negation mask on h-variables.
    neg: u16,
}

impl SearchState<'_> {
    fn descend(&mut self, depth: usize) -> bool {
        let n = self.h.num_vars();
        if depth == n {
            return self.full_check();
        }
        let hv = self.order[depth];
        let cands = &self.candidates[hv];
        for &gv in cands {
            if self.used[gv] {
                continue;
            }
            for neg_bit in [false, true] {
                // A negated mapping only differs when the cofactor counts
                // differ; when they're equal both phases must be explored
                // (they lead to different completions), when they differ
                // only the count-matching phase can work.
                let c0h = self.h.cofactor_count(hv, false);
                let c1h = self.h.cofactor_count(hv, true);
                let c0g = self.g.cofactor_count(gv, false);
                let c1g = self.g.cofactor_count(gv, true);
                let (m0, m1) = if neg_bit { (c1h, c0h) } else { (c0h, c1h) };
                if (m0, m1) != (c0g, c1g) {
                    continue;
                }
                self.assignment[hv] = gv;
                self.used[gv] = true;
                if neg_bit {
                    self.neg |= 1 << hv;
                }
                if self.partial_check(depth + 1) && self.descend(depth + 1) {
                    return true;
                }
                self.assignment[hv] = usize::MAX;
                self.used[gv] = false;
                self.neg &= !(1 << hv);
            }
        }
        false
    }

    /// Joint cofactor counts over the currently assigned variables must
    /// match between h and g under the partial mapping.
    fn partial_check(&self, assigned: usize) -> bool {
        let h_vars: Vec<usize> = self.order[..assigned].to_vec();
        let g_vars: Vec<usize> = h_vars.iter().map(|&i| self.assignment[i]).collect();
        let k = h_vars.len();
        if k > 4 {
            // Joint checks beyond 4 variables cost more than they prune;
            // deeper levels are validated by the final equality test.
            return true;
        }
        for a in 0..(1u32 << k) {
            let h_vals: Vec<bool> = (0..k)
                .map(|b| ((a >> b) & 1 == 1) ^ ((self.neg >> h_vars[b]) & 1 == 1))
                .collect();
            let g_vals: Vec<bool> = (0..k).map(|b| (a >> b) & 1 == 1).collect();
            if self.h.cofactor_count_multi(&h_vars, &h_vals)
                != self.g.cofactor_count_multi(&g_vars, &g_vals)
            {
                return false;
            }
        }
        true
    }

    fn full_check(&self) -> bool {
        let perm =
            Permutation::from_slice(&self.assignment).expect("complete bijective assignment");
        let t = NpnTransform::new(perm, self.neg, false);
        t.apply(self.h) == *self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equivalent_pairs_match_with_witness() {
        let mut rng = StdRng::seed_from_u64(101);
        for n in 0..=7usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                let w = npn_match(&f, &g).unwrap_or_else(|| panic!("n = {n}, f = {f}"));
                assert_eq!(w.apply(&f), g);
            }
        }
    }

    #[test]
    fn matcher_agrees_with_exhaustive_canonical() {
        let mut rng = StdRng::seed_from_u64(103);
        for _ in 0..60 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let g = TruthTable::random(4, &mut rng).unwrap();
            let via_canon = crate::exhaustive::exact_npn_canonical(&f)
                == crate::exhaustive::exact_npn_canonical(&g);
            assert_eq!(are_npn_equivalent(&f, &g), via_canon, "f = {f}, g = {g}");
        }
    }

    #[test]
    fn non_equivalent_rejected() {
        // Same satisfy count, different classes.
        let maj = TruthTable::majority(3); // |f| = 4, balanced
        let proj = TruthTable::projection(3, 0).unwrap(); // |f| = 4, balanced
        assert!(npn_match(&maj, &proj).is_none());
    }

    #[test]
    fn output_phase_only() {
        for hex in ["0123", "0abc"] {
            let f = TruthTable::from_hex(4, hex).unwrap();
            let g = f.negated();
            let w = npn_match(&f, &g).expect("complement is NPN-equivalent");
            assert_eq!(w.apply(&f), g);
        }
    }

    #[test]
    fn symmetric_functions_match_quickly() {
        // Total symmetry = worst case for canonical forms, easy for the
        // matcher (first candidate succeeds).
        let f = TruthTable::majority(9);
        let mut g = f.clone();
        g.flip_var_in_place(3);
        g.flip_var_in_place(7);
        let w = npn_match(&f, &g).expect("phase change of majority");
        assert_eq!(w.apply(&f), g);
    }

    #[test]
    fn constants_and_arity_zero() {
        let zero = TruthTable::zero(0).unwrap();
        let one = TruthTable::one(0).unwrap();
        assert!(
            are_npn_equivalent(&zero, &one),
            "output negation links them"
        );
        let c0 = TruthTable::zero(3).unwrap();
        let c1 = TruthTable::one(3).unwrap();
        assert!(are_npn_equivalent(&c0, &c1));
        assert!(!are_npn_equivalent(&c0, &TruthTable::majority(3)));
    }

    #[test]
    fn parity_class_is_closed() {
        // Every input/output phasing of parity is the same function ±.
        let p = TruthTable::parity(5);
        let mut rng = StdRng::seed_from_u64(107);
        for _ in 0..5 {
            let t = NpnTransform::random(5, &mut rng);
            assert!(are_npn_equivalent(&p, &t.apply(&p)));
        }
        // And parity is not equivalent to majority.
        assert!(!are_npn_equivalent(&p, &TruthTable::majority(5)));
    }
}
