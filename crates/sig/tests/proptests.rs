//! Property-based tests of the signature machinery: the paper's
//! Theorems 1–4 as universally quantified invariants, plus internal
//! consistency between the fast and reference computation paths.

use facepoint_sig::{
    influence, msv, msv_reference, ocv, ocv1, ocv2, oiv, osdv, osdv0, osdv1, osv, osv0, osv1,
    osv_histogram, raw_msv, SensitivityProfile, SigKernel, SignatureSet,
};
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use proptest::prelude::*;

fn arb_table(max_n: usize) -> impl Strategy<Value = TruthTable> {
    (0..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"))
    })
}

/// Random **balanced** tables: a random table repaired to `|f| =
/// 2^{n-1}` by flipping excess bits (deterministically, walking from
/// minterm 0) — the adversarial workload for the polarity-derivation
/// path.
fn arb_balanced(max_n: usize) -> impl Strategy<Value = TruthTable> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n)).prop_map(
            move |words| {
                let mut t = TruthTable::from_words(n, &words).expect("sized vec");
                let half = t.num_bits() / 2;
                let mut m = 0u64;
                while t.count_ones() > half {
                    if t.bit(m) {
                        t.set_bit(m, false);
                    }
                    m += 1;
                }
                while t.count_ones() < half {
                    if !t.bit(m) {
                        t.set_bit(m, true);
                    }
                    m += 1;
                }
                t
            },
        )
    })
}

/// Every subset of the seven signature families (2⁷ = 128 sets).
fn all_signature_subsets() -> Vec<SignatureSet> {
    let families = [
        SignatureSet::OCV1,
        SignatureSet::OCV2,
        SignatureSet::OIV,
        SignatureSet::OSV,
        SignatureSet::OSDV,
        SignatureSet::WALSH,
        SignatureSet::OCV3,
    ];
    (0u32..128)
        .map(|mask| {
            families
                .iter()
                .enumerate()
                .filter(|(i, _)| (mask >> i) & 1 == 1)
                .fold(SignatureSet::EMPTY, |acc, (_, &fam)| acc | fam)
        })
        .collect()
}

/// Definitions 9–10 by brute force, from `f.bit` alone: the row-major
/// `(n+1) × n` matrix whose entry `s·n + (j−1)` counts the unordered
/// minterm pairs `X < Y` of equal local sensitivity `s` at Hamming
/// distance `j`, restricted to minterms with `f(X) = value` when
/// `value` is given.
fn osdv_by_definition(f: &TruthTable, value: Option<bool>) -> Vec<u64> {
    let n = f.num_vars();
    let sen: Vec<usize> = (0..f.num_bits())
        .map(|x| (0..n).filter(|&i| f.bit(x) != f.bit(x ^ (1 << i))).count())
        .collect();
    let counted = |x: u64| value.is_none_or(|v| f.bit(x) == v);
    let mut rows = vec![0u64; (n + 1) * n];
    for x in 0..f.num_bits() {
        for y in x + 1..f.num_bits() {
            if sen[x as usize] == sen[y as usize] && counted(x) && counted(y) {
                let j = (x ^ y).count_ones() as usize;
                rows[sen[x as usize] * n + j - 1] += 1;
            }
        }
    }
    rows
}

/// The kernel's `OSDV` stage sections: tag 6 with the `OSDV0` rows, then
/// tag 7 with the `OSDV1` rows, each prefixed by its length.
fn osdv_sections(zeros: &[u64], ones: &[u64]) -> Vec<u64> {
    let mut out = vec![6, zeros.len() as u64];
    out.extend_from_slice(zeros);
    out.extend([7, ones.len() as u64]);
    out.extend_from_slice(ones);
    out
}

/// Checks both OSDV paths against [`osdv_by_definition`]: `osdv`,
/// `osdv0` and `osdv1` (the reference path), and the kernel's tagged
/// `OSDV` stage sections for `f` and for the derived `¬f` (the fused
/// sweep).
fn check_osdv_against_definition(f: &TruthTable) {
    let all = osdv_by_definition(f, None);
    let zeros = osdv_by_definition(f, Some(false));
    let ones = osdv_by_definition(f, Some(true));
    assert_eq!(osdv(f).flatten(), all, "OSDV, f = {f}");
    assert_eq!(osdv0(f).flatten(), zeros, "OSDV0, f = {f}");
    assert_eq!(osdv1(f).flatten(), ones, "OSDV1, f = {f}");
    let mut kernel = SigKernel::new();
    let mut buf = Vec::new();
    kernel.stage_sections_into(f, SignatureSet::OSDV, false, &mut buf);
    assert_eq!(buf, osdv_sections(&zeros, &ones), "kernel, f = {f}");
    // The 0-minterms of ¬f are the 1-minterms of f.
    kernel.stage_sections_into(f, SignatureSet::OSDV, true, &mut buf);
    assert_eq!(buf, osdv_sections(&ones, &zeros), "kernel ¬f, f = {f}");
}

fn arb_pair(max_n: usize) -> impl Strategy<Value = (TruthTable, NpnTransform)> {
    (1..=max_n).prop_flat_map(|n| {
        let table = proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"));
        let tr = (any::<u64>(), any::<u16>(), any::<bool>()).prop_map(move |(s, neg, out)| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(s);
            NpnTransform::new(
                Permutation::random(n, &mut rng),
                neg & (((1u32 << n) - 1) as u16),
                out,
            )
        });
        (table, tr)
    })
}

proptest! {
    // ---- Theorem 1 ----
    #[test]
    fn oiv_is_npn_invariant((f, t) in arb_pair(7)) {
        prop_assert_eq!(oiv(&f), oiv(&t.apply(&f)));
    }

    // ---- Theorem 2 ----
    #[test]
    fn osv_triple_is_pn_invariant((f, t) in arb_pair(7)) {
        let pn = NpnTransform::new(t.perm().clone(), t.input_neg(), false);
        let g = pn.apply(&f);
        prop_assert_eq!(osv(&f), osv(&g));
        prop_assert_eq!(osv0(&f), osv0(&g));
        prop_assert_eq!(osv1(&f), osv1(&g));
    }

    // ---- Theorem 3 (generalized to all functions) ----
    #[test]
    fn osv_pair_swaps_exactly_on_output_negation((f, t) in arb_pair(7)) {
        let g = t.apply(&f);
        if t.output_neg() {
            prop_assert_eq!(osv0(&f), osv1(&g));
            prop_assert_eq!(osv1(&f), osv0(&g));
        } else {
            prop_assert_eq!(osv0(&f), osv0(&g));
            prop_assert_eq!(osv1(&f), osv1(&g));
        }
    }

    // ---- Theorem 4 ----
    #[test]
    fn osdv_family_obeys_theorem4((f, t) in arb_pair(6)) {
        let g = t.apply(&f);
        prop_assert_eq!(osdv(&f), osdv(&g));
        let (f0, f1) = (osdv0(&f), osdv1(&f));
        let (g0, g1) = (osdv0(&g), osdv1(&g));
        if t.output_neg() {
            prop_assert_eq!(f0, g1);
            prop_assert_eq!(f1, g0);
        } else {
            prop_assert_eq!(f0, g0);
            prop_assert_eq!(f1, g1);
        }
    }

    // ---- Cofactor vectors are NP-invariant at every arity ----
    #[test]
    fn ocv_is_np_invariant((f, t) in arb_pair(6)) {
        let pn = NpnTransform::new(t.perm().clone(), t.input_neg(), false);
        let g = pn.apply(&f);
        prop_assert_eq!(ocv1(&f), ocv1(&g));
        prop_assert_eq!(ocv2(&f), ocv2(&g));
        let l = 3.min(f.num_vars());
        prop_assert_eq!(ocv(&f, l), ocv(&g, l));
    }

    // ---- The MSV collides exactly on all theorem-backed content ----
    #[test]
    fn msv_is_npn_invariant((f, t) in arb_pair(7)) {
        prop_assert_eq!(
            msv(&f, SignatureSet::all()),
            msv(&t.apply(&f), SignatureSet::all())
        );
    }

    #[test]
    fn raw_msv_is_pn_invariant((f, t) in arb_pair(6)) {
        let pn = NpnTransform::new(t.perm().clone(), t.input_neg(), false);
        prop_assert_eq!(
            raw_msv(&f, SignatureSet::all()),
            raw_msv(&pn.apply(&f), SignatureSet::all())
        );
    }

    // ---- Internal consistency ----
    #[test]
    fn bit_sliced_profile_matches_naive(f in arb_table(8)) {
        prop_assert_eq!(
            SensitivityProfile::compute(&f),
            SensitivityProfile::compute_naive(&f)
        );
    }

    // Random tables populate sensitivity groups of every size, so both
    // paths run their pairwise counting and their spectral tail.
    #[test]
    fn osdv_matches_definition(f in arb_table(8)) {
        check_osdv_against_definition(&f);
    }

    // The two OSDV engines, differentially past the brute force's reach:
    // `osdv0`/`osdv1` (classic autocorrelation tail) and the kernel's
    // fused sweep (weight-binned tail, at half the crossover), so a
    // level can go spectral on one side and pairwise on the other.
    #[test]
    fn osdv_engines_agree(f in arb_table(10)) {
        let mut buf = Vec::new();
        SigKernel::new().stage_sections_into(&f, SignatureSet::OSDV, false, &mut buf);
        let expect = osdv_sections(&osdv0(&f).flatten(), &osdv1(&f).flatten());
        prop_assert_eq!(buf, expect, "f = {}", &f);
    }

    #[test]
    fn sensitivity_influence_sum_identity(f in arb_table(8)) {
        let total: u64 = osv_histogram(&f)
            .iter()
            .enumerate()
            .map(|(s, &c)| s as u64 * c)
            .sum();
        let inf_total: u64 = (0..f.num_vars()).map(|v| influence(&f, v) as u64).sum();
        prop_assert_eq!(total, 2 * inf_total);
    }

    #[test]
    fn influence_zero_iff_dead_variable(f in arb_table(7)) {
        for v in 0..f.num_vars() {
            prop_assert_eq!(influence(&f, v) == 0, !f.depends_on(v));
        }
    }

    #[test]
    fn osv_split_partitions_osv(f in arb_table(7)) {
        let mut merged = [osv0(&f), osv1(&f)].concat();
        merged.sort_unstable();
        prop_assert_eq!(merged, osv(&f));
    }

    #[test]
    fn osdv_row_sums_match_histogram(f in arb_table(6)) {
        let hist = osv_histogram(&f);
        let v = osdv(&f);
        for (s, &count) in hist.iter().enumerate() {
            let pairs: u64 = if f.num_vars() == 0 { 0 } else {
                v.sigma(s as u32).iter().sum()
            };
            prop_assert_eq!(pairs, count * count.saturating_sub(1) / 2);
        }
    }

    // ---- Kernel ≡ reference differentials ----

    // Every SignatureSet subset on small arities: the kernel's canonical
    // MSV must be bit-identical to the two-pass reference (and to the
    // public `msv`, which routes through the kernel).
    #[test]
    fn kernel_equals_reference_for_every_subset(f in arb_table(5)) {
        let mut kernel = SigKernel::new();
        let mut buf = Vec::new();
        for set in all_signature_subsets() {
            kernel.msv_into(&f, set, &mut buf);
            let expect = msv_reference(&f, set);
            prop_assert_eq!(buf.as_slice(), expect.as_words(), "set = {}, f = {}", set, &f);
            prop_assert_eq!(&msv(&f, set), &expect, "msv(), set = {}, f = {}", set, &f);
        }
    }

    // Larger arities (up to the acceptance bound of 8) on the extended
    // set, which exercises every stage builder at once.
    #[test]
    fn kernel_equals_reference_extended_up_to_8(f in arb_table(8)) {
        let mut kernel = SigKernel::new();
        let set = SignatureSet::all_extended();
        prop_assert_eq!(kernel.msv(&f, set), msv_reference(&f, set), "f = {}", &f);
    }

    // Adversarially balanced tables: the satisfy count never resolves
    // the polarity, so every function runs the lockstep tie-break. The
    // kernel must agree with the reference and collide with ¬f.
    #[test]
    fn kernel_handles_adversarially_balanced_tables(f in arb_balanced(7)) {
        let mut kernel = SigKernel::new();
        for set in [SignatureSet::all(), SignatureSet::all_extended(), SignatureSet::OSV] {
            let got = kernel.msv(&f, set);
            prop_assert_eq!(&got, &msv_reference(&f, set), "set = {}, f = {}", set, &f);
            prop_assert_eq!(&got, &kernel.msv(&!&f, set), "¬f, set = {}, f = {}", set, &f);
        }
    }

    // ---- Spectral layer ----
    #[test]
    fn walsh_parseval(f in arb_table(7)) {
        let spec = facepoint_sig::spectral::walsh_spectrum(&f);
        let energy: i64 = spec.iter().map(|w| w * w).sum();
        let n2 = (f.num_bits() * f.num_bits()) as i64;
        prop_assert_eq!(energy, n2);
    }

    #[test]
    fn walsh_sorted_abs_is_npn_invariant((f, t) in arb_pair(6)) {
        prop_assert_eq!(
            facepoint_sig::spectral::walsh_spectrum_sorted_abs(&f),
            facepoint_sig::spectral::walsh_spectrum_sorted_abs(&t.apply(&f))
        );
    }

    // The in-place butterfly against the naive O(4ⁿ) transform definition
    // W[s] = Σ_m (−1)^{popcount(s∧m)}·data[m].
    #[test]
    fn wht_in_place_matches_naive_transform(
        (n, seed) in (0usize..=8, any::<u64>())
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = 1usize << n;
        let data: Vec<i64> = (0..len)
            .map(|_| rng.random_range(0u64..=2000) as i64 - 1000)
            .collect();
        let naive: Vec<i64> = (0..len)
            .map(|s| {
                (0..len)
                    .map(|m| {
                        let sign = if (s & m).count_ones() % 2 == 0 { 1 } else { -1 };
                        sign * data[m]
                    })
                    .sum()
            })
            .collect();
        let mut fast = data;
        facepoint_sig::spectral::wht_in_place(&mut fast);
        prop_assert_eq!(fast, naive, "n = {}", n);
    }

    // ---- Automatic tail choice on skewed sensitivity groups ----

    // Threshold and Hamming-ball functions (plus sparse noise) make
    // one polarity group of a sensitivity level huge and the other
    // tiny, so each path picks *different* tails for the two groups of
    // the same level. Whatever it picks must match the definition.
    #[test]
    fn auto_engine_agrees_on_skewed_groups(
        (n, ball, cut, noise) in (1usize..=8, any::<bool>(), any::<u64>(), any::<u64>())
    ) {
        let bits = 1u64 << n;
        let f = if ball {
            // Hamming ball: true inside radius `t` around minterm 0.
            let t = (cut % (n as u64 + 1)) as u32;
            TruthTable::from_fn(n, |m| m.count_ones() <= t).unwrap()
        } else {
            // Threshold: true below a cutoff skewed toward the edges.
            let c = cut % (bits + 1);
            TruthTable::from_fn(n, |m| m < c).unwrap()
        };
        // Sparse noise: flip up to three minterms.
        let mut f = f;
        for k in 0..(noise % 4) {
            let m = (noise.rotate_right(16 * k as u32 + 7)) % bits;
            f.set_bit(m, !f.bit(m));
        }
        check_osdv_against_definition(&f);
    }
}
