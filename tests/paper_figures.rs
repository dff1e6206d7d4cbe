//! Integration tests pinning the paper's worked examples — Figures 1–4
//! and Table I — through the public facade API.

use facepoint::exact::{are_npn_equivalent, exact_npn_canonical};
use facepoint::sig::{ocv1, ocv2, oiv, osdv, osdv1, osv, osv0, osv1, theorems};
use facepoint::{NpnTransform, Permutation, SignatureSet, TruthTable};

/// `f1` of Fig. 1a: the 3-input majority.
fn f1() -> TruthTable {
    TruthTable::majority(3)
}

/// `f3` of Fig. 1c: the projection onto one variable, recovered from its
/// published signature values.
fn f3() -> TruthTable {
    TruthTable::projection(3, 2).unwrap()
}

#[test]
fn figure1_f1_and_f2_are_npn_equivalent() {
    // Fig. 1b shows *an* NPN-equivalent transform of majority; any
    // transform must stay in the class and have an isomorphic induced
    // subgraph (equal signature vectors).
    let t = NpnTransform::new(Permutation::from_slice(&[1, 2, 0]).unwrap(), 0b101, true);
    let f2 = t.apply(&f1());
    assert!(are_npn_equivalent(&f1(), &f2));
    assert_eq!(oiv(&f1()), oiv(&f2));
    assert_eq!(exact_npn_canonical(&f1()), exact_npn_canonical(&f2));
}

#[test]
fn figure1_f2_and_f3_are_not_equivalent() {
    assert!(!are_npn_equivalent(&f1(), &f3()));
    // Their signatures already witness it.
    assert_ne!(oiv(&f1()), oiv(&f3()));
    assert_ne!(osv(&f1()), osv(&f3()));
}

#[test]
fn table1_complete_row_check() {
    let f1 = f1();
    let f3 = f3();
    assert_eq!(ocv1(&f1), vec![1, 1, 1, 3, 3, 3]);
    assert_eq!(ocv1(&f3), vec![0, 2, 2, 2, 2, 4]);
    assert_eq!(ocv2(&f1), vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2]);
    assert_eq!(ocv2(&f3), vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    assert_eq!(oiv(&f1), vec![2, 2, 2]);
    assert_eq!(oiv(&f3), vec![0, 0, 4]);
    assert_eq!(osv1(&f1), vec![0, 2, 2, 2]);
    assert_eq!(osv1(&f3), vec![1, 1, 1, 1]);
    assert_eq!(osv0(&f1), vec![0, 2, 2, 2]);
    assert_eq!(osv0(&f3), vec![1, 1, 1, 1]);
    assert_eq!(osv(&f1), vec![0, 0, 2, 2, 2, 2, 2, 2]);
    assert_eq!(osv(&f3), vec![1; 8]);
    assert_eq!(
        osdv1(&f1).flatten(),
        vec![0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]
    );
    assert_eq!(
        osdv1(&f3).flatten(),
        vec![0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(
        osdv(&f1).flatten(),
        vec![0, 0, 1, 0, 0, 0, 6, 6, 3, 0, 0, 0]
    );
    assert_eq!(
        osdv(&f3).flatten(),
        vec![0, 0, 0, 12, 12, 4, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn figure3_balanced_swap_structure() {
    // Fig. 3: NPN-equivalent balanced functions whose OSV0/OSV1 swap. An
    // output negation of any balanced function with asymmetric split
    // vectors exhibits the swap; the MSV still collides (Theorem 3's
    // handling).
    let f = TruthTable::from_hex(4, "1ee1").unwrap(); // balanced
    assert!(f.is_balanced());
    let g = f.negated();
    assert_eq!(osv0(&f), osv1(&g));
    assert_eq!(osv1(&f), osv0(&g));
    assert_eq!(
        facepoint::msv(&f, SignatureSet::all()),
        facepoint::msv(&g, SignatureSet::all())
    );
}

#[test]
fn figure4_published_witnesses() {
    // The witnesses found by `fig4_search` (with the paper's exact
    // signature values), pinned so regressions surface.
    let g1 = TruthTable::from_hex(4, "16e9").unwrap();
    let g2 = TruthTable::from_hex(4, "19e6").unwrap();
    assert_eq!(ocv1(&g1), vec![3, 4, 4, 4, 4, 4, 4, 5]);
    assert_eq!(ocv1(&g2), vec![3, 4, 4, 4, 4, 4, 4, 5]);
    assert_eq!(ocv2(&g1), ocv2(&g2));
    assert_eq!(oiv(&g1), vec![6, 6, 6, 8]);
    assert_eq!(oiv(&g2), vec![2, 6, 6, 8]);
    assert!(!are_npn_equivalent(&g1, &g2));

    let h1 = TruthTable::from_hex(4, "06b5").unwrap();
    let h2 = TruthTable::from_hex(4, "06b6").unwrap();
    assert_eq!(ocv1(&h1), vec![2, 3, 3, 3, 4, 4, 4, 5]);
    assert_eq!(ocv2(&h1), ocv2(&h2));
    assert_eq!(oiv(&h1), vec![3, 5, 5, 5]);
    assert_eq!(oiv(&h2), vec![3, 5, 5, 5]);
    assert_eq!(osv1(&h1), vec![2, 2, 2, 2, 3, 3, 4]);
    assert_eq!(osv1(&h2), vec![1, 2, 3, 3, 3, 3, 3]);
    assert!(!are_npn_equivalent(&h1, &h2));
}

#[test]
fn theorems_hold_through_facade() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(2024);
    for n in 1..=6 {
        for _ in 0..8 {
            let f = TruthTable::random(n, &mut rng).unwrap();
            let t = NpnTransform::random(n, &mut rng);
            assert!(theorems::theorem1_oiv_invariant(&f, &t));
            assert!(theorems::theorem3_balanced_swap(&f, &t));
            assert!(theorems::theorem4_osdv_invariant(&f, &t));
            assert!(theorems::sensitivity_influence_identity(&f));
        }
    }
}
