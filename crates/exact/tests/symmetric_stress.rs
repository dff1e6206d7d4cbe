//! Stress of the canonical walk on the inputs that used to blow the
//! pruned walk's budget: highly symmetric families — threshold and
//! Hamming-ball functions (cf. "Specifying a positive threshold function
//! via extremal points"), majority, parity and bent functions — at
//! n = 6..10, next to random tables. Every function and sixteen random
//! NPN transforms of it must get the same label, an invariant verdict
//! and a witness that maps the function onto its label.

use facepoint_exact::certified_canonical_with_witness;
use facepoint_truth::{NpnTransform, TruthTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const TRANSFORMS: usize = 16;

/// The stressed families at arity `n`, by name.
fn families(n: usize, rng: &mut StdRng) -> Vec<(&'static str, TruthTable)> {
    let table = |f: &dyn Fn(u64) -> bool| TruthTable::from_fn(n, f).unwrap();
    // Weights 1, 1, 2, 2, 3, 3, …: pairs of equal weight tie on every
    // profile, distinct weights do not.
    let weight = |m: u64| {
        (0..n)
            .filter(|&i| (m >> i) & 1 == 1)
            .map(|i| i / 2 + 1)
            .sum::<usize>()
    };
    let total = weight((1 << n) - 1);
    let center: u64 = rng.random_range(0..1 << n);
    vec![
        ("threshold", table(&|m| 2 * weight(m) >= total)),
        (
            "hamming-ball",
            table(&|m| ((m ^ center).count_ones() as usize) < n / 2),
        ),
        ("majority", table(&|m| 2 * m.count_ones() as usize > n)),
        ("parity", TruthTable::parity(n)),
        // x0x1 ⊕ x2x3 ⊕ …; odd n leaves the last variable unused.
        (
            "bent",
            table(&|m| (m & (m >> 1) & 0x5555).count_ones() % 2 == 1),
        ),
        ("random", TruthTable::random(n, rng).unwrap()),
    ]
}

#[test]
fn symmetric_families_get_invariant_labels_and_valid_witnesses() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CA11);
    for n in 6..=10usize {
        for (name, f) in families(n, &mut rng) {
            let canon = certified_canonical_with_witness(&f);
            assert!(canon.invariant, "{name}({n}) exceeded the walk's budget");
            assert_eq!(canon.witness.apply(&f), canon.label, "{name}({n})");
            for _ in 0..TRANSFORMS {
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                let other = certified_canonical_with_witness(&g);
                assert!(other.invariant, "{name}({n}) under {t}");
                assert_eq!(other.label, canon.label, "{name}({n}) under {t}");
                assert_eq!(
                    other.witness.apply(&g),
                    other.label,
                    "{name}({n}) under {t}"
                );
            }
        }
    }
}
