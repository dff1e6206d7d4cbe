//! Reimplementations of the canonical-form NPN classifiers the paper
//! compares against in Table III.
//!
//! Each baseline computes a *heuristic canonical form*: a representative
//! obtained by applying genuine NPN transforms chosen by cheap rules.
//! Because the representative always lies inside the function's NPN
//! orbit, these classifiers can never merge two distinct classes — but
//! they *over-split* whenever their tie-breaking rules map equivalent
//! functions to different representatives. This is the mirror image of
//! the paper's signature classifier, which can only *merge*. They
//! reimplement the published ideas behind the ABC commands the paper
//! ran, not ABC's code.
//!
//! | baseline | ABC flag | published idea | behaviour reproduced |
//! |---|---|---|---|
//! | [`Huang13`] | `testnpn -6` | linear-pass phase/order heuristic (Huang et al., FPT'13) | ultra fast, heavy over-split |
//! | [`Abdollahi08`] | — | signature-based canonical form via variable color refinement (Abdollahi & Pedram, TCAD'08, the paper's ref.\[3\]) | accurate on asymmetric functions, phase-tie enumeration |
//! | [`Petkovska16`] | `testnpn -7` | hierarchical refinement of tied orders (Petkovska et al., FPL'16) | fast, mild over-split |
//! | [`Zhou20`] | `testnpn -11` | canonical form co-designed with its computation, enumerating only within symmetric groups (Zhou et al., IEEE TC'20) | near-exact, runtime depends on symmetry structure |

mod abdollahi08;
mod huang13;
mod petkovska16;
mod zhou20;

pub use abdollahi08::Abdollahi08;
pub use huang13::Huang13;
pub use petkovska16::Petkovska16;
pub use zhou20::Zhou20;

use crate::classify::ClassLabels;
use facepoint_truth::TruthTable;

/// A classifier defined by a canonical-form function: two inputs share a
/// class iff their representatives are equal.
pub trait CanonicalClassifier {
    /// Short display name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// The representative of `f`'s (approximate) class. Must be a member
    /// of `f`'s NPN orbit, so that distinct classes never collide.
    fn canonical_form(&self, f: &TruthTable) -> TruthTable;

    /// Groups `fns` by representative.
    fn classify(&self, fns: &[TruthTable]) -> ClassLabels {
        ClassLabels::from_keys(fns.iter().map(|f| self.canonical_form(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::exact_classify;
    use crate::matcher::are_npn_equivalent;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn baselines() -> Vec<Box<dyn CanonicalClassifier>> {
        vec![
            Box::new(Huang13),
            Box::new(Abdollahi08::default()),
            Box::new(Petkovska16::default()),
            Box::new(Zhou20::default()),
        ]
    }

    #[test]
    fn representatives_stay_in_orbit() {
        let mut rng = StdRng::seed_from_u64(131);
        for b in baselines() {
            for n in 1..=6usize {
                for _ in 0..6 {
                    let f = TruthTable::random(n, &mut rng).unwrap();
                    let canon = b.canonical_form(&f);
                    assert!(
                        are_npn_equivalent(&f, &canon),
                        "{}: representative of {f} left the orbit ({canon})",
                        b.name()
                    );
                }
            }
        }
    }

    #[test]
    fn representatives_are_idempotent_under_reclassification() {
        // canonical(canonical(f)) need not equal canonical(f) for
        // heuristics in general, but grouping must be stable: equal
        // representatives stay equal.
        let mut rng = StdRng::seed_from_u64(137);
        for b in baselines() {
            let f = TruthTable::random(5, &mut rng).unwrap();
            let c1 = b.canonical_form(&f);
            let c2 = b.canonical_form(&f);
            assert_eq!(c1, c2, "{} must be deterministic", b.name());
        }
    }

    #[test]
    fn baselines_never_undercount_classes() {
        // Over-split only: every baseline's class count is >= exact.
        let mut rng = StdRng::seed_from_u64(139);
        let mut fns = Vec::new();
        for _ in 0..60 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let t = NpnTransform::random(4, &mut rng);
            fns.push(t.apply(&f));
            fns.push(f);
        }
        let exact = exact_classify(&fns).num_classes();
        for b in baselines() {
            let approx = b.classify(&fns).num_classes();
            assert!(
                approx >= exact,
                "{}: {approx} classes < exact {exact}",
                b.name()
            );
        }
    }

    #[test]
    fn accuracy_ordering_on_random_workload() {
        // The paper's Table III ordering: Huang13 splits most, Zhou20
        // least. Check the weak ordering on a transform-closure workload
        // where over-splitting is visible.
        let mut rng = StdRng::seed_from_u64(149);
        let mut fns = Vec::new();
        for _ in 0..40 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            for _ in 0..4 {
                fns.push(NpnTransform::random(4, &mut rng).apply(&f));
            }
        }
        let huang = Huang13.classify(&fns).num_classes();
        let petkovska = Petkovska16::default().classify(&fns).num_classes();
        let zhou = Zhou20::default().classify(&fns).num_classes();
        assert!(huang >= petkovska, "huang {huang} >= petkovska {petkovska}");
        assert!(petkovska >= zhou, "petkovska {petkovska} >= zhou {zhou}");
    }
}
