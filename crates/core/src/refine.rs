//! Refinement of a signature classification to an exact one.
//!
//! The paper's conclusion notes that "influence and sensitivity still have
//! great potential to be extended to the traditional method to achieve
//! exact NPN classification" — this module is that extension: take the
//! signature buckets (already NPN-sound) and run the exact pairwise
//! matcher *inside* each bucket only. Because buckets are tiny and almost
//! always pure, the exact pass costs little more than the signature pass.

use crate::classifier::Classification;
use facepoint_exact::refine_buckets;
use facepoint_truth::TruthTable;

/// Exact class labels obtained by refining `classification` (produced on
/// exactly these `fns`, in the same order) with pairwise NPN matching
/// inside each signature class.
///
/// # Panics
///
/// Panics if `classification` does not label exactly `fns.len()` items.
///
/// # Examples
///
/// ```
/// use facepoint_core::{refine_to_exact, Classifier};
/// use facepoint_sig::SignatureSet;
/// use facepoint_truth::TruthTable;
///
/// let fns = vec![TruthTable::majority(3), TruthTable::parity(3)];
/// // Even a signature-free classification refines to the exact one.
/// let rough = Classifier::new(SignatureSet::EMPTY).classify(fns.clone());
/// assert_eq!(rough.num_classes(), 1);
/// let exact = refine_to_exact(&fns, &rough);
/// assert_eq!(exact.num_classes(), 2);
/// ```
pub fn refine_to_exact(
    fns: &[TruthTable],
    classification: &Classification,
) -> facepoint_exact::ClassLabels {
    assert_eq!(
        fns.len(),
        classification.num_functions(),
        "classification must label exactly these functions"
    );
    refine_buckets(fns, classification.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use facepoint_exact::exact_classify;
    use facepoint_sig::SignatureSet;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn refinement_recovers_exact_partition() {
        let mut rng = StdRng::seed_from_u64(171);
        let mut fns = Vec::new();
        for _ in 0..20 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            fns.push(NpnTransform::random(4, &mut rng).apply(&f));
            fns.push(f);
        }
        for set in [SignatureSet::EMPTY, SignatureSet::OIV, SignatureSet::all()] {
            let rough = Classifier::new(set).classify(fns.clone());
            let refined = refine_to_exact(&fns, &rough);
            let exact = exact_classify(&fns);
            assert_eq!(refined.num_classes(), exact.num_classes(), "set = {set}");
            for i in 0..fns.len() {
                for j in (i + 1)..fns.len() {
                    assert_eq!(
                        refined.label(i) == refined.label(j),
                        exact.label(i) == exact.label(j),
                        "set = {set}, pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn already_exact_classification_is_untouched() {
        let fns = vec![
            TruthTable::majority(3),
            TruthTable::majority(3).flip_var(2),
            TruthTable::projection(3, 1).unwrap(),
        ];
        let rough = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let refined = refine_to_exact(&fns, &rough);
        assert_eq!(refined.num_classes(), rough.num_classes());
    }
}
