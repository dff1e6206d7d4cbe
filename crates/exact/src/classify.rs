//! Exact NPN classification for arbitrary arity — the "exact version" the
//! paper uses as ground truth for `n > 6`.
//!
//! Strategy: bucket by the strongest signature vector (every MSV equality
//! is *necessary* for equivalence, so equivalent functions always share a
//! bucket — no equivalence can be missed); inside each bucket, run the
//! exact pairwise [matcher](crate::npn_match) and accumulate verdicts in
//! a union–find. The matcher never reports a false positive, so classes
//! are exact in both directions.

use crate::matcher::are_npn_equivalent;
use crate::unionfind::UnionFind;
use facepoint_sig::{msv, SignatureSet};
use facepoint_truth::TruthTable;
use std::collections::HashMap;

/// Result of an exact classification: a compact class id per input
/// function.
#[derive(Debug, Clone)]
pub struct ClassLabels {
    labels: Vec<usize>,
    num_classes: usize,
}

impl ClassLabels {
    /// Builds labels by grouping equal keys (compact ids in
    /// first-occurrence order). Canonical-form classifiers reduce to this.
    pub fn from_keys<K: std::hash::Hash + Eq>(keys: impl IntoIterator<Item = K>) -> Self {
        let mut map: HashMap<K, usize> = HashMap::new();
        let labels: Vec<usize> = keys
            .into_iter()
            .map(|k| {
                let next = map.len();
                *map.entry(k).or_insert(next)
            })
            .collect();
        ClassLabels {
            num_classes: map.len(),
            labels,
        }
    }

    /// The class id of input function `i` (ids are compact,
    /// `0..num_classes`, in first-occurrence order).
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All class labels, parallel to the input slice.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of distinct NPN classes among the inputs.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// Exactly classifies a set of functions under NPN equivalence.
///
/// Functions may have mixed arities (different arities are never
/// equivalent). Complexity: one MSV per function plus pairwise matching
/// *inside signature buckets only* — on realistic workloads the buckets
/// are nearly always singletons or genuine classes, so the quadratic term
/// is negligible (cf. the paper's Table II accuracy columns).
///
/// # Examples
///
/// ```
/// use facepoint_exact::exact_classify;
/// use facepoint_truth::TruthTable;
///
/// let fns = vec![
///     TruthTable::majority(3),
///     TruthTable::majority(3).flip_var(1),
///     TruthTable::parity(3),
/// ];
/// let classes = exact_classify(&fns);
/// assert_eq!(classes.num_classes(), 2);
/// assert_eq!(classes.label(0), classes.label(1));
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn exact_classify(fns: &[TruthTable]) -> ClassLabels {
    let buckets = ClassLabels::from_keys(fns.iter().map(|f| msv(f, SignatureSet::all())));
    refine_buckets(fns, buckets.labels())
}

/// Exact classes of `fns` from a bucket label per function, where
/// equivalent functions always share a bucket (any signature
/// partition qualifies): the exact pairwise matcher runs inside each
/// bucket only, comparing each member against one representative per
/// sub-class found so far (not all pairs), and a union–find collects
/// the verdicts. Labels are compact, in first-occurrence order.
///
/// # Panics
///
/// Panics if `buckets` does not hold exactly one label per function.
pub fn refine_buckets(fns: &[TruthTable], buckets: &[usize]) -> ClassLabels {
    assert_eq!(
        fns.len(),
        buckets.len(),
        "one bucket label per function is required"
    );
    let mut uf = UnionFind::new(fns.len());
    let mut reps: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &bucket) in buckets.iter().enumerate() {
        let reps = reps.entry(bucket).or_default();
        match reps.iter().find(|&&r| are_npn_equivalent(&fns[i], &fns[r])) {
            Some(&r) => {
                uf.union(i, r);
            }
            None => reps.push(i),
        }
    }
    ClassLabels {
        num_classes: uf.num_sets(),
        labels: uf.labels(),
    }
}

/// Exact class count via the exhaustive canonical form — usable for
/// `n ≤ 6` only; cross-validates [`exact_classify`] in tests and plays
/// the role of "Kitty" in the paper's Table III.
///
/// # Panics
///
/// Panics if any function has more than 10 variables (see
/// [`crate::exact_npn_canonical`]).
pub fn exact_classify_canonical(fns: &[TruthTable]) -> ClassLabels {
    ClassLabels::from_keys(fns.iter().map(crate::exhaustive::exact_npn_canonical))
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn matcher_and_canonical_classifications_agree() {
        let mut rng = StdRng::seed_from_u64(111);
        for n in 0..=5usize {
            let mut fns = Vec::new();
            // A mix of random functions and planted equivalent copies.
            for _ in 0..30 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                fns.push(t.apply(&f));
                if rng.random::<bool>() {
                    fns.push(f);
                }
            }
            let a = exact_classify(&fns);
            let b = exact_classify_canonical(&fns);
            assert_eq!(a.num_classes(), b.num_classes(), "n = {n}");
            // Same partition, possibly different label order.
            for i in 0..fns.len() {
                for j in (i + 1)..fns.len() {
                    assert_eq!(
                        a.label(i) == a.label(j),
                        b.label(i) == b.label(j),
                        "pair ({i},{j}), n = {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn planted_classes_recovered() {
        let mut rng = StdRng::seed_from_u64(113);
        let seeds = [
            TruthTable::majority(5),
            TruthTable::parity(5),
            TruthTable::from_hex(5, "deadbeef").unwrap(),
        ];
        let mut fns = Vec::new();
        for seed in &seeds {
            for _ in 0..10 {
                fns.push(NpnTransform::random(5, &mut rng).apply(seed));
            }
        }
        let classes = exact_classify(&fns);
        // The three seeds are pairwise non-equivalent (distinct |f| or
        // structure), so exactly 3 classes of 10.
        assert_eq!(classes.num_classes(), 3);
        for s in 0..3 {
            let base = classes.label(s * 10);
            for k in 1..10 {
                assert_eq!(classes.label(s * 10 + k), base);
            }
        }
    }

    #[test]
    fn mixed_arity_never_merges() {
        let fns = vec![
            TruthTable::zero(2).unwrap(),
            TruthTable::zero(3).unwrap(),
            TruthTable::one(2).unwrap(),
        ];
        let classes = exact_classify(&fns);
        assert_eq!(classes.num_classes(), 2);
        assert_eq!(classes.label(0), classes.label(2));
        assert_ne!(classes.label(0), classes.label(1));
    }

    #[test]
    fn empty_input() {
        let classes = exact_classify(&[]);
        assert_eq!(classes.num_classes(), 0);
        assert!(classes.labels().is_empty());
    }

    #[test]
    fn all_three_variable_functions_have_14_classes() {
        let fns: Vec<TruthTable> = (0u64..256)
            .map(|b| TruthTable::from_u64(3, b).unwrap())
            .collect();
        assert_eq!(exact_classify(&fns).num_classes(), 14);
        assert_eq!(exact_classify_canonical(&fns).num_classes(), 14);
    }
}
