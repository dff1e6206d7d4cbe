//! Hierarchical (lazy) classification — the "runtime saving" variant the
//! paper sketches in Section IV-B.
//!
//! The flat classifier computes every selected signature for every
//! function. But signatures differ wildly in cost (OIV is a handful of
//! XOR+popcounts; OSDV counts minterm pairs per sensitivity level, with
//! a Walsh transform for each group above its crossover) and
//! most functions separate early: once a function sits alone in its
//! bucket, no further signature can change anything. The hierarchical
//! driver therefore refines in *stages*, cheapest signature first
//! ([`facepoint_sig::STAGE_ORDER`]), recomputing only inside buckets
//! that still hold more than one function.
//!
//! # Equivalence with the flat classifier
//!
//! The flat MSV serializes its sections in the same stage order, so for
//! unbalanced functions the staged key sequence is literally the flat
//! vector cut into pieces. Balanced functions need care: the flat MSV
//! takes the lexicographic minimum over the two output polarities of the
//! *whole* vector, which is decided at the first section where the
//! polarities differ. The staged driver reproduces exactly that with a
//! small protocol: while a balanced function's polarity is unresolved,
//! each stage uses the pointwise minimum of the two polarity variants,
//! and the first stage where the variants differ *resolves* the polarity
//! to the smaller side for all later stages. The resulting concatenated
//! key equals the flat MSV, so the partitions coincide.

use crate::classifier::{Classification, Classifier};
use facepoint_sig::{SigKernel, STAGE_ORDER};
use facepoint_truth::TruthTable;
use std::collections::HashMap;

/// Output-polarity state of one function during staged refinement.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Polarity {
    /// Use the function as given.
    Keep,
    /// Use the complement.
    Negate,
    /// Balanced and still tied: consider both, take the smaller key.
    Ambiguous,
}

impl Classifier {
    /// Classifies like [`Classifier::classify`] but computes signatures
    /// lazily, stage by stage, skipping buckets that are already
    /// singletons.
    ///
    /// Produces the same partition as the flat classifier for the same
    /// [`SignatureSet`](facepoint_sig::SignatureSet) (see the module
    /// docs for the balanced-function
    /// argument); faster when the workload separates early (random
    /// functions), slower only by bookkeeping when it does not (heavily
    /// duplicated classes).
    ///
    /// # Examples
    ///
    /// ```
    /// use facepoint_core::Classifier;
    /// use facepoint_sig::SignatureSet;
    /// use facepoint_truth::TruthTable;
    ///
    /// let fns: Vec<TruthTable> = (0u64..256)
    ///     .map(|b| TruthTable::from_u64(3, b).unwrap())
    ///     .collect();
    /// let flat = Classifier::new(SignatureSet::all()).classify(fns.clone());
    /// let lazy = Classifier::new(SignatureSet::all()).classify_hierarchical(fns);
    /// assert_eq!(flat.num_classes(), lazy.num_classes());
    /// ```
    pub fn classify_hierarchical(
        &self,
        fns: impl IntoIterator<Item = TruthTable>,
    ) -> Classification {
        let fns: Vec<TruthTable> = fns.into_iter().collect();
        // Initial polarity per function (the flat msv() rule).
        let mut polarity: Vec<Polarity> = fns
            .iter()
            .map(|f| {
                let ones = f.count_ones();
                let zeros = f.num_bits() - ones;
                if ones < zeros {
                    Polarity::Keep
                } else if ones > zeros {
                    Polarity::Negate
                } else {
                    Polarity::Ambiguous
                }
            })
            .collect();
        // Initial groups: one per arity (the MSV's implicit prefix).
        let mut group_of: Vec<usize> = vec![0; fns.len()];
        let mut num_groups = {
            let mut map: HashMap<usize, usize> = HashMap::new();
            for (i, f) in fns.iter().enumerate() {
                let next = map.len();
                group_of[i] = *map.entry(f.num_vars()).or_insert(next);
            }
            map.len()
        };

        // One kernel for the whole refinement, its scratch reused across
        // every call: sections of `¬f` are derived from `f`'s
        // ingredients (never materialized).
        let mut kernel = SigKernel::new();
        let mut key_buf: Vec<u64> = Vec::new();
        for stage in STAGE_ORDER {
            if !self.signature_set().contains(stage) {
                continue;
            }
            let mut pop = vec![0usize; num_groups];
            for &g in &group_of {
                pop[g] += 1;
            }
            let mut map: HashMap<(usize, Vec<u64>), usize> = HashMap::with_capacity(fns.len());
            let mut singleton_renumber: HashMap<usize, usize> = HashMap::new();
            let mut next_groups = 0usize;
            let mut new_group_of = vec![usize::MAX; fns.len()];
            for (i, f) in fns.iter().enumerate() {
                let g = group_of[i];
                if pop[g] == 1 {
                    // Alone already: no signature (or polarity work)
                    // needed, the partition cannot change.
                    let id = *singleton_renumber.entry(g).or_insert_with(|| {
                        let id = next_groups;
                        next_groups += 1;
                        id
                    });
                    new_group_of[i] = id;
                    continue;
                }
                let key = match polarity[i] {
                    Polarity::Keep => {
                        kernel.stage_sections_into(f, stage, false, &mut key_buf);
                        key_buf.clone()
                    }
                    Polarity::Negate => {
                        kernel.stage_sections_into(f, stage, true, &mut key_buf);
                        key_buf.clone()
                    }
                    Polarity::Ambiguous => {
                        let (a, b) = kernel.stage_sections_dual(f, stage);
                        // The first differing stage fixes the polarity —
                        // exactly the flat MSV's lexicographic choice.
                        match a.cmp(b) {
                            std::cmp::Ordering::Less => {
                                polarity[i] = Polarity::Keep;
                                a.to_vec()
                            }
                            std::cmp::Ordering::Greater => {
                                polarity[i] = Polarity::Negate;
                                b.to_vec()
                            }
                            std::cmp::Ordering::Equal => a.to_vec(),
                        }
                    }
                };
                let id = *map.entry((g, key)).or_insert_with(|| {
                    let id = next_groups;
                    next_groups += 1;
                    id
                });
                new_group_of[i] = id;
            }
            group_of = new_group_of;
            num_groups = next_groups;
        }

        Classification::group(fns, group_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_sig::SignatureSet;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(n: usize, groups: usize, copies: usize, seed: u64) -> Vec<TruthTable> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fns = Vec::new();
        for _ in 0..groups {
            let f = TruthTable::random(n, &mut rng).unwrap();
            for _ in 0..copies {
                fns.push(NpnTransform::random(n, &mut rng).apply(&f));
            }
        }
        fns
    }

    fn same_partition(a: &Classification, b: &Classification) -> bool {
        if a.num_classes() != b.num_classes() || a.num_functions() != b.num_functions() {
            return false;
        }
        for i in 0..a.num_functions() {
            for j in (i + 1)..a.num_functions() {
                if (a.label(i) == a.label(j)) != (b.label(i) == b.label(j)) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn hierarchical_matches_flat_all_sets() {
        let fns = workload(5, 12, 4, 191);
        for (_, set) in SignatureSet::table2_columns() {
            let flat = Classifier::new(set).classify(fns.clone());
            let lazy = Classifier::new(set).classify_hierarchical(fns.clone());
            assert!(same_partition(&flat, &lazy), "set = {set}");
        }
    }

    #[test]
    fn hierarchical_covers_extension_families() {
        let fns = workload(4, 10, 3, 197);
        let set = SignatureSet::all_extended();
        let flat = Classifier::new(set).classify(fns.clone());
        let lazy = Classifier::new(set).classify_hierarchical(fns);
        assert!(same_partition(&flat, &lazy));
    }

    #[test]
    fn hierarchical_handles_balanced_functions() {
        // Balanced functions exercise the polarity-resolution protocol.
        let mut rng = StdRng::seed_from_u64(199);
        let mut fns = Vec::new();
        while fns.len() < 60 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            if f.is_balanced() {
                fns.push(NpnTransform::random(4, &mut rng).apply(&f));
                fns.push(f);
            }
        }
        let flat = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let lazy = Classifier::new(SignatureSet::all()).classify_hierarchical(fns);
        assert!(same_partition(&flat, &lazy));
    }

    #[test]
    fn hierarchical_on_mixed_arity() {
        let mut fns = workload(3, 4, 3, 7);
        fns.extend(workload(5, 4, 3, 8));
        let flat = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let lazy = Classifier::new(SignatureSet::all()).classify_hierarchical(fns);
        assert!(same_partition(&flat, &lazy));
    }

    #[test]
    fn hierarchical_empty_and_singleton() {
        let c = Classifier::new(SignatureSet::all());
        assert_eq!(c.classify_hierarchical(Vec::new()).num_classes(), 0);
        let one = c.classify_hierarchical(vec![TruthTable::majority(3)]);
        assert_eq!(one.num_classes(), 1);
    }

    #[test]
    fn hierarchical_with_empty_set_groups_by_arity() {
        let fns = vec![
            TruthTable::zero(3).unwrap(),
            TruthTable::one(3).unwrap(),
            TruthTable::zero(4).unwrap(),
        ];
        let c = Classifier::new(SignatureSet::EMPTY).classify_hierarchical(fns);
        assert_eq!(c.num_classes(), 2, "arity is always part of the key");
    }
}
