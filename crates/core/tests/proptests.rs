//! Property-based tests of the classifier layer: partition soundness
//! against ground truth, digest-versus-full-key and threading
//! equivalence, and metric coherence.

use facepoint_core::{refine_to_exact, Classifier, PartitionComparison};
use facepoint_exact::{exact_classify, ClassLabels};
use facepoint_sig::{msv_reference, SignatureSet};
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use proptest::prelude::*;

/// Strategy: a workload of random tables with planted equivalent copies.
fn arb_workload() -> impl Strategy<Value = Vec<TruthTable>> {
    (2usize..=5, 1usize..=12, any::<u64>()).prop_map(|(n, groups, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fns = Vec::new();
        for _ in 0..groups {
            let f = TruthTable::random(n, &mut rng).unwrap();
            let copies = 1 + (seed as usize % 3);
            for _ in 0..copies {
                fns.push(NpnTransform::random(n, &mut rng).apply(&f));
            }
        }
        fns
    })
}

fn arb_set() -> impl Strategy<Value = SignatureSet> {
    prop_oneof![
        Just(SignatureSet::OIV),
        Just(SignatureSet::OCV1),
        Just(SignatureSet::OSV),
        Just(SignatureSet::OIV | SignatureSet::OSV),
        Just(SignatureSet::OCV1 | SignatureSet::OCV2 | SignatureSet::OSV),
        Just(SignatureSet::all()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn classifier_never_splits(fns in arb_workload(), set in arb_set()) {
        let ours = Classifier::new(set).classify(fns.clone());
        let exact = exact_classify(&fns);
        let cmp = PartitionComparison::compare(ours.labels(), exact.labels());
        prop_assert_eq!(cmp.split_classes, 0, "{:?}", cmp);
        prop_assert!(ours.num_classes() <= exact.num_classes());
    }

    // The digest partition is the partition of the full reference MSVs.
    #[test]
    fn key_modes_agree(fns in arb_workload()) {
        let set = SignatureSet::all();
        let digest = Classifier::new(set).classify(fns.clone());
        let full = ClassLabels::from_keys(fns.iter().map(|f| msv_reference(f, set)));
        prop_assert_eq!(digest.labels(), full.labels());
    }

    #[test]
    fn threading_is_transparent(fns in arb_workload()) {
        let seq = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let par = Classifier::new(SignatureSet::all())
            .with_threads(3)
            .classify(fns);
        prop_assert_eq!(seq.labels(), par.labels());
    }

    #[test]
    fn equivalent_copies_always_collide(
        n in 1usize..=6,
        seed in any::<u64>(),
        set in arb_set(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = TruthTable::random(n, &mut rng).unwrap();
        let g = NpnTransform::random(n, &mut rng).apply(&f);
        let c = Classifier::new(set).classify(vec![f, g]);
        prop_assert_eq!(c.num_classes(), 1);
    }

    #[test]
    fn refinement_is_exact(fns in arb_workload(), set in arb_set()) {
        let rough = Classifier::new(set).classify(fns.clone());
        let refined = refine_to_exact(&fns, &rough);
        let exact = exact_classify(&fns);
        let cmp = PartitionComparison::compare(refined.labels(), exact.labels());
        prop_assert!(cmp.is_exact(), "{:?}", cmp);
    }

    #[test]
    fn hierarchical_equals_flat(fns in arb_workload(), set in arb_set()) {
        let flat = Classifier::new(set).classify(fns.clone());
        let lazy = Classifier::new(set).classify_hierarchical(fns);
        prop_assert_eq!(flat.num_classes(), lazy.num_classes());
        for i in 0..flat.num_functions() {
            for j in (i + 1)..flat.num_functions() {
                prop_assert_eq!(
                    flat.label(i) == flat.label(j),
                    lazy.label(i) == lazy.label(j)
                );
            }
        }
    }

    #[test]
    fn class_sizes_partition_input(fns in arb_workload()) {
        let c = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let total: usize = c.classes().iter().map(|k| k.size()).sum();
        prop_assert_eq!(total, fns.len());
        // Representative of each class belongs to the class.
        for class in c.classes() {
            let rep_label = c.labels()[fns
                .iter()
                .position(|f| f == class.representative())
                .expect("representative is an input")];
            prop_assert_eq!(rep_label, class.id());
        }
    }

    #[test]
    fn label_permutation_invariance(fns in arb_workload(), seed in any::<u64>()) {
        // Shuffling the input order renames labels but preserves the
        // partition.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let perm = Permutation::random(fns.len(), &mut rng);
        let shuffled: Vec<TruthTable> =
            (0..fns.len()).map(|i| fns[perm.map(i)].clone()).collect();
        let a = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let b = Classifier::new(SignatureSet::all()).classify(shuffled);
        prop_assert_eq!(a.num_classes(), b.num_classes());
        for i in 0..fns.len() {
            for j in 0..fns.len() {
                prop_assert_eq!(
                    a.label(perm.map(i)) == a.label(perm.map(j)),
                    b.label(i) == b.label(j)
                );
            }
        }
    }
}
