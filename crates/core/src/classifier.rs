//! The signature-hash NPN classifier — Algorithm 1 of the paper.
//!
//! Per function: compute the selected signature vectors, assemble the
//! canonical Mixed Signature Vector, hash it, and group equal hashes.
//! There is no transformation enumeration anywhere, so the runtime is a
//! function of *bit-width and function count only* — the stability
//! property the paper demonstrates in its Fig. 5.

use crate::kernel::SignatureKernel;
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use std::collections::HashMap;

/// The NPN classifier of the paper (Algorithm 1).
///
/// Configure the signature families ([`SignatureSet`]) — the eight
/// Table II columns are preset in
/// [`SignatureSet::table2_columns`] — then feed truth tables to
/// [`Classifier::classify`].
///
/// # Examples
///
/// ```
/// use facepoint_core::Classifier;
/// use facepoint_sig::SignatureSet;
/// use facepoint_truth::TruthTable;
///
/// let classifier = Classifier::new(SignatureSet::all());
/// let result = classifier.classify(vec![
///     TruthTable::majority(3),
///     TruthTable::majority(3).flip_var(0), // same class
///     TruthTable::parity(3),               // different class
/// ]);
/// assert_eq!(result.num_classes(), 2);
/// assert_eq!(result.label(0), result.label(1));
/// ```
#[derive(Debug, Clone)]
pub struct Classifier {
    set: SignatureSet,
    threads: usize,
}

/// The 128-bit signature key of one function — the per-function work of
/// Algorithm 1 in digest form: `fnv128(msv(f, set))`.
///
/// This is exactly the key [`Classifier::classify`] buckets on, exposed
/// so external drivers (the streaming engine, caches, persistent
/// stores) can compute keys without going through a `Classifier`.
/// Equal keys of same-`set` calls are necessary for NPN equivalence (up
/// to the ≈ 10⁻²⁰ digest-collision odds at 10⁶ functions).
///
/// # Examples
///
/// ```
/// use facepoint_core::signature_key;
/// use facepoint_sig::SignatureSet;
/// use facepoint_truth::TruthTable;
///
/// let maj = TruthTable::majority(3);
/// let equiv = maj.flip_var(0);
/// let set = SignatureSet::all();
/// assert_eq!(signature_key(&maj, set), signature_key(&equiv, set));
/// ```
pub fn signature_key(f: &TruthTable, set: SignatureSet) -> u128 {
    SignatureKernel::new(set).key(f)
}

impl Classifier {
    /// Creates a single-threaded classifier over the given signature
    /// families.
    pub fn new(set: SignatureSet) -> Self {
        Classifier { set, threads: 1 }
    }

    /// Computes signatures on `threads` worker threads (the hash join
    /// stays single-threaded). `0` selects the available parallelism.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// The configured signature families.
    pub fn signature_set(&self) -> SignatureSet {
        self.set
    }

    /// Classifies a collection of truth tables into candidate NPN
    /// classes.
    ///
    /// Equal signatures are *necessary* for NPN equivalence, so the
    /// partition can only merge true classes, never split one: the class
    /// count is a lower bound of the exact count, reaching it when the
    /// signature set is discriminating enough (paper Table II: exact for
    /// `n ≤ 7` with `OIV+OSV+OSDV`).
    pub fn classify(&self, fns: impl IntoIterator<Item = TruthTable>) -> Classification {
        let fns: Vec<TruthTable> = fns.into_iter().collect();
        // Buckets on exactly `signature_key`, streamed off the kernel —
        // the MSV is never materialized.
        let keys = self.keys(&fns);
        Classification::group(fns, keys)
    }

    /// The signature key of every table, each worker thread reusing one
    /// [`SignatureKernel`] for its whole chunk (scratch buffers warm up
    /// once per thread, not once per function).
    fn keys(&self, fns: &[TruthTable]) -> Vec<u128> {
        if self.threads <= 1 || fns.len() < 2 * self.threads {
            let mut kernel = SignatureKernel::new(self.set);
            return fns.iter().map(|f| kernel.key(f)).collect();
        }
        let chunk = fns.len().div_ceil(self.threads);
        let mut keys = vec![0; fns.len()];
        std::thread::scope(|scope| {
            for (fns_chunk, keys_chunk) in fns.chunks(chunk).zip(keys.chunks_mut(chunk)) {
                scope.spawn(move || {
                    let mut kernel = SignatureKernel::new(self.set);
                    for (f, slot) in fns_chunk.iter().zip(keys_chunk) {
                        *slot = kernel.key(f);
                    }
                });
            }
        });
        keys
    }
}

/// One candidate NPN class produced by the classifier.
#[derive(Debug, Clone)]
pub struct NpnClass {
    id: usize,
    representative: TruthTable,
    size: usize,
}

impl NpnClass {
    /// Assembles a class record directly — for external classification
    /// drivers (such as the streaming engine) that group functions
    /// themselves and then package the result as a [`Classification`]
    /// via [`Classification::from_parts`].
    pub fn new(id: usize, representative: TruthTable, size: usize) -> Self {
        NpnClass {
            id,
            representative,
            size,
        }
    }

    /// Compact class id (`0..num_classes`, first-occurrence order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The first function assigned to this class.
    ///
    /// Note this is a *member*, not a canonical form: the signature
    /// classifier never computes canonical representatives (that is the
    /// point of the paper).
    pub fn representative(&self) -> &TruthTable {
        &self.representative
    }

    /// Number of input functions assigned to this class.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// The output of [`Classifier::classify`]: a label per input and a
/// class table.
#[derive(Debug, Clone)]
pub struct Classification {
    labels: Vec<usize>,
    classes: Vec<NpnClass>,
}

impl Classification {
    /// Assembles a classification from a label vector and a class table
    /// — for external drivers (such as the streaming engine) that build
    /// the partition themselves but want the standard result type, so
    /// downstream consumers ([`refine_to_exact`](crate::refine_to_exact),
    /// [`PartitionComparison`](crate::PartitionComparison)) keep working.
    ///
    /// # Panics
    ///
    /// Panics unless `classes[i].id() == i` for all `i`, every label
    /// indexes into `classes`, and each class's `size` equals the number
    /// of labels referring to it — the invariants `classify` guarantees.
    pub fn from_parts(labels: Vec<usize>, classes: Vec<NpnClass>) -> Self {
        let mut counts = vec![0usize; classes.len()];
        for &l in &labels {
            assert!(l < classes.len(), "label {l} out of range");
            counts[l] += 1;
        }
        for (i, class) in classes.iter().enumerate() {
            assert_eq!(class.id, i, "class ids must be dense and in order");
            assert_eq!(
                class.size, counts[i],
                "class {i} size disagrees with its label count"
            );
        }
        Classification { labels, classes }
    }

    /// Groups `fns` by equal keys (one per function): compact class ids
    /// in first-occurrence order, each class represented by its first
    /// member.
    pub(crate) fn group<K: std::hash::Hash + Eq>(
        fns: Vec<TruthTable>,
        keys: impl IntoIterator<Item = K>,
    ) -> Self {
        let mut map: HashMap<K, usize> = HashMap::with_capacity(fns.len());
        let mut classes: Vec<NpnClass> = Vec::new();
        let mut labels = Vec::with_capacity(fns.len());
        for (f, key) in fns.into_iter().zip(keys) {
            let next = classes.len();
            let id = *map.entry(key).or_insert(next);
            if id == next {
                classes.push(NpnClass {
                    id,
                    representative: f,
                    size: 1,
                });
            } else {
                classes[id].size += 1;
            }
            labels.push(id);
        }
        Classification { labels, classes }
    }

    /// Number of candidate NPN classes found.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of classified functions.
    pub fn num_functions(&self) -> usize {
        self.labels.len()
    }

    /// The class label of input `i` (input order is preserved).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels, parallel to the classified inputs.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The classes, indexed by label.
    pub fn classes(&self) -> &[NpnClass] {
        &self.classes
    }

    /// Iterates over classes largest-first (useful for reporting).
    pub fn classes_by_size(&self) -> Vec<&NpnClass> {
        let mut v: Vec<&NpnClass> = self.classes.iter().collect();
        v.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_sig::msv_reference;
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

    #[test]
    fn equivalent_functions_collide() {
        let fns = workload(5, 8, 6, 1);
        let c = Classifier::new(SignatureSet::all()).classify(fns);
        assert!(c.num_classes() <= 8);
        assert_eq!(c.num_functions(), 48);
        let total: usize = c.classes().iter().map(NpnClass::size).sum();
        assert_eq!(total, 48);
    }

    /// Bucketing on the 128-bit digest gives the partition that
    /// bucketing on the full reference MSV gives.
    #[test]
    fn digest_and_full_keys_agree() {
        let fns = workload(5, 10, 4, 2);
        let set = SignatureSet::all();
        let full: Vec<_> = fns.iter().map(|f| msv_reference(f, set)).collect();
        let by_digest = Classifier::new(set).classify(fns.clone());
        let by_msv = Classification::group(fns, full);
        assert_eq!(by_digest.num_classes(), by_msv.num_classes());
        assert_eq!(by_digest.labels(), by_msv.labels());
    }

    #[test]
    fn parallel_matches_sequential() {
        let fns = workload(6, 12, 4, 3);
        let seq = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let par = Classifier::new(SignatureSet::all())
            .with_threads(4)
            .classify(fns);
        assert_eq!(seq.labels(), par.labels());
        assert_eq!(seq.num_classes(), par.num_classes());
    }

    #[test]
    fn weaker_sets_merge_more() {
        let fns = workload(5, 25, 2, 4);
        let weak = Classifier::new(SignatureSet::OIV).classify(fns.clone());
        let strong = Classifier::new(SignatureSet::all()).classify(fns);
        assert!(weak.num_classes() <= strong.num_classes());
    }

    #[test]
    fn labels_match_class_sizes() {
        let fns = workload(4, 6, 5, 5);
        let c = Classifier::new(SignatureSet::all()).classify(fns);
        for class in c.classes() {
            let count = c.labels().iter().filter(|&&l| l == class.id()).count();
            assert_eq!(count, class.size());
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let c = Classifier::new(SignatureSet::all()).classify(Vec::new());
        assert_eq!(c.num_classes(), 0);
        let c = Classifier::new(SignatureSet::all()).classify(vec![TruthTable::majority(3)]);
        assert_eq!(c.num_classes(), 1);
        assert_eq!(c.classes()[0].representative(), &TruthTable::majority(3));
    }

    #[test]
    fn classes_by_size_ordering() {
        let mut fns = workload(4, 1, 7, 6); // 7 copies of one class
        fns.extend(workload(4, 1, 2, 7)); // 2 of another
        let c = Classifier::new(SignatureSet::all()).classify(fns);
        let sizes: Vec<usize> = c.classes_by_size().iter().map(|k| k.size()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
    }
}
