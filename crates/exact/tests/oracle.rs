//! The class-count oracle: the number of NPN classes of n-variable
//! Boolean functions is known exactly (2, 4, 14, 222, 616126 for
//! n = 1..5 — the paper's Table I), and this file pins the repo's
//! canonicalizers to it two independent ways:
//!
//! 1. **Burnside's lemma** — counts the classes group-theoretically
//!    (average number of functions fixed by each of the 2^n · n! · 2
//!    input/output transforms), touching none of the repo's walk or
//!    matcher code. If a canonicalizer ever over-merges or over-splits,
//!    it disagrees with this count.
//! 2. **Exhaustive canonicalization** — every function of up to four
//!    variables through both `exact_npn_canonical` (the orbit minimum)
//!    and `certified_canonical` (the minimum over the profile-normalized
//!    orbit — a different table, the same partition); both
//!    distinct-label counts must be the Burnside count, the two labelings
//!    must induce the same partition, every certified label must be its
//!    own label, and every witness must map its function onto its label.
//!
//! n = 5 can't be enumerated directly (2^32 functions), but every
//! 5-variable class contains a member whose x4 = 0 cofactor is one of
//! the 222 canonical 4-variable forms (canonicalize the cofactor and
//! extend that transform with x4 fixed), so sweeping the
//! 222 · 65536 composed tables hits every class at least once — through
//! both canonicalizers. That sweep is minutes of exhaustive walking, so
//! it is gated behind `ORACLE_FULL=1` (CI's oracle job sets it; plain
//! `cargo test` skips).

use facepoint_exact::{certified_canonical, certified_canonical_with_witness, exact_npn_canonical};
use facepoint_truth::TruthTable;
use std::collections::{HashMap, HashSet};

/// Classes of n-variable functions under NPN equivalence, for
/// n = 1..=5: the ground truth the rest of the file compares against.
const CLASS_COUNTS: [(usize, u64); 5] = [(1, 2), (2, 4), (3, 14), (4, 222), (5, 616126)];

/// All permutations of `0..n` (plain recursion; n ≤ 5 here).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for smaller in permutations(n - 1) {
        for slot in 0..n {
            let mut p = smaller.clone();
            p.insert(slot, n - 1);
            out.push(p);
        }
    }
    out
}

/// The input bijection of one group element on minterms: negate by
/// `mask`, then route bit `i` to position `perm[i]`.
fn input_map(x: usize, perm: &[usize], mask: usize) -> usize {
    let x = x ^ mask;
    let mut y = 0;
    for (i, &to) in perm.iter().enumerate() {
        y |= ((x >> i) & 1) << to;
    }
    y
}

/// NPN class count by Burnside's lemma: for each group element, count
/// the functions it fixes — 2^(cycles of the input map) without output
/// negation; with it, the same unless any cycle has odd length (an
/// alternating labeling needs even cycles), which fixes nothing.
fn burnside_npn_classes(n: usize) -> u64 {
    let points = 1usize << n;
    let mut fixed_total: u128 = 0;
    let perms = permutations(n);
    for perm in &perms {
        for mask in 0..points {
            let mut seen = vec![false; points];
            let mut cycles = 0u32;
            let mut all_even = true;
            for start in 0..points {
                if seen[start] {
                    continue;
                }
                cycles += 1;
                let mut len = 0usize;
                let mut x = start;
                while !seen[x] {
                    seen[x] = true;
                    len += 1;
                    x = input_map(x, perm, mask);
                }
                all_even &= len.is_multiple_of(2);
            }
            fixed_total += 1u128 << cycles; // identity output
            if all_even {
                fixed_total += 1u128 << cycles; // negated output
            }
        }
    }
    let group_order = (perms.len() * points * 2) as u128;
    assert_eq!(
        fixed_total % group_order,
        0,
        "Burnside sum must divide evenly"
    );
    (fixed_total / group_order) as u64
}

/// The group-theoretic count reproduces the paper's ladder outright —
/// including n = 5's 616126, with no enumeration involved.
#[test]
fn burnside_matches_the_published_class_counts() {
    for (n, expected) in CLASS_COUNTS {
        assert_eq!(burnside_npn_classes(n), expected, "n={n}");
    }
}

/// Exhaustive canonicalization at n ≤ 4: the certified labels induce
/// the exhaustive walk's partition, labels and exhaustive
/// representatives are fixed points, every witness maps its function
/// onto its label, and the distinct count equals the Burnside count.
#[test]
fn exhaustive_canonicalization_agrees_with_burnside() {
    for (n, expected) in &CLASS_COUNTS[..4] {
        // Exhaustive representative → certified label, and back.
        let mut label_of: HashMap<u64, u64> = HashMap::new();
        let mut class_of: HashMap<u64, u64> = HashMap::new();
        for bits in 0..1u64 << (1usize << n) {
            let f = TruthTable::from_u64(*n, bits).unwrap();
            let exact = exact_npn_canonical(&f);
            let certified = certified_canonical_with_witness(&f);
            assert!(certified.invariant, "no fallback at n <= 4");
            assert_eq!(
                certified.witness.apply(&f),
                certified.label,
                "witness misses the label of {bits:#x} at n={n}"
            );
            let label = certified.label.as_u64();
            assert_eq!(
                *label_of.entry(exact.as_u64()).or_insert(label),
                label,
                "one class, two certified labels: {bits:#x} at n={n}"
            );
            assert_eq!(
                *class_of.entry(label).or_insert(exact.as_u64()),
                exact.as_u64(),
                "one certified label, two classes: {bits:#x} at n={n}"
            );
        }
        for (&rep, &label) in &label_of {
            // A representative canonicalizes to itself.
            let rep = TruthTable::from_u64(*n, rep).unwrap();
            assert_eq!(exact_npn_canonical(&rep), rep);
            let label = TruthTable::from_u64(*n, label).unwrap();
            assert_eq!(certified_canonical(&label), (label.clone(), true));
        }
        assert_eq!(label_of.len() as u64, *expected, "n={n}");
        assert_eq!(class_of.len() as u64, *expected, "n={n}");
    }
}

/// The gated n = 5 census: canonicalize every `(g << 16) | r` table
/// (r over the 222 canonical 4-variable forms, g over all 16-bit
/// cofactors — a set that meets every 5-variable class) with both
/// canonicalizers and count distinct labels of each. Minutes of
/// exhaustive Gray-code walking, so CI's oracle job opts in with
/// `ORACLE_FULL=1`.
#[test]
fn full_n5_canonical_census_matches_burnside() {
    if std::env::var("ORACLE_FULL").is_err() {
        eprintln!("skipping the n=5 canonical census: set ORACLE_FULL=1 to run");
        return;
    }
    let mut reps4: Vec<u64> = Vec::new();
    let mut seen4: HashSet<u64> = HashSet::new();
    for bits in 0..1u64 << 16 {
        let rep = exact_npn_canonical(&TruthTable::from_u64(4, bits).unwrap()).as_u64();
        if seen4.insert(rep) {
            reps4.push(rep);
        }
    }
    assert_eq!(reps4.len(), 222);

    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let chunk = reps4.len().div_ceil(threads);
    let (exact, certified) = std::thread::scope(|scope| {
        let handles: Vec<_> = reps4
            .chunks(chunk)
            .map(|mine| {
                scope.spawn(move || {
                    let mut exact: HashSet<u64> = HashSet::new();
                    let mut certified: HashSet<u64> = HashSet::new();
                    for &r in mine {
                        for g in 0..1u64 << 16 {
                            let f = TruthTable::from_u64(5, (g << 16) | r).unwrap();
                            exact.insert(exact_npn_canonical(&f).as_u64());
                            let (label, invariant) = certified_canonical(&f);
                            assert!(invariant, "no fallback at n = 5: {f}");
                            certified.insert(label.as_u64());
                        }
                    }
                    (exact, certified)
                })
            })
            .collect();
        let mut census = (HashSet::new(), HashSet::new());
        for h in handles {
            let (exact, certified) = h.join().expect("census worker panicked");
            census.0.extend(exact);
            census.1.extend(certified);
        }
        census
    });
    assert_eq!(exact.len() as u64, CLASS_COUNTS[4].1);
    assert_eq!(certified.len() as u64, CLASS_COUNTS[4].1);
}
