//! Counting-allocator proof that the canonical walk evaluates its
//! candidates in place: the allocations of one call do not depend on
//! how many candidates it walks.

use facepoint_exact::certified_canonical_with_witness;
use facepoint_testsupport::{allocations, CountingAllocator};
use facepoint_truth::TruthTable;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocation events of one call, as the minimum over a few calls:
/// the counter is process-global, and foreign allocations by the test
/// harness can only add to a window.
fn allocations_per_call(f: &TruthTable) -> u64 {
    (0..5)
        .map(|_| {
            let before = allocations();
            black_box(certified_canonical_with_witness(black_box(f)));
            allocations() - before
        })
        .min()
        .expect("five windows")
}

#[test]
fn allocations_do_not_grow_with_the_candidate_count() {
    // Parity ties every profile: 2 polarities × 2^8 free phases of one
    // symmetry block, 512 candidates.
    let parity = TruthTable::parity(8);
    // Weights 1..=8: every variable has its own profile, so the walk
    // has a single candidate.
    let distinct = TruthTable::from_fn(8, |m| {
        (0..8u64)
            .filter(|&i| (m >> i) & 1 == 1)
            .map(|i| i + 1)
            .sum::<u64>()
            >= 18
    })
    .unwrap();
    let profile = |v: usize| {
        let (c0, c1) = (
            distinct.cofactor_count(v, false),
            distinct.cofactor_count(v, true),
        );
        (
            c0.min(c1),
            c0.max(c1),
            facepoint_sig::influence(&distinct, v),
        )
    };
    let mut profiles: Vec<_> = (0..8).map(profile).collect();
    profiles.sort_unstable();
    profiles.dedup();
    assert_eq!(profiles.len(), 8, "the comparison function must not tie");
    assert!(certified_canonical_with_witness(&parity).invariant);
    assert_eq!(
        allocations_per_call(&parity),
        allocations_per_call(&distinct),
        "allocations per call grew with the candidate count"
    );
}
