//! One canonical walk at every arity, and the exact resolution tier
//! built on it: digest buckets resolved into proved NPN classes.
//!
//! [`certified_canonical`] labels `f` with the minimum over its
//! *profile-normalized orbit*: the orbit members whose output has the
//! smaller ones-count, whose every input has its smaller cofactor count
//! on the `x = 0` face, and whose variables appear in non-decreasing
//! (cofactor pair, influence) profile order. Those conditions are read
//! off a table alone, so all members of a class share one normalized
//! orbit and one minimum — the face/point characteristics of the paper,
//! applied to the canonical form itself as in *Fast Exact NPN
//! Classification with Influence-aided Canonical Form*. The walk pins
//! what the profiles pin (polarity, phases, order), collapses
//! swap-symmetric variables of a profile tie group into one block, and
//! evaluates only the remaining block arrangements × free phases, in
//! place on one working table, keeping the transform that reached the
//! minimum as the witness. The exhaustive walk
//! ([`exact_npn_canonical`](crate::exact_npn_canonical)) is the oracle
//! it is tested against.
//!
//! Within the walk's work budget the label is class-invariant, so it
//! names the class on its own: a certified engine keys such a function
//! by its label after one walk, with no signature digest and no
//! matcher. Past the budget the walk evaluates only its first candidate
//! and the label is not invariant; those functions need
//! [`BucketResolver`]. Signature digests are *necessary* conditions for
//! NPN equivalence, so a digest bucket can merge — never split — true
//! classes. The resolver promotes a bucket to certainty: it keeps, per
//! digest key, the certified representatives discovered so far; a
//! bucket's first member of a class is labelled by the walk, and later
//! members take the exact [`npn_match`](crate::npn_match) witness path
//! against the cached representatives. The matcher is exact in both
//! directions, so the resulting partition is the true NPN partition
//! whatever the canonical labels look like.

use crate::matcher::npn_match;
use facepoint_sig::influence;
use facepoint_sig::symmetry::{e_symmetric, ne_symmetric};
use facepoint_truth::words::MAX_VARS;
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Work budget of the canonical walk, in candidate evaluations at
/// n = 8: a guard against adversarial inputs, past which only the
/// first candidate is evaluated and the label is reported
/// non-invariant. Every post-collapse candidate counts one unit, and
/// every step to the next block arrangement [`ARRANGEMENT_STEP`] more;
/// at other arities a unit weighs what its table width makes it cost
/// (see [`UNIT_OVERHEAD_WORDS`]).
///
/// Sized so that a walk at the budget costs no more at n = 8 than the
/// allocating 4,096-candidate enumeration it replaced. Three
/// interleaved runs on a 2-thread Xeon VM (release build): that
/// enumeration took 10.2, 10.4 and 12.5 ms (medians over 2.2–3.5 µs
/// per candidate), and the walk spent at most 12.0, 10.0 and 12.9 ns
/// per unit on functions of 10^4–10^7 units, so the budget costs
/// 9.4, 7.9 and 10.1 ms. It covers the costliest of the synthetic
/// suite's 22,406 support-8 cut functions,
/// `(x0⊕x4)(x1⊕x5)(x2⊕x6)(x3⊕x7)` (2,520 arrangements × 2^8 phases,
/// 652,680 units).
const WALK_BUDGET: u64 = 3 << 18;

/// The fixed part of a unit's cost, in table words: a walk of `u`
/// units over tables of `w` words is charged
/// `u · (UNIT_OVERHEAD_WORDS + w) / (UNIT_OVERHEAD_WORDS + 4)` against
/// [`WALK_BUDGET`] — its n = 8 units, 4 words each — so the budget
/// bounds wall time at every arity.
///
/// Measured on the same VM (release build, medians), per unit of
/// `(x0⊕x4)(x1⊕x5)(x2⊕x6)(x3⊕x7)·x8·x9⋯`, the costliest family probed
/// (652,680 units at every n): 12 ns at n = 8, 22 ns at n = 10,
/// 78 ns at n = 12, 0.41 µs at n = 14 and 1.1 µs at n = 16; the
/// 4,096-candidate enumeration cost 4.9 ms at n = 7, 39 ms at n = 10,
/// 0.19 s at n = 12, 0.55 s at n = 14 and 3.6 s at n = 16. Unweighted,
/// the budget would cost 0.9 s at n = 16, and parity(16), which that
/// enumeration sent to its fallback in 1.2–1.7 ms, walked 131,078
/// units in 115 ms. Weighted, a walk at the budget costs 9–24 ms from
/// n = 8 to n = 16 (15,123 units at n = 16), parity(16) falls back in
/// 0.2 ms, and bent(10) (453,600 units, weight 1.6) still walks, in
/// 3.9–6.3 ms.
const UNIT_OVERHEAD_WORDS: u64 = 16;

/// Budget units of one arrangement step (usually one or two variable
/// swaps): at n = 8 a step took 20–30 ns, a phase flip with its
/// comparison 6–13 ns.
const ARRANGEMENT_STEP: u64 = 3;

/// Number of resolver shards (the bucket maps are sharded by the
/// digest's high bits, like the partition store, so workers resolving
/// different buckets rarely contend).
const RESOLVER_SHARDS: usize = 16;

/// What the canonical walk returns: the label, the transform reaching
/// it, and whether the label is class-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedCanonical {
    /// The minimum over the profile-normalized orbit (the first
    /// normalized candidate when [`invariant`](Self::invariant) is
    /// `false`).
    pub label: TruthTable,
    /// A transform `t` with `t.apply(f) == label`.
    pub witness: NpnTransform,
    /// `false` only when the walk's post-collapse work exceeds its
    /// budget. The work is an orbit invariant, so every member of a
    /// class gets the same verdict.
    pub invariant: bool,
}

/// The certified canonical representative of `f`, plus whether the
/// label is class-invariant — [`certified_canonical_with_witness`]
/// without the witness.
///
/// Two NPN-equivalent functions receive equal labels whenever the flag
/// is `true` for their class (the flag itself is orbit-invariant).
///
/// # Examples
///
/// ```
/// use facepoint_exact::certified_canonical;
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let f = TruthTable::random(7, &mut rng)?;
/// let g = NpnTransform::random(7, &mut rng).apply(&f);
/// let (cf, exact_f) = certified_canonical(&f);
/// let (cg, exact_g) = certified_canonical(&g);
/// assert!(exact_f && exact_g);
/// assert_eq!(cf, cg);
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn certified_canonical(f: &TruthTable) -> (TruthTable, bool) {
    let canonical = certified_canonical_with_witness(f);
    (canonical.label, canonical.invariant)
}

/// The influence-aided canonical walk: the minimum over the
/// profile-normalized orbit of `f` — its orbit members whose output
/// has the smaller ones-count, whose every input has its smaller
/// cofactor count on the `x = 0` face, and whose variables appear in
/// non-decreasing (cofactor pair, influence) order — and the transform
/// that reaches it.
///
/// The cost is the post-collapse candidate count — one for most random
/// functions, hundreds to thousands for heavily symmetric ones — times
/// one in-place table update each, plus three allocations per call
/// however many candidates there are.
///
/// # Examples
///
/// ```
/// use facepoint_exact::certified_canonical_with_witness;
/// use facepoint_truth::TruthTable;
///
/// let f = TruthTable::majority(5).flip_var(3);
/// let canon = certified_canonical_with_witness(&f);
/// assert!(canon.invariant);
/// assert_eq!(canon.witness.apply(&f), canon.label);
/// assert_eq!(canon.label, certified_canonical_with_witness(&TruthTable::majority(5)).label);
/// ```
pub fn certified_canonical_with_witness(f: &TruthTable) -> CertifiedCanonical {
    // Output polarity: the smaller ones-count; both when balanced.
    let polarities: &[bool] = match (2 * f.count_ones()).cmp(&f.num_bits()) {
        CmpOrdering::Less => &[false],
        CmpOrdering::Greater => &[true],
        CmpOrdering::Equal => &[false, true],
    };
    let mut work = f.clone();
    let mut plans = [Plan::default(); 2];
    let plans = &mut plans[..polarities.len()];
    for (plan, &negate) in plans.iter_mut().zip(polarities) {
        *plan = Plan::new(f, negate, &mut work);
    }
    let cost = plans
        .iter()
        .fold(0u64, |sum, plan| sum.saturating_add(plan.cost()));
    let invariant = within_budget(cost, f.words().len());
    let mut best = Best {
        table: f.clone(),
        found: false,
        negate: false,
        neg: 0,
        order: [0; MAX_VARS],
    };
    for plan in plans.iter() {
        plan.walk(f, &mut work, &mut best, invariant);
    }
    best.into_canonical(f.num_vars(), invariant)
}

/// Whether a walk of `cost` units over tables of `words` words fits
/// [`WALK_BUDGET`], each unit weighted by [`UNIT_OVERHEAD_WORDS`]. The
/// verdict depends only on the cost and the arity, both orbit
/// invariants.
fn within_budget(cost: u64, words: usize) -> bool {
    cost.saturating_mul(UNIT_OVERHEAD_WORDS + words as u64)
        <= WALK_BUDGET * (UNIT_OVERHEAD_WORDS + 4)
}

/// One output polarity's share of the walk: what the profiles pin and
/// what is left to enumerate.
#[derive(Clone, Copy, Default)]
struct Plan {
    /// Whether this polarity complements the output.
    negate: bool,
    /// Input phases pinned by unequal cofactor counts: bit `v` flips
    /// variable `v` so that its smaller count lies on the `x_v = 0`
    /// face.
    pinned: u16,
    /// The first arrangement: `start[j]` is the variable at position
    /// `j` — profile order, each block contiguous.
    start: [u8; MAX_VARS],
    /// Block id of every variable; ids ascend along `start`.
    block: [u8; MAX_VARS],
    /// Position ranges of the tie groups holding more than one block —
    /// the only ones whose arrangement varies.
    groups: [(u8, u8); MAX_VARS],
    num_groups: usize,
    /// Positions whose phase is free: support variables with equal
    /// cofactor counts.
    free: [u8; MAX_VARS],
    num_free: usize,
    /// Distinct block arrangements.
    arrangements: u64,
}

impl Plan {
    /// Builds the plan of one polarity, leaving `work` holding its
    /// phase-pinned table in identity order.
    fn new(f: &TruthTable, negate: bool, work: &mut TruthTable) -> Plan {
        let n = f.num_vars();
        work.clone_from(f);
        if negate {
            work.negate_in_place();
        }
        let mut plan = Plan {
            negate,
            arrangements: 1,
            ..Plan::default()
        };
        let mut profile = [(0u64, 0u64, 0u32); MAX_VARS];
        for (v, slot) in profile[..n].iter_mut().enumerate() {
            let c0 = work.cofactor_count(v, false);
            let c1 = work.cofactor_count(v, true);
            *slot = (c0.min(c1), c0.max(c1), influence(work, v));
            if c0 > c1 {
                plan.pinned |= 1 << v;
            }
        }
        plan.pin(work);
        for (v, slot) in plan.start[..n].iter_mut().enumerate() {
            *slot = v as u8;
        }
        plan.start[..n].sort_unstable_by_key(|&v| (profile[usize::from(v)], v));
        // Split each profile tie group into swap-symmetry blocks of the
        // phase-pinned table. A free-phase group also merges skew
        // (E-)symmetric pairs: the phase sweep covers the flips they
        // need. Pinned variables are never skew-symmetric — the skew
        // swap would exchange their unequal cofactor counts.
        let mut first_member = [0u8; MAX_VARS];
        let mut blocks = 0usize;
        let mut lo = 0;
        while lo < n {
            let p = profile[usize::from(plan.start[lo])];
            let hi = lo
                + plan.start[lo..n]
                    .iter()
                    .take_while(|&&v| profile[usize::from(v)] == p)
                    .count();
            let free = p.0 == p.1 && p.2 > 0;
            let group_blocks = blocks;
            for i in lo..hi {
                let v = usize::from(plan.start[i]);
                let joined = (group_blocks..blocks).find(|&b| {
                    let r = usize::from(first_member[b]);
                    ne_symmetric(work, r, v) || (free && e_symmetric(work, r, v))
                });
                let b = joined.unwrap_or_else(|| {
                    first_member[blocks] = v as u8;
                    blocks += 1;
                    blocks - 1
                });
                plan.block[v] = b as u8;
            }
            let group = &mut plan.start[lo..hi];
            group.sort_unstable_by_key(|&v| (plan.block[usize::from(v)], v));
            plan.arrangements = plan
                .arrangements
                .saturating_mul(arrangements(group, &plan.block));
            if blocks - group_blocks > 1 {
                plan.groups[plan.num_groups] = (lo as u8, hi as u8);
                plan.num_groups += 1;
            }
            if free {
                for j in lo..hi {
                    plan.free[plan.num_free] = j as u8;
                    plan.num_free += 1;
                }
            }
            lo = hi;
        }
        plan
    }

    /// The walk's work in candidate evaluations (see [`WALK_BUDGET`]):
    /// every arrangement takes one step and then sweeps the free phases.
    fn cost(&self) -> u64 {
        self.arrangements
            .saturating_mul(ARRANGEMENT_STEP + (1 << self.num_free))
    }

    /// Flips the pinned input phases of `work`.
    fn pin(&self, work: &mut TruthTable) {
        let mut pinned = self.pinned;
        while pinned != 0 {
            work.flip_var_in_place(pinned.trailing_zeros() as usize);
            pinned &= pinned - 1;
        }
    }

    /// Offers this polarity's candidates to `best` — all of them when
    /// `exhaustive`, else only the first. Consecutive candidates differ
    /// by one input flip, or by the few swaps of one arrangement step,
    /// applied to the same working table.
    fn walk(&self, f: &TruthTable, work: &mut TruthTable, best: &mut Best, exhaustive: bool) {
        let mut cur = self.first_arrangement(f, work);
        let free = &self.free[..self.num_free];
        loop {
            best.offer(work, self, &cur, 0);
            if !exhaustive {
                return;
            }
            // Free phases in Gray-code order.
            let mut mask = 0u32;
            for g in 1..1u32 << free.len() {
                let bit = g.trailing_zeros() as usize;
                work.flip_var_in_place(usize::from(free[bit]));
                mask ^= 1 << bit;
                best.offer(work, self, &cur, mask);
            }
            if let Some(&last) = free.last() {
                // The Gray walk ends at phase 100…0; one more flip
                // restores 0.
                work.flip_var_in_place(usize::from(last));
            }
            if !self.advance(work, &mut cur) {
                return;
            }
        }
    }

    /// Resets `work` to this polarity's phase-pinned table in the first
    /// arrangement and returns `cur`: `cur[j]` is the variable `work`
    /// reads at position `j`.
    fn first_arrangement(&self, f: &TruthTable, work: &mut TruthTable) -> [u8; MAX_VARS] {
        let n = f.num_vars();
        work.clone_from(f);
        if self.negate {
            work.negate_in_place();
        }
        self.pin(work);
        let mut cur: [u8; MAX_VARS] = std::array::from_fn(|j| j as u8);
        for j in 0..n {
            let k = (j..n)
                .find(|&k| cur[k] == self.start[j])
                .expect("`start` is a permutation");
            if k != j {
                work.swap_vars_in_place(j, k);
                cur.swap(j, k);
            }
        }
        cur
    }

    /// Steps to the next block arrangement — an odometer over the
    /// varying groups, each running through its distinct block
    /// sequences in lexicographic order — swapping the variables of
    /// `work` along with `cur`. `false` once all were visited, with
    /// every group back at its first arrangement.
    fn advance(&self, work: &mut TruthTable, cur: &mut [u8; MAX_VARS]) -> bool {
        self.groups[..self.num_groups]
            .iter()
            .rev()
            .any(|&(lo, hi)| self.next_in_group(work, cur, usize::from(lo), usize::from(hi)))
    }

    /// The next permutation of the block sequence at positions
    /// `lo..hi` (past the last one, back to sorted order, returning
    /// `false`). Swaps of two members of one block are skipped: they
    /// leave the block sequence as it is.
    fn next_in_group(
        &self,
        work: &mut TruthTable,
        cur: &mut [u8; MAX_VARS],
        lo: usize,
        hi: usize,
    ) -> bool {
        let block = |cur: &[u8; MAX_VARS], j: usize| self.block[usize::from(cur[j])];
        let mut swap = |cur: &mut [u8; MAX_VARS], a: usize, b: usize| {
            if block(cur, a) != block(cur, b) {
                work.swap_vars_in_place(a, b);
                cur.swap(a, b);
            }
        };
        let pivot = (lo + 1..hi)
            .rev()
            .find(|&i| block(cur, i - 1) < block(cur, i));
        if let Some(i) = pivot {
            let j = (i..hi)
                .rev()
                .find(|&j| block(cur, j) > block(cur, i - 1))
                .expect("position i qualifies");
            swap(cur, i - 1, j);
        }
        // Reverse the tail after the pivot (the whole group when none).
        let (mut a, mut b) = (pivot.unwrap_or(lo), hi - 1);
        while a < b {
            swap(cur, a, b);
            a += 1;
            b -= 1;
        }
        pivot.is_some()
    }
}

/// Distinct arrangements of a block-sorted tie group: the multinomial
/// `m! / ∏ kᵢ!` over its block sizes `kᵢ`.
fn arrangements(group: &[u8], block: &[u8; MAX_VARS]) -> u64 {
    let mut count = 1u64;
    let mut run = 0u64;
    for (i, &v) in group.iter().enumerate() {
        let same = i > 0 && block[usize::from(v)] == block[usize::from(group[i - 1])];
        run = if same { run + 1 } else { 1 };
        // Stays integral: after `i + 1` members this is the multinomial
        // of the prefix.
        count = count * (i as u64 + 1) / run;
    }
    count
}

/// The walk's running minimum and the transform that reached it.
struct Best {
    table: TruthTable,
    found: bool,
    negate: bool,
    /// Input negations, in `f`'s variables.
    neg: u16,
    /// `order[j]`: the variable of `f` at position `j`.
    order: [u8; MAX_VARS],
}

impl Best {
    fn offer(&mut self, work: &TruthTable, plan: &Plan, cur: &[u8; MAX_VARS], mask: u32) {
        if self.found && *work >= self.table {
            return;
        }
        self.table.clone_from(work);
        self.found = true;
        self.negate = plan.negate;
        self.order = *cur;
        self.neg = plan.pinned;
        for (bit, &pos) in plan.free[..plan.num_free].iter().enumerate() {
            if (mask >> bit) & 1 == 1 {
                self.neg |= 1 << cur[usize::from(pos)];
            }
        }
    }

    fn into_canonical(self, n: usize, invariant: bool) -> CertifiedCanonical {
        let mut perm = [0usize; MAX_VARS];
        for (pos, &var) in self.order[..n].iter().enumerate() {
            perm[usize::from(var)] = pos;
        }
        let perm = Permutation::from_slice(&perm[..n]).expect("an arrangement is a bijection");
        CertifiedCanonical {
            label: self.table,
            witness: NpnTransform::new(perm, self.neg, self.negate),
            invariant,
        }
    }
}

/// Outcome of resolving one function against its digest bucket.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The certified representative of the function's proved class.
    pub representative: TruthTable,
    /// `true` when this resolution *created* the class (the eager
    /// canonicalization path); `false` when the function matched an
    /// already-cached representative.
    pub fresh: bool,
}

/// A concurrent digest-bucket → certified-representative cache.
///
/// Sharded by the digest's high bits like the partition store. Lookups
/// hold one shard lock for the (cheap, profile-pruned) matcher pass;
/// eager canonicalization of a new class runs *outside* the lock with
/// a double-checked re-match before insertion, so concurrent workers
/// discovering the same class converge on one representative.
#[derive(Debug)]
pub struct BucketResolver {
    shards: Vec<Mutex<HashMap<u128, Vec<TruthTable>>>>,
    matches: AtomicU64,
    fallbacks: AtomicU64,
}

impl Default for BucketResolver {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketResolver {
    /// An empty resolver.
    pub fn new() -> Self {
        BucketResolver {
            shards: (0..RESOLVER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            matches: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u128) -> &Mutex<HashMap<u128, Vec<TruthTable>>> {
        &self.shards[(digest >> 124) as usize % RESOLVER_SHARDS]
    }

    fn match_in(reps: &[TruthTable], f: &TruthTable) -> Option<TruthTable> {
        reps.iter()
            .find(|rep| {
                rep.num_vars() == f.num_vars() && (*rep == f || npn_match(f, rep).is_some())
            })
            .cloned()
    }

    /// Resolves `f` (whose signature digest is `digest`) to its
    /// certified class representative, creating the class when `f` is
    /// the bucket's first member of it.
    pub fn resolve(&self, digest: u128, f: &TruthTable) -> Resolved {
        {
            let shard = self.shard(digest).lock().expect("resolver shard poisoned");
            if let Some(reps) = shard.get(&digest) {
                if let Some(representative) = Self::match_in(reps, f) {
                    self.matches.fetch_add(1, Ordering::Relaxed);
                    return Resolved {
                        representative,
                        fresh: false,
                    };
                }
            }
        }
        // First member of a new class in this bucket: canonicalize
        // eagerly, outside the lock.
        let (canon, invariant) = certified_canonical(f);
        if !invariant {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let mut shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.entry(digest).or_default();
        // Double-check: another worker may have inserted this class
        // while we walked.
        if let Some(representative) = Self::match_in(reps, f) {
            self.matches.fetch_add(1, Ordering::Relaxed);
            return Resolved {
                representative,
                fresh: false,
            };
        }
        reps.push(canon.clone());
        Resolved {
            representative: canon,
            fresh: true,
        }
    }

    /// Looks up the certified class of `f` without creating one,
    /// returning the cached representative and a witness transform `t`
    /// with `t.apply(f) == representative`.
    pub fn witness(&self, digest: u128, f: &TruthTable) -> Option<(TruthTable, NpnTransform)> {
        let shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.get(&digest)?;
        reps.iter()
            .filter(|rep| rep.num_vars() == f.num_vars())
            .find_map(|rep| npn_match(f, rep).map(|t| (rep.clone(), t)))
    }

    /// Seeds a recovered class representative into its bucket (used
    /// when reopening a persisted certified store: the stored
    /// representative's digest equals the whole class's digest, since
    /// signatures are NPN invariants).
    pub fn prime(&self, digest: u128, representative: TruthTable) {
        let mut shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.entry(digest).or_default();
        if !reps.contains(&representative) {
            reps.push(representative);
        }
    }

    /// Total certified classes cached across all buckets.
    pub fn num_classes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("resolver shard poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Members resolved through the pairwise-matcher path against a
    /// cached representative.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Class creations whose label is not class-invariant because the
    /// walk's post-collapse work exceeded its budget — an
    /// adversarial-input guard that none of the stress-tested symmetric
    /// families (threshold, majority, parity, bent; n ≤ 10) reaches.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every function of up to four variables: the walk's labels induce
    /// the exhaustive walk's partition (1/2/4/14/222 classes), every
    /// label is its own label, and every witness maps `f` onto it.
    #[test]
    fn small_arities_use_the_exact_walk() {
        for (n, classes) in [(0usize, 1usize), (1, 2), (2, 4), (3, 14), (4, 222)] {
            let mut by_exact: HashMap<TruthTable, TruthTable> = HashMap::new();
            let mut by_label: HashMap<TruthTable, TruthTable> = HashMap::new();
            for bits in 0..1u64 << (1usize << n) {
                let f = TruthTable::from_u64(n, bits).unwrap();
                let canon = certified_canonical_with_witness(&f);
                assert!(canon.invariant, "n = {n}");
                assert_eq!(canon.witness.apply(&f), canon.label, "f = {f}");
                let exact = crate::exact_npn_canonical(&f);
                let label = by_exact
                    .entry(exact.clone())
                    .or_insert_with(|| canon.label.clone());
                assert_eq!(*label, canon.label, "one exact class, two labels: f = {f}");
                let class = by_label.entry(canon.label.clone()).or_insert(exact.clone());
                assert_eq!(*class, exact, "one label, two exact classes: f = {f}");
            }
            assert_eq!(by_label.len(), classes, "n = {n}");
            for label in by_label.keys() {
                assert_eq!(certified_canonical(label), (label.clone(), true));
            }
        }
    }

    #[test]
    fn pruned_walk_is_npn_invariant() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in 2..=8usize {
            for _ in 0..12 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                let cf = certified_canonical_with_witness(&f);
                let cg = certified_canonical_with_witness(&g);
                assert!(cf.invariant && cg.invariant, "n = {n}");
                assert_eq!(cf.label, cg.label, "n = {n}, f = {f}, t = {t}");
                assert_eq!(cf.witness.apply(&f), cf.label);
                assert_eq!(cg.witness.apply(&g), cg.label);
            }
        }
    }

    #[test]
    fn pruned_label_stays_in_the_orbit() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..8 {
            let f = TruthTable::random(7, &mut rng).unwrap();
            let (canon, _) = certified_canonical(&f);
            assert!(
                crate::matcher::are_npn_equivalent(&f, &canon),
                "label must be an orbit member, f = {f}"
            );
        }
    }

    /// Symmetry is collapsed, not budgeted: parity(8), whose profiles
    /// all tie, walks 2 polarities × 2^8 phases of one block. Only work
    /// past the budget still falls back — bent(14) keeps
    /// 14!/2^7 arrangements of its seven swap-symmetric pairs — and then
    /// deterministically, with a valid witness and the same verdict on
    /// every orbit member.
    #[test]
    fn symmetric_functions_fall_back_deterministically() {
        let p = TruthTable::parity(8);
        let canon = certified_canonical_with_witness(&p);
        assert!(canon.invariant, "parity collapses to one block");
        assert_eq!(canon.witness.apply(&p), canon.label);

        let bent =
            TruthTable::from_fn(14, |m| (m & (m >> 1) & 0x1555).count_ones() % 2 == 1).unwrap();
        let a = certified_canonical_with_witness(&bent);
        assert!(!a.invariant, "bent(14) exceeds the budget");
        assert_eq!(a.witness.apply(&bent), a.label);
        assert_eq!(
            certified_canonical_with_witness(&bent),
            a,
            "fallback is deterministic"
        );
        let mut rng = StdRng::seed_from_u64(49);
        let g = NpnTransform::random(14, &mut rng).apply(&bent);
        let b = certified_canonical_with_witness(&g);
        assert!(!b.invariant, "the verdict is orbit-invariant");
        assert_eq!(b.witness.apply(&g), b.label);
    }

    /// The budget is charged by table width: n = 8 gets exactly
    /// `WALK_BUDGET` units, bent(10) still fits, and parity(16) — one
    /// block, 2 × (3 + 2^16) units over 1,024 words — falls back as the
    /// 4,096-candidate enumeration did, while parity(12) walks.
    #[test]
    fn the_budget_is_charged_by_table_width() {
        assert!(within_budget(WALK_BUDGET, 4));
        assert!(!within_budget(WALK_BUDGET + 1, 4));
        assert!(within_budget(453_600, 16), "bent(10)");
        assert!(!within_budget(u64::MAX, 1));
        assert!(certified_canonical_with_witness(&TruthTable::parity(12)).invariant);
        let p = TruthTable::parity(16);
        let canon = certified_canonical_with_witness(&p);
        assert!(!canon.invariant, "parity(16) exceeds the weighted budget");
        assert_eq!(canon.witness.apply(&p), canon.label);
    }

    /// The in-place arrangement steps visit every distinct block
    /// sequence once, keep the working table equal to the phase-pinned
    /// table under the tracked arrangement, and end where they began.
    #[test]
    fn arrangement_steps_visit_each_block_sequence_once() {
        // Bent(8) pins every phase and ties every profile into one group
        // of four swap-symmetric pairs: 8!/2^4 = 2520 arrangements.
        let f = TruthTable::from_fn(8, |m| (m & (m >> 1) & 0x55).count_ones() % 2 == 1).unwrap();
        let mut work = f.clone();
        let plan = Plan::new(&f, false, &mut work);
        assert_eq!((plan.arrangements, plan.num_free), (2520, 0));
        let blocks = |cur: &[u8; MAX_VARS]| -> Vec<u8> {
            cur[..8]
                .iter()
                .map(|&v| plan.block[usize::from(v)])
                .collect()
        };
        let mut cur = plan.first_arrangement(&f, &mut work);
        let first = blocks(&cur);
        let mut seen = std::collections::HashSet::new();
        loop {
            assert!(seen.insert(blocks(&cur)), "a block sequence repeats");
            let mut perm = [0usize; 8];
            for (pos, &var) in cur[..8].iter().enumerate() {
                perm[usize::from(var)] = pos;
            }
            let t = NpnTransform::new(Permutation::from_slice(&perm).unwrap(), plan.pinned, false);
            assert_eq!(work, t.apply(&f), "arrangement {cur:?}");
            if !plan.advance(&mut work, &mut cur) {
                break;
            }
        }
        assert_eq!(seen.len() as u64, plan.arrangements);
        assert_eq!(
            blocks(&cur),
            first,
            "the odometer wraps to the first arrangement"
        );
    }

    #[test]
    fn resolver_matches_members_and_splits_collisions() {
        let resolver = BucketResolver::new();
        let mut rng = StdRng::seed_from_u64(53);
        let f = TruthTable::random(5, &mut rng).unwrap();
        let g = NpnTransform::random(5, &mut rng).apply(&f);
        let digest = 0xfeed_u128 << 100;
        let first = resolver.resolve(digest, &f);
        assert!(first.fresh);
        let second = resolver.resolve(digest, &g);
        assert!(!second.fresh, "orbit member joins the cached class");
        assert_eq!(first.representative, second.representative);
        // A non-equivalent function planted in the *same* bucket (a
        // digest collision) splits into its own certified class.
        let other = TruthTable::parity(5);
        let split = resolver.resolve(digest, &other);
        assert!(split.fresh);
        assert_ne!(split.representative, first.representative);
        assert_eq!(resolver.num_classes(), 2);
        assert_eq!(resolver.matches(), 1);
    }

    #[test]
    fn witness_maps_onto_the_cached_representative() {
        let resolver = BucketResolver::new();
        let mut rng = StdRng::seed_from_u64(59);
        let f = TruthTable::random(6, &mut rng).unwrap();
        let digest = 7u128;
        assert!(resolver.witness(digest, &f).is_none(), "empty bucket");
        let resolved = resolver.resolve(digest, &f);
        let g = NpnTransform::random(6, &mut rng).apply(&f);
        let (rep, t) = resolver.witness(digest, &g).expect("class is cached");
        assert_eq!(rep, resolved.representative);
        assert_eq!(t.apply(&g), rep);
    }

    #[test]
    fn prime_rebuilds_a_bucket_without_walking() {
        let resolver = BucketResolver::new();
        let f = TruthTable::majority(5);
        let (canon, _) = certified_canonical(&f);
        resolver.prime(99, canon.clone());
        resolver.prime(99, canon.clone()); // idempotent
        assert_eq!(resolver.num_classes(), 1);
        let resolved = resolver.resolve(99, &f.flip_var(2));
        assert!(!resolved.fresh, "primed class is matched, not re-walked");
        assert_eq!(resolved.representative, canon);
    }

    #[test]
    fn mixed_arity_digest_collisions_never_match() {
        // A (hypothetical) digest collision across arities must split,
        // not panic inside the matcher.
        let resolver = BucketResolver::new();
        let a = resolver.resolve(1, &TruthTable::majority(3));
        let b = resolver.resolve(1, &TruthTable::majority(5));
        assert!(a.fresh && b.fresh);
        assert_eq!(resolver.num_classes(), 2);
    }
}
