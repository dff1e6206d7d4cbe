//! Ordered sensitivity-distance vectors (`OSDV`) —
//! Definitions 9 and 10 of the paper.
//!
//! `OSDV(f)` refines the sensitivity vector with *geometry*: for every
//! sensitivity level `s` it histograms the Hamming distances of all
//! unordered pairs of minterms that share that local sensitivity.
//! `OSDV1`/`OSDV0` restrict the pairs to 1-/0-minterms.
//!
//! Each sensitivity group's pair histogram is counted one of two ways,
//! chosen by the group's population `p`: a group with `p² < n·2^n`
//! ([`crossover`]) enumerates its pairs and histograms `popcount(X ⊕ Y)`
//! (`O(p²)`), a populous one uses a Walsh–Hadamard spectral tail
//! (`O(n·2^n)` whatever `p` is). Two paths apply that rule, each with
//! its own counters:
//!
//! * **the kernel's fused sweep** (`osdv_point_sections_into`, behind
//!   [`crate::SigKernel`]) counts pairs with a byte-table popcount into
//!   four `u32` sub-histograms, and its spectral tail is a
//!   **single-transform, weight-binned** one: with `W = WHT(a)` and the
//!   per-weight energies `E_w = Σ_{|s|=w} W[s]²`, the distance
//!   histogram is `δ_j = (Σ_w K_j(w)·E_w) / 2^{n+1}` where `K_j` are the
//!   binary Krawtchouk polynomials. Because the two polarity groups of
//!   a level partition its minterms, the level indicator's transform
//!   `S` is shared: `WHT(g0) = S − WHT(g1)`, one subtraction inside the
//!   energy pass instead of a second butterfly cascade;
//! * **the reference path** ([`osdv`], [`osdv0`], [`osdv1`] and
//!   [`crate::msv_reference`]) counts pairs with `count_ones()` and
//!   uses the classic two-transform XOR autocorrelation
//!   (`WHT(WHT(a)²)/2^n`, then bin the `2^n` differences by popcount).
//!   It is the independent oracle the kernel is differential-tested
//!   against and the baseline of its benchmarked speedup.

use crate::sensitivity::SensitivityProfile;
use crate::spectral::{wht_in_place, xor_autocorrelation_into};
use facepoint_truth::words::{MAX_VARS, WORD_VARS};
use facepoint_truth::TruthTable;
use std::fmt;

/// Population crossover of both paths: a group of population `p` is
/// counted spectrally when `p² ≥ n·2^n`, the transform's operation
/// count, and pairwise otherwise.
///
/// Tuned for the kernel on `trajectory`'s balanced tables. Kernel keys
/// per second with the crossover at `c·n·2^n`, medians of 5
/// interleaved runs on a 2-vCPU VM (runs spread by up to ±30%):
///
/// | c   | n = 6 | 7    | 8     | 9     | 10    | 11    |
/// |-----|-------|------|-------|-------|-------|-------|
/// | 1/4 | 195k  | 118k | 55.0k | 28.7k | 12.5k | 5.48k |
/// | 1/2 | 198k  | 116k | 58.6k | 31.6k | 11.9k | 5.29k |
/// | 1   | 213k  | 131k | 70.3k | 32.9k | 13.0k | 6.29k |
/// | 2   | 209k  | 131k | 65.2k | 28.0k | 12.5k | 5.67k |
/// | 4   | 208k  | 126k | 72.0k | 29.5k | 9.50k | 3.24k |
///
/// `c = 1` is best or within noise of best at every n, so both paths
/// share it. Below the crossover the pair count is under `2^19`.
const fn crossover(num_vars: usize) -> u64 {
    (num_vars as u64) << num_vars
}

/// Reusable scratch buffers of the kernel's fused point sweep — owning
/// these lets the signature kernel compute OSDVs with zero steady-state
/// heap allocations.
#[derive(Debug, Default)]
pub(crate) struct OsdvScratch {
    /// Unfiltered indicator of the current sensitivity level.
    ind: Vec<u64>,
    /// Bit-packed indicator of the level's 0-polarity group.
    group0: Vec<u64>,
    /// Bit-packed indicator of the level's 1-polarity group.
    group1: Vec<u64>,
    /// Expanded member list for pairwise counting (minterm indices
    /// below `2^MAX_VARS = 2^16`).
    members: Vec<u16>,
    /// Workspace of the single-transform weight-binned spectral tail.
    tail: SpectralTail,
}

/// Scratch of the weight-binned spectral pair counter: transform
/// buffers, per-weight energies, and the cached Krawtchouk table.
#[derive(Debug, Default)]
struct SpectralTail {
    /// Transform buffer for a single group (holds `WHT(g1)` on the
    /// shared path).
    buf: Vec<i64>,
    /// Transform buffer of the level indicator on the shared path.
    buf_level: Vec<i64>,
    /// Per-weight spectral energies of the 0-polarity group.
    e0: Vec<i64>,
    /// Per-weight spectral energies of the 1-polarity group.
    e1: Vec<i64>,
    /// Row-major `(n+1) × (n+1)` Krawtchouk table `K_j(w)`.
    kraw: Vec<i64>,
    /// Arity the cached table was built for.
    kraw_n: Option<usize>,
    /// Hamming weight of every spectral index below the largest `2^n`
    /// seen (it does not depend on `n`, so it only ever grows).
    weights: Vec<u8>,
}

/// Which minterms participate in the pair counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MintermFilter {
    /// All `2^n` minterms — the paper's `OSDV`.
    All,
    /// Only minterms with `f(X) = 0` — the paper's `OSDV0`.
    Zeros,
    /// Only minterms with `f(X) = 1` — the paper's `OSDV1`.
    Ones,
}

/// The ordered sensitivity-distance vector: a `(n+1) × n` matrix `δ` where
/// `δ[s][j-1]` counts unordered minterm pairs `(X, Y)`, `X < Y`, with
/// `sen(f,X) = sen(f,Y) = s` and Hamming distance `j`.
///
/// The paper flattens the matrix row-major as
/// `(σ_0, σ_1, …, σ_n)`, `σ_s = (δ_{s1}, …, δ_{sn})`; [`Osdv::flatten`]
/// and the `Display` impl reproduce that order.
///
/// # Examples
///
/// ```
/// use facepoint_sig::{osdv1, Osdv};
/// use facepoint_truth::TruthTable;
///
/// // Table I: OSDV1 of the 3-majority is (0,0,0, 0,0,0, 0,3,0, 0,0,0).
/// let v = osdv1(&TruthTable::majority(3));
/// assert_eq!(v.flatten(), vec![0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Osdv {
    num_vars: usize,
    /// Row-major `(n+1) × n`: entry `s * n + (j - 1)`.
    rows: Vec<u64>,
}

impl Osdv {
    /// Number of variables of the underlying function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The pair count `δ_{sj}` for sensitivity `s` and distance `j ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `s > n` or `j` is not in `1..=n`.
    pub fn delta(&self, s: u32, j: u32) -> u64 {
        let n = self.num_vars;
        assert!((s as usize) <= n, "sensitivity {s} out of range");
        assert!(j >= 1 && (j as usize) <= n, "distance {j} out of range");
        self.rows[s as usize * n + (j as usize - 1)]
    }

    /// Row `σ_s`: the distance histogram of sensitivity level `s`.
    pub fn sigma(&self, s: u32) -> &[u64] {
        let n = self.num_vars;
        &self.rows[s as usize * n..(s as usize + 1) * n]
    }

    /// The row-major flattening `(σ_0, …, σ_n)` used by the paper's
    /// Table I and by MSV construction.
    pub fn flatten(&self) -> Vec<u64> {
        self.rows.clone()
    }

    /// Total number of counted pairs, `Σ_{s,j} δ_{sj}`.
    pub fn total_pairs(&self) -> u64 {
        self.rows.iter().sum()
    }
}

impl fmt::Display for Osdv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The reference path: one OSDV variant from an already-computed
/// sensitivity profile (the reference MSV counts `OSDV0` and `OSDV1`
/// from one profile, as in Algorithm 1 line 5). Groups count pairwise
/// below [`crossover`] and by XOR autocorrelation above it.
pub(crate) fn osdv_from_profile(
    f: &TruthTable,
    profile: &SensitivityProfile,
    filter: MintermFilter,
) -> Osdv {
    let n = f.num_vars();
    let mut rows = vec![0; (n + 1) * n];
    let (mut group, mut members, mut wht) = (Vec::new(), Vec::new(), Vec::new());
    // For n = 0 the single minterm never forms a pair: `rows` stays empty.
    for s in 0..=n as u32 {
        level_group_into(f, profile, s, filter, &mut group);
        let pop: u64 = group.iter().map(|w| w.count_ones() as u64).sum();
        if pop < 2 {
            continue;
        }
        let row = &mut rows[s as usize * n..(s as usize + 1) * n];
        if pop * pop < crossover(n) {
            count_pairs_naive(&group, row, &mut members);
        } else {
            count_pairs_wht(&group, n, row, &mut wht);
        }
    }
    Osdv { num_vars: n, rows }
}

/// Bit-packed indicator of the minterms at sensitivity level `s` that
/// pass `filter`.
fn level_group_into(
    f: &TruthTable,
    profile: &SensitivityProfile,
    s: u32,
    filter: MintermFilter,
    group: &mut Vec<u64>,
) {
    profile.indicator_into(s, group);
    match filter {
        MintermFilter::All => {}
        MintermFilter::Zeros => {
            for (g, fw) in group.iter_mut().zip(f.words()) {
                *g &= !fw;
            }
        }
        MintermFilter::Ones => {
            for (g, fw) in group.iter_mut().zip(f.words()) {
                *g &= fw;
            }
        }
    }
}

/// Computes the four point-characteristic sections of the MSV in one
/// sweep: the `OSDV0`/`OSDV1` row matrices into `rows0`/`rows1` and the
/// `OSV0`/`OSV1` histograms into `h0`/`h1`.
///
/// Per sensitivity level the indicator is built **once** and split into
/// its 0-/1-minterm halves, whose popcounts are the histogram entries
/// and whose pair counts fill the rows — versus three independent
/// indicator sweeps when the histograms and the two filtered OSDVs are
/// computed separately. Pair counting goes through
/// [`count_level_pairs`], whose weight-binned spectral tail shares the
/// level indicator's transform across the two polarity groups. All
/// outputs and scratch reuse their allocations.
// Four output buffers plus scratch is the point of the API: every
// consumer owns them all and reuses them across a stream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn osdv_point_sections_into(
    f: &TruthTable,
    profile: &SensitivityProfile,
    scratch: &mut OsdvScratch,
    rows0: &mut Vec<u64>,
    rows1: &mut Vec<u64>,
    h0: &mut Vec<u64>,
    h1: &mut Vec<u64>,
) {
    let n = f.num_vars();
    rows0.clear();
    rows1.clear();
    h0.clear();
    h1.clear();
    rows0.resize((n + 1) * n, 0);
    rows1.resize((n + 1) * n, 0);
    for s in 0..=n as u32 {
        profile.indicator_into(s, &mut scratch.ind);
        scratch.group0.clear();
        scratch.group1.clear();
        for (&iw, &fw) in scratch.ind.iter().zip(f.words()) {
            scratch.group0.push(iw & !fw);
            scratch.group1.push(iw & fw);
        }
        let pop0: u64 = scratch.group0.iter().map(|w| w.count_ones() as u64).sum();
        let pop1: u64 = scratch.group1.iter().map(|w| w.count_ones() as u64).sum();
        h0.push(pop0);
        h1.push(pop1);
        if n == 0 {
            continue;
        }
        count_level_pairs(
            n,
            &scratch.group0,
            pop0,
            &scratch.group1,
            pop1,
            &mut scratch.members,
            &mut scratch.tail,
            &mut rows0[s as usize * n..(s as usize + 1) * n],
            &mut rows1[s as usize * n..(s as usize + 1) * n],
        );
    }
}

/// Distance-histograms the two polarity groups of one sensitivity level
/// into `row0`/`row1` — the per-group tail choice of the fused sweep:
/// pairwise below [`crossover`], spectral above it.
///
/// When both groups clear the crossover they share one
/// transform: `S = WHT(g0 ∪ g1)` and `B = WHT(g1)` are computed, and
/// `WHT(g0) = S − B` falls out as a subtraction fused into the energy
/// pass, so the level costs two butterfly cascades where independent
/// autocorrelations cost four.
#[allow(clippy::too_many_arguments)]
fn count_level_pairs(
    num_vars: usize,
    g0: &[u64],
    pop0: u64,
    g1: &[u64],
    pop1: u64,
    members: &mut Vec<u16>,
    tail: &mut SpectralTail,
    row0: &mut [u64],
    row1: &mut [u64],
) {
    let spectral = |pop: u64| pop * pop >= crossover(num_vars);
    let s0 = pop0 >= 2 && spectral(pop0);
    let s1 = pop1 >= 2 && spectral(pop1);
    if s0 && s1 {
        level_pairs_spectral(g0, g1, num_vars, tail, row0, row1);
        return;
    }
    if pop0 >= 2 {
        if s0 {
            count_pairs_spectral(g0, num_vars, tail, row0);
        } else {
            count_pairs_table(g0, row0, members);
        }
    }
    if pop1 >= 2 {
        if s1 {
            count_pairs_spectral(g1, num_vars, tail, row1);
        } else {
            count_pairs_table(g1, row1, members);
        }
    }
}

// Members are `u16` minterm indices, so a member XOR is two bytes.
const _: () = assert!(MAX_VARS <= 16, "pair distances are two byte lookups");

/// Popcount of every byte: a baseline x86-64 build has no popcount
/// instruction, and `count_ones()` there is a dozen-instruction
/// bit-twiddle.
const BYTE_POPCOUNT: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).count_ones() as u8;
        b += 1;
    }
    table
};

/// Independent sub-histograms of the kernel's pair counter: pair `k`
/// of a run increments lane `k % LANES`, so back-to-back pairs at the
/// same distance do not serialize on one counter.
const LANES: usize = 4;

/// The kernel's pairwise counter: like [`count_pairs_naive`], but each
/// distance is two loads from [`BYTE_POPCOUNT`] and increments go into
/// [`LANES`] `u32` sub-histograms, summed into `row` once. A group only
/// gets here below [`crossover`], so `p² < n·2^n ≤ 2^20`:
/// fewer than `2^19` pairs, far inside `u32`.
fn count_pairs_table(group: &[u64], row: &mut [u64], members: &mut Vec<u16>) {
    members.clear();
    for (w, &word) in group.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            members.push(((w << WORD_VARS) | bits.trailing_zeros() as usize) as u16);
            bits &= bits - 1;
        }
    }
    let distance =
        |d: u16| (BYTE_POPCOUNT[(d & 0xff) as usize] + BYTE_POPCOUNT[(d >> 8) as usize]) as usize;
    let mut hist = [[0u32; MAX_VARS + 1]; LANES];
    for (a, &x) in members.iter().enumerate() {
        let mut runs = members[a + 1..].chunks_exact(LANES);
        for run in &mut runs {
            for (lane, &y) in hist.iter_mut().zip(run) {
                lane[distance(x ^ y)] += 1;
            }
        }
        for &y in runs.remainder() {
            hist[0][distance(x ^ y)] += 1;
        }
    }
    for lane in &hist {
        for (r, &c) in row.iter_mut().zip(&lane[1..]) {
            *r += c as u64;
        }
    }
}

/// ±0/1-encodes the first `len` bits of a stream of packed indicator
/// words into `out`, a word at a time.
fn encode_bits_into(words: impl Iterator<Item = u64>, len: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(len, 0);
    for (slots, w) in out.chunks_mut(64).zip(words) {
        for (b, slot) in slots.iter_mut().enumerate() {
            *slot = ((w >> b) & 1) as i64;
        }
    }
}

/// Rebuilds the cached Krawtchouk table for arity `n` if needed:
/// `K_j(w)` row-major over `j, w ∈ 0..=n`, via the three-term recurrence
/// `(j+1)·K_{j+1}(w) = (n−2w)·K_j(w) − (n−j+1)·K_{j−1}(w)` (exact
/// integer division).
fn ensure_krawtchouk(tail: &mut SpectralTail, n: usize) {
    let len = 1usize << n;
    if tail.weights.len() < len {
        let from = tail.weights.len();
        tail.weights
            .extend((from..len).map(|s| s.count_ones() as u8));
    }
    if tail.kraw_n == Some(n) {
        return;
    }
    let w1 = n + 1;
    tail.kraw.clear();
    tail.kraw.resize(w1 * w1, 0);
    for w in 0..=n {
        tail.kraw[w] = 1;
        if n >= 1 {
            tail.kraw[w1 + w] = n as i64 - 2 * w as i64;
        }
        for j in 1..n {
            let num = (n as i64 - 2 * w as i64) * tail.kraw[j * w1 + w]
                - (n as i64 - j as i64 + 1) * tail.kraw[(j - 1) * w1 + w];
            debug_assert_eq!(num % (j as i64 + 1), 0, "Krawtchouk recurrence is exact");
            tail.kraw[(j + 1) * w1 + w] = num / (j as i64 + 1);
        }
    }
    tail.kraw_n = Some(n);
}

/// Converts per-weight spectral energies into unordered pair counts per
/// distance: `row[j−1] += (Σ_w K_j(w)·E_w) / 2^{n+1}`.
///
/// The `1/2^n` is the inverse transform's normalization folded into the
/// weight sum (Σ over a distance shell of the autocorrelation equals
/// the Krawtchouk-weighted energy sum), the extra `1/2` turns ordered
/// pairs into unordered ones.
fn krawtchouk_rows(kraw: &[i64], num_vars: usize, energy: &[i64], row: &mut [u64]) {
    let denom = 2i64 << num_vars;
    for j in 1..=num_vars {
        let mut t = 0i64;
        for (w, &e) in energy.iter().enumerate() {
            t += kraw[j * (num_vars + 1) + w] * e;
        }
        debug_assert!(
            t >= 0 && t % denom == 0,
            "weight-binned pair sums are even multiples of 2^n"
        );
        row[j - 1] += (t / denom) as u64;
    }
}

/// Single-group weight-binned spectral pair count: one forward WHT, an
/// energy-per-weight pass, and the Krawtchouk combine.
fn count_pairs_spectral(group: &[u64], num_vars: usize, tail: &mut SpectralTail, row: &mut [u64]) {
    let len = 1usize << num_vars;
    ensure_krawtchouk(tail, num_vars);
    encode_bits_into(group.iter().copied(), len, &mut tail.buf);
    wht_in_place(&mut tail.buf);
    tail.e0.clear();
    tail.e0.resize(num_vars + 1, 0);
    for (&weight, &w) in tail.weights.iter().zip(&tail.buf) {
        tail.e0[weight as usize] += w * w;
    }
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e0, row);
}

/// Two-group spectral pair count sharing the level-indicator transform:
/// `S = WHT(g0 ∪ g1)`, `B = WHT(g1)`, `A = S − B` inside the fused
/// energy pass (one cached weight per spectral position serves both
/// groups).
fn level_pairs_spectral(
    g0: &[u64],
    g1: &[u64],
    num_vars: usize,
    tail: &mut SpectralTail,
    row0: &mut [u64],
    row1: &mut [u64],
) {
    let len = 1usize << num_vars;
    ensure_krawtchouk(tail, num_vars);
    let union = g0.iter().zip(g1).map(|(&a, &b)| a | b);
    encode_bits_into(union, len, &mut tail.buf_level);
    wht_in_place(&mut tail.buf_level);
    encode_bits_into(g1.iter().copied(), len, &mut tail.buf);
    wht_in_place(&mut tail.buf);
    tail.e0.clear();
    tail.e0.resize(num_vars + 1, 0);
    tail.e1.clear();
    tail.e1.resize(num_vars + 1, 0);
    let spectra = tail.buf_level.iter().zip(&tail.buf);
    for (&weight, (&sv, &b)) in tail.weights.iter().zip(spectra) {
        let w = weight as usize;
        let a = sv - b;
        tail.e0[w] += a * a;
        tail.e1[w] += b * b;
    }
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e0, row0);
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e1, row1);
}

/// `OSDV(f)`: pair counts over all minterms.
pub fn osdv(f: &TruthTable) -> Osdv {
    osdv_from_profile(f, &SensitivityProfile::compute(f), MintermFilter::All)
}

/// `OSDV0(f)`: pair counts over the 0-minterms.
pub fn osdv0(f: &TruthTable) -> Osdv {
    osdv_from_profile(f, &SensitivityProfile::compute(f), MintermFilter::Zeros)
}

/// `OSDV1(f)`: pair counts over the 1-minterms.
pub fn osdv1(f: &TruthTable) -> Osdv {
    osdv_from_profile(f, &SensitivityProfile::compute(f), MintermFilter::Ones)
}

fn count_pairs_naive(group: &[u64], row: &mut [u64], members: &mut Vec<u64>) {
    members.clear();
    for (w, &word) in group.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            members.push(((w as u64) << WORD_VARS) | bits.trailing_zeros() as u64);
            bits &= bits - 1;
        }
    }
    for (a, &x) in members.iter().enumerate() {
        for &y in &members[a + 1..] {
            let d = (x ^ y).count_ones() as usize;
            row[d - 1] += 1;
        }
    }
}

fn count_pairs_wht(group: &[u64], num_vars: usize, row: &mut [u64], wht: &mut Vec<i64>) {
    xor_autocorrelation_into(group, num_vars, wht);
    for (d, &cnt) in wht.iter().enumerate().skip(1) {
        debug_assert!(cnt >= 0 && cnt % 2 == 0, "ordered pair counts are even");
        let j = (d as u64).count_ones() as usize;
        row[j - 1] += (cnt / 2) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The crossover is a recorded, tested constant: both paths switch
    /// to their spectral tail at the `n·2^n` cost model.
    #[test]
    fn crossover_constants_are_pinned() {
        for (n, pinned) in [
            (1usize, 2u64),
            (4, 64),
            (8, 2048),
            (10, 10240),
            (16, 1 << 20),
        ] {
            assert_eq!(crossover(n), pinned, "n = {n}");
        }
    }

    /// Binomial-coefficient direct sum `K_j(w) = Σ_i (−1)^i C(w,i)C(n−w,j−i)`.
    fn krawtchouk_direct(n: i64, j: i64, w: i64) -> i64 {
        fn binom(n: i64, k: i64) -> i64 {
            if k < 0 || k > n {
                return 0;
            }
            let mut acc = 1i64;
            for i in 0..k {
                acc = acc * (n - i) / (i + 1);
            }
            acc
        }
        (0..=j)
            .map(|i| {
                let sign = if i % 2 == 0 { 1 } else { -1 };
                sign * binom(w, i) * binom(n - w, j - i)
            })
            .sum()
    }

    #[test]
    fn krawtchouk_recurrence_matches_direct_sum() {
        let mut tail = SpectralTail::default();
        for n in 0..=10usize {
            ensure_krawtchouk(&mut tail, n);
            for j in 0..=n {
                for w in 0..=n {
                    assert_eq!(
                        tail.kraw[j * (n + 1) + w],
                        krawtchouk_direct(n as i64, j as i64, w as i64),
                        "K_{j}({w}) at n = {n}"
                    );
                }
            }
        }
    }

    /// The weight-binned tail must agree with both the pairwise counter
    /// and the classic autocorrelation on single groups.
    #[test]
    fn spectral_tail_matches_classic_counters() {
        let mut rng = StdRng::seed_from_u64(0x5bec);
        let mut tail = SpectralTail::default();
        let mut members = Vec::new();
        let mut wht = Vec::new();
        for n in 1..=9usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let group = f.words().to_vec();
                let pop: u64 = group.iter().map(|w| w.count_ones() as u64).sum();
                if pop < 2 {
                    continue;
                }
                let mut by_spectral = vec![0u64; n];
                let mut by_naive = vec![0u64; n];
                let mut by_classic = vec![0u64; n];
                count_pairs_spectral(&group, n, &mut tail, &mut by_spectral);
                count_pairs_naive(&group, &mut by_naive, &mut members);
                count_pairs_wht(&group, n, &mut by_classic, &mut wht);
                assert_eq!(by_spectral, by_naive, "n = {n}, f = {f}");
                assert_eq!(by_spectral, by_classic, "n = {n}, f = {f}");
            }
        }
    }

    /// All four pair counters — pairwise, the kernel's table-popcount
    /// pairwise, classic autocorrelation and the weight-binned tail —
    /// fill the same OSDV under every minterm filter, whatever each
    /// level's population, and the reference path, which picks one
    /// counter per group, matches them.
    #[test]
    fn engines_agree() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut tail = SpectralTail::default();
        let (mut group, mut members, mut wht) = (Vec::new(), Vec::new(), Vec::new());
        let mut members16 = Vec::new();
        for n in 1..=10usize {
            let count = if n <= 8 { 4 } else { 2 };
            for _ in 0..count {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let prof = SensitivityProfile::compute(&f);
                for filter in [
                    MintermFilter::All,
                    MintermFilter::Zeros,
                    MintermFilter::Ones,
                ] {
                    let mut pairwise = vec![0u64; (n + 1) * n];
                    let mut table = pairwise.clone();
                    let mut classic = pairwise.clone();
                    let mut weighted = pairwise.clone();
                    for s in 0..=n {
                        level_group_into(&f, &prof, s as u32, filter, &mut group);
                        let row = s * n..(s + 1) * n;
                        count_pairs_naive(&group, &mut pairwise[row.clone()], &mut members);
                        count_pairs_table(&group, &mut table[row.clone()], &mut members16);
                        count_pairs_wht(&group, n, &mut classic[row.clone()], &mut wht);
                        count_pairs_spectral(&group, n, &mut tail, &mut weighted[row]);
                    }
                    let reference = osdv_from_profile(&f, &prof, filter).flatten();
                    assert_eq!(
                        pairwise, reference,
                        "pairwise, n = {n}, {filter:?}, f = {f}"
                    );
                    assert_eq!(table, reference, "table, n = {n}, {filter:?}, f = {f}");
                    assert_eq!(classic, reference, "classic, n = {n}, {filter:?}, f = {f}");
                    assert_eq!(
                        weighted, reference,
                        "weighted, n = {n}, {filter:?}, f = {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn table1_majority_osdv1() {
        let f1 = TruthTable::majority(3);
        let v = osdv1(&f1);
        assert_eq!(v.flatten(), vec![0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]);
        assert_eq!(v.delta(2, 2), 3);
    }

    #[test]
    fn table1_majority_osdv() {
        let f1 = TruthTable::majority(3);
        let v = osdv(&f1);
        assert_eq!(v.flatten(), vec![0, 0, 1, 0, 0, 0, 6, 6, 3, 0, 0, 0]);
    }

    #[test]
    fn table1_projection_osdv1_and_osdv() {
        let f3 = TruthTable::projection(3, 2).unwrap();
        assert_eq!(
            osdv1(&f3).flatten(),
            vec![0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            osdv(&f3).flatten(),
            vec![0, 0, 0, 12, 12, 4, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn fused_point_sections_match_separate_computation() {
        let mut rng = StdRng::seed_from_u64(0xF05E);
        let mut scratch = OsdvScratch::default();
        let (mut r0, mut r1, mut h0, mut h1) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for n in 0..=7usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let prof = SensitivityProfile::compute(&f);
                osdv_point_sections_into(
                    &f,
                    &prof,
                    &mut scratch,
                    &mut r0,
                    &mut r1,
                    &mut h0,
                    &mut h1,
                );
                let d0 = osdv_from_profile(&f, &prof, MintermFilter::Zeros);
                let d1 = osdv_from_profile(&f, &prof, MintermFilter::Ones);
                let (e0, e1) = prof.histograms_by_value(&f);
                assert_eq!(r0, d0.flatten(), "rows0, n = {n}, f = {f}");
                assert_eq!(r1, d1.flatten(), "rows1, n = {n}, f = {f}");
                assert_eq!(h0, e0, "h0, n = {n}, f = {f}");
                assert_eq!(h1, e1, "h1, n = {n}, f = {f}");
            }
        }
    }

    #[test]
    fn row_sums_are_group_pair_counts() {
        let mut rng = StdRng::seed_from_u64(59);
        let f = TruthTable::random(6, &mut rng).unwrap();
        let prof = SensitivityProfile::compute(&f);
        let hist = prof.histogram();
        let v = osdv(&f);
        for s in 0..=6u32 {
            let g = hist[s as usize];
            let expect = g * g.saturating_sub(1) / 2;
            assert_eq!(v.sigma(s).iter().sum::<u64>(), expect, "σ_{s} row sum");
        }
    }

    #[test]
    fn zero_vars_osdv_is_empty() {
        let f = TruthTable::one(0).unwrap();
        let v = osdv(&f);
        assert_eq!(v.flatten(), Vec::<u64>::new());
        assert_eq!(v.total_pairs(), 0);
    }

    #[test]
    fn display_matches_paper_format() {
        let v = osdv1(&TruthTable::majority(3));
        assert_eq!(format!("{v}"), "(0,0,0,0,0,0,0,3,0,0,0,0)");
    }

    #[test]
    fn split_vectors_partition_when_phases_fixed() {
        // Pairs of OSDV are NOT a partition of OSDV (cross-value pairs with
        // equal sensitivity exist), but each split total is bounded by the
        // full total.
        let f = TruthTable::from_hex(4, "3c5a").unwrap();
        let all = osdv(&f).total_pairs();
        let zeros = osdv0(&f).total_pairs();
        let ones = osdv1(&f).total_pairs();
        assert!(zeros + ones <= all);
    }
}
