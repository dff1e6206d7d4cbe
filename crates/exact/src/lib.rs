//! # facepoint-exact
//!
//! Exact NPN canonicalization, exact classification and the baseline
//! canonical-form classifiers used in the evaluation of the DATE 2023
//! paper *"Rethinking NPN Classification from Face and Point
//! Characteristics of Boolean Functions"* (arXiv:2301.12122).
//!
//! Four layers of exactness:
//!
//! * [`exact_npn_canonical`] — the complete-and-unique canonical form by
//!   exhaustive walk over all `n!·2^{n+1}` transforms (plain-changes ×
//!   Gray code, O(1) table updates per step). The "Kitty" ground truth of
//!   Table III, practical up to `n ≈ 8`; the oracle of the next layer.
//! * [`certified_canonical`] — a class-invariant canonical form at every
//!   arity from one influence-aided walk: cofactor counts and influence
//!   pin polarity, phases and variable order, swap-symmetric variables
//!   collapse into blocks, and only the remaining ties are enumerated,
//!   in place, with a witness transform.
//! * [`npn_match`] — a pairwise exact decision procedure: backtracking
//!   over variable correspondences with cofactor/influence pruning,
//!   returning a witness [`NpnTransform`](facepoint_truth::NpnTransform).
//! * [`exact_classify`] — exact classification at any arity: signature
//!   buckets (sound: signatures are necessary conditions) refined by the
//!   matcher inside each bucket (complete: the matcher is exact).
//!   [`refine_buckets`] is that refinement step on its own, for any
//!   sound bucketing.
//!
//! The [`baselines`] module reimplements the three published heuristics
//! the paper compares against (`testnpn -6 / -7 / -11`).
//!
//! # Quick start
//!
//! ```
//! use facepoint_exact::{exact_classify, exact_npn_canonical};
//! use facepoint_truth::TruthTable;
//!
//! let maj = TruthTable::majority(3);
//! let twisted = maj.flip_var(1).swap_vars(0, 2);
//! assert_eq!(exact_npn_canonical(&maj), exact_npn_canonical(&twisted));
//!
//! let classes = exact_classify(&[maj, twisted, TruthTable::parity(3)]);
//! assert_eq!(classes.num_classes(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod baselines;
mod classify;
mod enumerate;
mod exhaustive;
mod matcher;
mod resolver;
mod unionfind;

pub use classify::{exact_classify, exact_classify_canonical, refine_buckets, ClassLabels};
pub use enumerate::{
    all_permutations, all_transforms, factorial, gray_flip_bit, npn_orbit_size, plain_changes,
};
pub use exhaustive::{
    canonical_u64, exact_npn_canonical, exact_npn_canonical_with_witness, exhaustive_states,
};
pub use matcher::{are_npn_equivalent, npn_match};
pub use resolver::{
    certified_canonical, certified_canonical_with_witness, BucketResolver, CertifiedCanonical,
    Resolved,
};
pub use unionfind::UnionFind;
