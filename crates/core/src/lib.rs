//! # facepoint-core
//!
//! The signature-hash NPN classifier of the DATE 2023 paper *"Rethinking
//! NPN Classification from Face and Point Characteristics of Boolean
//! Functions"* (arXiv:2301.12122) — Algorithm 1.
//!
//! Per truth table the classifier computes the configured signature
//! vectors (see [`facepoint_sig`]), assembles the canonical Mixed
//! Signature Vector, hashes it and groups equal keys. Signature equality
//! is a necessary condition for NPN equivalence, so:
//!
//! * the classifier never *splits* a true class (unlike canonical-form
//!   heuristics, which never *merge* one);
//! * the class count lower-bounds the exact count and reaches it when the
//!   signatures discriminate enough (exact for `n ≤ 7` with
//!   `OIV+OSV+OSDV` in the paper's Table II);
//! * runtime depends only on width and count of the inputs — no
//!   symmetry-dependent canonicalization search (the paper's Fig. 5
//!   stability claim).
//!
//! [`refine_to_exact`] upgrades any signature classification to an exact
//! one by running the pairwise matcher inside each bucket, and
//! [`PartitionComparison`] scores classifiers against ground truth.
//!
//! # Quick start
//!
//! ```
//! use facepoint_core::{Classifier, PartitionComparison};
//! use facepoint_sig::SignatureSet;
//! use facepoint_truth::TruthTable;
//!
//! let fns: Vec<TruthTable> = (0u64..256)
//!     .map(|b| TruthTable::from_u64(3, b).unwrap())
//!     .collect();
//! let result = Classifier::new(SignatureSet::all()).classify(fns);
//! // All 256 3-variable functions form exactly 14 NPN classes, and the
//! // full signature set classifies them exactly.
//! assert_eq!(result.num_classes(), 14);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod census;
mod classifier;
mod fnv;
mod hierarchical;
mod kernel;
mod metrics;
mod refine;
pub mod wire;

pub use census::{CensusEntry, CensusView};
pub use classifier::{signature_key, Classification, Classifier, NpnClass};
pub use fnv::{fnv128, Fnv128Stream};
pub use kernel::SignatureKernel;
pub use metrics::PartitionComparison;
pub use refine::refine_to_exact;
