//! # facepoint-truth
//!
//! Bit-parallel truth tables and NPN transform algebra for Boolean
//! functions of up to 16 variables — the substrate of the *facepoint*
//! workspace, which reproduces the DATE 2023 paper *"Rethinking NPN
//! Classification from Face and Point Characteristics of Boolean
//! Functions"* (arXiv:2301.12122).
//!
//! A truth table is a `2^n`-bit string packed into `u64` words: bit `i`
//! holds `f((i)₂)` with variable `x₀` in the least-significant position of
//! the minterm index (the paper's Section II-A convention, shared with the
//! C++ `kitty` library). On top of the packed representation the crate
//! provides
//!
//! * Boolean operators (`&`, `|`, `^`, `!`) and Shannon
//!   cofactors/restrictions ([`TruthTable::cofactor`],
//!   [`TruthTable::cofactor_count`]) — the *face* operations,
//! * NP transformations: input flips ([`TruthTable::flip_var`]), variable
//!   swaps and permutations, and the full [`NpnTransform`] group with
//!   composition and inversion,
//! * functional-support analysis ([`TruthTable::shrink_to_support`]),
//! * hex/binary round-tripping and uniform random sampling.
//!
//! # Quick start
//!
//! ```
//! use facepoint_truth::{NpnTransform, Permutation, TruthTable};
//!
//! // The 3-input majority function (Fig. 1a of the paper).
//! let maj = TruthTable::majority(3);
//! assert_eq!(maj.to_hex(), "e8");
//!
//! // An NPN transform of it (Fig. 1b is one such function).
//! let t = NpnTransform::new(Permutation::from_slice(&[2, 0, 1])?, 0b011, true);
//! let g = t.apply(&maj);
//!
//! // Transforms invert: g maps back to maj.
//! assert_eq!(t.inverse().apply(&g), maj);
//! # Ok::<(), facepoint_truth::Error>(())
//! ```
//!
//! The raw word-level kernels (variable masks, delta swaps) are exported in
//! [`words`] for performance-critical canonicalization loops.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cofactor;
mod error;
mod hex;
mod ops;
mod random;
mod support;
mod table;
mod transform;
mod unate;
pub mod words;

pub use error::{Error, Result};
pub use hex::hex_digits;
pub use table::{Ones, TruthTable};
pub use transform::{NpnTransform, Permutation};
pub use unate::Unateness;
pub use words::MAX_VARS;
