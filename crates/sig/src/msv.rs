//! The Mixed Signature Vector (MSV) — Algorithm 1 of the paper.
//!
//! The classifier computes, per truth table, a concatenation of the
//! selected signature vectors, canonicalized so that NPN-equivalent
//! functions produce byte-identical MSVs. Hash the MSV and the class map
//! falls out — no transformation enumeration.
//!
//! # Output-phase canonicalization
//!
//! Cofactor and split sensitivity vectors change under output negation, so
//! the MSV must fix the polarity:
//!
//! * *unbalanced* functions use the polarity with the smaller satisfy
//!   count (the paper's "0-ary cofactor" trick);
//! * *balanced* functions compute the raw MSV of both `f` and `¬f` and
//!   keep the lexicographically smaller one. This subsumes the paper's
//!   Theorem 3/4 rule of placing the smaller of `OSV0`/`OSV1` first and
//!   also fixes the cofactor sections, which the swap rule alone leaves
//!   ambiguous.
//!
//! # Output-negation derivation rules
//!
//! `raw_msv(¬f)` never needs a second pass (or a materialized `¬f`):
//! every section derives from `f`'s ingredients, which is what
//! [`SigKernel`](crate::SigKernel) exploits:
//!
//! | section | under `f ↦ ¬f` | why |
//! |---|---|---|
//! | `OIV` | unchanged | the derivative `f ⊕ f[x←¬x]` is invariant under complement |
//! | `OCVℓ` | each count `c ↦ 2^{n−ℓ} − c`; sorted order reverses | a face holds `2^{n−ℓ}` points, `¬f` satisfies the complement |
//! | `OSV0`/`OSV1` | swap | sensitivities are derivative column sums (invariant); 0-minterms of `¬f` are 1-minterms of `f` |
//! | `OSDV0`/`OSDV1` | swap | same filter swap over the invariant sensitivity groups |
//! | sorted \|Walsh\| | unchanged | `W(¬f) = −W(f)` pointwise |
//!
//! The sections of `f` and `¬f` therefore always have equal lengths,
//! so the balanced-function lexicographic minimum can be decided in
//! lockstep, stage by stage, at the first differing word.

use crate::cofactor::{ocv1, ocv2};
use crate::distance::{osdv_from_profile, MintermFilter};
use crate::influence::oiv;
use crate::sensitivity::SensitivityProfile;
use facepoint_truth::TruthTable;
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// A set of signature-vector families to include in an MSV.
///
/// Combine with `|`:
///
/// ```
/// use facepoint_sig::SignatureSet;
///
/// let set = SignatureSet::OIV | SignatureSet::OSV;
/// assert!(set.contains(SignatureSet::OIV));
/// assert!(!set.contains(SignatureSet::OCV1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignatureSet(u8);

impl SignatureSet {
    /// No signatures (classifies everything of equal arity together).
    pub const EMPTY: Self = SignatureSet(0);
    /// 1-ary ordered cofactor vector.
    pub const OCV1: Self = SignatureSet(1 << 0);
    /// 2-ary ordered cofactor vector.
    pub const OCV2: Self = SignatureSet(1 << 1);
    /// Ordered influence vector.
    pub const OIV: Self = SignatureSet(1 << 2);
    /// Ordered (split) sensitivity vectors `OSV0`/`OSV1`.
    pub const OSV: Self = SignatureSet(1 << 3);
    /// Ordered (split) sensitivity-distance vectors `OSDV0`/`OSDV1`.
    pub const OSDV: Self = SignatureSet(1 << 4);
    /// Sorted absolute Walsh spectrum — an *extension* beyond the paper
    /// (its related work cites spectral matching; this library offers it
    /// as an extra NPN-invariant family for ablation).
    pub const WALSH: Self = SignatureSet(1 << 5);
    /// 3-ary ordered cofactor vector — the next "higher-ary" face
    /// signature (Definition 6). The paper notes computing all-ary
    /// cofactor signatures is time-consuming; this family exists to
    /// quantify that trade-off (`C(n,3)·8` masked popcounts per
    /// function).
    pub const OCV3: Self = SignatureSet(1 << 6);

    /// Every signature family of the paper — its "All" column
    /// (excludes the [`SignatureSet::WALSH`] extension).
    pub const fn all() -> Self {
        SignatureSet(0b1_1111)
    }

    /// The paper's families plus the Walsh-spectrum and `OCV3`
    /// extensions.
    pub const fn all_extended() -> Self {
        SignatureSet(0b111_1111)
    }

    /// Whether every family of `other` is included in `self`.
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no family is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The eight column configurations evaluated in Table II of the paper,
    /// in column order, with their display names.
    pub fn table2_columns() -> [(&'static str, SignatureSet); 8] {
        use SignatureSet as S;
        [
            ("OIV", S::OIV),
            ("OCV1", S::OCV1),
            ("OSV", S::OSV),
            ("OIV+OSV", S(S::OIV.0 | S::OSV.0)),
            ("OCV1+OSV", S(S::OCV1.0 | S::OSV.0)),
            ("OCV1+OCV2+OSV", S(S::OCV1.0 | S::OCV2.0 | S::OSV.0)),
            ("OIV+OSV+OSDV", S(S::OIV.0 | S::OSV.0 | S::OSDV.0)),
            ("All", S::all()),
        ]
    }

    /// Parses names like `"OIV+OSV+OSDV"` or `"all"` (case-insensitive).
    ///
    /// Returns `None` on an unknown component.
    pub fn parse(s: &str) -> Option<Self> {
        let mut set = SignatureSet::EMPTY;
        for part in s.split('+') {
            set |= match part.trim().to_ascii_lowercase().as_str() {
                "ocv1" => Self::OCV1,
                "ocv2" => Self::OCV2,
                "oiv" => Self::OIV,
                "osv" => Self::OSV,
                "osdv" => Self::OSDV,
                "walsh" => Self::WALSH,
                "ocv3" => Self::OCV3,
                "all" => Self::all(),
                "extended" => Self::all_extended(),
                _ => return None,
            };
        }
        Some(set)
    }
}

impl BitOr for SignatureSet {
    type Output = Self;

    fn bitor(self, rhs: Self) -> Self {
        SignatureSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for SignatureSet {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for SignatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for (name, flag) in [
            ("OCV1", Self::OCV1),
            ("OCV2", Self::OCV2),
            ("OIV", Self::OIV),
            ("OSV", Self::OSV),
            ("OSDV", Self::OSDV),
            ("WALSH", Self::WALSH),
            ("OCV3", Self::OCV3),
        ] {
            if self.contains(flag) {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A canonicalized Mixed Signature Vector.
///
/// Equal MSVs (under the same [`SignatureSet`]) are a *necessary*
/// condition for NPN equivalence — the classifier buckets on them. The
/// flattened form is ordered and self-delimiting (every section is
/// prefixed by a tag and its length), so `Eq`/`Ord`/`Hash` on the raw
/// vector are sound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Msv(Vec<u64>);

impl Msv {
    /// Wraps an already-serialized word vector (crate-internal: the
    /// kernel builds MSVs without going through `raw_msv`).
    pub(crate) fn from_words_vec(words: Vec<u64>) -> Self {
        Msv(words)
    }

    /// The flattened canonical words.
    pub fn as_words(&self) -> &[u64] {
        &self.0
    }

    /// Length in words (used by memory ablations).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty (only for `SignatureSet::EMPTY`).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Computes the canonical MSV of `f` under the selected signature set —
/// the per-function work of Algorithm 1 (lines 2–6).
///
/// NPN-equivalent functions yield equal MSVs (Theorems 1–4); distinct
/// MSVs therefore prove non-equivalence.
///
/// # Examples
///
/// ```
/// use facepoint_sig::{msv, SignatureSet};
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let f = TruthTable::random(6, &mut rng)?;
/// let g = NpnTransform::random(6, &mut rng).apply(&f);
/// assert_eq!(msv(&f, SignatureSet::all()), msv(&g, SignatureSet::all()));
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn msv(f: &TruthTable, set: SignatureSet) -> Msv {
    crate::SigKernel::new().msv(f, set)
}

/// The straightforward reference implementation of [`msv`]: recompute
/// every stage per polarity via [`raw_msv`] and take the lexicographic
/// minimum. Kept as the differential-testing and benchmarking baseline
/// for the single-pass [`SigKernel`](crate::SigKernel); both produce
/// bit-identical vectors.
pub fn msv_reference(f: &TruthTable, set: SignatureSet) -> Msv {
    let ones = f.count_ones();
    let zeros = f.num_bits() - ones;
    if ones < zeros {
        raw_msv(f, set)
    } else if ones > zeros {
        raw_msv(&!f, set)
    } else {
        let a = raw_msv(f, set);
        let b = raw_msv(&!f, set);
        a.min(b)
    }
}

/// The polarity-sensitive MSV of `f` as given (no output-phase
/// canonicalization). Invariant under input negation/permutation only.
///
/// Exposed for tests and for studying the balanced-function rule; use
/// [`msv`] for classification.
pub fn raw_msv(f: &TruthTable, set: SignatureSet) -> Msv {
    let mut out: Vec<u64> = vec![f.num_vars() as u64];
    for stage in STAGE_ORDER {
        if set.contains(stage) {
            push_stage_sections(f, stage, &mut out);
        }
    }
    Msv(out)
}

/// Canonical serialization order of the signature families, cheapest
/// first.
///
/// Both the flat MSV and `facepoint-core`'s hierarchical classifier walk
/// the families in this order, which makes their balanced-function
/// polarity choices (lexicographic minima) provably coincide.
pub const STAGE_ORDER: [SignatureSet; 7] = [
    SignatureSet::OIV,
    SignatureSet::OCV1,
    SignatureSet::OSV,
    SignatureSet::OCV2,
    SignatureSet::WALSH,
    SignatureSet::OSDV,
    SignatureSet::OCV3,
];

/// Appends the tagged section(s) of exactly one signature family to
/// `out` — the shared serialization step of [`raw_msv`] and the staged
/// classifier.
///
/// # Panics
///
/// Panics if `stage` is not a single family from [`STAGE_ORDER`].
pub fn push_stage_sections(f: &TruthTable, stage: SignatureSet, out: &mut Vec<u64>) {
    fn push_section(out: &mut Vec<u64>, tag: u64, data: &[u64]) {
        out.push(tag);
        out.push(data.len() as u64);
        out.extend_from_slice(data);
    }
    match stage {
        s if s == SignatureSet::OIV => {
            let v: Vec<u64> = oiv(f).iter().map(|&x| x as u64).collect();
            push_section(out, 3, &v);
        }
        s if s == SignatureSet::OCV1 => {
            let v: Vec<u64> = ocv1(f).iter().map(|&x| x as u64).collect();
            push_section(out, 1, &v);
        }
        s if s == SignatureSet::OCV2 => {
            let v: Vec<u64> = ocv2(f).iter().map(|&x| x as u64).collect();
            push_section(out, 2, &v);
        }
        s if s == SignatureSet::OCV3 => {
            if f.num_vars() >= 3 {
                let v: Vec<u64> = crate::cofactor::ocv(f, 3)
                    .iter()
                    .map(|&x| x as u64)
                    .collect();
                push_section(out, 9, &v);
            }
        }
        s if s == SignatureSet::OSV => {
            let profile = SensitivityProfile::compute(f);
            let (h0, h1) = profile.histograms_by_value(f);
            push_section(out, 4, &h0);
            push_section(out, 5, &h1);
        }
        s if s == SignatureSet::OSDV => {
            let profile = SensitivityProfile::compute(f);
            let d0 = osdv_from_profile(f, &profile, MintermFilter::Zeros);
            let d1 = osdv_from_profile(f, &profile, MintermFilter::Ones);
            push_section(out, 6, &d0.flatten());
            push_section(out, 7, &d1.flatten());
        }
        s if s == SignatureSet::WALSH => {
            let spec: Vec<u64> = crate::spectral::walsh_spectrum_sorted_abs(f)
                .into_iter()
                .map(|v| v as u64)
                .collect();
            push_section(out, 8, &spec);
        }
        other => panic!("push_stage_sections takes a single family, got {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn signature_set_algebra() {
        let s = SignatureSet::OIV | SignatureSet::OSDV;
        assert!(s.contains(SignatureSet::OIV));
        assert!(s.contains(SignatureSet::OSDV));
        assert!(!s.contains(SignatureSet::OSV));
        assert!(SignatureSet::all().contains(s));
        assert!(SignatureSet::EMPTY.is_empty());
    }

    #[test]
    fn parse_roundtrip() {
        for (name, set) in SignatureSet::table2_columns() {
            if name == "All" {
                assert_eq!(SignatureSet::parse("all"), Some(SignatureSet::all()));
            } else {
                assert_eq!(SignatureSet::parse(name), Some(set), "{name}");
            }
        }
        assert_eq!(SignatureSet::parse("nope"), None);
        assert_eq!(
            SignatureSet::parse("ocv1+OCV2"),
            Some(SignatureSet::OCV1 | SignatureSet::OCV2)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(
            format!("{}", SignatureSet::OIV | SignatureSet::OSV),
            "OIV+OSV"
        );
        assert_eq!(format!("{}", SignatureSet::EMPTY), "∅");
    }

    #[test]
    fn msv_invariant_under_npn_all_arities() {
        let mut rng = StdRng::seed_from_u64(61);
        for n in 0..=7usize {
            for _ in 0..12 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                assert_eq!(
                    msv(&f, SignatureSet::all()),
                    msv(&g, SignatureSet::all()),
                    "n = {n}, f = {f}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn msv_distinguishes_majority_from_projection() {
        let f1 = TruthTable::majority(3);
        let f3 = TruthTable::projection(3, 2).unwrap();
        assert_ne!(msv(&f1, SignatureSet::OIV), msv(&f3, SignatureSet::OIV));
    }

    #[test]
    fn balanced_polarity_canonicalization() {
        // For a balanced function, f and ¬f must collide.
        let mut rng = StdRng::seed_from_u64(67);
        let mut checked = 0;
        while checked < 10 {
            let f = TruthTable::random(5, &mut rng).unwrap();
            if !f.is_balanced() {
                continue;
            }
            assert_eq!(msv(&f, SignatureSet::all()), msv(&!&f, SignatureSet::all()));
            checked += 1;
        }
    }

    #[test]
    fn unbalanced_polarity_canonicalization() {
        let f = TruthTable::from_hex(4, "0017").unwrap(); // 4 ones of 16
        assert_eq!(msv(&f, SignatureSet::all()), msv(&!&f, SignatureSet::all()));
    }

    #[test]
    fn arity_always_separates() {
        let a = TruthTable::zero(3).unwrap();
        let b = TruthTable::zero(4).unwrap();
        assert_ne!(msv(&a, SignatureSet::EMPTY), msv(&b, SignatureSet::EMPTY));
    }

    #[test]
    fn walsh_extension_is_npn_invariant() {
        let mut rng = StdRng::seed_from_u64(83);
        for n in 1..=6usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                assert_eq!(
                    msv(&f, SignatureSet::all_extended()),
                    msv(&t.apply(&f), SignatureSet::all_extended()),
                    "n = {n}, f = {f}"
                );
            }
        }
    }

    #[test]
    fn walsh_parse_and_display() {
        assert_eq!(SignatureSet::parse("walsh"), Some(SignatureSet::WALSH));
        assert_eq!(
            SignatureSet::parse("all+walsh"),
            Some(SignatureSet::all() | SignatureSet::WALSH)
        );
        assert_eq!(
            SignatureSet::parse("extended"),
            Some(SignatureSet::all_extended())
        );
        assert_eq!(SignatureSet::parse("ocv3"), Some(SignatureSet::OCV3));
        assert!(SignatureSet::all_extended().contains(SignatureSet::all()));
        assert!(!SignatureSet::all().contains(SignatureSet::WALSH));
        assert_eq!(format!("{}", SignatureSet::WALSH), "WALSH");
    }

    #[test]
    fn walsh_never_decreases_discrimination() {
        // Adding a section can only split candidate classes further.
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(89);
        let fns: Vec<TruthTable> = (0..120)
            .map(|_| TruthTable::random(5, &mut rng).unwrap())
            .collect();
        let base: HashSet<Msv> = fns.iter().map(|f| msv(f, SignatureSet::all())).collect();
        let ext: HashSet<Msv> = fns
            .iter()
            .map(|f| msv(f, SignatureSet::all_extended()))
            .collect();
        assert!(ext.len() >= base.len());
    }

    #[test]
    fn sections_are_tagged_and_delimited() {
        let f = TruthTable::majority(3);
        let m = raw_msv(&f, SignatureSet::OCV1 | SignatureSet::OIV);
        // Stage order puts OIV before OCV1:
        // [n, tag=3, len=3, oiv..., tag=1, len=6, ocv1...]
        let w = m.as_words();
        assert_eq!(w[0], 3);
        assert_eq!(w[1], 3);
        assert_eq!(w[2], 3);
        assert_eq!(&w[3..6], &[2, 2, 2]);
        assert_eq!(w[6], 1);
        assert_eq!(w[7], 6);
        assert_eq!(&w[8..14], &[1, 1, 1, 3, 3, 3]);
    }

    #[test]
    fn raw_msv_equals_concatenated_stages() {
        // The flat vector is exactly the stage-ordered concatenation —
        // the invariant the hierarchical classifier relies on.
        let f = TruthTable::from_hex(4, "9ce1").unwrap();
        let set = SignatureSet::all_extended();
        let mut expected: Vec<u64> = vec![4];
        for stage in STAGE_ORDER {
            if set.contains(stage) {
                push_stage_sections(&f, stage, &mut expected);
            }
        }
        assert_eq!(raw_msv(&f, set).as_words(), &expected[..]);
    }
}
