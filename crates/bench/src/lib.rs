//! # facepoint-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures, and for the Criterion micro-benchmarks.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table I (signature examples) | `cargo run --release -p facepoint-bench --bin table1` |
//! | Fig. 4 (discrimination witnesses) | `… --bin fig4_search` |
//! | Table II (#classes per signature set) | `… --bin table2` |
//! | Table III (runtime/accuracy vs baselines) | `… --bin table3` |
//! | Fig. 5 (runtime stability) | `… --bin fig5` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod json;

use facepoint_truth::TruthTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Generates `count` distinct random `n`-variable truth tables
/// (deduplicated, deterministic in `seed`) — the Fig. 5 workload. The
/// paper generates "truth tables in consecutive binary encoding"; uniform
/// sampling with dedup covers the same space without its bias toward tiny
/// integers.
pub fn random_workload(n: usize, count: usize, seed: u64) -> Vec<TruthTable> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    // For tiny n the space may be smaller than `count`.
    let space: f64 = 2f64.powi(1 << n.min(20));
    let target = if space < count as f64 {
        space as usize
    } else {
        count
    };
    while out.len() < target {
        let t = TruthTable::random(n, &mut rng).expect("n validated by caller");
        if seen.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// Generates `count` uniformly random **balanced** `n`-variable truth
/// tables (`|f| = 2^{n-1}`), deterministic in `seed` — the
/// adversarial workload for output-phase canonicalization: the satisfy
/// count cannot fix the polarity, so every function exercises the
/// dual-polarity (lexicographic-minimum) path of the signature
/// pipeline.
///
/// Each table is a uniformly random half-size subset of the minterms
/// (partial Fisher–Yates selection).
///
/// # Panics
///
/// Panics if `n` is 0 (a 0-variable function cannot be balanced).
pub fn balanced_workload(n: usize, count: usize, seed: u64) -> Vec<TruthTable> {
    use rand::RngExt;
    assert!(n >= 1, "balanced tables need at least one variable");
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = 1usize << n;
    let half = bits / 2;
    let mut idx: Vec<u64> = Vec::with_capacity(bits);
    (0..count)
        .map(|_| {
            idx.clear();
            idx.extend(0..bits as u64);
            for i in 0..half {
                let j = rng.random_range(i..bits);
                idx.swap(i, j);
            }
            let mut t = TruthTable::zero(n).expect("n validated by caller");
            for &m in &idx[..half] {
                t.set_bit(m, true);
            }
            t
        })
        .collect()
}

/// Generates `groups` random `n`-variable functions, each echoed as
/// `copies` uniformly random NPN transforms of itself — a workload
/// with planted equivalences, deterministic in `seed`. This is the
/// standard cross-check stream: a classifier must map every echo of a
/// group to one class, so partitions can be compared against ground
/// truth (or against another classifier) with the planted structure
/// known.
pub fn transform_closure_workload(
    n: usize,
    groups: usize,
    copies: usize,
    seed: u64,
) -> Vec<TruthTable> {
    use facepoint_truth::NpnTransform;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fns = Vec::with_capacity(groups * copies);
    for _ in 0..groups {
        let f = TruthTable::random(n, &mut rng).expect("n validated by caller");
        for _ in 0..copies {
            fns.push(NpnTransform::random(n, &mut rng).apply(&f));
        }
    }
    fns
}

/// Generates `count` truth tables with **consecutive binary encodings**
/// starting at `start` — the paper's Fig. 5 generation ("truth tables in
/// consecutive binary encoding for each bit"). Consecutive integers make
/// highly structured functions (mostly-zero tables, dead and tied
/// variables), the worst case for canonical-form enumeration and thus
/// the workload where runtime stability differences show.
pub fn consecutive_workload(n: usize, count: usize, start: u64) -> Vec<TruthTable> {
    let bits = 1u64 << n;
    (0..count as u64)
        .map(|i| {
            if bits >= 64 {
                // Wider tables: place the counter in the low word.
                let mut words = vec![0u64; facepoint_truth::words::word_count(n)];
                words[0] = start.wrapping_add(i);
                TruthTable::from_words(n, &words).expect("n validated by caller")
            } else {
                TruthTable::from_u64(n, (start.wrapping_add(i)) & ((1 << bits) - 1))
                    .expect("n validated by caller")
            }
        })
        .collect()
}

/// Runs `f` once and returns its result with the wall-clock duration.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Formats a duration in seconds with millisecond resolution (the paper's
/// tables print seconds).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Parses `--flag value` style arguments: returns the value following
/// `flag`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a numeric `--flag value`: `default` when the flag is absent,
/// an error naming the flag when it is present but its value is
/// missing or does not parse.
fn try_arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Parses a numeric `--flag value`, `default` when the flag is absent.
/// A present flag whose value is missing or does not parse prints an
/// error naming the flag and exits with status 2.
pub fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    try_arg_num(args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Prints a row of fixed-width columns (simple table formatting shared by
/// the binaries).
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, &w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deduped_and_deterministic() {
        let a = random_workload(5, 200, 7);
        let b = random_workload(5, 200, 7);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn balanced_workload_is_balanced_and_deterministic() {
        for n in [1usize, 4, 7] {
            let a = balanced_workload(n, 20, 11);
            let b = balanced_workload(n, 20, 11);
            assert_eq!(a, b);
            assert!(a.iter().all(|t| t.is_balanced()), "n = {n}");
        }
    }

    #[test]
    fn workload_caps_at_space_size() {
        // Only 16 distinct 2-variable functions exist.
        let w = random_workload(1, 100, 3);
        assert_eq!(w.len(), 4);
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let args = strings(&["--limit", "50", "--seed", "9"]);
        assert_eq!(arg_num(&args, "--limit", 0usize), 50);
        assert_eq!(arg_num(&args, "--seed", 1u64), 9);
        assert_eq!(arg_num(&args, "--missing", 42usize), 42);
    }

    #[test]
    fn present_flag_with_bad_or_missing_value_is_an_error() {
        let args = strings(&["--max-regress", "0.1x", "--min-n", "eight", "--max-n"]);
        let err = try_arg_num(&args, "--max-regress", 0.25f64).unwrap_err();
        assert!(
            err.contains("--max-regress") && err.contains("0.1x"),
            "{err}"
        );
        let err = try_arg_num(&args, "--min-n", 4usize).unwrap_err();
        assert!(err.contains("--min-n") && err.contains("eight"), "{err}");
        let err = try_arg_num(&args, "--max-n", 8usize).unwrap_err();
        assert!(err.contains("--max-n"), "{err}");
        assert_eq!(try_arg_num(&args, "--limit", 7usize), Ok(7));
    }
}
