//! Validates the `BENCH_*.json` trajectory files and gates throughput
//! regressions — the teeth of the CI `bench-trajectory` job.
//!
//! ```text
//! cargo run --release -p facepoint-bench --bin check_bench -- \
//!     --dir CANDIDATE_DIR [--baseline BASELINE_DIR] \
//!     [--max-regress 0.25] [--min-journal-ratio 0.6] \
//!     [--min-sig-speedup 2.3] [--min-certified-ratio 1.0] \
//!     [--analysis-report PATH [--analysis-only]]
//! ```
//!
//! * schema: both files must parse, carry the expected fields, and
//!   every throughput must be a positive number;
//! * kernel speedup: every `BENCH_signatures.json` row at n ≥ 9 must
//!   meet `--min-sig-speedup` (default 2.3 — the acceptance floor for
//!   the signature kernel's `speedup` over the two-pass reference; the
//!   quick CI sweep stops at n = 8 and is exempt by construction);
//! * durability tax: every engine row must record `journal_ratio`
//!   (journaled / in-memory ingest throughput), and the n = 8 row must
//!   meet `--min-journal-ratio` (default 0.6 — the repo's acceptance
//!   floor);
//! * certified tier: every engine row must record
//!   `certified_fns_per_sec`, `certified_classes` and
//!   `certified_ratio` (certified / digest ingest throughput over the
//!   same workload), and every ratio must meet `--min-certified-ratio`
//!   (default 1.0 — proving the classes must cost no throughput, since
//!   a within-budget certified miss is one canonical walk where a
//!   digest miss is one signature key; pass `0` to validate schema
//!   only);
//! * regression: with `--baseline`, rows sharing an `n` are compared
//!   and the candidate must reach `1 - max_regress` of the committed
//!   throughput (default: fail on >25% regression);
//! * analysis report: with `--analysis-report`, the
//!   `facepoint-analysis --report` JSON (schema version 1, see
//!   `docs/ANALYSIS.md`) must carry the expected shape: the tool tag,
//!   a `counts` object naming every checker, and `findings`/`allowed`
//!   arrays whose entries are fully typed (allowed entries must record
//!   a non-empty `reason`), with `counts` agreeing with the `findings`
//!   array. `--analysis-only` skips the bench-file checks so the CI
//!   `analysis` job can gate the report without trajectory files.
//!
//! Exits non-zero with one line per violation.
#![forbid(unsafe_code)]

use facepoint_bench::json::{parse, Json};
use facepoint_bench::{arg_num, arg_value};
use std::collections::BTreeMap;
use std::path::Path;

struct Checker {
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, msg: String) {
        eprintln!("FAIL: {msg}");
        self.failures.push(msg);
    }
}

/// Per-file schema: required result-row numeric fields, and which one
/// is the headline throughput used for regression gating.
struct Schema {
    file: &'static str,
    bench: &'static str,
    row_fields: &'static [&'static str],
    /// Required numeric fields that may legitimately be zero (latency
    /// percentiles of an empty histogram), unlike `row_fields` which
    /// must be strictly positive.
    nonneg_row_fields: &'static [&'static str],
    throughput_field: &'static str,
}

const SCHEMAS: [Schema; 2] = [
    Schema {
        file: "BENCH_signatures.json",
        bench: "signature_key",
        row_fields: &[
            "n",
            "functions",
            "kernel_fns_per_sec",
            "reference_fns_per_sec",
            "speedup",
        ],
        nonneg_row_fields: &[],
        throughput_field: "kernel_fns_per_sec",
    },
    Schema {
        file: "BENCH_engine.json",
        bench: "engine",
        row_fields: &[
            "n",
            "functions",
            "workers",
            "fns_per_sec",
            "classes",
            "journaled_fns_per_sec",
            "journal_ratio",
            "certified_fns_per_sec",
            "certified_classes",
            "certified_ratio",
        ],
        nonneg_row_fields: &[
            "chunk_p50_nanos",
            "chunk_p90_nanos",
            "chunk_p99_nanos",
            "chunk_max_nanos",
        ],
        throughput_field: "fns_per_sec",
    },
];

/// Loads one bench file and returns `n → headline throughput`, schema
/// violations recorded on the way.
fn load(dir: &Path, schema: &Schema, check: &mut Checker) -> BTreeMap<u64, f64> {
    let path = dir.join(schema.file);
    let mut by_n = BTreeMap::new();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            check.fail(format!("{}: {e}", path.display()));
            return by_n;
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            check.fail(format!("{}: {e}", path.display()));
            return by_n;
        }
    };
    match doc.get("bench").and_then(Json::as_str) {
        Some(b) if b == schema.bench => {}
        other => check.fail(format!(
            "{}: \"bench\" is {other:?}, expected {:?}",
            path.display(),
            schema.bench
        )),
    }
    for field in ["set", "workload"] {
        if doc.get(field).and_then(Json::as_str).is_none() {
            check.fail(format!("{}: missing string \"{field}\"", path.display()));
        }
    }
    if doc.get("unix_time").and_then(Json::as_f64).is_none() {
        check.fail(format!("{}: missing number \"unix_time\"", path.display()));
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        check.fail(format!("{}: missing \"results\" array", path.display()));
        return by_n;
    };
    if results.is_empty() {
        check.fail(format!("{}: empty \"results\"", path.display()));
    }
    for (i, row) in results.iter().enumerate() {
        for field in schema.row_fields {
            match row.get(field).and_then(Json::as_f64) {
                Some(v) if v > 0.0 => {}
                Some(v) => check.fail(format!(
                    "{} results[{i}]: \"{field}\" = {v} is not positive",
                    path.display()
                )),
                None => check.fail(format!(
                    "{} results[{i}]: missing number \"{field}\"",
                    path.display()
                )),
            }
        }
        for field in schema.nonneg_row_fields {
            match row.get(field).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => {}
                Some(v) => check.fail(format!(
                    "{} results[{i}]: \"{field}\" = {v} is negative",
                    path.display()
                )),
                None => check.fail(format!(
                    "{} results[{i}]: missing number \"{field}\"",
                    path.display()
                )),
            }
        }
        if let (Some(n), Some(fps)) = (
            row.get("n").and_then(Json::as_f64),
            row.get(schema.throughput_field).and_then(Json::as_f64),
        ) {
            by_n.insert(n as u64, fps);
        }
    }
    by_n
}

/// Validates a `facepoint-analysis --report` JSON file (schema
/// version 1): shape, per-entry field types, and `counts` agreeing
/// with the `findings` array.
fn check_analysis_report(path: &Path, check: &mut Checker) {
    const CHECKS: [&str; 5] = [
        "lock-discipline",
        "no-alloc",
        "protocol-drift",
        "unsafe-audit",
        "pragma",
    ];
    let name = path.display();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            check.fail(format!("{name}: {e}"));
            return;
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            check.fail(format!("{name}: {e}"));
            return;
        }
    };
    match doc.get("tool").and_then(Json::as_str) {
        Some("facepoint-analysis") => {}
        other => check.fail(format!(
            "{name}: \"tool\" is {other:?}, expected \"facepoint-analysis\""
        )),
    }
    match doc.get("version").and_then(Json::as_f64) {
        Some(1.0) => {}
        other => check.fail(format!("{name}: \"version\" is {other:?}, expected 1")),
    }
    match doc.get("files_scanned").and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        other => check.fail(format!(
            "{name}: \"files_scanned\" is {other:?}, expected a positive count"
        )),
    }
    let mut declared: BTreeMap<&str, u64> = BTreeMap::new();
    match doc.get("counts") {
        Some(counts) => {
            for c in CHECKS {
                match counts.get(c).and_then(Json::as_f64) {
                    Some(v) if v >= 0.0 && v.fract() == 0.0 => {
                        declared.insert(c, v as u64);
                    }
                    other => check.fail(format!(
                        "{name}: counts[\"{c}\"] is {other:?}, expected a count"
                    )),
                }
            }
        }
        None => check.fail(format!("{name}: missing \"counts\" object")),
    }
    let mut observed: BTreeMap<&str, u64> = CHECKS.iter().map(|&c| (c, 0)).collect();
    for list in ["findings", "allowed"] {
        let Some(entries) = doc.get(list).and_then(Json::as_arr) else {
            check.fail(format!("{name}: missing \"{list}\" array"));
            continue;
        };
        for (i, entry) in entries.iter().enumerate() {
            for field in ["check", "file", "message"] {
                if entry.get(field).and_then(Json::as_str).is_none() {
                    check.fail(format!("{name} {list}[{i}]: missing string \"{field}\""));
                }
            }
            if entry.get("line").and_then(Json::as_f64).is_none() {
                check.fail(format!("{name} {list}[{i}]: missing number \"line\""));
            }
            if let Some(c) = entry.get("check").and_then(Json::as_str) {
                match observed.get_mut(c) {
                    Some(slot) => {
                        if list == "findings" {
                            *slot += 1;
                        }
                    }
                    None => check.fail(format!("{name} {list}[{i}]: unknown check {c:?}")),
                }
            }
            if list == "allowed" {
                // An allowance without a recorded reason is exactly
                // the audit hole the report exists to close.
                match entry.get("reason").and_then(Json::as_str) {
                    Some(r) if !r.trim().is_empty() => {}
                    _ => check.fail(format!(
                        "{name} allowed[{i}]: missing non-empty string \"reason\""
                    )),
                }
            }
        }
    }
    for (c, n) in &declared {
        if observed.get(c) != Some(n) {
            check.fail(format!(
                "{name}: counts[\"{c}\"] = {n} but the findings array has {}",
                observed.get(c).copied().unwrap_or(0)
            ));
        }
    }
    if check.failures.is_empty() {
        println!(
            "{name}: analysis report validated ({} finding(s), {} allowed)",
            doc.get("findings")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len),
            doc.get("allowed")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = arg_value(&args, "--dir").unwrap_or_else(|| ".".to_string());
    let baseline = arg_value(&args, "--baseline");
    let max_regress: f64 = arg_num(&args, "--max-regress", 0.25);
    let min_journal_ratio: f64 = arg_num(&args, "--min-journal-ratio", 0.6);
    let min_sig_speedup: f64 = arg_num(&args, "--min-sig-speedup", 2.3);
    let min_certified_ratio: f64 = arg_num(&args, "--min-certified-ratio", 1.0);
    let analysis_report = arg_value(&args, "--analysis-report");
    let analysis_only = args.iter().any(|a| a == "--analysis-only");
    let dir = Path::new(&dir);
    let mut check = Checker {
        failures: Vec::new(),
    };

    if let Some(report) = &analysis_report {
        check_analysis_report(Path::new(report), &mut check);
    } else if analysis_only {
        check.fail("--analysis-only requires --analysis-report".to_string());
    }
    if analysis_only {
        finish(&check);
        return;
    }

    for schema in &SCHEMAS {
        let candidate = load(dir, schema, &mut check);
        println!("{}: {} result rows validated", schema.file, candidate.len());
        if let Some(base_dir) = &baseline {
            let mut base_check = Checker {
                failures: Vec::new(),
            };
            let base = load(Path::new(base_dir), schema, &mut base_check);
            // A broken baseline shouldn't fail the candidate — it is
            // the committed file's problem; report and move on.
            for msg in base_check.failures {
                eprintln!("note: baseline {msg}");
            }
            for (n, base_fps) in base {
                let Some(&cand_fps) = candidate.get(&n) else {
                    continue; // --quick sweeps fewer n
                };
                let floor = base_fps * (1.0 - max_regress);
                if cand_fps < floor {
                    check.fail(format!(
                        "{} n={n}: {cand_fps:.0} fn/s is a >{:.0}% regression \
                         vs committed {base_fps:.0} fn/s",
                        schema.file,
                        max_regress * 100.0
                    ));
                } else {
                    println!(
                        "{} n={n}: {cand_fps:.0} fn/s vs baseline {base_fps:.0} fn/s ok",
                        schema.file
                    );
                }
            }
        }
    }

    // The kernel floor: the signature kernel must clear
    // min_sig_speedup over the two-pass reference on every
    // large-arity row present (the quick sweep stops at n = 8 and is
    // exempt by construction).
    let sig_path = dir.join("BENCH_signatures.json");
    if let Ok(text) = std::fs::read_to_string(&sig_path) {
        if let Ok(doc) = parse(&text) {
            let rows = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            for row in rows {
                let n = row.get("n").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let Some(speedup) = row.get("speedup").and_then(Json::as_f64) else {
                    continue; // already reported as a schema failure
                };
                if n < 9 {
                    continue;
                }
                if speedup < min_sig_speedup {
                    check.fail(format!(
                        "BENCH_signatures.json n={n}: speedup \
                         {speedup:.3} below the {min_sig_speedup} floor"
                    ));
                } else {
                    println!(
                        "BENCH_signatures.json n={n}: kernel at \
                         {speedup:.2}x over the reference (floor {min_sig_speedup})"
                    );
                }
            }
        }
    }

    // The durability-tax floor: journaled ingest at n = 8 must stay
    // within min_journal_ratio of in-memory ingest.
    let engine_path = dir.join("BENCH_engine.json");
    if let Ok(text) = std::fs::read_to_string(&engine_path) {
        if let Ok(doc) = parse(&text) {
            let rows = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            for (i, row) in rows.iter().enumerate() {
                let n = row.get("n").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                // Latency percentiles must form a monotone ladder —
                // the histogram's structural invariant, re-checked at
                // the artifact boundary so a hand-edited file fails
                // too. Missing fields are already schema failures.
                let quantile = |f: &str| row.get(f).and_then(Json::as_f64);
                if let (Some(p50), Some(p90), Some(p99), Some(max)) = (
                    quantile("chunk_p50_nanos"),
                    quantile("chunk_p90_nanos"),
                    quantile("chunk_p99_nanos"),
                    quantile("chunk_max_nanos"),
                ) {
                    if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
                        check.fail(format!(
                            "BENCH_engine.json results[{i}]: chunk latency \
                             percentiles not monotone: p50 {p50} p90 {p90} \
                             p99 {p99} max {max}"
                        ));
                    }
                }
                // Every row carries the certified tier over the same
                // workload (a schema field); floor its ratio on each.
                match row.get("certified_ratio").and_then(Json::as_f64) {
                    Some(ratio) if ratio < min_certified_ratio => check.fail(format!(
                        "BENCH_engine.json n={n}: certified_ratio {ratio:.3} \
                         below the {min_certified_ratio} floor"
                    )),
                    Some(ratio) => println!(
                        "BENCH_engine.json n={n}: certified_ratio {ratio:.3} \
                         (floor {min_certified_ratio})"
                    ),
                    None => {} // already reported as a schema failure
                }
                let Some(ratio) = row.get("journal_ratio").and_then(Json::as_f64) else {
                    continue; // already reported as a schema failure
                };
                if n == 8 && ratio < min_journal_ratio {
                    check.fail(format!(
                        "BENCH_engine.json n=8: journal_ratio {ratio:.3} below \
                         the {min_journal_ratio} floor"
                    ));
                }
            }
        }
    }

    finish(&check);
}

fn finish(check: &Checker) {
    if check.failures.is_empty() {
        println!("check_bench: all checks passed");
    } else {
        eprintln!("check_bench: {} failure(s)", check.failures.len());
        std::process::exit(1);
    }
}
