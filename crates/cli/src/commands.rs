//! Subcommand implementations. Every command returns its report as a
//! `String` so it can be asserted in tests; `main` only prints.

use crate::parse::parse_table;
use facepoint_aig::{Aig, Extractor};
use facepoint_core::{Classification, Classifier};
use facepoint_engine::{Engine, EngineConfig, Resolution};
use facepoint_exact::baselines::{CanonicalClassifier, Huang13, Petkovska16, Zhou20};
use facepoint_exact::{exact_npn_canonical, npn_match};
use facepoint_serve::{Client, Server, ServerConfig};
use facepoint_sig::{ocv1, ocv2, oiv, osdv, osdv0, osdv1, osv, osv0, osv1, SignatureSet};
use facepoint_truth::TruthTable;
use std::fmt;

/// CLI-level errors (argument and input problems).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CliError {
    /// Unknown subcommand or missing arguments.
    Usage(String),
    /// A truth-table argument failed to parse.
    BadTable(String),
    /// A file could not be read or parsed.
    BadInput(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::BadTable(m) => write!(f, "bad truth table: {m}"),
            CliError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

const USAGE: &str = "facepoint <classify|sig|canon|match|cuts|suite|recover|serve|client> [args]
  classify [--set SET] [--exact] [--certified] [--parallel N] [--persist DIR] [FILE]
                                           classify hex tables (stdin or FILE);
                                           --parallel routes through the sharded
                                           engine with N workers (0 = all cores);
                                           --certified resolves every signature
                                           bucket to a proved NPN class (implies
                                           the engine);
                                           --persist journals the class store to
                                           DIR (implies the engine) and resumes
                                           any census already stored there
  sig <table>                              print every signature vector
  canon <table> [--method M]               canonical form (exact default)
  match <a> <b>                            NPN equivalence + witness
  cuts <file.aag> [--support N] [--limit K]  cut functions of an AIGER file
  suite [--support N] [--limit K] [--classify] [--certified] [--parallel N] [--persist DIR]
                                           synthetic benchmark workload; with
                                           --classify, stream it through the
                                           engine and report classes instead
                                           (--certified, --parallel and
                                           --persist imply --classify)
  recover <dir> [FILE]                     read a persisted class store without
                                           writing; with FILE, diff the stored
                                           census against a one-shot
                                           classification of FILE's tables
  serve <addr> [--set SET] [--certified] [--parallel N] [--persist DIR]
        [--metrics-interval SECS]          serve the engine over TCP (wire
                                           protocol: docs/PROTOCOL.md) until
                                           SIGTERM/SIGINT, which checkpoints
                                           and exits; --persist resumes and
                                           journals the census under DIR;
                                           --metrics-interval emits the full
                                           telemetry snapshot to stderr every
                                           SECS seconds, one JSON object per
                                           line
  client <addr> [FILE] [--top K]           stream FILE's tables (stdin without
         [--metrics]                       FILE) to a running server, wait for
                                           the census to drain, print the
                                           snapshot and the top K classes;
                                           --metrics instead scrapes and prints
                                           the server's telemetry snapshot
                                           (docs/PROTOCOL.md §4.12)";

/// Dispatches a full argument vector (without the program name) and
/// returns the textual report.
///
/// # Errors
///
/// Returns a [`CliError`] on unknown commands or malformed input.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().map(String::as_str);
    match cmd {
        Some("classify") => classify(&args[1..]),
        Some("sig") => sig(&args[1..]),
        Some("canon") => canon(&args[1..]),
        Some("match") => match_cmd(&args[1..]),
        Some("cuts") => cuts(&args[1..]),
        Some("suite") => suite(&args[1..]),
        Some("recover") => recover(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        _ => Err(CliError::Usage(USAGE.to_string())),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Flags with values; boolean flags are known by name.
            skip = !matches!(
                a.as_str(),
                "--exact" | "--verbose" | "--classify" | "--certified" | "--metrics"
            );
            continue;
        }
        out.push(a);
    }
    out
}

/// Parses `--parallel N` (`Some(workers)` when present; `0` = all
/// cores). A bare trailing `--parallel` is an error, not a silent
/// fallback to the serial path.
fn parallel_flag(args: &[String]) -> Result<Option<usize>, CliError> {
    let usage = || CliError::Usage("--parallel N (a worker count, 0 = auto)".into());
    match args.iter().position(|a| a == "--parallel") {
        None => Ok(None),
        Some(i) => {
            let value = args.get(i + 1).ok_or_else(usage)?;
            value.parse().map(Some).map_err(|_| usage())
        }
    }
}

/// Parses a table-per-line text (hex or `N:hex`; blank lines and `#`
/// comments skipped) — the shared input format of `classify` and
/// `recover`.
fn parse_table_lines(text: &str) -> Result<Vec<TruthTable>, CliError> {
    let mut fns = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        fns.push(parse_table(line)?);
    }
    Ok(fns)
}

/// Streams `fns` through the sharded engine — journaling to `persist`
/// when given — and returns the partition plus a stats report.
fn engine_classify(
    fns: Vec<TruthTable>,
    set: SignatureSet,
    workers: usize,
    persist: Option<&str>,
    resolution: Resolution,
) -> Result<(Classification, String), CliError> {
    let cfg = EngineConfig::builder()
        .set(set)
        .workers(workers)
        // Command-line streams routinely repeat functions (cut files,
        // concatenated dumps): a modest memo cache is nearly free and
        // pays off exactly there.
        .cache_capacity(1 << 16)
        .resolution(resolution)
        .build();
    let engine = match persist {
        Some(dir) => Engine::builder()
            .config(cfg)
            .persist(dir)
            .build()
            .map_err(|e| CliError::BadInput(format!("{dir}: {e}")))?,
        None => Engine::builder().config(cfg).build().unwrap(),
    };
    let mut lines = String::new();
    if let Some(recovered) = engine.recovery() {
        if recovered.members > 0 {
            lines.push_str(&format!("resumed: {recovered}\n"));
        }
    }
    engine.submit_batch(fns);
    let report = engine.finish();
    lines.push_str(&format!("engine: {}\n", report.stats));
    Ok((report.classification, lines))
}

fn classify(args: &[String]) -> Result<String, CliError> {
    let set = match flag_value(args, "--set") {
        Some(s) => SignatureSet::parse(s)
            .ok_or_else(|| CliError::Usage(format!("unknown signature set {s:?}")))?,
        None => SignatureSet::all(),
    };
    let exact = args.iter().any(|a| a == "--exact");
    let verbose = args.iter().any(|a| a == "--verbose");
    let parallel = parallel_flag(args)?;
    let files = positional(args);
    let text = match files.first() {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| CliError::BadInput(format!("{path}: {e}")))?
        }
        None => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| CliError::BadInput(e.to_string()))?;
            buf
        }
    };
    let fns = parse_table_lines(&text)?;
    // Only --exact needs the tables after classification; skip the
    // full-stream clone otherwise (streams can be huge).
    let fns_for_refine = if exact { fns.clone() } else { Vec::new() };
    let persist = flag_value(args, "--persist");
    let certified = args.iter().any(|a| a == "--certified");
    let resolution = if certified {
        Resolution::Certified
    } else {
        Resolution::Digest
    };
    // --persist and --certified imply the engine (the serial classifier
    // has neither store nor resolver); --parallel alone keeps the
    // previous behavior.
    let (classification, engine_line) = if parallel.is_some() || persist.is_some() || certified {
        let (c, line) = engine_classify(fns, set, parallel.unwrap_or(0), persist, resolution)?;
        (c, Some(line))
    } else {
        (Classifier::new(set).classify(fns), None)
    };
    let mut out = format!(
        "{} functions, {} {} classes (signatures: {set})\n",
        classification.num_functions(),
        classification.num_classes(),
        if certified { "certified" } else { "candidate" },
    );
    if let Some(line) = engine_line {
        out.push_str(&line);
    }
    if exact {
        let exact_labels = facepoint_core::refine_to_exact(&fns_for_refine, &classification);
        out.push_str(&format!(
            "{} exact classes after in-bucket matching\n",
            exact_labels.num_classes()
        ));
    }
    if verbose {
        for class in classification.classes_by_size() {
            out.push_str(&format!(
                "class {:>5}  size {:>6}  representative {}:{}\n",
                class.id(),
                class.size(),
                class.representative().num_vars(),
                class.representative().to_hex()
            ));
        }
    }
    Ok(out)
}

fn sig(args: &[String]) -> Result<String, CliError> {
    let spec = positional(args)
        .first()
        .copied()
        .ok_or_else(|| CliError::Usage("sig <table>".into()))?;
    let f = parse_table(spec)?;
    let fmt_u32 = |v: &[u32]| {
        let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        format!("({})", items.join(","))
    };
    let fmt_u64 = |v: &[u64]| {
        let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        format!("({})", items.join(","))
    };
    let mut out = format!(
        "function {}:{} |f| = {} balanced = {}\n",
        f.num_vars(),
        f.to_hex(),
        f.count_ones(),
        f.is_balanced()
    );
    out.push_str(&format!("OCV1  = {}\n", fmt_u32(&ocv1(&f))));
    out.push_str(&format!("OCV2  = {}\n", fmt_u32(&ocv2(&f))));
    out.push_str(&format!("OIV   = {}\n", fmt_u32(&oiv(&f))));
    out.push_str(&format!("OSV   = {}\n", fmt_u32(&osv(&f))));
    out.push_str(&format!("OSV0  = {}\n", fmt_u32(&osv0(&f))));
    out.push_str(&format!("OSV1  = {}\n", fmt_u32(&osv1(&f))));
    out.push_str(&format!("OSDV  = {}\n", fmt_u64(&osdv(&f).flatten())));
    out.push_str(&format!("OSDV0 = {}\n", fmt_u64(&osdv0(&f).flatten())));
    out.push_str(&format!("OSDV1 = {}\n", fmt_u64(&osdv1(&f).flatten())));
    Ok(out)
}

fn canon(args: &[String]) -> Result<String, CliError> {
    let spec = positional(args)
        .first()
        .copied()
        .ok_or_else(|| CliError::Usage("canon <table> [--method M]".into()))?;
    let f = parse_table(spec)?;
    let method = flag_value(args, "--method").unwrap_or("exact");
    let canon = match method {
        "exact" => exact_npn_canonical(&f),
        "huang13" => Huang13.canonical_form(&f),
        "petkovska16" => Petkovska16::default().canonical_form(&f),
        "zhou20" => Zhou20::default().canonical_form(&f),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method {other:?} (exact|huang13|petkovska16|zhou20)"
            )))
        }
    };
    Ok(format!(
        "{method} canonical form of {}:{} = {}:{}\n",
        f.num_vars(),
        f.to_hex(),
        canon.num_vars(),
        canon.to_hex()
    ))
}

fn match_cmd(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let (a, b) = match pos.as_slice() {
        [a, b] => (parse_table(a)?, parse_table(b)?),
        _ => return Err(CliError::Usage("match <table> <table>".into())),
    };
    if a.num_vars() != b.num_vars() {
        return Ok("NOT equivalent (different variable counts)\n".into());
    }
    match npn_match(&a, &b) {
        Some(t) => Ok(format!("NPN-EQUIVALENT via {t}\n")),
        None => Ok("NOT equivalent\n".into()),
    }
}

fn cuts(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let path = pos
        .first()
        .copied()
        .ok_or_else(|| CliError::Usage("cuts <file.aag> [--support N] [--limit K]".into()))?;
    let support: usize = flag_value(args, "--support")
        .map(|v| v.parse().map_err(|_| CliError::Usage("--support N".into())))
        .transpose()?
        .unwrap_or(4);
    let limit: usize = flag_value(args, "--limit")
        .map(|v| v.parse().map_err(|_| CliError::Usage("--limit K".into())))
        .transpose()?
        .unwrap_or(0);
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::BadInput(format!("{path}: {e}")))?;
    let aig = Aig::from_aiger(&text).map_err(|e| CliError::BadInput(e.to_string()))?;
    let mut fns = Extractor::for_support(support).extract(&aig);
    if limit != 0 {
        fns.truncate(limit);
    }
    Ok(format_tables(&fns))
}

fn suite(args: &[String]) -> Result<String, CliError> {
    let support: usize = flag_value(args, "--support")
        .map(|v| v.parse().map_err(|_| CliError::Usage("--support N".into())))
        .transpose()?
        .unwrap_or(4);
    let limit: usize = flag_value(args, "--limit")
        .map(|v| v.parse().map_err(|_| CliError::Usage("--limit K".into())))
        .transpose()?
        .unwrap_or(1000);
    let fns = facepoint_aig::cut_workload(support, limit);
    let persist = flag_value(args, "--persist");
    let certified = args.iter().any(|a| a == "--certified");
    let parallel = parallel_flag(args)?;
    // Every engine flag implies --classify, as they imply the engine in
    // `classify`.
    if args.iter().any(|a| a == "--classify")
        || persist.is_some()
        || certified
        || parallel.is_some()
    {
        // Route the workload through the streaming engine instead of
        // printing it — the end-to-end Section V flow as one command.
        let resolution = if certified {
            Resolution::Certified
        } else {
            Resolution::Digest
        };
        let (classification, engine_line) = engine_classify(
            fns,
            SignatureSet::all(),
            parallel.unwrap_or(0),
            persist,
            resolution,
        )?;
        let mut out = format!(
            "{} cut functions, {} {} classes (signatures: {})\n",
            classification.num_functions(),
            classification.num_classes(),
            if certified { "certified" } else { "candidate" },
            SignatureSet::all(),
        );
        out.push_str(&engine_line);
        return Ok(out);
    }
    Ok(format_tables(&fns))
}

/// `recover <dir> [FILE]`: read a persisted class store without
/// touching it; with FILE, diff the stored census against a one-shot
/// classification of FILE's tables (the convergence check of the
/// recovery gauntlet, as a command).
fn recover(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let dir = pos
        .first()
        .copied()
        .ok_or_else(|| CliError::Usage("recover <dir> [FILE]".into()))?;
    let snap = Engine::recover(dir).map_err(|e| CliError::BadInput(format!("{dir}: {e}")))?;
    let mut out = format!("{}\n", snap.report);
    out.push_str(&format!(
        "signature set: {} | {} resolution | {} classes, {} members\n",
        snap.set,
        snap.resolution,
        snap.classes.len(),
        snap.members()
    ));
    out.push_str(&snap.census_view().render_top(5));
    let Some(path) = pos.get(1) else {
        return Ok(out);
    };
    // Diff against a one-shot partition of FILE's tables, matched the
    // way the store partitions its classes: by signature digest for a
    // digest store, by exact NPN orbit for a certified one.
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::BadInput(format!("{path}: {e}")))?;
    let tables = parse_table_lines(&text)?;
    let num_functions = tables.len();
    // `expected_by_key` maps *store* keys to the expected class size;
    // `num_expected`/`missing` count the one-shot classes overall and
    // the ones no stored class corresponds to.
    let (num_expected, expected_by_key, missing): (
        usize,
        std::collections::HashMap<u128, usize>,
        usize,
    ) = match snap.resolution {
        Resolution::Digest => {
            let expected = Classifier::new(snap.set).classify(tables);
            let by_key: std::collections::HashMap<u128, usize> = expected
                .classes()
                .iter()
                .map(|c| {
                    (
                        facepoint_core::signature_key(c.representative(), snap.set),
                        c.size(),
                    )
                })
                .collect();
            let stored_keys: std::collections::HashSet<u128> =
                snap.classes.iter().map(|c| c.key).collect();
            let missing = by_key.keys().filter(|k| !stored_keys.contains(k)).count();
            (expected.num_classes(), by_key, missing)
        }
        Resolution::Certified => {
            // One joint exact classification of stored representatives
            // and the file's tables: a stored class and a file class
            // are the same class iff their members share a label. This
            // is robust to capped-walk representatives, whose key
            // cannot be recomputed from an arbitrary orbit member.
            let mut joint: Vec<TruthTable> = snap
                .classes
                .iter()
                .map(|c| c.representative.clone())
                .collect();
            joint.extend(tables);
            let labels = facepoint_exact::exact_classify(&joint);
            let n_stored = snap.classes.len();
            let mut size_by_label = std::collections::HashMap::new();
            for &l in &labels.labels()[n_stored..] {
                *size_by_label.entry(l).or_insert(0usize) += 1;
            }
            let by_key: std::collections::HashMap<u128, usize> = snap
                .classes
                .iter()
                .enumerate()
                .filter_map(|(i, c)| size_by_label.get(&labels.label(i)).map(|&s| (c.key, s)))
                .collect();
            let stored_labels: std::collections::HashSet<usize> =
                labels.labels()[..n_stored].iter().copied().collect();
            let missing = size_by_label
                .keys()
                .filter(|l| !stored_labels.contains(l))
                .count();
            (size_by_label.len(), by_key, missing)
        }
    };
    let mut matching = 0usize;
    let mut behind = 0usize;
    let mut ahead = 0usize;
    let mut unknown = 0usize;
    for class in &snap.classes {
        match expected_by_key.get(&class.key) {
            Some(&size) if class.size == size => matching += 1,
            Some(&size) if class.size < size => behind += 1,
            Some(_) => ahead += 1,
            None => unknown += 1,
        }
    }
    out.push_str(&format!(
        "diff vs one-shot classification of {path} \
         ({num_functions} functions, {num_expected} classes):\n",
    ));
    out.push_str(&format!(
        "  {matching} classes match exactly, {behind} behind (lost tail or \
         partial stream), {ahead} ahead (store saw more), \
         {missing} missing from store, {unknown} only in store\n",
    ));
    if missing == 0 && unknown == 0 && behind == 0 && ahead == 0 {
        out.push_str("  store census == one-shot classification\n");
    }
    Ok(out)
}

/// Spawns the `--metrics-interval` emitter: every `every`, one flat
/// JSON object (the full registry snapshot) is written to `sink` as a
/// single line — JSONL an operator can tail or pipe into a collector.
/// The thread sleeps in short ticks so the returned stop flag is
/// honored within ~25 ms, not an `every` later.
fn spawn_metrics_emitter(
    registry: std::sync::Arc<facepoint_telemetry::Registry>,
    every: std::time::Duration,
    mut sink: impl std::io::Write + Send + 'static,
) -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        const TICK: Duration = Duration::from_millis(25);
        let mut next = Instant::now() + every;
        while !flag.load(Ordering::SeqCst) {
            std::thread::sleep(TICK.min(every));
            if Instant::now() < next {
                continue;
            }
            next += every;
            if writeln!(sink, "{}", registry.render_json()).is_err() {
                return; // a dead sink ends the emitter, not the server
            }
            let _ = sink.flush();
        }
    });
    (stop, handle)
}

/// Parses `--metrics-interval SECS` (fractional seconds allowed).
fn metrics_interval_flag(args: &[String]) -> Result<Option<std::time::Duration>, CliError> {
    let usage = || CliError::Usage("--metrics-interval SECS (a positive number)".into());
    match flag_value(args, "--metrics-interval") {
        None => {
            // A bare trailing flag is an error, not a silent no-op.
            if args.iter().any(|a| a == "--metrics-interval") {
                return Err(usage());
            }
            Ok(None)
        }
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| usage())?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(usage());
            }
            Ok(Some(std::time::Duration::from_secs_f64(secs)))
        }
    }
}

/// `serve <addr>`: expose the engine over TCP (wire spec:
/// `docs/PROTOCOL.md`) until SIGTERM/SIGINT, then checkpoint (when
/// persistent) and report the final census. The listening banner goes
/// to stderr immediately; the returned report is printed on exit.
fn serve(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let addr = pos.first().copied().ok_or_else(|| {
        CliError::Usage(
            "serve <addr> [--set SET] [--certified] [--parallel N] [--persist DIR] \
             [--metrics-interval SECS]"
                .into(),
        )
    })?;
    let set = match flag_value(args, "--set") {
        Some(s) => SignatureSet::parse(s)
            .ok_or_else(|| CliError::Usage(format!("unknown signature set {s:?}")))?,
        None => SignatureSet::all(),
    };
    let workers = parallel_flag(args)?.unwrap_or(0);
    let metrics_interval = metrics_interval_flag(args)?;
    let persist = flag_value(args, "--persist");
    let resolution = if args.iter().any(|a| a == "--certified") {
        Resolution::Certified
    } else {
        Resolution::Digest
    };
    let cfg = EngineConfig::builder()
        .set(set)
        .workers(workers)
        .cache_capacity(1 << 16)
        .resolution(resolution)
        .build();
    let engine = match persist {
        Some(dir) => Engine::builder()
            .config(cfg)
            .persist(dir)
            .build()
            .map_err(|e| CliError::BadInput(format!("{dir}: {e}")))?,
        None => Engine::builder().config(cfg).build().unwrap(),
    };
    // Announce recovery *now*, not at exit: the operator of a
    // days-long serve needs immediate confirmation that the census
    // resumed rather than silently starting fresh.
    if let Some(recovered) = engine.recovery() {
        if recovered.members > 0 {
            eprintln!("resumed: {recovered}");
        }
    }
    // The registry outlives the engine handoff to the server, so the
    // emitter keeps sampling while the server owns the engine.
    let registry = engine.telemetry();
    let server = Server::bind(addr, engine, ServerConfig::default())
        .map_err(|e| CliError::BadInput(format!("{addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::BadInput(e.to_string()))?;
    eprintln!(
        "facepoint serve: listening on {local} (set {set}, {resolution} resolution, \
         protocol v{}); SIGTERM/SIGINT checkpoints and exits",
        facepoint_serve::PROTO_VERSION
    );
    let emitter =
        metrics_interval.map(|every| spawn_metrics_emitter(registry, every, std::io::stderr()));
    facepoint_serve::signal::install();
    let report = server
        .run()
        .map_err(|e| CliError::BadInput(format!("serve: {e}")))?;
    if let Some((stop, handle)) = emitter {
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = handle.join();
    }
    match report {
        Some(r) => Ok(format!("engine: {}\n", r.stats)),
        None => Ok(String::new()),
    }
}

/// `client <addr> [FILE]`: stream a file of tables to a running
/// server, wait until the census drains, and print the snapshot plus
/// the largest classes — the spec's quickstart flow as one command.
fn client(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let addr = pos
        .first()
        .copied()
        .ok_or_else(|| CliError::Usage("client <addr> [FILE] [--top K] [--metrics]".into()))?;
    let top_k: usize = flag_value(args, "--top")
        .map(|v| v.parse().map_err(|_| CliError::Usage("--top K".into())))
        .transpose()?
        .unwrap_or(5);
    // --metrics: scrape the server's telemetry snapshot (PROTOCOL.md
    // §4.12) and print it instead of streaming tables.
    if args.iter().any(|a| a == "--metrics") {
        let remote = |e: facepoint_serve::ProtoError| CliError::BadInput(format!("{addr}: {e}"));
        let mut client = Client::connect(addr).map_err(remote)?;
        let scrape = client.metrics().map_err(remote)?;
        client.quit().map_err(remote)?;
        return Ok(scrape);
    }
    use std::io::BufRead;
    let mut reader: Box<dyn BufRead> = match pos.get(1) {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| CliError::BadInput(format!("{path}: {e}")))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let remote = |e: facepoint_serve::ProtoError| CliError::BadInput(format!("{addr}: {e}"));
    let mut client = Client::connect(addr).map_err(remote)?;
    let info = client.server_info().clone();
    let mut out = format!(
        "connected to {addr}: protocol v{} set {} workers {} persistent {} resolution {}\n",
        info.version,
        info.set,
        info.workers,
        info.persistent,
        // Pre-resolution servers omit the field; their census is the
        // candidate (digest) tier.
        if info.resolution.is_empty() {
            "digest"
        } else {
            &info.resolution
        }
    );
    // Stream the input instead of materializing it: parse each line
    // locally (errors name the offending line, and tables go out in
    // the spec's normalized `n:hex` form), send per chunk, and let the
    // server's backpressure pace the reads — a census-sized file never
    // has to fit in this process's memory.
    let mut sent = 0usize;
    let mut lineno = 0usize;
    let mut chunk: Vec<String> = Vec::with_capacity(4096);
    let mut line = String::new();
    loop {
        line.clear();
        let eof = reader
            .read_line(&mut line)
            .map_err(|e| CliError::BadInput(e.to_string()))?
            == 0;
        if !eof {
            lineno += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                let f = parse_table(trimmed)
                    .map_err(|e| CliError::BadInput(format!("line {lineno}: {e}")))?;
                chunk.push(format!("{}:{}", f.num_vars(), f.to_hex()));
            }
        }
        if chunk.len() == 4096 || (eof && !chunk.is_empty()) {
            client
                .submit_batch(chunk.iter().map(String::as_str))
                .map_err(remote)?;
            sent += chunk.len();
            chunk.clear();
        }
        if eof {
            break;
        }
    }
    let snap = client
        .wait_drained(std::time::Duration::from_secs(600))
        .map_err(remote)?;
    out.push_str(&format!(
        "sent {sent} tables; census: {} submitted, {} classes\n",
        snap.submitted, snap.classes
    ));
    for class in client.top(top_k).map_err(remote)? {
        out.push_str(&format!(
            "class {:032x}  size {:>8}  representative {}\n",
            class.key, class.size, class.representative
        ));
    }
    out.push_str(&format!("server: {}\n", client.stats().map_err(remote)?));
    client.quit().map_err(remote)?;
    Ok(out)
}

fn format_tables(fns: &[TruthTable]) -> String {
    let mut out = String::new();
    for f in fns {
        out.push_str(&format!("{}:{}\n", f.num_vars(), f.to_hex()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_on_unknown_command() {
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn sig_prints_table1_values() {
        let out = run(&args(&["sig", "e8"])).unwrap();
        assert!(out.contains("OCV1  = (1,1,1,3,3,3)"), "{out}");
        assert!(out.contains("OIV   = (2,2,2)"), "{out}");
        assert!(out.contains("OSV1  = (0,2,2,2)"), "{out}");
    }

    #[test]
    fn canon_methods_agree_on_majority_orbit() {
        let a = run(&args(&["canon", "e8"])).unwrap();
        let b = run(&args(&["canon", "d4"])).unwrap(); // maj with x0 negated
        let canon_of = |s: &str| s.split('=').nth(1).unwrap().trim().to_string();
        assert_eq!(canon_of(&a), canon_of(&b));
    }

    #[test]
    fn canon_rejects_unknown_method() {
        assert!(matches!(
            run(&args(&["canon", "e8", "--method", "magic"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn match_finds_witness() {
        let out = run(&args(&["match", "e8", "d4"])).unwrap();
        assert!(out.starts_with("NPN-EQUIVALENT"), "{out}");
        let out = run(&args(&["match", "e8", "96"])).unwrap();
        assert!(out.starts_with("NOT equivalent"), "{out}");
        let out = run(&args(&["match", "e8", "cafe"])).unwrap();
        assert!(out.contains("different variable counts"), "{out}");
    }

    #[test]
    fn classify_reads_file() {
        let dir = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tables.txt");
        std::fs::write(&path, "# comment\ne8\nd4\n96\n\n3:69\n").unwrap();
        let out = run(&args(&["classify", "--verbose", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("4 functions, 2 candidate classes"), "{out}");
        let out = run(&args(&["classify", "--exact", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 exact classes"), "{out}");
    }

    #[test]
    fn classify_parallel_routes_through_engine() {
        let dir = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tables-parallel.txt");
        std::fs::write(&path, "e8\nd4\n96\n3:69\n").unwrap();
        let serial = run(&args(&["classify", path.to_str().unwrap()])).unwrap();
        let parallel = run(&args(&[
            "classify",
            "--parallel",
            "2",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            parallel.contains("4 functions, 2 candidate classes"),
            "{parallel}"
        );
        assert!(parallel.contains("engine:"), "{parallel}");
        // Same partition summary as the one-shot classifier.
        assert_eq!(
            serial.lines().next().unwrap(),
            parallel.lines().next().unwrap()
        );
        assert!(matches!(
            run(&args(&[
                "classify",
                "--parallel",
                "nope",
                path.to_str().unwrap()
            ])),
            Err(CliError::Usage(_))
        ));
        // A bare trailing --parallel must error, not silently run the
        // serial path.
        assert!(matches!(
            run(&args(&["classify", path.to_str().unwrap(), "--parallel"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn suite_classify_reports_classes() {
        let out = run(&args(&[
            "suite",
            "--support",
            "4",
            "--limit",
            "200",
            "--classify",
            "--parallel",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("cut functions"), "{out}");
        assert!(out.contains("candidate classes"), "{out}");
        assert!(out.contains("engine:"), "{out}");
    }

    #[test]
    fn suite_engine_flags_imply_classify() {
        let suite = |flags: &[&str]| {
            let mut argv = vec!["suite", "--support", "4", "--limit", "100"];
            argv.extend_from_slice(flags);
            run(&args(&argv)).unwrap()
        };
        for flags in [&["--certified"][..], &["--classify", "--certified"]] {
            let out = suite(flags);
            assert!(out.contains("certified classes"), "{flags:?}: {out}");
            assert!(out.contains("engine:"), "{flags:?}: {out}");
        }
        let out = suite(&["--parallel", "1"]);
        assert!(out.contains("100 cut functions"), "{out}");
        assert!(out.contains("candidate classes"), "{out}");
        assert!(out.contains("engine:"), "{out}");
    }

    #[test]
    fn suite_emits_parseable_tables() {
        let out = run(&args(&["suite", "--support", "4", "--limit", "10"])).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 10);
        for line in lines {
            let t = crate::parse::parse_table(line).unwrap();
            assert_eq!(t.num_vars(), 4);
        }
    }

    #[test]
    fn classify_persist_resumes_and_recover_diffs() {
        let dir =
            std::env::temp_dir().join(format!("facepoint-cli-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tables = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&tables).unwrap();
        let path = tables.join("persist-tables.txt");
        std::fs::write(&path, "e8\nd4\n96\n3:69\n").unwrap();
        let store = dir.to_str().unwrap().to_string();

        // First run: creates the store (engine implied by --persist).
        let out = run(&args(&[
            "classify",
            "--persist",
            &store,
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("4 functions, 2 candidate classes"), "{out}");
        assert!(out.contains("engine:"), "{out}");
        assert!(
            !out.contains("resumed:"),
            "fresh store resumes nothing: {out}"
        );

        // recover alone prints the stored census read-only.
        let out = run(&args(&["recover", &store])).unwrap();
        assert!(out.contains("2 classes, 4 members"), "{out}");
        assert!(out.contains("signature set: "), "{out}");

        // recover with the same FILE reports exact convergence.
        let out = run(&args(&["recover", &store, path.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("store census == one-shot classification"),
            "{out}"
        );

        // Second classify run resumes the census and doubles counts.
        let out = run(&args(&[
            "classify",
            "--persist",
            &store,
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("resumed:"), "{out}");
        let out = run(&args(&["recover", &store])).unwrap();
        assert!(out.contains("2 classes, 8 members"), "{out}");
        // Now the store is ahead of a single FILE's worth.
        let out = run(&args(&["recover", &store, path.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 ahead"), "{out}");

        // Missing directory is a usable error, not a panic.
        assert!(matches!(
            run(&args(&["recover", "/nonexistent/facepoint-store"])),
            Err(CliError::BadInput(_))
        ));
        assert!(matches!(run(&args(&["recover"])), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn classify_certified_persists_and_recovers() {
        let dir =
            std::env::temp_dir().join(format!("facepoint-cli-certified-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tables = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&tables).unwrap();
        let path = tables.join("certified-tables.txt");
        // {e8,d4} are one NPN class, {96,69} another (parity and its
        // complement).
        std::fs::write(&path, "e8\nd4\n96\n3:69\n").unwrap();
        let store = dir.to_str().unwrap().to_string();

        // --certified implies the engine and proves the partition.
        let out = run(&args(&["classify", "--certified", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("4 functions, 2 certified classes"), "{out}");
        assert!(out.contains("certified: "), "{out}");

        // A certified census persists and recovers as certified.
        let out = run(&args(&[
            "classify",
            "--certified",
            "--persist",
            &store,
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("2 certified classes"), "{out}");
        let out = run(&args(&["recover", &store])).unwrap();
        assert!(out.contains("certified resolution"), "{out}");
        assert!(out.contains("2 classes, 4 members"), "{out}");
        let out = run(&args(&["recover", &store, path.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("store census == one-shot classification"),
            "{out}"
        );

        // A digest engine must refuse the certified store (and vice
        // versa): silently mixing tiers would corrupt the census.
        assert!(matches!(
            run(&args(&[
                "classify",
                "--persist",
                &store,
                path.to_str().unwrap()
            ])),
            Err(CliError::BadInput(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_persist_writes_a_store() {
        let dir = std::env::temp_dir().join(format!(
            "facepoint-cli-suite-persist-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap().to_string();
        // --persist implies engine classification even without
        // --classify.
        let out = run(&args(&[
            "suite",
            "--support",
            "4",
            "--limit",
            "100",
            "--persist",
            &store,
        ]))
        .unwrap();
        assert!(out.contains("cut functions"), "{out}");
        assert!(out.contains("engine:"), "{out}");
        let recovered = run(&args(&["recover", &store])).unwrap();
        assert!(recovered.contains("100 members"), "{recovered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_and_client_usage_errors() {
        assert!(matches!(run(&args(&["serve"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["client"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "--set", "bogus"])),
            Err(CliError::Usage(_))
        ));
        // --metrics-interval wants a positive number of seconds.
        for bad in ["nope", "0", "-1", "inf"] {
            assert!(
                matches!(
                    run(&args(&["serve", "127.0.0.1:0", "--metrics-interval", bad])),
                    Err(CliError::Usage(_))
                ),
                "--metrics-interval {bad} accepted"
            );
        }
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "--metrics-interval"])),
            Err(CliError::Usage(_))
        ));
        // Nothing listening on a reserved port: a usable error.
        assert!(matches!(
            run(&args(&["client", "127.0.0.1:1", "/no/such/file"])),
            Err(CliError::BadInput(_))
        ));
    }

    /// A `Write` sink the emitter test can inspect from outside the
    /// emitter thread.
    #[derive(Clone, Default)]
    struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn metrics_emitter_writes_jsonl_and_stops() {
        let engine = facepoint_engine::Engine::builder()
            .config(facepoint_engine::EngineConfig {
                workers: 2,
                ..facepoint_engine::EngineConfig::default()
            })
            .build()
            .unwrap();
        let sink = SharedSink::default();
        let (stop, handle) = spawn_metrics_emitter(
            engine.telemetry(),
            std::time::Duration::from_millis(20),
            sink.clone(),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while sink.0.lock().unwrap().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "emitter never produced a line"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"engine_workers\": 2"), "{line}");
            assert!(
                line.contains("\"engine_chunk_classify_nanos_count\""),
                "{line}"
            );
        }
        drop(engine.finish());
    }

    #[test]
    fn client_streams_to_an_in_process_server() {
        let engine = facepoint_engine::Engine::builder()
            .config(facepoint_engine::EngineConfig {
                workers: 2,
                ..facepoint_engine::EngineConfig::default()
            })
            .build()
            .unwrap();
        let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let run_thread = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("client-tables.txt");
        std::fs::write(&path, "# census\ne8\nd4\n96\n3:69\n").unwrap();
        let out = run(&args(&[
            "client",
            &addr.to_string(),
            path.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("protocol v1"), "{out}");
        assert!(out.contains("sent 4 tables"), "{out}");
        assert!(out.contains("2 classes"), "{out}");
        assert!(out.contains("representative 3:"), "{out}");
        assert!(out.contains("server: "), "{out}");

        // --metrics scrapes the telemetry snapshot instead of streaming,
        // whether it comes after the address or before it.
        for argv in [
            ["client", &addr.to_string(), "--metrics"],
            ["client", "--metrics", &addr.to_string()],
        ] {
            let scrape = run(&args(&argv)).unwrap();
            assert!(scrape.contains("engine_workers 2.000000\n"), "{scrape}");
            assert!(
                scrape.contains("engine_functions_processed_total 4\n"),
                "{scrape}"
            );
            assert!(scrape.contains("serve_metrics_nanos_count"), "{scrape}");
        }

        handle.shutdown();
        let report = run_thread.join().unwrap().unwrap().unwrap();
        assert_eq!(report.classification.num_classes(), 2);
    }

    #[test]
    fn cuts_on_written_aiger() {
        let mut aig = Aig::new(4);
        let (a, b) = (aig.input(0), aig.input(1));
        let (c, d) = (aig.input(2), aig.input(3));
        let x = aig.and(a, b);
        let y = aig.and(c, d);
        let o = aig.or(x, y);
        aig.add_output(o);
        let dir = std::env::temp_dir().join("facepoint-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("circ.aag");
        std::fs::write(&path, aig.to_aiger()).unwrap();
        let out = run(&args(&["cuts", path.to_str().unwrap(), "--support", "4"])).unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            assert!(crate::parse::parse_table(line).is_ok(), "{line}");
        }
    }
}
