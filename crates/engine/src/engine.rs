//! The engine proper: ingestion, the workers fed by one bounded FIFO
//! queue, and result assembly.

use crate::cache::MemoCache;
use crate::config::{EngineConfig, PersistConfig, Resolution};
use crate::pool::IngestQueue;
use crate::stats::{EngineSnapshot, EngineStats, RecoveryReport};
use crate::store::{self, ClassSummary, ShardedStore, StoreTelemetry};
use facepoint_core::{
    signature_key, CensusEntry, CensusView, Classification, Fnv128Stream, NpnClass, SignatureKernel,
};
use facepoint_exact::{certified_canonical_with_witness, BucketResolver, CertifiedCanonical};
use facepoint_sig::SignatureSet;
use facepoint_telemetry::{LatencyHistogram, Registry};
use facepoint_truth::{NpnTransform, TruthTable};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A chunk of work: each entry carries its own submission number.
/// Explicit numbering (rather than a base + offset) is required because
/// the dedup fast path resolves a chunk's cache hits at submission,
/// leaving its queued misses with non-contiguous sequences.
struct Job {
    entries: Vec<(u64, TruthTable)>,
    /// When the submitting call started filling the chunk — the
    /// earliest submission it carries. The
    /// `engine_chunk_classify_nanos` histogram records `submitted_at →
    /// classified` per chunk, so queue wait is part of the latency, not
    /// hidden from it.
    submitted_at: Instant,
}

/// The store key of a certified class: the FNV-128 digest of its
/// canonical representative's serialized form (arity word followed by
/// the table words). Purely a function of the proved representative,
/// so any process — recovery included — recomputes the same key from
/// the stored table.
pub fn certified_key(representative: &TruthTable) -> u128 {
    let mut stream = Fnv128Stream::new();
    stream.word(representative.num_vars() as u64);
    stream.words(representative.words());
    stream.finish()
}

/// The worker-side state of [`Resolution::Certified`]: the shared
/// bucket resolver for classes past the walk's budget, the count of
/// misses keyed by an invariant label, and the latency instrument.
/// `None` everywhere in digest mode.
struct CertifiedResolve {
    resolver: Arc<BucketResolver>,
    walks: Arc<AtomicU64>,
    resolve_nanos: Arc<LatencyHistogram>,
}

impl CertifiedResolve {
    /// Resolves one miss to its certified class and returns the store
    /// key, the proved representative and whether the walk's label was
    /// class-invariant. An invariant label is the class on its own: one
    /// walk, no signature key, no matcher. Past the walk's budget the
    /// signature digest names a bucket and the resolver matches `table`
    /// against its cached representatives. The verdict is an orbit
    /// invariant, so no class is split across the two paths.
    fn resolve(
        &self,
        kernel: &mut SignatureKernel,
        table: &TruthTable,
    ) -> (u128, TruthTable, bool) {
        let started = Instant::now();
        let canon = certified_canonical_with_witness(table);
        let representative = if canon.invariant {
            canon.label
        } else {
            self.resolver
                .resolve(kernel.key(table), table)
                .representative
        };
        self.resolve_nanos.record_duration(started.elapsed());
        (
            certified_key(&representative),
            representative,
            canon.invariant,
        )
    }
}

/// What [`Engine::canon`] answers: the proved class entry plus the
/// witness transform mapping the queried function onto the
/// representative.
#[derive(Debug, Clone)]
pub struct CanonAnswer {
    /// The certified class: key (FNV-128 of the representative), the
    /// member count observed so far (`0` unless the engine runs
    /// [`Resolution::Certified`] and has seen the class), and the
    /// proved canonical representative.
    pub entry: CensusEntry,
    /// Transform `t` with `t.apply(query) == entry.representative`.
    pub witness: NpnTransform,
}

/// A read-only canonicalization endpoint detached from the [`Engine`]
/// object — see [`Engine::canon_handle`]. Cloneable; every clone keeps
/// the underlying store and resolver alive, past [`Engine::finish`]
/// included.
#[derive(Clone)]
pub struct CanonHandle {
    store: Arc<ShardedStore>,
    certified: Option<Arc<CertifiedResolve>>,
    set: SignatureSet,
}

impl CanonHandle {
    /// Answers exactly like [`Engine::canon`], without touching the
    /// engine object: one canonical walk on the calling thread, plus
    /// the member count a certified store holds under its key.
    pub fn canon(&self, f: &TruthTable) -> CanonAnswer {
        answer_canon(&self.store, self.certified.as_deref(), self.set, f)
    }
}

/// The one `canon` code path, shared by [`Engine::canon`] and
/// [`CanonHandle::canon`]: one canonical walk, whose label and witness
/// are the answer. Only a certified engine given a function past the
/// walk's budget asks the resolver for its bucket's cached
/// representative, and keeps the walk's label when the class is
/// unknown. Read-only — it never creates a class, counts a member or
/// touches the stream.
fn answer_canon(
    store: &ShardedStore,
    certified: Option<&CertifiedResolve>,
    set: SignatureSet,
    f: &TruthTable,
) -> CanonAnswer {
    let CertifiedCanonical {
        label,
        witness,
        invariant,
    } = certified_canonical_with_witness(f);
    let (representative, witness) = certified
        .filter(|_| !invariant)
        .and_then(|tier| tier.resolver.witness(signature_key(f, set), f))
        .unwrap_or((label, witness));
    let key = certified_key(&representative);
    let size = if certified.is_some() {
        store.get(key).map_or(0, |(_, size)| size as u64)
    } else {
        0
    };
    CanonAnswer {
        entry: CensusEntry {
            key,
            size,
            representative,
        },
        witness,
    }
}

/// The streaming replacement for the old per-worker `(seq, key)` log.
///
/// Workers used to accumulate every submission into a worker-local
/// `Vec` that was only collected at [`Engine::finish`] — memory grew
/// linearly with stream length, unbounded for streams larger than RAM
/// and flatly contradicting the streaming design. Now every chunk is
/// **applied as soon as it is classified**: under one short lock the
/// sink interns the chunk's keys into dense `u32` class ids and writes
/// them into a submission-indexed label array. Steady-state cost drops
/// from 24 bytes per function (`(u64, u128)` pairs) to 4, and with
/// [`EngineConfig::track_labels`] off the sink is disabled entirely —
/// the census lives in the sharded store alone and engine memory stays
/// **flat** however long the stream runs (enforced by the
/// counting-allocator regression test in `tests/memory.rs`).
#[derive(Debug)]
struct OrderSink {
    enabled: bool,
    /// First submission number of this run; labels are indexed by
    /// `seq - base`.
    base: u64,
    inner: Mutex<OrderState>,
}

#[derive(Debug, Default)]
struct OrderState {
    /// key → dense internal id, in first-applied order (remapped to
    /// first-*submitted* order when the result is assembled).
    ids: HashMap<u128, u32>,
    /// internal id → key.
    keys: Vec<u128>,
    /// `seq - base` → internal id (`u32::MAX` = not yet applied).
    labels: Vec<u32>,
}

impl OrderSink {
    fn new(enabled: bool, base: u64) -> Self {
        OrderSink {
            enabled,
            base,
            inner: Mutex::new(OrderState::default()),
        }
    }

    /// Records a classified chunk. One lock per chunk, not per
    /// function; cheap enough that workers apply in their own loop.
    // analysis: no_alloc
    fn apply(&self, entries: &[(u64, u128)]) {
        if !self.enabled || entries.is_empty() {
            return;
        }
        let mut state = self.inner.lock().expect("order sink poisoned");
        let OrderState { ids, keys, labels } = &mut *state;
        for &(seq, key) in entries {
            let id = *ids.entry(key).or_insert_with(|| {
                let id = u32::try_from(keys.len()).expect("more than u32::MAX classes");
                // analysis: allow(no-alloc, "interns a NEW class id; grows with distinct classes, not stream length (the flat-memory test pins this)")
                keys.push(key);
                id
            });
            let idx = (seq - self.base) as usize;
            if labels.len() <= idx {
                labels.resize(idx + 1, u32::MAX);
            }
            labels[idx] = id;
        }
    }

    /// Takes the accumulated state.
    fn take(&self) -> OrderState {
        std::mem::take(&mut *self.inner.lock().expect("order sink poisoned"))
    }
}

/// The sharded, parallel, streaming NPN classification engine.
///
/// See the [crate docs](crate) for the architecture. Lifecycle:
///
/// 1. create ([`Engine::new`] / [`Engine::builder`]) — workers
///    start idle;
/// 2. feed it ([`Engine::submit`], [`Engine::submit_batch`]) — keys are
///    computed and classes recorded concurrently with ingestion;
/// 3. observe mid-stream ([`Engine::snapshot`], [`Engine::top_classes`])
///    — no pause, no drain;
/// 4. [`Engine::finish`] — drains the queue, joins the workers and
///    returns the input-ordered [`Classification`] plus [`EngineStats`].
///
/// Every method but `finish` takes `&self` and the engine is
/// `Send + Sync`, so any number of threads share one engine by
/// reference (or through an `Arc`) and submit, flush and observe
/// concurrently — the service front-end feeds it from every connection
/// thread with no lock around it. `finish` consumes the engine, so no
/// submission can race it.
///
/// Dropping an unfinished engine shuts the workers down without
/// assembling a result.
pub struct Engine {
    cfg: EngineConfig,
    workers: usize,
    shards: usize,
    store: Arc<ShardedStore>,
    cache: Arc<MemoCache>,
    processed: Arc<AtomicU64>,
    queue: Arc<IngestQueue<Job>>,
    order: Arc<OrderSink>,
    handles: Vec<JoinHandle<()>>,
    /// Next submission number: submission order is the global
    /// allocation order of this counter, across every producer thread.
    next_seq: Arc<AtomicU64>,
    /// Functions that skipped the queue via the dedup fast path.
    dedup_hits: Arc<AtomicU64>,
    /// First submission number of *this run*: `0` for a fresh engine,
    /// the recovered member count after a durable reopen — so
    /// resubmitted members never outrank a recovered representative.
    base_seq: u64,
    /// What recovery found when the engine was built over an existing
    /// durable store.
    recovery: Option<RecoveryReport>,
    /// Epoch barriers issued so far (see [`Engine::flush`]).
    epoch: AtomicU64,
    started: Instant,
    /// The metrics registry behind [`Engine::telemetry`]: every
    /// instrument of this engine (and, through `facepoint serve`, of
    /// the service wrapping it) lives here.
    telemetry: Arc<Registry>,
    /// The certified bucket resolver and the count of misses keyed by
    /// an invariant label. Constructed in every mode so the telemetry
    /// schema (`engine_canon_*`) is stable across modes; only
    /// [`Resolution::Certified`] routes classifications through them,
    /// and only functions past the walk's budget reach the resolver.
    resolver: Arc<BucketResolver>,
    canon_walks: Arc<AtomicU64>,
    /// Worker-side certified-resolution context; `None` in digest mode.
    certified: Option<Arc<CertifiedResolve>>,
}

/// A read-only view of a durable store's contents, produced by
/// [`Engine::recover`] without starting any workers or modifying a
/// byte on disk.
#[derive(Debug, Clone)]
pub struct RecoveredSnapshot {
    /// Signature set the store's keys were computed under (from the
    /// manifest).
    pub set: SignatureSet,
    /// Resolution tier the store was built under (from the manifest's
    /// key-scheme marker): certified stores key classes by their proved
    /// representative, digest stores by the signature digest.
    pub resolution: Resolution,
    /// Every recovered class, largest first (ties broken by key).
    pub classes: Vec<ClassSummary>,
    /// Replay accounting: classes, members, torn tails, epochs.
    pub report: RecoveryReport,
}

impl RecoveredSnapshot {
    /// Total members across all recovered classes.
    pub fn members(&self) -> u64 {
        self.report.members
    }

    /// The recovered census as the shared render path (largest class
    /// first; same ordering and line format as every other census
    /// consumer).
    pub fn census_view(&self) -> CensusView {
        census_view(&self.classes)
    }
}

/// What [`Engine::finish`] returns.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The partition, identical to what a one-shot
    /// [`Classifier`](facepoint_core::Classifier) on the same stream
    /// (in submission order) would produce.
    ///
    /// Empty for a census-only engine
    /// ([`EngineConfig::track_labels`]` == false`): per-submission
    /// labels were never recorded, so the stream's census is reported
    /// through [`EngineReport::census`] (and
    /// [`EngineStats::num_classes`]) instead.
    pub classification: Classification,
    /// Throughput and occupancy counters for the run.
    pub stats: EngineStats,
    /// The final classes, largest first, straight from the partition
    /// store — always populated, and for a durable engine cumulative
    /// across runs (recovered members included). For a census-only
    /// engine ([`EngineConfig::track_labels`]` == false`) this is the
    /// *entire* result, since `classification` is empty by design.
    pub census: Vec<ClassSummary>,
}

impl EngineReport {
    /// The final census as the shared render path (largest class
    /// first; same ordering and line format as every other census
    /// consumer).
    pub fn census_view(&self) -> CensusView {
        census_view(&self.census)
    }
}

/// Store class summaries as the shared census render path.
fn census_view(classes: &[ClassSummary]) -> CensusView {
    CensusView::new(
        classes
            .iter()
            .map(|c| CensusEntry {
                key: c.key,
                size: c.size as u64,
                representative: c.representative.clone(),
            })
            .collect(),
    )
}

/// One buffered [`Engine::submit_batch`] entry, held *without* a
/// submission number until its chunk is numbered (see `submit_chunk`).
enum BatchEntry {
    /// The memo cache already knows this table's key.
    Hit(u128, TruthTable),
    /// Needs keying by a worker.
    Miss(TruthTable),
}

/// The one construction spine of [`Engine`]: configuration, optional
/// durability directory, then [`build`](EngineBuilder::build) (or
/// [`recover`](EngineBuilder::recover) for a read-only snapshot of the
/// same directory). Obtained via [`Engine::builder`].
///
/// ```no_run
/// use facepoint_engine::{Engine, EngineConfig};
///
/// let cfg = EngineConfig::builder().workers(4).certified().build();
/// let engine = Engine::builder()
///     .config(cfg)
///     .persist("/var/lib/facepoint/census")
///     .build()?;
/// # drop(engine);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    cfg: EngineConfig,
    dir: Option<PathBuf>,
}

impl EngineBuilder {
    /// The engine configuration (default: [`EngineConfig::default`]).
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Makes the engine **durable** under `dir`: every classified
    /// member is journaled to a per-shard segment log, and any state
    /// already in `dir` is recovered first — the partition store, the
    /// certified-class tables and (when enabled) the memo cache pick
    /// up exactly where the previous process stopped, torn tails
    /// truncated. Inspect what was found via [`Engine::recovery`].
    ///
    /// Durability knobs other than the directory (checkpoint interval,
    /// sync policy) are taken from the configuration's
    /// [`EngineConfig::persist`] when set, defaults otherwise.
    pub fn persist(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Builds the engine: resolves the configuration through
    /// [`EngineConfig::builder`]'s clamping, opens (or creates) the
    /// durable store when [`persist`](Self::persist) was given, and
    /// starts the workers.
    ///
    /// # Errors
    ///
    /// Only for durable engines: I/O failures, a store recorded under
    /// a different signature set or resolution tier, or corruption
    /// outside a log tail.
    pub fn build(self) -> io::Result<Engine> {
        let EngineBuilder { mut cfg, dir } = self;
        if let Some(dir) = dir {
            let mut persist = cfg
                .persist
                .take()
                .unwrap_or_else(|| PersistConfig::new(PathBuf::new()));
            persist.dir = dir;
            cfg.persist = Some(persist);
        }
        Engine::build_from(cfg)
    }

    /// Reads the durable store under the [`persist`](Self::persist)
    /// directory without opening it for writing: no workers, no
    /// truncation, no new segments — the inspection path behind the
    /// CLI's `recover` subcommand.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build), plus `NotFound` when
    /// the directory holds no store manifest.
    ///
    /// # Panics
    ///
    /// Panics if no `persist` directory was set — there is nothing to
    /// recover from.
    pub fn recover(self) -> io::Result<RecoveredSnapshot> {
        let dir = self
            .dir
            .or_else(|| self.cfg.persist.map(|p| p.dir))
            .expect("EngineBuilder::recover needs a persist directory");
        let (maps, scheme, report) = store::recover_dir(&dir)?;
        let (resolution, set_name) = match scheme.strip_prefix(CERTIFIED_SET_PREFIX) {
            Some(rest) => (Resolution::Certified, rest),
            None => (Resolution::Digest, scheme.as_str()),
        };
        // A retired certified marker lands here too: its keys digest
        // labels of an older canonical form.
        let set = SignatureSet::parse(set_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("manifest names unknown key scheme {scheme:?}"),
            )
        })?;
        let mut classes: Vec<ClassSummary> = maps
            .into_iter()
            .flat_map(|map| {
                map.into_iter().map(|(key, e)| ClassSummary {
                    key,
                    representative: e.representative,
                    size: e.size,
                })
            })
            .collect();
        classes.sort_by(|a, b| b.size.cmp(&a.size).then(a.key.cmp(&b.key)));
        Ok(RecoveredSnapshot {
            set,
            resolution,
            classes,
            report,
        })
    }
}

/// Manifest key-scheme marker of a certified-resolution store. A
/// certified store's keys are representative digests, not signature
/// digests, so reopening it under the other resolution is refused the
/// same way a signature-set mismatch is. The representative is the
/// canonical walk's label, so the marker names the canonical form too:
/// `certified:` stores hold labels of the retired exhaustive/budgeted
/// form and are refused like any other scheme mismatch.
const CERTIFIED_SET_PREFIX: &str = "certified2:";

impl Engine {
    /// An engine over `set` with default tuning (all cores, 64 shards,
    /// cache off).
    pub fn new(set: facepoint_sig::SignatureSet) -> Self {
        Self::build_from(EngineConfig::with_set(set)).expect("in-memory engine cannot fail")
    }

    /// The construction spine: see [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Reads the durable store under `dir` without opening it for
    /// writing — shorthand for
    /// [`Engine::builder`]`.persist(dir).recover()`, see
    /// [`EngineBuilder::recover`].
    ///
    /// # Errors
    ///
    /// See [`EngineBuilder::recover`].
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<RecoveredSnapshot> {
        Self::builder().persist(dir.as_ref()).recover()
    }

    /// The one code path every constructor funnels into.
    fn build_from(cfg: EngineConfig) -> io::Result<Self> {
        let workers = cfg.resolved_workers();
        // The registry exists before anything it instruments:
        // recovery-replay timing below covers the store open itself.
        let telemetry = Arc::new(Registry::new());
        let chunk_latency = telemetry.histogram("engine_chunk_classify_nanos");
        let store_telemetry = StoreTelemetry {
            append_nanos: telemetry.histogram("store_journal_append_nanos"),
            fsync_nanos: telemetry.histogram("store_fsync_nanos"),
            checkpoint_nanos: telemetry.histogram("store_checkpoint_nanos"),
        };
        let opened = Instant::now();
        // The manifest records the key scheme: the signature set, with
        // a resolution marker in front for certified stores (their keys
        // are representative digests — incomparable with digest keys,
        // so cross-mode reopens must be refused like set mismatches).
        let store_set_name = match cfg.resolution {
            Resolution::Digest => cfg.set.to_string(),
            Resolution::Certified => format!("{CERTIFIED_SET_PREFIX}{}", cfg.set),
        };
        let (mut store, recovery) = match &cfg.persist {
            Some(persist) => {
                let (store, report) = ShardedStore::open_durable(
                    persist,
                    cfg.resolved_shards(),
                    &store_set_name,
                    store_telemetry,
                )?;
                (store, Some(report))
            }
            None => (ShardedStore::new(cfg.resolved_shards()), None),
        };
        if cfg.resolution == Resolution::Certified {
            // A certified class's representative is the proved
            // canonical table its creating insert carried; pin it so
            // the dedup fast paths — which insert raw member tables —
            // can never steal the slot with a lower seq (duplicates
            // classified out of chunk order would otherwise overwrite
            // it, break `certified_key(rep) == key`, and split a class
            // past the walk's budget after a reopen primes the resolver
            // from the store).
            store.pin_representatives();
        }
        // Wall-clock cost of opening the store and replaying its
        // checkpoints + log tails (0 for in-memory engines).
        let replay_nanos = if recovery.is_some() {
            u64::try_from(opened.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        };
        telemetry.counter_fn("store_recovery_replay_nanos", move || replay_nanos);
        // A pre-existing store's shard count overrides the config (the
        // key→shard mapping is baked into the segment files).
        let shards = recovery
            .as_ref()
            .map_or_else(|| cfg.resolved_shards(), |r| r.shards);
        // New submissions must never outrank a recovered representative
        // (`seq < rep_seq` steals the slot), so the sequence restarts
        // above BOTH the recovered member count and the highest
        // recovered rep_seq — the latter can exceed the former when a
        // torn tail lost records in one shard while another shard
        // durably holds later submissions.
        let base_seq = recovery.as_ref().map_or(0, |r| {
            let mut floor = r.members;
            store.for_each(|_, entry| floor = floor.max(entry.rep_seq + 1));
            floor
        });
        let store = Arc::new(store);
        let cache = Arc::new(MemoCache::new(cfg.cache_capacity));
        if recovery.is_some() && cfg.cache_capacity > 0 {
            // Warm the dedup fast path with the recovered census.
            store.for_each(|key, entry| cache.prime(&entry.representative, key));
        }
        let resolver = Arc::new(BucketResolver::new());
        let canon_walks = Arc::new(AtomicU64::new(0));
        let resolve_nanos = telemetry.histogram("engine_canon_resolve_nanos");
        let certified = match cfg.resolution {
            Resolution::Digest => None,
            Resolution::Certified => Some(Arc::new(CertifiedResolve {
                resolver: Arc::clone(&resolver),
                walks: Arc::clone(&canon_walks),
                resolve_nanos: Arc::clone(&resolve_nanos),
            })),
        };
        if certified.is_some() && recovery.is_some() {
            // Rebuild the buckets of the classes past the walk's budget:
            // a stored representative's signature digest equals its
            // whole class's digest (signatures are NPN invariants), so
            // re-keying those representatives reconstructs exactly the
            // buckets the previous process had. Every other class is
            // found again by its members' walks, which reproduce the
            // stored label; the budget verdict is an orbit invariant, so
            // walking the representative tells the two apart.
            store.for_each(|_, entry| {
                if !certified_canonical_with_witness(&entry.representative).invariant {
                    resolver.prime(
                        signature_key(&entry.representative, cfg.set),
                        entry.representative.clone(),
                    );
                }
            });
        }
        let processed = Arc::new(AtomicU64::new(base_seq));
        let order = Arc::new(OrderSink::new(cfg.track_labels, base_seq));
        let queue = Arc::new(IngestQueue::new(workers));
        let next_seq = Arc::new(AtomicU64::new(base_seq));
        let dedup_hits = Arc::new(AtomicU64::new(0));
        // Totals the subsystems already track in their own atomics are
        // surfaced as sampled series — read at scrape time, never
        // double-counted on the hot path.
        {
            let q = Arc::clone(&queue);
            telemetry.counter_fn("engine_parks_total", move || q.parks());
            let q = Arc::clone(&queue);
            telemetry.gauge_fn("engine_deque_depth", move || q.queued() as f64);
            let c = Arc::clone(&cache);
            telemetry.counter_fn("engine_cache_hits_total", move || c.hits());
            let c = Arc::clone(&cache);
            telemetry.counter_fn("engine_cache_misses_total", move || c.misses());
            let c = Arc::clone(&cache);
            telemetry.gauge_fn("engine_cache_hit_ratio", move || {
                let (hits, misses) = (c.hits(), c.misses());
                let total = hits + misses;
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                }
            });
            let n = Arc::clone(&next_seq);
            telemetry.counter_fn("engine_functions_submitted_total", move || {
                n.load(Ordering::Acquire)
            });
            let p = Arc::clone(&processed);
            telemetry.counter_fn("engine_functions_processed_total", move || {
                p.load(Ordering::Acquire)
            });
            let (n, p) = (Arc::clone(&next_seq), Arc::clone(&processed));
            telemetry.gauge_fn("engine_backlog", move || {
                // Saturating for the same racy-read reason as
                // `EngineSnapshot::backlog`.
                n.load(Ordering::Acquire)
                    .saturating_sub(p.load(Ordering::Acquire)) as f64
            });
            let d = Arc::clone(&dedup_hits);
            telemetry.counter_fn("engine_dedup_hits_total", move || d.load(Ordering::Relaxed));
            telemetry.gauge_fn("engine_workers", move || workers as f64);
            // Certified-resolution counters: registered in every mode
            // (a digest engine scrapes zeros) so the series schema is
            // stable whatever the resolution.
            let w = Arc::clone(&canon_walks);
            telemetry.counter_fn("engine_canon_walks_total", move || {
                w.load(Ordering::Relaxed)
            });
            let r = Arc::clone(&resolver);
            telemetry.counter_fn("engine_canon_matches_total", move || r.matches());
            let r = Arc::clone(&resolver);
            telemetry.counter_fn("engine_canon_fallbacks_total", move || r.fallbacks());
            // Weak, not Arc: the registry outlives the engine when a
            // caller keeps `Engine::telemetry()` after `finish`, and a
            // strong reference here would pin the durable store — and
            // its advisory file lock — for the registry's lifetime,
            // refusing a reopen of the same directory. A post-finish
            // scrape reads these totals as 0 instead.
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_journal_records_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.journal_records)
            });
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_fsyncs_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.fsyncs)
            });
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_checkpoints_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.checkpoints)
            });
        }
        let handles = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store);
                let cache = Arc::clone(&cache);
                let processed = Arc::clone(&processed);
                let order = Arc::clone(&order);
                let set = cfg.set;
                let chunk_latency = Arc::clone(&chunk_latency);
                let certified = certified.clone();
                std::thread::spawn(move || {
                    worker_loop(
                        &queue,
                        &store,
                        &cache,
                        &processed,
                        &order,
                        set,
                        &chunk_latency,
                        certified.as_deref(),
                    )
                })
            })
            .collect();
        Ok(Engine {
            workers,
            shards,
            store,
            cache,
            processed,
            queue,
            order,
            handles,
            next_seq,
            dedup_hits,
            base_seq,
            // Epoch numbers stay monotonic across reopens of the same
            // store: resume from the highest barrier recovery saw.
            epoch: AtomicU64::new(recovery.as_ref().map_or(0, |r| r.last_epoch)),
            recovery,
            started: Instant::now(),
            telemetry,
            resolver,
            canon_walks,
            certified,
            cfg,
        })
    }

    /// The engine's metrics registry, for in-process consumers: every
    /// engine and store series (`engine_*`, `store_*`) is registered
    /// here, and `facepoint serve` adds its `serve_*` series to the
    /// same registry — one
    /// [`render_text`](facepoint_telemetry::Registry::render_text)
    /// call covers all three layers. Recording into the returned
    /// registry's instruments is lock-free and allocation-free;
    /// snapshotting locks it briefly and allocates the output.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.telemetry)
    }

    /// What recovery found when this engine was built over an existing
    /// durable store ([`Engine::builder`]`.persist(dir)`); `None` for
    /// fresh or in-memory engines.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Resolves `f` to its **proved** NPN class: the certified
    /// canonical representative, the witness transform mapping `f` onto
    /// it, and — when the engine runs [`Resolution::Certified`] and has
    /// already seen the class — the class key and member count from the
    /// store. The query itself is read-only: it never creates a class,
    /// counts a member or touches the stream.
    ///
    /// One canonical walk computes the representative and the witness
    /// on the calling thread; a certified engine then reads the size
    /// under the label's key (`0` for an unknown class, and always in
    /// digest mode). Only a function past the walk's budget, whose label
    /// is not class-invariant, takes the certified engine's resolver
    /// path: its bucket's cached representative and a matcher witness,
    /// so the key and size match the census. An unknown class past the
    /// budget is answered with the walk's label.
    pub fn canon(&self, f: &TruthTable) -> CanonAnswer {
        answer_canon(&self.store, self.certified.as_deref(), self.cfg.set, f)
    }

    /// A detached, read-only endpoint answering [`Engine::canon`]
    /// queries **without borrowing the engine**: it shares the store,
    /// the resolver and the signature set through `Arc`s, so it can
    /// live on a thread that does not hold the engine. Answers stay
    /// correct (if increasingly stale in their member counts) even
    /// after [`Engine::finish`].
    pub fn canon_handle(&self) -> CanonHandle {
        CanonHandle {
            store: Arc::clone(&self.store),
            certified: self.certified.clone(),
            set: self.cfg.set,
        }
    }

    /// Submits one function for classification and returns its
    /// submission number (the index it will have in the final
    /// [`Classification`]'s label vector) — [`Engine::submit_batch`]
    /// of one.
    pub fn submit(&self, f: TruthTable) -> u64 {
        self.submit_batch(std::iter::once(f))
    }

    /// Submits every function of `fns` in order and returns the
    /// submission number of the first one. Numbers are allocated per
    /// chunk of [`EngineConfig::chunk_size`] functions, consecutive
    /// within each chunk; a concurrent producer can interleave its own
    /// submissions only at chunk boundaries.
    ///
    /// Each full chunk is handed to the ingest queue as the iteration
    /// reaches it, **blocking while the queue is full**
    /// (backpressure), and the partial tail chunk before the call
    /// returns: nothing stays buffered between calls, so
    /// [`Engine::drain`] covers every function a returned call
    /// accepted.
    ///
    /// When the memo cache is enabled (a positive
    /// [`EngineConfig::cache_capacity`]) a repeated function takes the
    /// **dedup fast path**: its cached key bumps the class counts right
    /// here, skipping the queue round-trip entirely. Fast-path
    /// resolutions are counted in [`EngineStats::dedup_hits`].
    pub fn submit_batch(&self, fns: impl IntoIterator<Item = TruthTable>) -> u64 {
        let fns = fns.into_iter();
        let chunk_size = self.cfg.chunk_size.max(1);
        let mut first = None;
        // Entries are buffered WITHOUT submission numbers; a chunk's
        // numbers are allocated en bloc when it is submitted. A
        // caller's iterator panicking mid-batch therefore just drops
        // unnumbered tables — it can never strand an allocated
        // submission number, which would wedge `drain` and break
        // `finish`'s accounting. The buffer is sized by the batch, so a
        // one-function `submit` does not allocate a whole chunk.
        let mut buf: Vec<BatchEntry> = Vec::with_capacity(fns.size_hint().0.min(chunk_size));
        let mut chunk_since = Instant::now();
        for f in fns {
            if buf.is_empty() {
                chunk_since = Instant::now();
            }
            let entry = match self.cache.peek(&f) {
                Some(key) => BatchEntry::Hit(key, f),
                None => BatchEntry::Miss(f),
            };
            buf.push(entry);
            if buf.len() >= chunk_size {
                self.submit_chunk(&mut buf, &mut first, chunk_since);
            }
        }
        self.submit_chunk(&mut buf, &mut first, chunk_since);
        // Taken from the first numbered chunk, not read up front: a
        // concurrent producer could otherwise claim the read number
        // first and the returned index would name its function.
        first.unwrap_or_else(|| self.next_seq.load(Ordering::Acquire))
    }

    /// Numbers and dispatches one buffered chunk: dedup hits resolve
    /// inline (store bump, order log, progress — the fast path, just
    /// batched), misses go to the queue.
    fn submit_chunk(&self, buf: &mut Vec<BatchEntry>, first: &mut Option<u64>, since: Instant) {
        if buf.is_empty() {
            return;
        }
        let base = self.next_seq.fetch_add(buf.len() as u64, Ordering::AcqRel);
        first.get_or_insert(base);
        let mut hits: Vec<(u64, u128)> = Vec::new();
        let mut misses: Vec<(u64, TruthTable)> = Vec::with_capacity(buf.len());
        for (i, entry) in buf.drain(..).enumerate() {
            let seq = base + i as u64;
            match entry {
                BatchEntry::Hit(key, table) => {
                    self.store.insert(key, &table, seq);
                    hits.push((seq, key));
                }
                BatchEntry::Miss(table) => misses.push((seq, table)),
            }
        }
        if !hits.is_empty() {
            self.order.apply(&hits);
            self.dedup_hits
                .fetch_add(hits.len() as u64, Ordering::Relaxed);
            self.processed
                .fetch_add(hits.len() as u64, Ordering::AcqRel);
        }
        if !misses.is_empty() {
            self.queue
                .push(Job {
                    entries: misses,
                    submitted_at: since,
                })
                .unwrap_or_else(|_| unreachable!("queue closed while the engine is alive"));
        }
    }

    /// For a durable engine, the **epoch barrier**: an epoch marker is
    /// appended to every shard journal and the journals are flushed —
    /// fsync'd under the default
    /// [`SyncPolicy::Barrier`](crate::SyncPolicy::Barrier) — so every
    /// member classified *before* the call is crash-durable when it
    /// returns. Members still queued or in flight are covered by the
    /// next barrier (or by [`Engine::finish`]'s final checkpoint);
    /// after a crash, recovery loses at most that un-fsync'd tail. A
    /// no-op for in-memory engines.
    ///
    /// Concurrent barriers from several threads are safe: each one
    /// takes its own epoch number and covers what was classified before
    /// it started.
    ///
    /// # Panics
    ///
    /// Panics if the journals cannot be flushed — durability was
    /// promised and can no longer be provided.
    pub fn flush(&self) {
        if self.cfg.persist.is_some() {
            // Relaxed: the counter only hands out unique numbers; the
            // shard locks inside `sync_barrier` order the barrier itself.
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            self.store
                .sync_barrier(epoch)
                .expect("epoch barrier failed; durable store is inconsistent");
        }
    }

    /// Functions accepted so far (including any queued or in-flight
    /// ones).
    pub fn functions_submitted(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// A mid-stream view: how much is classified, how many classes
    /// exist, and how they spread over shards. Runs concurrently with
    /// ingestion (locks shards one at a time, briefly); queued and
    /// in-flight functions count as backlog.
    pub fn snapshot(&self) -> EngineSnapshot {
        let shard_class_counts = self.store.shard_class_counts();
        EngineSnapshot {
            functions_submitted: self.next_seq.load(Ordering::Acquire),
            functions_processed: self.processed.load(Ordering::Acquire),
            num_classes: shard_class_counts.iter().sum(),
            shard_class_counts,
        }
    }

    /// The `limit` largest classes discovered so far, largest first —
    /// a heavy-hitter report usable while the stream is still running.
    pub fn top_classes(&self, limit: usize) -> Vec<ClassSummary> {
        self.store.top_classes(limit)
    }

    /// Waits until everything submitted so far is classified, without
    /// ending the stream — the quiescence hook for long-running
    /// services, where [`Engine::finish`] (which consumes the engine)
    /// is reserved for shutdown.
    ///
    /// Returns `true` once the backlog is zero, `false` if `timeout`
    /// elapsed first (the engine keeps working either way; partial
    /// progress is kept). After `drain` returns `true`, a
    /// [`Engine::snapshot`] reflects every prior submission:
    /// `functions_processed == functions_submitted` and the class
    /// census is complete for the stream so far.
    ///
    /// Progress is counted **per function**, not per chunk, so the
    /// backlog observed while waiting shrinks smoothly even when a
    /// single huge chunk is in flight (see
    /// [`EngineSnapshot::backlog`]).
    ///
    /// Unlike [`Engine::flush`] this issues no epoch barrier — combine
    /// the two (`flush` then `drain`, or `drain` then `flush`) when a
    /// service wants both a quiescent view and durability of it.
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut polls = 0u32;
        while self.processed.load(Ordering::Acquire) < self.next_seq.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                return false;
            }
            // Yield while the backlog is about to clear, then back off
            // to sleeping: spinning for a long drain would pin a core
            // against the very workers being waited on.
            if polls < 64 {
                polls += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        true
    }

    /// Drains the pipeline, joins the workers and assembles the final
    /// input-ordered [`Classification`] plus run statistics.
    ///
    /// The classification covers the functions submitted to *this*
    /// engine instance; for a durable engine reopened over an existing
    /// store, class representatives may predate this run (they are the
    /// earliest-known members, recovered ones included) and the durable
    /// store's class counts keep accumulating across runs.
    ///
    /// A census-only engine ([`EngineConfig::track_labels`]` == false`)
    /// returns an **empty** classification — per-submission labels were
    /// never recorded, which is what keeps its memory flat — and
    /// reports the final classes through [`EngineReport::census`].
    ///
    /// A durable engine writes a final checkpoint of every shard before
    /// returning, so the next [`Engine::builder`]`.persist(dir)` over
    /// the same directory replays checkpoints only — no log tail,
    /// nothing to lose.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked or (durable engines) the final
    /// checkpoint cannot be written.
    pub fn finish(mut self) -> EngineReport {
        // `finish` owns the engine, so every submission has returned:
        // the workers drain everything queued, then exit.
        self.queue.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("worker panicked");
        }
        debug_assert_eq!(self.queue.queued(), 0, "workers exited with work queued");
        if self.cfg.persist.is_some() {
            self.store
                .checkpoint_all()
                .expect("final checkpoint failed; durable store is inconsistent");
        }
        let submitted_this_run = (self.next_seq.load(Ordering::Acquire) - self.base_seq) as usize;
        let state = self.order.take();
        // The census always reflects the store (cumulative for durable
        // engines); for a census-only engine it is the entire result.
        let census = self.store.top_classes(usize::MAX);
        if !self.cfg.track_labels {
            let stats = self.stats_inner(Some(census.len()));
            return EngineReport {
                classification: Classification::from_parts(Vec::new(), Vec::new()),
                stats,
                census,
            };
        }
        // Remap the sink's applied-order internal ids to
        // first-*submitted* order — the exact grouping rule of
        // `Classifier::classify`, so the result is independent of
        // worker count and interleaving.
        debug_assert_eq!(state.labels.len(), submitted_this_run);
        let mut remap: Vec<u32> = vec![u32::MAX; state.keys.len()];
        let mut class_keys: Vec<u128> = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        let mut labels: Vec<usize> = Vec::with_capacity(state.labels.len());
        for &internal in &state.labels {
            assert!(
                internal != u32::MAX,
                "submission missing from the order log"
            );
            let internal = internal as usize;
            if remap[internal] == u32::MAX {
                remap[internal] = class_keys.len() as u32;
                class_keys.push(state.keys[internal]);
                sizes.push(0);
            }
            let id = remap[internal] as usize;
            sizes[id] += 1;
            labels.push(id);
        }
        let classes: Vec<NpnClass> = class_keys
            .iter()
            .enumerate()
            .map(|(id, &key)| {
                let (representative, _) = self
                    .store
                    .get(key)
                    .expect("every processed key has a store entry");
                NpnClass::new(id, representative, sizes[id])
            })
            .collect();
        let stats = self.stats_inner(Some(classes.len()));
        EngineReport {
            classification: Classification::from_parts(labels, classes),
            stats,
            census,
        }
    }

    /// Current run statistics (also available mid-stream; `num_classes`
    /// and shard occupancy reflect what is classified so far).
    pub fn stats(&self) -> EngineStats {
        self.stats_inner(None)
    }

    /// One shard sweep for all counters, so `num_classes` and the
    /// occupancy figures come from the same consistent view (and the
    /// shards are locked once, not twice).
    fn stats_inner(&self, num_classes_override: Option<usize>) -> EngineStats {
        let shard_counts = self.store.shard_class_counts();
        let num_classes = num_classes_override.unwrap_or_else(|| shard_counts.iter().sum());
        EngineStats {
            functions_submitted: self.next_seq.load(Ordering::Acquire),
            functions_processed: self.processed.load(Ordering::Acquire),
            num_classes,
            workers: self.workers,
            shards: self.shards,
            occupied_shards: shard_counts.iter().filter(|&&c| c > 0).count(),
            max_shard_classes: shard_counts.iter().copied().max().unwrap_or(0),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            parks: self.queue.parks(),
            elapsed: self.started.elapsed(),
            recovered_members: self.base_seq,
            durability: self.store.durability_snapshot(),
            resolution: self.cfg.resolution,
            canon_walks: self.canon_walks.load(Ordering::Relaxed),
            canon_matches: self.resolver.matches(),
            canon_fallbacks: self.resolver.fallbacks(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the queue so detached workers terminate; `finish`
        // already closed it on the normal path.
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Classifies one chunk, one entry at a time: probe the memo cache, and
/// on a miss key the table (through the scalar kernel, or in certified
/// engines through the canonical walk, see `CertifiedResolve::resolve`),
/// land it in the store and record the key in the cache. Progress is
/// counted **per function**, so `pending()` and [`Engine::drain`]
/// observe smooth, never-overshooting progress even mid-chunk. The
/// chunk's `(seq, key)` pairs then stream into the order sink in one
/// short lock and the submit→classified latency is recorded.
///
/// Allocation-free in digest mode in steady state: the reused `log`
/// stops growing once it has seen the largest chunk. Certified misses
/// pay the walk's few allocations; their invariant-label count is
/// tallied per chunk and published once, so the loop touches no shared
/// counter for it.
///
/// Accounting note: every entry counts exactly once, as a cache hit
/// (its probe succeeded) or a miss (it was keyed and recorded), so
/// `hits + misses` equals the number of keyed functions. A miss is
/// recorded before the next entry is probed, so a repeat later in the
/// same chunk hits the entry its first copy recorded; only copies in
/// flight on different workers at once can each miss.
#[allow(clippy::too_many_arguments)]
fn classify_job(
    job: Job,
    kernel: &mut SignatureKernel,
    store: &ShardedStore,
    cache: &MemoCache,
    processed: &AtomicU64,
    order: &OrderSink,
    log: &mut Vec<(u64, u128)>,
    chunk_latency: &LatencyHistogram,
    certified: Option<&CertifiedResolve>,
) {
    let mut walks = 0u64;
    for (seq, table) in &job.entries {
        let key = match cache.peek(table) {
            Some(key) => {
                store.insert(key, table, *seq);
                key
            }
            None => {
                // In certified mode the store key and the stored
                // representative are the *proved* ones. Either way the
                // store insert lands before the cache records the key,
                // so a later hit always finds an occupied entry.
                let key = match certified {
                    None => {
                        let digest = kernel.key(table);
                        store.insert(digest, table, *seq);
                        digest
                    }
                    Some(tier) => {
                        let (key, representative, invariant) = tier.resolve(kernel, table);
                        walks += u64::from(invariant);
                        store.insert(key, &representative, *seq);
                        key
                    }
                };
                cache.record(table, key);
                key
            }
        };
        log.push((*seq, key));
        processed.fetch_add(1, Ordering::AcqRel);
    }
    if let Some(tier) = certified {
        tier.walks.fetch_add(walks, Ordering::Relaxed);
    }
    order.apply(log);
    log.clear();
    chunk_latency.record_duration(job.submitted_at.elapsed());
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &IngestQueue<Job>,
    store: &ShardedStore,
    cache: &MemoCache,
    processed: &AtomicU64,
    order: &OrderSink,
    set: facepoint_sig::SignatureSet,
    chunk_latency: &LatencyHistogram,
    certified: Option<&CertifiedResolve>,
) {
    // One kernel per worker, reused for the whole stream: scratch
    // buffers grow to the largest arity seen, then key computation is
    // allocation-free. The chunk log is reused the same way, so the
    // steady-state worker allocates nothing per chunk.
    let mut kernel = SignatureKernel::new(set);
    let mut log: Vec<(u64, u128)> = Vec::new();
    while let Some(job) = queue.next_item() {
        classify_job(
            job,
            &mut kernel,
            store,
            cache,
            processed,
            order,
            &mut log,
            chunk_latency,
            certified,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_bench::transform_closure_workload as workload;
    use facepoint_core::{signature_key, Classifier};
    use facepoint_sig::SignatureSet;

    #[test]
    fn empty_engine_finishes_clean() {
        let report = Engine::new(SignatureSet::all()).finish();
        assert_eq!(report.classification.num_functions(), 0);
        assert_eq!(report.classification.num_classes(), 0);
        assert_eq!(report.stats.functions_processed, 0);
    }

    #[test]
    fn matches_one_shot_classifier() {
        let fns = workload(5, 10, 6, 42);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 4,
                chunk_size: 7, // force many small, oddly-sized chunks
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
        assert_eq!(report.classification.num_classes(), expected.num_classes());
    }

    #[test]
    fn representatives_are_class_members() {
        let fns = workload(4, 6, 4, 7);
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 3,
                chunk_size: 5,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        let report = engine.finish();
        for class in report.classification.classes() {
            // A representative must carry the key of its own class.
            let key = signature_key(class.representative(), SignatureSet::all());
            let others: Vec<u128> = report
                .classification
                .classes()
                .iter()
                .map(|c| signature_key(c.representative(), SignatureSet::all()))
                .collect();
            assert_eq!(others.iter().filter(|&&k| k == key).count(), 1);
            assert!(class.size() >= 1);
        }
    }

    #[test]
    fn snapshot_mid_stream_progresses() {
        let fns = workload(5, 8, 8, 99);
        let total = fns.len() as u64;
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 16,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.functions_submitted, total);
        assert!(snap.functions_processed <= total);
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total);
        assert_eq!(report.stats.functions_submitted, total);
        // After finish, every submitted function is classified.
        let final_classes = report.classification.num_classes();
        assert!(final_classes >= snap.num_classes);
    }

    #[test]
    fn memo_cache_sees_repeat_traffic() {
        let f = TruthTable::majority(5);
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                cache_capacity: 1024,
                chunk_size: 8,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        for _ in 0..64 {
            engine.submit(f.clone());
        }
        let report = engine.finish();
        assert_eq!(report.classification.num_classes(), 1);
        assert_eq!(report.stats.cache_hits + report.stats.cache_misses, 64);
        // With one distinct function, almost everything hits; allow for
        // racy duplicate computation across workers.
        assert!(report.stats.cache_hits >= 32, "{}", report.stats);
    }

    #[test]
    fn repeat_inside_one_chunk_hits_its_first_copy() {
        // Both copies miss the submit-side probe (nothing is cached
        // yet) and land in one chunk; the worker keys the first and
        // records it before probing the second.
        let f = TruthTable::majority(5);
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 1,
                cache_capacity: 1024,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch([f.clone(), f]);
        let report = engine.finish();
        assert_eq!(report.stats.cache_misses, 1, "{}", report.stats);
        assert_eq!(report.stats.cache_hits, 1, "{}", report.stats);
        assert_eq!(report.stats.dedup_hits, 0, "{}", report.stats);
    }

    #[test]
    fn top_classes_reports_heavy_hitters() {
        let mut fns = workload(4, 1, 9, 5); // 9 copies of one class
        fns.extend(workload(4, 1, 2, 6)); // 2 of another
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let total = fns.len() as u64;
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 3,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        // Wait (bounded) for the stream to drain, then the mid-stream
        // report must be complete and correct.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while engine.snapshot().functions_processed < total {
            assert!(Instant::now() < deadline, "engine failed to drain");
            std::thread::yield_now();
        }
        let top = engine.top_classes(usize::MAX);
        assert_eq!(top.len(), expected.num_classes());
        assert_eq!(
            top.iter().map(|c| c.size).sum::<usize>(),
            expected.num_functions()
        );
        // Largest first, and the heavy hitter matches the classifier's.
        assert!(top.windows(2).all(|w| w[0].size >= w[1].size));
        let expected_max = expected
            .classes_by_size()
            .first()
            .map(|c| c.size())
            .unwrap();
        assert_eq!(top[0].size, expected_max);
        // Its representative carries the heavy class's signature key.
        let top1 = engine.top_classes(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(
            signature_key(&top1[0].representative, SignatureSet::all()),
            top1[0].key
        );
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
    }

    #[test]
    fn drain_quiesces_without_finishing() {
        let fns = workload(5, 10, 8, 17);
        let total = fns.len() as u64;
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 3,
                chunk_size: 9,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        // Interleave submission with mid-stream drains: after each
        // drain, the snapshot must account for every prior submission
        // (the service invariant behind `facepoint serve`'s SNAPSHOT).
        for chunk in fns.chunks(23) {
            engine.submit_batch(chunk.iter().cloned());
            assert!(engine.drain(std::time::Duration::from_secs(30)));
            let snap = engine.snapshot();
            assert_eq!(snap.functions_processed, snap.functions_submitted);
            assert_eq!(snap.backlog(), 0);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.functions_processed, total);
        assert_eq!(snap.num_classes, expected.num_classes());
        // The stream is still open: more work and a normal finish.
        engine.submit(TruthTable::majority(5));
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total + 1);
    }

    #[test]
    fn stats_display_is_informative() {
        let engine = Engine::new(SignatureSet::all());
        engine.submit(TruthTable::majority(3));
        let report = engine.finish();
        let line = report.stats.to_string();
        assert!(line.contains("1 functions -> 1 classes"), "{line}");
    }

    #[test]
    fn progress_is_counted_per_function_mid_chunk() {
        // One giant chunk on one worker: `processed` must advance
        // *inside* the chunk (per-function counting), so `drain` and
        // `backlog()` never overshoot while a chunk is in flight.
        let fns = facepoint_bench::random_workload(8, 400, 0x9A9);
        let total = fns.len() as u64;
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 1,
                chunk_size: fns.len(),
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        let mut saw_partial = false;
        loop {
            let snap = engine.snapshot();
            assert!(snap.functions_processed <= total, "progress overshot");
            if snap.functions_processed > 0 && snap.functions_processed < total {
                saw_partial = true;
            }
            if snap.functions_processed == total {
                break;
            }
            assert!(Instant::now() < deadline, "engine failed to drain");
            std::thread::yield_now();
        }
        assert!(
            saw_partial,
            "processed jumped 0 -> total; chunk-granular counting is back"
        );
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total);
    }

    #[test]
    fn forced_steal_schedule_matches_classifier() {
        // Eight workers and chunk size 1: consecutive functions land on
        // different workers, which finish them in any order; the
        // partition must not notice.
        let fns = workload(4, 9, 5, 0x57EA);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 8,
                chunk_size: 1,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        // Idle workers sleep on the empty queue instead of spinning:
        // all eight park before anything is submitted, so the chunks
        // below must wake them.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while engine.stats().parks < 8 {
            assert!(Instant::now() < deadline, "{}", engine.stats());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
        assert!(report.stats.parks > 0, "{}", report.stats);
    }

    #[test]
    fn census_only_mode_reports_through_census() {
        let fns = workload(4, 7, 3, 0xCE45);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                track_labels: false,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        // No labels were tracked…
        assert_eq!(report.classification.num_functions(), 0);
        assert_eq!(report.classification.num_classes(), 0);
        // …but the census is complete and correct.
        assert_eq!(report.census.len(), expected.num_classes());
        assert_eq!(
            report.census.iter().map(|c| c.size).sum::<usize>(),
            expected.num_functions()
        );
        assert_eq!(report.stats.num_classes, expected.num_classes());
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
    }

    #[test]
    fn concurrent_producers_interleave_on_one_engine() {
        let fns = workload(4, 8, 6, 0x4A4D);
        let expected_classes = Classifier::new(SignatureSet::all())
            .classify(fns.clone())
            .num_classes();
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let (left, right) = fns.split_at(fns.len() / 2);
        // A second producer thread batches into the same engine while
        // this one submits function by function.
        std::thread::scope(|s| {
            s.spawn(|| engine.submit_batch(right.iter().cloned()));
            for f in left.iter().cloned() {
                engine.submit(f);
            }
        });
        let report = engine.finish();
        // Interleaving order is nondeterministic, so compare the
        // partition's shape rather than its labels.
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
        assert_eq!(report.classification.num_functions(), fns.len());
        assert_eq!(report.classification.num_classes(), expected_classes);
    }

    /// Reads one series out of a text exposition, panicking with the
    /// whole scrape when it is absent (every value renders as a number,
    /// so `f64` covers counters, gauges and histogram fields alike).
    fn series(text: &str, name: &str) -> f64 {
        let prefix = format!("{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("series {name} missing from scrape:\n{text}"))
            .parse()
            .unwrap_or_else(|e| panic!("series {name} is not numeric: {e}"))
    }

    #[test]
    fn telemetry_scrape_covers_engine_series() {
        let fns = workload(4, 6, 5, 0x7E1E);
        let total = fns.len() as u64;
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                cache_capacity: 64,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let telemetry = engine.telemetry();
        engine.submit_batch(fns);
        engine.flush();
        assert!(engine.drain(std::time::Duration::from_secs(30)));
        let text = telemetry.render_text();
        assert_eq!(
            series(&text, "engine_functions_submitted_total") as u64,
            total
        );
        assert_eq!(
            series(&text, "engine_functions_processed_total") as u64,
            total
        );
        assert_eq!(series(&text, "engine_backlog"), 0.0);
        assert_eq!(series(&text, "engine_workers"), 2.0);
        // Every chunk's latency was recorded, and the percentile chain
        // holds in a real scrape, not just in the histogram's unit
        // tests.
        assert!(series(&text, "engine_chunk_classify_nanos_count") >= 1.0);
        let (p50, p90, p99, max) = (
            series(&text, "engine_chunk_classify_nanos_p50"),
            series(&text, "engine_chunk_classify_nanos_p90"),
            series(&text, "engine_chunk_classify_nanos_p99"),
            series(&text, "engine_chunk_classify_nanos_max"),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{text}");
        // The cache saw traffic; ratio stays within [0, 1].
        let ratio = series(&text, "engine_cache_hit_ratio");
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        // In-memory engine: the store series exist but stay zero.
        assert_eq!(series(&text, "store_journal_records_total"), 0.0);
        assert_eq!(series(&text, "store_recovery_replay_nanos"), 0.0);
        engine.finish();
    }

    #[test]
    fn durable_engine_records_store_latencies() {
        let dir = std::env::temp_dir()
            .join("facepoint-engine-tests")
            .join(format!("telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            workers: 2,
            chunk_size: 4,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 8,
                sync: crate::SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        };
        let engine = Engine::builder()
            .config(cfg.clone())
            .persist(&dir)
            .build()
            .unwrap();
        let telemetry = engine.telemetry();
        engine.submit_batch(workload(4, 6, 8, 0xD0C));
        engine.flush(); // epoch barrier → fsync under Barrier policy
        assert!(engine.drain(std::time::Duration::from_secs(30)));
        // 48 submissions at checkpoint_interval 8 force compactions
        // while the stream is live.
        let text = telemetry.render_text();
        assert!(
            series(&text, "store_journal_append_nanos_count") >= 1.0,
            "{text}"
        );
        assert!(series(&text, "store_journal_records_total") >= 1.0);
        assert!(series(&text, "store_fsync_nanos_count") >= 1.0);
        assert!(series(&text, "store_fsyncs_total") >= 1.0);
        assert!(series(&text, "store_checkpoint_nanos_count") >= 1.0);
        assert!(series(&text, "store_checkpoints_total") >= 1.0);
        engine.finish(); // final checkpoint; drops the store
                         // The registry holds the store only weakly, so finishing the
                         // engine releases the store's directory lock even while this
                         // telemetry handle lives on — sampled store totals read 0 now.
        let text = telemetry.render_text();
        assert_eq!(series(&text, "store_journal_records_total"), 0.0);
        // Reopening replays the checkpoints; the replay gauge reflects
        // the measured open cost.
        let reopened = Engine::builder().config(cfg).persist(&dir).build().unwrap();
        let text = reopened.telemetry().render_text();
        assert!(
            series(&text, "store_recovery_replay_nanos") >= 1.0,
            "{text}"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
