//! The sharded partition store: classes spread over independently
//! locked shards, selected by the high bits of the 128-bit MSV digest —
//! with an optional durable backend journaling every class mutation to
//! disk.
//!
//! # On-disk layout
//!
//! A durable store owns one directory:
//!
//! ```text
//! store.meta            manifest: version, shard count, signature set
//! shard-0000.ckpt       newest checkpoint segment of shard 0
//! shard-0000.log.7      append-only tail log (generation 7)
//! shard-0001.ckpt
//! shard-0001.log.3
//! ...
//! ```
//!
//! All files are sequences of CRC-guarded, length-prefixed frames
//! (see [`facepoint_core::wire`]). Each shard journals its mutations
//! **under its own shard lock**, so the log order equals the mutation
//! order and no cross-shard coordination exists on the write path:
//!
//! * class creation and representative changes append a full
//!   [`Class`](wire::Record::Class) record (key, rep seq, count,
//!   table);
//! * every other member append is a 29-byte
//!   [`Bump`](wire::Record::Bump);
//! * [`Engine::flush`](crate::Engine::flush) appends
//!   [`Epoch`](wire::Record::Epoch) barriers and (by default) fsyncs.
//!
//! Once a shard accumulates [`PersistConfig::checkpoint_interval`]
//! journal records it is **compacted**: the live class map is written
//! to `shard-NNNN.ckpt.tmp` (header + one `Class` frame per class),
//! fsync'd, renamed over the old checkpoint, and a fresh log
//! generation starts. Recovery cost is therefore bounded by *live
//! classes + one checkpoint interval*, not by total submissions.
//!
//! # Crash safety
//!
//! The checkpoint rename is atomic and the header names the log
//! generation replay must resume from (`next_gen`), so a crash at any
//! instant leaves either the old checkpoint + old log or the new
//! checkpoint (+ a possibly missing new log) — both consistent. A torn
//! tail (partial frame or CRC mismatch at the end of a log) is
//! truncated on open, losing at most the records of the final
//! un-fsync'd epoch.

use crate::config::{PersistConfig, SyncPolicy};
use crate::stats::{DurabilityStats, RecoveryReport};
use facepoint_core::wire::{self, Record, WireError, WIRE_VERSION};
use facepoint_telemetry::LatencyHistogram;
use facepoint_truth::TruthTable;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Latency instruments of the durable write path, shared across
/// shards. The engine hands in histograms registered in its
/// [`Registry`](facepoint_telemetry::Registry); a standalone store
/// (tests, tools) uses `StoreTelemetry::default()`, whose detached
/// histograms record into nothing anyone reads — same code path, no
/// `Option` in the hot path.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreTelemetry {
    /// Buffered journal append latency, per record.
    pub append_nanos: Arc<LatencyHistogram>,
    /// `fsync` (sync_data/sync_all) latency, per call.
    pub fsync_nanos: Arc<LatencyHistogram>,
    /// Checkpoint compaction duration, per compaction.
    pub checkpoint_nanos: Arc<LatencyHistogram>,
}

/// One NPN class as the store sees it.
#[derive(Debug, Clone)]
pub(crate) struct ClassEntry {
    /// The member with the smallest submission number seen so far.
    /// Workers insert out of order, so the earliest-submitted member
    /// may arrive late; tracking `rep_seq` keeps the representative
    /// deterministic (input order) regardless of interleaving — the
    /// same member `Classifier::classify` would pick.
    pub representative: TruthTable,
    /// Submission number of `representative`.
    pub rep_seq: u64,
    /// Members inserted so far.
    pub size: usize,
}

/// A mid-stream view of one class, returned by
/// [`Engine::top_classes`](crate::Engine::top_classes).
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// The class's 128-bit signature key.
    pub key: u128,
    /// A member of the class (the earliest-submitted one recorded so
    /// far).
    pub representative: TruthTable,
    /// Members counted so far.
    pub size: usize,
}

/// Write-side counters of the durable backend, shared across shards.
#[derive(Debug, Default)]
pub(crate) struct DurabilityCounters {
    journal_bytes: AtomicU64,
    journal_records: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    segments_created: AtomicU64,
    fsyncs: AtomicU64,
    epochs: AtomicU64,
}

impl DurabilityCounters {
    pub fn snapshot(&self) -> DurabilityStats {
        DurabilityStats {
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            journal_records: self.journal_records.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            segments_created: self.segments_created.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            epochs: self.epochs.load(Ordering::Relaxed),
        }
    }
}

fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.ckpt"))
}

fn ckpt_tmp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.ckpt.tmp"))
}

fn log_path(dir: &Path, shard: usize, gen: u64) -> PathBuf {
    dir.join(format!("shard-{shard:04}.log.{gen}"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("store.meta")
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("store.lock")
}

/// Takes the store's advisory write lock (`store.lock`). The OS
/// releases it when the file handle closes — including on SIGKILL — so
/// a crashed process never wedges its store, while a *live* second
/// writer is refused instead of silently interleaving appends with the
/// first. Read-only recovery does not take the lock (inspection of a
/// live store is safe by the same torn-tail tolerance that handles
/// crashes).
fn acquire_lock(dir: &Path) -> io::Result<File> {
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(lock_path(dir))?;
    file.try_lock().map_err(|e| {
        io::Error::new(
            io::ErrorKind::WouldBlock,
            format!(
                "{}: store is already open for writing by another process ({e})",
                dir.display()
            ),
        )
    })?;
    Ok(file)
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// The append side of one shard's journal. Lives inside the shard's
/// mutex, so appends are serialized with the map mutations they
/// describe.
#[derive(Debug)]
struct ShardJournal {
    dir: PathBuf,
    shard_id: usize,
    /// Generation of the live log segment; bumped by every compaction.
    gen: u64,
    writer: io::BufWriter<File>,
    records_since_ckpt: u64,
    /// Records appended since the last barrier or compaction; a clean
    /// shard skips its epoch marker, so an idle flush loop does not
    /// grow the logs.
    dirty: bool,
    /// Highest barrier this shard's state is covered by. Persisted in
    /// the checkpoint header, because compaction deletes the old log
    /// and the `Epoch` markers in it — epoch numbering must survive a
    /// clean restart.
    last_epoch: u64,
    /// Frame-encoding scratch, reused across appends.
    scratch: Vec<u8>,
    sync: SyncPolicy,
    /// Records per shard between compactions; `0` = never compact
    /// automatically.
    checkpoint_interval: u64,
    counters: Arc<DurabilityCounters>,
    telemetry: StoreTelemetry,
}

impl ShardJournal {
    /// Writes the scratch buffer to the log and applies the per-record
    /// sync policy.
    fn commit_scratch(&mut self) -> io::Result<()> {
        let started = Instant::now();
        self.writer.write_all(&self.scratch)?;
        self.telemetry
            .append_nanos
            .record_duration(started.elapsed());
        self.counters
            .journal_bytes
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        self.counters
            .journal_records
            .fetch_add(1, Ordering::Relaxed);
        self.records_since_ckpt += 1;
        self.dirty = true;
        self.scratch.clear();
        if self.sync == SyncPolicy::Always {
            self.writer.flush()?;
            self.timed_fsync(|j| j.writer.get_ref().sync_data())?;
        }
        Ok(())
    }

    /// Runs one fsync-class call, timing it into the fsync histogram
    /// and counting it — every `sync_data`/`sync_all` of the write
    /// path goes through here so the latency series and the
    /// [`DurabilityCounters::fsyncs`] total can never drift apart.
    fn timed_fsync(&mut self, f: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        f(self)?;
        self.telemetry
            .fsync_nanos
            .record_duration(started.elapsed());
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends an epoch barrier and makes everything before it durable
    /// per the sync policy. A shard with nothing new since the last
    /// barrier writes nothing — repeated flushes of an idle engine must
    /// not grow the logs.
    fn barrier(&mut self, epoch: u64) -> io::Result<()> {
        // Even a clean shard is *covered* by this barrier — only the
        // on-disk marker is skipped.
        self.last_epoch = self.last_epoch.max(epoch);
        if !self.dirty {
            return Ok(());
        }
        self.dirty = false;
        Record::Epoch { epoch }.encode(&mut self.scratch);
        let len = self.scratch.len() as u64;
        self.writer.write_all(&self.scratch)?;
        self.scratch.clear();
        self.counters
            .journal_bytes
            .fetch_add(len, Ordering::Relaxed);
        self.writer.flush()?;
        if self.sync != SyncPolicy::Never {
            self.timed_fsync(|j| j.writer.get_ref().sync_data())?;
        }
        Ok(())
    }

    /// Compacts the shard: snapshots `map` into a fresh checkpoint
    /// segment (atomic rename) and rolls the log to the next
    /// generation.
    fn compact(&mut self, map: &HashMap<u128, ClassEntry>) -> io::Result<()> {
        let compact_started = Instant::now();
        // Everything in the current log is contained in `map`; the log
        // itself needs no sync before being superseded.
        self.writer.flush()?;
        let next_gen = self.gen + 1;
        let tmp = ckpt_tmp_path(&self.dir, self.shard_id);
        let mut buf = Vec::with_capacity(64 + map.len() * 64);
        Record::CheckpointHeader {
            version: WIRE_VERSION,
            next_gen,
            classes: map.len() as u64,
            last_epoch: self.last_epoch,
        }
        .encode(&mut buf);
        for (&key, entry) in map {
            wire::encode_class_frame(
                &mut buf,
                key,
                entry.rep_seq,
                entry.size as u64,
                &entry.representative,
            );
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            if self.sync != SyncPolicy::Never {
                self.timed_fsync(|_| f.sync_data())?;
            }
        }
        std::fs::rename(&tmp, ckpt_path(&self.dir, self.shard_id))?;
        if self.sync != SyncPolicy::Never {
            // Persist the rename itself.
            let dir_handle = File::open(&self.dir)?;
            self.timed_fsync(|_| dir_handle.sync_all())?;
        }
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.counters
            .checkpoint_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let old_gen = self.gen;
        self.writer =
            io::BufWriter::new(File::create(log_path(&self.dir, self.shard_id, next_gen))?);
        self.counters
            .segments_created
            .fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::remove_file(log_path(&self.dir, self.shard_id, old_gen));
        self.gen = next_gen;
        self.records_since_ckpt = 0;
        self.dirty = false;
        self.telemetry
            .checkpoint_nanos
            .record_duration(compact_started.elapsed());
        Ok(())
    }
}

/// One shard: the class map plus (when durable) its journal, both
/// behind the same lock so the log order equals the mutation order.
#[derive(Debug)]
struct Shard {
    map: HashMap<u128, ClassEntry>,
    journal: Option<ShardJournal>,
}

/// Classes sharded by the top bits of their key.
///
/// The MSV digest is an FNV-1a output, uniform over `u128`, so high-bit
/// sharding load-balances without any extra hashing, and every key's
/// shard is stable for the lifetime of the engine *and of the on-disk
/// store*. Each shard is an independent `Mutex`: with `S` shards and
/// `W` workers the collision probability of two workers needing the
/// same lock at the same instant is ~`W/S` and inserts hold the lock
/// for a map probe plus (when durable) a buffered journal append —
/// signature computation, the expensive part, happens outside.
#[derive(Debug)]
pub(crate) struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    /// How far to shift a key right so its top bits index `shards`.
    shift: u32,
    counters: Option<Arc<DurabilityCounters>>,
    /// When set, a class's representative is **pinned** at creation:
    /// later inserts only bump the member count, they never steal the
    /// slot on a lower `seq`. Certified-resolution engines run this
    /// way — the creating insert carries the *proved* canonical table
    /// (`certified_key(rep) == key`), while the dedup fast paths insert
    /// raw member tables that must never become the representative.
    pinned_reps: bool,
    /// Held for the store's lifetime when durable; dropping it (or the
    /// process dying) releases the advisory lock.
    _lock: Option<File>,
}

impl ShardedStore {
    /// Creates an in-memory store with `shards` shards (must be a power
    /// of two).
    pub fn new(shards: usize) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be 2^k");
        ShardedStore {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        journal: None,
                    })
                })
                .collect(),
            shift: 128 - shards.trailing_zeros(),
            counters: None,
            pinned_reps: false,
            _lock: None,
        }
    }

    /// Switches the store to pinned-representative mode (see
    /// [`ShardedStore::pinned_reps`]). Called once at engine
    /// construction for certified-resolution engines, before the store
    /// is shared.
    pub fn pin_representatives(&mut self) {
        self.pinned_reps = true;
    }

    /// Opens (or creates) a durable store under `persist.dir`,
    /// recovering any existing state. `default_shards` is used when the
    /// directory is fresh; an existing manifest's shard count wins
    /// (shard assignment is baked into the files). Returns the store
    /// and what recovery found.
    ///
    /// # Errors
    ///
    /// I/O errors, a manifest recorded under a different key scheme
    /// (`set_name` names the signature set, prefixed by a marker such
    /// as `certified2:` for a certified-resolution store — keys of
    /// different schemes would be incomparable), or corruption outside
    /// a log tail.
    pub fn open_durable(
        persist: &PersistConfig,
        default_shards: usize,
        set_name: &str,
        telemetry: StoreTelemetry,
    ) -> io::Result<(Self, RecoveryReport)> {
        assert!(default_shards.is_power_of_two(), "shard count must be 2^k");
        let dir = &persist.dir;
        std::fs::create_dir_all(dir)?;
        let lock = acquire_lock(dir)?;
        let shards = match read_manifest(dir)? {
            Some((manifest_shards, manifest_set)) => {
                if manifest_set != set_name {
                    return Err(corrupt(
                        &manifest_path(dir),
                        format!(
                            "store was built with signature set {manifest_set}, \
                             engine configured with {set_name}"
                        ),
                    ));
                }
                manifest_shards
            }
            None => {
                write_manifest(dir, default_shards, set_name, persist.sync)?;
                default_shards
            }
        };
        let counters = Arc::new(DurabilityCounters::default());
        let mut report = RecoveryReport {
            shards,
            ..RecoveryReport::default()
        };
        let mut shard_cells = Vec::with_capacity(shards);
        for shard_id in 0..shards {
            let rec = recover_shard(dir, shard_id)?;
            rec.add_to(&mut report);
            // Drop any torn tail, then keep appending to the same
            // segment.
            let path = log_path(dir, shard_id, rec.next_gen);
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            if rec.log_exists {
                file.set_len(rec.log_good_len)?;
                file.seek(SeekFrom::End(0))?;
            } else {
                counters.segments_created.fetch_add(1, Ordering::Relaxed);
            }
            remove_stale_files(dir, shard_id, rec.next_gen);
            let journal = ShardJournal {
                dir: dir.clone(),
                shard_id,
                gen: rec.next_gen,
                writer: io::BufWriter::new(file),
                records_since_ckpt: rec.log_records,
                // Tail records inherited from the previous process have
                // no barrier after them yet.
                dirty: rec.log_records > 0,
                last_epoch: rec.last_epoch,
                scratch: Vec::with_capacity(64),
                sync: persist.sync,
                checkpoint_interval: persist.checkpoint_interval,
                counters: Arc::clone(&counters),
                telemetry: telemetry.clone(),
            };
            shard_cells.push(Mutex::new(Shard {
                map: rec.map,
                journal: Some(journal),
            }));
        }
        Ok((
            ShardedStore {
                shards: shard_cells,
                shift: 128 - shards.trailing_zeros(),
                counters: Some(counters),
                pinned_reps: false,
                _lock: Some(lock),
            },
            report,
        ))
    }

    fn shard_of(&self, key: u128) -> usize {
        if self.shift == 128 {
            0 // single shard: `>> 128` would overflow
        } else {
            (key >> self.shift) as usize
        }
    }

    /// Records the member with submission number `seq` into class
    /// `key`; the earliest-submitted member becomes (or stays) the
    /// representative — unless the store runs in
    /// pinned-representative mode ([`ShardedStore::pin_representatives`]),
    /// where the creating insert's table is the proved canonical form
    /// and is kept whatever `seq` later members arrive with. Returns
    /// `true` when this insert created the class. When durable, the
    /// mutation is journaled before the shard lock is released.
    ///
    /// # Panics
    ///
    /// Panics if a journal append or compaction fails — durability was
    /// promised and can no longer be provided, so the engine stops
    /// rather than silently diverging from its log.
    pub fn insert(&self, key: u128, table: &TruthTable, seq: u64) -> bool {
        let mut guard = self.shards[self.shard_of(key)]
            .lock()
            .expect("store shard poisoned");
        let shard = &mut *guard;
        let journaling = shard.journal.is_some();
        // What the journal must record: Some((rep_seq, count)) for a
        // full class record (creation / new representative), None for a
        // bump.
        let (created, class_record) = match shard.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                entry.size += 1;
                if !self.pinned_reps && seq < entry.rep_seq {
                    entry.representative = table.clone();
                    entry.rep_seq = seq;
                    (false, Some((seq, entry.size as u64)))
                } else {
                    // Pinned mode: a duplicate classified out of chunk
                    // order may carry a raw (non-canonical) member
                    // table with a lower seq; it bumps the count only,
                    // so `certified_key(rep) == key` holds for the
                    // store's — and the journal's — whole lifetime.
                    (false, None)
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(ClassEntry {
                    representative: table.clone(),
                    rep_seq: seq,
                    size: 1,
                });
                (true, Some((seq, 1)))
            }
        };
        if journaling {
            let journal = shard.journal.as_mut().expect("checked above");
            match class_record {
                Some((rep_seq, count)) => {
                    wire::encode_class_frame(&mut journal.scratch, key, rep_seq, count, table);
                }
                None => Record::Bump { key }.encode(&mut journal.scratch),
            }
            journal
                // analysis: allow(lock-discipline, "journal append happens under the shard guard BY DESIGN: the guard is what orders log records identically to map mutations")
                .commit_scratch()
                .expect("journal append failed; durable store is inconsistent");
            if journal.checkpoint_interval > 0
                && journal.records_since_ckpt >= journal.checkpoint_interval
            {
                journal
                    // analysis: allow(lock-discipline, "checkpoint compaction snapshots shard.map, which only the held guard keeps consistent with the log")
                    .compact(&shard.map)
                    .expect("checkpoint compaction failed; durable store is inconsistent");
            }
        }
        created
    }

    /// Appends an epoch barrier to every shard journal and flushes (and
    /// per the sync policy fsyncs) it. A no-op for in-memory stores.
    pub fn sync_barrier(&self, epoch: u64) -> io::Result<()> {
        if self.counters.is_none() {
            return Ok(());
        }
        for cell in &self.shards {
            let mut guard = cell.lock().expect("store shard poisoned");
            if let Some(journal) = guard.journal.as_mut() {
                // analysis: allow(lock-discipline, "the epoch barrier must land after every record the guard ordered before it; appending outside the guard could interleave a racing insert")
                journal.barrier(epoch)?;
            }
        }
        if let Some(c) = &self.counters {
            c.epochs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Compacts every shard that has journal records outstanding — the
    /// clean-shutdown path of [`Engine::finish`](crate::Engine::finish):
    /// afterwards recovery reads checkpoints only. A no-op for
    /// in-memory stores.
    pub fn checkpoint_all(&self) -> io::Result<()> {
        for cell in &self.shards {
            let mut guard = cell.lock().expect("store shard poisoned");
            let shard = &mut *guard;
            if let Some(journal) = shard.journal.as_mut() {
                if journal.records_since_ckpt > 0 {
                    // analysis: allow(lock-discipline, "shutdown checkpoint: compaction snapshots shard.map under the guard that keeps it consistent with the log")
                    journal.compact(&shard.map)?;
                } else {
                    // analysis: allow(lock-discipline, "shutdown flush of an already-checkpointed shard; no writers race a finishing engine")
                    journal.writer.flush()?;
                }
            }
        }
        Ok(())
    }

    /// Current write-side durability counters (`None` when in-memory).
    pub fn durability_snapshot(&self) -> Option<DurabilityStats> {
        self.counters.as_ref().map(|c| c.snapshot())
    }

    /// Visits every class (locks shards one at a time).
    pub fn for_each(&self, mut f: impl FnMut(u128, &ClassEntry)) {
        for cell in &self.shards {
            let guard = cell.lock().expect("store shard poisoned");
            for (&key, entry) in &guard.map {
                f(key, entry);
            }
        }
    }

    /// The representative and current size of class `key`, if present.
    pub fn get(&self, key: u128) -> Option<(TruthTable, usize)> {
        let shard = self.shards[self.shard_of(key)]
            .lock()
            .expect("store shard poisoned");
        shard
            .map
            .get(&key)
            .map(|e| (e.representative.clone(), e.size))
    }

    /// Classes per shard (locks each shard briefly, one at a time).
    pub fn shard_class_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").map.len())
            .collect()
    }

    /// Total number of classes. (Production callers derive this from
    /// one `shard_class_counts` sweep to keep counters consistent.)
    #[cfg(test)]
    pub fn num_classes(&self) -> usize {
        self.shard_class_counts().iter().sum()
    }

    /// The `limit` largest classes so far, largest first (ties broken
    /// by key for determinism). A mid-stream heavy-hitter report: locks
    /// shards one at a time, so it runs concurrently with ingestion.
    pub fn top_classes(&self, limit: usize) -> Vec<ClassSummary> {
        let mut all: Vec<ClassSummary> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().expect("store shard poisoned");
            all.extend(guard.map.iter().map(|(&key, e)| ClassSummary {
                key,
                representative: e.representative.clone(),
                size: e.size,
            }));
        }
        all.sort_by(|a, b| b.size.cmp(&a.size).then(a.key.cmp(&b.key)));
        all.truncate(limit);
        all
    }
}

// --- recovery --------------------------------------------------------

/// What one shard's files contained.
struct ShardRecovery {
    map: HashMap<u128, ClassEntry>,
    /// Generation of the live tail log (from the checkpoint header; 0
    /// for a checkpoint-less shard).
    next_gen: u64,
    /// Whether the tail log file existed at all.
    log_exists: bool,
    /// Valid prefix of the tail log; bytes past this are a torn tail.
    log_good_len: u64,
    checkpoint_classes: u64,
    log_records: u64,
    truncated_bytes: u64,
    torn: bool,
    last_epoch: u64,
}

impl ShardRecovery {
    /// Adds this shard's classes, members and replay accounting to the
    /// store-wide `report`.
    fn add_to(&self, report: &mut RecoveryReport) {
        report.classes += self.map.len();
        report.members += self.map.values().map(|e| e.size as u64).sum::<u64>();
        report.checkpoint_classes += self.checkpoint_classes;
        report.log_records += self.log_records;
        report.truncated_bytes += self.truncated_bytes;
        report.torn_shards += usize::from(self.torn);
        report.last_epoch = report.last_epoch.max(self.last_epoch);
    }
}

/// Reads one shard's checkpoint + tail log without modifying anything.
fn recover_shard(dir: &Path, shard_id: usize) -> io::Result<ShardRecovery> {
    let mut rec = ShardRecovery {
        map: HashMap::new(),
        next_gen: 0,
        log_exists: false,
        log_good_len: 0,
        checkpoint_classes: 0,
        log_records: 0,
        truncated_bytes: 0,
        torn: false,
        last_epoch: 0,
    };
    let ckpt = ckpt_path(dir, shard_id);
    match std::fs::read(&ckpt) {
        Ok(bytes) => {
            let mut stream = wire::FrameStream::new(&bytes);
            // Checkpoints are written to a temp file and renamed into
            // place, so unlike a log tail they are all-or-nothing; any
            // decode failure is real corruption.
            let header = stream
                .next_record()
                .map_err(|e| corrupt(&ckpt, e))?
                .ok_or_else(|| corrupt(&ckpt, "empty checkpoint"))?;
            let (version, next_gen, classes, last_epoch) = match header {
                Record::CheckpointHeader {
                    version,
                    next_gen,
                    classes,
                    last_epoch,
                } => (version, next_gen, classes, last_epoch),
                _ => return Err(corrupt(&ckpt, "first record is not a checkpoint header")),
            };
            if version != WIRE_VERSION {
                return Err(corrupt(&ckpt, format!("unsupported version {version}")));
            }
            rec.next_gen = next_gen;
            rec.last_epoch = last_epoch;
            loop {
                match stream.next_record().map_err(|e| corrupt(&ckpt, e))? {
                    Some(Record::Class {
                        key,
                        rep_seq,
                        count,
                        representative,
                    }) => {
                        rec.map.insert(
                            key,
                            ClassEntry {
                                representative,
                                rep_seq,
                                size: count as usize,
                            },
                        );
                    }
                    Some(_) => return Err(corrupt(&ckpt, "non-class record in checkpoint body")),
                    None => break,
                }
            }
            if rec.map.len() as u64 != classes {
                return Err(corrupt(&ckpt, "checkpoint class count mismatch"));
            }
            rec.checkpoint_classes = classes;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let log = log_path(dir, shard_id, rec.next_gen);
    let bytes = match std::fs::read(&log) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(rec),
        Err(e) => return Err(e),
    };
    rec.log_exists = true;
    let mut stream = wire::FrameStream::new(&bytes);
    loop {
        match stream.next_record() {
            Ok(Some(Record::Class {
                key,
                rep_seq,
                count,
                representative,
            })) => {
                match rec.map.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        // A representative change: one more member, and
                        // an earlier-submitted table takes over.
                        let entry = e.get_mut();
                        entry.size += 1;
                        if rep_seq < entry.rep_seq {
                            entry.representative = representative;
                            entry.rep_seq = rep_seq;
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(ClassEntry {
                            representative,
                            rep_seq,
                            size: count as usize,
                        });
                    }
                }
                rec.log_records += 1;
            }
            Ok(Some(Record::Bump { key })) => match rec.map.get_mut(&key) {
                Some(entry) => {
                    entry.size += 1;
                    rec.log_records += 1;
                }
                None => {
                    return Err(corrupt(&log, "bump for a class never created"));
                }
            },
            Ok(Some(Record::Epoch { epoch })) => {
                rec.last_epoch = rec.last_epoch.max(epoch);
            }
            Ok(Some(_)) => {
                return Err(corrupt(&log, "header record inside a log segment"));
            }
            Ok(None) => {
                rec.log_good_len = bytes.len() as u64;
                break;
            }
            Err(WireError::TornTail { good_len }) => {
                rec.log_good_len = good_len as u64;
                rec.truncated_bytes = (bytes.len() - good_len) as u64;
                rec.torn = true;
                break;
            }
            Err(e @ WireError::Malformed { .. }) => {
                return Err(corrupt(&log, e));
            }
        }
    }
    Ok(rec)
}

/// What [`recover_dir`] hands back: the recovered class maps in shard
/// order, the signature-set name from the manifest, and the aggregate
/// report.
pub(crate) type RecoveredDir = (Vec<HashMap<u128, ClassEntry>>, String, RecoveryReport);

/// Reads a whole store directory without modifying it: the manifest,
/// every shard's checkpoint + tail log.
pub(crate) fn recover_dir(dir: &Path) -> io::Result<RecoveredDir> {
    let (shards, set) = read_manifest(dir)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no store manifest", manifest_path(dir).display()),
        )
    })?;
    let mut report = RecoveryReport {
        shards,
        ..RecoveryReport::default()
    };
    let mut maps = Vec::with_capacity(shards);
    for shard_id in 0..shards {
        let rec = recover_shard(dir, shard_id)?;
        rec.add_to(&mut report);
        maps.push(rec.map);
    }
    Ok((maps, set, report))
}

/// Reads and validates the manifest; `Ok(None)` when the directory has
/// none yet.
fn read_manifest(dir: &Path) -> io::Result<Option<(usize, String)>> {
    let path = manifest_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut stream = wire::FrameStream::new(&bytes);
    match stream.next_record().map_err(|e| corrupt(&path, e))? {
        Some(Record::Manifest {
            version,
            shards,
            set,
        }) => {
            if version != WIRE_VERSION {
                return Err(corrupt(&path, format!("unsupported version {version}")));
            }
            if shards == 0 || !(shards as usize).is_power_of_two() {
                return Err(corrupt(&path, format!("invalid shard count {shards}")));
            }
            Ok(Some((shards as usize, set)))
        }
        _ => Err(corrupt(&path, "not a manifest")),
    }
}

fn write_manifest(dir: &Path, shards: usize, set: &str, sync: SyncPolicy) -> io::Result<()> {
    let mut buf = Vec::new();
    Record::Manifest {
        version: WIRE_VERSION,
        shards: shards as u32,
        set: set.to_string(),
    }
    .encode(&mut buf);
    let path = manifest_path(dir);
    let mut f = File::create(&path)?;
    f.write_all(&buf)?;
    if sync != SyncPolicy::Never {
        f.sync_data()?;
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Deletes leftovers a crash may have stranded: the checkpoint temp
/// file and log segments of superseded generations. Best-effort — a
/// failure here only wastes disk.
fn remove_stale_files(dir: &Path, shard_id: usize, live_gen: u64) {
    let _ = std::fs::remove_file(ckpt_tmp_path(dir, shard_id));
    let prefix = format!("shard-{shard_id:04}.log.");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix(&prefix)
            .and_then(|g| g.parse::<u64>().ok())
        {
            if gen != live_gen {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(bits: u64) -> TruthTable {
        TruthTable::from_u64(3, bits).unwrap()
    }

    #[test]
    fn insert_counts_and_representatives() {
        let store = ShardedStore::new(4);
        assert!(store.insert(7, &t(0xe8), 0));
        assert!(!store.insert(7, &t(0xd4), 1));
        assert!(store.insert(u128::MAX, &t(0x96), 2));
        assert_eq!(store.num_classes(), 2);
        let (rep, size) = store.get(7).unwrap();
        assert_eq!(rep, t(0xe8)); // earliest submission wins
        assert_eq!(size, 2);
        assert!(store.get(8).is_none());
    }

    #[test]
    fn representative_is_earliest_submission_not_insert_order() {
        // Workers race: the member submitted first may be inserted
        // last. The representative must still be the earliest
        // submission, matching `Classifier::classify`.
        let store = ShardedStore::new(4);
        store.insert(7, &t(0xd4), 5);
        store.insert(7, &t(0x2b), 3);
        store.insert(7, &t(0xe8), 0);
        store.insert(7, &t(0x17), 9);
        let (rep, size) = store.get(7).unwrap();
        assert_eq!(rep, t(0xe8));
        assert_eq!(size, 4);
    }

    #[test]
    fn pinned_reps_ignore_lower_seq_inserts() {
        // Certified mode: the creating insert carries the proved
        // canonical table; a duplicate classified out of chunk order
        // arrives later with a *lower* seq and a raw member table. It
        // must bump the count only — never steal the representative.
        let mut store = ShardedStore::new(4);
        store.pin_representatives();
        assert!(store.insert(7, &t(0xe8), 100));
        assert!(!store.insert(7, &t(0xd4), 5));
        assert!(!store.insert(7, &t(0x2b), 0));
        let (rep, size) = store.get(7).unwrap();
        assert_eq!(rep, t(0xe8), "creating insert's table must stay pinned");
        assert_eq!(size, 3);
    }

    #[test]
    fn high_bits_select_shard() {
        let store = ShardedStore::new(4);
        assert_eq!(store.shard_of(0), 0);
        assert_eq!(store.shard_of(u128::MAX), 3);
        assert_eq!(store.shard_of(1u128 << 127), 2);
        assert_eq!(store.shard_of(1u128 << 126), 1);
        let single = ShardedStore::new(1);
        assert_eq!(single.shard_of(u128::MAX), 0);
    }

    #[test]
    fn top_classes_orders_by_size_then_key() {
        let store = ShardedStore::new(2);
        for seq in 0..3 {
            store.insert(1, &t(1), seq);
        }
        store.insert(2, &t(2), 3);
        store.insert(u128::MAX / 3, &t(3), 4);
        let top = store.top_classes(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].size, 3);
        assert_eq!(top[0].key, 1);
        assert_eq!(top[1].size, 1);
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("facepoint-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &Path, interval: u64) -> (ShardedStore, RecoveryReport) {
        let cfg = PersistConfig {
            dir: dir.to_path_buf(),
            checkpoint_interval: interval,
            sync: SyncPolicy::Never, // tests don't need real fsyncs
        };
        ShardedStore::open_durable(
            &cfg,
            4,
            &facepoint_sig::SignatureSet::all().to_string(),
            StoreTelemetry::default(),
        )
        .unwrap()
    }

    #[test]
    fn durable_roundtrip_without_checkpoints() {
        let dir = test_dir("roundtrip");
        {
            let (store, report) = durable(&dir, 0);
            assert_eq!(report.classes, 0);
            store.insert(7, &t(0xe8), 0);
            store.insert(7, &t(0xd4), 1);
            store.insert(u128::MAX, &t(0x96), 2);
            store.checkpoint_all().unwrap();
        }
        let (store, report) = durable(&dir, 0);
        assert_eq!(report.classes, 2);
        assert_eq!(report.members, 3);
        let (rep, size) = store.get(7).unwrap();
        assert_eq!(rep, t(0xe8));
        assert_eq!(size, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_rolls_generations() {
        let dir = test_dir("compaction");
        {
            // Interval 3: plenty of compactions over 20 inserts.
            let (store, _) = durable(&dir, 3);
            for seq in 0..20u64 {
                store.insert(u128::from(seq % 5) << 100, &t(seq % 7), seq);
            }
            let stats = store.durability_snapshot().unwrap();
            assert!(stats.checkpoints > 0, "{stats:?}");
            // Dropped without checkpoint_all: the tail log still covers
            // the delta since the last compaction.
        }
        let (store, report) = durable(&dir, 3);
        assert_eq!(report.classes, 5);
        assert_eq!(report.members, 20);
        assert!(report.checkpoint_classes > 0);
        for class in 0..5u128 {
            let (_, size) = store.get(class << 100).unwrap();
            assert_eq!(size, 4);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_representative_matches_in_memory() {
        let dir = test_dir("rep");
        let mem = ShardedStore::new(4);
        {
            let (store, _) = durable(&dir, 4);
            // Out-of-order inserts exercising the rep-change record.
            for (bits, seq) in [(0xd4u64, 5), (0x2b, 3), (0xe8, 0), (0x17, 9)] {
                store.insert(7, &t(bits), seq);
                mem.insert(7, &t(bits), seq);
            }
        }
        let (store, _) = durable(&dir, 4);
        let (rep, size) = store.get(7).unwrap();
        let (mem_rep, mem_size) = mem.get(7).unwrap();
        assert_eq!(rep, mem_rep);
        assert_eq!(size, mem_size);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_reps_survive_a_durable_reopen() {
        // The pinned (canonical) representative must be what the
        // journal records: an out-of-order lower-seq duplicate is a
        // bump frame, not a rep-change frame, so recovery rebuilds the
        // same pinned table.
        let dir = test_dir("pinned-rep");
        {
            let (mut store, _) = durable(&dir, 0);
            store.pin_representatives();
            store.insert(7, &t(0xe8), 100);
            store.insert(7, &t(0xd4), 5);
        }
        let (store, report) = durable(&dir, 0);
        assert_eq!(report.members, 2);
        let (rep, size) = store.get(7).unwrap();
        assert_eq!(rep, t(0xe8), "journal recorded a stolen representative");
        assert_eq!(size, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_set_mismatch_is_refused() {
        let dir = test_dir("set-mismatch");
        {
            let _ = durable(&dir, 0);
        }
        let cfg = PersistConfig {
            dir: dir.clone(),
            checkpoint_interval: 0,
            sync: SyncPolicy::Never,
        };
        let err = ShardedStore::open_durable(
            &cfg,
            4,
            &facepoint_sig::SignatureSet::OIV.to_string(),
            StoreTelemetry::default(),
        )
        .map(|_| ())
        .expect_err("set mismatch must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_shard_count_wins_over_config() {
        let dir = test_dir("shard-adopt");
        {
            let (store, _) = durable(&dir, 0); // 4 shards
            store.insert(u128::MAX, &t(0x96), 0);
        }
        let cfg = PersistConfig {
            dir: dir.clone(),
            checkpoint_interval: 0,
            sync: SyncPolicy::Never,
        };
        // Ask for 16 shards; the store keeps its persisted 4.
        let (store, report) = ShardedStore::open_durable(
            &cfg,
            16,
            &facepoint_sig::SignatureSet::all().to_string(),
            StoreTelemetry::default(),
        )
        .unwrap();
        assert_eq!(report.shards, 4);
        assert_eq!(store.shards.len(), 4);
        assert!(store.get(u128::MAX).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = test_dir("torn");
        {
            let (store, _) = durable(&dir, 0);
            // Keys with zero high bits keep both classes in shard 0's
            // log; no checkpoint, so recovery replays the log alone
            // (the BufWriter flushes on drop).
            store.insert(1, &t(0xe8), 0);
            store.insert(2, &t(0x96), 1);
        }
        let log = log_path(&dir, 0, 0);
        let mut bytes = std::fs::read(&log).unwrap();
        let len = bytes.len();
        bytes[len - 3] ^= 0xFF; // corrupt the tail record
        std::fs::write(&log, &bytes).unwrap();
        let (store, report) = durable(&dir, 0);
        assert_eq!(report.classes, 1, "{report}");
        assert_eq!(report.torn_shards, 1);
        assert!(report.truncated_bytes > 0);
        assert!(store.get(1).is_some());
        assert!(store.get(2).is_none());
        // The torn tail was truncated on open: appending works and the
        // next recovery is clean.
        store.insert(2, &t(0x96), 2);
        drop(store);
        let (_, report) = durable(&dir, 0);
        assert_eq!(report.classes, 2);
        assert_eq!(report.torn_shards, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
