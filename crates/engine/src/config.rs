//! Engine tuning knobs.

use facepoint_sig::SignatureSet;
use std::path::PathBuf;

/// When the durable store flushes its journals to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never `fsync`: records reach the OS page cache on every buffer
    /// flush but survival of a *power* failure is up to the kernel's
    /// writeback. Survives process crashes (SIGKILL) in full.
    Never,
    /// `fsync` at epoch barriers — [`Engine::flush`](crate::Engine::flush),
    /// checkpoints and [`Engine::finish`](crate::Engine::finish). The
    /// default: crash recovery loses at most the un-fsync'd tail epoch,
    /// and the journal tax stays a buffered `memcpy` per record.
    #[default]
    Barrier,
    /// `fsync` after every insert. Every acknowledged submission is
    /// durable the moment `submit` returns from the store — and
    /// throughput is bounded by disk sync latency. For tests and
    /// small, precious streams.
    Always,
}

/// Durability knobs of an [`Engine`](crate::Engine) — present when the
/// engine journals to disk, absent for a purely in-memory run.
///
/// The on-disk layout under [`PersistConfig::dir`] is one manifest
/// (`store.meta`) plus, per shard, an append-only segment log
/// (`shard-NNNN.log.<gen>`) and the newest checkpoint
/// (`shard-NNNN.ckpt`); see the `facepoint_core::wire` docs for the
/// record format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding the store (created if missing). One store per
    /// directory.
    pub dir: PathBuf,
    /// Journal records a shard accumulates before it is compacted into
    /// a fresh checkpoint segment (bounding recovery replay by live
    /// classes, not total submissions). `0` disables automatic
    /// compaction; [`Engine::finish`](crate::Engine::finish) still
    /// writes a final checkpoint.
    pub checkpoint_interval: u64,
    /// When journal writes are fsync'd.
    pub sync: SyncPolicy,
}

impl PersistConfig {
    /// Durability at `dir` with the default checkpoint interval (8192
    /// records per shard) and [`SyncPolicy::Barrier`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            checkpoint_interval: 8192,
            sync: SyncPolicy::Barrier,
        }
    }
}

/// How far the engine resolves submitted functions into classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resolution {
    /// Classes are keyed by signature digests. Digest equality is a
    /// *necessary* condition for NPN equivalence, so digest classes
    /// may merge (never split) true classes — probable classes, at
    /// full signature throughput. The default.
    #[default]
    Digest,
    /// Classes are **proved** NPN classes. Every cache miss is
    /// labelled by the influence-aided canonical walk of
    /// `facepoint_exact::certified_canonical_with_witness`; within the
    /// walk's work budget the label is class-invariant and keys the
    /// class on its own. Only functions past the budget are bucketed by
    /// signature digest, and a bucket's later members take the exact
    /// pairwise-matcher witness path against its cached
    /// representatives. The census then counts exact NPN classes and
    /// every representative is a proved one.
    Certified,
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resolution::Digest => "digest",
            Resolution::Certified => "certified",
        })
    }
}

/// Configuration of an [`Engine`](crate::Engine).
///
/// The defaults are tuned for throughput on commodity multi-core
/// machines (`facepoint-bench`'s `engine` bench exercises the space).
///
/// Build configurations through [`EngineConfig::builder`], which
/// validates and clamps every knob in one place:
///
/// ```
/// use facepoint_engine::{Engine, EngineConfig};
/// use facepoint_sig::SignatureSet;
///
/// let cfg = EngineConfig::builder()
///     .set(SignatureSet::OIV | SignatureSet::OSV)
///     .workers(2)
///     .shards(16)
///     .build();
/// let engine = Engine::builder().config(cfg).build().unwrap();
/// assert_eq!(engine.config().workers, 2);
/// ```
///
/// The fields are public, so a struct literal over
/// [`EngineConfig::default`] works as well.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Signature families used for keys (default: the paper's "All").
    pub set: SignatureSet,
    /// Worker threads computing signature keys. `0` selects the
    /// machine's available parallelism.
    pub workers: usize,
    /// Shard count of the partition store (rounded up to a power of
    /// two). More shards mean less lock contention and a finer-grained
    /// occupancy report; 64 is plenty below a few hundred cores.
    pub shards: usize,
    /// Functions per work item. Chunking amortizes queue costs; within
    /// a chunk a worker runs lock-free except for store inserts. The
    /// ingest queue holds 8 chunks per worker; `submit` blocks while it
    /// is full — backpressure instead of unbounded memory.
    pub chunk_size: usize,
    /// Whether to record the per-submission label log that
    /// [`Engine::finish`](crate::Engine::finish) assembles into the
    /// input-ordered [`Classification`](facepoint_core::Classification)
    /// (default `true`). The log costs 4 bytes per submitted function;
    /// set this to `false` for **census-only streaming** — partition
    /// counts, snapshots, `top_classes` and persistence all still work,
    /// `finish` reports the classes through
    /// [`EngineReport::census`](crate::EngineReport::census), and
    /// steady-state engine memory stays flat however long the stream
    /// runs (streams larger than RAM become feasible).
    pub track_labels: bool,
    /// Capacity of the table→key memo cache in entries (`0` disables
    /// it). The cache pays off exactly when the stream repeats
    /// functions, as AIG cut traffic does. Enabling it also enables
    /// the ingestion-side **dedup fast path**: `submit` probes the
    /// cache first and resolves repeated functions without a queue
    /// round-trip (see [`EngineStats::dedup_hits`](crate::EngineStats)).
    pub cache_capacity: usize,
    /// Durable-store settings; `None` (the default) keeps all state in
    /// memory. Usually set through
    /// [`Engine::builder`](crate::Engine::builder)`.persist(dir)`
    /// rather than by hand.
    pub persist: Option<PersistConfig>,
    /// Class-resolution tier: digest-keyed probable classes (the
    /// default) or exactly resolved, certified NPN classes (see
    /// [`Resolution`]).
    pub resolution: Resolution,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            set: SignatureSet::all(),
            workers: 0,
            shards: 64,
            chunk_size: 256,
            track_labels: true,
            cache_capacity: 0,
            persist: None,
            resolution: Resolution::Digest,
        }
    }
}

impl EngineConfig {
    /// A builder over the defaults — the one place where every knob is
    /// validated and clamped (shard round-up, minimum chunk size).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// The configuration with a specific signature set and defaults
    /// elsewhere.
    pub fn with_set(set: SignatureSet) -> Self {
        EngineConfig {
            set,
            ..EngineConfig::default()
        }
    }

    /// Resolved worker count (`workers` unless `0`, then the machine's
    /// available parallelism).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        }
    }

    /// Resolved shard count: `shards` rounded up to a power of two (so
    /// shard selection is a shift of the key's high bits), minimum 1.
    pub fn resolved_shards(&self) -> usize {
        self.shards.max(1).next_power_of_two()
    }
}

/// Typed builder for [`EngineConfig`].
///
/// Every setter takes the raw requested value; [`build`] is the single
/// place where clamping happens (shard power-of-two round-up, minimum
/// chunk size), so the produced configuration is
/// always internally consistent. Obtained via [`EngineConfig::builder`].
///
/// [`build`]: EngineConfigBuilder::build
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Signature families used for keys.
    pub fn set(mut self, set: SignatureSet) -> Self {
        self.cfg.set = set;
        self
    }

    /// Worker threads (`0` = the machine's available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Partition-store shard count (rounded up to a power of two by
    /// [`build`](Self::build)).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Functions per work item (minimum 1 after
    /// [`build`](Self::build)).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.cfg.chunk_size = chunk_size;
        self
    }

    /// Whether to record per-submission labels (`false` = census-only
    /// streaming with flat memory).
    pub fn track_labels(mut self, track_labels: bool) -> Self {
        self.cfg.track_labels = track_labels;
        self
    }

    /// Table→key memo-cache capacity in entries (`0` disables it).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cfg.cache_capacity = cache_capacity;
        self
    }

    /// Durable-store settings (`None` keeps all state in memory).
    pub fn persist(mut self, persist: Option<PersistConfig>) -> Self {
        self.cfg.persist = persist;
        self
    }

    /// Class-resolution tier (see [`Resolution`]).
    pub fn resolution(mut self, resolution: Resolution) -> Self {
        self.cfg.resolution = resolution;
        self
    }

    /// Shorthand for `resolution(Resolution::Certified)`.
    pub fn certified(self) -> Self {
        self.resolution(Resolution::Certified)
    }

    /// Finalizes the configuration, clamping every knob into its valid
    /// range: shards round up to a power of two (minimum 1) and the
    /// chunk size clamps to at least 1.
    pub fn build(self) -> EngineConfig {
        let mut cfg = self.cfg;
        cfg.shards = cfg.shards.max(1).next_power_of_two();
        cfg.chunk_size = cfg.chunk_size.max(1);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve() {
        let cfg = EngineConfig::default();
        assert!(cfg.resolved_workers() >= 1);
        assert_eq!(cfg.resolved_shards(), 64);
        assert_eq!(cfg.set, SignatureSet::all());
        assert!(cfg.track_labels);
        assert_eq!(cfg.chunk_size, 256);
    }

    #[test]
    fn shards_round_up_to_powers_of_two() {
        for (requested, resolved) in [(0, 1), (1, 1), (3, 4), (64, 64), (65, 128)] {
            let cfg = EngineConfig {
                shards: requested,
                ..EngineConfig::default()
            };
            assert_eq!(cfg.resolved_shards(), resolved, "requested {requested}");
        }
    }

    #[test]
    fn builder_clamps_every_knob() {
        let cfg = EngineConfig::builder().shards(3).chunk_size(0).build();
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.chunk_size, 1);
        let cfg = EngineConfig::builder().shards(0).build();
        assert_eq!(cfg.shards, 1);
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = EngineConfig::builder().build();
        let default = EngineConfig::default();
        assert_eq!(built.set, default.set);
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.shards, default.shards);
        assert_eq!(built.chunk_size, default.chunk_size);
        assert_eq!(built.track_labels, default.track_labels);
        assert_eq!(built.resolution, Resolution::Digest);
    }

    #[test]
    fn builder_sets_resolution() {
        let cfg = EngineConfig::builder().certified().build();
        assert_eq!(cfg.resolution, Resolution::Certified);
        assert_eq!(cfg.resolution.to_string(), "certified");
        assert_eq!(Resolution::Digest.to_string(), "digest");
    }
}
