//! Engine observability: mid-stream snapshots and end-of-run stats.

use crate::config::Resolution;
use std::time::Duration;

/// A consistent-enough view of the engine while a stream is still being
/// ingested — see [`Engine::snapshot`](crate::Engine::snapshot).
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Functions accepted by `submit`/`submit_batch` so far (some may
    /// still be queued or in flight).
    pub functions_submitted: u64,
    /// Functions whose class is already recorded in the store.
    pub functions_processed: u64,
    /// Candidate classes discovered so far.
    pub num_classes: usize,
    /// Classes currently held by each store shard, in shard order. The
    /// MSV digest is uniform, so a healthy engine shows a flat profile.
    pub shard_class_counts: Vec<usize>,
}

impl EngineSnapshot {
    /// Functions submitted but not yet classified (queued or in
    /// flight). Saturating: the two counters are read without a common
    /// lock, so a racing reader can observe `processed` bumped by a
    /// worker before it sees the `submitted` increment that covered the
    /// same function — a plain subtraction would wrap to ~`u64::MAX`.
    pub fn backlog(&self) -> u64 {
        self.functions_submitted
            .saturating_sub(self.functions_processed)
    }

    /// Occupancy skew: largest shard count over the ideal per-shard
    /// average (1.0 is perfectly flat). Meaningful once a few hundred
    /// classes exist.
    pub fn shard_skew(&self) -> f64 {
        let max = self.shard_class_counts.iter().copied().max().unwrap_or(0);
        let avg = self.num_classes as f64 / self.shard_class_counts.len().max(1) as f64;
        if avg == 0.0 {
            1.0
        } else {
            max as f64 / avg
        }
    }
}

/// End-of-run report of an [`Engine`](crate::Engine).
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Total functions ingested.
    pub functions_submitted: u64,
    /// Total functions classified (equals `functions_submitted` after
    /// [`finish`](crate::Engine::finish)).
    pub functions_processed: u64,
    /// Candidate NPN classes found.
    pub num_classes: usize,
    /// Worker threads the engine ran.
    pub workers: usize,
    /// Shards of the partition store.
    pub shards: usize,
    /// Shards holding at least one class.
    pub occupied_shards: usize,
    /// Classes in the fullest shard.
    pub max_shard_classes: usize,
    /// Memo-cache hits (0 when the cache is disabled). Includes the
    /// ingestion-side probes of the dedup fast path.
    pub cache_hits: u64,
    /// Memo-cache misses (every function, when the cache is disabled).
    pub cache_misses: u64,
    /// Functions resolved by the ingestion-side dedup fast path: the
    /// memo cache already knew their key, so they skipped the queue
    /// round-trip entirely (0 when the cache is disabled).
    pub dedup_hits: u64,
    /// Times a worker found the ingest queue empty and went to sleep on
    /// its condvar (it is woken by the next push). High `parks` with
    /// high throughput means ingestion, not classification, is the
    /// bottleneck; near-zero `parks` under load means the workers never
    /// starve.
    pub parks: u64,
    /// Wall-clock time from engine creation to the report.
    pub elapsed: Duration,
    /// Members recovered from an existing durable store before this run
    /// started (`0` for fresh or in-memory engines). They are included
    /// in `functions_submitted`/`functions_processed`, so the census
    /// view stays cumulative; [`EngineStats::throughput`] subtracts
    /// them.
    pub recovered_members: u64,
    /// Journal counters when the engine persists to disk, `None` for an
    /// in-memory run.
    pub durability: Option<DurabilityStats>,
    /// Resolution tier the engine ran
    /// ([`Resolution::Digest`]/[`Resolution::Certified`]).
    pub resolution: Resolution,
    /// Certified misses keyed by the canonical walk's label alone: the
    /// walk stayed within its budget, so the label is class-invariant
    /// and no signature key or matcher ran. Counts every such miss,
    /// not only class creations. `0` in digest mode.
    pub canon_walks: u64,
    /// Certified misses past the walk's budget that joined an
    /// already-cached representative of their digest bucket through
    /// the exact pairwise matcher. `0` in digest mode.
    pub canon_matches: u64,
    /// Certified classes past the walk's budget, created in their
    /// digest bucket with the capped walk's label (the partition is
    /// still exact). `0` in digest mode.
    pub canon_fallbacks: u64,
}

/// Counters of the durable store's write side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Bytes appended to shard journals (records and epoch markers;
    /// checkpoint segments are counted in `checkpoint_bytes`).
    pub journal_bytes: u64,
    /// Records appended to shard journals (class creations,
    /// representative updates and bumps — one per classified member).
    pub journal_records: u64,
    /// Checkpoint compactions performed.
    pub checkpoints: u64,
    /// Bytes written into checkpoint segments.
    pub checkpoint_bytes: u64,
    /// Log segments created (each shard starts one; every compaction
    /// rolls one more).
    pub segments_created: u64,
    /// `fsync` calls issued, all files included.
    pub fsyncs: u64,
    /// Epoch barriers issued (see
    /// [`Engine::flush`](crate::Engine::flush)); shards with nothing
    /// new since the previous barrier skip the on-disk marker.
    pub epochs: u64,
}

impl std::fmt::Display for DurabilityStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} journal records / {} B, {} checkpoints / {} B, \
             {} segments, {} fsyncs, {} epochs",
            self.journal_records,
            self.journal_bytes,
            self.checkpoints,
            self.checkpoint_bytes,
            self.segments_created,
            self.fsyncs,
            self.epochs,
        )
    }
}

/// What [`Engine::builder`](crate::Engine::builder)`.persist(dir)` and
/// [`Engine::recover`](crate::Engine::recover) found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards of the recovered store (from the manifest).
    pub shards: usize,
    /// Live classes rebuilt.
    pub classes: usize,
    /// Members across all recovered classes.
    pub members: u64,
    /// Classes loaded from checkpoint segments (the rest replayed from
    /// tail logs).
    pub checkpoint_classes: u64,
    /// Tail-log records replayed on top of the checkpoints.
    pub log_records: u64,
    /// Bytes dropped from torn tails (un-fsync'd partial writes cut
    /// short by a crash). `0` after a clean shutdown.
    pub truncated_bytes: u64,
    /// Shards whose tail log was torn and truncated.
    pub torn_shards: usize,
    /// Highest epoch-barrier marker seen in any journal.
    pub last_epoch: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} classes / {} members over {} shards \
             ({} from checkpoints, {} log records replayed, \
             epoch {}); torn tails: {} shards / {} bytes dropped",
            self.classes,
            self.members,
            self.shards,
            self.checkpoint_classes,
            self.log_records,
            self.last_epoch,
            self.torn_shards,
            self.truncated_bytes,
        )
    }
}

impl EngineStats {
    /// Functions classified *by this run* per second of wall-clock time
    /// (members recovered from disk are not counted — they cost a
    /// replay, not a classification).
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            (self.functions_processed - self.recovered_members) as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Fraction of key computations answered by the memo cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} functions -> {} classes | {} workers, {} shards \
             ({} occupied, max {}) | {:.0} fn/s | cache {:.1}% of {} \
             | {} deduped at ingest | {} parks",
            self.functions_processed,
            self.num_classes,
            self.workers,
            self.shards,
            self.occupied_shards,
            self.max_shard_classes,
            self.throughput(),
            self.cache_hit_rate() * 100.0,
            self.cache_hits + self.cache_misses,
            self.dedup_hits,
            self.parks,
        )?;
        if self.resolution == Resolution::Certified {
            write!(
                f,
                " | certified: {} walks, {} matches, {} fallbacks",
                self.canon_walks, self.canon_matches, self.canon_fallbacks,
            )?;
        }
        if let Some(d) = &self.durability {
            write!(f, " | journal: {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EngineStats {
        EngineStats {
            functions_submitted: 100,
            functions_processed: 100,
            num_classes: 10,
            workers: 4,
            shards: 8,
            occupied_shards: 6,
            max_shard_classes: 3,
            cache_hits: 25,
            cache_misses: 75,
            dedup_hits: 10,
            parks: 7,
            elapsed: Duration::from_secs(2),
            recovered_members: 0,
            durability: None,
            resolution: Resolution::Digest,
            canon_walks: 0,
            canon_matches: 0,
            canon_fallbacks: 0,
        }
    }

    #[test]
    fn derived_rates() {
        let s = stats();
        assert_eq!(s.throughput(), 50.0);
        assert_eq!(s.cache_hit_rate(), 0.25);
        let display = s.to_string();
        assert!(display.contains("100 functions -> 10 classes"), "{display}");
        assert!(
            display.contains("10 deduped at ingest | 7 parks"),
            "{display}"
        );
        // Digest mode stays silent about the certified tier…
        assert!(!display.contains("certified"), "{display}");
        // …a certified run reports its resolver counters.
        let certified = EngineStats {
            resolution: Resolution::Certified,
            canon_walks: 10,
            canon_matches: 88,
            canon_fallbacks: 2,
            ..stats()
        };
        let display = certified.to_string();
        assert!(
            display.contains("certified: 10 walks, 88 matches, 2 fallbacks"),
            "{display}"
        );
    }

    #[test]
    fn snapshot_backlog_and_skew() {
        let snap = EngineSnapshot {
            functions_submitted: 10,
            functions_processed: 7,
            num_classes: 4,
            shard_class_counts: vec![2, 0, 2, 0],
        };
        assert_eq!(snap.backlog(), 3);
        assert_eq!(snap.shard_skew(), 2.0);
        // A racy read can see `processed` ahead of `submitted`; the
        // backlog clamps to zero instead of wrapping.
        let racy = EngineSnapshot {
            functions_submitted: 5,
            functions_processed: 7,
            num_classes: 1,
            shard_class_counts: vec![1],
        };
        assert_eq!(racy.backlog(), 0);
        let empty = EngineSnapshot {
            functions_submitted: 0,
            functions_processed: 0,
            num_classes: 0,
            shard_class_counts: vec![0; 4],
        };
        assert_eq!(empty.shard_skew(), 1.0);
    }
}
