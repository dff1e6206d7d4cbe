//! A sharded table→key memo cache for repeated-function traffic.
//!
//! Cut streams from real netlists repeat functions heavily (the same
//! AND/MUX/XOR shapes appear in every cone), so memoizing the
//! signature-key computation — the engine's only expensive step —
//! converts repeat traffic into a hash probe. The cache is sharded
//! like the partition store so workers rarely contend, and bounded:
//! once a shard is full new entries are simply not recorded (no
//! eviction churn; the hot entries of a repeating stream are inserted
//! early by construction).

use facepoint_truth::TruthTable;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of cache shards (fixed; the capacity knob is what matters).
const CACHE_SHARDS: usize = 16;

#[derive(Debug)]
pub(crate) struct MemoCache {
    shards: Vec<Mutex<HashMap<TruthTable, u128>>>,
    /// Per-shard entry limits; they sum to exactly the requested
    /// capacity (the remainder after dividing by the shard count goes
    /// to the first shards).
    shard_capacity: Vec<usize>,
    disabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCache {
    /// A cache holding at most `capacity` entries in total; `0`
    /// disables caching entirely (every lookup is a miss and nothing is
    /// stored).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            shard_capacity: (0..CACHE_SHARDS)
                .map(|i| capacity / CACHE_SHARDS + usize::from(i < capacity % CACHE_SHARDS))
                .collect(),
            disabled: capacity == 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, table: &TruthTable) -> usize {
        let mut h = DefaultHasher::new();
        table.hash(&mut h);
        (h.finish() as usize) % CACHE_SHARDS
    }

    /// Returns the memoized key of `table` if it is already cached —
    /// the ingestion-side dedup probe. Counts as a cache hit when it
    /// succeeds; a failed probe is *not* counted as a miss (the worker
    /// that later computes the key records the miss), so
    /// `hits + misses` still equals the number of keyed functions.
    pub fn peek(&self, table: &TruthTable) -> Option<u128> {
        if self.disabled {
            return None;
        }
        let idx = self.shard_of(table);
        let key = self.shards[idx]
            .lock()
            .expect("cache shard poisoned")
            .get(table)
            .copied();
        if key.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        key
    }

    /// Seeds the cache with an already-known `table → key` pair without
    /// touching the hit/miss counters — used to warm the cache from a
    /// recovered store's representatives, so a reopened engine's dedup
    /// fast path works from the first submission. Respects capacity
    /// like any other insert, and clones the table only when it is
    /// actually stored (warming from a store far larger than the cache
    /// must not allocate per rejected entry).
    pub fn prime(&self, table: &TruthTable, key: u128) {
        if self.disabled {
            return;
        }
        let idx = self.shard_of(table);
        let mut shard = self.shards[idx].lock().expect("cache shard poisoned");
        if shard.len() < self.shard_capacity[idx] {
            shard.insert(table.clone(), key);
        }
    }

    /// Records a freshly computed `table → key` pair and counts the
    /// miss. A worker probes each entry with [`Self::peek`] (which
    /// counts hits) and, when the probe fails, keys the table and
    /// records it here before probing the next entry, so `hits +
    /// misses` equals the number of keyed functions and a repeat later
    /// in the same chunk hits. Keys are pure, so racing records of one
    /// table from different workers are harmless (each counts as the
    /// miss it was).
    pub fn record(&self, table: &TruthTable, key: u128) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.disabled {
            return;
        }
        let idx = self.shard_of(table);
        let mut shard = self.shards[idx].lock().expect("cache shard poisoned");
        if shard.len() < self.shard_capacity[idx] {
            shard.insert(table.clone(), key);
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(bits: u64) -> TruthTable {
        TruthTable::from_u64(4, bits).unwrap()
    }

    #[test]
    fn caches_repeat_lookups() {
        let cache = MemoCache::new(1024);
        cache.record(&t(0xbeef), 42);
        for _ in 0..4 {
            assert_eq!(cache.peek(&t(0xbeef)), Some(42));
        }
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn peek_probes_without_recording_misses() {
        let cache = MemoCache::new(64);
        assert_eq!(cache.peek(&t(5)), None);
        assert_eq!(cache.misses(), 0, "failed probes are not misses");
        cache.record(&t(5), 99);
        assert_eq!(cache.peek(&t(5)), Some(99));
        assert_eq!(cache.hits(), 1);
        let disabled = MemoCache::new(0);
        assert_eq!(disabled.peek(&t(5)), None);
        assert_eq!(disabled.hits(), 0);
    }

    #[test]
    fn record_counts_misses_and_feeds_later_peeks() {
        let cache = MemoCache::new(64);
        assert_eq!(cache.peek(&t(7)), None);
        cache.record(&t(7), 123);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.peek(&t(7)), Some(123));
        assert_eq!(cache.hits(), 1);
        // Disabled cache: the miss is still accounted, nothing stored.
        let disabled = MemoCache::new(0);
        disabled.record(&t(7), 123);
        assert_eq!(disabled.misses(), 1);
        assert_eq!(disabled.peek(&t(7)), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = MemoCache::new(0);
        for _ in 0..3 {
            assert_eq!(cache.peek(&t(1)), None);
            cache.record(&t(1), 7);
        }
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn bounded_capacity_stops_growing() {
        // The total entry count must never exceed the requested
        // capacity, whatever it is (the bound the docs promise).
        for capacity in [1usize, 5, 16, 40] {
            let cache = MemoCache::new(capacity);
            for i in 0..1000u64 {
                cache.record(&t(i), i as u128);
            }
            let total: usize = cache.shards.iter().map(|s| s.lock().unwrap().len()).sum();
            assert!(total <= capacity, "capacity {capacity} grew to {total}");
        }
        // Entries that made it in still hit.
        let cache = MemoCache::new(16);
        cache.record(&t(0), 0);
        let hits_before = cache.hits();
        assert_eq!(cache.peek(&t(0)), Some(0));
        assert_eq!(cache.hits(), hits_before + 1);
    }
}
