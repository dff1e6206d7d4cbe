//! Striped atomic cells: [`Counter`] and [`Gauge`].
//!
//! Both instruments spread their state over [`STRIPES`]
//! cache-line-aligned cells. A recording thread picks its stripe once
//! (a process-global round-robin, remembered in a thread-local) and
//! then only ever touches that cell — two worker threads bumping the
//! same counter write different cache lines, so the hot path costs one
//! uncontended relaxed RMW. Reads sum the stripes; they are
//! monotonic-per-stripe but not a linearizable cut, which is exactly
//! the contract a scrape needs.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripe count per instrument. A power of two a bit above typical
/// worker counts: enough that threads rarely share a stripe, small
/// enough that a snapshot sum stays trivial.
pub const STRIPES: usize = 16;

/// One cache line per cell so stripes never share one (64 B covers
/// x86-64 and the common aarch64 configurations).
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct PaddedI64(AtomicI64);

/// This thread's stripe: assigned round-robin from a process-global
/// counter the first time the thread records anything, then cached in
/// a const-initialized thread-local (no lazy allocation, so recording
/// stays allocation-free even on a thread's first record).
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v % STRIPES
    })
}

/// A monotonically increasing sum, striped across cache lines.
///
/// Use for totals: functions processed, bytes read, parks. Relaxed
/// ordering throughout — the value is a statistic, not a
/// synchronization edge.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedU64; STRIPES],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to this thread's stripe. Allocation-free, lock-free.
    // analysis: no_alloc
    pub fn add(&self, n: u64) {
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    // analysis: no_alloc
    pub fn inc(&self) {
        self.add(1);
    }

    /// The sum of all stripes.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A value that can go up and down, striped across cache lines.
///
/// Use for levels: open connections, queued chunks. Concurrent
/// [`add`](Gauge::add) / [`sub`](Gauge::sub) pairs from any threads
/// are safe; [`set`](Gauge::set) is for single-writer sampled gauges
/// (it rewrites every stripe and is not atomic as a whole).
#[derive(Default)]
pub struct Gauge {
    cells: [PaddedI64; STRIPES],
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds `n` to this thread's stripe. Allocation-free, lock-free.
    // analysis: no_alloc
    pub fn add(&self, n: i64) {
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from this thread's stripe.
    // analysis: no_alloc
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Overwrites the gauge with `v` (stripe 0 takes the value, the
    /// rest are zeroed). Only for gauges with a single sampling
    /// writer; a reader racing the rewrite can see a partial sum.
    pub fn set(&self, v: i64) {
        self.cells[0].0.store(v, Ordering::Relaxed);
        for c in &self.cells[1..] {
            c.0.store(0, Ordering::Relaxed);
        }
    }

    /// The sum of all stripes.
    pub fn get(&self) -> i64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0i64, i64::wrapping_add)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                    c.add(5);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8 * 1005);
    }

    #[test]
    fn gauge_add_sub_and_set() {
        let g = Arc::new(Gauge::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        g.add(3);
                        g.sub(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.get(), 800);
        g.set(-7);
        assert_eq!(g.get(), -7);
        g.set(42);
        assert_eq!(g.get(), 42);
    }
}
