//! The work-stealing ingest pool: per-worker bounded deques instead of
//! one queue behind one lock.
//!
//! The previous ingest path handed every chunk through a single
//! `Mutex<Receiver<Job>>` — workers serialized on one lock to pop, and
//! at high core counts the queue, not the signature kernel, became the
//! ceiling. This pool removes that last global contention point:
//!
//! * **one bounded deque per worker** ([`PoolConfig::deque_capacity`]
//!   items each). Producers push to the least-loaded deque (cheap
//!   atomic length scan, one short per-deque lock), so two producers —
//!   or a producer and a stealing worker — only ever collide on a
//!   single deque, never on a global structure;
//! * **LIFO own-drain, FIFO steal**: a worker pops its own deque from
//!   the back (the chunk most recently pushed is the one warmest in
//!   cache) and, when its deque runs dry, steals up to
//!   [`PoolConfig::steal_batch`] items from the *front* of a victim's
//!   deque — the items the owner would reach last — re-queueing all but
//!   one locally so a single steal amortizes over several chunks;
//! * **parking, not spinning**: a worker that finds every deque empty
//!   registers as a sleeper and blocks on a condvar; producers wake one
//!   sleeper per push only when someone is actually asleep, so the
//!   loaded steady state performs no wakeup syscalls at all. Producers
//!   park symmetrically when every deque is full (backpressure —
//!   `submit` still blocks rather than buffering unboundedly);
//! * **clean quiescence**: [`StealPool::close`] marks the pool closed
//!   and then locks every deque once, which fences stragglers — any
//!   push that observed the pool open lands before the fence, and any
//!   push after it is refused with its item returned. Workers exit once
//!   the pool is closed *and* globally empty. The engine closes its
//!   pool only in `finish`/`Drop`, which own the engine, so no push can
//!   race the close: every accepted item is processed exactly once.
//!
//! The wake/sleep handshake is the classic two-counter pattern: the
//! producer bumps the queued count (`SeqCst`) and *then* reads the
//! sleeper count; the worker registers as a sleeper (`SeqCst`, under
//! the coordination lock) and *then* re-reads the queued count before
//! waiting. In the total order of those four operations at least one
//! side observes the other, so a push is never lost to a sleeping
//! worker — without any lock on the hot path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Tuning of a [`StealPool`], resolved from
/// [`EngineConfig`](crate::EngineConfig).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolConfig {
    /// Worker (and deque) count, at least 1.
    pub workers: usize,
    /// Items each deque holds before producers block, at least 1.
    pub deque_capacity: usize,
    /// Items moved per steal, clamped to `1..=deque_capacity`.
    pub steal_batch: usize,
}

/// One worker's deque: the queue behind a short lock, plus an atomic
/// length so producers and thieves can pick a target without locking.
#[derive(Debug)]
struct DequeSlot<T> {
    q: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

/// The pool. Generic over the item type so its scheduling logic can be
/// unit-tested without dragging the engine in.
#[derive(Debug)]
pub(crate) struct StealPool<T> {
    deques: Vec<DequeSlot<T>>,
    capacity: usize,
    steal_batch: usize,
    /// Items queued across all deques (excludes items being processed).
    queued: AtomicUsize,
    closed: AtomicBool,
    /// Round-robin tiebreaker for producers picking a target deque.
    rr: AtomicUsize,
    /// Coordination lock for the two condvars; never taken on the
    /// loaded hot path.
    coord: Mutex<()>,
    /// Workers wait here when every deque is empty.
    work_cv: Condvar,
    /// Producers wait here when every deque is full.
    space_cv: Condvar,
    sleepers: AtomicUsize,
    waiting_producers: AtomicUsize,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl<T> StealPool<T> {
    pub fn new(cfg: PoolConfig) -> Self {
        let workers = cfg.workers.max(1);
        let capacity = cfg.deque_capacity.max(1);
        StealPool {
            deques: (0..workers)
                .map(|_| DequeSlot {
                    q: Mutex::new(VecDeque::with_capacity(capacity)),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            capacity,
            steal_batch: cfg.steal_batch.clamp(1, capacity),
            queued: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            coord: Mutex::new(()),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            waiting_producers: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Whether [`StealPool::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Items stolen between deques so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Times a worker went to sleep on an empty pool so far.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Items currently queued across all deques (excludes items a
    /// worker has already taken and is processing) — the live deque
    /// depth behind the `engine_deque_depth` gauge.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    fn lock_deque(&self, i: usize) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.deques[i].q.lock().expect("ingest deque poisoned")
    }

    /// One push attempt: probe every deque starting from the
    /// least-loaded one; `Ok` on success, `Err(item)` when the pool is
    /// closed or every deque is full.
    fn try_push(&self, item: T) -> Result<(), T> {
        // Least-loaded first (atomic scan, no locks), round-robin on
        // ties so an all-empty pool still spreads work over workers.
        let n = self.deques.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_len = self.deques[start].len.load(Ordering::Relaxed);
        for off in 1..n {
            let i = (start + off) % n;
            let len = self.deques[i].len.load(Ordering::Relaxed);
            if len < best_len {
                best = i;
                best_len = len;
            }
        }
        for off in 0..n {
            let i = (best + off) % n;
            let mut q = self.lock_deque(i);
            // Checked under the deque lock: `close` fences every deque
            // after setting the flag, so a push that sees the pool open
            // here lands before the close sweep completes (and is
            // therefore drained), while any later push is refused.
            if self.closed.load(Ordering::SeqCst) {
                return Err(item);
            }
            if q.len() < self.capacity {
                let was_empty = q.is_empty();
                q.push_back(item);
                self.deques[i].len.store(q.len(), Ordering::Relaxed);
                // Count the item while still holding the deque lock: a
                // consumer can only pop it after this unlock, so its
                // `note_taken` decrement always follows this increment
                // — `queued` can never transiently underflow (which
                // would wrap and mute the producer wake).
                self.queued.fetch_add(1, Ordering::SeqCst);
                drop(q);
                // Wake a sleeper only on the deque's empty→non-empty
                // transition: workers only ever park when the whole
                // pool is empty (every deque included), so a push onto
                // a non-empty deque cannot be the one a sleeper is
                // waiting for — skipping the coordination lock here
                // keeps the loaded steady state syscall-free.
                if was_empty && self.sleepers.load(Ordering::SeqCst) > 0 {
                    let _g = self.coord.lock().expect("pool coord poisoned");
                    self.work_cv.notify_one();
                }
                return Ok(());
            }
        }
        Err(item)
    }

    /// Pushes `item`, blocking while every deque is full
    /// (backpressure). `Err(item)` only when the pool is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut item = item;
        loop {
            if self.is_closed() {
                return Err(item);
            }
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(back) => item = back,
            }
            if self.is_closed() {
                return Err(item);
            }
            // Full everywhere: park until a worker makes space.
            let total = self.capacity * self.deques.len();
            let mut g = self.coord.lock().expect("pool coord poisoned");
            self.waiting_producers.fetch_add(1, Ordering::SeqCst);
            while self.queued.load(Ordering::SeqCst) >= total && !self.is_closed() {
                g = self.space_cv.wait(g).expect("pool coord poisoned");
            }
            self.waiting_producers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A worker removed `taken` items from the queued set: update the
    /// global count and wake blocked producers once real room exists.
    ///
    /// The wake has **hysteresis**: producers block only when every
    /// deque is full, and are woken when the pool drains below half —
    /// not the instant one slot frees. Per-slot wakeups would cost two
    /// context switches per item in the saturated steady state (wake
    /// producer, push one, block again); draining to half lets a woken
    /// producer refill in one long burst. Producers never wait while
    /// the pool is below capacity, so the deferred wake costs no
    /// progress — only the workers get longer uninterrupted runs.
    fn note_taken(&self, taken: usize) {
        let after = self.queued.fetch_sub(taken, Ordering::SeqCst) - taken;
        let threshold = (self.capacity * self.deques.len() / 2).max(1);
        if after < threshold && self.waiting_producers.load(Ordering::SeqCst) > 0 {
            let _g = self.coord.lock().expect("pool coord poisoned");
            self.space_cv.notify_all();
        }
    }

    /// Pops the newest item of worker `me`'s own deque (LIFO: the chunk
    /// pushed last is the warmest, and thieves take from the other
    /// end).
    ///
    /// A **single-worker** pool drains FIFO instead: with no peers to
    /// steal the oldest items, LIFO would let a fast producer starve
    /// the front of the deque and would reverse processing order — a
    /// sequential engine keeps its deterministic submission-order
    /// processing (which per-shard journal replay tests rely on).
    fn pop_own(&self, me: usize) -> Option<T> {
        if self.deques[me].len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = self.lock_deque(me);
        let item = if self.deques.len() == 1 {
            q.pop_front()
        } else {
            q.pop_back()
        };
        self.deques[me].len.store(q.len(), Ordering::Relaxed);
        drop(q);
        if item.is_some() {
            self.note_taken(1);
        }
        item
    }

    /// Steals up to `steal_batch` items from the *front* of the first
    /// non-empty victim deque (FIFO — the items the owner would reach
    /// last), keeps one to process and re-queues the rest onto `me`'s
    /// own deque.
    fn steal(&self, me: usize) -> Option<T> {
        let n = self.deques.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if self.deques[victim].len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut batch = {
                let mut q = self.lock_deque(victim);
                let take = self.steal_batch.min(q.len());
                let batch: Vec<T> = q.drain(..take).collect();
                self.deques[victim].len.store(q.len(), Ordering::Relaxed);
                batch
            };
            if batch.is_empty() {
                continue;
            }
            self.steals.fetch_add(batch.len() as u64, Ordering::Relaxed);
            let first = batch.remove(0);
            self.note_taken(1);
            if !batch.is_empty() {
                let mut own = self.lock_deque(me);
                // `steal_batch <= capacity` and the thief's deque was
                // empty a moment ago; even if a producer raced some
                // pushes in, exceeding the soft bound momentarily beats
                // dropping work.
                own.extend(batch);
                self.deques[me].len.store(own.len(), Ordering::Relaxed);
            }
            return Some(first);
        }
        None
    }

    /// Blocks worker `me` until an item is available and returns it, or
    /// returns `None` once the pool is closed **and** empty — the
    /// worker-loop driver.
    pub fn next_item(&self, me: usize) -> Option<T> {
        loop {
            if let Some(item) = self.pop_own(me) {
                return Some(item);
            }
            if let Some(item) = self.steal(me) {
                return Some(item);
            }
            if self.is_closed() && self.queued.load(Ordering::SeqCst) == 0 {
                return None;
            }
            // Nothing anywhere: sleep until a producer pushes (or the
            // pool closes). The queued re-check under the coordination
            // lock pairs with the producer's post-push sleeper check.
            self.parks.fetch_add(1, Ordering::Relaxed);
            let mut g = self.coord.lock().expect("pool coord poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.queued.load(Ordering::SeqCst) == 0 && !self.is_closed() {
                g = self.work_cv.wait(g).expect("pool coord poisoned");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Closes the pool: no push started after this call can succeed,
    /// workers drain what is queued and then exit their
    /// [`StealPool::next_item`] loops. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Fence: a racing push holds some deque lock while it checks
        // the flag; taking every lock once means that after this loop,
        // every push either already landed (and will be drained) or
        // will observe `closed` and be refused.
        for i in 0..self.deques.len() {
            drop(self.lock_deque(i));
        }
        let _g = self.coord.lock().expect("pool coord poisoned");
        self.work_cv.notify_all();
        self.space_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn pool(workers: usize, cap: usize, batch: usize) -> Arc<StealPool<u64>> {
        Arc::new(StealPool::new(PoolConfig {
            workers,
            deque_capacity: cap,
            steal_batch: batch,
        }))
    }

    #[test]
    fn every_item_is_delivered_exactly_once() {
        for workers in [1usize, 2, 4] {
            let pool = pool(workers, 4, 2);
            let sum = Arc::new(AtomicU64::new(0));
            let count = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let pool = Arc::clone(&pool);
                    let sum = Arc::clone(&sum);
                    let count = Arc::clone(&count);
                    std::thread::spawn(move || {
                        while let Some(v) = pool.next_item(me) {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            let n = 1000u64;
            for v in 1..=n {
                pool.push(v).expect("pool open");
            }
            pool.close();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(pool.queued(), 0);
            assert_eq!(count.load(Ordering::Relaxed), n, "{workers} workers");
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn lone_consumer_steals_from_other_deques() {
        // Two deques, one consumer: pushes spread over both (least
        // loaded), so worker 0 must steal everything routed to deque 1.
        let pool = pool(2, 8, 3);
        for v in 0..8u64 {
            pool.push(v).unwrap();
        }
        assert!(pool.deques[1].len.load(Ordering::Relaxed) > 0);
        let mut got = Vec::new();
        pool.close();
        while let Some(v) = pool.next_item(0) {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..8u64).collect::<Vec<_>>());
        assert!(pool.steals() > 0, "worker 0 never stole");
    }

    #[test]
    fn own_deque_drains_lifo_steals_take_fifo() {
        let pool = pool(2, 8, 2);
        // Fill deque 0 directly so the order is known.
        {
            let mut q = pool.lock_deque(0);
            q.extend([1u64, 2, 3, 4]);
            pool.deques[0].len.store(4, Ordering::Relaxed);
            pool.queued.store(4, Ordering::SeqCst);
        }
        // Owner pops the back (LIFO).
        assert_eq!(pool.pop_own(0), Some(4));
        // A thief takes from the front (FIFO), keeping the first and
        // re-queueing the second onto its own deque.
        assert_eq!(pool.steal(1), Some(1));
        assert_eq!(pool.deques[1].len.load(Ordering::Relaxed), 1);
        assert_eq!(pool.pop_own(1), Some(2));
        assert_eq!(pool.pop_own(0), Some(3));
    }

    #[test]
    fn single_worker_pool_drains_in_submission_order() {
        // The sequential configuration keeps deterministic FIFO order —
        // the property per-shard journal-replay tests rely on.
        let pool = pool(1, 16, 4);
        for v in 0..10u64 {
            pool.push(v).unwrap();
        }
        pool.close();
        let mut got = Vec::new();
        while let Some(v) = pool.next_item(0) {
            got.push(v);
        }
        assert_eq!(got, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_deques_block_and_release_producers() {
        let pool = pool(2, 2, 1); // 4 items total, producer-wake threshold 2
        for v in 0..4u64 {
            pool.push(v).unwrap();
        }
        assert_eq!(pool.queued.load(Ordering::SeqCst), 4);
        // The fifth push must block until consumers make room.
        let p = Arc::clone(&pool);
        let pusher = std::thread::spawn(move || p.push(99).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!pusher.is_finished(), "push past capacity did not block");
        // Producer wakes have hysteresis: the blocked push resumes once
        // the pool drains below half capacity, not per freed slot.
        let mut taken = 0;
        while taken < 3 {
            assert!(pool.next_item(0).is_some());
            taken += 1;
        }
        assert!(pusher.join().unwrap());
        pool.close();
        while pool.next_item(0).is_some() {
            taken += 1;
        }
        assert_eq!(taken, 5, "all five pushed items must be delivered");
    }

    #[test]
    fn close_refuses_new_pushes_and_wakes_sleepers() {
        let pool = pool(2, 4, 2);
        // A parked worker (empty pool) must wake and exit on close.
        let p = Arc::clone(&pool);
        let worker = std::thread::spawn(move || p.next_item(0));
        std::thread::sleep(std::time::Duration::from_millis(30));
        pool.close();
        assert_eq!(worker.join().unwrap(), None);
        assert!(pool.parks() > 0, "empty-pool worker never parked");
        assert_eq!(pool.push(7), Err(7), "closed pool accepted a push");
        assert_eq!(pool.queued(), 0);
    }
}
