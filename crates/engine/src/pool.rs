//! The ingest queue: one bounded FIFO of chunks that every worker
//! pops from.
//!
//! One mutex guards the items and the closed flag, with two condvars:
//! workers wait on "not empty", producers on "not full". A push wakes
//! one worker and a pop wakes one producer. Workers take chunks in
//! submission order at every worker count.
//!
//! * **Backpressure.** The queue holds [`CHUNKS_PER_WORKER`] chunks
//!   per worker; past that, `push` blocks until a worker pops, so
//!   `submit` never buffers without bound.
//! * **Clean quiescence.** [`IngestQueue::close`] refuses every later
//!   push, returning its item, and wakes everyone. Workers drain what
//!   is queued, then [`IngestQueue::next_item`] returns `None`. The
//!   engine closes its queue only in `finish`/`Drop`, which own the
//!   engine, so no push races the close: every accepted item is
//!   processed exactly once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Chunks queued per worker before producers block.
const CHUNKS_PER_WORKER: usize = 8;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. Generic over the item type so it can be unit-tested
/// without the engine.
pub(crate) struct IngestQueue<T> {
    queue: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// `items.len()`, written under the lock and read without it: the
    /// `engine_deque_depth` sampler runs under the telemetry registry
    /// lock, which must not nest the queue lock inside it.
    depth: AtomicUsize,
    parks: AtomicU64,
}

impl<T> IngestQueue<T> {
    /// A queue feeding `workers` workers (at least 1).
    pub fn new(workers: usize) -> Self {
        let capacity = CHUNKS_PER_WORKER * workers.max(1);
        IngestQueue {
            queue: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Times a worker waited on an empty queue so far.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Items queued and not yet taken by a worker: the
    /// `engine_deque_depth` gauge.
    pub fn queued(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Appends `item`, blocking while the queue is full. `Err(item)`
    /// only once the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.queue.lock().expect("ingest queue poisoned");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("ingest queue poisoned");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.depth.store(state.items.len(), Ordering::Relaxed);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is queued and returns the oldest, or
    /// returns `None` once the queue is closed **and** empty: the
    /// worker-loop driver.
    pub fn next_item(&self) -> Option<T> {
        let mut state = self.queue.lock().expect("ingest queue poisoned");
        if state.items.is_empty() && !state.closed {
            self.parks.fetch_add(1, Ordering::Relaxed);
            while state.items.is_empty() && !state.closed {
                state = self.not_empty.wait(state).expect("ingest queue poisoned");
            }
        }
        let item = state.items.pop_front()?;
        self.depth.store(state.items.len(), Ordering::Relaxed);
        drop(state);
        self.not_full.notify_one();
        Some(item)
    }

    /// Closes the queue: later pushes fail, and workers drain what is
    /// queued, then exit their [`IngestQueue::next_item`] loops.
    /// Idempotent.
    pub fn close(&self) {
        self.queue.lock().expect("ingest queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn queue(workers: usize) -> Arc<IngestQueue<u64>> {
        Arc::new(IngestQueue::new(workers))
    }

    /// Pops everything left in a closed queue.
    fn drain(q: &IngestQueue<u64>) -> Vec<u64> {
        std::iter::from_fn(|| q.next_item()).collect()
    }

    #[test]
    fn every_item_is_delivered_exactly_once() {
        for workers in [1usize, 2, 4] {
            let q = queue(workers);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || drain(&q))
                })
                .collect();
            // Far past capacity, so producers block and resume.
            let n = 1000u64;
            for v in 1..=n {
                q.push(v).expect("queue open");
            }
            q.close();
            let mut got: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, (1..=n).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(q.queued(), 0);
        }
    }

    #[test]
    fn single_worker_pool_drains_in_submission_order() {
        // FIFO: the property per-shard journal-replay tests rely on.
        let q = queue(1);
        for v in 0..8u64 {
            q.push(v).unwrap();
        }
        q.close();
        assert_eq!(drain(&q), (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_deques_block_and_release_producers() {
        let q = queue(1);
        for v in 0..CHUNKS_PER_WORKER as u64 {
            q.push(v).unwrap();
        }
        assert_eq!(q.queued(), CHUNKS_PER_WORKER);
        // A push past capacity blocks until one pop frees a slot.
        let p = Arc::clone(&q);
        let pusher = std::thread::spawn(move || p.push(99).is_ok());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!pusher.is_finished(), "push past capacity did not block");
        assert_eq!(q.next_item(), Some(0));
        assert!(pusher.join().unwrap());
        assert_eq!(q.queued(), CHUNKS_PER_WORKER);
        q.close();
        let mut expected: Vec<u64> = (1..CHUNKS_PER_WORKER as u64).collect();
        expected.push(99);
        assert_eq!(drain(&q), expected);
    }

    #[test]
    fn close_refuses_new_pushes_and_wakes_sleepers() {
        // A worker parked on the empty queue must wake and exit on
        // close. The park is counted under the lock that `wait`
        // releases, so once it shows, the worker is waiting or about to.
        let q = queue(2);
        let p = Arc::clone(&q);
        let worker = std::thread::spawn(move || p.next_item());
        let deadline = Instant::now() + Duration::from_secs(10);
        while q.parks() == 0 {
            assert!(Instant::now() < deadline, "empty-queue worker never parked");
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(worker.join().unwrap(), None);
        assert_eq!(q.push(7), Err(7), "closed queue accepted a push");
        assert_eq!(q.queued(), 0);
    }
}
