//! # facepoint-engine
//!
//! A sharded, parallel, **streaming** NPN classification engine on top
//! of [`facepoint_core`] — the throughput layer the paper's scalability
//! claim calls for: signature-hash classification is embarrassingly
//! parallel because every function is processed independently (no
//! transformation search), so an engine only has to keep workers fed
//! and partition state contention-free.
//!
//! Where [`facepoint_core::Classifier`] is one-shot (`Vec` in, map
//! out), the [`Engine`]:
//!
//! * **streams** — [`Engine::submit`] / [`Engine::submit_batch`] accept
//!   functions while classification is in flight, and
//!   [`Engine::snapshot`] answers queries mid-stream;
//! * **parallelizes** — worker threads compute
//!   [`signature_key`](facepoint_core::signature_key)s concurrently
//!   with ingestion, taking chunks from one bounded FIFO queue in
//!   submission order; `submit` blocks only while the queue is full
//!   (backpressure instead of unbounded buffering). Every ingestion
//!   method takes `&self` and buffers nothing between calls, so
//!   concurrent producers share one engine by reference with no lock
//!   around it;
//! * **shards** — the partition store spreads classes over `S` shards
//!   keyed by the *high bits* of the 128-bit MSV digest (the digest is
//!   uniform, so shards load-balance), each behind its own lock, so
//!   workers touching different classes never contend;
//! * **memoizes** — an optional sharded table→key cache short-circuits
//!   repeated-function traffic (cut workloads repeat heavily);
//! * **certifies** — [`Resolution::Certified`] keys **proved** NPN
//!   classes: each miss takes one influence-aided canonical walk, whose
//!   class-invariant label is the class; only functions past the
//!   walk's work budget are bucketed by digest and take the exact
//!   pairwise-matcher witness path against the cached representatives,
//!   and [`Engine::canon`] answers point queries with the proved
//!   representative plus a witness transform;
//! * **persists** — [`Engine::builder`]`.persist(dir)` journals every
//!   class mutation to
//!   an append-only, CRC-guarded, per-shard segment log with periodic
//!   checkpoint compaction, so a library-scale census survives
//!   restarts and SIGKILLs: recovery replays the newest checkpoint
//!   plus the log tail, truncating torn writes. What a crash can cost
//!   depends on [`SyncPolicy`]: at most the final un-fsync'd epoch
//!   under the default [`SyncPolicy::Barrier`], nothing acknowledged
//!   under [`SyncPolicy::Always`], and up to the kernel's writeback
//!   under [`SyncPolicy::Never`] (layout and crash-safety argument in
//!   the `store` module source; knobs on [`PersistConfig`]);
//! * **reports** — [`EngineStats`] carries throughput, shard occupancy,
//!   cache hit rates and journal counters.
//!
//! [`Engine::finish`] drains the pipeline and returns the exact same
//! partition a single-threaded [`Classifier`](facepoint_core::Classifier)
//! would produce, as a standard
//! [`Classification`](facepoint_core::Classification) — worker count
//! and interleaving never change the result.
//!
//! # Quick start
//!
//! ```
//! use facepoint_engine::Engine;
//! use facepoint_sig::SignatureSet;
//! use facepoint_truth::TruthTable;
//!
//! let engine = Engine::new(SignatureSet::all());
//! engine.submit(TruthTable::majority(3));
//! engine.submit_batch([
//!     TruthTable::majority(3).flip_var(0), // same class as majority
//!     TruthTable::parity(3),               // a different class
//! ]);
//! let report = engine.finish();
//! assert_eq!(report.classification.num_classes(), 2);
//! assert_eq!(report.stats.functions_processed, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod engine;
mod pool;
mod stats;
mod store;

pub use config::{EngineConfig, EngineConfigBuilder, PersistConfig, Resolution, SyncPolicy};
pub use engine::{
    certified_key, CanonAnswer, CanonHandle, Engine, EngineBuilder, EngineReport, RecoveredSnapshot,
};
pub use stats::{DurabilityStats, EngineSnapshot, EngineStats, RecoveryReport};
pub use store::ClassSummary;
