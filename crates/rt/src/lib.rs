//! # vyrd-rt — the workspace's own concurrency & measurement substrate
//!
//! The paper's logging discipline (§4.2) demands that the infrastructure
//! under the [`EventLog`](../vyrd_core/log/struct.EventLog.html) —
//! channels, locks, timers — "interfere minimally with the
//! implementation". Runtime-verification folklore (Leucker) adds that the
//! monitor's own synchronization shapes which interleavings can be
//! observed at all. Owning these primitives in-tree therefore serves two
//! purposes:
//!
//! 1. the workspace builds and tests **offline, `std`-only** — no
//!    crates.io access, nothing vendored;
//! 2. later work can shard the logger or instrument the channel itself
//!    without fighting an opaque dependency.
//!
//! Nine modules:
//!
//! * [`channel`] — an MPSC channel, unbounded or bounded, with the
//!   `crossbeam::channel` subset the event log uses (`send`/`send_many`/
//!   `send_timeout`/`recv`/`recv_up_to`/`try_recv`/`recv_timeout`,
//!   iterator draining, disconnect semantics) and a wait protocol that
//!   makes no system call in steady state (notifies gated on a parked
//!   waiter, a bounded spin before parking);
//! * [`fault`] — a deterministic, seed-replayable failpoint framework
//!   (named injection sites, panic/delay/drop actions) so the pipeline's
//!   degradation paths can be exercised on production code;
//! * [`intern`] — an append-only string interner with lock-free lookups,
//!   so identifiers recorded on the logging fast path cost a `u32`
//!   instead of an allocation;
//! * [`metrics`] — a zero-allocation metrics registry (counters, gauges,
//!   fixed-bucket histograms on `CachePadded` atomics) plus per-method
//!   trace spans, so the pipeline can report its own lag, backlog depth,
//!   and verdict latency without outside tooling;
//! * [`sync`] — poison-free [`Mutex`](sync::Mutex)/[`RwLock`](sync::RwLock)
//!   wrappers whose `lock()`/`read()`/`write()` return guards directly,
//!   plus an owned [`ArcMutexGuard`](sync::ArcMutexGuard) for
//!   hand-over-hand locking;
//! * [`rng`] — a seedable SplitMix64/xoshiro256++ PRNG
//!   (`gen_range`, `gen_bool`, `shuffle`, `fill_bytes`) making workloads
//!   deterministic by seed;
//! * [`bench`] — a minimal benchmark runner (warmup, N timed samples,
//!   single or strictly alternating A/B, mean/median/p95/stddev on
//!   stderr) under the `crates/bench` gate and ablation binaries;
//! * [`json`] — the one JSON string escape the hand-written artifact
//!   emitters share;
//! * [`time`] — open-loop pacing ([`Pacer`](time::Pacer): fixed arrival
//!   schedule, never reflowed when the caller falls behind) and a
//!   stoppable periodic [`Ticker`](time::Ticker) for control loops.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod channel;
pub mod fault;
pub mod intern;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod time;
