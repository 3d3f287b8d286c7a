#![warn(missing_docs)]
//! # bqc-engine — a concurrent, caching batch containment engine
//!
//! The rest of the workspace proves Theorems 2.7/3.1/6.1 one query pair at a
//! time through [`bqc_core::decide_containment`].  This crate turns that
//! decision procedure into a *serving subsystem* that amortizes work across
//! requests, exploiting the fact that real containment workloads are highly
//! repetitive — the same pair re-asked modulo variable renaming and atom
//! reordering — while each individual decision solves an exact LP with
//! exponentially many columns:
//!
//! * [`canon`] — canonical forms of conjunctive queries modulo variable
//!   renaming and atom reordering (iterative refinement with a backtracking
//!   individualization search, transposition-automorphism pruning), plus
//!   stable 64-bit FNV-1a hashes for queries and `(Q1, Q2)` pairs;
//! * [`cache`] — a sharded, LRU-bounded decision cache storing
//!   [`bqc_core::AnswerSummary`] values, with hit/miss/eviction counters and
//!   a canonical-text collision guard;
//! * [`engine`] — [`Engine::decide_batch`]: canonicalize, dedup, serve
//!   repeats from cache, and fan the remaining distinct pairs out over a
//!   `std::thread::scope` worker pool, reporting per-request provenance
//!   ([`Provenance::Fresh`] / [`Provenance::CachedHit`] /
//!   [`Provenance::DedupedInFlight`]) and timing;
//! * [`workload`] — the textual workload format consumed by the `bqc` CLI
//!   (one `Q1 … ; Q2 …` question per line) and a small JSON string escaper
//!   for the machine-readable report;
//! * [`persist`] — durable snapshots of the decision cache: a versioned,
//!   length-prefixed, checksummed binary format (written atomically, loaded
//!   with a corrupt-file quarantine path) serializing every canonical key +
//!   [`bqc_core::AnswerSummary`] pair, so a restarted `bqc serve` answers
//!   its steady-state traffic from byte-identical cached verdicts
//!   ([`Engine::save_snapshot`] / [`Engine::load_snapshot`]);
//! * [`corpus`] — the adversarial corpus format: workload files whose
//!   `# EXPECT:` / `# WITNESS:` directive comments pin each question to the
//!   verdict it must produce (and, for refutations, a separating database);
//!   parsed by the corpus runner in `cargo test` and written back out by
//!   `bqc fuzz` repro minimization;
//! * [`telemetry`] — per-stage aggregate counters
//!   ([`telemetry::PipelineTelemetry`]) folded from the
//!   [`bqc_core::DecisionTrace`] of every fresh decision, answering "which
//!   pipeline stage decides how much of the traffic, at what cost" for a
//!   whole serving deployment, with cache hits and in-flight dedups tallied
//!   in a distinct short-circuited bucket
//!   ([`telemetry::ShortCircuitStats`]) so stage fractions can be reported
//!   against total traffic; fresh [`BatchResult`]s also carry their
//!   individual trace for `bqc --explain` / `--json`.
//!
//! The cache, the batch executor and the telemetry also feed the
//! workspace-wide `bqc-obs` registry (per-shard
//! `bqc_engine_cache_*_total{shard="i"}` counters, provenance totals, batch
//! and per-decision latency histograms, and `decide-batch` / `decide` spans)
//! for export via `bqc --metrics` / `--trace-out`.
//!
//! **Cache determinism invariant** (see ARCHITECTURE.md): a cached answer is
//! byte-identical to the answer a fresh computation would produce, because
//! the engine always runs the decision procedure on the *canonical
//! representative* of a pair — every spelling of the pair maps to the same
//! input — and the procedure itself is deterministic.
//!
//! ## Quickstart
//!
//! ```
//! use bqc_engine::{Engine, Provenance};
//! use bqc_relational::parse_query;
//!
//! let engine = Engine::default();
//! let batch = vec![
//!     (
//!         parse_query("Q1() :- R(x,y), R(y,z), R(z,x)").unwrap(),
//!         parse_query("Q2() :- R(u,v), R(u,w)").unwrap(),
//!     ),
//!     // The same question, renamed and reordered: deduplicated in flight.
//!     (
//!         parse_query("A() :- R(c,a), R(a,b), R(b,c)").unwrap(),
//!         parse_query("B() :- R(h,k), R(h,j)").unwrap(),
//!     ),
//! ];
//! let results = engine.decide_batch(&batch);
//! assert!(results[0].answer.as_ref().unwrap().is_contained());
//! assert_eq!(results[1].provenance, Provenance::DedupedInFlight);
//! ```

pub mod cache;
pub mod canon;
pub mod corpus;
pub mod engine;
pub mod persist;
pub mod telemetry;
pub mod workload;

pub use cache::{CacheHit, CacheStats, DecisionCache};
pub use canon::{canonicalize, canonicalize_pair, fnv1a, CanonicalPair, CanonicalQuery};
pub use corpus::{parse_corpus, render_case, CorpusCase, CorpusError, ExpectedVerdict};
pub use engine::{
    BatchResult, Engine, EngineOptions, FaultStats, Provenance, SnapshotLoad, SnapshotSaved,
};
pub use persist::{
    decode_snapshot, encode_snapshot, load_or_quarantine, read_snapshot_file, write_snapshot_file,
    LoadOutcome, Snapshot, SnapshotEntry, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use telemetry::{PipelineTelemetry, ShortCircuitStats, StageStats};
pub use workload::{
    json_escape, parse_workload, parse_workload_line, WorkloadEntry, WorkloadError,
};
