//! The batch containment engine: canonicalize → dedup → cache → fan out.
//!
//! [`Engine::decide_batch`] takes a slice of `(Q1, Q2)` requests and answers
//! all of them while computing each *distinct canonical pair* at most once:
//!
//! 1. every request is canonicalized ([`crate::canon`]), collapsing variable
//!    renamings and atom reorderings onto one key;
//! 2. requests sharing a key are deduplicated — the first occurrence becomes
//!    the group leader, later ones are answered from the leader's result with
//!    [`Provenance::DedupedInFlight`];
//! 3. leaders probe the sharded decision cache ([`crate::cache`]); hits are
//!    answered immediately with [`Provenance::CachedHit`];
//! 4. the remaining leaders fan out over a `std::thread::scope` worker pool
//!    (no external dependencies), each running the Theorem 3.1 decision
//!    procedure **on the canonical representative** of its pair, and the
//!    summaries are inserted into the cache.
//!
//! Running the procedure on the canonical representative (rather than on
//! whichever spelling of the pair arrived first) is what makes the cache
//! *deterministic*: every member of an isomorphism class maps to the same
//! input bytes, so the cached summary is byte-identical to what a fresh
//! computation of any member would produce through the engine.
//!
//! Workers carry no decision state between jobs: every Shannon-cone probe is
//! one stateless LP solve (`bqc_iip::check_max_inequality`), so a summary —
//! and any counterexample behind it — cannot depend on which worker computed
//! it or on what that worker decided before.

use crate::cache::{CacheStats, DecisionCache};
use crate::canon::{canonicalize_pair, fnv1a, CanonicalPair};
use crate::persist::{LoadOutcome, Snapshot, SnapshotEntry, SnapshotError};
use crate::telemetry::{PipelineTelemetry, ShortCircuitStats, StageStats};
use bqc_core::{
    decide_containment_traced, AnswerSummary, DecideError, DecideOptions, DecisionTrace,
    Obstruction,
};
use bqc_obs::{LazyCounter, LazyHistogram};
use bqc_relational::ConjunctiveQuery;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static BATCHES: LazyCounter = LazyCounter::new("bqc_engine_batches_total");
static BATCH_REQUESTS: LazyCounter = LazyCounter::new("bqc_engine_batch_requests_total");
static FRESH_DECISIONS: LazyCounter = LazyCounter::new("bqc_engine_fresh_decisions_total");
static CACHED_HITS: LazyCounter = LazyCounter::new("bqc_engine_cached_hits_total");
static RESTORED_HITS: LazyCounter = LazyCounter::new("bqc_engine_restored_hits_total");
static DEDUPED: LazyCounter = LazyCounter::new("bqc_engine_deduped_total");
static DECIDE_MICROS: LazyHistogram = LazyHistogram::new("bqc_engine_decide_micros");
static BATCH_MICROS: LazyHistogram = LazyHistogram::new("bqc_engine_batch_micros");
static SNAPSHOT_SAVES: LazyCounter = LazyCounter::new("bqc_engine_snapshot_saves_total");
static SNAPSHOT_SAVED_ENTRIES: LazyCounter =
    LazyCounter::new("bqc_engine_snapshot_saved_entries_total");
static SNAPSHOT_RESTORED_ENTRIES: LazyCounter =
    LazyCounter::new("bqc_engine_snapshot_restored_entries_total");
static SNAPSHOT_SAVE_MICROS: LazyHistogram = LazyHistogram::new("bqc_engine_snapshot_save_micros");
static SNAPSHOT_LOAD_MICROS: LazyHistogram = LazyHistogram::new("bqc_engine_snapshot_load_micros");
static PANICS: LazyCounter = LazyCounter::new("bqc_engine_panics_total");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("bqc_engine_budget_exhausted_total");

/// How a request in a batch obtained its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// The decision procedure ran for this request.
    Fresh,
    /// The answer came from the decision cache.
    CachedHit,
    /// The request is canonically equal to an earlier request in the same
    /// batch and shares its result.
    DedupedInFlight,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Fresh => write!(f, "fresh"),
            Provenance::CachedHit => write!(f, "cached"),
            Provenance::DedupedInFlight => write!(f, "deduped"),
        }
    }
}

/// Per-request result of [`Engine::decide_batch`].
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The verdict summary, or the error that prevented the decision.
    pub answer: Result<AnswerSummary, DecideError>,
    /// How the answer was obtained.
    pub provenance: Provenance,
    /// Wall time attributable to this request: the decision-procedure run for
    /// `Fresh` requests, (approximately) zero for cache hits and dedups.
    pub micros: u64,
    /// The request's canonical pair hash (shared by all requests the engine
    /// considered equal).
    pub pair_hash: u64,
    /// The decision trace of the pipeline run that produced this answer.
    /// Present exactly on `Fresh` results — cache hits and in-flight dedups
    /// reuse an earlier computation and carry no trace of their own (the
    /// leader's trace describes the shared computation).
    pub trace: Option<DecisionTrace>,
}

/// Tuning knobs for [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// LRU bound per shard; total capacity is `cache_shards × shard_capacity`.
    pub shard_capacity: usize,
    /// Worker threads for batch fan-out.  Capped by the number of distinct
    /// uncached pairs in the batch; `0` means "number of available cores".
    pub workers: usize,
    /// Options forwarded to the decision procedure.
    pub decide: DecideOptions,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            cache_shards: 8,
            shard_capacity: 1024,
            workers: 0,
            decide: DecideOptions::default(),
        }
    }
}

/// A concurrent, caching batch containment engine.  Cheap to share by
/// reference; all methods take `&self`.
pub struct Engine {
    cache: DecisionCache,
    /// Per-stage aggregate counters folded from every fresh decision's
    /// trace.
    telemetry: PipelineTelemetry,
    /// Decision-procedure panics contained by this engine (each one answered
    /// `Err(DecideError::Panicked)` for its own request only).
    panics: AtomicU64,
    /// Fresh budget-exhausted summaries excluded from the cache.
    budget_exhausted: AtomicU64,
    /// Serializes [`Engine::save_snapshot`]: every save writes through the
    /// same `<path>.tmp` sibling, so two concurrent saves would otherwise
    /// rename each other's temp file away.
    snapshot_writer: Mutex<()>,
    options: EngineOptions,
}

/// Fault-isolation counters: how often this engine degraded instead of
/// failing.  Reported by `bqc serve`'s `!stats` alongside the cache and
/// pipeline rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Panics contained by [`Engine::decide`] / [`Engine::decide_batch`].
    pub panics: u64,
    /// Fresh decisions whose summary was budget-exhausted and therefore not
    /// cached.
    pub budget_exhausted: u64,
}

/// Whether a fresh summary may enter the decision cache.  Budget-exhausted
/// `Unknown`s describe the run's resource limits (and, for deadlines, the
/// wall clock), not the pair, so caching one would hand a degraded answer to
/// a later caller with a bigger budget — violating the cache-determinism
/// invariant.  Every other summary is a pure function of the canonical pair.
fn cacheable(summary: &AnswerSummary) -> bool {
    !matches!(
        summary,
        AnswerSummary::Unknown {
            obstruction: Obstruction::ResourceExhausted { .. }
        }
    )
}

/// Renders a caught panic payload as the human-readable message for
/// [`DecideError::Panicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    /// Creates an engine with the given options.
    pub fn new(options: EngineOptions) -> Engine {
        Engine {
            cache: DecisionCache::new(options.cache_shards, options.shard_capacity),
            telemetry: PipelineTelemetry::new(),
            panics: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            snapshot_writer: Mutex::new(()),
            options,
        }
    }

    /// Runs the decision procedure with panics contained: a panic unwinds
    /// no further than this call and becomes [`DecideError::Panicked`] for
    /// this one pair.  Decisions share no state, so nothing else is tainted.
    fn decide_containing_panics(
        &self,
        pair: &CanonicalPair,
    ) -> Result<bqc_core::Decision, DecideError> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            decide_containment_traced(&pair.q1.query, &pair.q2.query, &self.options.decide)
        }));
        match attempt {
            Ok(outcome) => outcome,
            Err(payload) => {
                PANICS.inc();
                self.panics.fetch_add(1, Ordering::Relaxed);
                Err(DecideError::Panicked(panic_message(payload)))
            }
        }
    }

    /// Inserts a fresh summary into the cache unless [`cacheable`] excludes
    /// it (budget-exhausted answers are never cached).
    fn absorb_summary(&self, pair: &CanonicalPair, summary: AnswerSummary) {
        if cacheable(&summary) {
            self.cache.insert(pair.hash, &pair.key, summary);
        } else {
            BUDGET_EXHAUSTED.inc();
            self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The effective worker count for a batch with `jobs` uncached distinct
    /// pairs.
    fn worker_count(&self, jobs: usize) -> usize {
        let configured = if self.options.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.options.workers
        };
        configured.clamp(1, jobs.max(1))
    }

    /// Decides a single containment question through the cache.
    pub fn decide(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> Result<AnswerSummary, DecideError> {
        let pair = canonicalize_pair(q1, q2);
        if let Some(hit) = self.cache.probe(pair.hash, &pair.key) {
            if hit.restored {
                RESTORED_HITS.inc();
                self.telemetry.record_restored_hit();
            } else {
                CACHED_HITS.inc();
                self.telemetry.record_cache_hit();
            }
            return Ok(hit.summary);
        }
        let start = Instant::now();
        let decide_span = bqc_obs::span_with_arg("decide", "pair", format!("{:016x}", pair.hash));
        let outcome = self.decide_containing_panics(&pair);
        drop(decide_span);
        let decision = outcome?;
        FRESH_DECISIONS.inc();
        DECIDE_MICROS.observe(start.elapsed().as_micros() as u64);
        self.telemetry.record(&decision.trace);
        let summary = decision.answer.summary();
        self.absorb_summary(&pair, summary);
        Ok(summary)
    }

    /// Decides a batch of containment questions, deduplicating canonically
    /// equal requests, serving repeats from the cache, and fanning the
    /// remaining distinct pairs out over a scoped worker pool.  Results are
    /// returned in request order.
    pub fn decide_batch(
        &self,
        requests: &[(ConjunctiveQuery, ConjunctiveQuery)],
    ) -> Vec<BatchResult> {
        let batch_start = Instant::now();
        BATCHES.inc();
        BATCH_REQUESTS.add(requests.len() as u64);
        let batch_span =
            bqc_obs::span_with_arg("decide-batch", "requests", requests.len().to_string());

        // Phase 1: canonicalize every request, in parallel — on a warm batch
        // this is the whole cost, and the backtracking search can be slow on
        // large symmetric queries.
        let workers = self.worker_count(requests.len());
        let canon_span = bqc_obs::span("canonicalize");
        let pairs: Vec<CanonicalPair> =
            parallel_map(requests, workers, |(q1, q2)| canonicalize_pair(q1, q2));
        drop(canon_span);

        // Group by the full canonical key text, NOT by the 64-bit hash: the
        // cache-determinism invariant requires that a hash collision between
        // two distinct questions is never allowed to merge them (the cache
        // layer enforces the same with its stored key text).
        let mut leader_of: HashMap<&str, usize> = HashMap::new();
        let mut leaders: Vec<usize> = Vec::new();
        for (i, pair) in pairs.iter().enumerate() {
            leader_of.entry(pair.key.as_str()).or_insert_with(|| {
                leaders.push(i);
                i
            });
        }

        // Phase 2: leaders probe the cache.
        struct LeaderOutcome {
            answer: Result<AnswerSummary, DecideError>,
            provenance: Provenance,
            micros: u64,
            trace: Option<DecisionTrace>,
        }
        let mut outcomes: HashMap<&str, LeaderOutcome> = HashMap::new();
        let mut jobs: Vec<usize> = Vec::new();
        let probe_span = bqc_obs::span("cache-probe");
        for &i in &leaders {
            let pair = &pairs[i];
            if let Some(hit) = self.cache.probe(pair.hash, &pair.key) {
                if hit.restored {
                    RESTORED_HITS.inc();
                    self.telemetry.record_restored_hit();
                } else {
                    CACHED_HITS.inc();
                    self.telemetry.record_cache_hit();
                }
                outcomes.insert(
                    pair.key.as_str(),
                    LeaderOutcome {
                        answer: Ok(hit.summary),
                        provenance: Provenance::CachedHit,
                        micros: 0,
                        trace: None,
                    },
                );
            } else {
                jobs.push(i);
            }
        }
        drop(probe_span);

        // Phase 3: fan the uncached leaders out over scoped workers.
        // Decisions share no state, so a cached summary never depends on
        // which worker computed it, or what that worker decided before.
        let workers = self.worker_count(jobs.len());
        let fan_out_span = bqc_obs::span("fan-out");
        let computed = parallel_map(&jobs, workers, |&i| {
            let pair = &pairs[i];
            let start = Instant::now();
            let decide_span =
                bqc_obs::span_with_arg("decide", "pair", format!("{:016x}", pair.hash));
            let outcome = self.decide_containing_panics(pair);
            drop(decide_span);
            let micros = start.elapsed().as_micros() as u64;
            FRESH_DECISIONS.inc();
            DECIDE_MICROS.observe(micros);
            (outcome, micros)
        });
        drop(fan_out_span);
        for (&i, (outcome, micros)) in jobs.iter().zip(computed) {
            let pair = &pairs[i];
            let (answer, trace) = match outcome {
                Ok(decision) => {
                    self.telemetry.record(&decision.trace);
                    let summary = decision.answer.summary();
                    self.absorb_summary(pair, summary);
                    (Ok(summary), Some(decision.trace))
                }
                Err(error) => (Err(error), None),
            };
            outcomes.insert(
                pair.key.as_str(),
                LeaderOutcome {
                    answer,
                    provenance: Provenance::Fresh,
                    micros,
                    trace,
                },
            );
        }

        // Phase 4: assemble per-request results in request order.
        let results = pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let leader = leader_of[pair.key.as_str()];
                let outcome = &outcomes[pair.key.as_str()];
                let provenance = if i == leader {
                    outcome.provenance
                } else {
                    DEDUPED.inc();
                    self.telemetry.record_dedup();
                    Provenance::DedupedInFlight
                };
                BatchResult {
                    answer: outcome.answer.clone(),
                    provenance,
                    micros: if i == leader { outcome.micros } else { 0 },
                    pair_hash: pair.hash,
                    trace: if i == leader {
                        outcome.trace.clone()
                    } else {
                        None
                    },
                }
            })
            .collect();
        drop(batch_span);
        BATCH_MICROS.observe(batch_start.elapsed().as_micros() as u64);
        results
    }

    /// Snapshot of the decision cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the per-stage pipeline telemetry folded from every fresh
    /// decision this engine computed.  Cache hits and in-flight dedups never
    /// run the pipeline; they are tallied in the short-circuited bucket
    /// ([`Engine::short_circuit_stats`]), so stage fractions can be reported
    /// against total traffic rather than fresh decisions alone.
    pub fn pipeline_stats(&self) -> Vec<StageStats> {
        self.telemetry.snapshot()
    }

    /// Decisions this engine served without running the pipeline: cache hits
    /// (single and batch) and in-flight batch dedups.
    pub fn short_circuit_stats(&self) -> ShortCircuitStats {
        self.telemetry.short_circuited()
    }

    /// Fault-isolation counters: contained panics and cache-excluded
    /// budget-exhausted answers since construction.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            panics: self.panics.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached decision (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// Zeroes the cache counters and the pipeline telemetry, opening a
    /// fresh accounting window.  Resident cache entries (and their restored
    /// marks) are untouched, as are the monotonic process-wide `bqc-obs`
    /// counters.
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
        self.telemetry.reset();
    }

    /// A point-in-time [`Snapshot`] of the engine's durable warm state:
    /// every resident cache entry.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .cache
                .export()
                .into_iter()
                .map(|(_, key, summary)| SnapshotEntry { key, summary })
                .collect(),
        }
    }

    /// Writes the engine's warm state to `path` atomically (see
    /// [`crate::persist::write_snapshot_file`]).  Returns what was written.
    ///
    /// Saves through one engine are serialized, so concurrent callers (the
    /// interval timer and any number of `!snapshot` requests) each succeed,
    /// and the file ends up holding the state of the last save to run.
    /// Saves to one path from separate engines or processes are not
    /// coordinated.
    pub fn save_snapshot(&self, path: &Path) -> std::io::Result<SnapshotSaved> {
        // The guarded state is the temp file, which the next save recreates
        // from scratch, so a save that panicked mid-write poisons nothing.
        let _writer = self
            .snapshot_writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let start = Instant::now();
        let snapshot = self.snapshot();
        let entries = snapshot.entries.len();
        let bytes = crate::persist::write_snapshot_file(path, &snapshot)?;
        SNAPSHOT_SAVES.inc();
        SNAPSHOT_SAVED_ENTRIES.add(entries as u64);
        SNAPSHOT_SAVE_MICROS.observe(start.elapsed().as_micros() as u64);
        Ok(SnapshotSaved { entries, bytes })
    }

    /// Restores a decoded snapshot into the engine: every entry enters the
    /// cache marked *restored* (hits on it count as
    /// [`CacheStats::restored_hits`]).  Returns the number of entries
    /// restored.  Restoring into a smaller cache than the one that saved
    /// simply lets the LRU bound evict the overflow.
    pub fn restore_snapshot(&self, snapshot: &Snapshot) -> usize {
        for entry in &snapshot.entries {
            let hash = fnv1a(entry.key.as_bytes());
            self.cache.restore(hash, &entry.key, entry.summary);
        }
        SNAPSHOT_RESTORED_ENTRIES.add(snapshot.entries.len() as u64);
        snapshot.entries.len()
    }

    /// Loads the snapshot at `path` with the full degradation ladder: a
    /// valid file is restored, a missing file is a cold start, and a
    /// corrupt or version-mismatched file is quarantined to `<path>.corrupt`
    /// and reported — the engine still starts, cold, either way.
    pub fn load_snapshot(&self, path: &Path) -> SnapshotLoad {
        let start = Instant::now();
        let outcome = crate::persist::load_or_quarantine(path);
        let load = match outcome {
            LoadOutcome::Loaded(snapshot) => SnapshotLoad::Restored {
                entries: self.restore_snapshot(&snapshot),
            },
            LoadOutcome::Missing => SnapshotLoad::ColdStart,
            LoadOutcome::Quarantined {
                error,
                quarantined_to,
            } => SnapshotLoad::Quarantined {
                error,
                quarantined_to,
            },
        };
        SNAPSHOT_LOAD_MICROS.observe(start.elapsed().as_micros() as u64);
        load
    }

    /// The engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }
}

/// What [`Engine::save_snapshot`] wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotSaved {
    /// Cache entries serialized.
    pub entries: usize,
    /// Encoded file size in bytes.
    pub bytes: usize,
}

/// The outcome of [`Engine::load_snapshot`].
#[derive(Debug)]
pub enum SnapshotLoad {
    /// The snapshot was valid; its entries are live.
    Restored {
        /// Cache entries restored.
        entries: usize,
    },
    /// No snapshot file exists: a normal cold start.
    ColdStart,
    /// The snapshot was rejected and renamed aside; the engine starts cold.
    Quarantined {
        /// Why the file was rejected.
        error: SnapshotError,
        /// Where the file was moved, if the rename succeeded.
        quarantined_to: Option<PathBuf>,
    },
}

/// Applies `f` to every item over a `std::thread::scope` worker pool and
/// returns the outputs in item order.  Workers pull the next index from a
/// shared atomic counter, so long-running items don't stall the queue.
fn parallel_map<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A slot poisoned by a panicking `f` still holds `None` (the
                // lock is only held across the assignment, and `f` runs
                // before it); recover the guard and overwrite.
                *slots[i].lock().unwrap_or_else(|poison| poison.into_inner()) = Some(f(&items[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_relational::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    fn small_batch() -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
        vec![
            // Example 4.3 and a renamed, reordered copy of it.
            (
                q("Q1() :- R(x,y), R(y,z), R(z,x)"),
                q("Q2() :- R(u,v), R(u,w)"),
            ),
            (
                q("A() :- R(c,a), R(a,b), R(b,c)"),
                q("B() :- R(h,l2), R(h,l1)"),
            ),
            // The reverse direction.
            (
                q("Q3() :- R(u,v), R(u,w)"),
                q("Q4() :- R(x,y), R(y,z), R(z,x)"),
            ),
        ]
    }

    #[test]
    fn batch_dedups_canonically_equal_requests() {
        let engine = Engine::default();
        let results = engine.decide_batch(&small_batch());
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].provenance, Provenance::Fresh);
        assert_eq!(results[1].provenance, Provenance::DedupedInFlight);
        assert_eq!(results[2].provenance, Provenance::Fresh);
        assert_eq!(results[0].pair_hash, results[1].pair_hash);
        assert_ne!(results[0].pair_hash, results[2].pair_hash);
        assert!(results[0].answer.as_ref().unwrap().is_contained());
        assert!(results[1].answer.as_ref().unwrap().is_contained());
        assert!(results[2].answer.as_ref().unwrap().is_not_contained());
        // Only the two distinct pairs went through the procedure.
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn second_batch_is_served_from_cache() {
        let engine = Engine::default();
        engine.decide_batch(&small_batch());
        let results = engine.decide_batch(&small_batch());
        assert_eq!(results[0].provenance, Provenance::CachedHit);
        assert_eq!(results[1].provenance, Provenance::DedupedInFlight);
        assert_eq!(results[2].provenance, Provenance::CachedHit);
        assert_eq!(engine.cache_stats().hits, 2);
    }

    #[test]
    fn single_decide_caches_and_agrees_across_spellings() {
        let engine = Engine::default();
        let first = engine
            .decide(
                &q("Q1() :- R(x,y), R(y,z), R(z,x)"),
                &q("Q2() :- R(u,v), R(u,w)"),
            )
            .unwrap();
        let second = engine
            .decide(
                &q("Z1() :- R(m,n), R(p,m), R(n,p)"),
                &q("Z2() :- R(a,b), R(a,c)"),
            )
            .unwrap();
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn errors_are_reported_per_request_and_not_cached() {
        let engine = Engine::default();
        let batch = vec![
            (q("Q1(x) :- R(x,y)"), q("Q2(u,v) :- R(u,v)")),
            (q("Q1() :- R(x,y)"), q("Q2() :- R(u,v)")),
        ];
        let results = engine.decide_batch(&batch);
        assert!(results[0].answer.is_err());
        assert!(results[1].answer.as_ref().unwrap().is_contained());
        assert_eq!(engine.cache_stats().entries, 1);
    }

    #[test]
    fn explicit_worker_counts_work() {
        for workers in [1usize, 2, 7] {
            let engine = Engine::new(EngineOptions {
                workers,
                ..EngineOptions::default()
            });
            let results = engine.decide_batch(&small_batch());
            assert!(results[0].answer.as_ref().unwrap().is_contained());
            assert!(results[2].answer.as_ref().unwrap().is_not_contained());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::default();
        assert!(engine.decide_batch(&[]).is_empty());
    }

    #[test]
    fn traces_ride_on_fresh_results_only() {
        let engine = Engine::default();
        let first = engine.decide_batch(&small_batch());
        // Fresh leaders carry the trace of their pipeline run; the deduped
        // follower shares the answer but not a trace of its own.
        assert!(first[0].trace.is_some());
        assert!(first[1].trace.is_none());
        assert!(first[2].trace.is_some());
        let trace = first[0].trace.as_ref().unwrap();
        assert_eq!(trace.decided_by(), Some("shannon-lp"));
        // Cache hits on a second pass carry no trace either.
        let second = engine.decide_batch(&small_batch());
        assert!(second.iter().all(|r| r.trace.is_none()));
    }

    #[test]
    fn pipeline_stats_aggregate_fresh_decisions() {
        let engine = Engine::default();
        assert!(engine.pipeline_stats().is_empty());
        engine.decide_batch(&small_batch());
        engine.decide_batch(&small_batch()); // all cached: no new traces
        let stats = engine.pipeline_stats();
        let decided: u64 = stats.iter().map(|s| s.decided).sum();
        assert_eq!(decided, 2, "one trace per distinct canonical pair");
        assert_eq!(stats[0].stage, "boolean-reduction");
        let lp = stats
            .iter()
            .find(|s| s.stage == "shannon-lp")
            .expect("LP stage reached");
        // Only the Example 4.3 direction reaches the LP; the reverse is
        // decided by the hom-existence screen.
        assert_eq!(lp.reached(), 1);
        // Single decides through the cache also record traces.
        let engine = Engine::default();
        engine
            .decide(&q("Q1() :- R(x,y)"), &q("Q2() :- S(u,v)"))
            .unwrap();
        let stats = engine.pipeline_stats();
        let screen = stats
            .iter()
            .find(|s| s.stage == "hom-existence")
            .expect("screen reached");
        assert_eq!(screen.decided, 1);
    }

    #[test]
    fn budget_exhausted_answers_are_never_cached() {
        let mut options = EngineOptions::default();
        options.decide.budget.max_pivots = Some(1);
        let engine = Engine::new(options);
        let q1 = q("Q1() :- R(x,y), R(y,z), R(z,x)");
        let q2 = q("Q2() :- R(u,v), R(u,w)");
        // Example 4.3 needs the LP; one pivot is not enough.
        let first = engine.decide(&q1, &q2).unwrap();
        assert!(matches!(
            first,
            AnswerSummary::Unknown {
                obstruction: Obstruction::ResourceExhausted { .. }
            }
        ));
        // The degraded answer must not be resident: re-asking runs the
        // procedure again (and exhausts again) rather than hitting a cache
        // entry that a bigger-budget caller would be poisoned by.
        let second = engine.decide(&q1, &q2).unwrap();
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.restored_hits, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!(engine.fault_stats().budget_exhausted, 2);
    }

    #[test]
    fn batch_excludes_budget_exhausted_answers_from_the_cache() {
        let mut options = EngineOptions::default();
        options.decide.budget.max_pivots = Some(1);
        let engine = Engine::new(options);
        let first = engine.decide_batch(&small_batch());
        // Example 4.3 (and its renamed copy) exhausts at the LP; the reverse
        // direction is decided by the hom-existence screen long before any
        // pivots and is cached normally.
        assert!(matches!(
            first[0].answer,
            Ok(AnswerSummary::Unknown {
                obstruction: Obstruction::ResourceExhausted { .. }
            })
        ));
        assert_eq!(first[1].provenance, Provenance::DedupedInFlight);
        assert!(first[2].answer.as_ref().unwrap().is_not_contained());
        assert_eq!(engine.cache_stats().entries, 1, "only the sound verdict");
        assert_eq!(engine.fault_stats().budget_exhausted, 1);
        let second = engine.decide_batch(&small_batch());
        assert_eq!(
            second[0].provenance,
            Provenance::Fresh,
            "degraded answers are re-decided, never replayed"
        );
        assert_eq!(second[2].provenance, Provenance::CachedHit);
    }

    #[test]
    fn unlimited_budget_answers_match_the_default_engine() {
        let engine = Engine::default();
        let mut budgeted_options = EngineOptions::default();
        budgeted_options.decide.budget.max_pivots = Some(1 << 20);
        budgeted_options.decide.budget.max_hom_steps = Some(1 << 20);
        let budgeted = Engine::new(budgeted_options);
        for (q1, q2) in small_batch() {
            assert_eq!(
                engine.decide(&q1, &q2).unwrap(),
                budgeted.decide(&q1, &q2).unwrap(),
                "an ample budget must not change any verdict"
            );
        }
        assert_eq!(budgeted.fault_stats(), FaultStats::default());
    }
}
