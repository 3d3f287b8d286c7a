//! Per-stage aggregate telemetry for the serving engine.
//!
//! Every fresh decision the engine computes carries a
//! [`bqc_core::DecisionTrace`]; this module folds those traces into
//! `CacheStats`-style counters — per pipeline stage, how many decisions it
//! decided / continued through / skipped, and the cumulative wall-clock it
//! consumed.  The aggregate answers the capacity-planning questions a
//! serving deployment asks ("what fraction of fresh decisions never reach
//! the LP?", "where do the milliseconds go?") without retaining any
//! per-request data.
//!
//! Cache hits and in-flight dedups never touch the pipeline, but they are
//! still traffic: the accumulator counts them in a distinct
//! **short-circuited** bucket ([`ShortCircuitStats`]), so per-stage
//! fractions can be computed against [`PipelineTelemetry::traffic`] — every
//! decision served — rather than only the fresh decisions the pipeline ran.
//! The per-tier detail (which shard, how many evictions) remains in
//! [`CacheStats`](crate::cache::CacheStats) and the batch provenance
//! counters.

use bqc_core::{DecisionTrace, StageStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Aggregate counters for one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name, as reported by the pipeline trace.
    pub stage: &'static str,
    /// Decisions this stage answered.
    pub decided: u64,
    /// Decisions this stage enriched and passed on.
    pub continued: u64,
    /// Decisions for which the stage was inapplicable.
    pub inapplicable: u64,
    /// Cumulative wall-clock microseconds spent in the stage.
    pub micros: u64,
}

impl StageStats {
    fn new(stage: &'static str) -> StageStats {
        StageStats {
            stage,
            ..StageStats::default()
        }
    }

    /// Total times the stage was reached (any status).
    pub fn reached(&self) -> u64 {
        self.decided + self.continued + self.inapplicable
    }
}

/// Decisions served without running the pipeline at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShortCircuitStats {
    /// Answered from a cache entry this process computed.
    pub cached: u64,
    /// Answered from a cache entry restored out of a snapshot — work done by
    /// a *previous* process.  Kept out of `cached` so warm-up accounting
    /// across restarts stays honest.
    pub restored: u64,
    /// Answered by deduplication against an identical in-flight request.
    pub deduped: u64,
}

impl ShortCircuitStats {
    /// Total short-circuited decisions.
    pub fn total(&self) -> u64 {
        self.cached + self.restored + self.deduped
    }
}

/// Thread-safe accumulator of [`StageStats`], ordered by first appearance
/// (which, for the standard pipeline, is the stage execution order), plus
/// the short-circuited bucket for cache-served and deduped decisions.
///
/// The stage lock recovers from poisoning deliberately: a contained panic
/// mid-[`record`](PipelineTelemetry::record) loses at most one trace's rows,
/// which skews an aggregate but carries no correctness weight — telemetry
/// must never take the serving engine down with it.
#[derive(Debug, Default)]
pub struct PipelineTelemetry {
    stages: Mutex<Vec<StageStats>>,
    cached: AtomicU64,
    restored: AtomicU64,
    deduped: AtomicU64,
}

impl PipelineTelemetry {
    /// An empty accumulator.
    pub fn new() -> PipelineTelemetry {
        PipelineTelemetry::default()
    }

    /// Folds one decision trace into the counters.
    pub fn record(&self, trace: &DecisionTrace) {
        let mut stages = self
            .stages
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        for report in trace.reports() {
            let entry = match stages.iter_mut().find(|s| s.stage == report.stage) {
                Some(entry) => entry,
                None => {
                    stages.push(StageStats::new(report.stage));
                    stages.last_mut().expect("just pushed")
                }
            };
            match report.status {
                StageStatus::Decided(_) => entry.decided += 1,
                StageStatus::Continued => entry.continued += 1,
                StageStatus::Inapplicable => entry.inapplicable += 1,
            }
            entry.micros += report.micros;
        }
    }

    /// Point-in-time snapshot of every stage's counters.
    pub fn snapshot(&self) -> Vec<StageStats> {
        self.stages
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    /// Counts one decision answered from the cache.
    pub fn record_cache_hit(&self) {
        self.cached.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decision answered from a snapshot-restored cache entry.
    pub fn record_restored_hit(&self) {
        self.restored.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decision answered by in-flight deduplication.
    pub fn record_dedup(&self) {
        self.deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// The short-circuited bucket: decisions served without the pipeline.
    pub fn short_circuited(&self) -> ShortCircuitStats {
        ShortCircuitStats {
            cached: self.cached.load(Ordering::Relaxed),
            restored: self.restored.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (stage rows and the short-circuited bucket),
    /// starting a fresh accounting window.  A serving deployment calls this
    /// after reporting an interval so stage fractions describe recent
    /// traffic rather than since-boot totals.
    pub fn reset(&self) {
        self.stages
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clear();
        self.cached.store(0, Ordering::Relaxed);
        self.restored.store(0, Ordering::Relaxed);
        self.deduped.store(0, Ordering::Relaxed);
    }

    /// Total fresh decisions folded in (every trace has exactly one deciding
    /// stage).
    pub fn decisions(&self) -> u64 {
        self.stages
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .iter()
            .map(|s| s.decided)
            .sum()
    }

    /// Total decisions served — fresh pipeline runs plus short-circuited —
    /// the denominator stage fractions should be computed against.
    pub fn traffic(&self) -> u64 {
        self.decisions() + self.short_circuited().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_core::{decide_containment_traced, DecideOptions};
    use bqc_relational::parse_query;

    #[test]
    fn traces_fold_into_ordered_stage_counters() {
        let telemetry = PipelineTelemetry::new();
        let options = DecideOptions::default();
        let pairs = [
            ("Q1() :- R(x,y)", "Q2() :- S(u,v)"), // hom-existence decides
            ("Q() :- R(x,y)", "Q() :- R(x,y)"),   // identity shortcut decides
            (
                "Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)",
                "Q2() :- R(y1,y2), R(y1,y3)",
            ), // shannon-lp decides
        ];
        for (t1, t2) in pairs {
            let q1 = parse_query(t1).unwrap();
            let q2 = parse_query(t2).unwrap();
            let decision = decide_containment_traced(&q1, &q2, &options).unwrap();
            telemetry.record(&decision.trace);
        }
        assert_eq!(telemetry.decisions(), 3);
        let snapshot = telemetry.snapshot();
        // Stage order is the pipeline order (every trace starts with the
        // Boolean reduction).
        assert_eq!(snapshot[0].stage, "boolean-reduction");
        assert_eq!(snapshot[0].inapplicable, 3, "all pairs are Boolean");
        let by_name = |name: &str| {
            *snapshot
                .iter()
                .find(|s| s.stage == name)
                .unwrap_or_else(|| panic!("stage {name} missing"))
        };
        assert_eq!(by_name("identity-shortcut").decided, 1);
        assert_eq!(by_name("hom-existence").decided, 1);
        assert_eq!(by_name("shannon-lp").decided, 1);
        // The LP stage was only reached by the pair the screens passed on;
        // the identity shortcut is consulted by every decision.
        assert_eq!(by_name("shannon-lp").reached(), 1);
        assert_eq!(by_name("identity-shortcut").reached(), 3);
    }

    #[test]
    fn short_circuited_decisions_count_toward_traffic() {
        let telemetry = PipelineTelemetry::new();
        let q1 = parse_query("Q1() :- R(x,y)").unwrap();
        let q2 = parse_query("Q2() :- S(u,v)").unwrap();
        let decision = decide_containment_traced(&q1, &q2, &DecideOptions::default()).unwrap();
        telemetry.record(&decision.trace);
        telemetry.record_cache_hit();
        telemetry.record_cache_hit();
        telemetry.record_restored_hit();
        telemetry.record_dedup();
        assert_eq!(telemetry.decisions(), 1, "only the fresh decision");
        assert_eq!(
            telemetry.short_circuited(),
            ShortCircuitStats {
                cached: 2,
                restored: 1,
                deduped: 1
            }
        );
        assert_eq!(telemetry.traffic(), 5, "stage fractions divide by this");
        telemetry.reset();
        assert_eq!(telemetry.traffic(), 0, "reset opens a fresh window");
        assert!(telemetry.snapshot().is_empty());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let telemetry = PipelineTelemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let telemetry = &telemetry;
                scope.spawn(move || {
                    let q1 = parse_query("Q1() :- R(x,y)").unwrap();
                    let q2 = parse_query("Q2() :- S(u,v)").unwrap();
                    for _ in 0..10 {
                        let decision =
                            decide_containment_traced(&q1, &q2, &DecideOptions::default()).unwrap();
                        telemetry.record(&decision.trace);
                    }
                });
            }
        });
        assert_eq!(telemetry.decisions(), 40);
    }
}
