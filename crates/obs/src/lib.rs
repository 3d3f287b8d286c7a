#![warn(missing_docs)]
//! # bqc-obs — zero-dependency metrics and span tracing for the workspace
//!
//! The decision stack (eta-file revised simplex, the Shannon-cone check, the
//! sharded decision cache) is fast precisely because most of its work is
//! invisible: pivots, reinversions, `Scalar` promotions, hom-search steps.  This crate
//! makes that machinery observable without adding dependencies or changing
//! verdicts:
//!
//! * [`metrics`] — process-wide **counters** and fixed-log2-bucket
//!   **histograms** behind relaxed atomics, registered by name on first use
//!   (naming scheme: `bqc_<crate>_<thing>_total`).  Bucket edges are
//!   deterministic powers of two ([`metrics::bucket_index`]) so tests can
//!   assert on them.
//! * [`spans`] — hierarchical **spans** with a thread-local depth stack and a
//!   cheap RAII guard ([`spans::SpanGuard`]), plus zero-duration instant
//!   events for high-frequency occurrences (pivots, reinversions).
//!   Tracing is **off by default** and costs one relaxed atomic load per
//!   probe while off; [`start_tracing`] / [`stop_tracing`] bracket a
//!   collection window.
//! * [`export`] — three exporters over the snapshots: Chrome trace-event
//!   JSON (loadable in `chrome://tracing` / Perfetto), Prometheus-style text
//!   exposition, and a compact JSON metrics snapshot.
//! * [`budget`] — cooperative **resource budgets** (deadline + work caps)
//!   charged from the LP pivot loop and the homomorphism search; lives here so the crates below `bqc-core` in the
//!   DAG can charge it (re-exported as `bqc_core::Budget`).
//! * [`failpoints`] — chaos-testing **failpoints**, compiled out by default
//!   (`failpoints` cargo feature), driving the crash/fault suite.
//!
//! ## Overhead policy
//!
//! Counters are always live (a relaxed `fetch_add` on the slow paths they
//! instrument); the runtime kill switch [`set_enabled`] turns them into a
//! single relaxed load + untaken branch, which is what the CI overhead floor
//! (`pipeline/obs/*` in `scripts/bench_compare.sh`) measures.  Building with
//! `default-features = false` removes even that: [`enabled`] const-folds to
//! `false` and the optimizer deletes every probe.
//!
//! ## Determinism boundary
//!
//! Metrics and spans are *observational*: nothing downstream reads them, so
//! verdicts are byte-identical with observability on, off, or compiled out.
//! Trace *timings* vary run to run, but the timing-free projection
//! ([`spans::TraceSnapshot::signature`]) of a single-threaded run is
//! deterministic — the same invariant shape as `DecisionTrace::signature()`.

pub mod budget;
pub mod export;
pub mod failpoints;
pub mod metrics;
pub mod spans;

pub use budget::{Budget, BudgetResource, BudgetSpec, Exhausted};
pub use export::{chrome_trace_json, json_snapshot, prometheus_text};
pub use failpoints::{failpoint, FailAction};
pub use metrics::{
    bucket_index, bucket_upper_edge, counter, histogram, reset_metrics, snapshot, Counter,
    Histogram, HistogramSnapshot, LazyCounter, LazyHistogram, MetricsSnapshot, BUCKETS,
};
pub use spans::{
    instant, span, span_with_arg, start_tracing, stop_tracing, tracing_active, SpanGuard,
    TraceEvent, TraceEventKind, TraceSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime kill switch for metrics; tracing has its own (off-by-default)
/// switch in [`spans`].  Defaults to on when the `enabled` feature is on.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns metric collection on or off at runtime.
///
/// A no-op when the crate is built without the `enabled` feature (metrics
/// are then compiled out entirely).
pub fn set_enabled(on: bool) {
    if cfg!(feature = "enabled") {
        METRICS_ENABLED.store(on, Ordering::Relaxed);
    }
}

/// Whether metric probes currently record.  With the `enabled` feature off
/// this const-folds to `false` and probes compile to nothing.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "enabled") && METRICS_ENABLED.load(Ordering::Relaxed)
}
