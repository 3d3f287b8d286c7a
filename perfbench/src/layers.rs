//! The per-layer metrics of a traced run, named by crate.  Every workload
//! emits the full set; a layer the workload does not exercise reads 0.

use crate::report::{median, quantile, ratio, Report};
use crate::trace::{Deltas, SelfTimes};
use bqc_engine::Engine;

/// Stages of the standard decision pipeline, in execution order.
const STAGES: [&str; 7] = [
    "boolean-reduction",
    "identity-shortcut",
    "hom-existence",
    "junction-tree",
    "counting-refuter",
    "shannon-lp",
    "witness-materialization",
];

/// Serve-path numbers, measured in the screen-mix traced run (0 on
/// gamma-cold).
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub requests: u64,
    pub overhead_us_p50: f64,
    pub batch_size_mean: f64,
    pub busy: u64,
    pub snapshot_rtt_ms: f64,
    /// Questions per second of `nproc` closed-loop clients against a daemon
    /// with the default `nproc` engine workers.
    pub default_workers_pairs_per_s: f64,
}

/// What one traced run measured.
pub struct Traced<'a> {
    /// Counter growth over the traced window.
    pub counters: &'a Deltas,
    pub spans: &'a SelfTimes,
    /// The engine that served the traced pass (fresh for that pass, so its
    /// own statistics cover exactly the pass).
    pub engine: &'a Engine,
    /// Wall time of each fresh decision in the traced pass, in µs.
    pub decide_us: Vec<f64>,
    /// Pass wall without and with tracing (same work, one engine worker;
    /// the untraced figure averages a pass before and one after the traced
    /// pass, so neither side gets the process warm-up).
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Σ fresh-decide time ÷ (workers × `decide_batch` wall), measured on an
    /// untraced pass with `nproc` workers.
    pub busy_fraction: f64,
    pub serve: ServeLayer,
}

fn count(report: &mut Report, name: &str, value: u64) {
    report.metric(name, value as f64, "count");
}

pub fn emit(report: &mut Report, t: Traced<'_>) {
    let c = t.counters;

    // relational
    let parse_calls = t.spans.calls("parse-workload-line");
    report.metric(
        "relational.parse_us",
        ratio(
            t.spans.seconds("parse-workload-line") * 1e6,
            parse_calls as f64,
        ),
        "us",
    );
    count(report, "relational.parse_calls", parse_calls);

    // engine: canonicalization, dedup, cache, fan-out, persistence
    let requests = c.delta("bqc_engine_batch_requests_total");
    let short = t.engine.short_circuit_stats();
    let cache = t.engine.cache_stats();
    let lookups = cache.hits + cache.restored_hits + cache.misses;
    count(report, "engine.requests", requests);
    report.metric("engine.canon_s", t.spans.seconds("canonicalize"), "s");
    report.metric(
        "engine.dedup_ratio",
        ratio(short.deduped as f64, requests as f64),
        "ratio",
    );
    count(report, "engine.cache.lookups", lookups);
    count(
        report,
        "engine.cache.hits",
        cache.hits + cache.restored_hits,
    );
    report.metric(
        "engine.cache.hit_ratio",
        ratio((cache.hits + cache.restored_hits) as f64, lookups as f64),
        "ratio",
    );
    count(report, "engine.cache.evictions", cache.evictions);
    report.metric("engine.fanout.busy_fraction", t.busy_fraction, "ratio");
    let (load_us, _) = c.histogram_delta("bqc_engine_snapshot_load_micros");
    let (save_us, _) = c.histogram_delta("bqc_engine_snapshot_save_micros");
    report.metric("engine.snapshot.load_s", load_us as f64 * 1e-6, "s");
    report.metric("engine.snapshot.save_s", save_us as f64 * 1e-6, "s");

    // core: pipeline stages, the counting refuter, decide latency
    let stages = t.engine.pipeline_stats();
    let stat = |name: &str| stages.iter().find(|s| s.stage == name).copied();
    for stage in STAGES {
        let s = stat(stage).unwrap_or_default();
        report.metric(format!("core.stage.{stage}.s"), s.micros as f64 * 1e-6, "s");
        count(report, &format!("core.stage.{stage}.decided"), s.decided);
    }
    let refuter = stat("counting-refuter").unwrap_or_default();
    count(report, "core.refuter.reached", refuter.reached());
    report.metric(
        "core.refuter.hit_ratio",
        ratio(refuter.decided as f64, refuter.reached() as f64),
        "ratio",
    );
    let mut decide_us = t.decide_us;
    count(report, "core.decide.samples", decide_us.len() as u64);
    report.metric("core.decide_ms.p50", median(&mut decide_us) / 1e3, "ms");
    report.metric(
        "core.decide_ms.p99",
        quantile(&mut decide_us, 0.99) / 1e3,
        "ms",
    );

    // iip
    report.metric("iip.gamma_check.s", t.spans.seconds("gamma-check"), "s");
    for (name, counter) in [
        ("iip.probes", "bqc_iip_probes_total"),
        ("iip.separation_rounds", "bqc_iip_separation_rounds_total"),
        ("iip.escalations", "bqc_iip_escalations_total"),
        ("iip.warm_shape_hits", "bqc_iip_warm_shape_hits_total"),
        (
            "iip.farkas_support_hits",
            "bqc_iip_farkas_support_hits_total",
        ),
    ] {
        count(report, name, c.delta(counter));
    }

    // entropy
    let scanned = c.delta("bqc_entropy_elementals_scanned_total");
    let violated = c.delta("bqc_entropy_violated_rows_total");
    count(report, "entropy.elementals_scanned", scanned);
    count(report, "entropy.violated_rows", violated);
    report.metric(
        "entropy.violated_per_scanned",
        ratio(violated as f64, scanned as f64),
        "ratio",
    );

    // lp
    report.metric("lp.solve.s", t.spans.seconds("lp-solve"), "s");
    let pivots = c.delta("bqc_lp_pivots_total");
    let degenerate = c.delta("bqc_lp_degenerate_pivots_total");
    let reinversions = c.delta("bqc_lp_reinversions_total");
    for (name, value) in [
        ("lp.solves", c.delta("bqc_lp_solves_total")),
        ("lp.pivots", pivots),
        ("lp.degenerate_pivots", degenerate),
        ("lp.reinversions", reinversions),
        (
            "lp.bland_fallbacks",
            c.delta("bqc_lp_bland_fallbacks_total"),
        ),
        (
            "lp.resume_fallbacks",
            c.delta("bqc_lp_resume_fallbacks_total"),
        ),
        (
            "lp.scalar_promotions",
            c.delta("bqc_lp_scalar_promotions_total"),
        ),
    ] {
        count(report, name, value);
    }
    report.metric(
        "lp.reinversions_per_pivot",
        ratio(reinversions as f64, pivots as f64),
        "ratio",
    );
    report.metric(
        "lp.degenerate_fraction",
        ratio(degenerate as f64, pivots as f64),
        "ratio",
    );

    // serve
    count(report, "serve.requests", t.serve.requests);
    report.metric("serve.overhead_us.p50", t.serve.overhead_us_p50, "us");
    report.metric("serve.batch_size.mean", t.serve.batch_size_mean, "count");
    count(report, "serve.busy", t.serve.busy);
    report.metric("serve.snapshot_rtt_ms", t.serve.snapshot_rtt_ms, "ms");
    report.metric(
        "serve.default_workers.pairs_per_s",
        t.serve.default_workers_pairs_per_s,
        "1/s",
    );

    // obs
    report.metric(
        "obs.trace_overhead_ratio",
        ratio(t.traced_s, t.untraced_s),
        "ratio",
    );
    count(report, "obs.dropped_events", t.spans.dropped);

    report.note(format!(
        "health: lp.reinversions_per_pivot = {reinversions}/{pivots}; \
         lp.degenerate_fraction = {degenerate}/{pivots}; \
         core.refuter.hit_ratio = {}/{}; engine.cache.hit_ratio = {}/{lookups}",
        refuter.decided,
        refuter.reached(),
        cache.hits + cache.restored_hits
    ));
    report.note("span self times (s, calls):".to_string());
    for (name, seconds, calls) in t.spans.table() {
        report.note(format!("  {name:<28} {seconds:>12.6} {calls:>9}"));
    }
}
