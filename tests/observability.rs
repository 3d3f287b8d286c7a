//! Observability integration: span nesting across crate boundaries,
//! trace-signature determinism, the metric registry fed by real engine
//! runs, and the counter health checks of docs/OPERATIONS.md.
//!
//! The tracing window and the metric registry are process-global, so every
//! test here serializes on one lock — within this binary nothing else may
//! record spans while a window is open (other integration-test binaries are
//! separate processes and cannot interfere).

use bag_query_containment::obs;
use bag_query_containment::prelude::*;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Four questions: one LP-deciding pair, one homomorphism refutation, a
/// renamed spelling of the first (deduplicated in flight), and the
/// pendant-edge diamond (undecidable here), whose Γ-probe refutes.
fn workload() -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    [
        ("Q1() :- R(x,y), R(y,z), R(z,x)", "Q2() :- R(u,v), R(u,w)"),
        ("Q1() :- R(x,y)", "Q2() :- S(u,v)"),
        ("A() :- R(c,a), R(a,b), R(b,c)", "B() :- R(h,k), R(h,j)"),
        (
            "Q1() :- R(a,b), R(b,c), R(a,c), R(b,d), R(c,d), R(a,e)",
            "Q2() :- R(a,b), R(b,c), R(a,c), R(b,d), R(c,d)",
        ),
    ]
    .iter()
    .map(|(a, b)| (parse_query(a).unwrap(), parse_query(b).unwrap()))
    .collect()
}

/// `workers: 1` makes the batch executor run inline on the calling thread,
/// which is what makes its trace single-threaded and hence deterministic.
fn single_threaded_engine() -> Engine {
    Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    })
}

#[test]
fn trace_signature_is_deterministic_across_identical_runs() {
    let _window = OBS_LOCK.lock().unwrap();
    let requests = workload();
    let run = || {
        // A cold engine per run: the cache state (and therefore the set of
        // spans recorded) must be identical between the two windows.
        let engine = single_threaded_engine();
        obs::start_tracing();
        engine.decide_batch(&requests);
        obs::stop_tracing()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty(), "the run recorded no spans");
    assert_eq!(first.dropped, 0);
    assert_eq!(
        first.signature(),
        second.signature(),
        "the timing-free span projection must not vary between identical \
         single-threaded runs"
    );
}

#[test]
fn lp_spans_nest_under_pipeline_stages() {
    let _window = OBS_LOCK.lock().unwrap();
    let engine = single_threaded_engine();
    obs::start_tracing();
    engine.decide_batch(&workload());
    let trace = obs::stop_tracing();
    let find = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no `{name}` span recorded"))
    };
    let batch = find("decide-batch");
    let decide = find("decide");
    let pipeline = find("pipeline");
    let stage = find("shannon-lp");
    let solve = find("lp-solve");
    assert_eq!(batch.depth, 0, "the batch span is the root");
    assert!(pipeline.depth > decide.depth);
    assert!(stage.depth > pipeline.depth);
    assert!(solve.depth > stage.depth);
    // The decide span is annotated with its canonical pair hash (what lets
    // `bqc --explain` attach the span tree to the right answer).
    assert!(decide.args.iter().any(|(k, _)| *k == "pair"));
    // Interval containment, not just depth: some shannon-lp stage span
    // encloses an lp-solve span on the same thread.
    let encloses = |outer: &obs::TraceEvent, inner: &obs::TraceEvent| {
        outer.tid == inner.tid
            && outer.start_ns <= inner.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    assert!(
        trace
            .events
            .iter()
            .filter(|e| e.name == "shannon-lp")
            .any(|s| encloses(s, solve)),
        "an LP solve must run inside a shannon-lp pipeline stage"
    );
    // Pivot instants land inside the LP solve they belong to.
    assert!(
        trace
            .events
            .iter()
            .filter(|e| e.name == "pivot")
            .all(|p| trace
                .events
                .iter()
                .filter(|e| e.name == "lp-solve")
                .any(|s| encloses(s, p))),
        "every pivot marker must fall within an lp-solve span"
    );
}

#[test]
fn engine_runs_populate_the_metric_registry() {
    let _window = OBS_LOCK.lock().unwrap();
    let engine = single_threaded_engine();
    let requests = workload();
    engine.decide_batch(&requests);
    engine.decide_batch(&requests); // warm: every leader is a cache hit
    let metrics = obs::snapshot();
    for name in [
        "bqc_lp_solves_total",
        "bqc_lp_pivots_total",
        "bqc_iip_probes_total",
        "bqc_engine_fresh_decisions_total",
        "bqc_engine_cached_hits_total",
        "bqc_engine_deduped_total",
        "bqc_engine_batches_total",
    ] {
        assert!(
            metrics.counter(name).unwrap_or(0) > 0,
            "counter `{name}` missing or zero after an LP-deciding batch"
        );
    }
    for name in ["bqc_lp_pivots_per_solve", "bqc_engine_decide_micros"] {
        let histogram = metrics
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram `{name}` missing"));
        assert!(histogram.count > 0, "histogram `{name}` never observed");
    }
    // The short-circuited bucket is per engine: one in-flight dedup per
    // batch, and the second batch's three distinct pairs all hit the cache.
    let short = engine.short_circuit_stats();
    assert_eq!(short.deduped, 2);
    assert_eq!(short.cached, 3);
    let fresh: u64 = engine.pipeline_stats().iter().map(|s| s.decided).sum();
    assert_eq!(fresh + short.total(), 8, "traffic covers all 2x4 requests");
}

/// `(solves, pivots, reinversions, probes, degenerate pivots, Bland
/// fallbacks)` from the global registry.
fn lp_counters() -> [u64; 6] {
    let metrics = obs::snapshot();
    [
        "bqc_lp_solves_total",
        "bqc_lp_pivots_total",
        "bqc_lp_reinversions_total",
        "bqc_iip_probes_total",
        "bqc_lp_degenerate_pivots_total",
        "bqc_lp_bland_fallbacks_total",
    ]
    .map(|name| metrics.counter(name).unwrap_or(0))
}

/// Per-counter `after − before` of two [`lp_counters`] readings.
fn delta(after: [u64; 6], before: [u64; 6]) -> [u64; 6] {
    std::array::from_fn(|k| after[k] - before[k])
}

/// The LP health checks documented in docs/OPERATIONS.md, over the file's
/// workload plus one cold Γ_6 decision (cycle₆ ⊑ path₅):
///
/// * **reinversions** — the simplex refactorizes once per 64 pivots since
///   the last factorization, so `reinversions ≤ solves + pivots / 64` at any
///   volume, and the alerting ratio `reinversions / pivots ≤ 1/32` holds
///   once `pivots ≥ 1,000`;
/// * **LP solves per probe = 1** — every Γ_n probe is one cold solve of the
///   full elemental cone, and nothing else in a decision solves an LP.
#[test]
fn lp_counter_ratios_pass_the_reinversion_health_check() {
    let _window = OBS_LOCK.lock().unwrap();
    let before = lp_counters();
    single_threaded_engine().decide_batch(&workload());
    let middle = lp_counters();
    let cycle_in_path = [(
        parse_query("C() :- R(a,b), R(b,c), R(c,d), R(d,e), R(e,f), R(f,a)").unwrap(),
        parse_query("P() :- R(u,v), R(v,w), R(w,x), R(x,y), R(y,z)").unwrap(),
    )];
    let answers = single_threaded_engine().decide_batch(&cycle_in_path);
    let after = lp_counters();
    assert!(answers[0].answer.as_ref().unwrap().is_contained());

    // One LP solve per Γ_n probe, and the exact pivot path of the cold
    // solve: arithmetic fast paths and row scaling must not move a pivot.
    // Every pivot of this validity proof is degenerate, and the stall rule
    // hands it to Bland's rule once.
    let [solves, pivots, _, probes, degenerate, bland] = delta(after, middle);
    assert!(probes > 0, "cycle₆ ⊑ path₅ no longer reaches the Γ_n check");
    assert_eq!(solves, probes, "{solves} LP solves for {probes} Γ_n probes");
    assert_eq!(pivots, 1_048, "pivots for cycle₆ ⊑ path₅");
    assert_eq!(degenerate, 1_048, "degenerate pivots for cycle₆ ⊑ path₅");
    assert_eq!(bland, 1, "Bland fallbacks for cycle₆ ⊑ path₅");

    let [solves, pivots, reinversions, probes, _, _] = delta(after, before);
    assert_eq!(solves, probes, "{solves} LP solves for {probes} Γ_n probes");
    assert!(
        pivots >= 1_000,
        "{pivots} pivots: the workload no longer exercises the ratio threshold"
    );
    assert!(
        reinversions <= solves + pivots / 64,
        "{reinversions} reinversions exceed {solves} solves + {pivots} pivots / 64"
    );
    assert!(
        reinversions * 32 <= pivots,
        "reinversions/pivots = {reinversions}/{pivots} is above 1/32"
    );
}

/// The degeneracy health checks of docs/OPERATIONS.md, over the file's
/// workload plus the first 600 `bqc fuzz` default pairs (mixed traffic of
/// small Γ_n probes, 116 LP solves):
///
/// * **degenerate fraction** — `degenerate_pivots / pivots ≤ 0.95` once
///   the window holds `≥ 100` solves;
/// * **Bland fallbacks** — `bland_fallbacks ≤ solves / 100` once the
///   window holds `≥ 100` solves.
#[test]
fn lp_counter_ratios_pass_the_degeneracy_health_check() {
    let _window = OBS_LOCK.lock().unwrap();
    let config = bag_query_containment::bench::families::PairConfig::default();
    let mut requests = workload();
    requests
        .extend((0..600).map(|i| bag_query_containment::bench::families::random_pair(i, &config)));
    let before = lp_counters();
    single_threaded_engine().decide_batch(&requests);
    let after = lp_counters();
    let [solves, pivots, _, _, degenerate, bland] = delta(after, before);
    assert!(
        solves >= 100,
        "{solves} solves: the workload no longer exercises the degeneracy checks"
    );
    assert!(
        degenerate * 100 <= pivots * 95,
        "degenerate/pivots = {degenerate}/{pivots} is above 0.95"
    );
    assert!(
        bland * 100 <= solves,
        "{bland} Bland fallbacks exceed {solves} solves / 100"
    );
}

/// `bqc_relational_hom_steps_total` pins the work of the headed
/// triangle-vs-star decision (corpus `boolean_reduction.bqc`).  The LP
/// refutes it, and both Lemma 4.8 amplification ladders run to the
/// 1,024-row witness budget without a witness.  At step `k` the star has
/// `4^k` homomorphisms into the induced database against `|P| = 2^k`; the
/// Q2 count stops at `|P|`.  Counting every homomorphism took 2,800,326
/// search nodes.
#[test]
fn hom_step_counter_pins_the_headed_triangle_witness_search() {
    let _window = OBS_LOCK.lock().unwrap();
    let steps = || {
        obs::snapshot()
            .counter("bqc_relational_hom_steps_total")
            .unwrap_or(0)
    };
    let pair = [(
        parse_query("Q1(x) :- R(x,y), R(y,z), R(z,x)").unwrap(),
        parse_query("Q2(u) :- R(u,v), R(u,w)").unwrap(),
    )];
    let before = steps();
    let answers = single_threaded_engine().decide_batch(&pair);
    let spent = steps() - before;
    match answers[0].answer.as_ref().unwrap() {
        AnswerSummary::NotContained { witness_verified } => assert!(!witness_verified),
        other => panic!("expected not-contained, got {other:?}"),
    }
    assert_eq!(spent, 4_146, "hom steps for the headed triangle vs star");
}
