//! Regression test on the simplex work counters: a basis re-inversion is
//! owed once per 64 pivots since the last factorization, never once per
//! pivot.
//!
//! The eta file of a fresh factorization holds one eta per basis row, so a
//! trigger that counts the whole file instead of the update etas re-inverts
//! on every pivot as soon as the basis has more than 64 rows.  Verdicts stay
//! right either way (the arithmetic is exact), which is why only the
//! counters can catch it.
//!
//! The metric registry is process-global, so this file is its own test
//! binary holding a single test: nothing else may pivot while a counter
//! delta is being taken.

use bqc_arith::int;
use bqc_entropy::EntropyExpr;
use bqc_iip::{check_max_inequality, LinearInequality, MaxInequality};

/// The chain Shannon inequality `h(V0) + Σ h(V_{i+1}|V_i) ≥ h(V)` over `n`
/// variables — valid, with a certificate combining Θ(n²) elemental rows.
fn chain_inequality(n: usize) -> MaxInequality {
    let universe: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), [universe[0].clone()]);
    for i in 0..n - 1 {
        expr.add_term(int(1), [universe[i].clone(), universe[i + 1].clone()]);
        expr.add_term(int(-1), [universe[i].clone()]);
    }
    expr.add_term(int(-1), universe.clone());
    LinearInequality::new(universe, expr).to_max()
}

/// `(solves, pivots, reinversions)` from the global registry.
fn lp_counters() -> [u64; 3] {
    let metrics = bqc_obs::snapshot();
    [
        "bqc_lp_solves_total",
        "bqc_lp_pivots_total",
        "bqc_lp_reinversions_total",
    ]
    .map(|name| metrics.counter(name).unwrap_or(0))
}

/// Runs `probe` and asserts `reinversions ≤ solves + pivots / 64` over the
/// counter deltas it produced.
fn assert_reinversions_bounded(what: &str, probe: impl FnOnce()) {
    let before = lp_counters();
    probe();
    let after = lp_counters();
    let [solves, pivots, reinversions] = [0, 1, 2].map(|k| after[k] - before[k]);
    assert!(pivots > 0, "{what}: the probe never pivoted");
    assert!(
        reinversions <= solves + pivots / 64,
        "{what}: {reinversions} reinversions for {pivots} pivots over {solves} \
         solves; the basis must be refactorized once per 64 pivots since the \
         last factorization"
    );
}

/// The full Γ_6 cone (a 247-row basis) through the one cold crash-basis
/// solve of [`check_max_inequality`].
#[test]
fn eager_gamma6_refactorizes_once_per_64_pivots() {
    let chain = chain_inequality(6);
    assert_reinversions_bounded("Γ_6 chain", || {
        assert!(check_max_inequality(&chain).is_valid());
    });
}
