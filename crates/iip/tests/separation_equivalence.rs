//! The Γ_n cone check against the Theorem 6.1 certificate LP.
//!
//! Two independently built deciders must agree on Shannon-provability for
//! every inequality: [`bqc_iip::check_max_inequality`] solves the primal
//! feasibility program over all `n + C(n,2)·2^{n−2}` elemental rows, and
//! [`bqc_iip::certificate_or_refutation`] solves the `2^n`-row certificate
//! LP, whose optimum is either a convex certificate of validity or (through
//! its Farkas dual) a violating polymatroid.  Verdicts must match exactly;
//! counterexamples may be different vertices of the violating region, so
//! each is checked *semantically* instead — it must be a genuine
//! polymatroid ([`bqc_entropy::is_polymatroid`]) on which every disjunct
//! evaluates ≤ −1.

use bqc_arith::{int, Rational};
use bqc_entropy::{is_polymatroid, EntropyExpr, SetFunction};
use bqc_iip::{
    certificate_or_refutation, check_max_inequality, GammaValidity, LinearInequality, MaxInequality,
};
use proptest::prelude::*;

fn universe(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("X{i}")).collect()
}

/// Builds an [`EntropyExpr`] from `(mask, coeff)` pairs over `X0..X{n−1}`.
fn expr_from_masks(n: usize, terms: &[(u32, i64)]) -> EntropyExpr {
    let mut e = EntropyExpr::zero();
    for (mask, coeff) in terms {
        if *coeff == 0 {
            continue;
        }
        let mask = 1 + (mask % ((1u32 << n) - 1));
        let set: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("X{i}"))
            .collect();
        e.add_term(int(*coeff), set);
    }
    e
}

/// Asserts a counterexample is semantically valid for a max-inequality.
fn assert_counterexample(max: &MaxInequality, h: &SetFunction) {
    assert!(is_polymatroid(h), "counterexample must be a polymatroid");
    for disjunct in &max.disjuncts {
        assert!(
            disjunct.evaluate(h) <= -Rational::one(),
            "every disjunct must evaluate <= -1"
        );
    }
    assert!(max.evaluate(h).is_negative());
}

/// The two deciders on one max-inequality, cross-validated; returns the
/// shared verdict.
fn assert_equivalent(max: &MaxInequality) -> bool {
    let cone = check_max_inequality(max);
    let certificate = certificate_or_refutation(max);
    assert_eq!(
        cone.is_valid(),
        certificate.is_ok(),
        "cone check and certificate LP must agree on {max:?}"
    );
    if let GammaValidity::NotShannonProvable { counterexample } = &cone {
        assert_counterexample(max, counterexample);
    }
    if let Err(counterexample) = &certificate {
        assert_counterexample(max, counterexample);
    }
    cone.is_valid()
}

proptest! {
    /// Random linear inequalities over 2..=5 variables.
    #[test]
    fn cone_check_matches_certificate_lp_on_random_linear_inequalities(
        n in 2usize..6,
        terms in proptest::collection::vec((0u32..31, -3i64..4), 1..6),
    ) {
        let expr = expr_from_masks(n, &terms);
        let ineq = LinearInequality::new(universe(n), expr);
        assert_equivalent(&ineq.to_max());
    }

    /// Random max-inequalities with several disjuncts: validity of the max
    /// is weaker than validity of any disjunct, so these exercise the
    /// all-disjuncts-simultaneously-violated geometry.
    #[test]
    fn cone_check_matches_certificate_lp_on_random_max_inequalities(
        n in 2usize..5,
        disjuncts in proptest::collection::vec(
            proptest::collection::vec((0u32..15, -2i64..3), 1..4),
            1..4,
        ),
    ) {
        let exprs: Vec<EntropyExpr> = disjuncts
            .iter()
            .map(|terms| expr_from_masks(n, terms))
            .collect();
        let max = MaxInequality::new(universe(n), exprs);
        assert_equivalent(&max);
    }
}

/// Regression: the Zhang–Yeung non-Shannon inequality must yield a
/// polymatroid counterexample from both deciders (it is the classic case
/// where `Γ*_4 ⊊ Γ_4`, so certifying validity here would be a soundness
/// bug).
#[test]
fn zhang_yeung_yields_a_counterexample_from_both_deciders() {
    let universe = universe(4);
    let names = ["X0", "X1", "X2", "X3"];
    let mut e = EntropyExpr::zero();
    let mi = |e: &mut EntropyExpr, coeff: i64, a: &[usize], b: &[usize], cond: &[usize]| {
        let join = |xs: &[usize], ys: &[usize]| -> Vec<String> {
            let mut v: Vec<String> = xs.iter().map(|&i| names[i].to_string()).collect();
            for &y in ys {
                if !v.contains(&names[y].to_string()) {
                    v.push(names[y].to_string());
                }
            }
            v
        };
        e.add_term(int(coeff), join(a, cond));
        e.add_term(int(coeff), join(b, cond));
        let ab: Vec<usize> = a.iter().chain(b).copied().collect();
        e.add_term(int(-coeff), join(&ab, cond));
        e.add_term(int(-coeff), join(cond, &[]));
    };
    // 2 I(C;D) <= I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B), with
    // (A, B, C, D) = (X0, X1, X2, X3).
    mi(&mut e, 1, &[0], &[1], &[]);
    mi(&mut e, 1, &[0], &[2, 3], &[]);
    mi(&mut e, 3, &[2], &[3], &[0]);
    mi(&mut e, 1, &[2], &[3], &[1]);
    mi(&mut e, -2, &[2], &[3], &[]);
    let ineq = LinearInequality::new(universe, e);

    assert!(
        !assert_equivalent(&ineq.to_max()),
        "Zhang–Yeung is not Shannon-provable"
    );
}

/// The textbook valid/invalid pairs over three variables, with their
/// expected verdicts.
#[test]
fn curated_suite_agrees_with_the_certificate_lp() {
    let cases: [(&[(u32, i64)], bool); 4] = [
        // Submodularity (valid): h(X0) + h(X1) - h(X0X1) >= 0, masks 1, 2, 3.
        (&[(0, 1), (1, 1), (2, -1)], true),
        // Supermodularity (invalid).
        (&[(0, -1), (1, -1), (2, 1)], false),
        // Monotonicity at the top (valid): h(V) - h(X0X1) >= 0.
        (&[(6, 1), (2, -1)], true),
        // h(X0) - h(V) >= 0 (invalid).
        (&[(0, 1), (6, -1)], false),
    ];
    for (terms, valid) in cases {
        let ineq = LinearInequality::new(universe(3), expr_from_masks(3, terms));
        assert_eq!(assert_equivalent(&ineq.to_max()), valid, "{terms:?}");
    }
}
