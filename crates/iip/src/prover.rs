//! Validity of (max-)information inequalities over the Shannon cone `Γ_n`.
//!
//! Section 3.2: `Γ_n` is a polyhedral cone, so validity of a max-linear
//! inequality over `Γ_n` is decidable by linear programming.  Concretely,
//! `0 ≤ max_ℓ E_ℓ(h)` fails on `Γ_n` iff some polymatroid has `E_ℓ(h) < 0`
//! for every `ℓ`; because `Γ_n` is a cone this is equivalent to the
//! feasibility of
//!
//! ```text
//!     h ∈ Γ_n  (elemental Shannon inequalities),    E_ℓ(h) ≤ −1  for all ℓ,
//! ```
//!
//! which the exact simplex solver of `bqc-lp` decides.  The answer is
//! interpreted as follows:
//!
//! * **valid over `Γ_n`** ⇒ valid over the entropic functions `Γ*_n ⊆ Γ_n`
//!   (the inequality is a *Shannon* inequality);
//! * **invalid over `Γ_n`** ⇒ inconclusive for general inequalities (there are
//!   non-Shannon valid inequalities, Zhang–Yeung \[32\]); but for the
//!   *essentially Shannon* classes of Theorem 3.6 — in particular the
//!   containment inequalities produced by chordal queries with simple junction
//!   trees — the polymatroid counterexample can be pushed down into the normal
//!   functions and therefore refutes the inequality outright.
//!
//! ## One stateless check
//!
//! Every probe materializes the whole elemental cone — `n + C(n,2)·2^{n−2}`
//! rows, one per [`ElementalId`](bqc_entropy::ElementalId) — plus one row
//! per disjunct, and solves that program once from the solver's cold crash
//! basis.  Nothing survives between probes, so the verdict *and* the
//! counterexample are pure functions of the inequality: a caller (or a
//! cache) can never observe an answer that depends on which probes ran
//! before it.

use crate::inequality::{LinearInequality, MaxInequality};
use bqc_arith::Rational;
use bqc_entropy::{all_masks, elemental_ids, EntropyExpr, Mask, SetFunction};
use bqc_lp::{ConstraintOp, LpProblem, LpStatus, Sense, VarBound, VarId};
use bqc_obs::{Budget, Exhausted, LazyCounter};
use std::collections::HashMap;

static PROBES: LazyCounter = LazyCounter::new("bqc_iip_probes_total");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("bqc_iip_budget_exhausted_total");

/// Outcome of a validity check over the polymatroid cone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GammaValidity {
    /// The inequality holds for every polymatroid (hence for every entropic
    /// function): it is a Shannon inequality.
    ValidShannon,
    /// Some polymatroid violates every disjunct simultaneously.  The witness
    /// satisfies `E_ℓ(h) ≤ −1` for all `ℓ`.
    NotShannonProvable {
        /// A violating polymatroid.
        counterexample: SetFunction,
    },
}

impl GammaValidity {
    /// `true` iff the inequality is Shannon-provable.
    pub fn is_valid(&self) -> bool {
        matches!(self, GammaValidity::ValidShannon)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&SetFunction> {
        match self {
            GammaValidity::ValidShannon => None,
            GammaValidity::NotShannonProvable { counterexample } => Some(counterexample),
        }
    }
}

/// Internal helper: builds the `h ∈ Γ_n` constraint system (every elemental
/// inequality as a row `Σ ±h(mask) ≥ 0`), returning one anonymous
/// non-negative LP column per non-empty subset of the universe.
fn shannon_cone_lp(variables: &[String]) -> (LpProblem, Vec<Option<VarId>>) {
    let n = variables.len();
    let mut lp = LpProblem::new(Sense::Minimize);
    let mut columns: Vec<Option<VarId>> = vec![None; 1 << n];
    for mask in all_masks(n) {
        if mask == 0 {
            continue;
        }
        // Polymatroids are non-negative (monotonicity from h(∅) = 0), so the
        // natural variable bound is ≥ 0; this also keeps the LP smaller.
        columns[mask as usize] = Some(lp.add_variable_anonymous(VarBound::NonNegative));
    }
    for id in elemental_ids(n) {
        let (terms, len) = id.terms(n);
        lp.add_constraint_small(
            terms[..len]
                .iter()
                .filter_map(|(mask, coeff)| columns[*mask as usize].map(|var| (var, *coeff))),
            ConstraintOp::Ge,
            0,
        );
    }
    (lp, columns)
}

/// Converts an [`EntropyExpr`] into sparse LP coefficients with respect to the
/// ordered variable universe.
fn expr_coefficients(
    expr: &EntropyExpr,
    variables: &[String],
    columns: &[Option<VarId>],
) -> Vec<(VarId, Rational)> {
    let index_of: HashMap<&str, usize> = variables
        .iter()
        .enumerate()
        .map(|(index, name)| (name.as_str(), index))
        .collect();
    let mut coeffs = Vec::new();
    for (set, coeff) in expr.terms() {
        let mut mask: Mask = 0;
        for v in set {
            let index = index_of
                .get(v.as_str())
                .unwrap_or_else(|| panic!("variable {v} missing from the universe"));
            mask |= 1 << index;
        }
        if let Some(var) = columns[mask as usize] {
            coeffs.push((var, coeff.clone()));
        }
    }
    coeffs
}

/// Decides whether `0 ≤ max_ℓ E_ℓ(h)` holds for every polymatroid over the
/// inequality's universe.
pub fn check_max_inequality(inequality: &MaxInequality) -> GammaValidity {
    check_max_inequality_budgeted(inequality, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// [`check_max_inequality`] under a decision [`Budget`]: pivots are charged
/// inside the LP solve.  `Err` means the budget ran out before the probe
/// finished; no partial verdict escapes.
pub fn check_max_inequality_budgeted(
    inequality: &MaxInequality,
    budget: &Budget,
) -> Result<GammaValidity, Exhausted> {
    PROBES.inc();
    let _probe_span = bqc_obs::span("gamma-check");
    let variables = &inequality.variables;
    let (mut lp, columns) = shannon_cone_lp(variables);
    for disjunct in &inequality.disjuncts {
        let coeffs = expr_coefficients(disjunct, variables, &columns);
        // E_ℓ(h) ≤ −1.
        lp.add_constraint(coeffs, ConstraintOp::Le, -Rational::one());
    }
    let solution = lp.solve_budgeted(budget).inspect_err(|_| {
        BUDGET_EXHAUSTED.inc();
        bqc_obs::instant("budget-exhausted");
    })?;
    Ok(match solution.status {
        LpStatus::Infeasible => GammaValidity::ValidShannon,
        // Unbounded cannot occur for the zero feasibility objective; it is
        // read like Optimal for uniformity.
        LpStatus::Optimal | LpStatus::Unbounded => {
            let h = columns
                .iter()
                .map(|column| match column {
                    Some(var) => solution.values[var.0].clone(),
                    None => Rational::zero(),
                })
                .collect();
            GammaValidity::NotShannonProvable {
                counterexample: SetFunction::from_values(variables.clone(), h),
            }
        }
    })
}

/// Decides whether a linear information inequality is a Shannon inequality.
pub fn check_linear_inequality(inequality: &LinearInequality) -> GammaValidity {
    check_max_inequality(&inequality.to_max())
}

/// Computes the exact minimum of `E(h)` over the polymatroids with the
/// normalization `h(V) ≤ bound`; useful for quantifying *how far* from valid
/// an inequality is (the minimum is 0 for Shannon inequalities and negative
/// otherwise, scaling linearly in `bound`).
pub fn minimize_over_gamma(
    expr: &EntropyExpr,
    variables: &[String],
    bound: Rational,
) -> Option<Rational> {
    let (mut lp, columns) = shannon_cone_lp(variables);
    let full: Mask = ((1u64 << variables.len()) - 1) as Mask;
    if let Some(top) = columns[full as usize] {
        lp.add_constraint(vec![(top, Rational::one())], ConstraintOp::Le, bound);
    }
    lp.set_objective(expr_coefficients(expr, variables, &columns));
    let solution = lp.solve();
    match solution.status {
        LpStatus::Optimal => solution.objective,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::int;
    use bqc_entropy::varset;

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn expr(terms: &[(i64, &[&str])]) -> EntropyExpr {
        let mut e = EntropyExpr::zero();
        for (coeff, set) in terms {
            e.add_term(int(*coeff), set.iter().copied());
        }
        e
    }

    #[test]
    fn basic_shannon_inequalities_are_valid() {
        // Submodularity: h(X) + h(Y) - h(XY) >= 0.
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
        );
        assert!(check_linear_inequality(&ineq).is_valid());
        // Monotonicity: h(XY) - h(X) >= 0.
        let ineq =
            LinearInequality::new(vars(&["X", "Y"]), expr(&[(1, &["X", "Y"]), (-1, &["X"])]));
        assert!(check_linear_inequality(&ineq).is_valid());
        // Conditional submodularity on three variables:
        // h(XZ) + h(YZ) - h(XYZ) - h(Z) >= 0.
        let ineq = LinearInequality::new(
            vars(&["X", "Y", "Z"]),
            expr(&[
                (1, &["X", "Z"]),
                (1, &["Y", "Z"]),
                (-1, &["X", "Y", "Z"]),
                (-1, &["Z"]),
            ]),
        );
        assert!(check_linear_inequality(&ineq).is_valid());
    }

    #[test]
    fn invalid_inequalities_produce_polymatroid_counterexamples() {
        // h(X) - h(Y) >= 0 is not valid.
        let ineq = LinearInequality::new(vars(&["X", "Y"]), expr(&[(1, &["X"]), (-1, &["Y"])]));
        match check_linear_inequality(&ineq) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(bqc_entropy::is_polymatroid(&counterexample));
                assert!(ineq.evaluate(&counterexample) <= -int(1));
            }
            GammaValidity::ValidShannon => panic!("expected a counterexample"),
        }
        // Supermodularity h(XY) - h(X) - h(Y) >= 0 is not valid either.
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X", "Y"]), (-1, &["X"]), (-1, &["Y"])]),
        );
        assert!(!check_linear_inequality(&ineq).is_valid());
    }

    #[test]
    fn example_19_from_section_5_is_valid() {
        // Eq. (19): 0 <= h(X1) + 2 h(X2) + h(X3) - h(X1X2) - h(X2X3).
        let ineq = LinearInequality::new(
            vars(&["X1", "X2", "X3"]),
            expr(&[
                (1, &["X1"]),
                (2, &["X2"]),
                (1, &["X3"]),
                (-1, &["X1", "X2"]),
                (-1, &["X2", "X3"]),
            ]),
        );
        assert!(check_linear_inequality(&ineq).is_valid());
    }

    #[test]
    fn example_3_8_max_inequality_is_valid() {
        // h(X1X2X3) <= max(E1, E2, E3) with
        //   E1 = h(X1X2) + h(X2|X1), E2 = h(X2X3) + h(X3|X2), E3 = h(X1X3) + h(X1|X3).
        let universe = vars(&["X1", "X2", "X3"]);
        let make = |top: &[&str], y: &str, x: &str| {
            let mut e = EntropyExpr::zero();
            e.add_term(int(1), top.iter().copied());
            e.add_conditional(int(1), &varset([y]), &varset([x]));
            e.add_term(int(-1), ["X1", "X2", "X3"]);
            e
        };
        let disjuncts = vec![
            make(&["X1", "X2"], "X2", "X1"),
            make(&["X2", "X3"], "X3", "X2"),
            make(&["X1", "X3"], "X1", "X3"),
        ];
        let max = MaxInequality::new(universe, disjuncts);
        assert!(check_max_inequality(&max).is_valid());
    }

    #[test]
    fn max_inequality_with_no_valid_disjunct_fails() {
        // max( h(X) - h(XY), h(Y) - h(XY) ) >= 0 fails: make X, Y independent
        // non-degenerate, then both disjuncts are negative.
        let universe = vars(&["X", "Y"]);
        let d1 = expr(&[(1, &["X"]), (-1, &["X", "Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X", "Y"])]);
        let max = MaxInequality::new(universe, vec![d1, d2]);
        match check_max_inequality(&max) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(max.evaluate(&counterexample).is_negative());
            }
            GammaValidity::ValidShannon => panic!("expected a counterexample"),
        }
    }

    #[test]
    fn max_beats_individual_disjuncts() {
        // Neither h(X) - h(Y) >= 0 nor h(Y) - h(X) >= 0 is valid, but their max is.
        let universe = vars(&["X", "Y"]);
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        assert!(
            !check_linear_inequality(&LinearInequality::new(universe.clone(), d1.clone()))
                .is_valid()
        );
        assert!(
            !check_linear_inequality(&LinearInequality::new(universe.clone(), d2.clone()))
                .is_valid()
        );
        assert!(check_max_inequality(&MaxInequality::new(universe, vec![d1, d2])).is_valid());
    }

    #[test]
    fn zhang_yeung_inequality_is_not_shannon_provable() {
        // The Zhang–Yeung non-Shannon inequality (1998):
        //   2 I(C;D) <= I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B)
        // is valid for entropic functions but NOT for all polymatroids, so the
        // Γ_n-checker must report a counterexample.
        let ineq = zhang_yeung();
        match check_linear_inequality(&ineq) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(bqc_entropy::is_polymatroid(&counterexample));
                assert!(ineq.evaluate(&counterexample).is_negative());
            }
            GammaValidity::ValidShannon => panic!("Zhang–Yeung must not be Shannon-provable"),
        }
    }

    /// The Zhang–Yeung non-Shannon inequality over {A, B, C, D}.
    pub(crate) fn zhang_yeung() -> LinearInequality {
        let universe = vars(&["A", "B", "C", "D"]);
        let mut e = EntropyExpr::zero();
        let mi = |e: &mut EntropyExpr, coeff: i64, a: &[&str], b: &[&str], cond: &[&str]| {
            // coeff * I(a;b|cond) = coeff*(h(a,cond) + h(b,cond) - h(a,b,cond) - h(cond))
            let join = |x: &[&str], y: &[&str]| -> Vec<String> {
                let mut v: Vec<String> = x.iter().map(|s| s.to_string()).collect();
                for s in y {
                    if !v.contains(&s.to_string()) {
                        v.push(s.to_string());
                    }
                }
                v
            };
            e.add_term(int(coeff), join(a, cond));
            e.add_term(int(coeff), join(b, cond));
            e.add_term(
                int(-coeff),
                join(
                    &join(a, b).iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                    cond,
                ),
            );
            e.add_term(int(-coeff), cond.iter().copied());
        };
        mi(&mut e, 1, &["A"], &["B"], &[]);
        mi(&mut e, 1, &["A"], &["C", "D"], &[]);
        mi(&mut e, 3, &["C"], &["D"], &["A"]);
        mi(&mut e, 1, &["C"], &["D"], &["B"]);
        mi(&mut e, -2, &["C"], &["D"], &[]);
        LinearInequality::new(universe, e)
    }

    #[test]
    fn budget_exhaustion_aborts_the_probe_without_a_verdict() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        // The inequality is invalid, so the solve must pivot through phase 1
        // (its disjunct row is violated at h = 0) — a zero-pivot cap always
        // aborts before a verdict.
        let ineq = LinearInequality::new(
            vars(&["V", "W", "X", "Y", "Z"]),
            expr(&[(1, &["X"]), (-1, &["Y"])]),
        )
        .to_max();
        let spec = BudgetSpec {
            max_pivots: Some(0),
            ..BudgetSpec::UNLIMITED
        };
        let err = check_max_inequality_budgeted(&ineq, &spec.start())
            .expect_err("zero pivots cannot refute a Γ_5 probe");
        assert_eq!(err.resource, BudgetResource::Pivots);
        // An ample budget returns exactly the unbudgeted answer,
        // counterexample included.
        let ample = BudgetSpec {
            max_pivots: Some(1 << 20),
            ..BudgetSpec::UNLIMITED
        };
        assert_eq!(
            check_max_inequality_budgeted(&ineq, &ample.start()).unwrap(),
            check_max_inequality(&ineq)
        );
    }

    #[test]
    fn minimize_over_gamma_quantifies_violation() {
        let universe = vars(&["X", "Y"]);
        // Valid inequality: minimum is 0.
        let valid = expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]);
        assert_eq!(minimize_over_gamma(&valid, &universe, int(1)), Some(int(0)));
        // Invalid inequality: minimum is -1 with h(XY) <= 1.
        let invalid = expr(&[(1, &["X"]), (-1, &["Y"])]);
        assert_eq!(
            minimize_over_gamma(&invalid, &universe, int(1)),
            Some(int(-1))
        );
    }
}
