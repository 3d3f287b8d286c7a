//! The revised simplex against the retained dense oracle.
//!
//! Two independent exact solvers must agree on the *classification*
//! (optimal / infeasible / unbounded) and, when optimal, on the *objective
//! value* of every program — optimal points may legitimately differ when the
//! optimum face has dimension > 0.  The suite covers the classic cycling
//! examples (Beale, Kuhn) that defeat naive Dantzig pricing, plus
//! property-tested random sparse programs in both standard and modelled form.

use bqc_arith::{int, ratio, Rational};
use bqc_lp::oracle::solve_standard_form_dense;
use bqc_lp::{
    solve_standard_form, ConstraintOp, LpProblem, LpStatus, Sense, SimplexOutcome, VarBound,
};
use proptest::prelude::*;

/// Compares the two solvers on one standard-form program.
fn assert_agreement(a: &[Vec<Rational>], b: &[Rational], c: &[Rational]) {
    let revised = solve_standard_form(a, b, c);
    let dense = solve_standard_form_dense(a, b, c);
    match (&revised, &dense) {
        (
            SimplexOutcome::Optimal {
                objective: obj_r,
                solution: sol_r,
            },
            SimplexOutcome::Optimal {
                objective: obj_d, ..
            },
        ) => {
            assert_eq!(obj_r, obj_d, "objectives must agree exactly");
            // The revised solution must actually satisfy A x = b, x >= 0 and
            // price out to the claimed objective.
            let mut priced = Rational::zero();
            for (x, cost) in sol_r.iter().zip(c) {
                assert!(!x.is_negative(), "solution must be non-negative");
                priced += x * cost;
            }
            assert_eq!(&priced, obj_r, "objective must match the solution");
            for (row, rhs) in a.iter().zip(b) {
                let lhs: Rational = row.iter().zip(sol_r).map(|(coeff, x)| coeff * x).sum();
                assert_eq!(&lhs, rhs, "solution must satisfy every row");
            }
        }
        (SimplexOutcome::Infeasible, SimplexOutcome::Infeasible) => {}
        (SimplexOutcome::Unbounded, SimplexOutcome::Unbounded) => {}
        other => panic!("solvers disagree: {other:?}"),
    }
}

#[test]
fn beale_cycling_example() {
    // Beale (1955): cycles under Dantzig pricing without anti-cycling
    // safeguards.  Optimum -1/20.
    let a = vec![
        vec![
            ratio(1, 4),
            int(-60),
            ratio(-1, 25),
            int(9),
            int(1),
            int(0),
            int(0),
        ],
        vec![
            ratio(1, 2),
            int(-90),
            ratio(-1, 50),
            int(3),
            int(0),
            int(1),
            int(0),
        ],
        vec![int(0), int(0), int(1), int(0), int(0), int(0), int(1)],
    ];
    let b = vec![int(0), int(0), int(1)];
    let c = vec![
        ratio(-3, 4),
        int(150),
        ratio(-1, 50),
        int(6),
        int(0),
        int(0),
        int(0),
    ];
    assert_agreement(&a, &b, &c);
    match solve_standard_form(&a, &b, &c) {
        SimplexOutcome::Optimal { objective, .. } => assert_eq!(objective, ratio(-1, 20)),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn kuhn_cycling_example() {
    // Kuhn's degenerate example: both right-hand sides are zero, so every
    // pivot of the early iterations is degenerate.  In standard form with
    // slacks s1, s2:
    //   -2x1 - 9x2 +  x3 + 9x4 + s1 = 0
    //  1/3x1 +  x2 - 1/3x3 - 2x4 + s2 = 0
    //   minimize -2x1 - 3x2 + x3 + 12x4.
    let a = vec![
        vec![int(-2), int(-9), int(1), int(9), int(1), int(0)],
        vec![ratio(1, 3), int(1), ratio(-1, 3), int(-2), int(0), int(1)],
    ];
    let b = vec![int(0), int(0)];
    let c = vec![int(-2), int(-3), int(1), int(12), int(0), int(0)];
    assert_agreement(&a, &b, &c);
    // Both solvers terminate despite the total degeneracy; the program is
    // unbounded (push x2 along the recession direction).
    assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
}

#[test]
fn fully_degenerate_square_is_handled() {
    // All-zero rhs with redundant rows: the only feasible point is where the
    // positive combination constraints bind; objective 0.
    let a = vec![
        vec![int(1), int(-1), int(0)],
        vec![int(1), int(-1), int(0)],
        vec![int(1), int(1), int(1)],
    ];
    let b = vec![int(0), int(0), int(0)];
    let c = vec![int(1), int(2), int(3)];
    assert_agreement(&a, &b, &c);
}

/// Deterministically expands a compact integer encoding into a standard-form
/// program: `entries` supplies coefficients in `-3..=3` with zeros making the
/// matrix sparse, `rhs` in `-4..=4`, `costs` in `-3..=3`.
fn decode_program(
    rows: usize,
    cols: usize,
    entries: &[i64],
    rhs: &[i64],
    costs: &[i64],
) -> (Vec<Vec<Rational>>, Vec<Rational>, Vec<Rational>) {
    let mut a = vec![vec![Rational::zero(); cols]; rows];
    for i in 0..rows {
        for j in 0..cols {
            let raw = entries[(i * cols + j) % entries.len()];
            // Map ~60% of entries to structural zeros to mimic the cone
            // programs' sparsity.
            a[i][j] = if raw.rem_euclid(5) < 3 {
                Rational::zero()
            } else {
                int(raw.rem_euclid(7) - 3)
            };
        }
    }
    let b: Vec<Rational> = (0..rows)
        .map(|i| int(rhs[i % rhs.len()].rem_euclid(9) - 4))
        .collect();
    let c: Vec<Rational> = (0..cols)
        .map(|j| int(costs[j % costs.len()].rem_euclid(7) - 3))
        .collect();
    (a, b, c)
}

proptest! {
    #[test]
    fn random_sparse_standard_forms_agree(
        rows in 1usize..6,
        cols in 1usize..8,
        entries in proptest::collection::vec(-100i64..100, 8..48),
        rhs in proptest::collection::vec(-100i64..100, 1..8),
        costs in proptest::collection::vec(-100i64..100, 1..8),
    ) {
        let (a, b, c) = decode_program(rows, cols, &entries, &rhs, &costs);
        assert_agreement(&a, &b, &c);
    }

    #[test]
    fn random_modelled_problems_solve_to_checked_optima(
        n_vars in 1usize..5,
        n_cons in 1usize..5,
        entries in proptest::collection::vec(-100i64..100, 8..32),
        rhs in proptest::collection::vec(-100i64..100, 1..6),
    ) {
        // Build a modelled problem with mixed operators and bounds and solve
        // it: an optimal point must satisfy every declared row and bound and
        // price out to the reported objective, and a second solve must return
        // the identical answer (solves are pure functions of the program).
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n_vars)
            .map(|i| {
                let bound = if entries[i % entries.len()].rem_euclid(4) == 0 {
                    VarBound::Free
                } else {
                    VarBound::NonNegative
                };
                lp.add_variable(format!("x{i}"), bound)
            })
            .collect();
        lp.set_objective(vars.iter().enumerate().map(|(j, &v)| {
            (v, int(entries[(j * 7 + 3) % entries.len()].rem_euclid(5) - 2))
        }).collect::<Vec<_>>());
        let mut rows = Vec::new();
        for i in 0..n_cons {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .filter_map(|(j, &v)| {
                    let raw = entries[(i * n_vars + j) % entries.len()];
                    if raw.rem_euclid(3) == 0 {
                        None
                    } else {
                        Some((v, int(raw.rem_euclid(7) - 3)))
                    }
                })
                .collect();
            let op = match rhs[i % rhs.len()].rem_euclid(3) {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            let bound = int(rhs[(i * 5 + 1) % rhs.len()].rem_euclid(9) - 4);
            lp.add_constraint(coeffs.clone(), op, bound.clone());
            rows.push((coeffs, op, bound));
        }
        let first = lp.solve();
        let again = lp.solve();
        prop_assert_eq!(&again.status, &first.status);
        prop_assert_eq!(&again.objective, &first.objective);
        prop_assert_eq!(&again.values, &first.values);
        if first.status == LpStatus::Optimal {
            for (coeffs, op, bound) in &rows {
                let lhs: Rational = coeffs.iter().map(|(v, c)| c * &first[*v]).sum();
                let holds = match op {
                    ConstraintOp::Le => lhs <= *bound,
                    ConstraintOp::Ge => lhs >= *bound,
                    ConstraintOp::Eq => lhs == *bound,
                };
                prop_assert!(holds, "optimal point violates a declared row");
            }
            for (j, &v) in vars.iter().enumerate() {
                let free = entries[j % entries.len()].rem_euclid(4) == 0;
                prop_assert!(free || !first[v].is_negative(), "bound violated");
            }
            let priced: Rational = vars
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    &int(entries[(j * 7 + 3) % entries.len()].rem_euclid(5) - 2) * &first[v]
                })
                .sum();
            prop_assert_eq!(first.objective, Some(priced));
        }
    }
}
