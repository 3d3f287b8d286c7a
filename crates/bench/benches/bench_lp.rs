//! Experiment E11: the exact LP solvers on Shannon-cone feasibility programs.
//!
//! Three groups feed the CI bench-regression gate (`BENCH_PR15.json`):
//!
//! * `lp/shannon_cone_feasibility` — the *identical* standard-form program
//!   through the sparse revised simplex (`revised/n`, n = 3..6) and through
//!   the retained dense tableau oracle (`dense/n`, capped at n = 5: the
//!   dense tableau on the 247-row n = 6 cone is minutes-slow and would blow
//!   the CI budget without adding signal);
//! * `lp/gamma_validity` — full `Γ_n` validity checks through the one
//!   stateless cone check ([`check_max_inequality`]), each solve cold: a
//!   valid chain inequality (`valid/n`) and a refutation (`refute/n`) at
//!   n = 6 (247 elemental rows) and n = 7 (679 rows);
//! * `lp/random_dense` — dense random LPs through the modelling layer, as a
//!   guard against the sparse solver regressing on non-sparse inputs.

use bqc_arith::{int, Rational};
use bqc_entropy::{elemental_inequalities, EntropyExpr};
use bqc_iip::{check_max_inequality, LinearInequality, MaxInequality};
use bqc_lp::oracle::solve_standard_form_dense;
use bqc_lp::{solve_standard_form, ConstraintOp, LpProblem, Sense, VarBound};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The same cone feasibility program as an explicit dense standard form
/// (surplus column per `>=` row), so the dense oracle and the revised solver
/// can be timed on byte-identical input.
fn shannon_cone_standard_form(n: usize) -> (Vec<Vec<Rational>>, Vec<Rational>, Vec<Rational>) {
    let vars = (1usize << n) - 1;
    let elementals: Vec<_> = elemental_inequalities(n).into_iter().collect();
    let rows = elementals.len() + 1;
    let cols = vars + rows;
    let mut a = vec![vec![Rational::zero(); cols]; rows];
    for (i, constraint) in elementals.iter().enumerate() {
        for (mask, coeff) in &constraint.terms {
            if *mask != 0 {
                a[i][*mask as usize - 1] = coeff.clone();
            }
        }
        a[i][vars + i] = -Rational::one();
    }
    let last = rows - 1;
    a[last][vars - 1] = Rational::one();
    a[last][vars + last] = -Rational::one();
    let mut b = vec![Rational::zero(); rows];
    b[last] = Rational::one();
    let c = vec![Rational::zero(); cols];
    (a, b, c)
}

fn bench_shannon_cone(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/shannon_cone_feasibility");
    group.sample_size(10);
    for n in [3usize, 4, 5, 6] {
        let (a, b, cost) = shannon_cone_standard_form(n);
        group.bench_with_input(BenchmarkId::new("revised", n), &n, |bencher, _| {
            bencher.iter(|| {
                assert!(matches!(
                    solve_standard_form(&a, &b, &cost),
                    bqc_lp::SimplexOutcome::Optimal { .. }
                ))
            })
        });
        // The dense tableau is O(m·n) big-rational work per pivot; n = 6
        // (247 rows) takes minutes and is deliberately excluded.
        if n <= 5 {
            group.bench_with_input(BenchmarkId::new("dense", n), &n, |bencher, _| {
                bencher.iter(|| {
                    assert!(matches!(
                        solve_standard_form_dense(&a, &b, &cost),
                        bqc_lp::SimplexOutcome::Optimal { .. }
                    ))
                })
            });
        }
    }
    group.finish();
}

/// The chain Shannon inequality `h(V0) + Σ h(V_{i+1}|V_i) ≥ h(V)` — valid,
/// with a Farkas certificate combining Θ(n²) elemental rows, i.e. the
/// *deep* validity shape the containment inequalities of Theorem 4.2
/// produce on path-shaped junction trees.
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

/// An invalid inequality (`h(V) ≤ h(V0)`) whose refutation needs a
/// polymatroid counterexample from deep inside the cone.
fn refuted_inequality(n: usize) -> MaxInequality {
    let universe: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), [universe[0].clone()]);
    expr.add_term(int(-1), universe.clone());
    LinearInequality::new(universe, expr).to_max()
}

fn bench_gamma_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/gamma_validity");
    group.sample_size(10);
    for n in [6usize, 7] {
        let valid = chain_inequality(n);
        let refute = refuted_inequality(n);
        group.bench_with_input(BenchmarkId::new("valid", n), &n, |b, _| {
            b.iter(|| assert!(check_max_inequality(&valid).is_valid()))
        });
        group.bench_with_input(BenchmarkId::new("refute", n), &n, |b, _| {
            b.iter(|| assert!(!check_max_inequality(&refute).is_valid()))
        });
    }
    group.finish();
}

fn random_lp(variables: usize, constraints: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Maximize);
    let vars: Vec<_> = (0..variables)
        .map(|i| lp.add_variable(format!("x{i}"), VarBound::NonNegative))
        .collect();
    lp.set_objective(
        vars.iter()
            .map(|&v| (v, int(rng.gen_range(1..5))))
            .collect::<Vec<_>>(),
    );
    for _ in 0..constraints {
        let coeffs: Vec<_> = vars
            .iter()
            .map(|&v| (v, int(rng.gen_range(0..4))))
            .collect();
        lp.add_constraint(coeffs, ConstraintOp::Le, int(rng.gen_range(5..20)));
    }
    lp
}

fn bench_random_lps(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/random_dense");
    group.sample_size(10);
    for size in [10usize, 20, 30] {
        let lp = random_lp(size, size, size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let solution = lp.solve();
                assert!(solution.is_optimal());
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_shannon_cone, bench_gamma_validity, bench_random_lps
}
criterion_main!(benches);
