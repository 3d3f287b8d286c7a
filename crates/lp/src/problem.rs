//! A small modelling layer on top of the standard-form simplex solver.
//!
//! [`LpProblem`] lets callers state problems with named variables, free or
//! non-negative bounds, `≤` / `≥` / `=` constraints and either optimization
//! sense.  Internally the problem is rewritten into a **sparse column-major**
//! standard form (free variables split into differences of non-negatives,
//! inequality rows given slack/surplus columns, rows re-signed so the
//! right-hand side is non-negative and every zero-rhs inequality row has a
//! `+1` slack) and handed to the revised simplex (the `revised` module).

use crate::revised::{solve_sparse_full, SimplexOutcome};
use crate::scalar::Scalar;
use crate::sparse::SparseMatrix;
use bqc_arith::Rational;
use bqc_obs::{Budget, Exhausted};
use std::borrow::Cow;
use std::fmt;
use std::ops::Index;

/// Identifier of a decision variable in an [`LpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Identifier of a constraint in an [`LpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub usize);

/// Optimization sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Domain of a decision variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarBound {
    /// `x ≥ 0`.
    NonNegative,
    /// Unrestricted in sign.
    Free,
}

/// Relation of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Solver status for an [`LpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

// Coefficients are stored in the solver's small-rational `Scalar` form:
// Shannon-cone rows are all ±1 entries, and keeping them as `Rational` made
// every standard-form build clone two heap limb vectors per nonzero.
#[derive(Clone, Debug)]
struct Constraint {
    coeffs: Vec<(VarId, Scalar)>,
    op: ConstraintOp,
    rhs: Scalar,
}

// `name` is lazy: anonymous variables (the 2^n − 1 Shannon-cone columns)
// never pay a `format!` unless a name is actually requested.
#[derive(Clone, Debug)]
struct Variable {
    name: Option<String>,
    bound: VarBound,
}

/// A linear program with named variables.
///
/// See the crate-level documentation for a worked example.
#[derive(Clone, Debug)]
pub struct LpProblem {
    sense: Sense,
    variables: Vec<Variable>,
    objective: Vec<(VarId, Rational)>,
    constraints: Vec<Constraint>,
}

/// The result of [`LpProblem::solve`].
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Solver status.
    pub status: LpStatus,
    /// Optimal objective value in the problem's own sense, if `status` is
    /// [`LpStatus::Optimal`].
    pub objective: Option<Rational>,
    /// One value per declared variable (all zero unless `status` is optimal).
    pub values: Vec<Rational>,
    /// One dual multiplier per declared constraint, in the problem's own
    /// row orientation and sense.  Populated only by
    /// [`LpProblem::solve_with_duals`] (dual extraction costs one BTRAN per
    /// solve, which pure feasibility probes should not pay); `None` from
    /// every other entry point.
    pub duals: Option<Vec<Rational>>,
}

impl Index<VarId> for LpSolution {
    type Output = Rational;
    fn index(&self, id: VarId) -> &Rational {
        &self.values[id.0]
    }
}

impl LpSolution {
    /// Returns the value assigned to `var` (zero when not optimal).
    pub fn value(&self, var: VarId) -> &Rational {
        &self.values[var.0]
    }

    /// Returns `true` iff the problem was solved to optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

impl LpProblem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> LpProblem {
        LpProblem {
            sense,
            variables: Vec::new(),
            objective: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Declares a new decision variable and returns its identifier.
    pub fn add_variable(&mut self, name: impl Into<String>, bound: VarBound) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: Some(name.into()),
            bound,
        });
        id
    }

    /// Declares a new **anonymous** decision variable.
    ///
    /// No name string is allocated; [`LpProblem::variable_name`] synthesizes
    /// `x{id}` on demand.  The Shannon-cone programs of `bqc-iip` declare
    /// `2^n − 1` columns per probe, so label laziness is measurable there.
    pub fn add_variable_anonymous(&mut self, bound: VarBound) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable { name: None, bound });
        id
    }

    /// Number of declared variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable (synthesized as `x{id}` for anonymous variables).
    pub fn variable_name(&self, var: VarId) -> Cow<'_, str> {
        match &self.variables[var.0].name {
            Some(name) => Cow::Borrowed(name.as_str()),
            None => Cow::Owned(format!("x{}", var.0)),
        }
    }

    /// Sets the objective as a sparse list of `(variable, coefficient)` pairs.
    pub fn set_objective(&mut self, coeffs: impl IntoIterator<Item = (VarId, Rational)>) {
        self.objective = coeffs.into_iter().collect();
    }

    /// Adds a linear constraint `Σ coeff·var  op  rhs`.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, Rational)>,
        op: ConstraintOp,
        rhs: Rational,
    ) -> ConstraintId {
        self.add_constraint_scaled(
            coeffs
                .into_iter()
                .map(|(var, coeff)| (var, Scalar::from_rational(coeff))),
            op,
            Scalar::from_rational(rhs),
        )
    }

    /// Adds a linear constraint with small integer coefficients without any
    /// `Rational` round-trip — elemental Shannon rows are all ±1 entries.
    pub fn add_constraint_small(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, i64)>,
        op: ConstraintOp,
        rhs: i64,
    ) -> ConstraintId {
        self.add_constraint_scaled(
            coeffs
                .into_iter()
                .map(|(var, coeff)| (var, Scalar::from_int(coeff))),
            op,
            Scalar::from_int(rhs),
        )
    }

    /// Adds a linear constraint already in the solver's [`Scalar`] form.
    pub fn add_constraint_scaled(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, Scalar)>,
        op: ConstraintOp,
        rhs: Scalar,
    ) -> ConstraintId {
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(Constraint {
            coeffs: coeffs.into_iter().collect(),
            op,
            rhs,
        });
        id
    }

    /// Builds the sparse column-major standard form.  `with_objective = false`
    /// leaves the cost vector at zero (for pure feasibility probes).
    pub(crate) fn standard_form(&self, with_objective: bool) -> StandardForm {
        // Column layout of the standard form:
        //   for each variable: one column if NonNegative, two (x⁺, x⁻) if Free;
        //   then one slack/surplus column per inequality constraint.
        let mut column_of_var: Vec<(usize, Option<usize>)> =
            Vec::with_capacity(self.variables.len());
        let mut next_col = 0usize;
        for var in &self.variables {
            match var.bound {
                VarBound::NonNegative => {
                    column_of_var.push((next_col, None));
                    next_col += 1;
                }
                VarBound::Free => {
                    column_of_var.push((next_col, Some(next_col + 1)));
                    next_col += 2;
                }
            }
        }
        let num_slacks = self
            .constraints
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();
        let n = next_col + num_slacks;
        let m = self.constraints.len();

        // Rows with a negative right-hand side are re-signed here, so the
        // solver always sees `b ≥ 0`.  So are `≥` rows with a zero
        // right-hand side (every elemental Shannon row): their surplus
        // column becomes a `+1` slack, which the crash basis takes as an
        // identity column needing no factor eta.  Scaling a row by −1
        // leaves `B⁻¹A`, `B⁻¹b` and every reduced cost unchanged, so the
        // pivots are the same either way.
        let negate: Vec<bool> = self
            .constraints
            .iter()
            .map(|c| c.rhs.is_negative() || (c.op == ConstraintOp::Ge && c.rhs.is_zero()))
            .collect();
        let mut entries: Vec<Vec<(usize, Scalar)>> = vec![Vec::new(); n];
        let mut slack_col = next_col;
        for (i, constraint) in self.constraints.iter().enumerate() {
            for (var, coeff) in &constraint.coeffs {
                let signed = if negate[i] {
                    coeff.neg()
                } else {
                    coeff.clone()
                };
                let (pos, neg) = column_of_var[var.0];
                entries[pos].push((i, signed.clone()));
                if let Some(neg) = neg {
                    entries[neg].push((i, signed.neg()));
                }
            }
            let slack_sign = match constraint.op {
                ConstraintOp::Le => Some(1i64),
                ConstraintOp::Ge => Some(-1i64),
                ConstraintOp::Eq => None,
            };
            if let Some(sign) = slack_sign {
                let sign = if negate[i] { -sign } else { sign };
                entries[slack_col].push((i, Scalar::from_int(sign)));
                slack_col += 1;
            }
        }
        let mut a = SparseMatrix::new(m);
        for col in entries {
            a.push_col(col);
        }
        let b: Vec<Scalar> = self
            .constraints
            .iter()
            .zip(&negate)
            .map(|(constraint, flip)| {
                if *flip {
                    constraint.rhs.neg()
                } else {
                    constraint.rhs.clone()
                }
            })
            .collect();

        let mut c = vec![Scalar::ZERO; n];
        if with_objective {
            for (var, coeff) in &self.objective {
                let signed = Scalar::from_rational(match self.sense {
                    Sense::Minimize => coeff.clone(),
                    Sense::Maximize => -coeff,
                });
                let (pos, neg) = column_of_var[var.0];
                c[pos] = c[pos].add(&signed);
                if let Some(neg) = neg {
                    c[neg] = c[neg].sub(&signed);
                }
            }
        }
        StandardForm {
            a,
            b,
            c,
            column_of_var,
            negate,
        }
    }

    /// Solves the problem with the exact sparse revised simplex method.
    pub fn solve(&self) -> LpSolution {
        self.solve_full(false, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// Solves the problem and additionally extracts the optimal **dual
    /// multipliers** into [`LpSolution::duals`] (one BTRAN over the final
    /// basis inverse — skipped by the plain [`LpProblem::solve`], which most
    /// feasibility-probing callers are better served by).
    pub fn solve_with_duals(&self) -> LpSolution {
        self.solve_full(true, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// [`LpProblem::solve`] under a decision [`Budget`]: each simplex pivot
    /// charges the budget, and an exhausted budget aborts the solve with
    /// `Err` before any result is produced — a budget-aborted solve never
    /// returns a partial solution.
    pub fn solve_budgeted(&self, budget: &Budget) -> Result<LpSolution, Exhausted> {
        self.solve_full(false, budget)
    }

    fn solve_full(&self, want_duals: bool, budget: &Budget) -> Result<LpSolution, Exhausted> {
        let sf = self.standard_form(true);
        let result = solve_sparse_full(&sf.a, &sf.b, &sf.c, want_duals, budget)?;
        let solution = match result.outcome {
            SimplexOutcome::Infeasible => LpSolution {
                status: LpStatus::Infeasible,
                objective: None,
                values: vec![Rational::zero(); self.variables.len()],
                duals: None,
            },
            SimplexOutcome::Unbounded => LpSolution {
                status: LpStatus::Unbounded,
                objective: None,
                values: vec![Rational::zero(); self.variables.len()],
                duals: None,
            },
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                let mut values = Vec::with_capacity(self.variables.len());
                for (pos, neg) in &sf.column_of_var {
                    let mut v = solution[*pos].clone();
                    if let Some(neg) = neg {
                        v = &v - &solution[*neg];
                    }
                    values.push(v);
                }
                let objective = match self.sense {
                    Sense::Minimize => objective,
                    Sense::Maximize => -objective,
                };
                // Map the standard-form duals back to the declared rows:
                // re-signed rows flip their multiplier, and a maximization
                // (solved as minimize -c) flips every multiplier.
                let duals = result.duals.map(|ys| {
                    ys.into_iter()
                        .zip(&sf.negate)
                        .map(|(y, flip)| {
                            let y = if *flip { -y } else { y };
                            match self.sense {
                                Sense::Minimize => y,
                                Sense::Maximize => -y,
                            }
                        })
                        .collect()
                });
                LpSolution {
                    status: LpStatus::Optimal,
                    objective: Some(objective),
                    values,
                    duals,
                }
            }
        };
        Ok(solution)
    }

    /// Convenience: checks whether the constraint system admits any solution
    /// (ignores the objective).
    ///
    /// This builds the standard form with a zero cost vector directly — it
    /// does **not** clone the problem, so probing feasibility of a large
    /// Shannon-cone program costs exactly one phase-1 solve.
    pub fn is_feasible(&self) -> bool {
        self.is_feasible_budgeted(&Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// [`LpProblem::is_feasible`] under a decision [`Budget`]; `Err` means
    /// the budget ran out before feasibility was decided.
    pub fn is_feasible_budgeted(&self, budget: &Budget) -> Result<bool, Exhausted> {
        let sf = self.standard_form(false);
        Ok(matches!(
            solve_sparse_full(&sf.a, &sf.b, &sf.c, false, budget)?.outcome,
            SimplexOutcome::Optimal { .. }
        ))
    }
}

/// The sparse standard form of an [`LpProblem`].
pub(crate) struct StandardForm {
    pub(crate) a: SparseMatrix,
    pub(crate) b: Vec<Scalar>,
    pub(crate) c: Vec<Scalar>,
    pub(crate) column_of_var: Vec<(usize, Option<usize>)>,
    /// Which declared rows were re-signed: those with a negative rhs, and
    /// `≥` rows with a zero rhs (their duals flip sign on the way back out).
    pub(crate) negate: Vec<bool>,
}

impl fmt::Display for LpProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sense = match self.sense {
            Sense::Minimize => "minimize",
            Sense::Maximize => "maximize",
        };
        write!(f, "{sense} ")?;
        if self.objective.is_empty() {
            write!(f, "0")?;
        }
        for (i, (var, coeff)) in self.objective.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}*{}", coeff, self.variable_name(*var))?;
        }
        writeln!(f)?;
        for constraint in &self.constraints {
            write!(f, "  s.t. ")?;
            for (i, (var, coeff)) in constraint.coeffs.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{}*{}", coeff, self.variable_name(*var))?;
            }
            let op = match constraint.op {
                ConstraintOp::Le => "<=",
                ConstraintOp::Ge => ">=",
                ConstraintOp::Eq => "=",
            };
            writeln!(f, " {} {}", op, constraint.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::{int, ratio};

    #[test]
    fn maximization_with_slacks() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(3)), (y, int(5))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(4));
        lp.add_constraint(vec![(y, int(2))], ConstraintOp::Le, int(12));
        lp.add_constraint(vec![(x, int(3)), (y, int(2))], ConstraintOp::Le, int(18));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, Some(int(36)));
        assert_eq!(sol[x], int(2));
        assert_eq!(sol[y], int(6));
    }

    #[test]
    fn free_variables() {
        // minimize |style| program: minimize x subject to x >= -5 with x free -> x = -5.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::Free);
        lp.set_objective(vec![(x, int(1))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(-5));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol[x], int(-5));
        assert_eq!(sol.objective, Some(int(-5)));
    }

    #[test]
    fn unbounded_maximization() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(3));
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn equality_constraints_and_fractions() {
        // minimize 2x + 3y s.t. x + y = 1, x - y = 1/3 -> x = 2/3, y = 1/3.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(2)), (y, int(3))]);
        lp.add_constraint(vec![(x, int(1)), (y, int(1))], ConstraintOp::Eq, int(1));
        lp.add_constraint(
            vec![(x, int(1)), (y, int(-1))],
            ConstraintOp::Eq,
            ratio(1, 3),
        );
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol[x], ratio(2, 3));
        assert_eq!(sol[y], ratio(1, 3));
        assert_eq!(sol.objective, Some(ratio(7, 3)));
    }

    #[test]
    fn feasibility_helper() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(2));
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(5));
        assert!(lp.is_feasible());
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(1));
        assert!(!lp.is_feasible());
    }

    #[test]
    fn repeated_variable_coefficients_accumulate() {
        // x + x <= 4 behaves as 2x <= 4.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1))]);
        lp.add_constraint(vec![(x, int(1)), (x, int(1))], ConstraintOp::Le, int(4));
        let sol = lp.solve();
        assert_eq!(sol[x], int(2));
    }

    #[test]
    fn display_renders_model() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(1));
        let text = lp.to_string();
        assert!(text.contains("minimize 1*x"));
        assert!(text.contains(">= 1"));
    }

    #[test]
    fn budget_exhaustion_aborts_without_an_answer() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(3)), (y, int(5))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(4));
        lp.add_constraint(vec![(y, int(2))], ConstraintOp::Le, int(12));
        lp.add_constraint(vec![(x, int(3)), (y, int(2))], ConstraintOp::Le, int(18));
        let spec = BudgetSpec {
            max_pivots: Some(1),
            ..BudgetSpec::UNLIMITED
        };
        let err = lp
            .solve_budgeted(&spec.start())
            .expect_err("one pivot cannot finish this program");
        assert_eq!(err.resource, BudgetResource::Pivots);
        // The same program still solves fine without a budget, and under a
        // generous one the answer is identical.
        let unbudgeted = lp.solve();
        assert_eq!(unbudgeted.objective, Some(int(36)));
        let generous = BudgetSpec {
            max_pivots: Some(1_000_000),
            ..BudgetSpec::UNLIMITED
        };
        let budgeted = lp
            .solve_budgeted(&generous.start())
            .expect("generous budget suffices");
        assert_eq!(budgeted.objective, unbudgeted.objective);
        assert_eq!(budgeted.values, unbudgeted.values);
    }

    #[test]
    fn infeasible_equalities_with_free_vars() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::Free);
        let y = lp.add_variable("y", VarBound::Free);
        lp.add_constraint(vec![(x, int(1)), (y, int(1))], ConstraintOp::Eq, int(1));
        lp.add_constraint(vec![(x, int(1)), (y, int(1))], ConstraintOp::Eq, int(2));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }
}
