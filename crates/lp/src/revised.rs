//! Sparse revised simplex with a product-form basis inverse.
//!
//! This is the production solver behind [`crate::LpProblem`].  Compared with
//! the dense tableau retained in [`crate::oracle`], it
//!
//! * stores `A` column-major and sparse ([`crate::sparse::SparseMatrix`]) —
//!   the Shannon-cone elemental matrix is >95% structural zeros;
//! * represents the basis inverse as an **eta file** (product form): a
//!   factorization of the basis followed by one sparse Gauss–Jordan update
//!   eta per pivot; after 64 update etas since the last factorization the
//!   current basis is refactorized (re-inverted) from scratch;
//! * prices with **Dantzig's rule over a rotating candidate window** (partial
//!   pricing) and falls back to **Bland's rule** after a run of degenerate
//!   pivots, which restores the termination guarantee without paying Bland's
//!   slow convergence on every iteration;
//! * performs all arithmetic in [`crate::scalar::Scalar`], the `i64`-pair
//!   small-rational representation that promotes to `Rational` only on
//!   overflow — integer operands (the overwhelming majority here) take
//!   checked `i64` arithmetic with no gcd, and nothing allocates.
//!
//! Phase 1 uses a **crash basis**: every row that owns a singleton column
//! with a feasible ratio (in particular every inequality row with zero
//! right-hand side, i.e. almost every elemental-inequality row) starts basic
//! on that column, and only the remaining rows get artificial variables.  On
//! the cone programs this leaves a handful of artificials instead of one per
//! row.  The standard form re-signs every zero-rhs `≥` row, so those
//! columns are `+1` slacks and the crash basis is mostly the identity: its
//! factorization is built in O(m) and keeps an eta only for the entries
//! other than `+1` — none at all on the cone programs — so FTRAN and BTRAN
//! pay nothing for it until the first refactorization.  Row scaling by ±1
//! leaves `B⁻¹A`, the reduced costs and the ratio test unchanged, so the
//! pivots are those of the unscaled program.

use crate::scalar::Scalar;
use crate::sparse::SparseMatrix;
use bqc_arith::Rational;
use bqc_obs::{Budget, Exhausted, LazyCounter, LazyHistogram};

static PIVOTS: LazyCounter = LazyCounter::new("bqc_lp_pivots_total");
static DEGENERATE_PIVOTS: LazyCounter = LazyCounter::new("bqc_lp_degenerate_pivots_total");
static REINVERSIONS: LazyCounter = LazyCounter::new("bqc_lp_reinversions_total");
static BLAND_FALLBACKS: LazyCounter = LazyCounter::new("bqc_lp_bland_fallbacks_total");
static SOLVES: LazyCounter = LazyCounter::new("bqc_lp_solves_total");
static PIVOTS_PER_SOLVE: LazyHistogram = LazyHistogram::new("bqc_lp_pivots_per_solve");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("bqc_lp_budget_exhausted_total");

/// Result of running the simplex method on a standard-form program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// An optimal basic feasible solution was found.
    Optimal {
        /// Optimal objective value `c·x`.
        objective: Rational,
        /// Values of the standard-form variables (length = number of columns).
        solution: Vec<Rational>,
    },
    /// The constraint system `A x = b, x ≥ 0` has no solution.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// Outcome of [`solve_sparse_full`], carrying the optimal dual vector.
#[derive(Clone, Debug)]
pub(crate) struct SparseSolve {
    /// The classification and optimal point, as for the dense solver.
    pub outcome: SimplexOutcome,
    /// The optimal dual vector `y = c_B B⁻¹` (one multiplier per row), when
    /// the solve ended `Optimal`.  By strong duality `y·b` equals the
    /// optimal objective, and every column prices out non-negative; callers
    /// use this for Farkas-style certificate extraction.
    pub duals: Option<Vec<Rational>>,
}

/// Number of update etas (pivots) appended since the last factorization
/// before the basis is refactorized.  The factorization's own etas (one per
/// basis row) do not count towards it.
const REFACTOR_EVERY: usize = 64;

/// Consecutive degenerate pivots tolerated before switching to Bland's rule.
fn stall_limit(m: usize) -> usize {
    2 * m + 16
}

/// One Gauss–Jordan elementary matrix: identity except column `p`.
struct Eta {
    p: usize,
    /// Sparse column `p` of the matrix, **including** the diagonal entry
    /// `(p, 1/alpha_p)`.
    col: Vec<(usize, Scalar)>,
}

impl Eta {
    /// Builds the eta that maps the (dense) column `alpha` to `e_p`.
    fn from_pivot(alpha: &[Scalar], p: usize) -> Eta {
        let inv = alpha[p].recip();
        let mut col = Vec::with_capacity(8);
        for (i, value) in alpha.iter().enumerate() {
            if i == p {
                col.push((i, inv.clone()));
            } else if !value.is_zero() {
                col.push((i, value.mul(&inv).neg()));
            }
        }
        Eta { p, col }
    }

    /// `true` iff the eta is the identity (it came from a pivot on a `+1`
    /// unit column), so applying it is a no-op.
    fn is_identity(&self) -> bool {
        matches!(self.col.as_slice(), [(_, Scalar::ONE)])
    }
}

/// Applies etas left-to-right: computes `E_k ⋯ E_1 v` in place.
fn ftran(etas: &[Eta], v: &mut [Scalar]) {
    for eta in etas {
        let vp = std::mem::take(&mut v[eta.p]);
        if vp.is_zero() {
            continue;
        }
        for (i, t) in &eta.col {
            v[*i] = v[*i].add_mul(t, &vp);
        }
    }
}

/// Applies etas right-to-left to a row vector: computes `u E_k ⋯ E_1` in
/// place.
fn btran(etas: &[Eta], u: &mut [Scalar]) {
    for eta in etas.iter().rev() {
        let mut acc = Scalar::ZERO;
        for (i, t) in &eta.col {
            if !u[*i].is_zero() {
                acc = acc.add_mul(&u[*i], t);
            }
        }
        u[eta.p] = acc;
    }
}

/// The product-form basis inverse `B⁻¹ = U_k ⋯ U_1 F_m ⋯ F_1`: the etas of
/// the last factorization, then one update eta per pivot since.  Keeping the
/// two apart makes the refactorization trigger a count of pivots by
/// construction, whatever the basis size.
#[derive(Default)]
struct EtaFile {
    factor: Vec<Eta>,
    updates: Vec<Eta>,
}

impl EtaFile {
    /// Computes `B⁻¹ v` in place.
    fn ftran(&self, v: &mut [Scalar]) {
        ftran(&self.factor, v);
        ftran(&self.updates, v);
    }

    /// Computes `u B⁻¹` in place.
    fn btran(&self, u: &mut [Scalar]) {
        btran(&self.updates, u);
        btran(&self.factor, u);
    }
}

/// Which objective the iteration loop is optimizing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Minimize the sum of artificial variables.
    One,
    /// Minimize the true cost vector.
    Two,
}

struct Solver<'a> {
    a: &'a SparseMatrix,
    b: &'a [Scalar],
    c: &'a [Scalar],
    m: usize,
    /// Structural + slack columns; `n..n + m` are virtual artificial columns.
    n: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Basic variable values, indexed by row.
    x: Vec<Scalar>,
    etas: EtaFile,
    /// Rotating start of the partial-pricing window.
    pricing_start: usize,
    /// Consecutive degenerate pivots; triggers the Bland fallback.
    stalls: usize,
    bland: bool,
    /// Pivots executed by this solve, observed into the per-solve histogram.
    pivots: u64,
    /// The decision's resource budget, charged one pivot at a time.  The
    /// unlimited budget makes every charge a single pointer test, so the
    /// unbudgeted hot path is unchanged.
    budget: &'a Budget,
}

impl<'a> Solver<'a> {
    /// The starting point of every solve, the crash basis: each row takes
    /// a singleton column when its ratio is feasible (the `+1` slack of
    /// every zero-rhs inequality row in particular), and an artificial
    /// otherwise.  The basis is diagonal, so factorizing it costs O(m) and
    /// leaves an eta only for each entry other than `+1`.
    fn crash(
        a: &'a SparseMatrix,
        b: &'a [Scalar],
        c: &'a [Scalar],
        budget: &'a Budget,
    ) -> Solver<'a> {
        let m = a.num_rows();
        let n = a.num_cols();
        let mut basis: Vec<usize> = (0..m).map(|i| n + i).collect();
        let mut x: Vec<Scalar> = b.to_vec();
        let mut taken = vec![false; m];
        for j in 0..n {
            if let [(i, value)] = a.col(j) {
                if !taken[*i] && (b[*i].is_zero() || value.is_positive()) {
                    taken[*i] = true;
                    basis[*i] = j;
                    x[*i] = b[*i].div(value);
                }
            }
        }
        let mut in_basis = vec![false; n + m];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut solver = Solver {
            a,
            b,
            c,
            m,
            n,
            basis: Vec::new(),
            in_basis,
            x,
            etas: EtaFile::default(),
            pricing_start: 0,
            stalls: 0,
            bland: false,
            pivots: 0,
            budget,
        };
        solver.factorize(&basis);
        solver
    }

    /// Scatters column `j` (real or virtual artificial) into `out`, which
    /// must be all-zero.
    fn scatter(&self, j: usize, out: &mut [Scalar]) {
        if j < self.n {
            self.a.scatter_col(j, out);
        } else {
            out[j - self.n] = Scalar::ONE;
        }
    }

    /// Sparse entry count of column `j`.
    fn col_len(&self, j: usize) -> usize {
        if j < self.n {
            self.a.col(j).len()
        } else {
            1
        }
    }

    /// The single entry of column `j`, if it has exactly one.
    fn singleton(&self, j: usize) -> Option<(usize, &Scalar)> {
        if j >= self.n {
            return Some((j - self.n, &Scalar::ONE));
        }
        match self.a.col(j) {
            [(i, value)] => Some((*i, value)),
            _ => None,
        }
    }

    /// Re-inverts the basis `cols` from scratch, producing a fresh eta file
    /// and the pivot row assigned to each basis slot.  Pivots on `+1` unit
    /// columns leave no eta: the identity need not be applied.
    ///
    /// # Panics
    ///
    /// Panics when the columns are linearly dependent, which no basis the
    /// solver builds (the diagonal crash basis, or one reached by pivoting)
    /// can be.
    fn reinvert(&self, cols: &[usize]) -> (Vec<Eta>, Vec<usize>) {
        let m = self.m;
        debug_assert_eq!(cols.len(), m);
        // A basis of singleton columns (the crash basis) is a permuted
        // diagonal, inverted in O(m): each column pivots on its own row and
        // leaves the eta `1/value` there.  The general loop below reaches
        // the same etas and rows in O(m²).
        if let Some(entries) = cols
            .iter()
            .map(|&j| self.singleton(j))
            .collect::<Option<Vec<_>>>()
        {
            let etas = entries
                .iter()
                .filter(|&&(_, value)| *value != Scalar::ONE)
                .map(|&(i, value)| Eta {
                    p: i,
                    col: vec![(i, value.recip())],
                })
                .collect();
            let row_of_slot: Vec<usize> = entries.iter().map(|&(i, _)| i).collect();
            debug_assert!(
                {
                    let mut rows = row_of_slot.clone();
                    rows.sort_unstable();
                    rows.windows(2).all(|w| w[0] < w[1])
                },
                "a basis the solver builds is nonsingular"
            );
            return (etas, row_of_slot);
        }
        // Process sparsest columns first: their etas stay small and unit
        // pivots are found early.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&slot| self.col_len(cols[slot]));

        let mut etas: Vec<Eta> = Vec::with_capacity(m);
        let mut pivoted = vec![false; m];
        let mut row_of_slot = vec![usize::MAX; m];
        let mut work = vec![Scalar::ZERO; m];
        for &slot in &order {
            self.scatter(cols[slot], &mut work);
            ftran(&etas, &mut work);
            // Prefer a unit pivot (no fraction growth), then any nonzero.
            let mut pivot = None;
            for (i, value) in work.iter().enumerate() {
                if pivoted[i] || value.is_zero() {
                    continue;
                }
                if value.is_unit() {
                    pivot = Some(i);
                    break;
                }
                if pivot.is_none() {
                    pivot = Some(i);
                }
            }
            let p = pivot.expect("a basis the solver builds is nonsingular");
            let eta = Eta::from_pivot(&work, p);
            if !eta.is_identity() {
                etas.push(eta);
            }
            pivoted[p] = true;
            row_of_slot[slot] = p;
            work.iter_mut().for_each(|v| *v = Scalar::ZERO);
        }
        (etas, row_of_slot)
    }

    /// Replaces the eta file by a fresh factorization of the basis `cols`
    /// (no update etas) and places each column on its pivot row.
    fn factorize(&mut self, cols: &[usize]) {
        let (factor, row_of_slot) = self.reinvert(cols);
        self.etas = EtaFile {
            factor,
            updates: Vec::new(),
        };
        let mut basis = vec![0; self.m];
        for (slot, &row) in row_of_slot.iter().enumerate() {
            basis[row] = cols[slot];
        }
        self.basis = basis;
    }

    /// Refactorizes the current basis and recomputes the basic values from
    /// `b`.
    fn refactorize(&mut self) {
        REINVERSIONS.inc();
        bqc_obs::instant("reinversion");
        let cols = self.basis.clone();
        self.factorize(&cols);
        self.recompute_x();
    }

    /// Sets `x = B⁻¹ b`.
    fn recompute_x(&mut self) {
        let mut v = self.b.to_vec();
        self.etas.ftran(&mut v);
        self.x = v;
    }

    /// Cost of column `j` under `phase`.
    fn cost(&self, phase: Phase, j: usize) -> Scalar {
        match phase {
            Phase::One => {
                if j >= self.n {
                    Scalar::ONE
                } else {
                    Scalar::ZERO
                }
            }
            // Artificial columns still basic in phase 2 sit at value zero on
            // redundant rows; their cost contribution is zero.
            Phase::Two => {
                if j >= self.n {
                    Scalar::ZERO
                } else {
                    self.c[j].clone()
                }
            }
        }
    }

    /// The dual vector `y = c_B B⁻¹` for `phase`.  Returns `None` when
    /// `c_B = 0` (then every reduced cost is just `c_j`).
    fn duals(&self, phase: Phase) -> Option<Vec<Scalar>> {
        let mut u: Vec<Scalar> = (0..self.m)
            .map(|i| self.cost(phase, self.basis[i]))
            .collect();
        if u.iter().all(Scalar::is_zero) {
            return None;
        }
        self.etas.btran(&mut u);
        Some(u)
    }

    /// Reduced cost of nonbasic column `j`.
    fn reduced_cost(&self, phase: Phase, y: Option<&[Scalar]>, j: usize) -> Scalar {
        let mut d = self.cost(phase, j);
        if let Some(y) = y {
            for (i, value) in self.a.col(j) {
                if !y[*i].is_zero() {
                    d = d.sub_mul(&y[*i], value);
                }
            }
        }
        d
    }

    /// Picks the entering column, or `None` at optimality.
    ///
    /// In Bland mode this is the smallest-index column with a negative
    /// reduced cost.  Otherwise a rotating window of candidates is scanned
    /// and the most negative reduced cost in the first non-empty window wins
    /// (Dantzig with partial pricing); the scan keeps sliding until the whole
    /// column range has been covered, so optimality claims are exact.
    fn price(&mut self, phase: Phase, y: Option<&[Scalar]>) -> Option<usize> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        if self.bland {
            return (0..n)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(phase, y, j).is_negative());
        }
        let window = (n / 8).clamp(32, 256);
        let mut scanned = 0;
        let mut cursor = self.pricing_start % n;
        while scanned < n {
            let mut best: Option<(usize, Scalar)> = None;
            let mut in_window = 0;
            while in_window < window && scanned < n {
                let j = cursor;
                cursor = (cursor + 1) % n;
                scanned += 1;
                in_window += 1;
                if self.in_basis[j] {
                    continue;
                }
                let d = self.reduced_cost(phase, y, j);
                if d.is_negative() {
                    let better = match &best {
                        None => true,
                        Some((_, bd)) => d.cmp_value(bd) == std::cmp::Ordering::Less,
                    };
                    if better {
                        best = Some((j, d));
                    }
                }
            }
            if let Some((j, _)) = best {
                self.pricing_start = cursor;
                return Some(j);
            }
        }
        None
    }

    /// The ratio test: picks the leaving row for entering column `alpha`.
    ///
    /// Ties are always broken by the smallest basic-variable index, which is
    /// exactly Bland's leaving rule, so the Bland fallback only has to change
    /// the entering rule.  In phase 2, any row still basic on an artificial
    /// variable blocks at ratio zero whenever `alpha` touches it (either
    /// sign): the artificial sits at value zero and must never move off it.
    fn leaving_row(&self, phase: Phase, alpha: &[Scalar]) -> Option<usize> {
        let mut best: Option<(usize, Scalar)> = None;
        for (i, coeff) in alpha.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            let artificial_block = phase == Phase::Two && self.basis[i] >= self.n;
            if !artificial_block && !coeff.is_positive() {
                continue;
            }
            let ratio = if artificial_block {
                debug_assert!(self.x[i].is_zero());
                Scalar::ZERO
            } else {
                self.x[i].div(coeff)
            };
            let better = match &best {
                None => true,
                Some((row, best_ratio)) => match ratio.cmp_value(best_ratio) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => self.basis[i] < self.basis[*row],
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                best = Some((i, ratio));
            }
        }
        best.map(|(row, _)| row)
    }

    /// Executes the pivot `(p, q)` with FTRANed entering column `alpha`.
    ///
    /// Charges the decision budget first: an exhausted budget aborts the
    /// solve *before* the basis mutates, so the pivot cap is strict.
    fn pivot(&mut self, p: usize, q: usize, alpha: &[Scalar]) -> Result<(), Exhausted> {
        if let Err(e) = self.budget.charge_pivots(1) {
            BUDGET_EXHAUSTED.inc();
            return Err(e);
        }
        self.pivots += 1;
        PIVOTS.inc();
        bqc_obs::instant("pivot");
        let t = self.x[p].div(&alpha[p]);
        if t.is_zero() {
            DEGENERATE_PIVOTS.inc();
            self.stalls += 1;
            if !self.bland && self.stalls > stall_limit(self.m) {
                self.bland = true;
                BLAND_FALLBACKS.inc();
                bqc_obs::instant("bland-fallback");
            }
        } else {
            self.stalls = 0;
            self.bland = false;
            for (i, coeff) in alpha.iter().enumerate() {
                if i != p && !coeff.is_zero() {
                    self.x[i] = self.x[i].sub_mul(coeff, &t);
                }
            }
        }
        self.x[p] = t;
        self.in_basis[self.basis[p]] = false;
        self.in_basis[q] = true;
        self.basis[p] = q;
        self.etas.updates.push(Eta::from_pivot(alpha, p));
        if self.etas.updates.len() >= REFACTOR_EVERY {
            self.refactorize();
        }
        Ok(())
    }

    /// Runs simplex iterations for `phase` until optimality or unboundedness.
    /// Returns `Ok(false)` on unboundedness (impossible in phase 1) and
    /// `Err` when the decision budget runs out mid-solve.
    fn optimize(&mut self, phase: Phase) -> Result<bool, Exhausted> {
        let mut work = vec![Scalar::ZERO; self.m];
        loop {
            let y = self.duals(phase);
            let Some(q) = self.price(phase, y.as_deref()) else {
                return Ok(true);
            };
            work.iter_mut().for_each(|v| *v = Scalar::ZERO);
            self.scatter(q, &mut work);
            self.etas.ftran(&mut work);
            let Some(p) = self.leaving_row(phase, &work) else {
                debug_assert!(phase == Phase::Two, "phase 1 is bounded below by 0");
                return Ok(false);
            };
            self.pivot(p, q, &work)?;
        }
    }

    /// Sum of the artificial basic values (the phase-1 objective).
    fn infeasibility(&self) -> Scalar {
        let mut total = Scalar::ZERO;
        for i in 0..self.m {
            if self.basis[i] >= self.n {
                total = total.add(&self.x[i]);
            }
        }
        total
    }

    /// After phase 1 ends at objective zero, pivots every artificial that is
    /// still basic (at value zero) out of the basis wherever some structural
    /// column can replace it; rows whose entire structural part is zero are
    /// redundant and keep their artificial harmlessly pinned at zero.
    ///
    /// The scan repeats until a full pass makes no pivot: a pivot can trigger
    /// a refactorization, which re-permutes basis rows and may move a not-yet
    /// -processed artificial to a row the pass already visited.  Each pivot
    /// removes one artificial for good (they are never priced back in), so
    /// the outer loop terminates after at most `m + 1` passes.
    fn drive_out_artificials(&mut self) -> Result<(), Exhausted> {
        let mut work = vec![Scalar::ZERO; self.m];
        loop {
            let mut pivoted = false;
            for p in 0..self.m {
                if self.basis[p] < self.n {
                    continue;
                }
                // Row p of B⁻¹A: r = e_p B⁻¹, then r · a_j per column.
                let mut r = vec![Scalar::ZERO; self.m];
                r[p] = Scalar::ONE;
                self.etas.btran(&mut r);
                let entering = (0..self.n).find(|&j| {
                    if self.in_basis[j] {
                        return false;
                    }
                    let mut dot = Scalar::ZERO;
                    for (i, value) in self.a.col(j) {
                        if !r[*i].is_zero() {
                            dot = dot.add_mul(&r[*i], value);
                        }
                    }
                    !dot.is_zero()
                });
                let Some(q) = entering else {
                    continue;
                };
                pivoted = true;
                work.iter_mut().for_each(|v| *v = Scalar::ZERO);
                self.scatter(q, &mut work);
                self.etas.ftran(&mut work);
                debug_assert!(!work[p].is_zero());
                self.pivot(p, q, &work)?;
            }
            if !pivoted {
                break;
            }
        }
        Ok(())
    }

    /// Extracts the optimal outcome after a phase-2 optimum.  Dual
    /// extraction (one BTRAN over the eta file plus a `Rational` conversion
    /// per row) is skipped unless asked for — most callers are feasibility
    /// probes that never look at multipliers.
    fn extract(&self, want_duals: bool) -> SparseSolve {
        PIVOTS_PER_SOLVE.observe(self.pivots);
        let mut solution = vec![Rational::zero(); self.n];
        let mut objective = Rational::zero();
        for i in 0..self.m {
            let j = self.basis[i];
            if j < self.n {
                objective += self.c[j].mul(&self.x[i]).to_rational();
                solution[j] = self.x[i].to_rational();
            } else {
                debug_assert!(self.x[i].is_zero());
            }
        }
        let duals = want_duals.then(|| {
            self.duals(Phase::Two)
                .unwrap_or_else(|| vec![Scalar::ZERO; self.m])
                .into_iter()
                .map(|y| y.to_rational())
                .collect()
        });
        SparseSolve {
            outcome: SimplexOutcome::Optimal {
                objective,
                solution,
            },
            duals,
        }
    }
}

/// Solves `minimize c·x  s.t.  A x = b, x ≥ 0` with `A` sparse and `b ≥ 0`,
/// cold from the crash basis, optionally extracting the optimal duals.
/// `Err` means the decision `budget` ran out mid-solve; no partial result
/// escapes.
pub(crate) fn solve_sparse_full(
    a: &SparseMatrix,
    b: &[Scalar],
    c: &[Scalar],
    want_duals: bool,
    budget: &Budget,
) -> Result<SparseSolve, Exhausted> {
    let m = a.num_rows();
    let n = a.num_cols();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    assert_eq!(c.len(), n, "cost length must equal the number of columns");
    debug_assert!(b.iter().all(|v| !v.is_negative()), "rhs must be re-signed");

    SOLVES.inc();
    let _solve_span = bqc_obs::span("lp-solve");

    let mut solver = Solver::crash(a, b, c, budget);

    // Phase 1, skipped when the crash start is already feasible.
    if !solver.infeasibility().is_zero() {
        let bounded = solver.optimize(Phase::One)?;
        debug_assert!(bounded, "phase 1 objective is bounded below by 0");
        if solver.infeasibility().is_positive() {
            PIVOTS_PER_SOLVE.observe(solver.pivots);
            return Ok(SparseSolve {
                outcome: SimplexOutcome::Infeasible,
                duals: None,
            });
        }
    }
    solver.drive_out_artificials()?;
    solver.stalls = 0;
    solver.bland = false;

    if !solver.optimize(Phase::Two)? {
        PIVOTS_PER_SOLVE.observe(solver.pivots);
        return Ok(SparseSolve {
            outcome: SimplexOutcome::Unbounded,
            duals: None,
        });
    }
    Ok(solver.extract(want_duals))
}

/// Solves the standard-form program `minimize c·x subject to A x = b, x ≥ 0`.
///
/// * `a` is a dense `m × n` coefficient matrix (each inner vector a row).
/// * `b` is the right-hand side of length `m` (any sign; rows are re-signed
///   internally).
/// * `c` is the objective vector of length `n`.
///
/// This converts the input to sparse column-major form and runs the revised
/// simplex; it exists for API compatibility and for callers whose data is
/// genuinely dense.  [`crate::LpProblem`] builds the sparse form directly.
///
/// # Panics
///
/// Panics if the dimensions of `a`, `b` and `c` are inconsistent.
pub fn solve_standard_form(a: &[Vec<Rational>], b: &[Rational], c: &[Rational]) -> SimplexOutcome {
    let m = a.len();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    let n = c.len();
    for (i, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n, "row {i} has wrong length");
    }
    let negate: Vec<bool> = b.iter().map(Rational::is_negative).collect();
    let mut sparse = SparseMatrix::new(m);
    for j in 0..n {
        sparse.push_col(a.iter().enumerate().filter_map(|(i, row)| {
            if row[j].is_zero() {
                None
            } else {
                let v = if negate[i] { -&row[j] } else { row[j].clone() };
                Some((i, Scalar::from_rational(v)))
            }
        }));
    }
    let b: Vec<Scalar> = b
        .iter()
        .zip(&negate)
        .map(|(v, flip)| Scalar::from_rational(if *flip { -v } else { v.clone() }))
        .collect();
    let c: Vec<Scalar> = c.iter().map(|v| Scalar::from_rational(v.clone())).collect();
    solve_sparse_full(&sparse, &b, &c, false, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
        .outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LpProblem;
    use bqc_arith::{int, ratio};

    fn r(v: i64) -> Rational {
        int(v)
    }

    #[test]
    fn simple_equality_program() {
        // minimize x + y  s.t.  x + y = 2, x - y = 0, x, y >= 0 -> x = y = 1.
        let a = vec![vec![r(1), r(1)], vec![r(1), r(-1)]];
        let b = vec![r(2), r(0)];
        let c = vec![r(1), r(1)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(2));
                assert_eq!(solution, vec![r(1), r(1)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        let a = vec![vec![r(1)], vec![r(1)]];
        let b = vec![r(1), r(2)];
        let c = vec![r(0)];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let a = vec![vec![r(1), r(-1)]];
        let b = vec![r(0)];
        let c = vec![r(-1), r(0)];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        let a = vec![vec![r(-1)]];
        let b = vec![r(-3)];
        let c = vec![r(1)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(3));
                assert_eq!(solution, vec![r(3)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        let a = vec![vec![r(1), r(1)], vec![r(1), r(1)]];
        let b = vec![r(1), r(1)];
        let c = vec![r(0), r(1)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(0));
                assert_eq!(&solution[0] + &solution[1], r(1));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fractional_optimum() {
        let a = vec![vec![r(1), r(3)], vec![r(3), r(1)]];
        let b = vec![r(2), r(2)];
        let c = vec![r(1), r(0)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(solution, vec![ratio(1, 2), ratio(1, 2)]);
                assert_eq!(objective, ratio(1, 2));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// The `Γ_4` cone program as the prover states it: one column per
    /// non-empty subset, every elemental inequality as a `≥ 0` row, and
    /// one disjunct row `I(1;2) ≤ −1`.
    fn gamma4_cone_program() -> LpProblem {
        use crate::{ConstraintOp, Sense, VarBound};
        let n = 4;
        let full = (1usize << n) - 1;
        let mut lp = LpProblem::new(Sense::Minimize);
        let h: Vec<_> = (0..=full)
            .map(|_| lp.add_variable_anonymous(VarBound::NonNegative))
            .collect();
        // h(∅) = 0 has no column: drop its terms.
        let row = |terms: &[(usize, i64)]| -> Vec<(crate::VarId, i64)> {
            terms
                .iter()
                .filter(|(mask, _)| *mask != 0)
                .map(|&(mask, coeff)| (h[mask], coeff))
                .collect()
        };
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(row(&[(full, 1), (full & !(1 << i), -1)]));
        }
        for i in 0..n {
            for j in i + 1..n {
                let rest = full & !(1 << i) & !(1 << j);
                for k in (0..=rest).filter(|k| k & !rest == 0) {
                    let (ik, jk, ijk) = (k | 1 << i, k | 1 << j, k | 1 << i | 1 << j);
                    rows.push(row(&[(ik, 1), (jk, 1), (ijk, -1), (k, -1)]));
                }
            }
        }
        assert_eq!(rows.len(), 4 + 6 * 4, "Γ_4 has 28 elemental inequalities");
        for terms in rows {
            lp.add_constraint_small(terms, ConstraintOp::Ge, 0);
        }
        lp.add_constraint_small(row(&[(1, 1), (2, 1), (3, -1)]), ConstraintOp::Le, -1);
        lp
    }

    #[test]
    fn gamma4_crash_basis_needs_no_factor_etas() {
        let lp = gamma4_cone_program();
        let sf = lp.standard_form(false);
        let budget = Budget::unlimited();
        let solver = Solver::crash(&sf.a, &sf.b, &sf.c, &budget);
        // Every elemental row starts on its `+1` slack, the disjunct row
        // on an artificial: an identity basis.
        let artificials = solver.basis.iter().filter(|&&j| j >= solver.n).count();
        assert_eq!(artificials, 1);
        assert!(solver.etas.factor.is_empty(), "identity columns left etas");
        // I(1;2) ≥ 0 holds on Γ_4, so the program is infeasible.
        assert!(!lp.is_feasible());
    }

    #[test]
    fn non_unit_crash_columns_keep_their_diagonal_eta() {
        use crate::{ConstraintOp, Sense, VarBound};
        // `2x = 4` crashes onto the singleton column x (coefficient 2),
        // `y ≤ 0` onto the `+1` singleton column y.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.add_constraint_small([(x, 2)], ConstraintOp::Eq, 4);
        lp.add_constraint_small([(y, 1)], ConstraintOp::Le, 0);
        let sf = lp.standard_form(false);
        let budget = Budget::unlimited();
        let solver = Solver::crash(&sf.a, &sf.b, &sf.c, &budget);
        assert_eq!(solver.basis, vec![0, 1]);
        let factor: Vec<_> = solver
            .etas
            .factor
            .iter()
            .map(|eta| (eta.p, eta.col.clone()))
            .collect();
        assert_eq!(
            factor,
            vec![(0, vec![(0, Scalar::from_rational(ratio(1, 2)))])]
        );
        assert_eq!(solver.x, vec![Scalar::from_int(2), Scalar::ZERO]);
        assert_eq!(lp.solve()[x], r(2));
    }

    #[test]
    fn beales_cycling_example_terminates() {
        let a = vec![
            vec![ratio(1, 4), r(-60), ratio(-1, 25), r(9), r(1), r(0), r(0)],
            vec![ratio(1, 2), r(-90), ratio(-1, 50), r(3), r(0), r(1), r(0)],
            vec![r(0), r(0), r(1), r(0), r(0), r(0), r(1)],
        ];
        let b = vec![r(0), r(0), r(1)];
        let c = vec![ratio(-3, 4), r(150), ratio(-1, 50), r(6), r(0), r(0), r(0)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal { objective, .. } => {
                assert_eq!(objective, ratio(-1, 20));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
