//! Cooperative resource budgets for the decision stack.
//!
//! Bag containment sits at the edge of decidability: some instances are
//! pathologically expensive, and a serving deployment must bound the work a
//! single request can consume.  This module is the substrate of that bound —
//! it lives here (rather than in `bqc-core`, which re-exports it) because the
//! budget has to be chargeable from `bqc-lp`'s pivot loop and
//! `bqc-relational`'s homomorphism search, both of which sit *below*
//! `bqc-core` in the crate DAG, and `bqc-obs` is the one zero-dependency crate everything
//! already depends on.
//!
//! A [`BudgetSpec`] is the immutable configuration (a wall-clock deadline
//! plus per-resource work caps); [`BudgetSpec::start`] turns it into a
//! running [`Budget`] for one decision.  Work sites *charge* the budget
//! ([`Budget::charge_pivots`], [`Budget::charge_hom_steps`]) and abort with an [`Exhausted`] error when a
//! cap is hit; control points *check* the deadline
//! ([`Budget::check_deadline`]).  Charging is cheap — relaxed atomics, with
//! the wall clock sampled only every [`DEADLINE_CHECK_PERIOD`] charges — so
//! an enabled-but-unexhausted budget costs a few nanoseconds per charge.
//!
//! ## Soundness contract
//!
//! Exhaustion is a *refusal to keep working*, never an answer: every caller
//! that receives [`Exhausted`] must surface it as an explicit
//! "resource exhausted" outcome (in `bqc-core`,
//! `Obstruction::ResourceExhausted`), must not report a verdict it did not
//! finish computing, and must not persist partial warm state derived from
//! the aborted computation.  The first exhaustion a budget observes is
//! **sticky**: every later charge or check fails immediately with the same
//! [`Exhausted`] value, so deeply nested loops unwind fast.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many charges pass between wall-clock samples.  Deadline overshoot is
/// bounded by this many charge intervals; 64 keeps `Instant::now` off the
/// per-pivot hot path while still bounding a 10 ms deadline to well under a
/// millisecond of overshoot on the workloads the stack runs.
pub const DEADLINE_CHECK_PERIOD: u64 = 64;

/// The resource whose cap was hit first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BudgetResource {
    /// The wall-clock deadline elapsed.
    Deadline,
    /// The simplex pivot cap ([`BudgetSpec::max_pivots`]) was reached.
    Pivots,
    /// The homomorphism-search step cap ([`BudgetSpec::max_hom_steps`]) was
    /// reached.
    HomSteps,
}

impl BudgetResource {
    /// A stable kebab-case token (used in wire responses and notes).
    pub fn token(self) -> &'static str {
        match self {
            BudgetResource::Deadline => "deadline",
            BudgetResource::Pivots => "pivots",
            BudgetResource::HomSteps => "hom-steps",
        }
    }
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Why a budgeted computation stopped early: which resource ran out, how
/// much of it was spent, and what the cap was.  For
/// [`BudgetResource::Deadline`] both fields are in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Exhausted {
    /// The resource whose cap was hit first.
    pub resource: BudgetResource,
    /// How much of the resource was consumed when the cap was hit.
    pub spent: u64,
    /// The configured cap.
    pub limit: u64,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = match self.resource {
            BudgetResource::Deadline => "ms",
            _ => "",
        };
        write!(
            f,
            "{} budget exhausted ({}{unit} spent, limit {}{unit})",
            self.resource, self.spent, self.limit
        )
    }
}

impl std::error::Error for Exhausted {}

/// Immutable budget configuration: a deadline plus per-resource work caps.
/// The default is unlimited (no deadline, no caps); `Default`-constructed
/// specs add **zero** overhead to the decision path because
/// [`BudgetSpec::start`] then returns the no-op [`Budget`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct BudgetSpec {
    /// Wall-clock deadline for one decision, measured from
    /// [`BudgetSpec::start`].
    pub deadline: Option<Duration>,
    /// Cap on simplex pivots across every LP solve of one decision.
    pub max_pivots: Option<u64>,
    /// Cap on homomorphism-search steps (backtracking nodes) of one decision.
    pub max_hom_steps: Option<u64>,
}

impl BudgetSpec {
    /// An explicitly unlimited spec (same as `Default`).
    pub const UNLIMITED: BudgetSpec = BudgetSpec {
        deadline: None,
        max_pivots: None,
        max_hom_steps: None,
    };

    /// `true` when no deadline and no cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_pivots.is_none() && self.max_hom_steps.is_none()
    }

    /// Starts the running [`Budget`] for one decision: the deadline clock
    /// begins now.  An unlimited spec returns the no-op budget.
    pub fn start(&self) -> Budget {
        if self.is_unlimited() {
            return Budget::unlimited();
        }
        Budget {
            inner: Some(Arc::new(BudgetState {
                deadline_at: self.deadline.map(|d| Instant::now() + d),
                deadline_ms: self
                    .deadline
                    .map_or(u64::MAX, |d| d.as_millis().min(u64::MAX as u128) as u64),
                max_pivots: self.max_pivots.unwrap_or(u64::MAX),
                max_hom_steps: self.max_hom_steps.unwrap_or(u64::MAX),
                started: Instant::now(),
                pivots: AtomicU64::new(0),
                hom_steps: AtomicU64::new(0),
                charges: AtomicU64::new(0),
                exhausted: OnceLock::new(),
            })),
        }
    }
}

struct BudgetState {
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    max_pivots: u64,
    max_hom_steps: u64,
    started: Instant,
    pivots: AtomicU64,
    hom_steps: AtomicU64,
    charges: AtomicU64,
    exhausted: OnceLock<Exhausted>,
}

/// The running budget of one decision.  Cheap to clone (an `Arc`); the
/// unlimited budget carries no state at all, so every charge on it is a
/// single `None` test.
#[derive(Clone)]
pub struct Budget {
    inner: Option<Arc<BudgetState>>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Budget(unlimited)"),
            Some(state) => f
                .debug_struct("Budget")
                .field("pivots", &state.pivots.load(Ordering::Relaxed))
                .field("hom_steps", &state.hom_steps.load(Ordering::Relaxed))
                .field("exhausted", &state.exhausted.get())
                .finish(),
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// The no-op budget: never exhausts, charges cost one pointer test.
    pub const fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// `true` when this is the no-op budget.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The first exhaustion this budget observed, if any (sticky).
    pub fn exhaustion(&self) -> Option<Exhausted> {
        self.inner.as_ref().and_then(|s| s.exhausted.get().copied())
    }

    /// Simplex pivots charged so far.
    pub fn pivots_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.pivots.load(Ordering::Relaxed))
    }

    /// Homomorphism-search steps charged so far.
    pub fn hom_steps_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.hom_steps.load(Ordering::Relaxed))
    }

    /// A deterministic-format (but timing-dependent) one-line progress
    /// summary for "how far it got" reporting in traces and logs.
    pub fn progress_note(&self) -> String {
        match &self.inner {
            None => "unlimited budget".to_string(),
            Some(state) => format!(
                "spent pivots={} hom-steps={} elapsed-ms={}",
                state.pivots.load(Ordering::Relaxed),
                state.hom_steps.load(Ordering::Relaxed),
                state.started.elapsed().as_millis()
            ),
        }
    }

    fn fail(state: &BudgetState, exhausted: Exhausted) -> Exhausted {
        // First failure wins and is what every later charge reports.
        *state.exhausted.get_or_init(|| exhausted)
    }

    /// Checks the sticky flag and — every [`DEADLINE_CHECK_PERIOD`] charges —
    /// the wall clock.
    fn tick(state: &BudgetState) -> Result<(), Exhausted> {
        if let Some(&exhausted) = state.exhausted.get() {
            return Err(exhausted);
        }
        let charges = state.charges.fetch_add(1, Ordering::Relaxed);
        if charges % DEADLINE_CHECK_PERIOD == 0 {
            Self::deadline_probe(state)?;
        }
        Ok(())
    }

    fn deadline_probe(state: &BudgetState) -> Result<(), Exhausted> {
        if let Some(at) = state.deadline_at {
            if Instant::now() >= at {
                return Err(Self::fail(
                    state,
                    Exhausted {
                        resource: BudgetResource::Deadline,
                        spent: state.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
                        limit: state.deadline_ms,
                    },
                ));
            }
        }
        Ok(())
    }

    /// Samples the wall clock now (also honors the sticky flag).  Control
    /// points — pipeline stage boundaries, separator scan slices — call this
    /// directly.
    pub fn check_deadline(&self) -> Result<(), Exhausted> {
        let Some(state) = &self.inner else {
            return Ok(());
        };
        if let Some(&exhausted) = state.exhausted.get() {
            return Err(exhausted);
        }
        Self::deadline_probe(state)
    }

    /// Charges `n` simplex pivots.
    pub fn charge_pivots(&self, n: u64) -> Result<(), Exhausted> {
        let Some(state) = &self.inner else {
            return Ok(());
        };
        Self::tick(state)?;
        let spent = state.pivots.fetch_add(n, Ordering::Relaxed) + n;
        if spent > state.max_pivots {
            return Err(Self::fail(
                state,
                Exhausted {
                    resource: BudgetResource::Pivots,
                    spent,
                    limit: state.max_pivots,
                },
            ));
        }
        Ok(())
    }

    /// Charges `n` homomorphism-search steps.
    pub fn charge_hom_steps(&self, n: u64) -> Result<(), Exhausted> {
        let Some(state) = &self.inner else {
            return Ok(());
        };
        Self::tick(state)?;
        let spent = state.hom_steps.fetch_add(n, Ordering::Relaxed) + n;
        if spent > state.max_hom_steps {
            return Err(Self::fail(
                state,
                Exhausted {
                    resource: BudgetResource::HomSteps,
                    spent,
                    limit: state.max_hom_steps,
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let budget = BudgetSpec::default().start();
        assert!(budget.is_unlimited());
        for _ in 0..10_000 {
            budget.charge_pivots(1).unwrap();
            budget.charge_hom_steps(100).unwrap();
        }
        budget.check_deadline().unwrap();
        assert!(budget.exhaustion().is_none());
    }

    #[test]
    fn pivot_cap_is_enforced_and_sticky() {
        let spec = BudgetSpec {
            max_pivots: Some(10),
            ..BudgetSpec::default()
        };
        let budget = spec.start();
        for _ in 0..10 {
            budget.charge_pivots(1).unwrap();
        }
        let err = budget.charge_pivots(1).unwrap_err();
        assert_eq!(err.resource, BudgetResource::Pivots);
        assert_eq!(err.limit, 10);
        assert!(err.spent > 10);
        // Sticky: unrelated charges now fail with the same exhaustion.
        let again = budget.charge_hom_steps(1).unwrap_err();
        assert_eq!(again, err);
        assert_eq!(budget.exhaustion(), Some(err));
    }

    #[test]
    fn elapsed_deadline_fails_checks() {
        let spec = BudgetSpec {
            deadline: Some(Duration::from_millis(0)),
            ..BudgetSpec::default()
        };
        let budget = spec.start();
        std::thread::sleep(Duration::from_millis(2));
        let err = budget.check_deadline().unwrap_err();
        assert_eq!(err.resource, BudgetResource::Deadline);
        assert_eq!(err.limit, 0);
        // Charges observe it too (sticky short-circuit).
        assert!(budget.charge_pivots(1).is_err());
    }

    #[test]
    fn deadline_is_sampled_periodically_during_charges() {
        let spec = BudgetSpec {
            deadline: Some(Duration::from_millis(1)),
            ..BudgetSpec::default()
        };
        let budget = spec.start();
        std::thread::sleep(Duration::from_millis(3));
        // Within DEADLINE_CHECK_PERIOD charges the clock must be sampled.
        let mut failed = false;
        for _ in 0..=DEADLINE_CHECK_PERIOD {
            if budget.charge_hom_steps(1).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline never observed across a full period");
    }

    #[test]
    fn progress_note_reports_spend() {
        let spec = BudgetSpec {
            max_pivots: Some(100),
            ..BudgetSpec::default()
        };
        let budget = spec.start();
        budget.charge_pivots(7).unwrap();
        budget.charge_hom_steps(3).unwrap();
        let note = budget.progress_note();
        assert!(note.contains("pivots=7"), "{note}");
        assert!(note.contains("hom-steps=3"), "{note}");
        assert_eq!(budget.pivots_spent(), 7);
        assert_eq!(budget.hom_steps_spent(), 3);
    }

    #[test]
    fn display_forms_are_stable() {
        let err = Exhausted {
            resource: BudgetResource::Deadline,
            spent: 11,
            limit: 10,
        };
        assert_eq!(
            err.to_string(),
            "deadline budget exhausted (11ms spent, limit 10ms)"
        );
        assert_eq!(BudgetResource::HomSteps.token(), "hom-steps");
    }
}
