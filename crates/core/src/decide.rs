//! The decision procedure for bag-set containment (Theorem 3.1).
//!
//! Given `Q1` and `Q2`, [`decide_containment`] answers `Q1 ⊑ Q2` by running
//! the staged pipeline of [`crate::pipeline`] — a cost-ordered cascade of
//! cheap structural screens (Boolean reduction, syntactic identity,
//! hom-existence, junction tree, the counting refuter) in front of the one
//! expensive Shannon-cone LP and, on refutation, witness materialization.
//! [`decide_containment_traced`] returns the same answer together with the
//! per-stage [`DecisionTrace`](crate::pipeline::DecisionTrace); the plain
//! entry points discard the trace.
//!
//! Every entry point is a free function with no state carried between
//! calls: the Shannon-cone LP is [`bqc_iip::check_max_inequality_budgeted`],
//! one cold solve of the full elemental cone per probe, so no answer
//! depends on what was decided before it.
//!
//! The possible answers are unchanged from the paper's procedure:
//!
//! * **Contained** — the Eq. (8) inequality is Shannon-valid (Theorem 4.2;
//!   sound for *every* `Q2`, chordal or not), or the queries are
//!   syntactically identical;
//! * **NotContained** — `hom(Q2, Q1) = ∅`, or the counting refuter found a
//!   separating database (Fact 3.2), or the instance is in the decidable
//!   class and the inequality failed (Theorem 3.1 / Lemma E.1), with a
//!   verified witness materialized when the budget allows;
//! * **Unknown** — the inequality failed but `Q2` is outside the decidable
//!   class; the violating polymatroid is returned alongside the obstruction —
//!   whether such instances are decidable at all is exactly the open problem
//!   the paper connects to Max-IIP (Theorem 2.7).

use crate::pipeline::{Decision, DecisionPipeline};
use crate::witness::NonContainmentWitness;
use bqc_entropy::SetFunction;
use bqc_iip::MaxInequality;
use bqc_obs::{BudgetResource, BudgetSpec};
use bqc_relational::ConjunctiveQuery;
use std::sync::OnceLock;

/// Why the decision procedure could not reach a yes/no answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Obstruction {
    /// `Q2`'s Gaifman graph is not chordal, so no junction tree exists.
    NotChordal,
    /// `Q2` is chordal but its junction tree is not simple, so Theorem 3.6
    /// does not apply and a polymatroid counterexample is inconclusive.
    JunctionTreeNotSimple,
    /// The decision's resource budget ([`DecideOptions::budget`]) ran out
    /// before the procedure reached a verdict.  Sound by construction — the
    /// answer is `Unknown`, never a guess — but unlike the structural
    /// obstructions it depends on the budget (and, for deadlines, on wall
    /// clock), so budget-exhausted answers must never be cached.
    ResourceExhausted {
        /// Which budgeted resource ran out.
        resource: BudgetResource,
    },
}

impl std::fmt::Display for Obstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Obstruction::NotChordal => write!(f, "containing query is not chordal"),
            Obstruction::JunctionTreeNotSimple => {
                write!(f, "junction tree of the containing query is not simple")
            }
            Obstruction::ResourceExhausted { resource } => {
                write!(f, "{} budget exhausted", resource.token())
            }
        }
    }
}

/// The answer of [`decide_containment`].
// One answer value exists per decision call, so the size skew between the
// witness-carrying and witness-free variants is not worth boxing away.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ContainmentAnswer {
    /// `Q1 ⊑ Q2` holds for every database; the containment inequality is
    /// Shannon-valid (Theorem 4.2).
    Contained {
        /// The Eq. (8) inequality that was proven valid, when one was built
        /// (`None` only for the syntactic-identity shortcut).
        inequality: Option<MaxInequality>,
    },
    /// `Q1 ⋢ Q2`; when the witness budget sufficed, `witness` carries a
    /// concrete database on which `Q1` has strictly more homomorphisms.
    NotContained {
        /// A verified counterexample database, if one was materialized.
        witness: Option<NonContainmentWitness>,
        /// The violating polymatroid from the LP, if the refutation came from
        /// the containment inequality (absent for the no-homomorphism and
        /// counting-refuter cases, which never touch the LP).
        counterexample: Option<SetFunction>,
    },
    /// The instance falls outside the decidable class of Theorem 3.1 and the
    /// sufficient condition of Theorem 4.2 did not fire.
    Unknown {
        /// What kept the instance out of the decidable class.
        obstruction: Obstruction,
        /// The violating polymatroid of the Γ_n check, when one was computed.
        counterexample: Option<SetFunction>,
    },
}

impl ContainmentAnswer {
    /// `true` iff the answer is a definite "contained".
    pub fn is_contained(&self) -> bool {
        matches!(self, ContainmentAnswer::Contained { .. })
    }

    /// `true` iff the answer is a definite "not contained".
    pub fn is_not_contained(&self) -> bool {
        matches!(self, ContainmentAnswer::NotContained { .. })
    }

    /// `true` iff the procedure could not decide.
    pub fn is_unknown(&self) -> bool {
        matches!(self, ContainmentAnswer::Unknown { .. })
    }

    /// A cheap, `Copy`-able summary of the answer, suitable for caching and
    /// batch reporting.  Drops the heavyweight payloads (inequality, witness
    /// database, counterexample polymatroid) and keeps the verdict.
    pub fn summary(&self) -> AnswerSummary {
        match self {
            ContainmentAnswer::Contained { .. } => AnswerSummary::Contained,
            ContainmentAnswer::NotContained { witness, .. } => AnswerSummary::NotContained {
                witness_verified: witness.is_some(),
            },
            ContainmentAnswer::Unknown { obstruction, .. } => AnswerSummary::Unknown {
                obstruction: *obstruction,
            },
        }
    }
}

impl std::fmt::Display for ContainmentAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainmentAnswer::Contained { .. } => write!(f, "contained"),
            ContainmentAnswer::NotContained {
                witness: Some(w), ..
            } => write!(
                f,
                "not contained (witness: {} Q1-homomorphisms vs {} Q2-homomorphisms)",
                w.hom_q1, w.hom_q2
            ),
            ContainmentAnswer::NotContained { witness: None, .. } => write!(f, "not contained"),
            ContainmentAnswer::Unknown { obstruction, .. } => {
                write!(f, "undecided: {obstruction}")
            }
        }
    }
}

/// The verdict of a containment decision without its heavyweight payloads.
///
/// [`ContainmentAnswer`] carries witnesses, polymatroids and inequalities;
/// this summary is `Copy`, hashable and a few machine words, which is what a
/// decision cache wants to store and what batch reports want to print.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnswerSummary {
    /// `Q1 ⊑ Q2` holds for every database.
    Contained,
    /// `Q1 ⋢ Q2`.
    NotContained {
        /// Whether a concrete counterexample database was materialized and
        /// verified by counting when the full answer was produced.
        witness_verified: bool,
    },
    /// The instance falls outside the decidable class of Theorem 3.1.
    Unknown {
        /// What kept the instance out of the decidable class.
        obstruction: Obstruction,
    },
}

impl AnswerSummary {
    /// `true` iff the verdict is a definite "contained".
    pub fn is_contained(&self) -> bool {
        matches!(self, AnswerSummary::Contained)
    }

    /// `true` iff the verdict is a definite "not contained".
    pub fn is_not_contained(&self) -> bool {
        matches!(self, AnswerSummary::NotContained { .. })
    }

    /// `true` iff the procedure could not decide.
    pub fn is_unknown(&self) -> bool {
        matches!(self, AnswerSummary::Unknown { .. })
    }

    /// The three-way verdict with payload flags erased, for comparing a
    /// summary against a [`ContainmentAnswer`] produced elsewhere.
    pub fn verdict(&self) -> &'static str {
        match self {
            AnswerSummary::Contained => "contained",
            AnswerSummary::NotContained { .. } => "not contained",
            AnswerSummary::Unknown { .. } => "undecided",
        }
    }
}

impl std::fmt::Display for AnswerSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerSummary::Contained => write!(f, "contained"),
            AnswerSummary::NotContained {
                witness_verified: true,
            } => write!(f, "not contained (verified witness)"),
            AnswerSummary::NotContained {
                witness_verified: false,
            } => write!(f, "not contained"),
            AnswerSummary::Unknown { obstruction } => write!(f, "undecided: {obstruction}"),
        }
    }
}

/// Errors preventing the procedure from producing an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecideError {
    /// The queries have different numbers of head variables.
    MismatchedHeads(String),
    /// A custom [`DecisionPipeline`] ran
    /// out of stages before any of them decided the instance.  The standard
    /// pipeline never produces this: its LP and witness stages decide every
    /// instance that reaches them.
    PipelineIncomplete,
    /// The decision procedure panicked and the panic was contained by the
    /// caller (see `bqc-engine`).  The payload is the panic message.  This is
    /// an *error*, not an answer: nothing about the pair was established, and
    /// the result must never be cached.
    Panicked(String),
}

impl std::fmt::Display for DecideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecideError::MismatchedHeads(message) => write!(f, "{message}"),
            DecideError::PipelineIncomplete => {
                write!(f, "decision pipeline exhausted its stages without deciding")
            }
            DecideError::Panicked(message) => {
                write!(f, "decision procedure panicked: {message}")
            }
        }
    }
}

impl std::error::Error for DecideError {}

/// Tuning knobs for [`decide_containment_with`].
#[derive(Clone, Debug)]
pub struct DecideOptions {
    /// Maximum number of rows a materialized witness relation may have.
    pub witness_max_rows: u64,
    /// Whether to attempt witness extraction at all.
    pub extract_witness: bool,
    /// Whether the counting-refuter stage may run (sound fast refutation by
    /// hom-counting on small databases before any LP work; see
    /// [`crate::pipeline::CountingRefuter`]).  Disable to reproduce the
    /// LP-only cost profile of the pre-refactor procedure.
    pub counting_refuter: bool,
    /// Resource budget for the decision: a wall-clock deadline and/or caps
    /// on LP pivots and hom-steps, checked cooperatively throughout the
    /// pipeline.  An exhausted budget yields a sound
    /// `Unknown` answer with [`Obstruction::ResourceExhausted`] and a
    /// partial trace — never a wrong verdict.  The default is
    /// [`BudgetSpec::UNLIMITED`], under which every budget check is a single
    /// pointer test and verdicts are bit-identical to the unbudgeted
    /// procedure.
    pub budget: BudgetSpec,
}

impl Default for DecideOptions {
    fn default() -> DecideOptions {
        DecideOptions {
            witness_max_rows: 1 << 10,
            extract_witness: true,
            counting_refuter: true,
            budget: BudgetSpec::UNLIMITED,
        }
    }
}

/// The process-wide standard pipeline: the stage list is immutable and the
/// stages are stateless, so one instance serves every decision.
fn standard_pipeline() -> &'static DecisionPipeline {
    static PIPELINE: OnceLock<DecisionPipeline> = OnceLock::new();
    PIPELINE.get_or_init(DecisionPipeline::standard)
}

/// Decides `Q1 ⊑ Q2` under bag-set semantics with default options.
pub fn decide_containment(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<ContainmentAnswer, DecideError> {
    decide_containment_with(q1, q2, &DecideOptions::default())
}

/// Decides `Q1 ⊑ Q2` under bag-set semantics.
pub fn decide_containment_with(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Result<ContainmentAnswer, DecideError> {
    decide_containment_traced(q1, q2, options).map(|decision| decision.answer)
}

/// Decides `Q1 ⊑ Q2` and returns the answer together with its
/// [`DecisionTrace`](crate::pipeline::DecisionTrace) — which stage decided,
/// what each stage concluded, and what each cost.
///
/// Decisions carry no state from one call to the next (the Shannon-cone
/// check is a pure function of its inequality), so the answer, the trace's
/// stage sequence and notes, and any counterexample are pure functions of
/// `(q1, q2, options)` — up to deadline budgets, which depend on the clock.
pub fn decide_containment_traced(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Result<Decision, DecideError> {
    standard_pipeline().run(q1, q2, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::exhaustive_containment_check;
    use bqc_relational::parse_query;

    #[test]
    fn example_4_3_triangle_contained_in_two_star() {
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let answer = decide_containment(&triangle, &star).unwrap();
        assert!(answer.is_contained());
        // The reverse direction fails, with a verified witness.
        let reverse = decide_containment(&star, &triangle).unwrap();
        match reverse {
            ContainmentAnswer::NotContained { witness, .. } => {
                let witness = witness.expect("witness should be materialized");
                assert!(witness.hom_q1 > witness.hom_q2);
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
    }

    #[test]
    fn example_3_5_not_contained_with_witness() {
        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
        let answer = decide_containment(&q1, &q2).unwrap();
        match answer {
            ContainmentAnswer::NotContained { witness, .. } => {
                let witness = witness.expect("witness should be materialized");
                assert!(witness.hom_q1 > witness.hom_q2);
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
        // With the counting refuter disabled the Theorem 3.1 LP path decides
        // and attaches its violating polymatroid.
        let options = DecideOptions {
            counting_refuter: false,
            ..DecideOptions::default()
        };
        let answer = decide_containment_with(&q1, &q2, &options).unwrap();
        match answer {
            ContainmentAnswer::NotContained {
                witness,
                counterexample,
            } => {
                assert!(counterexample.is_some());
                let witness = witness.expect("witness should be materialized");
                assert!(witness.hom_q1 > witness.hom_q2);
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
    }

    #[test]
    fn identical_queries_are_contained() {
        for text in [
            "Q() :- R(x,y)",
            "Q() :- R(x,y), S(y,z)",
            "Q() :- R(x,y), R(y,x)",
            "Q() :- R(x,x)",
        ] {
            let q = parse_query(text).unwrap();
            let answer = decide_containment(&q, &q).unwrap();
            assert!(answer.is_contained(), "query {text} must contain itself");
        }
    }

    #[test]
    fn adding_atoms_preserves_containment_direction() {
        // Q1 = R(x,y), S(x,y) ⊑ Q2 = R(u,v): dropping an atom can only keep or
        // increase the homomorphism count.
        let q1 = parse_query("Q1() :- R(x,y), S(x,y)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v)").unwrap();
        assert!(decide_containment(&q1, &q2).unwrap().is_contained());
        // And the converse fails.
        let reverse = decide_containment(&q2, &q1).unwrap();
        assert!(reverse.is_not_contained());
    }

    #[test]
    fn no_homomorphism_case_yields_canonical_witness() {
        let q1 = parse_query("Q1() :- R(x,y)").unwrap();
        let q2 = parse_query("Q2() :- S(u,v)").unwrap();
        let answer = decide_containment(&q1, &q2).unwrap();
        match answer {
            ContainmentAnswer::NotContained {
                witness,
                counterexample,
            } => {
                assert!(counterexample.is_none());
                let witness = witness.expect("canonical witness");
                assert_eq!(witness.hom_q1, 1);
                assert_eq!(witness.hom_q2, 0);
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
    }

    #[test]
    fn non_boolean_queries_are_reduced() {
        // Example A.2's queries: what we check is simply that the procedure
        // runs end-to-end on non-Boolean input and agrees with the
        // brute-force oracle on the Boolean reduction.
        let q1 = parse_query("Q1(x, z) :- P(x), S(u, x), S(v, z), R(z)").unwrap();
        let q2 = parse_query("Q2(x, z) :- P(x), S(u, y), S(v, y), R(z)").unwrap();
        let answer = decide_containment(&q1, &q2).unwrap();
        assert!(!answer.is_unknown());
        // Mismatched heads are rejected.
        let q3 = parse_query("Q3(x) :- P(x)").unwrap();
        assert!(decide_containment(&q1, &q3).is_err());
    }

    #[test]
    fn decisions_agree_with_exhaustive_oracle_on_small_instances() {
        let cases = [
            ("Q1() :- R(x,y), R(y,z)", "Q2() :- R(u,v)"),
            ("Q1() :- R(x,y)", "Q2() :- R(u,v), R(v,w)"),
            ("Q1() :- R(x,y), R(y,x)", "Q2() :- R(u,v)"),
            ("Q1() :- R(x,x)", "Q2() :- R(u,v)"),
            ("Q1() :- R(x,y), S(y,z)", "Q2() :- R(u,v), S(v,w)"),
            ("Q1() :- R(x,y), S(y,x)", "Q2() :- R(u,v), S(v,w)"),
        ];
        for (t1, t2) in cases {
            let q1 = parse_query(t1).unwrap();
            let q2 = parse_query(t2).unwrap();
            let answer = decide_containment(&q1, &q2).unwrap();
            let oracle = exhaustive_containment_check(&q1, &q2, 2);
            match (&answer, &oracle) {
                (ContainmentAnswer::Contained { .. }, Err(db)) => {
                    panic!("procedure says contained but oracle found counterexample {db} for {t1} vs {t2}")
                }
                (ContainmentAnswer::NotContained { .. }, Ok(())) => {
                    // The oracle only checks domains of size 2, so this is not
                    // necessarily a contradiction; but for these hand-picked
                    // cases a small counterexample must exist.
                    panic!("procedure says not contained but oracle found none for {t1} vs {t2}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn extract_witness_false_suppresses_every_witness_path() {
        let options = DecideOptions {
            extract_witness: false,
            ..DecideOptions::default()
        };
        // No-homomorphism shortcut, counting-refuter shortcut, and the
        // Theorem 3.1 refutation path must all respect the flag.
        let cases = [
            ("Q1() :- R(x,y)", "Q2() :- S(u,v)"),
            ("Q1() :- R(u,v), R(u,w)", "Q2() :- R(x,y), R(y,z), R(z,x)"),
            (
                "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
                "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            ),
        ];
        for (t1, t2) in cases {
            let q1 = parse_query(t1).unwrap();
            let q2 = parse_query(t2).unwrap();
            let answer = decide_containment_with(&q1, &q2, &options).unwrap();
            match answer {
                ContainmentAnswer::NotContained { witness, .. } => {
                    assert!(witness.is_none(), "{t1} vs {t2} must skip the witness")
                }
                other => panic!("expected NotContained for {t1} vs {t2}, got {other:?}"),
            }
        }
    }

    #[test]
    fn summaries_and_display_track_the_full_answer() {
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let contained = decide_containment(&triangle, &star).unwrap();
        assert_eq!(contained.summary(), AnswerSummary::Contained);
        assert_eq!(contained.to_string(), "contained");
        assert_eq!(contained.summary().verdict(), "contained");

        let not = decide_containment(&star, &triangle).unwrap();
        assert_eq!(
            not.summary(),
            AnswerSummary::NotContained {
                witness_verified: true
            }
        );
        assert!(not.to_string().starts_with("not contained (witness:"));
        assert_eq!(
            not.summary().to_string(),
            "not contained (verified witness)"
        );

        let square = parse_query("Q() :- R(a,b), R(b,c), R(c,d), R(d,a)").unwrap();
        let q1 = parse_query("Q1() :- R(x,y), R(y,z), R(z,w), R(w,x), R(x,z)").unwrap();
        let answer = decide_containment(&q1, &square).unwrap();
        if answer.is_unknown() {
            assert_eq!(
                answer.summary(),
                AnswerSummary::Unknown {
                    obstruction: Obstruction::NotChordal
                }
            );
            assert_eq!(
                answer.to_string(),
                "undecided: containing query is not chordal"
            );
        }
        assert_eq!(
            Obstruction::JunctionTreeNotSimple.to_string(),
            "junction tree of the containing query is not simple"
        );
    }

    #[test]
    fn non_chordal_containing_query_is_reported_unknown_or_contained() {
        // Q2 is a 4-cycle (not chordal).  Containment of Q2 in itself must
        // still be recognized — now via the syntactic-identity shortcut
        // (before the refactor, via the trivial single-bag decomposition).
        let square = parse_query("Q() :- R(a,b), R(b,c), R(c,d), R(d,a)").unwrap();
        let answer = decide_containment(&square, &square).unwrap();
        assert!(answer.is_contained());
        // A non-chordal Q2 with a genuinely unclear instance reports Unknown.
        let q1 = parse_query("Q1() :- R(x,y), R(y,z), R(z,w), R(w,x), R(x,z)").unwrap();
        let answer = decide_containment(&q1, &square).unwrap();
        assert!(answer.is_unknown() || answer.is_contained() || answer.is_not_contained());
    }

    #[test]
    fn exhausted_pivot_budget_yields_sound_unknown_with_partial_trace() {
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        // One LP pivot cannot finish the Γ_n probe for Example 4.3.
        let starved = DecideOptions {
            budget: BudgetSpec {
                max_pivots: Some(1),
                ..BudgetSpec::UNLIMITED
            },
            ..DecideOptions::default()
        };
        let decision = decide_containment_traced(&triangle, &star, &starved).unwrap();
        match decision.answer {
            ContainmentAnswer::Unknown {
                obstruction:
                    Obstruction::ResourceExhausted {
                        resource: BudgetResource::Pivots,
                    },
                counterexample: None,
            } => {}
            other => panic!("expected pivot-exhausted Unknown, got {other:?}"),
        }
        // The partial trace still records every stage up to the abort, and
        // the exhausted stage's note carries the progress counters.
        assert_eq!(decision.trace.decided_by(), Some("shannon-lp"));
        let lp = decision.trace.reports().last().unwrap();
        assert!(lp
            .note
            .as_ref()
            .unwrap()
            .contains("pivots budget exhausted"));
        assert!(lp.note.as_ref().unwrap().contains("spent pivots="));
        assert_eq!(
            decision.answer.summary().to_string(),
            "undecided: pivots budget exhausted"
        );
        // The same pair without a budget still decides normally — and with a
        // generous budget the verdict is bit-identical to the unbudgeted one.
        let unbudgeted = decide_containment(&triangle, &star).unwrap();
        assert!(unbudgeted.is_contained());
        let generous = DecideOptions {
            budget: BudgetSpec {
                max_pivots: Some(1 << 20),
                ..BudgetSpec::UNLIMITED
            },
            ..DecideOptions::default()
        };
        let roomy = decide_containment_with(&triangle, &star, &generous).unwrap();
        assert_eq!(roomy.summary(), unbudgeted.summary());
    }

    #[test]
    fn exhausted_hom_step_budget_aborts_the_hom_screen() {
        let q1 = parse_query("Q1() :- R(x,y), S(x,y)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v)").unwrap();
        let starved = DecideOptions {
            budget: BudgetSpec {
                max_hom_steps: Some(0),
                ..BudgetSpec::UNLIMITED
            },
            ..DecideOptions::default()
        };
        let answer = decide_containment_with(&q1, &q2, &starved).unwrap();
        match answer {
            ContainmentAnswer::Unknown {
                obstruction:
                    Obstruction::ResourceExhausted {
                        resource: BudgetResource::HomSteps,
                    },
                ..
            } => {}
            other => panic!("expected hom-step-exhausted Unknown, got {other:?}"),
        }
        // An aborted hom scan must never masquerade as `hom(Q2,Q1) = ∅`
        // (which would be a wrong NotContained: the pair is contained).
        assert!(decide_containment(&q1, &q2).unwrap().is_contained());
    }

    #[test]
    fn witness_materialization_charges_the_decision_budget() {
        use crate::pipeline::{
            CountingRefuter, DecisionStage, HomExistence, IdentityShortcut, JunctionTree,
            PipelineState, ShannonLp, StageResult,
        };
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Stands in for the witness stage: records the hom-steps spent so
        /// far and stops the pipeline.
        struct SpendProbe(Arc<AtomicU64>);
        impl DecisionStage for SpendProbe {
            fn name(&self) -> &'static str {
                "spend-probe"
            }
            fn citation(&self) -> &'static str {
                "test"
            }
            fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
                assert!(state.counterexample.is_some(), "the LP must hand over");
                self.0
                    .store(state.budget.hom_steps_spent(), Ordering::SeqCst);
                Ok(StageResult::decided(ContainmentAnswer::Unknown {
                    obstruction: Obstruction::NotChordal,
                    counterexample: None,
                }))
            }
        }

        // The headed triangle-vs-star pair (corpus `boolean_reduction.bqc`):
        // the LP refutes it and the witness ladders run to the row budget.
        let q1 = parse_query("Q1(x) :- R(x,y), R(y,z), R(z,x)").unwrap();
        let q2 = parse_query("Q2(u) :- R(u,v), R(u,w)").unwrap();
        let metered = |max_hom_steps| DecideOptions {
            budget: BudgetSpec {
                max_hom_steps: Some(max_hom_steps),
                ..BudgetSpec::UNLIMITED
            },
            ..DecideOptions::default()
        };
        let spent = Arc::new(AtomicU64::new(0));
        let probe = DecisionPipeline::with_stages(vec![
            Box::new(crate::pipeline::BooleanReduction),
            Box::new(IdentityShortcut),
            Box::new(HomExistence),
            Box::new(JunctionTree),
            Box::new(CountingRefuter),
            Box::new(ShannonLp),
            Box::new(SpendProbe(spent.clone())),
        ]);
        probe.run(&q1, &q2, &metered(u64::MAX)).unwrap();
        let before_witness = spent.load(Ordering::SeqCst);

        // A cap just above the pre-witness spend runs out inside the witness
        // stage, which answers the sound, uncacheable Unknown.
        let decision = decide_containment_traced(&q1, &q2, &metered(before_witness + 8)).unwrap();
        assert_eq!(decision.trace.decided_by(), Some("witness-materialization"));
        match decision.answer {
            ContainmentAnswer::Unknown {
                obstruction:
                    Obstruction::ResourceExhausted {
                        resource: BudgetResource::HomSteps,
                    },
                counterexample: None,
            } => {}
            other => panic!("expected hom-step-exhausted Unknown, got {other:?}"),
        }
        // A cap the ladders fit in reproduces the unbudgeted answer.
        let roomy = decide_containment_with(&q1, &q2, &metered(before_witness + 100_000)).unwrap();
        let unbudgeted = decide_containment(&q1, &q2).unwrap();
        assert!(!unbudgeted.is_contained());
        assert_eq!(roomy.summary(), unbudgeted.summary());
    }

    #[test]
    fn expired_deadline_decides_before_any_stage_work() {
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let expired = DecideOptions {
            budget: BudgetSpec {
                deadline: Some(std::time::Duration::ZERO),
                ..BudgetSpec::UNLIMITED
            },
            ..DecideOptions::default()
        };
        let decision = decide_containment_traced(&triangle, &star, &expired).unwrap();
        match decision.answer {
            ContainmentAnswer::Unknown {
                obstruction:
                    Obstruction::ResourceExhausted {
                        resource: BudgetResource::Deadline,
                    },
                ..
            } => {}
            other => panic!("expected deadline-exhausted Unknown, got {other:?}"),
        }
        // The run loop's pre-stage check fires on the very first stage.
        assert_eq!(decision.trace.reports().len(), 1);
    }

    #[test]
    fn traced_decisions_expose_the_deciding_stage() {
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let decision =
            decide_containment_traced(&triangle, &star, &DecideOptions::default()).unwrap();
        assert!(decision.answer.is_contained());
        assert_eq!(decision.trace.decided_by(), Some("shannon-lp"));
        // The plain entry point returns exactly the traced answer.
        let plain = decide_containment(&triangle, &star).unwrap();
        assert_eq!(plain.summary(), decision.answer.summary());
    }
}
