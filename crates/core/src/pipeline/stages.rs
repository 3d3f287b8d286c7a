//! The standard stages of the Theorem 3.1 decision pipeline.
//!
//! Cost-ordered: each stage is strictly cheaper than the ones after it, so
//! an instance is decided by the cheapest test that can decide it.
//!
//! 1. [`BooleanReduction`] — Lemma A.1, string rewriting;
//! 2. [`IdentityShortcut`] — syntactic identity (modulo atom order), a sort;
//! 3. [`HomExistence`] — `hom(Q2, Q1) = ∅` screen, backtracking enumeration;
//! 4. [`JunctionTree`] — chordality + Eq. (8) construction, pure graph and
//!    symbolic work (no LP);
//! 5. [`CountingRefuter`] — hom-counting on small databases (Fact 3.2),
//!    confined to the decidable class so pipeline verdicts are exactly the
//!    Theorem 3.1 procedure's;
//! 6. [`ShannonLp`] — the exact Γ_n feasibility probe, the expensive stage;
//! 7. [`WitnessMaterialization`] — Lemma 3.7 + Lemma 4.8 witness extraction
//!    from the violating polymatroid.

use crate::containment::{containment_inequality_from_homs, query_homomorphisms_budgeted};
use crate::decide::{ContainmentAnswer, DecideError, Obstruction};
use crate::reductions::{boolean_reduction, saturate_pair};
use crate::witness::{verify_witness, witness_from_counterexample, NonContainmentWitness};
use bqc_hypergraph::{junction_tree, Graph, TreeDecomposition};
use bqc_iip::GammaValidity;
use bqc_obs::{Budget, Exhausted};
use bqc_relational::{ConjunctiveQuery, VRelation, Value};

use super::refuter::{candidate_count, counting_refutation_budgeted, witness_from_refutation};
use super::{budget_exhausted_result, DecisionStage, PipelineState, StageResult};

/// Lemma A.1: queries with head variables are replaced by their Boolean
/// reductions (fresh unary atoms pairing the head variables positionally).
#[derive(Clone, Copy, Debug, Default)]
pub struct BooleanReduction;

impl DecisionStage for BooleanReduction {
    fn name(&self) -> &'static str {
        "boolean-reduction"
    }

    fn citation(&self) -> &'static str {
        "Lemma A.1"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        if state.q1.is_boolean() && state.q2.is_boolean() {
            return Ok(StageResult::inapplicable());
        }
        let head_vars = state.q1.head().len();
        let (q1, q2) =
            boolean_reduction(&state.q1, &state.q2).map_err(DecideError::MismatchedHeads)?;
        state.q1 = q1;
        state.q2 = q2;
        Ok(StageResult::cont().with_note(format!(
            "reduced to Boolean queries ({head_vars} head variable(s))"
        )))
    }
}

/// Reflexivity shortcut: syntactically identical queries (same atom multiset
/// after the Boolean reduction) are trivially contained in each other — no
/// homomorphism enumeration, no LP.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityShortcut;

impl DecisionStage for IdentityShortcut {
    fn name(&self) -> &'static str {
        "identity-shortcut"
    }

    fn citation(&self) -> &'static str {
        "bag-set reflexivity"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        let mut atoms1: Vec<(&str, &[String])> = state
            .q1
            .atoms()
            .iter()
            .map(|a| (a.relation.as_str(), a.args.as_slice()))
            .collect();
        let mut atoms2: Vec<(&str, &[String])> = state
            .q2
            .atoms()
            .iter()
            .map(|a| (a.relation.as_str(), a.args.as_slice()))
            .collect();
        atoms1.sort();
        atoms2.sort();
        if atoms1 == atoms2 {
            Ok(
                StageResult::decided(ContainmentAnswer::Contained { inequality: None }).with_note(
                    "queries are syntactically identical (modulo atom order)".to_string(),
                ),
            )
        } else {
            Ok(StageResult::inapplicable())
        }
    }
}

/// The `hom(Q2, Q1) = ∅` screen: with no homomorphism from the containing
/// query, the canonical database of `Q1` separates the pair immediately.
#[derive(Clone, Copy, Debug, Default)]
pub struct HomExistence;

impl DecisionStage for HomExistence {
    fn name(&self) -> &'static str {
        "hom-existence"
    }

    fn citation(&self) -> &'static str {
        "Fact 3.2"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        let homomorphisms = match query_homomorphisms_budgeted(&state.q2, &state.q1, &state.budget)
        {
            Ok(homomorphisms) => homomorphisms,
            Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
        };
        if homomorphisms.is_empty() {
            let witness = if state.options.extract_witness {
                match canonical_witness(&state.q1, &state.q2, &state.budget) {
                    Ok(witness) => witness,
                    Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
                }
            } else {
                None
            };
            return Ok(StageResult::decided(ContainmentAnswer::NotContained {
                witness,
                counterexample: None,
            })
            .with_note("no homomorphism Q2 → Q1".to_string()));
        }
        let note = format!("{} homomorphism(s) Q2 → Q1", homomorphisms.len());
        state.homomorphisms = Some(homomorphisms);
        Ok(StageResult::cont().with_note(note))
    }
}

/// Structural stage: builds the junction tree of `Q2` (or the single-bag
/// fallback when `Q2` is not chordal), constructs the Eq. (8) containment
/// inequality over it, and classifies the instance against the decidable
/// class of Theorem 3.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct JunctionTree;

impl DecisionStage for JunctionTree {
    fn name(&self) -> &'static str {
        "junction-tree"
    }

    fn citation(&self) -> &'static str {
        "Theorem 3.1"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        if state.homomorphisms.is_none() {
            // Defensive for custom stage lists that skipped the screen.
            match query_homomorphisms_budgeted(&state.q2, &state.q1, &state.budget) {
                Ok(homomorphisms) => state.homomorphisms = Some(homomorphisms),
                Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
            }
        }
        let gaifman = {
            let mut graph = Graph::from_cliques(state.q2.hyperedges());
            for v in state.q2.vars() {
                graph.add_vertex(v.clone());
            }
            graph
        };
        let (td, note) = match junction_tree(&gaifman) {
            Some(td) => {
                state.single_bag_fallback = false;
                let simple = td.is_simple();
                let note = format!(
                    "chordal: junction tree with {} bag(s){}",
                    td.bags().len(),
                    if simple { "" } else { ", not simple" }
                );
                (td, note)
            }
            None => {
                state.single_bag_fallback = true;
                state.obstruction = Some(Obstruction::NotChordal);
                (
                    TreeDecomposition::single_bag(state.q2.var_set()),
                    "not chordal: trivial single-bag decomposition".to_string(),
                )
            }
        };
        let homomorphisms = state.homomorphisms.as_deref().expect("stored above");
        let Some((inequality, composed)) =
            containment_inequality_from_homs(&state.q1, &td, homomorphisms)
        else {
            // Unreachable after the hom-existence screen, but a custom
            // pipeline may have skipped it: no homomorphism means not
            // contained, as in that screen.
            let witness = if state.options.extract_witness {
                match canonical_witness(&state.q1, &state.q2, &state.budget) {
                    Ok(witness) => witness,
                    Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
                }
            } else {
                None
            };
            return Ok(StageResult::decided(ContainmentAnswer::NotContained {
                witness,
                counterexample: None,
            })
            .with_note("no homomorphism Q2 → Q1".to_string()));
        };
        let simple = td.is_simple() && composed.iter().all(|e| e.is_simple());
        state.decidable = !state.single_bag_fallback && simple;
        if !state.decidable && state.obstruction.is_none() {
            state.obstruction = Some(Obstruction::JunctionTreeNotSimple);
        }
        state.decomposition = Some(td);
        state.inequality = Some(inequality);
        Ok(StageResult::cont().with_note(note))
    }
}

/// The counting refuter (Fact 3.2): evaluates `|hom(Q1, D)|` vs
/// `|hom(Q2, D)|` on the canonical database of `Q1` and a small
/// deterministic family of random structures, refuting containment before
/// any LP work when the counts disagree.
///
/// The stage is confined to the decidable class of Theorem 3.1: inside it a
/// count separation and a failed Γ_n check are the *same* verdict (the
/// theorem's completeness direction), so skipping the LP cannot change any
/// answer.  Outside the class a count separation would still be a sound
/// refutation, but the Theorem 3.1 procedure reports `Unknown` there, and
/// this pipeline is specified to return bit-identical verdicts — the
/// obstruction report is part of the contract.
///
/// When witness extraction is requested, the stage decides only if the
/// separating database also yields a witness within
/// [`DecideOptions::witness_max_rows`](crate::DecideOptions); a separation
/// whose homomorphism relation exceeds the budget instead *continues* to
/// the LP path, so the answer (including witness presence) is exactly what
/// the Lemma 3.7 extraction would have produced anyway.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingRefuter;

impl DecisionStage for CountingRefuter {
    fn name(&self) -> &'static str {
        "counting-refuter"
    }

    fn citation(&self) -> &'static str {
        "Fact 3.2"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        if !state.options.counting_refuter {
            return Ok(StageResult::inapplicable().with_note("disabled by options".to_string()));
        }
        if !state.decidable {
            return Ok(StageResult::inapplicable()
                .with_note("outside the decidable class of Theorem 3.1".to_string()));
        }
        match counting_refutation_budgeted(&state.q1, &state.q2, &state.budget) {
            Err(exhausted) => Ok(budget_exhausted_result(state, exhausted)),
            Ok(Some(refutation)) => {
                let witness = if state.options.extract_witness {
                    let witness = match witness_from_refutation(
                        &state.q1,
                        &state.q2,
                        &refutation,
                        state.options.witness_max_rows,
                        &state.budget,
                    ) {
                        Ok(witness) => witness,
                        Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
                    };
                    if witness.is_none() {
                        // The separation is sound, but its homomorphism
                        // relation exceeds the witness budget.  Deciding here
                        // would return a witness-free answer where the legacy
                        // LP path might still extract one within budget, so
                        // defer to the LP + Lemma 3.7 machinery instead.
                        let note = format!(
                            "separation on {} ({} vs {} homomorphisms) exceeds the \
                             witness budget; deferring to the LP path",
                            refutation.candidate_label(),
                            refutation.hom_q1,
                            refutation.hom_q2
                        );
                        state.refutation = Some(refutation);
                        return Ok(StageResult::cont().with_note(note));
                    }
                    witness
                } else {
                    None
                };
                let note = format!(
                    "refuted on {}: {} vs {} homomorphisms",
                    refutation.candidate_label(),
                    refutation.hom_q1,
                    refutation.hom_q2
                );
                state.refutation = Some(refutation);
                Ok(StageResult::decided(ContainmentAnswer::NotContained {
                    witness,
                    counterexample: None,
                })
                .with_note(note))
            }
            Ok(None) => Ok(StageResult::cont().with_note(format!(
                "counts agree on {} candidate database(s)",
                candidate_count(&state.q1)
            ))),
        }
    }
}

/// The Shannon-cone LP: checks the Eq. (8) inequality over `Γ_n` with the
/// exact, stateless cone check of `bqc-iip`.  Validity decides **Contained** (Theorem 4.2, sound for
/// every `Q2`); a violating polymatroid decides **Unknown** outside the
/// decidable class and hands over to witness materialization inside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShannonLp;

impl DecisionStage for ShannonLp {
    fn name(&self) -> &'static str {
        "shannon-lp"
    }

    fn citation(&self) -> &'static str {
        "Theorems 3.6 & 4.2"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        let Some(inequality) = state.inequality.take() else {
            return Ok(StageResult::inapplicable()
                .with_note("no containment inequality was built".to_string()));
        };
        let disjuncts = inequality.num_disjuncts();
        match bqc_iip::check_max_inequality_budgeted(&inequality, &state.budget) {
            Err(exhausted) => Ok(budget_exhausted_result(state, exhausted)),
            Ok(GammaValidity::ValidShannon) => {
                Ok(StageResult::decided(ContainmentAnswer::Contained {
                    inequality: Some(inequality),
                })
                .with_note(format!(
                    "Eq. (8) inequality is Shannon-valid ({disjuncts} disjunct(s))"
                )))
            }
            Ok(GammaValidity::NotShannonProvable { counterexample }) => {
                if !state.decidable {
                    // The standard junction-tree stage always records the
                    // obstruction; a custom stage list that built the
                    // inequality without classifying the instance degrades
                    // to the structural default instead of panicking.
                    let obstruction = state.obstruction.unwrap_or(if state.single_bag_fallback {
                        Obstruction::NotChordal
                    } else {
                        Obstruction::JunctionTreeNotSimple
                    });
                    // The violating polymatroid is returned even though the
                    // verdict is Unknown: it is the concrete object a caller
                    // would need to push the instance further by hand.
                    return Ok(StageResult::decided(ContainmentAnswer::Unknown {
                        obstruction,
                        counterexample: Some(counterexample),
                    })
                    .with_note("violating polymatroid found; instance undecidable here"));
                }
                state.counterexample = Some(counterexample);
                Ok(StageResult::cont()
                    .with_note("violating polymatroid found (Theorem 3.1 refutation)"))
            }
        }
    }
}

/// Theorem 3.1's "not contained" branch: materializes a verified witness
/// database from the violating polymatroid (Lemma 3.7 normalization +
/// Lemma 4.8 amplification), falling back to the saturated pair (Fact A.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct WitnessMaterialization;

impl DecisionStage for WitnessMaterialization {
    fn name(&self) -> &'static str {
        "witness-materialization"
    }

    fn citation(&self) -> &'static str {
        "Lemma 3.7 + Lemma 4.8"
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError> {
        let Some(counterexample) = state.counterexample.take() else {
            return Ok(
                StageResult::inapplicable().with_note("no violating polymatroid".to_string())
            );
        };
        let (witness, note) = if state.options.extract_witness {
            let max_rows = state.options.witness_max_rows;
            let witness = witness_from_counterexample(
                &state.q1,
                &state.q2,
                &counterexample,
                max_rows,
                &state.budget,
            )
            .and_then(|witness| match witness {
                Some(witness) => Ok(Some(witness)),
                None => {
                    let (s1, s2) = saturate_pair(&state.q1, &state.q2);
                    witness_from_counterexample(&s1, &s2, &counterexample, max_rows, &state.budget)
                }
            });
            let witness = match witness {
                Ok(witness) => witness,
                Err(exhausted) => return Ok(budget_exhausted_result(state, exhausted)),
            };
            let note = match &witness {
                Some(w) => format!(
                    "verified witness: {} vs {} homomorphisms",
                    w.hom_q1, w.hom_q2
                ),
                None => "witness budget exhausted".to_string(),
            };
            (witness, note)
        } else {
            (None, "witness extraction disabled".to_string())
        };
        Ok(StageResult::decided(ContainmentAnswer::NotContained {
            witness,
            counterexample: Some(counterexample),
        })
        .with_note(note))
    }
}

/// The canonical database of `Q1` as a witness relation: a single row mapping
/// every variable to itself.  Used when `hom(Q2, Q1) = ∅`.
pub(crate) fn canonical_witness(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    budget: &Budget,
) -> Result<Option<NonContainmentWitness>, Exhausted> {
    let columns: Vec<String> = q1.vars().to_vec();
    let row: Vec<Value> = columns.iter().map(|v| Value::text(v.clone())).collect();
    let relation = VRelation::from_rows(columns, vec![row]);
    verify_witness(q1, q2, &relation, budget)
}
