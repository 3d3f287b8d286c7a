//! The pre-refactor monolithic decision procedure, preserved verbatim.
//!
//! Before the staged [`crate::pipeline`] existed, the decision procedure
//! was a single hard-coded cascade.  That exact control flow is kept here,
//! unchanged, for two jobs:
//!
//! * **equivalence oracle** — the proptest suite in
//!   `tests/pipeline_equivalence.rs` asserts that the pipeline's verdicts
//!   (and witness presence) match this function on random query pairs and on
//!   the whole hand-written corpus;
//! * **overhead baseline** — the `decide/overhead/*` benchmark scenarios
//!   measure the staged pipeline (with trace collection) against this direct
//!   path, and the CI gate enforces that the pipeline stays within 10% on
//!   LP-bound workloads.
//!
//! It is **not** part of the supported API: no traces, no counting refuter,
//! and the known wart that the non-chordal fallback
//! discards its violating polymatroid (fixed in the pipeline) is preserved
//! on purpose.

use crate::containment::{containment_inequality, query_homomorphisms};
use crate::decide::{ContainmentAnswer, DecideError, DecideOptions, Obstruction};
use crate::reductions::{boolean_reduction, saturate_pair};
use crate::witness::{verify_witness, witness_from_counterexample, NonContainmentWitness};
use bqc_hypergraph::{junction_tree, Graph, TreeDecomposition};
use bqc_iip::{check_max_inequality, GammaValidity};
use bqc_obs::Budget;
use bqc_relational::{ConjunctiveQuery, VRelation, Value};

/// Decides `Q1 ⊑ Q2` exactly as the pre-refactor monolith did (no counting
/// refuter, no trace).
pub fn decide_containment_legacy(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Result<ContainmentAnswer, DecideError> {
    // Step 1: Boolean reduction (Lemma A.1).
    let (q1, q2) = boolean_reduction(q1, q2).map_err(DecideError::MismatchedHeads)?;

    // Step 2: no homomorphism Q2 → Q1 means the canonical database of Q1
    // separates the queries immediately.
    if query_homomorphisms(&q2, &q1).is_empty() {
        let witness = if options.extract_witness {
            canonical_witness(&q1, &q2)
        } else {
            None
        };
        return Ok(ContainmentAnswer::NotContained {
            witness,
            counterexample: None,
        });
    }

    // Step 3: junction tree of Q2.
    let gaifman = {
        let mut graph = Graph::from_cliques(q2.hyperedges());
        for v in q2.vars() {
            graph.add_vertex(v.clone());
        }
        graph
    };
    let Some(td) = junction_tree(&gaifman) else {
        // Without a junction tree we can still try the sufficient condition on
        // a trivial single-bag decomposition (always a valid tree
        // decomposition: one bag containing all variables).
        let single = TreeDecomposition::single_bag(q2.var_set());
        if let Some((inequality, _)) = containment_inequality(&q1, &q2, &single) {
            if check_max_inequality(&inequality).is_valid() {
                return Ok(ContainmentAnswer::Contained {
                    inequality: Some(inequality),
                });
            }
        }
        return Ok(ContainmentAnswer::Unknown {
            obstruction: Obstruction::NotChordal,
            counterexample: None,
        });
    };

    // Step 4: build and check the containment inequality.
    let Some((inequality, composed)) = containment_inequality(&q1, &q2, &td) else {
        let witness = if options.extract_witness {
            canonical_witness(&q1, &q2)
        } else {
            None
        };
        return Ok(ContainmentAnswer::NotContained {
            witness,
            counterexample: None,
        });
    };
    match check_max_inequality(&inequality) {
        GammaValidity::ValidShannon => Ok(ContainmentAnswer::Contained {
            inequality: Some(inequality),
        }),
        GammaValidity::NotShannonProvable { counterexample } => {
            let simple = td.is_simple() && composed.iter().all(|e| e.is_simple());
            if !simple {
                return Ok(ContainmentAnswer::Unknown {
                    obstruction: Obstruction::JunctionTreeNotSimple,
                    counterexample: Some(counterexample),
                });
            }
            // Theorem 3.1: the instance is decidable and the answer is "not
            // contained".  Try to materialize a verified witness, first for
            // the original pair, then for the saturated pair (Fact A.3).
            let witness = if options.extract_witness {
                let unlimited = Budget::unlimited();
                witness_from_counterexample(
                    &q1,
                    &q2,
                    &counterexample,
                    options.witness_max_rows,
                    &unlimited,
                )
                .expect("unlimited budget cannot exhaust")
                .or_else(|| {
                    let (s1, s2) = saturate_pair(&q1, &q2);
                    witness_from_counterexample(
                        &s1,
                        &s2,
                        &counterexample,
                        options.witness_max_rows,
                        &unlimited,
                    )
                    .expect("unlimited budget cannot exhaust")
                })
            } else {
                None
            };
            Ok(ContainmentAnswer::NotContained {
                witness,
                counterexample: Some(counterexample),
            })
        }
    }
}

/// The canonical database of `Q1` as a witness relation: a single row mapping
/// every variable to itself.  Used when `hom(Q2, Q1) = ∅`.
fn canonical_witness(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Option<NonContainmentWitness> {
    let columns: Vec<String> = q1.vars().to_vec();
    let row: Vec<Value> = columns.iter().map(|v| Value::text(v.clone())).collect();
    let relation = VRelation::from_rows(columns, vec![row]);
    verify_witness(q1, q2, &relation, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}
