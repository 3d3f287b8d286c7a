//! Equivalence and determinism properties of the staged decision pipeline.
//!
//! * **Verdict equivalence** — the pipeline's verdicts are bit-identical to
//!   the pre-refactor monolith ([`bqc_core::legacy`]) on random query pairs
//!   and on a hand-written corpus covering every branch.  The one documented
//!   payload upgrade: when the counting refuter decides (always inside the
//!   decidable class, always `NotContained`), the witness comes from the
//!   separating database itself and is therefore always verified, while the
//!   legacy Lemma 3.7 extraction could exhaust its row budget.  The
//!   comparison below is exact for witness-free options and exact up to that
//!   refuter upgrade otherwise.
//! * **Trace determinism** — the stage sequence (and every note) of a
//!   decision is a pure function of the query pair and options: repeated
//!   runs, with or without other decisions in between, produce identical
//!   trace signatures.  This mirrors the engine's cache-determinism invariant at
//!   the explanation level.
//! * **Bugfix regression** — the non-chordal single-bag fallback returns the
//!   violating polymatroid it used to discard.

use bqc_core::legacy::decide_containment_legacy;
use bqc_core::{
    decide_containment_traced, decide_containment_with, AnswerSummary, ContainmentAnswer,
    DecideOptions, Decision,
};
use bqc_entropy::is_polymatroid;
use bqc_relational::{parse_query, Atom, ConjunctiveQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random *Boolean* conjunctive query, deterministic in `seed`: up to
/// `max_atoms` atoms over up to `max_vars` variables from a small mixed
/// vocabulary.  Boolean heads keep every generated pair decidable-or-unknown
/// (never a head-arity error) and the universes small enough for the exact
/// LP to stay fast.
fn random_boolean_query(max_vars: usize, max_atoms: usize, seed: u64) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_vars + 1);
    let atom_count = rng.gen_range(1..max_atoms + 1);
    let relations: [(&str, usize); 3] = [("R", 2), ("S", 2), ("U", 1)];
    let atoms: Vec<Atom> = (0..atom_count)
        .map(|_| {
            let (relation, arity) = relations[rng.gen_range(0..relations.len())];
            let args: Vec<String> = (0..arity)
                .map(|_| format!("x{}", rng.gen_range(0..n)))
                .collect();
            Atom::new(relation, args)
        })
        .collect();
    ConjunctiveQuery::boolean("Q", atoms).expect("non-empty atom list")
}

fn witness_free() -> DecideOptions {
    DecideOptions {
        extract_witness: false,
        ..DecideOptions::default()
    }
}

fn decide_traced(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Decision {
    decide_containment_traced(q1, q2, options).expect("Boolean pairs have matching heads")
}

/// Asserts pipeline/legacy equivalence for one pair under one option set,
/// returning an error string on mismatch (for `prop_assert!`).
fn check_equivalence(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Result<(), String> {
    let decision = decide_traced(q1, q2, options);
    let legacy = decide_containment_legacy(q1, q2, options).expect("matching heads");
    let pipeline_summary = decision.answer.summary();
    let legacy_summary = legacy.summary();
    if decision.trace.decided_by() == Some("counting-refuter") {
        // Inside the decidable class a count separation and a failed Γ_n
        // check are the same verdict (Theorem 3.1), so legacy must also say
        // NotContained; the witness flag may only be *upgraded* (the
        // refuter's witness always verifies, the legacy budgeted extraction
        // may fail).
        if !legacy_summary.is_not_contained() {
            return Err(format!(
                "refuter decided NotContained but legacy said {legacy_summary} \
                 for {q1} vs {q2}"
            ));
        }
        if options.extract_witness {
            if pipeline_summary
                != (AnswerSummary::NotContained {
                    witness_verified: true,
                })
            {
                return Err(format!(
                    "refuter-decided answer must carry a verified witness, \
                     got {pipeline_summary} for {q1} vs {q2}"
                ));
            }
        } else if pipeline_summary != legacy_summary {
            return Err(format!(
                "witness-free summaries diverge: pipeline {pipeline_summary}, \
                 legacy {legacy_summary} for {q1} vs {q2}"
            ));
        }
        return Ok(());
    }
    if pipeline_summary != legacy_summary {
        return Err(format!(
            "summaries diverge: pipeline {pipeline_summary}, legacy {legacy_summary} \
             for {q1} vs {q2}"
        ));
    }
    // Witness presence (not just the summary flag) must match too.
    let pipeline_witness = matches!(
        &decision.answer,
        ContainmentAnswer::NotContained {
            witness: Some(_),
            ..
        }
    );
    let legacy_witness = matches!(
        &legacy,
        ContainmentAnswer::NotContained {
            witness: Some(_),
            ..
        }
    );
    if pipeline_witness != legacy_witness {
        return Err(format!(
            "witness presence diverges (pipeline {pipeline_witness}, legacy \
             {legacy_witness}) for {q1} vs {q2}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipeline verdicts equal the pre-refactor procedure's on random pairs,
    /// with and without witness extraction.
    #[test]
    fn pipeline_matches_legacy_on_random_pairs(
        seed1 in 0u64..100_000,
        seed2 in 0u64..100_000,
    ) {
        let q1 = random_boolean_query(4, 4, seed1);
        let q2 = random_boolean_query(4, 4, seed2.wrapping_add(0x9e37));
        for options in [witness_free(), DecideOptions::default()] {
            if let Err(message) = check_equivalence(&q1, &q2, &options) {
                prop_assert!(false, "{}", message);
            }
        }
    }

    /// The trace signature (stages, statuses) and all notes are identical
    /// across repeated decisions of the same pair, whatever was decided in
    /// between.
    #[test]
    fn traces_are_deterministic(
        seed1 in 0u64..100_000,
        seed2 in 0u64..100_000,
    ) {
        let q1 = random_boolean_query(4, 4, seed1);
        let q2 = random_boolean_query(4, 4, seed2.wrapping_add(0x51f1));
        let options = witness_free();
        let cold = decide_traced(&q1, &q2, &options);
        // Deciding other pairs (and this one) in between must not change the
        // stage sequence or notes.
        let other = random_boolean_query(4, 4, seed1 ^ 0xabcd);
        let _ = decide_containment_traced(&other, &q2, &options);
        let first = decide_traced(&q1, &q2, &options);
        let second = decide_traced(&q1, &q2, &options);
        prop_assert_eq!(cold.trace.signature(), first.trace.signature());
        prop_assert_eq!(first.trace.signature(), second.trace.signature());
        let notes = |d: &Decision| -> Vec<Option<String>> {
            d.trace.reports().iter().map(|r| r.note.clone()).collect()
        };
        prop_assert_eq!(notes(&cold), notes(&first));
        prop_assert_eq!(notes(&first), notes(&second));
        // And the verdicts agree with the trace determinism.
        prop_assert_eq!(cold.answer.summary(), second.answer.summary());
    }
}

/// The hand-written corpus: every pipeline branch, compared exactly.
#[test]
fn pipeline_matches_legacy_on_the_corpus() {
    let corpus = [
        // shannon-lp contained (Example 4.3).
        ("Q1() :- R(x,y), R(y,z), R(z,x)", "Q2() :- R(u,v), R(u,w)"),
        // hom-existence refutation.
        ("Q1() :- R(u,v), R(u,w)", "Q2() :- R(x,y), R(y,z), R(z,x)"),
        ("Q1() :- R(x,y)", "Q2() :- S(u,v)"),
        // identity (exact and reordered).
        ("Q() :- R(x,y), S(y,z)", "Q() :- R(x,y), S(y,z)"),
        ("Q() :- R(x,y), S(y,z)", "Q() :- S(y,z), R(x,y)"),
        // counting-refuter refutation (Example 3.5).
        (
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
        ),
        // LP-refuted, witness via Theorem 3.1 (refuter disabled below too).
        ("Q1() :- R(x,y), S(y,x)", "Q2() :- R(u,v), S(v,w)"),
        // Non-chordal containing query, contained via single-bag (Theorem 4.2).
        (
            "Q1() :- R(x,y), R(y,z), R(z,w), R(w,x), R(x,z)",
            "Q2() :- R(a,b), R(b,c), R(c,d), R(d,a)",
        ),
        // Non-chordal, undecided.
        (
            "Q1() :- R(a,b), R(b,c), R(c,d), R(d,a), S(u,v)",
            "Q2() :- R(p,q), R(q,r), R(r,s), R(s,p)",
        ),
        // Non-Boolean pair (Lemma A.1 reduction).
        (
            "Q1(x, z) :- P(x), S(u, x), S(v, z), R(z)",
            "Q2(x, z) :- P(x), S(u, y), S(v, y), R(z)",
        ),
    ];
    let lp_only = DecideOptions {
        counting_refuter: false,
        ..DecideOptions::default()
    };
    for (t1, t2) in corpus {
        let q1 = parse_query(t1).unwrap();
        let q2 = parse_query(t2).unwrap();
        for options in [witness_free(), DecideOptions::default(), lp_only.clone()] {
            check_equivalence(&q1, &q2, &options)
                .unwrap_or_else(|message| panic!("{message} (options {options:?})"));
        }
    }
}

/// With the counting refuter disabled the pipeline takes exactly the legacy
/// LP path, so summaries are bit-identical even on refuter-friendly pairs.
#[test]
fn refuter_disabled_reproduces_legacy_exactly() {
    let options = DecideOptions {
        counting_refuter: false,
        ..DecideOptions::default()
    };
    for seed in 0..40u64 {
        let q1 = random_boolean_query(4, 4, seed);
        let q2 = random_boolean_query(4, 4, seed.wrapping_mul(0x2545_f491));
        let decision = decide_traced(&q1, &q2, &options);
        assert_ne!(decision.trace.decided_by(), Some("counting-refuter"));
        let legacy = decide_containment_legacy(&q1, &q2, &options).unwrap();
        assert_eq!(decision.answer.summary(), legacy.summary(), "{q1} vs {q2}");
    }
}

/// Regression (PR 5 bugfix): the non-chordal single-bag fallback used to
/// discard the violating polymatroid of the failed Γ_n check; the pipeline
/// returns it, and it is a genuine polymatroid.
#[test]
fn non_chordal_unknown_carries_the_violating_polymatroid() {
    // Q2 is a 4-cycle (not chordal); Q1 embeds it but has two extra
    // variables no homomorphism covers, so the single-bag sufficient check
    // fails and the instance is undecided.
    let q1 = parse_query("Q1() :- R(a,b), R(b,c), R(c,d), R(d,a), S(u,v)").unwrap();
    let q2 = parse_query("Q2() :- R(p,q), R(q,r), R(r,s), R(s,p)").unwrap();
    let answer = decide_containment_with(&q1, &q2, &DecideOptions::default()).unwrap();
    match &answer {
        ContainmentAnswer::Unknown {
            obstruction,
            counterexample,
        } => {
            assert_eq!(obstruction.to_string(), "containing query is not chordal");
            let counterexample = counterexample
                .as_ref()
                .expect("the violating polymatroid must be returned, not discarded");
            assert!(is_polymatroid(counterexample));
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
    // The legacy oracle preserves the old behaviour (polymatroid dropped) —
    // the verdict is unchanged, only the payload was upgraded.
    let legacy = decide_containment_legacy(&q1, &q2, &DecideOptions::default()).unwrap();
    match &legacy {
        ContainmentAnswer::Unknown { counterexample, .. } => assert!(counterexample.is_none()),
        other => panic!("expected Unknown from legacy, got {other:?}"),
    }
    assert_eq!(answer.summary(), legacy.summary());
}
