//! `--self-test`: a tiny run of every workload in both modes that must emit
//! exactly the metric names `BENCHMARK.json` lists, plus checks that the
//! correctness gate catches injected wrong answers.

use crate::gate::{digest, Gate};
use crate::inputs::{corpus_questions, Question};
use crate::serve::{classify, Expect, Outcome};
use crate::{Args, Sizes, Workload};
use bqc_core::AnswerSummary;
use bqc_engine::ExpectedVerdict;
use bqc_relational::parse_query;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

fn run_tiny_workloads() -> Result<(), String> {
    let end_to_end = listed_names("end_to_end");
    let per_layer = listed_names("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                threads: 2,
            };
            let report = crate::run(&args, &Sizes::TINY)
                .map_err(|e| format!("{} trace={trace}: {e}", workload.name()))?;
            let expected = if trace { &per_layer } else { &end_to_end };
            let emitted: Vec<&str> = report.names().collect();
            check(
                emitted.len() == expected.len()
                    && expected.iter().all(|n| emitted.contains(&n.as_str())),
                &format!(
                    "{} trace={trace}: emitted {emitted:?}, BENCHMARK.json lists {expected:?}",
                    workload.name()
                ),
            )?;
            check(
                report.failed == 0 && report.attempted > 0,
                &format!(
                    "{} trace={trace}: failed operations\n{}",
                    workload.name(),
                    report.notes.join("\n")
                ),
            )?;
            if !trace {
                for name in expected {
                    let value = report.value(name).unwrap_or(0.0);
                    check(
                        value > 0.0,
                        &format!("{} end-to-end metric {name} is {value}", workload.name()),
                    )?;
                }
            }
            println!("self-test: {} trace={} ok", workload.name(), trace as u8);
        }
    }
    Ok(())
}

fn question(line: &str) -> Question {
    let (left, right) = line.split_once(';').expect("two sides");
    Question {
        q1: parse_query(left).expect("valid Q1"),
        q2: parse_query(right).expect("valid Q2"),
        line: line.to_string(),
        expect: None,
        witness: None,
    }
}

fn gate_catches_wrong_answers() -> Result<(), String> {
    // The 2-star is not contained in the triangle; claiming it is must be
    // caught by the oracle (the canonical database of Q1 separates).
    let star = question("Q1() :- R(u,v), R(u,w) ; Q2() :- R(x,y), R(y,z), R(z,x)");
    let mut gate = Gate::default();
    gate.replay(7, &[&star], &[AnswerSummary::Contained], 1);
    check(!gate.passed(), "oracle missed a wrong `contained`")?;
    let mut gate = Gate::default();
    let right = AnswerSummary::NotContained {
        witness_verified: true,
    };
    gate.replay(7, &[&star], &[right], 1);
    check(gate.passed(), "oracle rejected a right `not-contained`")?;

    // A corpus case answered against its `# EXPECT:` line.
    let corpus = corpus_questions();
    check(corpus.len() == 31, "the frozen corpus holds 31 cases")?;
    let case = corpus
        .iter()
        .find(|q| q.expect == Some(ExpectedVerdict::Unknown))
        .expect("an `unknown` case");
    let mut gate = Gate::default();
    gate.replay(7, &[case], &[AnswerSummary::Contained], 1);
    check(!gate.passed(), "gate missed a corpus expectation mismatch")?;

    // Serve responses.
    let contained = AnswerSummary::Contained;
    let answer = Expect::Answer(0xab, &contained);
    let ok = "ok verdict=contained provenance=cached micros=0 pair=00000000000000ab";
    check(
        classify(answer, ok)
            == Outcome::Answered {
                cached: true,
                fresh: false,
            },
        "a right serve answer",
    )?;
    for wrong in [
        "ok verdict=not-contained witness=verified provenance=cached micros=0 pair=00000000000000ab",
        "ok verdict=contained provenance=cached micros=0 pair=00000000000000ac",
    ] {
        check(
            matches!(classify(answer, wrong), Outcome::Wrong(_)),
            "a wrong serve answer",
        )?;
    }
    check(
        classify(answer, "busy queue depth=1024") == Outcome::Failed,
        "busy is a failure",
    )?;
    check(
        classify(Expect::ParseError, "error parse expected `;`") == Outcome::Handled,
        "a parse error answer to a malformed line",
    )?;
    check(
        classify(Expect::ParseError, ok) == Outcome::Failed,
        "any other answer to a malformed line is a failure",
    )?;
    check(
        classify(Expect::Snapshot, "error snapshot disk full") == Outcome::Failed,
        "a failed snapshot",
    )?;

    // Verdict digests tell verdict sequences apart.
    let a = [AnswerSummary::Contained, right];
    let b = [right, AnswerSummary::Contained];
    check(
        digest(a.iter().map(Some)) != digest(b.iter().map(Some)),
        "digests of different verdict sequences differ",
    )?;
    println!("self-test: correctness gate ok");
    Ok(())
}

pub fn run() -> Result<(), String> {
    gate_catches_wrong_answers()?;
    run_tiny_workloads()
}
