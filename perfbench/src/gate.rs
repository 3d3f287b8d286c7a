//! The correctness gate.  A run with any discrepancy fails and reports no
//! numbers.
//!
//! * Every verdict is replayed against the counting oracle the way `bqc fuzz`
//!   does it: [`check_summary`] on a [`database_family`] seeded per question.
//! * Corpus cases must match their `# EXPECT:` verdict, and a `# WITNESS:`
//!   database must separate the pair by explicit counting.
//! * Repeated passes over one question set must give the same verdicts, and
//!   serve-hot responses must match the in-process verdict of their pair.

use crate::inputs::Question;
use bqc_bench::families::{database_family, FamilyConfig};
use bqc_core::oracle::{check_summary, count_violation};
use bqc_core::AnswerSummary;
use bqc_engine::{fnv1a, ExpectedVerdict};
use bqc_serve::verdict_token;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Failures collected by the gate; more than a handful are summarized.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    failure_count: usize,
    /// Oracle replays made (distinct question lines).
    pub oracle_checks: usize,
}

const MAX_REPORTED: usize = 8;

impl Gate {
    pub fn fail(&mut self, message: String) {
        self.failure_count += 1;
        if self.failures.len() < MAX_REPORTED {
            self.failures.push(message);
        }
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    pub fn passed(&self) -> bool {
        self.failure_count == 0
    }

    /// `Ok` if nothing failed, else a multi-line description.
    pub fn verdict(&self) -> Result<(), String> {
        if self.passed() {
            return Ok(());
        }
        let mut text = format!(
            "correctness gate failed ({} discrepancies)",
            self.failure_count
        );
        for failure in &self.failures {
            text.push_str("\n  ");
            text.push_str(failure);
        }
        Err(text)
    }

    /// Replays every answer against the oracle (once per distinct line) and
    /// checks corpus expectations.  `answers[i]` belongs to `questions[i]`.
    pub fn replay(
        &mut self,
        seed: u64,
        questions: &[&Question],
        answers: &[AnswerSummary],
        threads: usize,
    ) {
        assert_eq!(questions.len(), answers.len());
        for (q, answer) in questions.iter().zip(answers) {
            if let Some(expect) = q.expect {
                self.check(matches_expectation(expect, answer), || {
                    format!(
                        "corpus case `{}` expected {expect}, got {}",
                        q.line,
                        verdict_token(answer)
                    )
                });
            }
            if let Some(witness) = &q.witness {
                let separates = matches!(count_violation(&q.q1, &q.q2, witness), Ok(Some(_)));
                self.check(separates, || {
                    format!("corpus witness does not separate `{}`", q.line)
                });
            }
        }
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut jobs: Vec<usize> = Vec::new();
        for (i, q) in questions.iter().enumerate() {
            match first.get(q.line.as_str()) {
                Some(&j) => self.check(answers[i] == answers[j], || {
                    format!("`{}` answered two ways in one pass", q.line)
                }),
                None => {
                    first.insert(q.line.as_str(), i);
                    jobs.push(i);
                }
            }
        }
        self.oracle_checks += jobs.len();
        let next = AtomicUsize::new(0);
        let found: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = jobs.get(k) else { break };
                    let q = questions[i];
                    let config = FamilyConfig {
                        seed: seed ^ fnv1a(q.line.as_bytes()),
                        ..FamilyConfig::default()
                    };
                    let family = database_family(&q.q1, &q.q2, &config);
                    let report = check_summary(&q.q1, &q.q2, answers[i], &family);
                    if !report.ok() {
                        found
                            .lock()
                            .expect("no oracle thread panics holding the lock")
                            .push(format!(
                                "oracle rejects {} for `{}`: {}",
                                verdict_token(&answers[i]),
                                q.line,
                                report.discrepancies[0]
                            ));
                    }
                });
            }
        });
        for message in found.into_inner().expect("oracle threads joined") {
            self.fail(message);
        }
    }
}

fn matches_expectation(expect: ExpectedVerdict, answer: &AnswerSummary) -> bool {
    match expect {
        ExpectedVerdict::Contained => answer.is_contained(),
        ExpectedVerdict::NotContained => answer.is_not_contained(),
        ExpectedVerdict::Unknown => matches!(answer, AnswerSummary::Unknown { .. }),
    }
}

/// FNV-1a over the verdict tokens (`error` for a failed decision), in
/// question order: equal digests mean equal verdict sequences.
pub fn digest<'a>(answers: impl IntoIterator<Item = Option<&'a AnswerSummary>>) -> u64 {
    let mut text = String::new();
    for answer in answers {
        text.push_str(answer.map_or("error", verdict_token));
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}
