//! The two batch workloads, gamma-cold and screen-mix: passes over one
//! question set through `Engine::decide_batch`, each pass on a fresh engine
//! and in its own seeded order.

use crate::gate::{digest, Gate};
use crate::inputs::{gamma_questions, screen_questions, shuffle, Question, SplitMix};
use crate::layers::{self, ServeLayer, Traced};
use crate::report::{median, ratio, Report};
use crate::trace::{Counters, SelfTimes};
use crate::{Args, RunDir, Sizes};
use bqc_core::{AnswerSummary, DecideOptions};
use bqc_engine::{parse_workload_line, BatchResult, Engine, EngineOptions, Provenance};
use bqc_relational::ConjunctiveQuery;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Γ_6 sub-query pairs, witnesses off: the LP layers do the work.
    Gamma,
    /// Fuzz-default pairs plus the corpus, parsed from text, witnesses on:
    /// the cheap layers, the witness search and the cache do the work.
    Screen,
}

impl Kind {
    /// Questions per `decide_batch` call.  gamma-cold sends its whole set as
    /// one batch; screen-mix goes in the `bqc fuzz` chunk of 256, so a
    /// seconds-long witness search holds up one chunk, not a whole pass.
    fn chunk(self) -> usize {
        match self {
            Kind::Gamma => usize::MAX,
            Kind::Screen => 256,
        }
    }
}

fn options(kind: Kind, workers: usize) -> EngineOptions {
    EngineOptions {
        workers,
        decide: DecideOptions {
            extract_witness: kind == Kind::Screen,
            ..DecideOptions::default()
        },
        ..EngineOptions::default()
    }
}

type Pair = (ConjunctiveQuery, ConjunctiveQuery);

/// The inputs of one pass in the pass's order: built pairs for gamma-cold,
/// workload lines (parsed inside the pass, as the `bqc` text path does) for
/// screen-mix.
enum Input<'a> {
    Pairs(Vec<Pair>),
    Lines(Vec<&'a str>),
}

fn input<'a>(kind: Kind, set: &'a [Question], order: &[usize]) -> Input<'a> {
    match kind {
        Kind::Gamma => Input::Pairs(
            order
                .iter()
                .map(|&i| (set[i].q1.clone(), set[i].q2.clone()))
                .collect(),
        ),
        Kind::Screen => Input::Lines(order.iter().map(|&i| set[i].line.as_str()).collect()),
    }
}

/// One pass; `results` are in the pass's order.
struct Pass {
    wall_s: f64,
    /// `(wall, questions)` of each `decide_batch` call.
    chunks: Vec<(f64, usize)>,
    results: Vec<BatchResult>,
    parse_errors: u64,
}

fn pass(input: &Input<'_>, chunk: usize, engine: &Engine) -> Pass {
    let start = Instant::now();
    let mut parse_errors = 0;
    let parsed: Vec<Pair>;
    let requests = match input {
        Input::Pairs(pairs) => pairs,
        Input::Lines(lines) => {
            let mut out = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let _span = bqc_obs::span("parse-workload-line");
                match parse_workload_line(line, i + 1) {
                    Ok(Some(entry)) => out.push((entry.q1, entry.q2)),
                    _ => parse_errors += 1,
                }
            }
            parsed = out;
            &parsed
        }
    };
    let mut results = Vec::with_capacity(requests.len());
    let mut chunks = Vec::new();
    for chunk in requests.chunks(chunk) {
        let call = Instant::now();
        results.extend(engine.decide_batch(chunk));
        chunks.push((call.elapsed().as_secs_f64(), chunk.len()));
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        chunks,
        results,
        parse_errors,
    }
}

impl Pass {
    fn errors(&self) -> u64 {
        self.parse_errors + self.results.iter().filter(|r| r.answer.is_err()).count() as u64
    }

    /// Verdicts in set order (`order[k]` is the set index of result `k`);
    /// `None` for a failed decision.
    fn by_question(&self, order: &[usize]) -> Vec<Option<AnswerSummary>> {
        let mut out = vec![None; order.len()];
        for (&i, result) in order.iter().zip(&self.results) {
            out[i] = result.answer.clone().ok();
        }
        out
    }

    fn digest(&self, order: &[usize]) -> u64 {
        digest(self.by_question(order).iter().map(Option::as_ref))
    }

    fn fresh_decide_us(&self) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.provenance == Provenance::Fresh)
            .map(|r| r.micros as f64)
            .collect()
    }

    /// Σ fresh-decide time ÷ (workers × Σ `decide_batch` wall).
    fn busy_fraction(&self, workers: usize) -> f64 {
        let busy: f64 = self.fresh_decide_us().iter().sum::<f64>() * 1e-6;
        let wall: f64 = self.chunks.iter().map(|&(w, _)| w).sum();
        ratio(busy, workers as f64 * wall)
    }
}

/// Replays the reference pass against the oracle, and checks that every
/// line parses back into its pair.
fn gate_pass(args: &Args, set: &[Question], answers: &[Option<AnswerSummary>], gate: &mut Gate) {
    let Some(answers) = answers.iter().copied().collect::<Option<Vec<_>>>() else {
        gate.fail("the reference pass had decision errors".to_string());
        return;
    };
    for (i, q) in set.iter().enumerate() {
        let reparsed = parse_workload_line(&q.line, i + 1).ok().flatten();
        gate.check(
            reparsed.is_some_and(|e| e.q1 == q.q1 && e.q2 == q.q2),
            || format!("line `{}` does not parse back to its pair", q.line),
        );
    }
    let refs: Vec<&Question> = set.iter().collect();
    gate.replay(args.seed, &refs, &answers, args.threads);
}

fn decided_share(answers: &[Option<AnswerSummary>]) -> f64 {
    let decided = answers
        .iter()
        .filter(|a| matches!(a, Some(a) if !matches!(a, AnswerSummary::Unknown { .. })))
        .count();
    ratio(decided as f64, answers.len() as f64)
}

pub fn run(kind: Kind, args: &Args, sizes: &Sizes, run_dir: &RunDir) -> Result<Report, String> {
    let mut report = Report::default();
    let mut gate = Gate::default();
    let questions = |seed| match kind {
        Kind::Gamma => gamma_questions(seed, sizes.gamma_questions),
        Kind::Screen => screen_questions(seed, sizes.screen_pairs),
    };

    // Set-up: generate the question set and start an engine, several times.
    let mut setup_s = Vec::new();
    let mut set = Vec::new();
    let mut engine = Engine::new(options(kind, args.threads));
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        set = questions(args.seed);
        engine = Engine::new(options(kind, args.threads));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let identity: Vec<usize> = (0..set.len()).collect();

    if !args.trace {
        // Reference pass on the set-up engine, in set order: its verdicts
        // are gated, and every timed pass must reproduce them.
        let reference = pass(&input(kind, &set, &identity), kind.chunk(), &engine);
        let reference_answers = reference.by_question(&identity);
        let reference_digest = reference.digest(&identity);
        // Peak memory over set-up and one full pass.  Later passes start new
        // worker threads that reuse the allocator arenas of exited ones in
        // no fixed order, which moved the process peak by ~25% run to run.
        let peak_rss_mb = crate::report::peak_rss_mb();
        let mut failed = reference.errors() + engine.fault_stats().panics;
        // Timed passes, each on a fresh engine in its own order, so that
        // no single order's warm-start chains and stragglers set the number.
        let mut rng = SplitMix::new(args.seed ^ 0x0de5);
        let mut passes_s = Vec::new();
        let mut latency_ms = Vec::new();
        let window = Instant::now();
        while passes_s.len() < sizes.min_passes || window.elapsed().as_secs_f64() < args.seconds {
            let mut order = identity.clone();
            shuffle(&mut order, &mut rng);
            let input = input(kind, &set, &order);
            let engine = Engine::new(options(kind, args.threads));
            let timed = pass(&input, kind.chunk(), &engine);
            failed += timed.errors() + engine.fault_stats().panics;
            gate.check(timed.digest(&order) == reference_digest, || {
                format!("timed pass {} changed verdicts", passes_s.len() + 1)
            });
            passes_s.push(timed.wall_s);
            // A caller submitting the set waits for the whole pass: every
            // question's latency is the pass wall.
            latency_ms.extend(std::iter::repeat_n(timed.wall_s * 1e3, set.len()));
        }
        gate_pass(args, &set, &reference_answers, &mut gate);
        gate.verdict()?;

        let passes = passes_s.len();
        let timed_s: f64 = passes_s.iter().sum();
        report.attempted = (set.len() * (passes + 1)) as u64;
        report.failed = failed;
        report.note(format!(
            "workload {} seed {}: {} questions, {passes} timed passes ({timed_s:.3} s), \
             {} threads, up to {} questions per decide_batch call",
            args.workload.name(),
            args.seed,
            set.len(),
            args.threads,
            kind.chunk().min(set.len())
        ));
        report.note(format!(
            "gate: {} oracle replays, verdict digest {reference_digest:016x}",
            gate.oracle_checks
        ));
        report.note(format!(
            "latency samples: {} questions ({passes} passes); a question's latency is the \
             wall time of the pass that answered it",
            latency_ms.len()
        ));
        report.note(format!(
            "failed_share = {}/{} = {}",
            report.failed,
            report.attempted,
            ratio(report.failed as f64, report.attempted as f64)
        ));
        // The median pass, so a burst of load from outside the process
        // during one pass does not set the number.
        let median_pass_s = median(&mut passes_s.clone());
        report.metric("pairs_per_s", set.len() as f64 / median_pass_s, "1/s");
        crate::report::latency_metrics(&mut report, &mut latency_ms);
        report.metric("setup_s", median(&mut setup_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        report.metric("decided_share", decided_share(&reference_answers), "ratio");
        return Ok(report);
    }

    // Traced run, in set order over a prefix of the set: untraced, traced
    // and untraced again with one engine worker (identical work), then
    // untraced with `nproc` workers for the fan-out busy fraction.
    let n = match kind {
        Kind::Gamma => sizes.gamma_trace.min(set.len()),
        Kind::Screen => set.len(),
    };
    let (set, order) = (&set[..n], &identity[..n]);
    let input = input(kind, set, order);
    let untraced = pass(&input, kind.chunk(), &Engine::new(options(kind, 1)));

    let traced_engine = Engine::new(options(kind, 1));
    let counters = Counters::now();
    bqc_obs::start_tracing();
    let traced = {
        let _span = bqc_obs::span("bench-pass");
        pass(&input, kind.chunk(), &traced_engine)
    };
    // A restart: persist the warm cache and restore it into a new engine.
    let snapshot_path = run_dir.path().join("batch.snapshot");
    let saved = {
        let _span = bqc_obs::span("bench-save-snapshot");
        traced_engine.save_snapshot(&snapshot_path)
    };
    if saved.is_ok() {
        let _span = bqc_obs::span("bench-load-snapshot");
        Engine::new(options(kind, 1)).load_snapshot(&snapshot_path);
    }
    let spans = SelfTimes::from_trace(&bqc_obs::stop_tracing());
    let counters = counters.close();
    saved.map_err(|e| format!("save_snapshot: {e}"))?;
    let untraced_after = pass(&input, kind.chunk(), &Engine::new(options(kind, 1)));
    let fanout = pass(
        &input,
        kind.chunk(),
        &Engine::new(options(kind, args.threads)),
    );

    let reference_answers = untraced.by_question(order);
    let reference_digest = untraced.digest(order);
    for (name, other) in [
        ("traced", &traced),
        ("second untraced", &untraced_after),
        ("fan-out", &fanout),
    ] {
        gate.check(other.digest(order) == reference_digest, || {
            format!("{name} pass changed verdicts")
        });
    }
    gate_pass(args, set, &reference_answers, &mut gate);
    // The serve layer is measured on a daemon holding screen-mix pairs.
    let (serve, serve_attempted, serve_failed) = match kind {
        Kind::Screen => crate::serve::measure(args, sizes, run_dir, &mut gate, &mut report)?,
        Kind::Gamma => (ServeLayer::default(), 0, 0),
    };
    gate.verdict()?;

    let all = [&untraced, &traced, &untraced_after, &fanout];
    report.attempted = (all.len() * n) as u64 + serve_attempted;
    report.failed = all.iter().map(|p| p.errors()).sum::<u64>() + serve_failed;
    report.note(format!(
        "workload {} seed {} traced: {n} questions, verdict digest {reference_digest:016x}, \
         {} oracle replays",
        args.workload.name(),
        args.seed,
        gate.oracle_checks
    ));
    layers::emit(
        &mut report,
        Traced {
            counters: &counters,
            spans: &spans,
            engine: &traced_engine,
            decide_us: traced.fresh_decide_us(),
            untraced_s: (untraced.wall_s + untraced_after.wall_s) / 2.0,
            traced_s: traced.wall_s,
            busy_fraction: fanout.busy_fraction(args.threads),
            serve,
        },
    );
    Ok(report)
}
