//! Seeded inputs for the three workloads.
//!
//! Every function here is a pure function of its seed: the same seed gives
//! the same questions, spellings and request lines.  The program under test
//! only ever sees what these functions produce.

use bqc_bench::families::{random_pair, PairConfig};
use bqc_bench::rename_shuffle;
use bqc_engine::{canonicalize_pair, parse_corpus, ExpectedVerdict};
use bqc_relational::{ConjunctiveQuery, Structure};
use std::collections::HashSet;

/// `random_pair` strategy index (`index % 5`) whose `Q2` is a sub-query of
/// `Q1`: a homomorphism `Q2 → Q1` always exists, so no cheap stage refutes
/// the pair and the Shannon-cone LP does the deciding.
const ATOM_SUBSET_STRATEGY: usize = 2;

/// The frozen copy of the repository's `# EXPECT:` corpus.
const CORPUS: [&str; 4] = [
    include_str!("../corpus/boolean_reduction.bqc"),
    include_str!("../corpus/near_miss.bqc"),
    include_str!("../corpus/paper_examples.bqc"),
    include_str!("../corpus/single_bag_fallback.bqc"),
];

/// One containment question and what the gate knows about it in advance.
#[derive(Clone, Debug)]
pub struct Question {
    pub q1: ConjunctiveQuery,
    pub q2: ConjunctiveQuery,
    /// The question as one workload line (`Q1 … ; Q2 …`).
    pub line: String,
    /// The corpus `# EXPECT:` verdict, for corpus cases.
    pub expect: Option<ExpectedVerdict>,
    /// The corpus `# WITNESS:` database, for corpus cases that carry one.
    pub witness: Option<Structure>,
}

impl Question {
    fn generated(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> Question {
        let line = format!("{q1} ; {q2}");
        Question {
            q1,
            q2,
            line,
            expect: None,
            witness: None,
        }
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (skew draws, interleaving positions, malformed-line variants).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5bd1_e995_u64.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Every workload draws its questions from `random_pair` under the
/// `bqc fuzz` default pair seed; `--seed` picks spellings, order and the
/// serve traffic mix.  One pair in a few thousand of this traffic (Γ_6 LPs,
/// witness searches of seconds) carries most of the time, so which pairs a
/// seed drew would move throughput by a fifth from seed to seed.
fn pair_seed() -> u64 {
    PairConfig::default().seed
}

/// `q` with both queries renamed and their atoms reordered.
fn respell(q: &Question, rng: &mut SplitMix) -> Question {
    let q1 = rename_shuffle(&q.q1, rng.next_u64());
    let q2 = rename_shuffle(&q.q2, rng.next_u64());
    Question::generated(q1, q2)
}

pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// gamma-cold: the first `count` sub-query pairs of `random_pair` traffic at
/// `max_vars: 6, max_atoms: 7` whose `Q1` spans at least three variables,
/// each respelled, in an order picked by `seed`.
pub fn gamma_questions(seed: u64, count: usize) -> Vec<Question> {
    let config = PairConfig {
        max_vars: 6,
        max_atoms: 7,
        seed: pair_seed(),
    };
    let mut rng = SplitMix::new(seed);
    let mut questions: Vec<Question> = (0usize..)
        .filter(|index| index % 5 == ATOM_SUBSET_STRATEGY)
        .map(|index| random_pair(index, &config))
        .filter(|(q1, _)| q1.vars().len() >= 3)
        .take(count)
        .map(|(q1, q2)| respell(&Question::generated(q1, q2), &mut rng))
        .collect();
    shuffle(&mut questions, &mut rng);
    questions
}

/// `count` pairs of `random_pair` traffic at the fuzz defaults
/// (`max_vars: 4, max_atoms: 5`, all five strategies), from `first_index`.
fn fuzz_default_questions(first_index: usize, count: usize) -> Vec<Question> {
    let config = PairConfig::default();
    (first_index..first_index + count)
        .map(|index| {
            let (q1, q2) = random_pair(index, &config);
            Question::generated(q1, q2)
        })
        .collect()
}

/// The 31 `# EXPECT:` corpus cases, each with its line as written.
pub fn corpus_questions() -> Vec<Question> {
    let mut out = Vec::new();
    for text in CORPUS {
        let cases = parse_corpus(text).expect("the frozen corpus parses");
        let lines: Vec<&str> = text.lines().collect();
        for case in cases {
            out.push(Question {
                line: lines[case.line - 1].to_string(),
                q1: case.q1,
                q2: case.q2,
                expect: Some(case.expect),
                witness: case.witness,
            });
        }
    }
    out
}

/// screen-mix: the first `count` fuzz-default pairs, each respelled, and the
/// corpus cases as written, in an order picked by `seed`.
pub fn screen_questions(seed: u64, count: usize) -> Vec<Question> {
    let mut rng = SplitMix::new(seed);
    let mut questions: Vec<Question> = fuzz_default_questions(0, count)
        .iter()
        .map(|q| respell(q, &mut rng))
        .chain(corpus_questions())
        .collect();
    shuffle(&mut questions, &mut rng);
    questions
}

/// Lines that must be answered `error parse …`.
const MALFORMED: [&str; 5] = [
    "Q1() :- R(x,y), R(y,z)",
    "Q1() :- R(x,y) ; Q2() :- R(u,",
    "Q1() :- R(x,?y) ; Q2() :- R(u,v)",
    "Q1() :- R(x,y) ; Q2() :- R(u,v) ; Q3() :- R(a,b)",
    "!reboot",
];

/// What the serve-hot client sends.
#[derive(Clone, Copy, Debug)]
pub enum Request {
    /// Spelling `spelling` of warm-pool pair `pick`.
    Pool { pick: usize, spelling: usize },
    /// A never-seen pair: index into the never-seen question list.
    Fresh { index: usize },
    /// A line that must be answered `error parse …`.
    Malformed { line: &'static str },
    /// `!snapshot`.
    Snapshot,
}

/// serve-hot's warm pool and never-seen pairs: the first `pool` fuzz-default
/// pairs (screen-mix pairs), then `fresh` further pairs whose canonical form
/// is in neither the pool nor earlier never-seen pairs.
pub fn serve_questions(pool: usize, fresh: usize) -> (Vec<Question>, Vec<Question>) {
    let pool_questions = fuzz_default_questions(0, pool);
    let mut seen: HashSet<String> = pool_questions
        .iter()
        .map(|q| canonicalize_pair(&q.q1, &q.q2).key)
        .collect();
    let mut fresh_questions = Vec::with_capacity(fresh);
    let mut index = pool;
    while fresh_questions.len() < fresh {
        let batch = fuzz_default_questions(index, 256);
        index += 256;
        for q in batch {
            if fresh_questions.len() < fresh && seen.insert(canonicalize_pair(&q.q1, &q.q2).key) {
                fresh_questions.push(q);
            }
        }
    }
    (pool_questions, fresh_questions)
}

/// Mix of one serve-hot client stream.  Request `n` (from 1) is a
/// `!snapshot` when `snapshot_every` divides it, else malformed at the middle
/// of each `malformed_every`, else never-seen at the middle of each
/// `fresh_every`; the offsets keep the three from landing on one request.
#[derive(Clone, Copy, Debug)]
pub struct ServeMix {
    /// One never-seen pair per this many requests.
    pub fresh_every: usize,
    /// One malformed line per this many requests.
    pub malformed_every: usize,
    /// One `!snapshot` per this many requests.
    pub snapshot_every: usize,
}

pub const SERVE_MIX: ServeMix = ServeMix {
    fresh_every: 50,
    malformed_every: 100,
    snapshot_every: 2_000,
};

/// `per_pair` spellings (as request lines) of every pool pair.
pub fn pool_spellings(seed: u64, pool: &[Question], per_pair: usize) -> Vec<Vec<String>> {
    let mut rng = SplitMix::new(seed);
    pool.iter()
        .map(|q| (0..per_pair).map(|_| respell(q, &mut rng).line).collect())
        .collect()
}

/// A seeded request stream of `len` requests for one client.  Pool pairs
/// are drawn with a cubic skew (about 46% of draws hit the first tenth of
/// the pool), each in one of `spellings` spellings.  Never-seen pairs are
/// handed out in order from `fresh_next`, stepping by `fresh_step`, so
/// clients never send the same never-seen pair.  Only the stream with
/// `snapshots` set sends `!snapshot`: one operator persisting at a time.
#[allow(clippy::too_many_arguments)]
pub fn serve_stream(
    seed: u64,
    pool: usize,
    spellings: usize,
    len: usize,
    fresh_next: usize,
    fresh_step: usize,
    mix: ServeMix,
    snapshots: bool,
) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    let mut fresh = fresh_next;
    (1..=len)
        .map(|n| {
            if snapshots && n % mix.snapshot_every == 0 {
                Request::Snapshot
            } else if n % mix.malformed_every == mix.malformed_every / 2 {
                Request::Malformed {
                    line: MALFORMED[rng.below(MALFORMED.len())],
                }
            } else if n % mix.fresh_every == mix.fresh_every / 2 {
                let index = fresh;
                fresh += fresh_step;
                Request::Fresh { index }
            } else {
                let pick = ((pool as f64) * rng.unit().powi(3)) as usize;
                Request::Pool {
                    pick: pick.min(pool - 1),
                    spelling: rng.below(spellings),
                }
            }
        })
        .collect()
}

/// An upper bound on the never-seen pairs a stream of `len` requests uses.
pub fn fresh_in_stream(len: usize, mix: ServeMix) -> usize {
    len.div_ceil(mix.fresh_every)
}
