#![cfg(feature = "failpoints")]
//! The failpoint-driven chaos suite.
//!
//! Run with the failpoint table compiled in:
//!
//! ```text
//! cargo test --features failpoints --test chaos
//! ```
//!
//! Each test exercises a fault interleaving the design claims to survive
//! (ARCHITECTURE.md § Resource governance, docs/OPERATIONS.md § Budgets and
//! degraded answers):
//!
//! * a panic injected into a pipeline stage is contained to that one
//!   request — the engine, the daemon and every concurrent connection keep
//!   serving, and the poisoned pair can be re-asked;
//! * a `kill -9` (via `abort` failpoints inside `write_snapshot_file`) at
//!   any moment of a snapshot write leaves a loadable snapshot — the old one
//!   or the new one, never a torn file;
//! * a deadline-exceeded request degrades to
//!   `ok verdict=unknown obstruction=resource-exhausted` over the wire and
//!   at the CLI, quickly, and a generous budget changes no verdict.
//!
//! In-process tests arm the process-global failpoint table and must not
//! overlap each other (`FAILPOINTS` mutex).  Subprocess tests configure
//! their `bqc` children through the `BQC_FAILPOINTS` environment variable
//! instead and need no serialization.

use bag_query_containment::core::AnswerSummary;
use bag_query_containment::engine::{load_or_quarantine, Engine, EngineOptions, LoadOutcome};
use bag_query_containment::obs::failpoints;
use bag_query_containment::obs::FailAction;
use bag_query_containment::relational::{parse_query, ConjunctiveQuery};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static FAILPOINTS: Mutex<()> = Mutex::new(());

fn q(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("test query parses")
}

/// cycle_7 ⊑ path_6 in workload pair syntax: containment holds, every cheap
/// screen passes through, and the Γ_7 LP decides — heavy enough that a 10ms
/// deadline always fires first in a test-profile build.
fn gamma7_pair_line() -> &'static str {
    "Q1() :- R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x5), R(x5,x6), R(x6,x7), R(x7,x1) ; \
     Q2() :- R(y1,y2), R(y2,y3), R(y3,y4), R(y4,y5), R(y5,y6), R(y6,y7)"
}

fn bqc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bqc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bqc-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating chaos temp dir");
    dir
}

/// A spawned `bqc serve` child.  Its stdin stays piped (and open) for the
/// child's lifetime, so merely dropping this struct makes an abandoned
/// daemon shut itself down on stdin EOF.
struct ServeChild {
    child: Child,
    addr: String,
}

impl ServeChild {
    fn spawn(extra_args: &[&str], failpoints: Option<&str>) -> ServeChild {
        let mut cmd = bqc();
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = failpoints {
            cmd.env("BQC_FAILPOINTS", spec);
        }
        let mut child = cmd.spawn().expect("spawning bqc serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if lines.read_line(&mut line).expect("reading serve stdout") == 0 {
                panic!("bqc serve exited before announcing its address");
            }
            if let Some(rest) = line.trim().strip_prefix("bqc serve: listening on ") {
                break rest.to_string();
            }
        };
        // Keep draining stdout so the child can never block on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while lines.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        ServeChild { child, addr }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connecting to bqc serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("setting read timeout");
        let reader = BufReader::new(stream.try_clone().expect("cloning stream"));
        let mut conn = Conn { stream, reader };
        let banner = conn.read_line();
        assert!(
            banner.starts_with("ok bqc-serve proto="),
            "banner: {banner}"
        );
        conn
    }

    /// Closes stdin (the graceful-shutdown request) and reaps the child.
    /// For children that already died at a failpoint this just reaps.
    fn shutdown_and_wait(mut self) -> std::process::ExitStatus {
        drop(self.child.stdin.take());
        self.child.wait().expect("waiting for bqc serve")
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// One request/response round trip.  `Ok("")` means the server closed
    /// the connection (EOF) — expected when a failpoint killed it.
    fn try_request(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        Ok(reply.trim_end().to_string())
    }

    fn request(&mut self, line: &str) -> String {
        self.try_request(line).expect("request round trip")
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reading response");
        line.trim_end().to_string()
    }
}

/// Satellite regression test: after a contained stage panic, the *next*
/// batch on the same engine is fully served — no poisoned lock, no cached
/// error.
#[test]
fn engine_survives_a_contained_stage_panic_and_serves_the_next_batch() {
    let _guard = FAILPOINTS
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    failpoints::clear_all();
    let engine = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    let batch = vec![
        (
            q("Q1() :- R(x,y), R(y,z), R(z,x)"),
            q("Q2() :- R(u,v), R(u,w)"),
        ),
        (q("A() :- S(x,y)"), q("B() :- S(u,v)")),
        (q("C() :- T(x,y), T(y,z)"), q("D() :- T(u,v), T(v,w)")),
    ];

    failpoints::set("pipeline::stage", FailAction::Panic { remaining: Some(1) });
    let first = engine.decide_batch(&batch);
    failpoints::clear_all();

    let panicked: Vec<usize> = first
        .iter()
        .enumerate()
        .filter(|(_, r)| r.answer.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        panicked.len(),
        1,
        "exactly one request absorbs the injected panic: {first:?}"
    );
    let message = first[panicked[0]].answer.as_ref().unwrap_err().to_string();
    assert!(
        message.contains("panicked") && message.contains("failpoint pipeline::stage hit"),
        "the error names the contained panic: {message}"
    );
    assert_eq!(engine.fault_stats().panics, 1);

    let second = engine.decide_batch(&batch);
    let healed: Vec<AnswerSummary> = second
        .into_iter()
        .map(|r| r.answer.expect("fully served after containment"))
        .collect();
    let clean: Vec<AnswerSummary> = Engine::default()
        .decide_batch(&batch)
        .into_iter()
        .map(|r| r.answer.expect("clean engine decides"))
        .collect();
    assert_eq!(healed, clean, "verdicts match an untouched engine");
}

/// Acceptance: an injected stage panic answers `error decide` for the
/// poisoned pair while the daemon — and a concurrent connection — keep
/// serving correct answers; the pair can be re-asked because contained
/// panics are never cached.
#[test]
fn serve_keeps_serving_through_an_injected_stage_panic() {
    let server = ServeChild::spawn(&[], Some("pipeline::stage=panic(1)"));
    let mut poisoned = server.connect();
    let mut healthy = server.connect();

    let triangle_in_star = "Q1() :- R(x,y), R(y,z), R(z,x) ; Q2() :- R(u,v), R(u,w)";
    let reply = poisoned.request(triangle_in_star);
    assert!(
        reply.starts_with("error decide") && reply.contains("panicked"),
        "the poisoned pair answers error decide: {reply}"
    );

    let ok = healthy.request("A() :- S(x,y) ; B() :- S(u,v)");
    assert!(
        ok.starts_with("ok verdict=contained"),
        "a concurrent connection is served correctly: {ok}"
    );

    let retry = poisoned.request(triangle_in_star);
    assert!(
        retry.starts_with("ok verdict=contained"),
        "re-asking the poisoned pair succeeds (never cached): {retry}"
    );

    let stats = poisoned.request("!stats");
    assert!(stats.contains(" panics=1"), "the panic is counted: {stats}");

    assert!(server.shutdown_and_wait().success());
}

/// A panic in the batcher itself (injected at the `serve::batch` failpoint,
/// upstream of the engine's own containment) fails only that micro-batch
/// with `error decide batch panicked`; the daemon keeps serving.
#[test]
fn a_batcher_panic_fails_only_that_batch() {
    let server = ServeChild::spawn(&[], Some("serve::batch=panic(1)"));
    let mut conn = server.connect();

    let reply = conn.request("A() :- S(x,y) ; B() :- S(u,v)");
    assert_eq!(reply, "error decide batch panicked; request not decided");

    let retry = conn.request("A() :- S(x,y) ; B() :- S(u,v)");
    assert!(
        retry.starts_with("ok verdict=contained"),
        "the next batch is served: {retry}"
    );

    assert!(server.shutdown_and_wait().success());
}

/// Acceptance: a deadline-exceeded request answers
/// `ok verdict=unknown obstruction=resource-exhausted` over the wire, and
/// the same daemon still gives cheap requests their real verdict.
#[test]
fn deadline_exceeded_requests_degrade_over_the_wire() {
    let server = ServeChild::spawn(&["--request-deadline-ms", "10"], None);
    let mut conn = server.connect();

    let reply = conn.request(gamma7_pair_line());
    assert!(
        reply.starts_with("ok verdict=unknown obstruction=resource-exhausted resource=deadline"),
        "Γ_7-scale request degrades under a 10ms deadline: {reply}"
    );

    let ok = conn.request("A() :- S(x,y) ; B() :- S(u,v)");
    assert!(
        ok.starts_with("ok verdict=contained"),
        "a cheap request on the same daemon finishes within budget: {ok}"
    );

    let stats = conn.request("!stats");
    assert!(
        stats.contains(" budget-exhausted=1"),
        "the degraded answer is counted and excluded from the cache: {stats}"
    );

    assert!(server.shutdown_and_wait().success());
}

/// Acceptance: `bqc --deadline-ms 10` on a cold Γ_7-scale workload returns
/// promptly with a resource-exhausted `unknown` (`--fail-on unknown` gates
/// it), and `--max-pivots` degrades the same way.
#[test]
fn the_cli_budget_flags_degrade_a_gamma7_scale_workload() {
    let dir = temp_dir("cli-deadline");
    let file = dir.join("gamma7.bqc");
    std::fs::write(&file, format!("{}\n", gamma7_pair_line())).expect("writing workload");

    let start = Instant::now();
    let out = bqc()
        .args(["--deadline-ms", "10", "--fail-on", "unknown"])
        .arg(&file)
        .output()
        .expect("running bqc");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(3),
        "the degraded verdict trips --fail-on unknown: {stdout}"
    );
    assert!(
        stdout.contains("undecided: deadline budget exhausted"),
        "{stdout}"
    );
    // Far looser than the ~10ms the decision itself takes, but still orders
    // of magnitude below an unbudgeted Γ_7 solve in a test-profile build:
    // the budget demonstrably cut the decision short.
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");

    let out = bqc()
        .args(["--max-pivots", "1", "--fail-on", "unknown"])
        .arg(&file)
        .output()
        .expect("running bqc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(
        stdout.contains("undecided: pivots budget exhausted"),
        "{stdout}"
    );
}

/// A generous budget arms every check but never fires: verdicts across the
/// smoke workload (contained, refuted, deduped) and the headed corpus
/// (whose witness ladders charge the budget) are identical to the
/// unbudgeted run's.
#[test]
fn a_generous_budget_does_not_change_any_verdict() {
    let verdicts = |file: &str, args: &[&str]| -> Vec<String> {
        let out = bqc()
            .arg("--json")
            .args(args)
            .arg(file)
            .output()
            .expect("running bqc");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        text.match_indices("\"verdict\": \"")
            .map(|(at, token)| {
                let rest = &text[at + token.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    for file in [
        "examples/workloads/smoke.bqc",
        "examples/corpus/boolean_reduction.bqc",
    ] {
        let plain = verdicts(file, &[]);
        let budgeted = verdicts(
            file,
            &["--deadline-ms", "600000", "--max-pivots", "1000000000"],
        );
        assert!(!plain.is_empty(), "{file} reports verdicts");
        assert_eq!(budgeted, plain, "{file}");
    }
}

/// Satellite torture test: a `bqc serve` child is killed (abort — the
/// kill -9 stand-in, no unwinding, no cleanup) at rotating moments inside
/// `write_snapshot_file` — mid payload write, before fsync, before the
/// atomic rename — across 100 rounds.  After every kill the snapshot on
/// disk must load cleanly: the old one (kill before rename) or the new one
/// (clean round), never a torn file, never a quarantine.
#[test]
fn sigkill_during_snapshot_always_leaves_a_loadable_snapshot() {
    let dir = temp_dir("snapshot-torture");
    let snapshot = dir.join("decisions.snap");
    let snapshot_arg = snapshot.to_str().expect("utf-8 temp path").to_string();

    // Seed the first valid snapshot with a clean run.
    {
        let server = ServeChild::spawn(&["--snapshot", &snapshot_arg], None);
        let mut conn = server.connect();
        assert!(conn
            .request("A0() :- S0(x,y) ; B0() :- S0(u,v)")
            .starts_with("ok "));
        assert!(conn.request("!snapshot").starts_with("ok snapshot"));
        assert!(server.shutdown_and_wait().success());
    }
    assert!(matches!(
        load_or_quarantine(&snapshot),
        LoadOutcome::Loaded(_)
    ));

    const KILLS: [Option<&str>; 4] = [
        Some("persist::mid-write=abort"),
        Some("persist::pre-fsync=abort"),
        Some("persist::pre-rename=abort"),
        None, // every fourth round survives, refreshing the "old" snapshot
    ];
    for round in 0..100 {
        let kill = KILLS[round % KILLS.len()];
        let server = ServeChild::spawn(&["--snapshot", &snapshot_arg], kill);
        let mut conn = server.connect();
        // A fresh cache entry per round, so every snapshot write has new
        // bytes to tear.
        let line = format!("A{round}() :- S{round}(x,y) ; B{round}() :- S{round}(u,v)");
        assert!(conn.request(&line).starts_with("ok "), "round {round}");
        match conn.try_request("!snapshot") {
            Ok(reply) if kill.is_none() => {
                assert!(reply.starts_with("ok snapshot"), "round {round}: {reply}")
            }
            // Armed rounds: the child aborted mid-write, so EOF ("") or a
            // connection reset are both the expected outcome.
            _ => {}
        }
        let status = server.shutdown_and_wait();
        match kill {
            None => assert!(status.success(), "round {round}: clean shutdown"),
            Some(spec) => assert!(
                !status.success(),
                "round {round}: the armed failpoint `{spec}` must have killed the child"
            ),
        }
        match load_or_quarantine(&snapshot) {
            LoadOutcome::Loaded(_) => {}
            other => panic!("round {round} ({kill:?}) left an unloadable snapshot: {other:?}"),
        }
    }
}
