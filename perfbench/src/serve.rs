//! The serve layer: an in-process `bqc_serve::Server` on loopback, restored
//! from a snapshot of a warm pool of screen-mix pairs, driven by closed-loop
//! clients.  Measured in the screen-mix traced run.
//!
//! The serve path is not an end-to-end workload of its own: on a shared
//! 2-vCPU machine its closed-loop throughput moved between 7k and 18k
//! questions/s from run to run with the host's load (41% IQR/median over ten
//! runs), wider than any bound the benchmark may set.

use crate::gate::{digest, Gate};
use crate::inputs::{
    fresh_in_stream, pool_spellings, serve_questions, serve_stream, Question, Request, ServeMix,
    SplitMix,
};
use crate::layers::ServeLayer;
use crate::report::{median, quantile, ratio, Report};
use crate::trace::Counters;
use crate::{Args, RunDir, Sizes};
use bqc_core::AnswerSummary;
use bqc_engine::{canonicalize_pair, parse_workload_line, Engine, EngineOptions, SnapshotLoad};
use bqc_serve::{verdict_token, ServeOptions, Server, ShutdownHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The warm pool, the never-seen pairs and the in-process verdict of each,
/// keyed by canonical pair hash.
struct Prepared {
    pool: Vec<Question>,
    pool_hashes: Vec<u64>,
    fresh: Vec<Question>,
    fresh_hashes: Vec<u64>,
    /// In-process verdicts: the pool's, then the never-seen pairs'.
    answers: Vec<AnswerSummary>,
    expected: HashMap<u64, AnswerSummary>,
    snapshot: PathBuf,
}

fn prepare(pool_size: usize, fresh_size: usize, run_dir: &RunDir) -> Result<Prepared, String> {
    let (pool, fresh) = serve_questions(pool_size, fresh_size);
    let hashes = |qs: &[Question]| -> Vec<u64> {
        qs.iter()
            .map(|q| canonicalize_pair(&q.q1, &q.q2).hash)
            .collect()
    };
    let (pool_hashes, fresh_hashes) = (hashes(&pool), hashes(&fresh));
    let reference = Engine::default();
    let decide = |qs: &[Question]| -> Result<Vec<AnswerSummary>, String> {
        let pairs: Vec<_> = qs.iter().map(|q| (q.q1.clone(), q.q2.clone())).collect();
        reference
            .decide_batch(&pairs)
            .into_iter()
            .map(|r| {
                r.answer
                    .map_err(|e| format!("in-process decision failed: {e}"))
            })
            .collect()
    };
    let mut answers = decide(&pool)?;
    let snapshot = run_dir.path().join("pool.snapshot");
    reference
        .save_snapshot(&snapshot)
        .map_err(|e| format!("saving the pool snapshot: {e}"))?;
    answers.extend(decide(&fresh)?);
    let expected = pool_hashes
        .iter()
        .chain(&fresh_hashes)
        .copied()
        .zip(answers.iter().copied())
        .collect();
    Ok(Prepared {
        pool,
        pool_hashes,
        fresh,
        fresh_hashes,
        answers,
        expected,
        snapshot,
    })
}

impl Prepared {
    /// Replays the in-process verdicts of the pool and of the first
    /// `fresh_sent` never-seen pairs against the oracle.
    fn replay(&self, args: &Args, fresh_sent: usize, gate: &mut Gate) {
        let questions: Vec<&Question> = self.pool.iter().chain(&self.fresh[..fresh_sent]).collect();
        gate.replay(
            args.seed,
            &questions,
            &self.answers[..questions.len()],
            args.threads,
        );
    }

    fn pool_digest(&self) -> u64 {
        digest(self.answers[..self.pool.len()].iter().map(Some))
    }
}

/// A running daemon on an OS-assigned loopback port.
struct Daemon {
    engine: Arc<Engine>,
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<bqc_serve::ServeSummary>>,
}

impl Daemon {
    fn start(workers: usize, snapshot: &Path, save_to: PathBuf) -> Result<Daemon, String> {
        let engine = Arc::new(Engine::new(EngineOptions {
            workers,
            ..EngineOptions::default()
        }));
        match engine.load_snapshot(snapshot) {
            SnapshotLoad::Restored { .. } => {}
            other => return Err(format!("pool snapshot not restored: {other:?}")),
        }
        let server = Server::bind(
            Arc::clone(&engine),
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                snapshot: Some(save_to),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            engine,
            addr,
            handle,
            thread,
        })
    }

    /// Connects `n` clients; on failure the daemon is stopped and joined.
    fn connect(self, n: usize) -> Result<(Daemon, Vec<Client>), String> {
        let clients: std::io::Result<Vec<Client>> =
            (0..n).map(|_| Client::connect(self.addr)).collect();
        match clients {
            Ok(clients) => Ok((self, clients)),
            Err(e) => {
                let _ = self.stop();
                Err(format!("connect: {e}"))
            }
        }
    }

    /// Stops accepting, drains, writes the final snapshot and joins.
    fn stop(self) -> Result<Arc<Engine>, String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(self.engine),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        };
        let banner = client.read()?;
        if !banner.starts_with("ok bqc-serve") {
            return Err(std::io::Error::other(format!(
                "unexpected banner `{banner}`"
            )));
        }
        Ok(client)
    }

    fn read(&mut self) -> std::io::Result<String> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end().to_string())
    }

    fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        self.read()
    }
}

/// How one response is classified.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A question answered with the in-process verdict, from the cache or
    /// by a fresh decision.
    Answered { cached: bool, fresh: bool },
    /// A malformed line answered `error parse …`, or `!snapshot` answered ok.
    Handled,
    /// `busy`, `error decide …`, or a wrong answer to a malformed line or
    /// `!snapshot`: counted as a failed operation.
    Failed,
    /// A question answered with the wrong verdict or pair: a gate failure.
    Wrong(String),
}

fn field<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    response
        .split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// What a request must get back.
#[derive(Clone, Copy, Debug)]
pub enum Expect<'a> {
    /// `ok verdict=… pair=<hash>` with the in-process verdict.
    Answer(u64, &'a AnswerSummary),
    /// `error parse …`.
    ParseError,
    /// `ok snapshot …`.
    Snapshot,
}

/// Checks a response against what the request must get back.
pub fn classify(expect: Expect<'_>, response: &str) -> Outcome {
    let (hash, summary) = match expect {
        Expect::Answer(hash, summary) => (hash, summary),
        Expect::ParseError if response.starts_with("error parse ") => return Outcome::Handled,
        Expect::Snapshot if response.starts_with("ok snapshot ") => return Outcome::Handled,
        Expect::ParseError | Expect::Snapshot => return Outcome::Failed,
    };
    if response.starts_with("busy") || response.starts_with("error decide") {
        return Outcome::Failed;
    }
    let verdict = field(response, "verdict");
    let pair = field(response, "pair");
    if !response.starts_with("ok ")
        || verdict != Some(verdict_token(summary))
        || pair != Some(format!("{hash:016x}").as_str())
    {
        return Outcome::Wrong(format!(
            "expected verdict={} pair={hash:016x}, got `{response}`",
            verdict_token(summary)
        ));
    }
    let provenance = field(response, "provenance");
    Outcome::Answered {
        cached: provenance == Some("cached"),
        fresh: provenance == Some("fresh"),
    }
}

/// What one client saw.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    answered: u64,
    cached_rtt_us: Vec<f64>,
    cached_lines: Vec<String>,
    fresh_rtt_us: Vec<f64>,
    snapshot_rtt_us: Vec<f64>,
    wrong: Vec<String>,
    /// The first few failed responses, for the report.
    failures: Vec<String>,
    /// One past the highest never-seen pair index sent.
    fresh_sent: usize,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answered += other.answered;
        self.cached_rtt_us.extend(other.cached_rtt_us);
        self.cached_lines.extend(other.cached_lines);
        self.fresh_rtt_us.extend(other.fresh_rtt_us);
        self.snapshot_rtt_us.extend(other.snapshot_rtt_us);
        self.wrong.extend(other.wrong);
        self.failures.extend(other.failures);
        self.fresh_sent = self.fresh_sent.max(other.fresh_sent);
    }
}

/// Sends `stream` on `client` in a closed loop.
fn drive(
    prepared: &Prepared,
    spellings: &[Vec<String>],
    client: &mut Client,
    stream: &[Request],
) -> Tally {
    let mut tally = Tally::default();
    for request in stream {
        let (line, expect): (&str, Expect<'_>) = match request {
            Request::Pool { pick, spelling } => {
                let hash = prepared.pool_hashes[*pick];
                let line = &spellings[*pick][*spelling];
                (line, Expect::Answer(hash, &prepared.expected[&hash]))
            }
            Request::Fresh { index } => {
                tally.fresh_sent = tally.fresh_sent.max(index + 1);
                let hash = prepared.fresh_hashes[*index];
                let line = &prepared.fresh[*index].line;
                (line, Expect::Answer(hash, &prepared.expected[&hash]))
            }
            Request::Malformed { line } => (line, Expect::ParseError),
            Request::Snapshot => ("!snapshot", Expect::Snapshot),
        };
        tally.attempted += 1;
        let start = Instant::now();
        let response = client.roundtrip(line);
        let rtt_us = start.elapsed().as_secs_f64() * 1e6;
        let response = match response {
            Ok(response) => response,
            Err(error) => {
                tally.failed += 1;
                tally
                    .failures
                    .push(format!("`{line}`: transport error {error}"));
                break;
            }
        };
        match classify(expect, &response) {
            Outcome::Answered { cached, fresh } => {
                tally.answered += 1;
                if cached {
                    tally.cached_rtt_us.push(rtt_us);
                    tally.cached_lines.push(line.to_string());
                }
                if fresh {
                    tally.fresh_rtt_us.push(rtt_us);
                }
            }
            Outcome::Handled => {
                if matches!(request, Request::Snapshot) {
                    tally.snapshot_rtt_us.push(rtt_us);
                }
            }
            Outcome::Failed => {
                tally.failed += 1;
                if tally.failures.len() < 3 {
                    tally
                        .failures
                        .push(format!("`{line}` answered `{response}`"));
                }
            }
            Outcome::Wrong(message) => tally.wrong.push(message),
        }
    }
    tally
}

/// Spellings of every pool pair.
const SPELLINGS_PER_PAIR: usize = 8;

/// The generated request lines of one pass.
struct Traffic {
    spellings: Vec<Vec<String>>,
    /// One stream per client; client `c` takes never-seen pairs
    /// `c, c + clients, …`, and client 0 alone sends `!snapshot`.
    streams: Vec<Vec<Request>>,
}

fn traffic(prepared: &Prepared, args: &Args, clients: usize, len: usize, mix: ServeMix) -> Traffic {
    let mut rng = SplitMix::new(args.seed);
    let spellings = pool_spellings(rng.next_u64(), &prepared.pool, SPELLINGS_PER_PAIR);
    let streams = (0..clients)
        .map(|c| {
            serve_stream(
                rng.next_u64(),
                prepared.pool.len(),
                SPELLINGS_PER_PAIR,
                len,
                c,
                clients,
                mix,
                c == 0,
            )
        })
        .collect();
    Traffic { spellings, streams }
}

/// Runs every client on its own thread and merges what they saw.
fn drive_all(prepared: &Prepared, clients: Vec<Client>, traffic: &Traffic) -> Tally {
    let mut total = Tally::default();
    let spellings = &traffic.spellings;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&traffic.streams)
            .map(|(mut client, stream)| {
                scope.spawn(move || drive(prepared, spellings, &mut client, stream))
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("client thread"));
        }
    });
    total
}

/// One pass of `traffic` against a fresh daemon with `workers` engine
/// workers, restored from the pool snapshot.
fn pass(
    prepared: &Prepared,
    save_to: &Path,
    workers: usize,
    traffic: &Traffic,
) -> Result<(Tally, f64, Arc<Engine>), String> {
    let (daemon, connected) = Daemon::start(workers, &prepared.snapshot, save_to.to_path_buf())?
        .connect(traffic.streams.len())?;
    let start = Instant::now();
    let tally = drive_all(prepared, connected, traffic);
    let wall = start.elapsed().as_secs_f64();
    Ok((tally, wall, daemon.stop()?))
}

/// The serve-layer numbers.  One client against a daemon with one engine
/// worker, so every request is its own micro-batch: a cached request's round
/// trip minus an in-process `decide_batch` of the same request on the same
/// warm engine, and the `!snapshot` round trip.  Then `nproc` clients against
/// the default daemon (one engine worker per core): batch size, `busy`
/// replies and throughput.  Every response is checked against the in-process
/// verdict; returns the numbers with the attempted and failed requests.
pub fn measure(
    args: &Args,
    sizes: &Sizes,
    run_dir: &RunDir,
    gate: &mut Gate,
    report: &mut Report,
) -> Result<(ServeLayer, u64, u64), String> {
    let mix = sizes.serve_mix;
    let requests = sizes.serve_requests;
    let clients = args.threads;
    let prepared = prepare(
        sizes.serve_pool,
        fresh_in_stream(requests, mix) * clients,
        run_dir,
    )?;
    let save_to = run_dir.path().join("serve.snapshot");

    let single = traffic(&prepared, args, 1, requests, mix);
    let (alone, _, warm_engine) = pass(&prepared, &save_to, 1, &single)?;
    let mut in_process_us = Vec::new();
    for line in &alone.cached_lines {
        if let Ok(Some(entry)) = parse_workload_line(line, 1) {
            let request = [(entry.q1, entry.q2)];
            let start = Instant::now();
            let _ = warm_engine.decide_batch(&request);
            in_process_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    let parallel = traffic(&prepared, args, clients, requests / clients, mix);
    let counters = Counters::now();
    let (concurrent, concurrent_s, _) = pass(&prepared, &save_to, args.threads, &parallel)?;
    let counters = counters.close();
    let (batch_sum, batches) = counters.histogram_delta("bqc_serve_batch_size");

    for tally in [&alone, &concurrent] {
        for message in &tally.wrong {
            gate.fail(message.clone());
        }
        for failure in &tally.failures {
            report.note(format!("failed serve request: {failure}"));
        }
    }
    prepared.replay(args, alone.fresh_sent.max(concurrent.fresh_sent), gate);

    report.note(format!(
        "serve: pool of {} pairs (verdict digest {:016x}), {requests} requests on one client, \
         then on {clients}",
        prepared.pool.len(),
        prepared.pool_digest()
    ));
    for (kind, samples) in [
        ("cached", &alone.cached_rtt_us),
        ("never-seen", &alone.fresh_rtt_us),
        ("!snapshot", &alone.snapshot_rtt_us),
    ] {
        let mut samples = samples.clone();
        let p50 = median(&mut samples);
        report.note(format!(
            "serve round trip, {kind} requests: {} samples, p50 {p50:.1} us, p99 {:.1} us",
            samples.len(),
            quantile(&mut samples, 0.99)
        ));
    }
    let mut cached_rtt = alone.cached_rtt_us.clone();
    let mut snapshot_rtt = alone.snapshot_rtt_us.clone();
    let layer = ServeLayer {
        requests: alone.attempted,
        overhead_us_p50: median(&mut cached_rtt) - median(&mut in_process_us),
        batch_size_mean: ratio(batch_sum as f64, batches as f64),
        busy: counters.delta("bqc_serve_busy_total"),
        snapshot_rtt_ms: median(&mut snapshot_rtt) / 1e3,
        default_workers_pairs_per_s: ratio(concurrent.answered as f64, concurrent_s),
    };
    Ok((
        layer,
        alone.attempted + concurrent.attempted,
        alone.failed + concurrent.failed,
    ))
}
