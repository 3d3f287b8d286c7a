//! `bqc` — batch bag-containment checking from the command line.
//!
//! Reads a workload file of containment questions (one `Q1 … ; Q2 …` pair
//! per line, `#`/`%` comments — see `bqc_engine::workload`), runs the whole
//! batch through the caching engine, and prints a per-question report plus
//! cache, pipeline and timing totals.  `--json` switches to a
//! machine-readable report; `--explain` renders the per-stage decision trace
//! under every freshly computed answer; `--fail-on` turns verdict classes
//! into a non-zero exit status for CI gating.
//!
//! ```text
//! bqc [--json] [--explain] [--fail-on CLASS] [--workers N] [--shards N]
//!     [--capacity N] [--no-witness] [--deadline-ms N] [--max-pivots N]
//!     [--repeat N] [--trace-out FILE] [--metrics-out FILE] [--metrics] FILE
//! bqc serve [--addr HOST:PORT] [--workers N] [--shards N] [--capacity N]
//!           [--no-witness] [--max-conns N] [--queue N] [--batch N]
//!           [--request-deadline-ms N] [--idle-timeout SECS]
//!           [--snapshot FILE] [--snapshot-interval SECS]
//!           [--metrics-out FILE] [--metrics]
//! bqc fuzz [--pairs N] [--seed N] [--self-test] [--deadline-ms N]
//!          [--out DIR] [--metrics-out FILE] [--json]
//! ```
//!
//! Resource governance (`--deadline-ms`, `--max-pivots`,
//! `--request-deadline-ms`): a decision that exhausts its budget soundly
//! answers `unknown` with a resource-exhausted obstruction — never a wrong
//! verdict — and is excluded from the decision cache; see
//! docs/OPERATIONS.md § Budgets and degraded answers.
//!
//! Observability (`bqc-obs`): `--trace-out` records the span tree of the run
//! (pipeline stages, Γ_n checks, LP solves, pivots) as Chrome
//! trace-event JSON for `chrome://tracing` / Perfetto; `--metrics-out` /
//! `--metrics` export the process-wide counter and histogram registry in the
//! Prometheus text exposition format.  `--explain` additionally renders the
//! recorded spans under each fresh answer.
//!
//! `bqc serve` runs the same engine as a persistent TCP daemon
//! (`bqc_serve`): newline-delimited requests in workload pair syntax,
//! micro-batched across connections, with a durable decision-cache snapshot
//! written on shutdown and restored on start — see `docs/OPERATIONS.md`.
//!
//! `bqc fuzz` generates random containment questions, batches them through
//! the engine, and replays every verdict against the differential counting
//! oracle (`bqc_core::oracle`); discrepancies are minimized and emitted in
//! the adversarial corpus format (`bqc_engine::corpus`).

use bag_query_containment::bench::fuzz::{run_campaign, FuzzConfig};
use bag_query_containment::engine::{
    json_escape, parse_workload, BatchResult, Engine, EngineOptions, Provenance, SnapshotLoad,
    WorkloadEntry,
};
use bag_query_containment::serve::{ServeOptions, Server};
use bqc_core::DecideOptions;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A verdict class that `--fail-on` can turn into a non-zero exit status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FailOn {
    /// Fail when any request is undecided (outside the decidable class).
    Unknown,
    /// Fail when any request is a definite "not contained".
    NotContained,
}

struct Cli {
    file: String,
    json: bool,
    explain: bool,
    workers: usize,
    shards: usize,
    capacity: usize,
    extract_witness: bool,
    repeat: usize,
    fail_on: Vec<FailOn>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    metrics: bool,
    deadline_ms: Option<u64>,
    max_pivots: Option<u64>,
}

const USAGE: &str = "\
usage: bqc [OPTIONS] FILE

Decide every containment question in FILE (one `Q1 … ; Q2 …` per line,
blank lines and #/% comments skipped) through the caching batch engine.

options:
  --json          machine-readable JSON report instead of the text report
  --explain       render the per-stage decision trace (stage, verdict,
                  timing, paper citation) under every fresh answer
  --fail-on CLASS exit with status 3 when any verdict falls in CLASS
                  (`unknown` or `not-contained`; repeatable, also accepts a
                  comma-separated list) — lets CI gate on verdicts
  --workers N     worker threads for the batch fan-out (default: all cores)
  --shards N      decision-cache shards (default 8)
  --capacity N    LRU capacity per cache shard (default 1024)
  --no-witness    skip materializing non-containment witnesses
  --deadline-ms N per-decision wall-clock budget: a question still undecided
                  after N ms soundly answers `unknown` with a
                  resource-exhausted obstruction (never a wrong verdict;
                  never cached)
  --max-pivots N  per-decision simplex pivot budget, same degraded-answer
                  contract as --deadline-ms
  --repeat N      run the workload N times back to back (cache warm-up demo)
  --trace-out F   record spans (pipeline stages, LP solves, pivots) during
                  the run and write Chrome trace-event JSON to F — open it
                  in chrome://tracing or Perfetto
  --metrics-out F write the metrics registry (counters + histograms) to F in
                  the Prometheus text exposition format
  --metrics       print the same exposition to stdout after the report
                  (prefer --metrics-out alongside --json: stdout stays JSON)
  --help          this message

subcommands:
  serve           persistent TCP daemon over the same engine, with a durable
                  decision-cache snapshot across restarts
                  (`bqc serve --help` for its options)
  fuzz            differential fuzzing: generated pairs through the engine,
                  every verdict replayed against the counting oracle
                  (`bqc fuzz --help` for its options)

exit status: 0 on success, 1 on usage/IO/parse errors, 2 when the workload
ran but some requests failed with decision errors (reported per line), 3
when --fail-on matched at least one verdict (and no decision error occurred).";

const SERVE_USAGE: &str = "\
usage: bqc serve [OPTIONS]

Run the containment engine as a persistent TCP daemon.  Clients send one
request per line — the workload pair syntax (`Q1 … ; Q2 …`, exactly what a
.bqc file holds) or a `!`-prefixed admin command (!ping, !stats, !snapshot,
!shutdown, !quit) — and get one response line per request.  Concurrent
requests are micro-batched through the same caching engine the batch CLI
uses, so canonical deduplication and cached verdicts work across clients.
Full wire-protocol and operations reference: docs/OPERATIONS.md.

The daemon shuts down gracefully on SIGTERM, on the !shutdown admin
command, or when its stdin closes; admitted requests are drained and, with
--snapshot, the decision cache is written durably so the next start is
warm.

options:
  --addr H:P      listen address (default 127.0.0.1:7411; port 0 asks the
                  OS for a free port, read it back from the listening line)
  --workers N     worker threads per micro-batch (default: all cores)
  --shards N      decision-cache shards (default 8)
  --capacity N    LRU capacity per cache shard (default 1024)
  --no-witness    skip materializing non-containment witnesses
  --max-conns N   connection cap; further clients get `busy connections …`
                  (default 64)
  --queue N       bound on admitted-but-undecided requests; a full queue
                  answers `busy queue …` (default 1024)
  --batch N       largest micro-batch handed to the engine (default 64)
  --request-deadline-ms N
                  per-request decision budget: a question still undecided
                  after N ms of decision work answers
                  `ok verdict=unknown obstruction=resource-exhausted …`
                  (sound, never cached); queue wait does not count
  --idle-timeout SECS
                  close connections idle for SECS seconds with
                  `error timeout …`, freeing their --max-conns slot; partial
                  request lines do not reset the clock (default 300;
                  0 disables)
  --snapshot F    durable decision-cache snapshot file: restored (or
                  quarantined if corrupt) at start, written atomically at
                  shutdown and on the !snapshot admin command
  --snapshot-interval SECS
                  also write the snapshot every SECS seconds (requires
                  --snapshot)
  --metrics-out F write the metrics registry to F in the Prometheus text
                  exposition format at shutdown
  --metrics       print the same exposition to stdout at shutdown
  --help          this message

exit status: 0 after a graceful shutdown, 1 on usage/bind/snapshot-write
errors.";

const FUZZ_USAGE: &str = "\
usage: bqc fuzz [OPTIONS]

Generate random containment questions, decide them in batches through the
caching engine, and replay every verdict against the differential counting
oracle on a per-pair database family: a `contained` verdict contradicted by
explicit counts is a soundness bug (Fact 3.2), refutations are confirmed by
family separation or independent witness re-counting, and `unknown`
obstructions are recomputed from the containing query's structure.  Each
discrepancy is shrunk (drop atoms, identify variables) while it persists and
emitted as a ready-to-check-in corpus case (see examples/corpus/).

options:
  --pairs N     number of generated pairs (default 10000)
  --seed N      campaign seed (default 0xbac5eed; decimal or 0x-hex)
  --self-test   flip one family-separable refutation to `contained` before
                checking: the oracle must catch and minimize the injected
                bug (exit 0 if caught, 4 if missed)
  --deadline-ms N
                replay the campaign under a per-decision deadline of N ms:
                budget-exhausted answers must degrade to `unknown` (never a
                flipped verdict) and re-deciding each one without the budget
                must satisfy the oracle
  --out DIR     write each minimized repro to DIR/fuzz-<seed>-<pair>.bqc
                instead of printing it
  --metrics-out F  write the campaign's metrics registry (LP pivots, cache
                hits, gamma-probes, …) to F in the Prometheus text
                exposition format
  --json        machine-readable JSON report instead of the text report
  --help        this message

exit status: 0 when the campaign passed (no discrepancy; with --self-test,
the injected bug was caught and nothing else was), 1 on usage/IO errors, 4
when a verdict/count discrepancy was found (or an injected one was missed).";

/// Why argument parsing did not yield a runnable configuration.
enum CliExit {
    /// `--help` was requested: print usage to stdout, exit 0.
    Help,
    /// Bad arguments: print the message to stderr, exit 1.
    Usage(String),
}

fn parse_fail_on(value: &str, into: &mut Vec<FailOn>) -> Result<(), CliExit> {
    for part in value.split(',') {
        let class = match part.trim() {
            "unknown" => FailOn::Unknown,
            "not-contained" => FailOn::NotContained,
            other => {
                return Err(CliExit::Usage(format!(
                    "--fail-on expects `unknown` or `not-contained`, got {other:?}"
                )))
            }
        };
        if !into.contains(&class) {
            into.push(class);
        }
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Cli, CliExit> {
    let mut cli = Cli {
        file: String::new(),
        json: false,
        explain: false,
        workers: 0,
        shards: 8,
        capacity: 1024,
        extract_witness: true,
        repeat: 1,
        fail_on: Vec::new(),
        trace_out: None,
        metrics_out: None,
        metrics: false,
        deadline_ms: None,
        max_pivots: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut numeric = |name: &str| -> Result<usize, CliExit> {
            it.next()
                .ok_or_else(|| CliExit::Usage(format!("{name} requires a value")))?
                .parse::<usize>()
                .map_err(|_| CliExit::Usage(format!("{name} requires a non-negative integer")))
        };
        match arg.as_str() {
            "--json" => cli.json = true,
            "--explain" => cli.explain = true,
            "--deadline-ms" => cli.deadline_ms = Some(numeric("--deadline-ms")? as u64),
            "--max-pivots" => cli.max_pivots = Some(numeric("--max-pivots")? as u64),
            "--fail-on" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliExit::Usage("--fail-on requires a value".into()))?;
                parse_fail_on(value, &mut cli.fail_on)?;
            }
            "--workers" => cli.workers = numeric("--workers")?,
            "--shards" => cli.shards = numeric("--shards")?.max(1),
            "--capacity" => cli.capacity = numeric("--capacity")?.max(1),
            "--no-witness" => cli.extract_witness = false,
            "--repeat" => cli.repeat = numeric("--repeat")?.max(1),
            "--trace-out" => {
                cli.trace_out = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--trace-out requires a file".into()))?
                        .clone(),
                );
            }
            "--metrics-out" => {
                cli.metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--metrics-out requires a file".into()))?
                        .clone(),
                );
            }
            "--metrics" => cli.metrics = true,
            "--help" | "-h" => return Err(CliExit::Help),
            other if other.starts_with('-') => {
                return Err(CliExit::Usage(format!("unknown option {other}")))
            }
            other if cli.file.is_empty() => cli.file = other.to_string(),
            _ => {
                return Err(CliExit::Usage(
                    "exactly one workload FILE is expected".into(),
                ))
            }
        }
    }
    if cli.file.is_empty() {
        return Err(CliExit::Usage(USAGE.to_string()));
    }
    Ok(cli)
}

struct ServeCli {
    addr: String,
    workers: usize,
    shards: usize,
    capacity: usize,
    extract_witness: bool,
    max_conns: usize,
    queue_depth: usize,
    batch_max: usize,
    snapshot: Option<String>,
    snapshot_interval: Option<u64>,
    metrics_out: Option<String>,
    metrics: bool,
    request_deadline_ms: Option<u64>,
    idle_timeout_secs: u64,
}

fn parse_serve_args(args: &[String]) -> Result<ServeCli, CliExit> {
    let mut cli = ServeCli {
        addr: "127.0.0.1:7411".to_string(),
        workers: 0,
        shards: 8,
        capacity: 1024,
        extract_witness: true,
        max_conns: 64,
        queue_depth: 1024,
        batch_max: 64,
        snapshot: None,
        snapshot_interval: None,
        metrics_out: None,
        metrics: false,
        request_deadline_ms: None,
        idle_timeout_secs: 300,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut numeric = |name: &str| -> Result<usize, CliExit> {
            it.next()
                .ok_or_else(|| CliExit::Usage(format!("{name} requires a value")))?
                .parse::<usize>()
                .map_err(|_| CliExit::Usage(format!("{name} requires a non-negative integer")))
        };
        match arg.as_str() {
            "--addr" => {
                cli.addr = it
                    .next()
                    .ok_or_else(|| CliExit::Usage("--addr requires HOST:PORT".into()))?
                    .clone();
            }
            "--workers" => cli.workers = numeric("--workers")?,
            "--shards" => cli.shards = numeric("--shards")?.max(1),
            "--capacity" => cli.capacity = numeric("--capacity")?.max(1),
            "--no-witness" => cli.extract_witness = false,
            "--max-conns" => cli.max_conns = numeric("--max-conns")?.max(1),
            "--queue" => cli.queue_depth = numeric("--queue")?.max(1),
            "--batch" => cli.batch_max = numeric("--batch")?.max(1),
            "--request-deadline-ms" => {
                cli.request_deadline_ms = Some(numeric("--request-deadline-ms")? as u64);
            }
            "--idle-timeout" => cli.idle_timeout_secs = numeric("--idle-timeout")? as u64,
            "--snapshot" => {
                cli.snapshot = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--snapshot requires a file".into()))?
                        .clone(),
                );
            }
            "--snapshot-interval" => {
                cli.snapshot_interval = Some(numeric("--snapshot-interval")?.max(1) as u64);
            }
            "--metrics-out" => {
                cli.metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--metrics-out requires a file".into()))?
                        .clone(),
                );
            }
            "--metrics" => cli.metrics = true,
            "--help" | "-h" => return Err(CliExit::Help),
            other => return Err(CliExit::Usage(format!("unknown serve option {other}"))),
        }
    }
    if cli.snapshot_interval.is_some() && cli.snapshot.is_none() {
        return Err(CliExit::Usage(
            "--snapshot-interval requires --snapshot".into(),
        ));
    }
    Ok(cli)
}

fn serve_main(args: &[String]) -> ExitCode {
    let cli = match parse_serve_args(args) {
        Ok(cli) => cli,
        Err(CliExit::Help) => {
            println!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliExit::Usage(message)) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // --request-deadline-ms is pure engine configuration: each decision's
    // budget clock starts when the pipeline picks the request up, so queue
    // wait under load does not eat into the deadline.
    let mut decide = DecideOptions {
        extract_witness: cli.extract_witness,
        ..DecideOptions::default()
    };
    decide.budget.deadline = cli.request_deadline_ms.map(Duration::from_millis);
    let engine = Arc::new(Engine::new(EngineOptions {
        cache_shards: cli.shards,
        shard_capacity: cli.capacity,
        workers: cli.workers,
        decide,
    }));
    if let Some(path) = &cli.snapshot {
        match engine.load_snapshot(std::path::Path::new(path)) {
            SnapshotLoad::Restored { entries } => {
                println!("bqc serve: restored {entries} cached decisions from {path}")
            }
            SnapshotLoad::ColdStart => {
                println!("bqc serve: no snapshot at {path}, starting cold");
            }
            SnapshotLoad::Quarantined {
                error,
                quarantined_to,
            } => match quarantined_to {
                Some(bad) => eprintln!(
                    "bqc serve: snapshot {path} rejected ({error}); \
                         quarantined to {}, starting cold",
                    bad.display()
                ),
                None => eprintln!("bqc serve: snapshot {path} rejected ({error}); starting cold"),
            },
        }
    }
    let server = match Server::bind(
        Arc::clone(&engine),
        ServeOptions {
            addr: cli.addr.clone(),
            max_conns: cli.max_conns,
            queue_depth: cli.queue_depth,
            batch_max: cli.batch_max,
            snapshot: cli.snapshot.as_ref().map(std::path::PathBuf::from),
            snapshot_interval: cli.snapshot_interval.map(Duration::from_secs),
            idle_timeout: match cli.idle_timeout_secs {
                0 => None,
                secs => Some(Duration::from_secs(secs)),
            },
            handle_sigterm: true,
        },
    ) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("bqc serve: cannot bind {}: {error}", cli.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // The scripted form of this line is load-bearing: serve_smoke.sh
        // parses the actual port out of it when binding port 0.
        Ok(addr) => println!("bqc serve: listening on {addr}"),
        Err(_) => println!("bqc serve: listening on {}", cli.addr),
    }
    // Make the listening line visible to pipes immediately; the daemon may
    // now run for hours without printing anything else.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Treat stdin close as a shutdown request: `bqc serve < /dev/null`-style
    // supervision (or the parent closing the pipe) stops the daemon cleanly.
    let stdin_handle = server.shutdown_handle();
    std::thread::Builder::new()
        .name("bqc-serve-stdin".to_string())
        .spawn(move || {
            use std::io::Read as _;
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin().lock();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            stdin_handle.shutdown();
        })
        .expect("spawning stdin watcher");

    let summary = match server.run() {
        Ok(summary) => summary,
        Err(error) => {
            eprintln!("bqc serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bqc serve: shutdown complete ({} connections, {} requests)",
        summary.connections, summary.requests
    );
    if let (Some(saved), Some(path)) = (&summary.snapshot, &cli.snapshot) {
        println!(
            "bqc serve: snapshot written ({} entries, {} bytes) to {path}",
            saved.entries, saved.bytes
        );
    }
    let metrics = bqc_obs::snapshot();
    if let Some(path) = &cli.metrics_out {
        if let Err(error) = std::fs::write(path, bqc_obs::prometheus_text(&metrics)) {
            eprintln!("bqc serve: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    if cli.metrics {
        print!("{}", bqc_obs::prometheus_text(&metrics));
    }
    ExitCode::SUCCESS
}

struct FuzzCli {
    pairs: usize,
    seed: u64,
    self_test: bool,
    deadline_ms: Option<u64>,
    out: Option<String>,
    metrics_out: Option<String>,
    json: bool,
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzCli, CliExit> {
    let mut cli = FuzzCli {
        pairs: 10_000,
        seed: 0x0bac_5eed,
        self_test: false,
        deadline_ms: None,
        out: None,
        metrics_out: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pairs" => {
                cli.pairs = it
                    .next()
                    .ok_or_else(|| CliExit::Usage("--pairs requires a value".into()))?
                    .parse::<usize>()
                    .map_err(|_| {
                        CliExit::Usage("--pairs requires a non-negative integer".into())
                    })?;
            }
            "--seed" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliExit::Usage("--seed requires a value".into()))?;
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse::<u64>(),
                };
                cli.seed = parsed
                    .map_err(|_| CliExit::Usage("--seed requires an integer (or 0x-hex)".into()))?;
            }
            "--self-test" => cli.self_test = true,
            "--deadline-ms" => {
                cli.deadline_ms = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--deadline-ms requires a value".into()))?
                        .parse::<u64>()
                        .map_err(|_| {
                            CliExit::Usage("--deadline-ms requires a non-negative integer".into())
                        })?,
                );
            }
            "--out" => {
                cli.out = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--out requires a directory".into()))?
                        .clone(),
                );
            }
            "--metrics-out" => {
                cli.metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliExit::Usage("--metrics-out requires a file".into()))?
                        .clone(),
                );
            }
            "--json" => cli.json = true,
            "--help" | "-h" => return Err(CliExit::Help),
            other => return Err(CliExit::Usage(format!("unknown fuzz option {other}"))),
        }
    }
    Ok(cli)
}

fn fuzz_main(args: &[String]) -> ExitCode {
    let cli = match parse_fuzz_args(args) {
        Ok(cli) => cli,
        Err(CliExit::Help) => {
            println!("{FUZZ_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliExit::Usage(message)) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let config = FuzzConfig {
        pairs: cli.pairs,
        seed: cli.seed,
        self_test: cli.self_test,
        deadline: cli.deadline_ms.map(Duration::from_millis),
        ..FuzzConfig::default()
    };
    let start = Instant::now();
    let report = run_campaign(&config, &mut |done| {
        if !cli.json && (done % 2048 == 0 || done == config.pairs) {
            eprintln!("bqc fuzz: {done}/{} pairs checked", config.pairs);
        }
    });
    let wall_micros = start.elapsed().as_micros() as u64;
    let metrics = bqc_obs::snapshot();
    if let Some(path) = &cli.metrics_out {
        if let Err(error) = std::fs::write(path, bqc_obs::prometheus_text(&metrics)) {
            eprintln!("bqc fuzz: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }

    // Persist or print the minimized repros before the summary.
    let mut repro_paths: Vec<String> = Vec::new();
    if let Some(dir) = &cli.out {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("bqc fuzz: cannot create {dir}: {error}");
            return ExitCode::FAILURE;
        }
        for finding in &report.findings {
            let path = format!("{dir}/fuzz-{:x}-{}.bqc", config.seed, finding.index);
            if let Err(error) = std::fs::write(&path, &finding.repro) {
                eprintln!("bqc fuzz: cannot write {path}: {error}");
                return ExitCode::FAILURE;
            }
            repro_paths.push(path);
        }
    }

    if cli.json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"pairs\": {}, \"seed\": \"{:#x}\", \"self_test\": {},\n",
            report.pairs, config.seed, cli.self_test
        ));
        out.push_str(&format!(
            "  \"verdicts\": {{\"contained\": {}, \"not_contained\": {}, \"unknown\": {}, \
             \"budget_exhausted\": {}, \"errors\": {}}},\n",
            report.contained,
            report.not_contained,
            report.unknown,
            report.budget_exhausted,
            report.errors
        ));
        out.push_str(&format!(
            "  \"refutations\": {{\"confirmed\": {}, \"unconfirmed\": {}}},\n",
            report.confirmed_refutations, report.unconfirmed_refutations
        ));
        out.push_str("  \"findings\": [\n");
        for (i, finding) in report.findings.iter().enumerate() {
            let comma = if i + 1 == report.findings.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"pair\": {}, \"injected\": {}, \"discrepancies\": {}, \
                 \"repro\": \"{}\"}}{comma}\n",
                finding.index,
                finding.injected,
                finding.discrepancies.len(),
                json_escape(&finding.repro)
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"passed\": {}, \"wall_micros\": {wall_micros}\n}}",
            report.passed()
        ));
        println!("{out}");
    } else {
        println!(
            "bqc fuzz: {} pairs (seed {:#x}): {} contained, {} not contained ({} confirmed, \
             {} unconfirmed), {} unknown, {} errors",
            report.pairs,
            config.seed,
            report.contained,
            report.not_contained,
            report.confirmed_refutations,
            report.unconfirmed_refutations,
            report.unknown,
            report.errors
        );
        if cli.deadline_ms.is_some() {
            println!(
                "budget: {} of {} answers degraded to resource-exhausted unknown; \
                 each was re-decided without a budget and held to the oracle",
                report.budget_exhausted, report.pairs
            );
        }
        let count = |name: &str| metrics.counter(name).unwrap_or(0);
        println!(
            "engine: {} LP solves ({} pivots, {} reinversions), {} gamma-probes, \
             {} fresh / {} cached / {} deduped decisions",
            count("bqc_lp_solves_total"),
            count("bqc_lp_pivots_total"),
            count("bqc_lp_reinversions_total"),
            count("bqc_iip_probes_total"),
            count("bqc_engine_fresh_decisions_total"),
            count("bqc_engine_cached_hits_total"),
            count("bqc_engine_deduped_total"),
        );
        for (i, finding) in report.findings.iter().enumerate() {
            println!(
                "finding #{i} (pair {}{}):",
                finding.index,
                if finding.injected {
                    ", self-test injection"
                } else {
                    ""
                }
            );
            for d in &finding.discrepancies {
                println!("  {d}");
            }
            match repro_paths.get(i) {
                Some(path) => println!("  minimized repro written to {path}"),
                None => {
                    println!("  minimized repro (corpus format):");
                    for line in finding.repro.lines() {
                        println!("    {line}");
                    }
                }
            }
        }
        if cli.self_test {
            match report.injected_at {
                Some(index) if report.passed() => println!(
                    "self-test: injected verdict flip at pair {index} was caught and minimized"
                ),
                Some(index) => {
                    println!("self-test: injected verdict flip at pair {index} was NOT caught")
                }
                None => println!(
                    "self-test: no family-separable refutation to flip (campaign too small?)"
                ),
            }
        }
        println!(
            "result: {} ({:.3}s)",
            if report.passed() { "PASS" } else { "FAIL" },
            wall_micros as f64 / 1e6
        );
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(CliExit::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliExit::Usage(message)) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&cli.file) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("bqc: cannot read {}: {error}", cli.file);
            return ExitCode::FAILURE;
        }
    };
    let entries = match parse_workload(&text) {
        Ok(entries) => entries,
        Err(error) => {
            eprintln!("bqc: {}: {error}", cli.file);
            return ExitCode::FAILURE;
        }
    };
    let mut decide = DecideOptions {
        extract_witness: cli.extract_witness,
        ..DecideOptions::default()
    };
    decide.budget.deadline = cli.deadline_ms.map(Duration::from_millis);
    decide.budget.max_pivots = cli.max_pivots;
    let engine = Engine::new(EngineOptions {
        cache_shards: cli.shards,
        shard_capacity: cli.capacity,
        workers: cli.workers,
        decide,
    });
    let requests: Vec<_> = entries
        .iter()
        .map(|e| (e.q1.clone(), e.q2.clone()))
        .collect();

    let tracing = cli.explain || cli.trace_out.is_some();
    if tracing {
        bqc_obs::start_tracing();
    }
    let start = Instant::now();
    let mut runs: Vec<Vec<BatchResult>> = Vec::with_capacity(cli.repeat);
    for _ in 0..cli.repeat {
        runs.push(engine.decide_batch(&requests));
    }
    let wall_micros = start.elapsed().as_micros() as u64;
    let trace = tracing.then(bqc_obs::stop_tracing);

    if let Some(path) = &cli.trace_out {
        let snapshot = trace.as_ref().expect("tracing was started");
        if let Err(error) = std::fs::write(path, bqc_obs::chrome_trace_json(snapshot)) {
            eprintln!("bqc: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = bqc_obs::snapshot();
    if let Some(path) = &cli.metrics_out {
        if let Err(error) = std::fs::write(path, bqc_obs::prometheus_text(&metrics)) {
            eprintln!("bqc: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }

    if cli.json {
        print_json(&cli, &engine, &entries, &runs, &metrics, wall_micros);
    } else {
        print_text(&cli, &engine, &entries, &runs, trace.as_ref(), wall_micros);
    }
    if cli.metrics {
        print!("{}", bqc_obs::prometheus_text(&metrics));
    }
    // A run with per-request decision errors is a failed run for scripts,
    // even though the report itself was printed; the --fail-on verdict gate
    // is reported with its own status so CI can tell the two apart.
    let any_error = runs.iter().flatten().any(|result| result.answer.is_err());
    if any_error {
        return ExitCode::from(2);
    }
    let gate_hit = runs.iter().flatten().any(|result| match &result.answer {
        Ok(summary) => cli.fail_on.iter().any(|class| match class {
            FailOn::Unknown => summary.is_unknown(),
            FailOn::NotContained => summary.is_not_contained(),
        }),
        Err(_) => false,
    });
    if gate_hit {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Distinct canonical pairs in one batch, counted by provenance (the engine
/// dedups by full canonical key text, so every non-deduped request is the
/// leader of exactly one distinct pair — hashes alone could collide).
fn distinct_pairs(results: &[BatchResult]) -> usize {
    results
        .iter()
        .filter(|r| r.provenance != Provenance::DedupedInFlight)
        .count()
}

/// Renders the recorded spans of one fresh decision: the `decide` span whose
/// `pair` annotation matches `pair_hash`, plus everything nested inside it on
/// the same thread, as an indented tree.  High-frequency instant markers
/// (pivots, reinversions) are aggregated into per-name counts rather
/// than listed.  `used` consumes matched spans so a pair computed fresh more
/// than once (LRU eviction under `--repeat`) maps to successive spans.
fn print_decision_spans(trace: &bqc_obs::TraceSnapshot, pair_hash: u64, used: &mut [bool]) {
    let hash_text = format!("{pair_hash:016x}");
    let root_idx = trace.events.iter().enumerate().position(|(i, e)| {
        !used[i]
            && e.name == "decide"
            && e.args.iter().any(|(k, v)| *k == "pair" && *v == hash_text)
    });
    let Some(root_idx) = root_idx else { return };
    used[root_idx] = true;
    let root = &trace.events[root_idx];
    let end = root.start_ns + root.dur_ns;
    let mut members: Vec<usize> = trace
        .events
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            *i == root_idx
                || (e.tid == root.tid
                    && e.depth > root.depth
                    && e.start_ns >= root.start_ns
                    && e.start_ns <= end)
        })
        .map(|(i, _)| i)
        .collect();
    // Completion order → start order, parents before their children on ties.
    members.sort_by_key(|&i| {
        let e = &trace.events[i];
        (e.start_ns, std::cmp::Reverse(e.dur_ns))
    });
    let mut markers: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    println!("  spans:");
    for i in members {
        let e = &trace.events[i];
        match e.kind {
            bqc_obs::TraceEventKind::Complete => {
                let indent = 4 + 2 * (e.depth - root.depth) as usize;
                println!("{:indent$}{} {:.3}ms", "", e.name, e.dur_ns as f64 / 1e6,);
            }
            bqc_obs::TraceEventKind::Instant => *markers.entry(e.name).or_insert(0) += 1,
        }
    }
    if !markers.is_empty() {
        let rendered: Vec<String> = markers
            .iter()
            .map(|(name, count)| format!("{name} x{count}"))
            .collect();
        println!("    markers: {}", rendered.join(", "));
    }
}

fn print_text(
    cli: &Cli,
    engine: &Engine,
    entries: &[WorkloadEntry],
    runs: &[Vec<BatchResult>],
    trace: Option<&bqc_obs::TraceSnapshot>,
    wall_micros: u64,
) {
    let mut spans_used = vec![false; trace.map_or(0, |t| t.events.len())];
    let first = &runs[0];
    println!(
        "bqc: {} requests ({} distinct canonical pairs), {} run(s)",
        entries.len(),
        distinct_pairs(first),
        runs.len()
    );
    for (run_index, results) in runs.iter().enumerate() {
        if runs.len() > 1 {
            println!("-- run {} --", run_index + 1);
        }
        for (entry, result) in entries.iter().zip(results) {
            let verdict = match &result.answer {
                Ok(summary) => summary.to_string(),
                Err(error) => format!("error: {error}"),
            };
            println!(
                "[line {:>3}] {:<8} {:>9.3}ms  {} vs {}: {verdict}",
                entry.line,
                result.provenance.to_string(),
                result.micros as f64 / 1000.0,
                entry.q1.name,
                entry.q2.name,
            );
            if cli.explain {
                if let Some(decision_trace) = &result.trace {
                    print!("{decision_trace}");
                }
                if let (Some(spans), Some(_)) = (trace, &result.trace) {
                    print_decision_spans(spans, result.pair_hash, &mut spans_used);
                }
            }
        }
    }
    let mut contained = 0usize;
    let mut not_contained = 0usize;
    let mut undecided = 0usize;
    let mut errors = 0usize;
    for result in runs.iter().flatten() {
        match &result.answer {
            Ok(s) if s.is_contained() => contained += 1,
            Ok(s) if s.is_not_contained() => not_contained += 1,
            Ok(_) => undecided += 1,
            Err(_) => errors += 1,
        }
    }
    println!(
        "verdicts: {contained} contained, {not_contained} not contained, \
         {undecided} undecided, {errors} errors"
    );
    let stats = engine.cache_stats();
    println!(
        "cache: {} hits, {} restored hits, {} misses, {} evictions, {} entries \
         ({} shards x {})",
        stats.hits,
        stats.restored_hits,
        stats.misses,
        stats.evictions,
        stats.entries,
        cli.shards,
        cli.capacity
    );
    let pipeline = engine.pipeline_stats();
    let short = engine.short_circuit_stats();
    let traffic = pipeline.iter().map(|s| s.decided).sum::<u64>() + short.total();
    let pct = |n: u64| {
        if traffic == 0 {
            0.0
        } else {
            100.0 * n as f64 / traffic as f64
        }
    };
    if !pipeline.is_empty() {
        println!("pipeline (per stage, % of {traffic} total decisions served):");
        for stage in &pipeline {
            println!(
                "  {:<22} {:>4} decided ({:>5.1}%), {:>4} continued, {:>4} inapplicable, \
                 {:>9.3}ms",
                stage.stage,
                stage.decided,
                pct(stage.decided),
                stage.continued,
                stage.inapplicable,
                stage.micros as f64 / 1000.0
            );
        }
        println!(
            "  {:<22} {:>4} decided ({:>5.1}%): {} cache hits + {} restored + \
             {} in-flight dedups",
            "short-circuited",
            short.total(),
            pct(short.total()),
            short.cached,
            short.restored,
            short.deduped
        );
    }
    println!("wall time: {:.3}ms", wall_micros as f64 / 1000.0);
}

fn print_json(
    cli: &Cli,
    engine: &Engine,
    entries: &[WorkloadEntry],
    runs: &[Vec<BatchResult>],
    metrics: &bqc_obs::MetricsSnapshot,
    wall_micros: u64,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"workload\": \"{}\",\n  \"requests\": {},\n  \"runs\": {},\n",
        json_escape(&cli.file),
        entries.len(),
        runs.len()
    ));
    out.push_str(&format!(
        "  \"distinct_pairs\": {},\n  \"results\": [\n",
        distinct_pairs(&runs[0])
    ));
    let mut first_row = true;
    for (run_index, results) in runs.iter().enumerate() {
        for (entry, result) in entries.iter().zip(results) {
            if !first_row {
                out.push_str(",\n");
            }
            first_row = false;
            let (verdict, detail) = match &result.answer {
                Ok(summary) => (summary.verdict().to_string(), summary.to_string()),
                Err(error) => ("error".to_string(), error.to_string()),
            };
            out.push_str(&format!(
                "    {{\"run\": {}, \"line\": {}, \"q1\": \"{}\", \"q2\": \"{}\", \
                 \"verdict\": \"{}\", \"detail\": \"{}\", \"provenance\": \"{}\", \
                 \"pair_hash\": \"{:016x}\", \"micros\": {}",
                run_index + 1,
                entry.line,
                json_escape(&entry.q1.to_string()),
                json_escape(&entry.q2.to_string()),
                json_escape(&verdict),
                json_escape(&detail),
                result.provenance,
                result.pair_hash,
                result.micros
            ));
            if let Some(trace) = &result.trace {
                out.push_str(&format!(
                    ", \"decided_by\": \"{}\", \"trace\": [",
                    json_escape(trace.decided_by().unwrap_or(""))
                ));
                for (i, report) in trace.reports().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"stage\": \"{}\", \"status\": \"{}\", \"citation\": \"{}\", \
                         \"micros\": {}",
                        json_escape(report.stage),
                        json_escape(report.status.label()),
                        json_escape(report.citation),
                        report.micros
                    ));
                    if let Some(note) = &report.note {
                        out.push_str(&format!(", \"note\": \"{}\"", json_escape(note)));
                    }
                    out.push('}');
                }
                out.push(']');
            }
            out.push('}');
        }
    }
    out.push_str("\n  ],\n");
    let stats = engine.cache_stats();
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"restored_hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"entries\": {}}},\n",
        stats.hits, stats.restored_hits, stats.misses, stats.evictions, stats.entries
    ));
    let by_provenance = |p: Provenance| {
        runs.iter()
            .flatten()
            .filter(|result| result.provenance == p)
            .count()
    };
    out.push_str(&format!(
        "  \"provenance\": {{\"fresh\": {}, \"cached\": {}, \"deduped\": {}}},\n",
        by_provenance(Provenance::Fresh),
        by_provenance(Provenance::CachedHit),
        by_provenance(Provenance::DedupedInFlight)
    ));
    let short = engine.short_circuit_stats();
    out.push_str(&format!(
        "  \"short_circuited\": {{\"cached\": {}, \"restored\": {}, \"deduped\": {}}},\n",
        short.cached, short.restored, short.deduped
    ));
    out.push_str("  \"pipeline\": [\n");
    let pipeline = engine.pipeline_stats();
    for (i, stage) in pipeline.iter().enumerate() {
        let comma = if i + 1 == pipeline.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"stage\": \"{}\", \"decided\": {}, \"continued\": {}, \
             \"inapplicable\": {}, \"micros\": {}}}{comma}\n",
            json_escape(stage.stage),
            stage.decided,
            stage.continued,
            stage.inapplicable,
            stage.micros
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"obs\": {},\n",
        bqc_obs::json_snapshot(metrics)
    ));
    out.push_str(&format!("  \"wall_micros\": {wall_micros}\n}}"));
    println!("{out}");
}
