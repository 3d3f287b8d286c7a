//! Experiment E19: restart warmth of the serving layer.
//!
//! Three question groups:
//!
//! * `serve/snapshot` — raw snapshot-format throughput: `encode` and
//!   `decode` of a synthetic snapshot with realistic canonical-key text;
//! * `serve/restart` — the headline restart-warmth comparison on an
//!   LP-bound workload: `cold` decides every distinct pair from scratch
//!   (canonicalize + Shannon-cone LP), `restored` first restores a
//!   predecessor's snapshot and answers the same workload from
//!   byte-identical cached verdicts, paying only canonicalization.  The
//!   bench-regression gate enforces `restored` ≥ 5x `cold`
//!   (scripts/bench_compare.sh) — machine-independent, so it holds on any
//!   runner;
//! * `serve/rtt` — end-to-end request latency through a real `bqc-serve`
//!   daemon socket for a cache-hit request: protocol parse + queue +
//!   micro-batch + cache probe + response write, no decision work.

use bqc_bench::{cycle_query, path_query, rename_shuffle};
use bqc_core::DecideOptions;
use bqc_engine::{
    decode_snapshot, encode_snapshot, Engine, EngineOptions, Snapshot, SnapshotEntry,
};
use bqc_relational::ConjunctiveQuery;
use bqc_serve::{ServeOptions, Server};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

fn engine_options() -> EngineOptions {
    EngineOptions {
        decide: DecideOptions {
            // The comparison targets decide-vs-cache, not witness
            // materialization (experiment E12), mirroring bench_engine.
            extract_witness: false,
            ..DecideOptions::default()
        },
        ..EngineOptions::default()
    }
}

/// A synthetic snapshot with `entries` keys shaped like real canonical key
/// text (two canonical queries joined by the pair separator).
fn synthetic_snapshot(entries: usize) -> Snapshot {
    Snapshot {
        entries: (0..entries)
            .map(|i| SnapshotEntry {
                key: format!(
                    "Q() :- R(v0,v1), R(v1,v2), R(v2,v{i}) ;; Q() :- R(v0,v1), R(v0,v2), S(v2,v{i})"
                ),
                summary: if i % 3 == 0 {
                    bqc_core::AnswerSummary::Contained
                } else {
                    bqc_core::AnswerSummary::NotContained {
                        witness_verified: i % 2 == 0,
                    }
                },
            })
            .collect(),
    }
}

fn bench_snapshot_format(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/snapshot");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    let entries = 4096usize;
    let snapshot = synthetic_snapshot(entries);
    let bytes = encode_snapshot(&snapshot);
    group.bench_with_input(
        BenchmarkId::new("encode", entries),
        &snapshot,
        |b, snapshot| b.iter(|| encode_snapshot(snapshot).len()),
    );
    group.bench_with_input(BenchmarkId::new("decode", entries), &bytes, |b, bytes| {
        b.iter(|| {
            decode_snapshot(bytes)
                .expect("valid snapshot")
                .entries
                .len()
        })
    });
    group.finish();
}

/// The restart workload: LP-bound containment questions (the k-cycle inside
/// the (k-1)-path — decided by the Shannon-cone LP, the most expensive
/// stage), each appearing `repeats` times under shuffled variable names and
/// atom orders.  Decision cost dominates canonicalization here, which is
/// exactly the regime where restart warmth pays: a restored engine skips
/// every LP solve.
fn restart_workload(repeats: usize) -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    let mut workload = Vec::new();
    for k in [4usize, 5, 6] {
        let cycle = cycle_query(k);
        let path = path_query(k - 1);
        for copy in 0..repeats {
            let seed = (k * 31 + copy) as u64;
            workload.push((
                rename_shuffle(&cycle, seed),
                rename_shuffle(&path, seed + 1),
            ));
        }
    }
    workload
}

fn bench_restart_warmth(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/restart");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    let repeats = 4usize;
    let workload = restart_workload(repeats);
    // The predecessor process: compute everything once, keep its snapshot.
    let donor = Engine::new(engine_options());
    donor.decide_batch(&workload);
    let snapshot = donor.snapshot();

    group.bench_with_input(
        BenchmarkId::new("cold", repeats),
        &workload,
        |b, workload| {
            b.iter(|| {
                let engine = Engine::new(engine_options());
                engine.decide_batch(workload).len()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("restored", repeats),
        &(&workload, &snapshot),
        |b, (workload, snapshot)| {
            b.iter(|| {
                let engine = Engine::new(engine_options());
                engine.restore_snapshot(snapshot);
                engine.decide_batch(workload).len()
            })
        },
    );
    group.finish();
}

fn bench_daemon_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/rtt");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    let engine = Arc::new(Engine::new(engine_options()));
    let server = Server::bind(
        engine,
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        },
    )
    .expect("bind bench daemon");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().expect("serve loop"));

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    let request = "Q1() :- R(x,y), R(y,z), R(z,x) ; Q2() :- R(u,v), R(u,w)";
    // Warm the cache so the timed loop measures serving, not deciding.
    writeln!(writer, "{request}").unwrap();
    line.clear();
    reader.read_line(&mut line).expect("warm-up response");

    group.bench_function("cached/1", |b| {
        b.iter(|| {
            writeln!(writer, "{request}").unwrap();
            line.clear();
            reader.read_line(&mut line).expect("response");
            line.len()
        })
    });
    group.finish();

    shutdown.shutdown();
    daemon.join().expect("daemon thread");
}

criterion_group!(
    benches,
    bench_snapshot_format,
    bench_restart_warmth,
    bench_daemon_round_trip
);
criterion_main!(benches);
