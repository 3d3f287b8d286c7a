//! Snapshot round-trip and compatibility suite.
//!
//! The contract under test (ARCHITECTURE.md, "The serving layer"): a saved
//! snapshot restores to **byte-identical** cached verdicts — same keys, same
//! `AnswerSummary` values, same hit behavior — and every damaged or
//! incompatible snapshot is *refused* (never half-parsed) and quarantined
//! rather than crashing the process.  Plus the end-to-end restart property:
//! an engine restored from another engine's snapshot answers the first
//! engine's traffic entirely from cache.

use bqc_core::{AnswerSummary, Obstruction};
use bqc_engine::{
    decode_snapshot, encode_snapshot, load_or_quarantine, parse_workload, Engine, LoadOutcome,
    Provenance, Snapshot, SnapshotEntry, SnapshotError, SnapshotLoad, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh per-test temp path (the suite runs tests in parallel).
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bqc-persist-{}-{tag}-{n}.snap", std::process::id()))
}

/// All five distinct `AnswerSummary` values, indexed.
fn summary(index: usize) -> AnswerSummary {
    match index % 5 {
        0 => AnswerSummary::Contained,
        1 => AnswerSummary::NotContained {
            witness_verified: false,
        },
        2 => AnswerSummary::NotContained {
            witness_verified: true,
        },
        3 => AnswerSummary::Unknown {
            obstruction: Obstruction::NotChordal,
        },
        _ => AnswerSummary::Unknown {
            obstruction: Obstruction::JunctionTreeNotSimple,
        },
    }
}

/// A small exercising workload: containment, refutation with witness, and a
/// canonical repeat (deduped on first contact, cached afterwards).
const WORKLOAD: &str = "\
Q1() :- R(x,y), R(y,z), R(z,x) ; Q2() :- R(u,v), R(u,w)
Q1() :- R(u,v), R(u,w) ; Q2() :- R(x,y), R(y,z), R(z,x)
Q1() :- R(x,y), S(x,y) ; Q2() :- R(u,v)
Q1() :- R(x,y) ; Q2() :- S(u,v)
";

fn requests() -> Vec<(
    bqc_relational::ConjunctiveQuery,
    bqc_relational::ConjunctiveQuery,
)> {
    parse_workload(WORKLOAD)
        .unwrap()
        .into_iter()
        .map(|e| (e.q1, e.q2))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary entry sets (every verdict kind, arbitrary keys incl.
    /// non-ASCII) survive encode → decode byte-exactly.
    #[test]
    fn arbitrary_snapshots_round_trip(
        count in 0usize..24,
        key_seed in 0u64..1_000_000,
    ) {
        let entries: Vec<SnapshotEntry> = (0..count)
            .map(|i| SnapshotEntry {
                // Distinct keys with awkward bytes: pipes, unicode, spaces.
                key: format!("()|R(v{i},v{}) |= Δ{key_seed} #{i}", i + 1),
                summary: summary(i + key_seed as usize),
            })
            .collect();
        let snapshot = Snapshot {
            entries: entries.clone(),
        };
        let decoded = decode_snapshot(&encode_snapshot(&snapshot)).unwrap();
        prop_assert_eq!(decoded.entries.len(), entries.len());
        for entry in &entries {
            let found = decoded.entries.iter().find(|e| e.key == entry.key);
            prop_assert_eq!(found.map(|e| e.summary), Some(entry.summary));
        }
    }

    /// Every truncation of a valid snapshot is rejected — no prefix parses.
    #[test]
    fn truncated_snapshots_are_rejected(cut in 0usize..300) {
        let snapshot = Snapshot {
            entries: (0..6).map(|i| SnapshotEntry {
                key: format!("()|R(v0,v{i}) |= ()|S(v0)"),
                summary: summary(i),
            }).collect(),
        };
        let bytes = encode_snapshot(&snapshot);
        prop_assume!(cut < bytes.len());
        let err = decode_snapshot(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "truncation at {} must be Corrupt, got {:?}", cut, err
        );
    }

    /// A single flipped bit anywhere in the file is caught by the checksum
    /// (or, for flips inside the trailer itself, by the mismatch against the
    /// body) — decoding never yields a different valid snapshot.
    #[test]
    fn bit_flips_are_rejected(position_seed in 0usize..100_000, bit in 0usize..8) {
        let snapshot = Snapshot {
            entries: (0..4).map(|i| SnapshotEntry {
                key: format!("()|R(v0,v{i}) |= ()|T(v0,v1,v2)"),
                summary: summary(i),
            }).collect(),
        };
        let mut bytes = encode_snapshot(&snapshot);
        let position = position_seed % bytes.len();
        bytes[position] ^= 1 << bit;
        prop_assert!(
            decode_snapshot(&bytes).is_err(),
            "flip of bit {} at byte {} must not decode", bit, position
        );
    }
}

#[test]
fn version_mismatch_is_refused_not_half_parsed() {
    // Re-checksum a structurally valid file claiming version 99.
    let snapshot = Snapshot {
        entries: vec![SnapshotEntry {
            key: "()|R(v0,v1) |= ()|R(v0,v1)".into(),
            summary: AnswerSummary::Contained,
        }],
    };
    let mut bytes = encode_snapshot(&snapshot);
    let at = SNAPSHOT_MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
    let len = bytes.len();
    let checksum = bqc_engine::fnv1a(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(SnapshotError::VersionMismatch { found: 99 }) => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert_eq!(SNAPSHOT_VERSION, 1, "bump the compatibility tests on rev");
}

#[test]
fn retired_separation_rounds_payload_is_corrupt() {
    // Verdict payload (2, 4) once meant "separation-rounds budget
    // exhausted"; that resource is gone and the payload is not reused, so an
    // intact file carrying it is refused as corrupt.
    let snapshot = Snapshot {
        entries: vec![SnapshotEntry {
            key: "()|R(v0,v1) |= ()|R(v0,v1)".into(),
            summary: AnswerSummary::Unknown {
                obstruction: Obstruction::NotChordal,
            },
        }],
    };
    let mut bytes = encode_snapshot(&snapshot);
    let len = bytes.len();
    // The entry's (tag, payload) bytes sit just before the checksum.
    assert_eq!(&bytes[len - 10..len - 8], &[2, 0]);
    bytes[len - 9] = 4;
    let checksum = bqc_engine::fnv1a(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(SnapshotError::Corrupt(message)) => {
            assert!(message.contains("tag 2, payload 4"), "{message}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn engine_snapshot_restores_byte_identical_summaries_and_hits() {
    let first = Engine::default();
    let requests = requests();
    let original = first.decide_batch(&requests);
    let path = temp_path("roundtrip");
    let saved = first.save_snapshot(&path).unwrap();
    assert_eq!(saved.entries as u64, first.cache_stats().entries);
    assert!(saved.bytes > 0);

    // A brand-new engine ("restarted server") restores the snapshot.
    let second = Engine::default();
    match second.load_snapshot(&path) {
        SnapshotLoad::Restored { entries, .. } => assert_eq!(entries, saved.entries),
        other => panic!("expected Restored, got {other:?}"),
    }
    let replayed = second.decide_batch(&requests);
    for (old, new) in original.iter().zip(&replayed) {
        // Byte-identical verdicts: AnswerSummary is Copy + Eq, so equality
        // here is exactly value identity.
        assert_eq!(
            old.answer.as_ref().unwrap(),
            new.answer.as_ref().unwrap(),
            "restored summary must equal the originally computed one"
        );
        assert_eq!(old.pair_hash, new.pair_hash);
        assert_eq!(
            new.provenance,
            Provenance::CachedHit,
            "every previously-seen pair must be answered from the restored cache"
        );
    }
    // The restored hits landed in the restored bucket, not hits or misses —
    // and no fresh pipeline work happened at all.
    let stats = second.cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.restored_hits, saved.entries as u64);
    assert_eq!(stats.restored, saved.entries as u64);
    assert_eq!(second.pipeline_stats().len(), 0, "no fresh decisions ran");
    assert_eq!(
        second.short_circuit_stats().restored,
        saved.entries as u64,
        "telemetry counts restored serves in their own bucket"
    );
    // A fresh recomputation of one pair clears its restored mark.
    let (q1, q2) = &requests[0];
    second.clear_cache();
    second.decide(q1, q2).unwrap();
    second.decide(q1, q2).unwrap();
    assert_eq!(second.cache_stats().hits, 1, "now a plain warm hit");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_snapshot_is_quarantined_and_engine_starts_cold() {
    let path = temp_path("quarantine");
    let first = Engine::default();
    let requests = requests();
    first.decide_batch(&requests);
    first.save_snapshot(&path).unwrap();
    // Flip a byte in the middle of the file on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let second = Engine::default();
    let quarantined_to = match second.load_snapshot(&path) {
        SnapshotLoad::Quarantined {
            error,
            quarantined_to,
        } => {
            assert!(matches!(error, SnapshotError::Corrupt(_)));
            quarantined_to.expect("rename succeeded")
        }
        other => panic!("expected Quarantined, got {other:?}"),
    };
    // The bad file moved aside; the original path is free for the next save.
    assert!(!path.exists());
    assert!(quarantined_to.exists());
    assert!(quarantined_to.to_string_lossy().ends_with(".corrupt"));
    // The engine runs cold without crashing …
    let results = second.decide_batch(&requests);
    assert!(results
        .iter()
        .all(|r| r.provenance != Provenance::CachedHit));
    assert_eq!(second.cache_stats().restored, 0);
    // … and its next save is not blocked by the quarantined file.
    second.save_snapshot(&path).unwrap();
    match Engine::default().load_snapshot(&path) {
        SnapshotLoad::Restored { .. } => {}
        other => panic!("post-quarantine save must load cleanly, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&quarantined_to).ok();
}

#[test]
fn missing_snapshot_is_a_cold_start() {
    let engine = Engine::default();
    let path = temp_path("missing");
    match engine.load_snapshot(&path) {
        SnapshotLoad::ColdStart => {}
        other => panic!("expected ColdStart, got {other:?}"),
    }
    assert!(matches!(load_or_quarantine(&path), LoadOutcome::Missing));
}

#[test]
fn snapshots_are_content_deterministic_across_engines() {
    // Two engines that computed the same decisions (in different orders)
    // write byte-identical snapshot files.
    let requests = requests();
    let a = Engine::default();
    a.decide_batch(&requests);
    let b = Engine::default();
    let mut reversed = requests.clone();
    reversed.reverse();
    b.decide_batch(&reversed);
    let pa = temp_path("det-a");
    let pb = temp_path("det-b");
    a.save_snapshot(&pa).unwrap();
    b.save_snapshot(&pb).unwrap();
    assert_eq!(
        std::fs::read(&pa).unwrap(),
        std::fs::read(&pb).unwrap(),
        "snapshot bytes are a function of the cached decisions alone"
    );
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
}

#[test]
fn concurrent_saves_to_one_path_all_succeed() {
    // The serve daemon saves from its interval timer and from every
    // `!snapshot` request; all of them share the `<path>.tmp` sibling.
    let engine = Engine::default();
    engine.decide_batch(&requests());
    let path = temp_path("concurrent");
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        let savers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    engine.save_snapshot(&path)
                })
            })
            .collect();
        for saver in savers {
            let saved = saver
                .join()
                .unwrap()
                .expect("every concurrent save succeeds");
            assert_eq!(saved.entries as u64, engine.cache_stats().entries);
        }
    });
    let bytes = std::fs::read(&path).unwrap();
    decode_snapshot(&bytes).expect("the final file decodes");
    assert_eq!(bytes, encode_snapshot(&engine.snapshot()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn interleaved_repeated_saves_to_one_path_all_succeed() {
    // Two `!snapshot` connections saving back to back: without per-engine
    // serialization the second rename of a shared `<path>.tmp` finds the
    // file already gone ("No such file or directory").
    let engine = Engine::default();
    engine.decide_batch(&requests());
    let path = temp_path("interleaved");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                for round in 0..50 {
                    engine
                        .save_snapshot(&path)
                        .unwrap_or_else(|e| panic!("save {round} failed: {e}"));
                    let bytes = std::fs::read(&path).unwrap();
                    decode_snapshot(&bytes).expect("the file decodes between saves");
                }
            });
        }
    });
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes, encode_snapshot(&engine.snapshot()));
    std::fs::remove_file(&path).ok();
}
