//! Durable snapshots of the decision cache: a versioned, length-prefixed,
//! checksummed binary format, written atomically and reloaded on start.
//!
//! The whole point of the serving engine is that warm state — cached
//! verdicts — amortizes LP work across requests.  A batch process loses all
//! of it on exit; `bqc serve` persists it instead, so a restarted server
//! answers its steady-state traffic from byte-identical cached verdicts
//! ([`crate::Engine::save_snapshot`] / [`crate::Engine::load_snapshot`]).
//!
//! ## Format (version 1)
//!
//! All integers are little-endian.  The file is:
//!
//! ```text
//! magic      8 bytes   b"BQCSNAP\n"
//! version    u32       SNAPSHOT_VERSION (= 1)
//! sizes      u32       legacy manifest length; written as 0
//!            u32 × n   legacy manifest entries, skipped on load (older
//!                      builds listed their warm cone-skeleton sizes here)
//! entries    u64       number of cache entries
//!   per entry:
//!            u32       canonical-pair key length in bytes
//!            bytes     the canonical pair text (UTF-8, the cache key)
//!            u8        verdict tag: 0 = Contained, 1 = NotContained,
//!                      2 = Unknown
//!            u8        payload: witness_verified (tag 1) or obstruction
//!                      (tag 2: 0 = NotChordal, 1 = JunctionTreeNotSimple,
//!                      2, 3, 5 = ResourceExhausted for deadline / pivots /
//!                      hom-steps — encoded for codec totality, though the
//!                      engine never caches one; 4, once separation-rounds,
//!                      is retired and decodes as corrupt);
//!                      0 for tag 0
//! checksum   u64       FNV-1a over every preceding byte (magic included)
//! ```
//!
//! Pair hashes are deliberately **not** stored: they are recomputed from the
//! key text on load ([`crate::canon::fnv1a`]), so a snapshot cannot smuggle a
//! hash that disagrees with its key, and the format survives any future
//! change of the sharding function.
//!
//! ## Invariants
//!
//! * **Atomicity** — [`write_snapshot_file`] writes to a `.tmp` sibling,
//!   syncs it, and renames over the target; a crash mid-write leaves the old
//!   snapshot intact.
//! * **Integrity** — the trailing checksum covers every byte of the file.  A
//!   truncated or bit-flipped file fails decoding with
//!   [`SnapshotError::Corrupt`] *before* any field is interpreted.
//! * **Versioning** — the version field is checked only after the checksum
//!   passes; an intact snapshot from a different format version is refused
//!   with [`SnapshotError::VersionMismatch`], never half-parsed.
//! * **Quarantine** — [`load_or_quarantine`] renames an unreadable snapshot
//!   to `<path>.corrupt` and reports a cold start, so a damaged file can
//!   never crash-loop a server or be silently overwritten before an operator
//!   can inspect it.
//! * **Determinism** — [`encode_snapshot`] sorts entries by key, so two
//!   engines holding the same decisions produce byte-identical snapshots.

use crate::canon::fnv1a;
use bqc_core::{AnswerSummary, BudgetResource, Obstruction};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The 8-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BQCSNAP\n";

/// One persisted cache entry: the canonical pair key and its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The canonical pair text (see [`crate::canon::CanonicalPair::key`]);
    /// the 64-bit cache hash is recomputed from it on load.
    pub key: String,
    /// The cached verdict.
    pub summary: AnswerSummary,
}

/// An in-memory snapshot: the cache entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Cached decisions, sorted by key in the encoded form.
    pub entries: Vec<SnapshotEntry>,
}

/// Why a snapshot could not be decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read (or written).
    Io(std::io::Error),
    /// The bytes are not an intact snapshot: wrong magic, bad checksum,
    /// truncation, or a malformed field.  The message says which.
    Corrupt(String),
    /// The file is intact (checksum passes) but was written by a different
    /// format version.
    VersionMismatch {
        /// The version recorded in the file.
        found: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(error) => write!(f, "snapshot I/O error: {error}"),
            SnapshotError::Corrupt(message) => write!(f, "corrupt snapshot: {message}"),
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot version {found} is not the supported version {SNAPSHOT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(error: std::io::Error) -> SnapshotError {
        SnapshotError::Io(error)
    }
}

fn summary_tag(summary: &AnswerSummary) -> (u8, u8) {
    match summary {
        AnswerSummary::Contained => (0, 0),
        AnswerSummary::NotContained { witness_verified } => (1, u8::from(*witness_verified)),
        AnswerSummary::Unknown { obstruction } => (
            2,
            match obstruction {
                Obstruction::NotChordal => 0,
                Obstruction::JunctionTreeNotSimple => 1,
                // Encoded for codec totality only: the engine never caches a
                // budget-exhausted summary (see `Engine::decide`), so these
                // payloads should not appear in a snapshot it wrote.
                Obstruction::ResourceExhausted { resource } => match resource {
                    BudgetResource::Deadline => 2,
                    BudgetResource::Pivots => 3,
                    BudgetResource::HomSteps => 5,
                },
            },
        ),
    }
}

fn summary_from_tag(tag: u8, payload: u8) -> Result<AnswerSummary, SnapshotError> {
    match (tag, payload) {
        (0, 0) => Ok(AnswerSummary::Contained),
        (1, flag @ (0 | 1)) => Ok(AnswerSummary::NotContained {
            witness_verified: flag == 1,
        }),
        (2, 0) => Ok(AnswerSummary::Unknown {
            obstruction: Obstruction::NotChordal,
        }),
        (2, 1) => Ok(AnswerSummary::Unknown {
            obstruction: Obstruction::JunctionTreeNotSimple,
        }),
        (2, payload @ (2 | 3 | 5)) => Ok(AnswerSummary::Unknown {
            obstruction: Obstruction::ResourceExhausted {
                resource: match payload {
                    2 => BudgetResource::Deadline,
                    3 => BudgetResource::Pivots,
                    _ => BudgetResource::HomSteps,
                },
            },
        }),
        _ => Err(SnapshotError::Corrupt(format!(
            "unknown verdict encoding (tag {tag}, payload {payload})"
        ))),
    }
}

/// Encodes a snapshot to the version-1 byte format described in the module
/// docs.  Entries are sorted by key first, so the output is a deterministic
/// function of the snapshot's *contents*.
pub fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    let mut entries: Vec<&SnapshotEntry> = snapshot.entries.iter().collect();
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = Vec::with_capacity(64 + entries.iter().map(|e| e.key.len() + 8).sum::<usize>());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    // The legacy manifest, empty.
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for entry in entries {
        out.extend_from_slice(&(entry.key.len() as u32).to_le_bytes());
        out.extend_from_slice(entry.key.as_bytes());
        let (tag, payload) = summary_tag(&entry.summary);
        out.push(tag);
        out.push(payload);
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A little-endian cursor over the snapshot body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "unexpected end of data reading {what}"
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

/// Decodes snapshot bytes, validating magic, checksum and version (in that
/// order — see the module docs for why the checksum is verified before any
/// field is interpreted).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let min = SNAPSHOT_MAGIC.len() + 4 + 4 + 8 + 8;
    if bytes.len() < min {
        return Err(SnapshotError::Corrupt(format!(
            "{} bytes is shorter than the minimal snapshot ({min})",
            bytes.len()
        )));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(SnapshotError::Corrupt(format!(
            "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        )));
    }
    let mut reader = Reader {
        bytes: body,
        pos: SNAPSHOT_MAGIC.len(),
    };
    let version = reader.u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    let legacy_manifest = reader.u32("legacy manifest length")? as usize;
    for _ in 0..legacy_manifest {
        reader.u32("legacy manifest entry")?;
    }
    let entry_count = reader.u64("entry count")? as usize;
    let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
    for _ in 0..entry_count {
        let key_len = reader.u32("key length")? as usize;
        let key_bytes = reader.take(key_len, "key text")?;
        let key = std::str::from_utf8(key_bytes)
            .map_err(|_| SnapshotError::Corrupt("key is not UTF-8".into()))?
            .to_string();
        let tag = reader.u8("verdict tag")?;
        let payload = reader.u8("verdict payload")?;
        entries.push(SnapshotEntry {
            key,
            summary: summary_from_tag(tag, payload)?,
        });
    }
    if reader.pos != body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last entry",
            body.len() - reader.pos
        )));
    }
    Ok(Snapshot { entries })
}

/// Writes a snapshot to `path` **atomically**: the bytes go to a
/// `<path>.tmp` sibling first, are synced to disk, and the sibling is then
/// renamed over `path` (an atomic replacement on POSIX filesystems).  A crash
/// at any point leaves either the previous snapshot or the complete new one.
/// Returns the encoded size in bytes.
pub fn write_snapshot_file(path: &Path, snapshot: &Snapshot) -> std::io::Result<usize> {
    let bytes = encode_snapshot(snapshot);
    let tmp = sibling(path, ".tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        // The chaos suite kills the process at each of these failpoints to
        // prove the atomicity claim above; `persist::mid-write` sits between
        // two halves of the payload so a kill there leaves a torn temp file,
        // the worst case quarantine must absorb.
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        file.write_all(head)?;
        bqc_obs::failpoint("persist::mid-write");
        file.write_all(tail)?;
        bqc_obs::failpoint("persist::pre-fsync");
        file.sync_all()?;
    }
    bqc_obs::failpoint("persist::pre-rename");
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(bytes.len()),
        Err(error) => {
            // Leave no stray temp file behind on a failed rename.
            let _ = std::fs::remove_file(&tmp);
            Err(error)
        }
    }
}

/// Reads and decodes the snapshot at `path`.
pub fn read_snapshot_file(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes)
}

/// The outcome of [`load_or_quarantine`].
#[derive(Debug)]
pub enum LoadOutcome {
    /// The snapshot was read and validated.
    Loaded(Snapshot),
    /// No snapshot exists at the path — a normal cold start.
    Missing,
    /// The snapshot failed validation and was renamed aside so the server
    /// can start cold without destroying the evidence.
    Quarantined {
        /// Why the snapshot was rejected.
        error: SnapshotError,
        /// Where the rejected file was moved (`<path>.corrupt`), when the
        /// rename itself succeeded.
        quarantined_to: Option<PathBuf>,
    },
}

/// Loads the snapshot at `path`, degrading gracefully: a missing file is a
/// cold start, and a corrupt or version-mismatched file is **quarantined**
/// (renamed to `<path>.corrupt`) so the caller starts cold, the next save is
/// not blocked, and an operator can inspect the rejected bytes.  This
/// function never panics on bad input and never deletes data.
pub fn load_or_quarantine(path: &Path) -> LoadOutcome {
    match read_snapshot_file(path) {
        Ok(snapshot) => LoadOutcome::Loaded(snapshot),
        Err(SnapshotError::Io(error)) if error.kind() == std::io::ErrorKind::NotFound => {
            LoadOutcome::Missing
        }
        Err(error) => {
            let quarantine = sibling(path, ".corrupt");
            let quarantined_to = std::fs::rename(path, &quarantine).ok().map(|()| quarantine);
            LoadOutcome::Quarantined {
                error,
                quarantined_to,
            }
        }
    }
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            entries: vec![
                SnapshotEntry {
                    key: "(v0)|R(v0,v1) |= (v0)|S(v0,v0)".into(),
                    summary: AnswerSummary::Contained,
                },
                SnapshotEntry {
                    key: "()|R(v0,v1) |= ()|T(v0,v1,v2)".into(),
                    summary: AnswerSummary::NotContained {
                        witness_verified: true,
                    },
                },
                SnapshotEntry {
                    key: "()|A(v0) |= ()|B(v0)".into(),
                    summary: AnswerSummary::Unknown {
                        obstruction: Obstruction::JunctionTreeNotSimple,
                    },
                },
            ],
        }
    }

    #[test]
    fn round_trips_and_sorts_entries() {
        let snapshot = sample();
        let bytes = encode_snapshot(&snapshot);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.entries.len(), 3);
        // Entries come back sorted by key regardless of input order.
        let mut keys: Vec<&str> = snapshot.entries.iter().map(|e| e.key.as_str()).collect();
        keys.sort_unstable();
        let decoded_keys: Vec<&str> = decoded.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(decoded_keys, keys);
        for entry in &snapshot.entries {
            let found = decoded.entries.iter().find(|e| e.key == entry.key).unwrap();
            assert_eq!(found.summary, entry.summary);
        }
    }

    #[test]
    fn encoding_is_content_deterministic() {
        let mut reordered = sample();
        reordered.entries.reverse();
        assert_eq!(encode_snapshot(&sample()), encode_snapshot(&reordered));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let decoded = decode_snapshot(&encode_snapshot(&Snapshot::default())).unwrap();
        assert!(decoded.entries.is_empty());
    }

    #[test]
    fn legacy_manifest_entries_are_skipped() {
        // Older builds wrote warm cone-skeleton sizes after the version; such
        // snapshots still load, with the manifest ignored.
        let mut bytes = encode_snapshot(&sample());
        let at = SNAPSHOT_MAGIC.len() + 4;
        bytes.truncate(bytes.len() - 8);
        let manifest = [2u32, 5, 6].map(u32::to_le_bytes).concat();
        bytes.splice(at..at + 4, manifest);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bytes).unwrap(),
            decode_snapshot(&encode_snapshot(&sample())).unwrap()
        );
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = encode_snapshot(&sample());
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn version_mismatch_requires_an_intact_file() {
        // A wrong version with a *valid* checksum is a version mismatch …
        let snapshot = sample();
        let mut bytes = encode_snapshot(&snapshot);
        let at = SNAPSHOT_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
        let len = bytes.len();
        let checksum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::VersionMismatch { found: 2 })
        ));
        // … but a bit flip in the version field alone is corruption, not a
        // confident "wrong version" report.
        let mut flipped = encode_snapshot(&snapshot);
        flipped[at] ^= 0x02;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("bqc-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let snapshot = sample();
        let bytes = write_snapshot_file(&path, &snapshot).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len() as usize);
        let decoded = read_snapshot_file(&path).unwrap();
        assert_eq!(decoded.entries.len(), 3);
        // No temp sibling survives a successful write.
        assert!(!sibling(&path, ".tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let path = std::env::temp_dir().join("bqc-persist-definitely-missing.snap");
        assert!(matches!(load_or_quarantine(&path), LoadOutcome::Missing));
    }
}
