#!/usr/bin/env bash
# Nightly-scale differential fuzzing entry point.
#
# CI runs a bounded 10k-pair campaign on every PR (deterministic seed,
# minutes); this script is the long-haul version: millions of generated
# pairs through the batch engine, every verdict replayed against the
# counting oracle, minimized repros collected as ready-to-check-in corpus
# cases.  Run it from cron / a nightly job, or by hand before a release:
#
#   scripts/fuzz_nightly.sh                      # 1M pairs, date-derived seed
#   scripts/fuzz_nightly.sh --pairs 10000000     # go bigger
#   scripts/fuzz_nightly.sh --seed 0xdecafbad    # replay a specific campaign
#
# Every discrepancy lands in target/fuzz-corpus/ as a corpus-format .bqc
# file: review it, add a comment line, and move it into examples/corpus/ —
# the corpus runner (tests/corpus_runner.rs, listed in CORPUS_FILES) will
# pin it forever after.
#
# The campaign is deterministic in (--pairs, --seed): rerunning with the
# values printed below reproduces every finding bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=1000000
# Derived from the date so consecutive nights explore different pair
# streams while any single night stays reproducible from its log line.
SEED="0x$(date -u +%Y%m%d)"
OUT="target/fuzz-corpus"
EXTRA=()

while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) PAIRS="$2"; shift 2 ;;
    --seed)  SEED="$2";  shift 2 ;;
    --out)   OUT="$2";   shift 2 ;;
    *)       EXTRA+=("$1"); shift ;;
  esac
done

echo "fuzz_nightly: $PAIRS pairs, seed $SEED, repros to $OUT"

# Self-test first: prove the oracle still catches an injected bug before
# trusting a clean run of the big campaign.
cargo run --release --bin bqc -- fuzz --pairs 500 --seed "$SEED" --self-test

# The campaign also writes its metric registry (LP pivots, cache hit rates,
# gamma-probes, Scalar promotions) next to the repros: a night-to-night
# record of where the decision stack spends its work.
mkdir -p "$OUT"
exec cargo run --release --bin bqc -- \
  fuzz --pairs "$PAIRS" --seed "$SEED" --out "$OUT" \
  --metrics-out "$OUT/metrics-$SEED.txt" "${EXTRA[@]+"${EXTRA[@]}"}"
