#!/usr/bin/env bash
# The CI bench-regression gate, runnable locally too.
#
#   scripts/bench_compare.sh           run quick benches, compare to BENCH_PR15.json
#   scripts/bench_compare.sh --rebase  run quick benches 3x, rewrite BENCH_PR15.json
#
# The quick-mode criterion run (BQC_BENCH_QUICK=1) appends per-scenario median
# records to a JSONL file (BQC_BENCH_JSON); `bench_compare collect` turns that
# into the canonical document and `bench_compare compare` enforces the 25%
# regression threshold plus six machine-independent speedup floors:
#
#   * the revised simplex >= 5x the dense oracle on the n=5 Shannon-cone
#     program;
#   * the counting refuter >= 5x the LP-only path on the refutable
#     parallel-blocks workload (m=3, a Γ_6 refutation avoided by counting);
#   * the staged pipeline (with trace collection) within 10% of the
#     pre-refactor direct path on the LP-bound k=6 cycle-in-path scenario
#     (legacy/pipeline >= 0.909, i.e. pipeline <= 1.1x legacy; the two
#     sides run interleaved, A, B, A, B, so run order cannot skew them);
#   * live bqc-obs metric probes within 5% of the same run with the runtime
#     kill switch off, on the cold-engine stage-mix batch
#     (disabled/enabled >= 0.952, i.e. enabled <= 1.05x disabled);
#   * resource budgets armed-but-never-exhausted within 5% of the unlimited
#     run on the LP-bound k=6 cycle-in-path scenario
#     (off/on >= 0.952, i.e. on <= 1.05x off; interleaved like the above);
#   * a snapshot-restored engine >= 5x a cold engine on the LP-bound restart
#     workload (experiment E19: restart warmth — a restored decision cache
#     answers repeat traffic without re-solving any LP).
#
# --normalize calibrates away uniform machine-speed differences (geomean of
# all ratios), so the committed baseline stays usable on CI runners that are
# faster or slower than the machine that recorded it; only scenario-local
# regressions trip the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR15.json
RAW=$(mktemp -t bqc-bench-raw.XXXXXX.jsonl)
# Kept after the run (CI uploads it as an artifact).
NEW=target/bench-medians.json
trap 'rm -f "$RAW"' EXIT
mkdir -p target

# One collection into the document "$1".  Each suite runs twice; `collect`
# keeps the best (smallest) median per scenario, which strips the
# scheduler-noise upper tail that a single quick-mode run of the
# multi-threaded engine scenarios is prone to.
collect() {
    : > "$RAW"
    for _ in 1 2; do
        BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_lp
        BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_engine
        BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_pipeline
        BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_serve
    done
    cargo run --release -p bqc-bench --bin bench_compare -- collect "$RAW" > "$1"
}

if [[ "${1:-}" == "--rebase" ]]; then
    # The baseline is the per-scenario median of three collections.  A single
    # collection's best-of-two is itself a noisy draw; committing it would
    # make its luckiest readings the reference every later run is held to.
    for i in 1 2 3; do
        collect "target/bench-medians.$i.json"
    done
    cargo run --release -p bqc-bench --bin bench_compare -- median \
        target/bench-medians.1.json target/bench-medians.2.json target/bench-medians.3.json \
        > "$BASELINE"
    echo "rewrote $BASELINE"
    exit 0
fi

collect "$NEW"

cargo run --release -p bqc-bench --bin bench_compare -- compare "$BASELINE" "$NEW" \
    --threshold 1.25 --normalize \
    --min-speedup lp/shannon_cone_feasibility/dense/5 lp/shannon_cone_feasibility/revised/5 5 \
    --min-speedup pipeline/refutable/lp_only/3 pipeline/refutable/refuter/3 5 \
    --min-speedup pipeline/overhead/legacy/6 pipeline/overhead/pipeline/6 0.909 \
    --min-speedup pipeline/obs/disabled/4 pipeline/obs/enabled/4 0.952 \
    --min-speedup pipeline/budget/off/6 pipeline/budget/on/6 0.952 \
    --min-speedup serve/restart/cold/4 serve/restart/restored/4 5
