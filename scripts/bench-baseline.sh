#!/usr/bin/env sh
# Regenerates the committed benchmark baselines (BENCH_conv.json,
# BENCH_infer.json, BENCH_int8.json, BENCH_serve.json, BENCH_scale.json
# and BENCH_replay.json).
#
# Run this — never hand-edit the JSON — when a PR intentionally changes
# performance, then commit the refreshed files alongside the change. CI's
# bench-regression job diffs every push against these baselines with
# `bench_json compare --normalize --tolerance 2.0`.
#
# The baselines are always recorded with the --quick suites (the exact record
# sets CI reruns; a --full baseline would make every quick record MISSING and
# the gate permanently red) and with PIT_NUM_THREADS=1, so the numbers do
# not encode the core count of whoever refreshed them — CI pins the same.
#
# One --quick run spreads 30–50% on a shared VM, so each bench_json
# baseline is the per-record median of $RUNS runs (`bench_json median`:
# every record is the whole record of its median run). The replay baseline
# is a single run.
#
# Usage: scripts/bench-baseline.sh [BASELINE...]
#
# With no argument every baseline is re-recorded. Name baseline files
# (e.g. `scripts/bench-baseline.sh BENCH_conv.json`) to re-record only
# those, so a change that moves one suite leaves the other files, and the
# host they were recorded on, alone. An unknown name exits 2.
set -eu
ALL="BENCH_conv.json BENCH_infer.json BENCH_int8.json BENCH_serve.json BENCH_scale.json BENCH_replay.json"
for name in "$@"; do
    case " $ALL " in
    *" $name "*) ;;
    *)
        echo "bench-baseline.sh: unknown baseline '$name' (known: $ALL)" >&2
        exit 2
        ;;
    esac
done
if [ "$#" -gt 0 ]; then
    WANT="$*"
else
    WANT=$ALL
fi
# wanted NAME: true when NAME is to be re-recorded.
wanted() {
    case " $WANT " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
    esac
}
cd "$(dirname "$0")/.."
RUNS=11
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cargo build --locked --release -p pit-bench --bin bench_json
BENCH=target/release/bench_json

# record OUT [SUITE ARGS...]: the per-record medians of $RUNS quick runs.
record() {
    out=$1
    shift
    echo "regenerating $out (median of $RUNS runs, 1 thread) $*..."
    i=1
    while [ "$i" -le "$RUNS" ]; do
        PIT_NUM_THREADS=1 "$BENCH" --quick "$@" --out "$WORK/run-$i.json"
        i=$((i + 1))
    done
    "$BENCH" median --out "$out" "$WORK"/run-*.json
    rm -f "$WORK"/run-*.json
}

wanted BENCH_conv.json && record BENCH_conv.json
wanted BENCH_infer.json && record BENCH_infer.json --suites infer
wanted BENCH_int8.json && record BENCH_int8.json --suites quant
wanted BENCH_serve.json && record BENCH_serve.json --suites serve
wanted BENCH_scale.json && record BENCH_scale.json --suites scale
if wanted BENCH_replay.json; then
    # The replay baseline needs a model zoo; build the same fixed-seed quick
    # zoo the CI replay job uses into a scratch dir, then record the quick
    # replay population against an in-process daemon (no TCP daemon to
    # babysit here — the in-process and external paths drive identical
    # traffic).
    echo "regenerating BENCH_replay.json (quick zoo + replay population, 1 thread)..."
    cargo run --locked --release -p pit-search -- --out "$WORK/zoo" --quick
    PIT_NUM_THREADS=1 cargo run --locked --release -p pit-replay --bin pit-replay -- \
        --zoo "$WORK/zoo/zoo.json" --quick --bench-out BENCH_replay.json
fi
echo "done. review the diff and commit: $WANT"
