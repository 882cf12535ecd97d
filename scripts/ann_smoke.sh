#!/usr/bin/env bash
# ANN index smoke test: run `enld detect --index hnsw` against a
# generated lake (one HNSW build per selection round + batched queries),
# kill it with an injected panic at the `checkpoint.write` failpoint at
# the end of the first arrival, resume from the surviving checkpoint
# (which carries no index: the re-run rounds build their own), and
# assert the resumed verdicts match an uninterrupted run byte-for-byte
# (timings excluded). Called from check.sh and CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p enld-cli

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
BIN=./target/release/enld

"$BIN" generate --preset test-sim --noise 0.2 --seed 7 --out "$DIR/lake.json" >/dev/null

# Uninterrupted reference run on the approximate backend.
"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/base.json" >/dev/null

# Same run, killed at a checkpoint write: hit 1 is the checkpoint that
# `--checkpoint` writes before the first arrival, hit 2 the one at the end
# of arrival 0. Killing hit 2 leaves hit 1's, so the resume re-runs
# arrival 0 from its start, every selection round's index build included.
rc=0
ENLD_FAILPOINTS="checkpoint.write=panic@nth:2" \
  "$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/got.json" --checkpoint "$DIR/state.ckpt" \
  >/dev/null 2>"$DIR/crash.log" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "injected checkpoint.write crash did not kill the run"
  exit 1
fi
if [ ! -s "$DIR/state.ckpt" ]; then
  echo "crash left no checkpoint behind:"
  cat "$DIR/crash.log"
  exit 1
fi

"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/got.json" --checkpoint "$DIR/state.ckpt" --resume >/dev/null

# Re-queried verdicts must match the uninterrupted run exactly.
strip_times() { sed -E 's/"process_secs":[0-9.eE+-]+/"process_secs":0/g' "$1"; }
if ! diff <(strip_times "$DIR/base.json") <(strip_times "$DIR/got.json") >/dev/null; then
  echo "resumed hnsw verdicts diverge from the uninterrupted run"
  exit 1
fi

# The approximate backend must report its own telemetry families.
"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/metrics-run.json" --metrics-out "$DIR/metrics.json" >/dev/null
for family in enld.ann.inserts_total enld.ann.queries_total enld.ann.hops_total; do
  if ! grep -q "$family" "$DIR/metrics.json"; then
    echo "metrics snapshot is missing $family:"
    head -n 40 "$DIR/metrics.json"
    exit 1
  fi
done

echo "ann index smoke OK"
