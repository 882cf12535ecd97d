#!/usr/bin/env bash
# Crash/recovery smoke test: run `enld detect` against a generated lake,
# kill it with an injected failpoint panic mid-task, resume from the
# checkpoint, and assert the resumed verdicts match an uninterrupted run
# (timings excluded) and the audit ledger still replays. Called from
# check.sh and CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p enld-cli

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
BIN=./target/release/enld

"$BIN" generate --preset test-sim --noise 0.2 --seed 7 --out "$DIR/lake.json" >/dev/null

# Uninterrupted reference run.
"$BIN" detect --lake "$DIR/lake.json" --iterations 2 --out "$DIR/base.json" \
  --ledger "$DIR/base-ledger.jsonl" >/dev/null

# Same run, killed by an injected panic at iteration 1 of arrival 0.
rc=0
ENLD_FAILPOINTS="detector.iteration=panic@nth:2" \
  "$BIN" detect --lake "$DIR/lake.json" --iterations 2 --out "$DIR/got.json" \
  --ledger "$DIR/ledger.jsonl" --checkpoint "$DIR/state.ckpt" \
  >/dev/null 2>"$DIR/crash.log" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "injected crash did not kill the run"
  exit 1
fi
if [ ! -s "$DIR/state.ckpt" ]; then
  echo "crash left no checkpoint behind:"
  cat "$DIR/crash.log"
  exit 1
fi
# A checkpoint is written only between arrivals: the crash mid-task left
# the base alone, and no in-flight part beside it or anywhere else.
if [ -n "$(find "$DIR" -name '*.task')" ]; then
  echo "a crash mid-task left an in-flight part behind:"
  find "$DIR" -name '*.task'
  exit 1
fi
if [ -e "$DIR/got.json" ]; then
  echo "crashed run must not have written verdicts"
  exit 1
fi

# Resume from the checkpoint: the interrupted arrival is re-run from its
# start, and the verdicts must match the reference run (process_secs is
# wall clock, normalise it away before diffing).
"$BIN" detect --lake "$DIR/lake.json" --iterations 2 --out "$DIR/got.json" \
  --ledger "$DIR/ledger.jsonl" --checkpoint "$DIR/state.ckpt" --resume >/dev/null

strip_times() { sed -E 's/"process_secs":[0-9.eE+-]+/"process_secs":0/g' "$1"; }
if ! diff <(strip_times "$DIR/base.json") <(strip_times "$DIR/got.json") >/dev/null; then
  echo "resumed verdicts diverge from the uninterrupted run"
  exit 1
fi

# The appended-to ledger (crashed prefix + resumed records) must still
# replay: pick any logged sample and let `enld explain` recompute it.
SAMPLE=$(grep -o '"sample":[0-9]*' "$DIR/ledger.jsonl" | head -n1 | cut -d: -f2 || true)
if [ -z "$SAMPLE" ]; then
  echo "resumed ledger holds no sample records"
  exit 1
fi
if ! "$BIN" explain --ledger "$DIR/ledger.jsonl" --sample "$SAMPLE" >/dev/null; then
  echo "resumed ledger does not replay for sample $SAMPLE"
  exit 1
fi

# With the approximate backend active, the detector must surface the
# enld.ann.* telemetry families in its metrics snapshot.
"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/hnsw.json" --metrics-out "$DIR/hnsw-metrics.json" >/dev/null
for family in enld.ann.inserts_total enld.ann.queries_total; do
  if ! grep -q "$family" "$DIR/hnsw-metrics.json"; then
    echo "hnsw metrics snapshot is missing $family:"
    head -n 40 "$DIR/hnsw-metrics.json"
    exit 1
  fi
done

echo "checkpoint/resume smoke OK"
