#!/usr/bin/env bash
# ANN index smoke test: run `enld detect --index hnsw` against a
# generated lake (HNSW builds + batched queries),
# kill it with an injected panic at the `ann.persist` failpoint while
# the checkpoint writer serializes the graph blob, resume from the
# surviving checkpoint — which must restore the persisted index instead
# of rebuilding it — and assert the resumed verdicts match an
# uninterrupted run byte-for-byte (timings excluded). Called from
# check.sh and CI.
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

# Same run, killed mid-persist. The graph is serialised only when the
# checkpoint base is written, never for a task's in-flight part: base 1
# (the first post-warm-up persist) lands with the graph embedded, and
# base 2, at the end of arrival 0, dies inside `to_bytes`; the resume
# finishes arrival 0 from base 1 and the part of its last iteration.
rc=0
ENLD_FAILPOINTS="ann.persist=panic@nth:2" \
  "$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/got.json" --checkpoint "$DIR/state.ckpt" \
  >/dev/null 2>"$DIR/crash.log" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "injected ann.persist crash did not kill the run"
  exit 1
fi
if [ ! -s "$DIR/state.ckpt" ]; then
  echo "crash left no checkpoint behind:"
  cat "$DIR/crash.log"
  exit 1
fi

# Resume: the checkpointed index must be restored, not rebuilt.
"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/got.json" --checkpoint "$DIR/state.ckpt" --resume \
  > "$DIR/resume.log"
if ! grep -q "ann index from checkpoint (rebuild skipped)" "$DIR/resume.log"; then
  echo "resume did not restore the ann index from the checkpoint:"
  cat "$DIR/resume.log"
  exit 1
fi

# Re-queried verdicts must match the uninterrupted run exactly.
strip_times() { sed -E 's/"process_secs":[0-9.eE+-]+/"process_secs":0/g' "$1"; }
if ! diff <(strip_times "$DIR/base.json") <(strip_times "$DIR/got.json") >/dev/null; then
  echo "resumed hnsw verdicts diverge from the uninterrupted run"
  exit 1
fi

# The approximate backend must report its own telemetry families.
"$BIN" detect --lake "$DIR/lake.json" --index hnsw --iterations 2 \
  --out "$DIR/metrics-run.json" --metrics-out "$DIR/metrics.json" >/dev/null
for family in enld.ann.inserts_total enld.ann.queries_total enld.ann.hops_total enld.ann.recall_probe; do
  if ! grep -q "$family" "$DIR/metrics.json"; then
    echo "metrics snapshot is missing $family:"
    head -n 40 "$DIR/metrics.json"
    exit 1
  fi
done

echo "ann index smoke OK"
