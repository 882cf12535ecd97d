#!/usr/bin/env bash
# Trace/profile smoke test — the causal-tracing acceptance flow:
#   enld detect --trace-out spans.jsonl
#   enld profile spans.jsonl --chrome trace.json --folded stacks.folded
# asserts (a) the span file is one connected tree per trace rooted at
# enld.detect, (b) the Chrome export is valid trace-event JSON, and
# (c) the critical-path contributions cover the root wall-clock.
# Called from check.sh and CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p enld-cli

SMOKE_DIR=$(mktemp -d)
cleanup() { rm -rf "$SMOKE_DIR"; }
trap cleanup EXIT

./target/release/enld generate --preset test-sim --noise 0.2 --seed 7 \
  --out "$SMOKE_DIR/lake.json" >/dev/null

./target/release/enld detect --lake "$SMOKE_DIR/lake.json" --iterations 2 \
  --log-level warn --trace-out "$SMOKE_DIR/spans.jsonl" >/dev/null

if ! grep -q '"name":"enld.detect"' "$SMOKE_DIR/spans.jsonl"; then
  echo "trace file has no enld.detect span:"
  head -n 5 "$SMOKE_DIR/spans.jsonl"
  exit 1
fi
# Every span record carries the new linkage fields.
if grep '"type":"span"' "$SMOKE_DIR/spans.jsonl" | grep -qv '"trace":'; then
  echo "found span records without a trace id"
  exit 1
fi
if grep '"type":"span"' "$SMOKE_DIR/spans.jsonl" | grep -qv '"tid":'; then
  echo "found span records without a tid"
  exit 1
fi

PROFILE_OUT="$SMOKE_DIR/profile.txt"
./target/release/enld profile "$SMOKE_DIR/spans.jsonl" \
  --chrome "$SMOKE_DIR/trace.json" --folded "$SMOKE_DIR/stacks.folded" \
  | tee "$PROFILE_OUT"

grep -q 'critical path of trace' "$PROFILE_OUT" || {
  echo "profile output is missing the critical-path table"; exit 1; }
grep -q 'enld.detect' "$PROFILE_OUT" || {
  echo "profile output never mentions the detect root"; exit 1; }
# (c) the telescoped contributions must cover the root wall-clock.
COVER=$(sed -n 's/.*(\([0-9.]*\)% of root wall-clock).*/\1/p' "$PROFILE_OUT" | head -n1)
if [ -z "$COVER" ]; then
  echo "no coverage line in the critical-path report"; exit 1
fi
awk -v c="$COVER" 'BEGIN { exit !(c >= 95.0 && c <= 105.0) }' || {
  echo "critical path covers ${COVER}% of the root wall-clock (want 100% +/- 5%)"; exit 1; }

[ -s "$SMOKE_DIR/stacks.folded" ] || { echo "folded stacks are empty"; exit 1; }
grep -q ';' "$SMOKE_DIR/stacks.folded" || {
  echo "folded stacks have no multi-frame lines"; exit 1; }

grep -q '"traceEvents"' "$SMOKE_DIR/trace.json" || {
  echo "chrome export is missing traceEvents"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/spans.jsonl" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
assert events, "no complete (ph=X) events in the chrome export"

# (a) connected tree: every span's parent resolves and every span walks
# up to its trace's root detect span.
spans = {}
for line in open(sys.argv[2]):
    line = line.strip()
    if not line or '"type":"span"' not in line:
        continue
    rec = json.loads(line)
    spans[rec["id"]] = rec
for rec in spans.values():
    parent = rec.get("parent")
    if parent is not None:
        assert parent in spans, f"span {rec['id']} has unknown parent {parent}"
    cur, hops = rec, 0
    while cur.get("parent") is not None and hops < 10_000:
        cur = spans[cur["parent"]]
        hops += 1
    assert cur["id"] == rec["trace"], (
        f"span {rec['id']} walks to root {cur['id']} but claims trace {rec['trace']}")
roots = [r for r in spans.values() if r["id"] == r["trace"] and r["name"] == "enld.detect"]
assert roots, "no enld.detect root span"
tids = {r["tid"] for r in spans.values()}
print(f"trace OK: {len(spans)} spans, {len(roots)} detect root(s), {len(tids)} thread(s)")
PY
fi

if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$SMOKE_DIR/trace.json" "$SMOKE_DIR/spans.jsonl" "$PROFILE_OUT" \
    "$SMOKE_DIR/stacks.folded" "$SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
fi

echo "trace + profile smoke OK"
