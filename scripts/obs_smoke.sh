#!/usr/bin/env bash
# Observability smoke test: launch `enld serve --obs-addr 127.0.0.1:0`
# against a generated lake (with the hnsw index active), scrape /metrics
# and /healthz over real HTTP, and assert the lake.queue.depth,
# per-worker service-time, and enld.ann.* families are exposed, and that
# /traces and /timeseries are gone. Then serve the lake again with
# --trace-out and assert `enld profile` finds one serve.pool.job root
# per arrival and a critical path covering its root's wall-clock. Called
# from check.sh and CI; the span file lands in $SMOKE_ARTIFACT_DIR when set.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v curl >/dev/null 2>&1; then
  echo "curl not found; skipping the observability smoke test"
  exit 0
fi

cargo build --release -q -p enld-cli

SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

./target/release/enld generate --preset test-sim --noise 0.2 --seed 7 \
  --out "$SMOKE_DIR/lake.json" >/dev/null

# --obs-linger keeps the endpoint scrapable after the short run so the
# polling loop below cannot race the process exit. --index hnsw makes
# the serve path exercise the approximate index, whose enld.ann.*
# telemetry families are asserted below.
./target/release/enld serve --lake "$SMOKE_DIR/lake.json" --workers 2 --iterations 2 \
  --index hnsw --obs-addr 127.0.0.1:0 --obs-linger 120 --ledger "$SMOKE_DIR/ledger.jsonl" \
  > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!

# If the server dies mid-poll, surface its real exit code and log instead
# of spinning until the retry budget runs out.
server_alive_or_die() {
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    rc=0
    wait "$SERVE_PID" || rc=$?
    SERVE_PID=""
    echo "enld serve exited early (exit code $rc):"
    cat "$SMOKE_DIR/serve.log"
    exit "$((rc == 0 ? 1 : rc))"
  fi
}

ADDR=""
for _ in $(seq 1 240); do
  server_alive_or_die
  ADDR=$(sed -n 's#^observability endpoint listening on http://##p' "$SMOKE_DIR/serve.log" | head -n1)
  [ -n "$ADDR" ] && break
  sleep 0.5
done
if [ -z "$ADDR" ]; then
  echo "obs endpoint never announced itself:"
  cat "$SMOKE_DIR/serve.log"
  exit 1
fi

METRICS=""
FOUND=""
for _ in $(seq 1 240); do
  server_alive_or_die
  METRICS=$(curl -fsS "http://$ADDR/metrics" || true)
  if printf '%s\n' "$METRICS" | grep -q '^lake_queue_depth ' &&
     printf '%s\n' "$METRICS" | grep -q '^serve_worker_0_service_secs_count ' &&
     printf '%s\n' "$METRICS" | grep -q '^enld_ann_inserts_total '; then
    FOUND=1
    break
  fi
  sleep 0.5
done
if [ -z "$FOUND" ]; then
  echo "lake_queue_depth / serve_worker_0_service_secs / enld_ann_* families never appeared in /metrics:"
  printf '%s\n' "$METRICS"
  exit 1
fi

HEALTHY=""
for _ in $(seq 1 60); do
  server_alive_or_die
  HEALTHZ=$(curl -fsS "http://$ADDR/healthz" || true)
  if printf '%s' "$HEALTHZ" | grep -q '"status"'; then
    HEALTHY=1
    break
  fi
  sleep 0.5
done
if [ -z "$HEALTHY" ]; then
  echo "/healthz never answered with a status payload"
  exit 1
fi
for field in version build; do
  if ! printf '%s' "$HEALTHZ" | grep -q "\"$field\""; then
    echo "/healthz is missing the \"$field\" field: $HEALTHZ"
    exit 1
  fi
done
# A stationary lake must never trip the drift rules: health stays "ok"
# and the alerts-firing gauge the monitor publishes reads zero.
if ! printf '%s' "$HEALTHZ" | grep -q '"status":"ok"'; then
  echo "/healthz reports a degraded run on a stationary lake: $HEALTHZ"
  exit 1
fi
if ! printf '%s\n' "$METRICS" | grep -q '^enld_alerts_firing 0$'; then
  echo "enld_alerts_firing gauge missing or nonzero in /metrics:"
  printf '%s\n' "$METRICS" | grep '^enld_alerts' || true
  exit 1
fi

# Process resource gauges ride the same snapshot (Linux procfs; no-op
# elsewhere, so only assert where /proc exists).
if [ -r /proc/self/statm ]; then
  if ! printf '%s\n' "$METRICS" | grep -q '^process_rss_bytes '; then
    echo "process_rss_bytes gauge missing from /metrics on Linux:"
    printf '%s\n' "$METRICS" | head -n 40
    exit 1
  fi
fi

# Spans are not served over HTTP, and neither are metric windows.
for gone in /traces /timeseries; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR$gone")
  if [ "$CODE" != "404" ]; then
    echo "$gone should answer 404, got $CODE"
    exit 1
  fi
done

# Per-arrival traces come from --trace-out and `enld profile`.
./target/release/enld serve --lake "$SMOKE_DIR/lake.json" --workers 2 --iterations 2 \
  --obs-addr 127.0.0.1:0 --trace-out "$SMOKE_DIR/spans.jsonl" > "$SMOKE_DIR/traced.log" 2>&1 || {
  echo "enld serve --trace-out failed:"; cat "$SMOKE_DIR/traced.log"; exit 1; }
# Keep the artifacts CI uploads out of the tempdir cleanup.
if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$SMOKE_DIR/spans.jsonl" "$SMOKE_ARTIFACT_DIR/spans.jsonl"
fi
ARRIVALS=$(sed -n 's/^served \([0-9]*\) arrivals.*/\1/p' "$SMOKE_DIR/traced.log")
# One root per arrival: each job span is its own trace.
grep '"type":"span"' "$SMOKE_DIR/spans.jsonl" | grep '"name":"serve.pool.job"' \
  | grep -v '"parent":' > "$SMOKE_DIR/job-roots.jsonl" || true
JOB_ROOTS=$(wc -l < "$SMOKE_DIR/job-roots.jsonl")
if [ -z "$ARRIVALS" ] || [ "$JOB_ROOTS" -ne "$ARRIVALS" ]; then
  echo "want one serve.pool.job root per arrival: $JOB_ROOTS root(s), ${ARRIVALS:-?} arrival(s)"
  exit 1
fi
# The slowest arrival's critical path must cover its root's wall-clock.
SLOWEST=$(sed -n 's/^{"type":"span","id":\([0-9]*\),.*"dur_us":\([0-9]*\),.*/\2 \1/p' \
  "$SMOKE_DIR/job-roots.jsonl" | sort -n | tail -n1 | cut -d' ' -f2)
./target/release/enld profile "$SMOKE_DIR/spans.jsonl" --trace "$SLOWEST" > "$SMOKE_DIR/profile.txt"
grep -q "critical path of trace $SLOWEST (root serve.pool.job" "$SMOKE_DIR/profile.txt" || {
  echo "no critical path of job trace $SLOWEST:"; cat "$SMOKE_DIR/profile.txt"; exit 1; }
COVER=$(sed -n 's/.*(\([0-9.]*\)% of root wall-clock).*/\1/p' "$SMOKE_DIR/profile.txt" | head -n1)
if [ -z "$COVER" ] || ! awk -v c="$COVER" 'BEGIN { exit !(c >= 95.0 && c <= 105.0) }'; then
  echo "critical path covers ${COVER:-no}% of the root wall-clock (want 100% +/- 5%):"
  cat "$SMOKE_DIR/profile.txt"
  exit 1
fi

if [ ! -s "$SMOKE_DIR/ledger.jsonl" ]; then
  echo "audit ledger is empty"
  exit 1
fi

echo "observability endpoint OK at $ADDR"
