#!/usr/bin/env bash
# Streaming-monitor smoke test: serve a lake whose second half of
# arrivals drifted to a higher label-noise rate (`enld generate
# --drift`), poll /alerts until the default CUSUM drift rule fires, then
# assert the degraded /healthz mapping (and its --healthz-strict 503
# form), the alert counters in /metrics, `enld monitor --ledger` replay,
# that the removed live console's --obs-addr is a named error, and a
# custom --alert-rules file. A stationary control run must fire nothing.
# Called from check.sh and CI; /alerts snapshots land in
# $SMOKE_ARTIFACT_DIR when set so a red run leaves evidence behind.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v curl >/dev/null 2>&1; then
  echo "curl not found; skipping the monitor smoke test"
  exit 0
fi

cargo build --release -q -p enld-cli

SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
save_artifacts() {
  if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    cp "$SMOKE_DIR"/alerts-*.json "$SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
  fi
}
cleanup() {
  save_artifacts
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

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

# Launches `enld serve $@` against $1 and waits for the obs endpoint.
start_serve() {
  local lake=$1
  shift
  : > "$SMOKE_DIR/serve.log"
  ./target/release/enld serve --lake "$lake" --workers 2 --iterations 2 \
    --obs-addr 127.0.0.1:0 --obs-linger 120 "$@" \
    > "$SMOKE_DIR/serve.log" 2>&1 &
  SERVE_PID=$!
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
}

stop_serve() {
  kill "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""
}

# ---- drifted run: the alert must fire --------------------------------------

./target/release/enld generate --preset test-sim --noise 0.2 --drift 0.6 --seed 7 \
  --out "$SMOKE_DIR/lake-drift.json" >/dev/null

start_serve "$SMOKE_DIR/lake-drift.json" --healthz-strict --ledger "$SMOKE_DIR/drift-ledger.jsonl"

ALERTS=""
FIRING=""
for _ in $(seq 1 240); do
  server_alive_or_die
  ALERTS=$(curl -fsS "http://$ADDR/alerts" || true)
  printf '%s' "$ALERTS" > "$SMOKE_DIR/alerts-drift.json"
  if printf '%s' "$ALERTS" | grep -q '"state":"firing"'; then
    FIRING=1
    break
  fi
  sleep 0.5
done
if [ -z "$FIRING" ]; then
  echo "the injected drift never fired an alert; last /alerts payload:"
  printf '%s\n' "$ALERTS"
  exit 1
fi
if ! printf '%s' "$ALERTS" | grep -q '"name":"drift-ambiguous-rate"'; then
  echo "default drift rule missing from /alerts: $ALERTS"
  exit 1
fi
if ! printf '%s' "$ALERTS" | grep -q '"event":"firing"'; then
  echo "/alerts recent log has no firing edge: $ALERTS"
  exit 1
fi

# Firing alerts degrade /healthz; --healthz-strict maps that to 503.
HEALTHZ=$(curl -sS "http://$ADDR/healthz")
if ! printf '%s' "$HEALTHZ" | grep -q '"status":"degraded"'; then
  echo "/healthz did not degrade while an alert is firing: $HEALTHZ"
  exit 1
fi
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
if [ "$CODE" != "503" ]; then
  echo "--healthz-strict should serve 503 while firing, got $CODE"
  exit 1
fi

# The alert counters ride the normal Prometheus exposition.
METRICS=$(curl -fsS "http://$ADDR/metrics")
if ! printf '%s\n' "$METRICS" | grep -q '^enld_alerts_fired_total '; then
  echo "enld_alerts_fired_total missing from /metrics:"
  printf '%s\n' "$METRICS" | grep '^enld_alerts' || true
  exit 1
fi

# There is no live console: `enld monitor --obs-addr` is a named error.
RC=0
LIVE=$(./target/release/enld monitor --obs-addr "$ADDR" 2>&1) || RC=$?
if [ "$RC" -eq 0 ] || ! printf '%s' "$LIVE" | grep -q 'unknown flag --obs-addr' \
  || printf '%s' "$LIVE" | grep -q 'panicked at'; then
  echo "enld monitor --obs-addr must fail naming the flag without a panic (exit $RC): $LIVE"
  exit 1
fi

stop_serve

# Offline replay of the run's ledger re-derives the firing state.
REPLAY=$(./target/release/enld monitor --ledger "$SMOKE_DIR/drift-ledger.jsonl")
if ! printf '%s' "$REPLAY" | grep -q '"state":"firing"'; then
  echo "ledger replay of the drifted run does not fire: $REPLAY"
  exit 1
fi

# A custom --alert-rules file replaces the defaults end to end: only the
# drift series, with a hair trigger.
cat > "$SMOKE_DIR/rules.json" <<'RULES'
[{"name": "smoke-drift", "metric": "enld.drift.ambiguous_rate", "kind": "cusum",
  "warmup": 2, "k": 0.5, "h": 2.0, "min_sigma": 0.05, "hold": 1, "resolve": 3}]
RULES
REPLAY=$(./target/release/enld monitor --ledger "$SMOKE_DIR/drift-ledger.jsonl" \
  --alert-rules "$SMOKE_DIR/rules.json")
if ! printf '%s' "$REPLAY" | grep -q '"name":"smoke-drift"'; then
  echo "--alert-rules was ignored by the replay: $REPLAY"
  exit 1
fi
if ! printf '%s' "$REPLAY" | grep -q '"rules":1'; then
  echo "custom rule file should replace the default set: $REPLAY"
  exit 1
fi

# An out-of-range detector parameter is a named error, not a panic.
printf '%s' '[{"name":"x","metric":"enld.drift.ambiguous_rate","kind":"cusum","h":0}]' \
  > "$SMOKE_DIR/bad-rules.json"
RC=0
BAD=$(./target/release/enld monitor --ledger "$SMOKE_DIR/drift-ledger.jsonl" \
  --alert-rules "$SMOKE_DIR/bad-rules.json" 2>&1) || RC=$?
if [ "$RC" -eq 0 ] || ! printf '%s' "$BAD" | grep -q '"h"' \
  || printf '%s' "$BAD" | grep -q 'panicked at'; then
  echo "a rules file with h = 0 must fail naming \"h\" without a panic (exit $RC): $BAD"
  exit 1
fi

# ---- stationary control: nothing may fire ----------------------------------

./target/release/enld generate --preset test-sim --noise 0.2 --seed 7 \
  --out "$SMOKE_DIR/lake-flat.json" >/dev/null

start_serve "$SMOKE_DIR/lake-flat.json" --ledger "$SMOKE_DIR/flat-ledger.jsonl"

DONE=""
for _ in $(seq 1 240); do
  server_alive_or_die
  ALERTS=$(curl -fsS "http://$ADDR/alerts" || true)
  printf '%s' "$ALERTS" > "$SMOKE_DIR/alerts-stationary.json"
  # All four test-sim arrivals consumed by the drift rule = run complete.
  if printf '%s' "$ALERTS" | grep -q '"observations":4'; then
    DONE=1
    break
  fi
  sleep 0.5
done
if [ -z "$DONE" ]; then
  echo "stationary run never finished its arrivals; last /alerts payload:"
  printf '%s\n' "$ALERTS"
  exit 1
fi
if printf '%s' "$ALERTS" | grep -q '"state":"firing"'; then
  echo "stationary control fired an alert: $ALERTS"
  exit 1
fi
if ! printf '%s' "$ALERTS" | grep -q '"firing":0'; then
  echo "stationary control reports firing rules: $ALERTS"
  exit 1
fi
HEALTHZ=$(curl -fsS "http://$ADDR/healthz")
if ! printf '%s' "$HEALTHZ" | grep -q '"status":"ok"'; then
  echo "stationary /healthz is not ok: $HEALTHZ"
  exit 1
fi

stop_serve

echo "monitor smoke OK (drift fired, stationary stayed quiet)"
