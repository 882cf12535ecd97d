#!/usr/bin/env bash
# Local pre-merge gate: formatting, lints, and the full test suite.
# Mirrors .github/workflows/ci.yml so a clean local run means green CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no source file names serde, serde_json, parking_lot or crossbeam"
# JSON goes through enld_telemetry::json and locks are std's; the manifest
# edges that remain are unused until a benchmark PR may rewrite perf/Cargo.lock.
if grep -rnE 'serde|parking_lot|crossbeam' --include='*.rs' crates tests examples; then
  echo "the files above name a crate the sources no longer use"
  exit 1
fi

echo "==> line budgets (telemetry at most 4,000, knn at most 400, ann at most 646, core at most 2,848; DESIGN.md at most 700)"
LOC=$(bash scripts/loc.sh)
printf '%s\n' "$LOC"
for budget in telemetry:4000 knn:400 ann:646 core:2848; do
  crate=${budget%%:*}
  limit=${budget#*:}
  lines=$(printf '%s\n' "$LOC" | awk -v c="crates/$crate" '$1 == c { print $2 }')
  if [ "$lines" -gt "$limit" ]; then
    echo "crates/$crate has $lines non-test lines (limit $limit)"
    exit 1
  fi
done
DESIGN_LINES=$(wc -l < DESIGN.md)
if [ "$DESIGN_LINES" -gt 700 ]; then
  echo "DESIGN.md has $DESIGN_LINES lines (limit 700): history belongs in CHANGES.md"
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> enld-nn and enld-par again in the release profile"
# The benchmark measures the release build (thin LTO), where inlining and
# lowering differ from the test profile; the bitwise tests must hold there too.
cargo test --release -q -p enld-nn -p enld-par

echo "==> parallel determinism suite (ENLD_THREADS=1 and 4)"
ENLD_THREADS=1 cargo test -q -p enld-integration --test determinism
ENLD_THREADS=4 cargo test -q -p enld-integration --test determinism

echo "==> chaos + recovery suite (ENLD_THREADS=1 and 4)"
ENLD_THREADS=1 cargo test -q -p enld-integration --test chaos
ENLD_THREADS=4 cargo test -q -p enld-integration --test chaos

echo "==> failpoint-arming unit tests (serial, #[ignore]d in the default run)"
cargo test -q --workspace -- --ignored --test-threads=1

echo "==> enld-nn again, the whole crate at the host's widest ISA"
# Width independence: every bitwise test of enld-nn must also hold when the
# whole crate, element-wise loops included, is compiled at the host's widest ISA.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native cargo test -q -p enld-nn

echo "==> checkpoint/resume CLI smoke (injected crash + resume)"
bash scripts/chaos_smoke.sh

echo "==> ann index CLI smoke (hnsw per-round builds + crash at checkpoint.write + resume)"
bash scripts/ann_smoke.sh

echo "==> perf smoke (harness and shim tests, every workload once + verdict hashes, no lock drift)"
(cd perf && cargo test --offline)
bash scripts/perf_smoke.sh
git diff --exit-code -- perf/Cargo.lock

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> observability smoke test (enld serve --obs-addr)"
bash scripts/obs_smoke.sh

echo "==> trace + profile smoke (enld detect --trace-out | enld profile)"
bash scripts/profile_smoke.sh

echo "==> streaming-monitor smoke (injected drift fires /alerts, stationary stays quiet)"
bash scripts/monitor_smoke.sh

echo "==> bench suite smoke (enld bench grid run, schema + ranking, malformed grids rejected)"
bash scripts/bench_suite_smoke.sh

echo "All checks passed."
