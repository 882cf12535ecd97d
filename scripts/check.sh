#!/usr/bin/env bash
# Local pre-merge gate: formatting, lints, and the full test suite.
# Mirrors .github/workflows/ci.yml so a clean local run means green CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> parallel determinism suite (ENLD_THREADS=1 and 4)"
ENLD_THREADS=1 cargo test -q -p enld-integration --test determinism
ENLD_THREADS=4 cargo test -q -p enld-integration --test determinism

echo "==> chaos + recovery suite (ENLD_THREADS=1 and 4)"
ENLD_THREADS=1 cargo test -q -p enld-integration --test chaos
ENLD_THREADS=4 cargo test -q -p enld-integration --test chaos

echo "==> failpoint-arming unit tests (serial, #[ignore]d in the default run)"
cargo test -q --workspace -- --ignored --test-threads=1

echo "==> checkpoint/resume CLI smoke (injected crash + resume)"
bash scripts/chaos_smoke.sh

echo "==> ann index CLI smoke (hnsw build + crash mid-persist + rebuild-free resume)"
bash scripts/ann_smoke.sh

echo "==> perf smoke (harness tests, nine crates' own tests offline, every workload once + verdict hashes, no lock drift)"
(cd perf && cargo test --offline)
# Cargo refuses `test -p` on a linked crate that has any dev-dependency, so
# a re-added one fails here instead of silently un-running the crate offline.
cargo test --offline --manifest-path perf/Cargo.toml \
    -p enld-chaos -p enld-telemetry -p enld-par -p enld-serve -p enld-ann \
    -p enld-nn -p enld-lake -p enld-baselines -p enld-core
# Width independence: every bitwise test of enld-nn must also hold when the
# whole crate, element-wise loops included, is compiled at the host's widest ISA.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=perf/target/native \
    cargo test --offline --manifest-path perf/Cargo.toml -p enld-nn
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
