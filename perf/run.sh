#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see perf/README.md.
#
#   perf/run.sh                         every workload: timed run, then traced run
#   perf/run.sh --workload W --seed N   the suite for one workload / another seed
#   perf/run.sh --smoke                 a short pass over everything, no bounds
#   perf/run.sh --check                 two full sets, compared against the bounds
#   perf/run.sh --compare A.json B.json compare two result files
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                       one run, as the benchmark driver calls it
set -euo pipefail

# Paths below (and a relative CARGO_TARGET_DIR) are relative to the root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perf/target}"

# Cargo reports on stderr, so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --bin enld-perf
exec "$target/release/enld-perf" "$@"
