#!/usr/bin/env bash
# Perf smoke with the exactness gate: runs every benchmark workload once
# (`perf/run.sh --smoke`, seed 7) and asserts the verdict hashes of the
# three closed-loop workloads. Same seed ⇒ same verdicts at every vector
# width the f32 kernel is compiled for, so a hash that moves is a
# numerics change. A deliberate one updates the constants below in the
# same PR. `serve_emnist_open` is left out: its hash depends on the
# worker count (nproc - 1). Called from check.sh and CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each run prints "# <workload> seed=…" and then "# verdict_hash <hash> …";
# the smoke's output passes through unchanged.
bash perf/run.sh --smoke --seed 7 | awk '
  BEGIN {
    want["stream_cifar100_t1"] = "c68b1c70ec851166"
    want["stream_emnist2x_tn"] = "78de0a5b36f26d39"
    want["durable_cifar100_t1"] = "c68b1c70ec851166"
  }
  { print }
  /^# [a-z0-9_]+ seed=/ { workload = $2 }
  /^# verdict_hash / { found[workload] = $3 }
  END {
    for (w in want) {
      got = (w in found) ? found[w] : "none"
      if (got != want[w]) {
        printf "verdict hash of %s at seed 7: expected %s, found %s\n", w, want[w], got
        bad = 1
      }
    }
    if (!bad) print "perf smoke: the three closed-loop seed-7 verdict hashes match"
    exit bad
  }'
