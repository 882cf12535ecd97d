#!/usr/bin/env bash
# Non-test line count per crate, as ROADMAP.md counts it: every line of
# each .rs file under crates/<name>/ before the file's first
# `#[cfg(test)]`. Prints `crates/<name> <lines>` per crate, then the total.
# With --check it also enforces the line budgets below and DESIGN.md's
# 700-line cap, failing when any is exceeded; scripts/check.sh and CI
# both run it that way.
#
#   bash scripts/loc.sh                       # the table
#   bash scripts/loc.sh --check               # the table, then the budgets
#   bash scripts/loc.sh | awk '$1 == "crates/telemetry" { print $2 }'
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGETS="telemetry:3580 lake:186 knn:400 ann:646 par:166 core:2848 nn:2240"
DESIGN_LIMIT=700

table=""
total=0
for crate in crates/*/; do
  crate=${crate%/}
  lines=$(find "$crate" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
  table+="$crate $lines"$'\n'
  total=$((total + lines))
done
printf '%stotal %s\n' "$table" "$total"

[ "${1:-}" = "--check" ] || exit 0
for budget in $BUDGETS; do
  crate=${budget%%:*}
  limit=${budget#*:}
  lines=$(printf '%s' "$table" | awk -v c="crates/$crate" '$1 == c { print $2 }')
  if [ "$lines" -gt "$limit" ]; then
    echo "crates/$crate has $lines non-test lines (limit $limit)"
    exit 1
  fi
done
design_lines=$(wc -l < DESIGN.md)
if [ "$design_lines" -gt "$DESIGN_LIMIT" ]; then
  echo "DESIGN.md has $design_lines lines (limit $DESIGN_LIMIT): history belongs in CHANGES.md"
  exit 1
fi
echo "line budgets hold: $BUDGETS; DESIGN.md $design_lines of $DESIGN_LIMIT"
