#!/usr/bin/env bash
# Run a fixed list of cycleq commands from two checkouts of this repository
# and fail unless every command exits 0 under both and prints the same bytes
# on stdout. Each checkout runs from its own src/.
#
#   scripts/compare_stdout.sh BASE_DIR HEAD_DIR
set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_DIR HEAD_DIR" >&2
  exit 2
fi
base=$1
head=$2

commands=(
  "graph 12"
  "graph 5040 -f dot"
  "graph 5040 -f json"
  "compute 10080"
  "matrix 2520 -f json"
  "table 2 400 -f csv"
  "solve 9 3 3 -f json"
  "verify 2 6"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for cmd in "${commands[@]}"; do
  for side in base head; do
    tree=${!side}
    # $cmd is split into words on purpose
    if ! PYTHONPATH="$tree/src" python3 -m cycleq $cmd </dev/null >"$out/$side"; then
      echo "FAIL  $cmd (exit status not 0 under $tree)"
      status=1
      continue 2
    fi
  done
  if cmp -s "$out/base" "$out/head"; then
    echo "same  $cmd"
  else
    echo "DIFF  $cmd"
    status=1
  fi
done
exit $status
