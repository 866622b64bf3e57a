#!/usr/bin/env bash
# Run fixed lists of cycleq commands from two checkouts of this repository.
# The first list must exit 0 under both and print the same bytes on stdout.
# The second list holds failing commands: each must exit non-zero under both,
# with the same exit status and the same bytes on stdout and stderr. Each
# checkout runs from its own src/.
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
  "--help"
  "verify --help"
  "solve --help"
  "graph 12"
  "graph 5040 -f dot"
  "graph 5040 -f json"
  "compute 10080"
  "matrix 1"
  "matrix 2520 -f json"
  "matrix 5040 -f json"
  "table 1 40"
  "table 2 400 -f csv"
  "solve 9 3 3 -f json"
  "solve 9 9 9"
  "solve 9 9 9 -f json"
  "solve 10 2 4"
  "solve 10 5 5"
  "solve 10 10 10"
  "solve 12 4 4 -f json"
  "solve 12 6 6"
  "solve 12 6 6 -f json"
  "solve 14 7 7 -f json"
  "solve 15 5 5 -f json"
  "solve 99 1 98 -f json"
  "solve 100 1 3 -f json"
  "solve 254 2 2"
  "solve 254 2 252"
  "solve 255 1 2"
  "solve 256 1 3"
  "solve 256 2 2"
  "solve 1 1 1"
  "solve 8 8 8 -o /dev/stdout"
  "verify 2 6"
  "verify 2 7"
  "verify 1 8"
  "verify 2 8 --seed 5"
  "verify 9 9 --oracle-bound 9"
)

# leading NAME=VALUE words go to the environment
errors=(
  "compute 0"
  "compute x"
  "table 5 2"
  "matrix -1"
  "solve 6 1 2"
  "solve 4 2 5"
  "solve 4 0 2"
  "solve 5 5 6"
  "solve 0 1 1"
  "solve 12 4 6"
  "verify 9 9"
  "verify 2 3 --oracle-bound 2"
  "CYCLEQ_ORACLE_BOUND=junk verify 2 3"
  "CYCLEQ_ORACLE_BOUND=2 verify 3 3"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run TREE WORDS...: cycleq from TREE/src with WORDS as its environment and arguments
run() {
  local tree=$1 envs=()
  shift
  while [ $# -gt 0 ] && [[ $1 == *=* ]]; do
    envs+=("$1")
    shift
  done
  env PYTHONPATH="$tree/src" ${envs[@]+"${envs[@]}"} python3 -m cycleq "$@" </dev/null
}

status=0
for cmd in "${commands[@]}"; do
  for side in base head; do
    tree=${!side}
    # $cmd is split into words on purpose
    if ! run "$tree" $cmd >"$out/$side"; then
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

for cmd in "${errors[@]}"; do
  for side in base head; do
    tree=${!side}
    run "$tree" $cmd >"$out/$side" 2>"$out/$side.err"
    code=$?
    if [ $code -eq 0 ]; then
      echo "FAIL  $cmd (exit status 0 under $tree)"
      status=1
      continue 2
    fi
    echo "exit $code" >>"$out/$side.err"
  done
  if cmp -s "$out/base" "$out/head" && cmp -s "$out/base.err" "$out/head.err"; then
    echo "same  $cmd (stdout, stderr, exit status)"
  else
    echo "DIFF  $cmd (stdout, stderr or exit status)"
    status=1
  fi
done
exit $status
