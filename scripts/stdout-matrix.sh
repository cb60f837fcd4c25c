#!/usr/bin/env bash
# The campaign-stdout matrix: 40 cells x 100 plans, seed 7, one file per cell.
#
#   scripts/stdout-matrix.sh <campaign-binary> <out-dir>
#
# Campaign stdout is a pure function of the arguments, so a change that is
# not meant to alter execution is checked by running this on the parent's
# binary and on the change's and comparing the two directories:
#
#   diff -r <parent-out> <change-out>
#
# Two filters, for the two kinds of change that mean to move one field and
# nothing else. A change to what a `reproduce:` line looks like: drop those
# lines first (`grep -v '^  reproduce:'`). A change to how the run digest is
# folded (PR 23 re-based it from `Debug` text to typed values): mask the
# digests on both directories, then compare —
#
#   sed -i -E 's/digest=[0-9a-f]{16}/digest=X/' <parent-out>/*.out <change-out>/*.out
#   diff -r <parent-out> <change-out>
#
# — so plan counts, failure counts, violations, shrunk plans, `reproduce:`
# lines and the upstream-backup and control-plane counters must still agree
# byte for byte.
#
# Cells: 4 apps x --jobs 1/8 x plain / --checkpoint-interval 10 /
# + --upstream-backup on, then per app SPS_BATCH=off, --control-faults on,
# and two finite-budget checkpoint stores. Every cell must exit 0: a failing
# plan anywhere stops the script, and its `reproduce:` line is in the cell's
# file. There is no metastore cell: SAM's store keeps its op log in every
# world, so the <app>-replicated cell that `--metastore replicated` once ran
# is the <app>-j1-plain cell (a parent matrix that still has it must equal
# that cell byte for byte).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <campaign-binary> <out-dir>" >&2
  exit 2
fi
bin=$1
out=$2
mkdir -p "$out"

cell() { # name, then campaign flags; environment passes through
  local name=$1 status=0
  shift
  "$bin" --plans 100 --seed 7 "$@" >"$out/$name.out" 2>/dev/null || status=$?
  if [ "$status" -ne 0 ] || ! grep -q '^campaign ' "$out/$name.out"; then
    echo "cell $name: exit $status (see $out/$name.out)" >&2
    exit 1
  fi
}

for app in live sentiment social trend; do
  for jobs in 1 8; do
    cell "$app-j$jobs-plain" --app "$app" --jobs "$jobs"
    cell "$app-j$jobs-ckpt" --app "$app" --jobs "$jobs" --checkpoint-interval 10
    cell "$app-j$jobs-ub" --app "$app" --jobs "$jobs" --checkpoint-interval 10 --upstream-backup on
  done
  SPS_BATCH=off cell "$app-batch-off" --app "$app"
  cell "$app-ctrl" --app "$app" --control-faults on
  cell "$app-budget-16k" --app "$app" --checkpoint-interval 10 --ckpt-budget 16384 --ckpt-write-latency 5
  cell "$app-budget-4k" --app "$app" --checkpoint-interval 5 --ckpt-budget 4096 --ckpt-write-latency 250
done
echo "$(find "$out" -name '*.out' | wc -l) cells in $out" >&2
