#!/usr/bin/env bash
# The mutant catalog runner: every scripts/mutants/*.patch against its check.
#
#   scripts/mutants.sh [out-file]      (default: BENCH_mutants.json at the root)
#
# For each patch, in name order: copy the committed tree (`git archive HEAD`)
# into a scratch directory, apply the patch, build what its `check:` header
# line runs, run the check there, and record the outcome. Every copy builds
# into one shared target directory (`CARGO_TARGET_DIR` if set), so only the
# crates a patch touches and those above them are rebuilt per mutant.
#
# The check's exit status is the verdict: non-zero means the mutant was
# killed, zero that it survived. A campaign check (one that prints
# `campaign app=...` lines) also records its failing plans per app. The file
# holds no timings, so it is a pure function of the tree: CI runs this
# script and `git diff --exit-code`s the result.
#
# Exits 1 when a patch no longer applies, when a mutant does not build, or
# when a mutant expected `killed` survives; the record is written either way.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
out=${1:-$root/BENCH_mutants.json}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
tree=$work/tree

# The value of a `key: value` header line (the first one).
header() { sed -n "s/^$1: //p" "$2" | head -1; }
# JSON string contents: backslashes and double quotes escaped.
quote() { sed 's/[\\"]/\\&/g' <<<"$1"; }

# Every file some patch mutates. A fresh copy keeps git's commit-time mtimes,
# older than the last mutant's build, so cargo would not see that the copy
# undid that mutant; touching these files makes each copy rebuild them.
mapfile -t mutated < <(sed -n 's|^+++ b/||p' "$root"/scripts/mutants/*.patch | sort -u)

status=0
records=()
for patch in "$root"/scripts/mutants/*.patch; do
  mutant=$(basename "$patch" .patch)
  check=$(header check "$patch")
  expect=$(header expect "$patch")
  if [ -z "$check" ] || [ -z "$expect" ]; then
    echo "$mutant: the header needs a check: and an expect: line" >&2
    exit 2
  fi
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$root" archive HEAD | tar -x -C "$tree"
  (cd "$tree" && touch "${mutated[@]}")
  failed=""
  if ! (cd "$tree" && git apply "$patch"); then
    outcome=stale
  else
    # What the check runs, built first so a mutant that does not compile is
    # not counted as killed: `cargo test A -- F` builds as `cargo test A
    # --no-run`, `cargo run A -- F` as `cargo build A`.
    build=${check%% -- *}
    case $build in
      "cargo test"*) build="$build --no-run" ;;
      "cargo run"*) build="cargo build${build#cargo run}" ;;
      *) echo "$mutant: check must be a cargo test or cargo run command" >&2; exit 2 ;;
    esac
    echo "== $mutant: $check" >&2
    if ! (cd "$tree" && bash -c "$build") >&2; then
      outcome=unbuilt
    else
      log=$work/$mutant.out
      if (cd "$tree" && bash -c "$check") >"$log"; then
        outcome=survived
      else
        outcome=killed
      fi
      failed=$(sed -n 's/^campaign app=\([a-z]*\) .* failures=\([0-9]*\)$/"\1": \2/p' "$log" |
        paste -sd, - | sed 's/,/, /g')
    fi
  fi
  echo "== $mutant: $outcome (expect $expect)" >&2
  case $outcome in
    stale | unbuilt) status=1 ;;
    survived) [ "$expect" != killed ] || status=1 ;;
  esac
  record="  {\"mutant\": \"$mutant\", \"check\": \"$(quote "$check")\", \"expect\": \"$(quote "$expect")\", \"outcome\": \"$outcome\""
  [ -z "$failed" ] || record="$record, \"failed\": {$failed}"
  records+=("$record}")
done

{
  echo "["
  for i in "${!records[@]}"; do
    if [ "$i" -lt $((${#records[@]} - 1)) ]; then echo "${records[$i]},"; else echo "${records[$i]}"; fi
  done
  echo "]"
} >"$out"
exit $status
