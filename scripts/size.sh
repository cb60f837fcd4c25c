#!/usr/bin/env bash
# Size of the non-test Rust code under a directory.
#
#   scripts/size.sh <dir> [max-fn-lines]
#
# Two measurements, the ones the size criteria of ISSUE 21 and 22 are stated
# in. A *code line* is a non-blank line that is not a `//` comment, before the
# file's first `#[cfg(test)]`. A *function's length* is raw lines from its
# `fn` line to the closing brace at the same indentation, again before the
# first `#[cfg(test)]`. Prints code lines per file and their sum, then the ten
# longest functions. With `max-fn-lines`, exits 1 if any function is longer.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <dir> [max-fn-lines]" >&2
  exit 2
fi
dir=$1
max=${2:-0}
files=$(find "$dir" -name '*.rs' | sort)

echo "code lines (before the first #[cfg(test)]):"
total=0
for f in $files; do
  n=$(awk '/#\[cfg\(test\)\]/{exit} NF && $1 !~ /^\/\//' "$f" | wc -l)
  printf '%6d %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d total\n' "$total"

fns=$(for f in $files; do
  awk -v f="$f" '
    /#\[cfg\(test\)\]/ {exit}
    /^ *(pub(\([a-z]+\))? )?fn / {match($0, /^ */); ind = RLENGTH; start = NR; name = $0}
    start && $0 ~ ("^" sprintf("%" ind "s", "") "}") {print NR - start + 1, f, name; start = 0}
  ' "$f"
done | sort -rn)

echo "longest functions:"
head <<< "$fns"

longest=$(head -1 <<< "$fns" | cut -d' ' -f1)
if [ "$max" -gt 0 ] && [ "${longest:-0}" -gt "$max" ]; then
  echo "a non-test function under $dir is $longest lines, over the bound of $max" >&2
  exit 1
fi
