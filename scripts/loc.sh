#!/usr/bin/env bash
# The one non-test line count of the workspace (ROADMAP's size rule).
#
# Counts the non-blank lines that are not `//` comments in every `.rs`
# file under crates/*/src and src, with each file cut at its first
# column-0 `#[cfg(test)]`: that attribute opens a file's test tail, while
# an indented one marks a test-only helper inside non-test code, which is
# counted. Prints one line per crate (the umbrella package's as `src`) and
# the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { cut = 0 }
    /^#\[cfg\(test\)\]/ { cut = 1 }
    cut { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
  name="${dir%/src}"
  name="${name#crates/}"
  n=$(count "$dir")
  printf '%-14s %6d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
